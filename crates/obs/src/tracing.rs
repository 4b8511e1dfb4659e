//! Hierarchical span tracing with a fixed-capacity event journal.
//!
//! A [`Tracer`] records spans (`run → cycle → stage → shard`) and
//! leveled point events into a lock-light ring-buffer [`journal`]: the
//! enabled/level check is a single atomic load, and only events that
//! pass it take the short journal lock. A disabled tracer (the
//! default) is a no-op handle that costs one branch per call, so
//! library code can thread tracing through unconditionally.
//!
//! Span identity is an allocation-ordered `u64`; [`SpanContext`] is the
//! `Copy` handle that crosses threads — `lpr-par` passes the stage
//! span's context into shard workers so their spans parent correctly.
//!
//! [`journal`]: TraceSnapshot

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Severity of a point event ([`Tracer::event`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Fine-grained diagnostics, off by default.
    Debug = 0,
    /// Normal milestones.
    Info = 1,
    /// Degraded-but-continuing conditions (skips, quarantines).
    Warn = 2,
    /// Lost work (poisoned shards, fatal per-item failures).
    Error = 3,
}

impl Level {
    /// Every level, ascending.
    pub const ALL: [Level; 4] = [Level::Debug, Level::Info, Level::Warn, Level::Error];

    /// Lower-case name (`"debug"`, `"info"`, `"warn"`, `"error"`).
    pub fn name(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses a level name as written on a `--trace-level` flag.
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Debug,
            1 => Level::Info,
            2 => Level::Warn,
            _ => Level::Error,
        }
    }
}

/// A structured field value attached to an event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FieldValue {
    /// Unsigned count.
    U64(u64),
    /// Signed quantity.
    I64(i64),
    /// Free text (reason strings, names).
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// The `Copy` handle to a live span, safe to send across threads.
///
/// Context `0` is the root: spans opened under it have no parent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanContext {
    id: u64,
}

impl SpanContext {
    /// The root context (no parent).
    pub const ROOT: SpanContext = SpanContext { id: 0 };

    /// The span's journal identifier (0 for the root context or spans
    /// of a disabled tracer).
    pub fn id(self) -> u64 {
        self.id
    }
}

/// One journal entry.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A span opened.
    SpanBegin {
        /// Allocation-ordered span identifier (never 0).
        id: u64,
        /// Parent span id (0 = top-level).
        parent: u64,
        /// Span name (`"run"`, `"stage:Persistence"`, `"shard3"`…).
        name: String,
        /// Microseconds since the journal epoch.
        ts_us: u64,
        /// Logical lane for timeline exporters (worker index; 0 = main).
        tid: u64,
    },
    /// A span closed.
    SpanEnd {
        /// The span that closed.
        id: u64,
        /// Microseconds since the journal epoch.
        ts_us: u64,
    },
    /// A leveled point event inside a span.
    Event {
        /// Enclosing span id (0 = outside any span).
        span: u64,
        /// Severity.
        level: Level,
        /// Event name (`"quarantine"`, `"poisoned-shard"`…).
        name: String,
        /// Microseconds since the journal epoch.
        ts_us: u64,
        /// Structured payload, in recording order.
        fields: Vec<(String, FieldValue)>,
    },
}

impl TraceEvent {
    /// The entry's timestamp, microseconds since the journal epoch.
    pub fn ts_us(&self) -> u64 {
        match self {
            TraceEvent::SpanBegin { ts_us, .. }
            | TraceEvent::SpanEnd { ts_us, .. }
            | TraceEvent::Event { ts_us, .. } => *ts_us,
        }
    }
}

/// A point-in-time copy of the journal ([`Tracer::snapshot`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSnapshot {
    /// Journal entries, oldest first.
    pub events: Vec<TraceEvent>,
    /// Entries overwritten by ring-buffer wraparound (oldest lost).
    pub dropped: u64,
}

struct Ring {
    buf: VecDeque<TraceEvent>,
    dropped: u64,
}

struct Inner {
    epoch: Instant,
    capacity: usize,
    ring: Mutex<Ring>,
    next_id: AtomicU64,
    level: AtomicU8,
    default_parent: AtomicU64,
}

impl Inner {
    /// `at` in microseconds since the journal epoch.
    fn ts_us(&self, at: Instant) -> u64 {
        crate::time::duration_us(at.saturating_duration_since(self.epoch))
    }

    fn now_us(&self) -> u64 {
        self.ts_us(Instant::now())
    }

    fn push(&self, event: TraceEvent) {
        let mut ring = self.ring.lock().expect("trace journal poisoned");
        if ring.buf.len() == self.capacity {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(event);
    }
}

/// Default journal capacity (entries), plenty for a full classify run.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1 << 16;

/// The shared no-op tracer, for handles that outlive no recorder.
pub(crate) static DISABLED: Tracer = Tracer { inner: None };

/// Records spans and events into a shared journal.
///
/// Cloning is cheap (an `Arc`); every clone feeds the same journal.
/// [`Tracer::disabled`] (also `Default`) is a no-op handle.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Tracer(disabled)"),
            Some(inner) => {
                write!(f, "Tracer(level={})", Level::from_u8(inner.level.load(Ordering::Relaxed)).name())
            }
        }
    }
}

impl Tracer {
    /// Starts an enabled tracer journaling events at `level` and above,
    /// with the default journal capacity.
    pub fn new(level: Level) -> Tracer {
        Tracer::with_capacity(level, DEFAULT_JOURNAL_CAPACITY)
    }

    /// [`Tracer::new`] with an explicit journal capacity (entries; at
    /// least 1).
    pub fn with_capacity(level: Level, capacity: usize) -> Tracer {
        let capacity = capacity.max(1);
        Tracer {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                capacity,
                ring: Mutex::new(Ring { buf: VecDeque::with_capacity(capacity.min(1024)), dropped: 0 }),
                next_id: AtomicU64::new(1),
                level: AtomicU8::new(level as u8),
                default_parent: AtomicU64::new(0),
            })),
        }
    }

    /// The no-op tracer: every call is a cheap branch, nothing is
    /// journaled.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Whether this tracer journals anything at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether an event at `level` would be journaled — the lock-free
    /// fast path callers may use to skip building field payloads.
    pub fn would_log(&self, level: Level) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => level as u8 >= inner.level.load(Ordering::Relaxed),
        }
    }

    /// Makes `ctx` the implicit parent of spans opened with
    /// [`Tracer::span`] — drivers set their root span here so library
    /// code nests under it without plumbing a context.
    pub fn set_default_parent(&self, ctx: SpanContext) {
        if let Some(inner) = &self.inner {
            inner.default_parent.store(ctx.id, Ordering::Relaxed);
        }
    }

    /// The current implicit parent (the root context until
    /// [`Tracer::set_default_parent`] changes it) — library code
    /// journals events under it when no span of its own is open.
    pub fn default_parent(&self) -> SpanContext {
        match &self.inner {
            None => SpanContext::ROOT,
            Some(inner) => SpanContext { id: inner.default_parent.load(Ordering::Relaxed) },
        }
    }

    /// Opens a span under the default parent (see
    /// [`Tracer::set_default_parent`]).
    pub fn span(&self, name: impl Into<String>) -> Span {
        let parent = match &self.inner {
            None => SpanContext::ROOT,
            Some(inner) => SpanContext { id: inner.default_parent.load(Ordering::Relaxed) },
        };
        self.span_on(parent, name, 0)
    }

    /// Opens a span under an explicit parent.
    pub fn span_under(&self, parent: SpanContext, name: impl Into<String>) -> Span {
        self.span_on(parent, name, 0)
    }

    /// Opens a span under an explicit parent on a logical lane (`tid`)
    /// — shard/worker spans pass their worker index so timeline
    /// exporters draw them on separate rows.
    pub fn span_on(&self, parent: SpanContext, name: impl Into<String>, tid: u64) -> Span {
        match self.inner {
            None => Span::inert(),
            Some(_) => self.span_at(parent, name.into(), tid, Instant::now()),
        }
    }

    /// Opens a span stamped at `at`, a clock reading the caller also
    /// uses (see [`crate::StageGuard`]).
    pub(crate) fn span_at(&self, parent: SpanContext, name: String, tid: u64, at: Instant) -> Span {
        let Some(inner) = &self.inner else { return Span::inert() };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let ts_us = inner.ts_us(at);
        inner.push(TraceEvent::SpanBegin { id, parent: parent.id, name, ts_us, tid });
        Span { tracer: self.clone(), id }
    }

    /// Journals a leveled point event inside `span` (use
    /// [`SpanContext::ROOT`] for none). Dropped without locking when
    /// below the tracer's level.
    pub fn event(
        &self,
        span: SpanContext,
        level: Level,
        name: impl Into<String>,
        fields: Vec<(String, FieldValue)>,
    ) {
        let Some(inner) = &self.inner else { return };
        if (level as u8) < inner.level.load(Ordering::Relaxed) {
            return;
        }
        inner.push(TraceEvent::Event {
            span: span.id,
            level,
            name: name.into(),
            ts_us: inner.now_us(),
            fields,
        });
    }

    /// Copies the journal (oldest first) and its overwrite tally.
    pub fn snapshot(&self) -> TraceSnapshot {
        match &self.inner {
            None => TraceSnapshot::default(),
            Some(inner) => {
                let ring = inner.ring.lock().expect("trace journal poisoned");
                TraceSnapshot { events: ring.buf.iter().cloned().collect(), dropped: ring.dropped }
            }
        }
    }
}

/// A live span; journals its end on drop.
#[derive(Debug)]
pub struct Span {
    tracer: Tracer,
    id: u64,
}

impl Span {
    /// A span of no journal: closing it records nothing.
    pub(crate) fn inert() -> Span {
        Span { tracer: Tracer::disabled(), id: 0 }
    }

    /// Closes the span stamped at `at` rather than at drop time.
    pub(crate) fn end_at(mut self, at: Instant) {
        self.end(Some(at));
    }

    /// Journals the span's end once, at `at` or else now; the clock is
    /// read only for a live span.
    fn end(&mut self, at: Option<Instant>) {
        if let (Some(inner), true) = (&self.tracer.inner, self.id != 0) {
            let ts_us = inner.ts_us(at.unwrap_or_else(Instant::now));
            inner.push(TraceEvent::SpanEnd { id: self.id, ts_us });
            self.id = 0;
        }
    }

    /// The `Copy` handle other threads parent under.
    pub fn context(&self) -> SpanContext {
        SpanContext { id: self.id }
    }

    /// Journals a leveled event inside this span.
    pub fn event(&self, level: Level, name: impl Into<String>, fields: Vec<(String, FieldValue)>) {
        self.tracer.event(self.context(), level, name, fields);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.end(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        assert!(!t.would_log(Level::Error));
        let span = t.span("run");
        span.event(Level::Error, "boom", vec![]);
        t.event(span.context(), Level::Error, "boom", vec![]);
        drop(span);
        assert_eq!(t.snapshot(), TraceSnapshot::default());
    }

    #[test]
    fn spans_nest_and_close_in_order() {
        let t = Tracer::new(Level::Debug);
        let run = t.span("run");
        t.set_default_parent(run.context());
        let stage = t.span("stage");
        let shard = t.span_on(stage.context(), "shard0", 3);
        drop(shard);
        drop(stage);
        drop(run);
        let snap = t.snapshot();
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.events.len(), 6);
        let TraceEvent::SpanBegin { id: run_id, parent, .. } = snap.events[0] else {
            panic!("expected begin");
        };
        assert_eq!(parent, 0);
        let TraceEvent::SpanBegin { id: stage_id, parent, .. } = snap.events[1] else {
            panic!("expected begin");
        };
        assert_eq!(parent, run_id, "default parent nests under run");
        let TraceEvent::SpanBegin { parent, tid, .. } = snap.events[2] else {
            panic!("expected begin");
        };
        assert_eq!(parent, stage_id);
        assert_eq!(tid, 3);
        assert!(matches!(snap.events[3], TraceEvent::SpanEnd { .. }));
    }

    #[test]
    fn level_filter_drops_below_threshold() {
        let t = Tracer::new(Level::Warn);
        assert!(!t.would_log(Level::Info));
        assert!(t.would_log(Level::Warn));
        t.event(SpanContext::ROOT, Level::Debug, "quiet", vec![]);
        t.event(SpanContext::ROOT, Level::Info, "quiet", vec![]);
        t.event(
            SpanContext::ROOT,
            Level::Error,
            "loud",
            vec![("n".to_string(), FieldValue::U64(2))],
        );
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 1);
        let TraceEvent::Event { level, ref fields, .. } = snap.events[0] else {
            panic!("expected event");
        };
        assert_eq!(level, Level::Error);
        assert_eq!(fields[0].1, FieldValue::U64(2));
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let t = Tracer::with_capacity(Level::Debug, 4);
        for i in 0..10u64 {
            t.event(SpanContext::ROOT, Level::Info, format!("e{i}"), vec![]);
        }
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.dropped, 6);
        let TraceEvent::Event { ref name, .. } = snap.events[0] else { panic!() };
        assert_eq!(name, "e6", "oldest entries were overwritten");
    }

    #[test]
    fn contexts_cross_threads() {
        let t = Tracer::new(Level::Debug);
        let stage = t.span("stage");
        let ctx = stage.context();
        let workers: Vec<_> = (0..4u64)
            .map(|w| {
                let t = t.clone();
                std::thread::spawn(move || {
                    let s = t.span_on(ctx, format!("shard{w}"), w);
                    s.event(Level::Info, "work", vec![("items".into(), 10u64.into())]);
                })
            })
            .collect();
        for h in workers {
            h.join().unwrap();
        }
        drop(stage);
        let snap = t.snapshot();
        let begins = snap
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::SpanBegin { parent, .. } if *parent == ctx.id()))
            .count();
        assert_eq!(begins, 4, "every shard span parents under the stage");
    }

    #[test]
    fn level_parsing() {
        for l in Level::ALL {
            assert_eq!(Level::parse(l.name()), Some(l));
        }
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("loud"), None);
        assert!(Level::Debug < Level::Error);
    }
}
