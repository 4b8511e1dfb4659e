//! One run's worth of telemetry: recording and the serializable result.

use crate::json::{parse, JsonError, JsonValue};
use crate::registry::Registry;
use crate::time::duration_us;
use crate::tracing::{Span, SpanContext, Tracer};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Schema version written into every telemetry document.
pub const TELEMETRY_VERSION: u64 = 1;

/// One pipeline stage's accounting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageTelemetry {
    /// Stage name (e.g. `"TransitDiversity"`).
    pub name: String,
    /// Wall time spent in the stage, microseconds.
    pub wall_us: u64,
    /// Items entering the stage.
    pub input: u64,
    /// Items surviving the stage.
    pub output: u64,
}

impl StageTelemetry {
    /// Items the stage dropped.
    pub fn dropped(&self) -> u64 {
        self.input.saturating_sub(self.output)
    }
}

/// The machine-readable result of one instrumented run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunTelemetry {
    /// Run label (subcommand, bench name…).
    pub label: String,
    /// Total wall time from [`Recorder::new`] to [`Recorder::finish`],
    /// microseconds.
    pub total_wall_us: u64,
    /// Worker threads the run executed on (1 for sequential runs; set
    /// by parallel drivers via [`Recorder::set_threads`]).
    pub threads: u64,
    /// Ordered stage accounting.
    pub stages: Vec<StageTelemetry>,
    /// Final counter values.
    pub counters: BTreeMap<String, u64>,
    /// Final gauge values.
    pub gauges: BTreeMap<String, i64>,
    /// Final histogram buckets (index = observed value, last bucket =
    /// overflow).
    pub histograms: BTreeMap<String, Vec<u64>>,
}

impl RunTelemetry {
    /// The stage named `name`, if recorded.
    pub fn stage(&self, name: &str) -> Option<&StageTelemetry> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// A counter's final value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Every counter whose name starts with `prefix`, in name order.
    ///
    /// Taxonomy counters — `warts.skip.*` skip reasons, `quarantine.*`
    /// trace-quarantine reasons — are written one counter per variant;
    /// this reads such a family back as a unit.
    pub fn counters_with_prefix(&self, prefix: &str) -> Vec<(&str, u64)> {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, &v)| (k.as_str(), v))
            .collect()
    }

    /// Sum of every counter under `prefix` (0 when none exist), for
    /// reconciling a taxonomy family against its roll-up counter.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters.iter().filter(|(k, _)| k.starts_with(prefix)).map(|(_, &v)| v).sum()
    }

    /// The per-worker entries of a parallel stage: every stage named
    /// `worker{N}/{stage}` (see [`Recorder::record_worker_stage`]), in
    /// recording order.
    pub fn worker_stages(&self, stage: &str) -> Vec<&StageTelemetry> {
        self.stages
            .iter()
            .filter(|s| {
                s.name
                    .strip_prefix("worker")
                    .and_then(|rest| rest.split_once('/'))
                    .is_some_and(|(n, suffix)| {
                        suffix == stage && n.chars().all(|c| c.is_ascii_digit())
                    })
            })
            .collect()
    }

    /// Serializes to pretty-printed JSON (the `--metrics` file format).
    pub fn to_json(&self) -> String {
        self.to_value().render_pretty()
    }

    fn to_value(&self) -> JsonValue {
        let stages = self
            .stages
            .iter()
            .map(|s| {
                JsonValue::Object(vec![
                    ("name".into(), JsonValue::Str(s.name.clone())),
                    ("wall_us".into(), JsonValue::Int(s.wall_us as i128)),
                    ("input".into(), JsonValue::Int(s.input as i128)),
                    ("output".into(), JsonValue::Int(s.output as i128)),
                ])
            })
            .collect();
        let histograms = JsonValue::Object(
            self.histograms
                .iter()
                .map(|(k, buckets)| {
                    (
                        k.clone(),
                        JsonValue::Array(
                            buckets.iter().map(|b| JsonValue::Int(*b as i128)).collect(),
                        ),
                    )
                })
                .collect(),
        );
        JsonValue::Object(vec![
            ("version".into(), JsonValue::Int(TELEMETRY_VERSION as i128)),
            ("label".into(), JsonValue::Str(self.label.clone())),
            ("total_wall_us".into(), JsonValue::Int(self.total_wall_us as i128)),
            ("threads".into(), JsonValue::Int(self.threads as i128)),
            ("stages".into(), JsonValue::Array(stages)),
            ("counters".into(), JsonValue::from_u64_map(&self.counters)),
            ("gauges".into(), JsonValue::from_i64_map(&self.gauges)),
            ("histograms".into(), histograms),
        ])
    }

    /// Parses a document produced by [`RunTelemetry::to_json`].
    pub fn from_json(text: &str) -> Result<RunTelemetry, JsonError> {
        let root = parse(text)?;
        let bad = |reason: &'static str| JsonError { offset: 0, reason };
        let version = root
            .get("version")
            .and_then(|v| v.as_u64())
            .ok_or(bad("missing version"))?;
        if version != TELEMETRY_VERSION {
            return Err(bad("unsupported telemetry version"));
        }
        let label = root
            .get("label")
            .and_then(|v| v.as_str())
            .ok_or(bad("missing label"))?
            .to_string();
        let total_wall_us = root
            .get("total_wall_us")
            .and_then(|v| v.as_u64())
            .ok_or(bad("missing total_wall_us"))?;
        // Absent in documents written before the parallel layer landed:
        // those runs were sequential.
        let threads = root.get("threads").and_then(|v| v.as_u64()).unwrap_or(1);
        let mut stages = Vec::new();
        for s in root.get("stages").and_then(|v| v.as_array()).ok_or(bad("missing stages"))? {
            stages.push(StageTelemetry {
                name: s
                    .get("name")
                    .and_then(|v| v.as_str())
                    .ok_or(bad("stage missing name"))?
                    .to_string(),
                wall_us: s
                    .get("wall_us")
                    .and_then(|v| v.as_u64())
                    .ok_or(bad("stage missing wall_us"))?,
                input: s
                    .get("input")
                    .and_then(|v| v.as_u64())
                    .ok_or(bad("stage missing input"))?,
                output: s
                    .get("output")
                    .and_then(|v| v.as_u64())
                    .ok_or(bad("stage missing output"))?,
            });
        }
        let mut counters = BTreeMap::new();
        for (k, v) in root
            .get("counters")
            .and_then(|v| v.as_object())
            .ok_or(bad("missing counters"))?
        {
            counters.insert(k.clone(), v.as_u64().ok_or(bad("bad counter value"))?);
        }
        let mut gauges = BTreeMap::new();
        for (k, v) in
            root.get("gauges").and_then(|v| v.as_object()).ok_or(bad("missing gauges"))?
        {
            gauges.insert(k.clone(), v.as_i64().ok_or(bad("bad gauge value"))?);
        }
        let mut histograms = BTreeMap::new();
        for (k, v) in root
            .get("histograms")
            .and_then(|v| v.as_object())
            .ok_or(bad("missing histograms"))?
        {
            let buckets = v
                .as_array()
                .ok_or(bad("bad histogram"))?
                .iter()
                .map(|b| b.as_u64().ok_or(bad("bad histogram bucket")))
                .collect::<Result<Vec<u64>, JsonError>>()?;
            histograms.insert(k.clone(), buckets);
        }
        Ok(RunTelemetry { label, total_wall_us, threads, stages, counters, gauges, histograms })
    }
}

/// Collects stages and metrics for one run.
///
/// The recorder is `Sync`: counters/gauges/histograms are atomics
/// behind `Arc`s, and stage recording takes a short internal lock —
/// instrument parallel workers freely.
#[derive(Debug)]
pub struct Recorder {
    label: String,
    registry: Registry,
    stages: Mutex<Vec<StageTelemetry>>,
    started: Instant,
    threads: std::sync::atomic::AtomicU64,
    tracer: Tracer,
}

impl Recorder {
    /// Starts a recorder (and its total-wall-time clock). Tracing is
    /// disabled until [`Recorder::with_tracer`] attaches a journal.
    pub fn new(label: impl Into<String>) -> Self {
        Recorder {
            label: label.into(),
            registry: Registry::new(),
            stages: Mutex::new(Vec::new()),
            started: Instant::now(),
            threads: std::sync::atomic::AtomicU64::new(1),
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a span/event journal; everything instrumented against
    /// this recorder traces into it. Keep a [`Tracer`] clone to
    /// snapshot after the run.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The attached tracer (the inert no-op one by default), for
    /// opening spans and journaling events alongside stage recording.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Declares the worker-thread count of the run (lands in
    /// [`RunTelemetry::threads`]; defaults to 1).
    pub fn set_threads(&self, threads: u64) {
        self.threads.store(threads.max(1), std::sync::atomic::Ordering::Relaxed);
    }

    /// Records one worker's share of a parallel stage as a
    /// `worker{N}/{stage}` entry (wall time = the worker's busy time,
    /// not the region's wall-clock).
    pub fn record_worker_stage(
        &self,
        worker: usize,
        stage: &str,
        busy_us: u64,
        input: u64,
        output: u64,
    ) {
        self.record_stage(&format!("worker{worker}/{stage}"), busy_us, input, output);
    }

    /// The underlying metric registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Counter handle (get-or-create; see [`Registry::counter`]).
    pub fn counter(&self, name: &'static str) -> Arc<crate::Counter> {
        self.registry.counter(name)
    }

    /// Gauge handle.
    pub fn gauge(&self, name: &'static str) -> Arc<crate::Gauge> {
        self.registry.gauge(name)
    }

    /// Histogram handle.
    pub fn histogram(&self, name: &'static str) -> Arc<crate::Histogram> {
        self.registry.histogram(name)
    }

    /// Records a fully-known stage in one call: an untimed row
    /// (`wall_us` 0) whose work runs inside another stage, or a
    /// worker's share. Timed stages go through [`StageGuard`].
    pub fn record_stage(&self, name: &str, wall_us: u64, input: u64, output: u64) {
        let mut stages = self.stages.lock().expect("stage log poisoned");
        stages.push(StageTelemetry { name: name.to_string(), wall_us, input, output });
    }

    /// Stops the clock and aggregates everything recorded.
    pub fn finish(self) -> RunTelemetry {
        RunTelemetry {
            label: self.label,
            total_wall_us: duration_us(self.started.elapsed()),
            threads: self.threads.into_inner(),
            stages: self.stages.into_inner().expect("stage log poisoned"),
            counters: self.registry.counter_values(),
            gauges: self.registry.gauge_values(),
            histograms: self.registry.histogram_values(),
        }
    }
}

/// A timed stage: the one clock behind both a stage's row and its
/// `stage:<name>` span.
///
/// [`StageGuard::open`] reads the clock once and, when the recorder
/// carries a live tracer, opens the span `stage:<name>` under the
/// tracer's default parent stamped with that reading.
/// [`StageGuard::finish_counts`] reads it once more, closes the span
/// with that second reading and records the row `{name, wall_us,
/// input, output}` from the same two readings, so a row and its span
/// differ by at most 1 µs of truncation, however the thread was
/// scheduled. Dropping an unfinished guard (an error path) records the
/// row with counts 0. Without a recorder the guard reads no clock and
/// allocates nothing.
pub struct StageGuard<'r> {
    name: &'static str,
    /// The recorder and the opening clock reading; `None` once finished
    /// or when nothing is recorded.
    open: Option<(&'r Recorder, Instant)>,
    span: Span,
}

impl<'r> StageGuard<'r> {
    /// Starts the stage `name` in `recorder`.
    pub fn open(recorder: Option<&'r Recorder>, name: &'static str) -> Self {
        let Some(rec) = recorder else {
            return StageGuard { name, open: None, span: Span::inert() };
        };
        let started = Instant::now();
        let tracer = rec.tracer();
        let span = if tracer.is_enabled() {
            tracer.span_at(tracer.default_parent(), format!("stage:{name}"), 0, started)
        } else {
            Span::inert()
        };
        StageGuard { name, open: Some((rec, started)), span }
    }

    /// The tracer the stage journals into (the inert one without a
    /// recorder), for events and shard spans inside the stage.
    pub fn tracer(&self) -> &'r Tracer {
        self.open.map_or(&crate::tracing::DISABLED, |(rec, _)| rec.tracer())
    }

    /// The stage span's context, which shard spans parent under
    /// ([`SpanContext::ROOT`] when untraced).
    pub fn context(&self) -> SpanContext {
        self.span.context()
    }

    /// Ends the stage with its input/output item counts.
    pub fn finish_counts(mut self, input: u64, output: u64) {
        self.close(input, output);
    }

    fn close(&mut self, input: u64, output: u64) {
        let Some((rec, started)) = self.open.take() else { return };
        let now = Instant::now();
        std::mem::replace(&mut self.span, Span::inert()).end_at(now);
        rec.record_stage(self.name, duration_us(now - started), input, output);
    }
}

impl Drop for StageGuard<'_> {
    fn drop(&mut self) {
        self.close(0, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunTelemetry {
        let rec = Recorder::new("unit");
        rec.counter("a.count").add(7);
        rec.gauge("b.gauge").set(-3);
        let h = rec.histogram("c.hist");
        h.observe(2);
        h.observe(2);
        h.observe(40);
        StageGuard::open(Some(&rec), "first").finish_counts(100, 80);
        StageGuard::open(Some(&rec), "second").finish_counts(80, 80);
        rec.finish()
    }

    #[test]
    fn recorder_aggregates_everything() {
        let t = sample();
        assert_eq!(t.label, "unit");
        assert_eq!(t.stages.len(), 2);
        assert_eq!(t.stages[0].name, "first");
        assert_eq!(t.stages[0].dropped(), 20);
        assert_eq!(t.counter("a.count"), 7);
        assert_eq!(t.counter("missing"), 0);
        assert_eq!(t.gauges["b.gauge"], -3);
        let h = &t.histograms["c.hist"];
        assert_eq!(h[2], 2);
        assert_eq!(*h.last().unwrap(), 1);
    }

    #[test]
    fn prefix_family_reads_and_sums() {
        let rec = Recorder::new("unit");
        rec.counter("skip.bad_magic").add(3);
        rec.counter("skip.truncated_body").add(4);
        rec.counter("skipped_total").add(7);
        let t = rec.finish();
        assert_eq!(
            t.counters_with_prefix("skip."),
            vec![("skip.bad_magic", 3), ("skip.truncated_body", 4)]
        );
        assert_eq!(t.counter_sum("skip."), t.counter("skipped_total"));
        assert!(t.counters_with_prefix("nope.").is_empty());
        assert_eq!(t.counter_sum("nope."), 0);
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let t = sample();
        let json = t.to_json();
        let back = RunTelemetry::from_json(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn json_roundtrip_of_empty_run() {
        let t = Recorder::new("empty").finish();
        assert_eq!(RunTelemetry::from_json(&t.to_json()).unwrap(), t);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let t = sample();
        let json = t.to_json().replace("\"version\": 1", "\"version\": 999");
        assert!(RunTelemetry::from_json(&json).is_err());
    }

    #[test]
    fn dropped_guard_records_timing_only() {
        let rec = Recorder::new("guard");
        {
            let _g = StageGuard::open(Some(&rec), "implicit");
        }
        let t = rec.finish();
        assert_eq!(t.stages.len(), 1);
        assert_eq!(t.stages[0].input, 0);
    }

    /// `(name, begin, end)` of every closed span of `snapshot`.
    fn closed_spans(snapshot: &crate::TraceSnapshot) -> Vec<(String, u64, u64)> {
        let mut open = BTreeMap::new();
        let mut closed = Vec::new();
        for e in &snapshot.events {
            match e {
                crate::TraceEvent::SpanBegin { id, name, ts_us, .. } => {
                    open.insert(*id, (name.clone(), *ts_us));
                }
                crate::TraceEvent::SpanEnd { id, ts_us } => {
                    let (name, begin) = open.remove(id).expect("end after begin");
                    closed.push((name, begin, *ts_us));
                }
                crate::TraceEvent::Event { .. } => {}
            }
        }
        closed
    }

    #[test]
    fn guard_row_and_span_are_one_measurement() {
        let tracer = crate::Tracer::new(crate::Level::Info);
        let rec = Recorder::new("guard").with_tracer(tracer.clone());
        let run = tracer.span("run");
        tracer.set_default_parent(run.context());
        for (i, name) in ["sleeps", "spins", "dropped"].into_iter().enumerate() {
            let stage = StageGuard::open(Some(&rec), name);
            assert_ne!(stage.context(), SpanContext::ROOT);
            assert!(stage.tracer().is_enabled());
            match i {
                0 => std::thread::sleep(std::time::Duration::from_millis(3)),
                1 => {
                    std::hint::black_box((0..100_000u64).sum::<u64>());
                }
                _ => {}
            }
            if i < 2 {
                stage.finish_counts(10, i as u64);
            }
        }
        drop(run);
        let spans = closed_spans(&tracer.snapshot());
        let t = rec.finish();
        assert_eq!(t.stages.len(), 3);
        for row in &t.stages {
            let name = format!("stage:{}", row.name);
            let (_, begin, end) = spans.iter().find(|(n, ..)| *n == name).expect("its span");
            assert!((end - begin).abs_diff(row.wall_us) <= 1, "{row:?} vs span {begin}..{end}");
        }
        assert!(t.stages[0].wall_us >= 3_000);
        assert_eq!((t.stages[2].input, t.stages[2].output), (0, 0), "a dropped guard counts 0");
    }

    #[test]
    fn rows_survive_a_wrapped_journal() {
        let tracer = crate::Tracer::with_capacity(crate::Level::Info, 1);
        let rec = Recorder::new("wrapped").with_tracer(tracer.clone());
        for name in ["a", "b", "c"] {
            StageGuard::open(Some(&rec), name).finish_counts(1, 1);
        }
        assert!(tracer.snapshot().dropped > 0, "the journal wrapped");
        let names: Vec<String> = rec.finish().stages.into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn unrecorded_guard_is_inert() {
        let stage = StageGuard::open(None, "nothing");
        assert_eq!(stage.context(), SpanContext::ROOT);
        assert!(!stage.tracer().is_enabled());
        stage.finish_counts(1, 1);
        // A recorder without a tracer still gets its row, and no span.
        let rec = Recorder::new("untraced");
        let stage = StageGuard::open(Some(&rec), "row-only");
        assert_eq!(stage.context(), SpanContext::ROOT);
        stage.finish_counts(4, 2);
        assert_eq!(rec.tracer().snapshot(), crate::TraceSnapshot::default());
        assert_eq!(rec.finish().stages[0].output, 2);
    }

    #[test]
    fn threads_field_roundtrips_and_defaults_to_sequential() {
        let rec = Recorder::new("par");
        rec.set_threads(8);
        rec.record_worker_stage(0, "Ingest", 40, 10, 6);
        rec.record_worker_stage(1, "Ingest", 35, 12, 7);
        let t = rec.finish();
        assert_eq!(t.threads, 8);
        let workers = t.worker_stages("Ingest");
        assert_eq!(workers.len(), 2);
        assert_eq!(workers.iter().map(|s| s.input).sum::<u64>(), 22);
        let back = RunTelemetry::from_json(&t.to_json()).unwrap();
        assert_eq!(back, t);

        // Pre-parallel documents carry no threads field: parsed as 1.
        let legacy = sample();
        let json = legacy.to_json().replace("  \"threads\": 1,\n", "");
        assert!(!json.contains("threads"));
        assert_eq!(RunTelemetry::from_json(&json).unwrap().threads, 1);
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let rec = std::sync::Arc::new(Recorder::new("mt"));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let rec = std::sync::Arc::clone(&rec);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    rec.counter("shared").inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let rec = std::sync::Arc::try_unwrap(rec).expect("all threads joined");
        assert_eq!(rec.finish().counter("shared"), 4000);
    }
}
