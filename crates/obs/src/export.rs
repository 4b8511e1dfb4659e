//! Serde-free exporters for trace snapshots and run telemetry.
//!
//! Three renderings of the same observability data:
//!
//! * [`chrome_trace`] — Chrome `trace_event` JSON, loadable in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev);
//! * [`folded_stacks`] — folded-stack text (`a;b;c weight` lines) for
//!   flamegraph tooling;
//! * [`prometheus_text`] — Prometheus-style text exposition of a
//!   counter/gauge/histogram [`Registry`].
//!
//! [`ChromeTrace`] is the typed form of the first: `parse` then
//! [`ChromeTrace::to_json`] round-trips byte-identically, which is how
//! CI validates a `--trace-out` file without leaving the workspace.

use crate::json::{parse, JsonError, JsonValue};
use crate::registry::{Registry, HISTOGRAM_BUCKETS};
use crate::tracing::{FieldValue, TraceEvent, TraceSnapshot};
use std::collections::BTreeMap;

/// One entry of a Chrome `trace_event` document.
#[derive(Clone, Debug, PartialEq)]
pub struct ChromeEvent {
    /// Event name.
    pub name: String,
    /// Phase: `"X"` (complete span) or `"i"` (instant).
    pub ph: String,
    /// Start timestamp, microseconds.
    pub ts: u64,
    /// Duration, microseconds (`"X"` events only).
    pub dur: Option<u64>,
    /// Process id (always 1 here — one pipeline, many lanes).
    pub pid: u64,
    /// Thread lane the event draws on.
    pub tid: u64,
    /// Structured arguments, in recording order; values are integers
    /// or strings.
    pub args: Vec<(String, JsonValue)>,
}

impl ChromeEvent {
    fn to_value(&self) -> JsonValue {
        let mut fields = vec![
            ("name".to_string(), JsonValue::Str(self.name.clone())),
            ("ph".to_string(), JsonValue::Str(self.ph.clone())),
            ("ts".to_string(), JsonValue::Int(self.ts as i128)),
        ];
        if let Some(dur) = self.dur {
            fields.push(("dur".to_string(), JsonValue::Int(dur as i128)));
        }
        fields.push(("pid".to_string(), JsonValue::Int(self.pid as i128)));
        fields.push(("tid".to_string(), JsonValue::Int(self.tid as i128)));
        if self.ph == "i" {
            // Instant scope: thread-scoped tick marks.
            fields.push(("s".to_string(), JsonValue::Str("t".to_string())));
        }
        if !self.args.is_empty() {
            fields.push(("args".to_string(), JsonValue::Object(self.args.clone())));
        }
        JsonValue::Object(fields)
    }

    fn from_value(v: &JsonValue) -> Result<ChromeEvent, JsonError> {
        let bad = |reason: &'static str| JsonError { offset: 0, reason };
        let name =
            v.get("name").and_then(|n| n.as_str()).ok_or(bad("event missing name"))?.to_string();
        let ph = v.get("ph").and_then(|p| p.as_str()).ok_or(bad("event missing ph"))?.to_string();
        if ph != "X" && ph != "i" {
            return Err(bad("unsupported event phase"));
        }
        let ts = v.get("ts").and_then(|t| t.as_u64()).ok_or(bad("event missing ts"))?;
        let dur = match v.get("dur") {
            None => None,
            Some(d) => Some(d.as_u64().ok_or(bad("bad event dur"))?),
        };
        if (ph == "X") != dur.is_some() {
            return Err(bad("dur is for complete events exactly"));
        }
        let pid = v.get("pid").and_then(|p| p.as_u64()).ok_or(bad("event missing pid"))?;
        let tid = v.get("tid").and_then(|t| t.as_u64()).ok_or(bad("event missing tid"))?;
        if ph == "i" && v.get("s").and_then(|s| s.as_str()) != Some("t") {
            return Err(bad("instant events are thread-scoped"));
        }
        let mut args = Vec::new();
        if let Some(a) = v.get("args") {
            let entries = a.as_object().ok_or(bad("bad event args"))?;
            if entries.is_empty() {
                return Err(bad("empty args are omitted"));
            }
            for (k, av) in entries {
                match av {
                    JsonValue::Int(_) | JsonValue::Str(_) => args.push((k.clone(), av.clone())),
                    _ => return Err(bad("args are integers or strings")),
                }
            }
        }
        Ok(ChromeEvent { name, ph, ts, dur, pid, tid, args })
    }
}

/// A typed Chrome `trace_event` document.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChromeTrace {
    /// The `traceEvents` array, in emission order.
    pub events: Vec<ChromeEvent>,
}

impl ChromeTrace {
    /// Renders the canonical JSON document ([`chrome_trace`] output).
    pub fn to_json(&self) -> String {
        JsonValue::Object(vec![(
            "traceEvents".to_string(),
            JsonValue::Array(self.events.iter().map(|e| e.to_value()).collect()),
        )])
        .render_pretty()
    }

    /// Parses a document written by [`chrome_trace`] /
    /// [`ChromeTrace::to_json`]; re-rendering the result reproduces the
    /// input byte-for-byte.
    pub fn parse(text: &str) -> Result<ChromeTrace, JsonError> {
        let root = parse(text)?;
        let bad = |reason: &'static str| JsonError { offset: 0, reason };
        let obj = root.as_object().ok_or(bad("trace document is an object"))?;
        if obj.len() != 1 {
            return Err(bad("trace document has exactly traceEvents"));
        }
        let events = root
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .ok_or(bad("missing traceEvents"))?
            .iter()
            .map(ChromeEvent::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ChromeTrace { events })
    }
}

fn field_to_json(v: &FieldValue) -> JsonValue {
    match v {
        FieldValue::U64(n) => JsonValue::Int(*n as i128),
        FieldValue::I64(n) => JsonValue::Int(*n as i128),
        FieldValue::Str(s) => JsonValue::Str(s.clone()),
    }
}

struct SpanRec {
    name: String,
    parent: u64,
    tid: u64,
    begin: u64,
    end: Option<u64>,
}

fn collect_spans(snapshot: &TraceSnapshot) -> (BTreeMap<u64, SpanRec>, u64) {
    let mut spans: BTreeMap<u64, SpanRec> = BTreeMap::new();
    let mut max_ts = 0;
    for e in &snapshot.events {
        max_ts = max_ts.max(e.ts_us());
        match e {
            TraceEvent::SpanBegin { id, parent, name, ts_us, tid } => {
                spans.insert(
                    *id,
                    SpanRec {
                        name: name.clone(),
                        parent: *parent,
                        tid: *tid,
                        begin: *ts_us,
                        end: None,
                    },
                );
            }
            TraceEvent::SpanEnd { id, ts_us } => {
                // A begin lost to ring wraparound leaves the end
                // unmatched; skip it.
                if let Some(rec) = spans.get_mut(id) {
                    rec.end = Some(*ts_us);
                }
            }
            TraceEvent::Event { .. } => {}
        }
    }
    (spans, max_ts)
}

/// Renders a snapshot as Chrome `trace_event` JSON: one `"X"` complete
/// event per span (still-open spans close at the journal's last
/// timestamp) and one thread-scoped `"i"` instant per point event,
/// carrying its level and fields as `args`.
pub fn chrome_trace(snapshot: &TraceSnapshot) -> String {
    let (spans, max_ts) = collect_spans(snapshot);
    let mut events: Vec<ChromeEvent> = spans
        .values()
        .map(|rec| ChromeEvent {
            name: rec.name.clone(),
            ph: "X".to_string(),
            ts: rec.begin,
            dur: Some(rec.end.unwrap_or(max_ts).saturating_sub(rec.begin)),
            pid: 1,
            tid: rec.tid,
            args: Vec::new(),
        })
        .collect();
    // BTreeMap iteration gave allocation order; present in timeline
    // order instead (stable across identical runs).
    events.sort_by_key(|e| e.ts);
    for e in &snapshot.events {
        if let TraceEvent::Event { span, level, name, ts_us, fields } = e {
            let mut args = vec![(
                "level".to_string(),
                JsonValue::Str(level.name().to_string()),
            )];
            args.extend(fields.iter().map(|(k, v)| (k.clone(), field_to_json(v))));
            events.push(ChromeEvent {
                name: name.clone(),
                ph: "i".to_string(),
                ts: *ts_us,
                dur: None,
                pid: 1,
                tid: spans.get(span).map_or(0, |rec| rec.tid),
                args,
            });
        }
    }
    ChromeTrace { events }.to_json()
}

/// Renders a snapshot as folded-stack lines (`run;stage;shard3 120`),
/// one per span path, weighted by *self* time (the span's duration
/// minus its children's) in microseconds, sorted and newline-
/// terminated — the input format of flamegraph tooling.
pub fn folded_stacks(snapshot: &TraceSnapshot) -> String {
    let (spans, max_ts) = collect_spans(snapshot);
    let mut child_time: BTreeMap<u64, u64> = BTreeMap::new();
    let dur = |rec: &SpanRec| rec.end.unwrap_or(max_ts).saturating_sub(rec.begin);
    for rec in spans.values() {
        if rec.parent != 0 {
            *child_time.entry(rec.parent).or_insert(0) += dur(rec);
        }
    }
    let mut lines: BTreeMap<String, u64> = BTreeMap::new();
    for (id, rec) in &spans {
        let mut path = vec![rec.name.as_str()];
        let mut cursor = rec.parent;
        // Walk to the root; a parent lost to wraparound truncates the
        // path there. Cycles cannot occur (parents precede children),
        // but the walk is bounded anyway.
        for _ in 0..spans.len() {
            match spans.get(&cursor) {
                Some(p) => {
                    path.push(p.name.as_str());
                    cursor = p.parent;
                }
                None => break,
            }
        }
        path.reverse();
        let self_us = dur(rec).saturating_sub(child_time.get(id).copied().unwrap_or(0));
        *lines.entry(path.join(";")).or_insert(0) += self_us;
    }
    let mut out = String::new();
    for (path, weight) in lines {
        out.push_str(&path);
        out.push(' ');
        out.push_str(&weight.to_string());
        out.push('\n');
    }
    out
}

fn metric_name(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}

/// Renders a metric registry as Prometheus-style text exposition:
/// counters and gauges as single samples, histograms as cumulative `le`
/// buckets plus a `_count`, names with non-alphanumeric characters
/// mapped to underscores.
pub fn prometheus_text(registry: &Registry) -> String {
    let mut out = String::new();
    let mut sample = |name: &str, kind: &str, value: String| {
        out.push_str("# TYPE ");
        out.push_str(name);
        out.push(' ');
        out.push_str(kind);
        out.push('\n');
        out.push_str(name);
        out.push(' ');
        out.push_str(&value);
        out.push('\n');
    };
    for (name, value) in registry.counter_values() {
        sample(&metric_name(&name), "counter", value.to_string());
    }
    for (name, value) in registry.gauge_values() {
        sample(&metric_name(&name), "gauge", value.to_string());
    }
    for (name, buckets) in registry.histogram_values() {
        let name = metric_name(&name);
        out.push_str("# TYPE ");
        out.push_str(&name);
        out.push_str(" histogram\n");
        let mut cumulative = 0u64;
        for (i, count) in buckets.iter().enumerate() {
            cumulative += count;
            let le = if i + 1 == HISTOGRAM_BUCKETS {
                "+Inf".to_string()
            } else {
                i.to_string()
            };
            out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
        }
        out.push_str(&format!("{name}_count {cumulative}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracing::{Level, SpanContext, Tracer};
    use crate::Recorder;

    fn sample_snapshot() -> TraceSnapshot {
        let t = Tracer::new(Level::Debug);
        let run = t.span("run");
        let stage = t.span_under(run.context(), "stage:Persistence");
        for w in 0..2u64 {
            let shard = t.span_on(stage.context(), format!("shard{w}"), w);
            shard.event(Level::Warn, "quarantine", vec![("n".into(), 3u64.into())]);
        }
        drop(stage);
        t.event(run.context(), Level::Info, "done", vec![("ok".into(), "yes".into())]);
        drop(run);
        t.snapshot()
    }

    #[test]
    fn chrome_trace_parses_and_round_trips() {
        let text = chrome_trace(&sample_snapshot());
        let parsed = ChromeTrace::parse(&text).unwrap();
        assert_eq!(parsed.to_json(), text);
        let complete = parsed.events.iter().filter(|e| e.ph == "X").count();
        let instants = parsed.events.iter().filter(|e| e.ph == "i").count();
        assert_eq!(complete, 4, "run + stage + two shards");
        assert_eq!(instants, 3, "two quarantines + done");
        let shard1 = parsed.events.iter().find(|e| e.name == "shard1").unwrap();
        assert_eq!(shard1.tid, 1);
    }

    #[test]
    fn chrome_trace_closes_open_spans_at_last_ts() {
        let t = Tracer::new(Level::Debug);
        let run = t.span("run");
        t.event(run.context(), Level::Info, "mark", vec![]);
        std::mem::forget(run); // never ends
        let text = chrome_trace(&t.snapshot());
        let parsed = ChromeTrace::parse(&text).unwrap();
        let x = parsed.events.iter().find(|e| e.ph == "X").unwrap();
        assert!(x.dur.is_some());
    }

    #[test]
    fn chrome_parse_rejects_foreign_documents() {
        assert!(ChromeTrace::parse("[]").is_err());
        assert!(ChromeTrace::parse("{\"traceEvents\": 3}").is_err());
        let missing_dur = r#"{"traceEvents": [{"name": "x", "ph": "X", "ts": 0, "pid": 1, "tid": 0}]}"#;
        assert!(ChromeTrace::parse(missing_dur).is_err());
    }

    #[test]
    fn folded_stacks_weigh_self_time() {
        let text = folded_stacks(&sample_snapshot());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("run "));
        assert!(lines[1].starts_with("run;stage:Persistence "));
        assert!(lines[2].starts_with("run;stage:Persistence;shard0 "));
        assert!(lines.iter().all(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().is_ok()));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn folded_stacks_aggregate_identical_paths() {
        let t = Tracer::new(Level::Debug);
        let run = t.span("run");
        for _ in 0..3 {
            let _s = t.span_under(run.context(), "cycle");
        }
        drop(run);
        let text = folded_stacks(&t.snapshot());
        assert_eq!(text.lines().filter(|l| l.starts_with("run;cycle ")).count(), 1);
    }

    #[test]
    fn prometheus_text_exposes_the_registry() {
        let rec = Recorder::new("prom");
        rec.counter("warts.traces").add(15);
        rec.gauge("pipeline.depth").set(-2);
        let h = rec.histogram("probe.stack_depth");
        h.observe(0);
        h.observe(2);
        h.observe(2);
        h.observe(99);
        let text = prometheus_text(rec.registry());
        assert!(text.contains("# TYPE warts_traces counter\nwarts_traces 15\n"));
        assert!(text.contains("# TYPE pipeline_depth gauge\npipeline_depth -2\n"));
        assert!(text.contains("probe_stack_depth_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("probe_stack_depth_bucket{le=\"2\"} 3\n"));
        assert!(text.contains("probe_stack_depth_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("probe_stack_depth_count 4\n"));
    }

    #[test]
    fn empty_snapshot_exports_cleanly() {
        let snap = TraceSnapshot::default();
        let parsed = ChromeTrace::parse(&chrome_trace(&snap)).unwrap();
        assert!(parsed.events.is_empty());
        assert_eq!(folded_stacks(&snap), "");
        let _ = SpanContext::ROOT;
    }
}
