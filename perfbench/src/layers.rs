//! Per-layer attribution: spans around each call into a layer's public
//! functions, self-times per layer, and the layer-by-layer composition
//! of the LPR pipeline the traced runs execute.
//!
//! Every timed iteration of a traced run is one `iteration` span whose
//! children are layer spans. A layer's self time is its span's duration
//! minus what its child spans cover; the iteration's own self time is
//! the remainder no layer claims (`unaccounted_s`). Spans opened outside
//! any iteration — set-up steps and replays — are kept apart and never
//! enter an iteration's reconciliation.

use ip2as::Ip2AsTrie;
use lpr_core::classify::classify_iotp;
use lpr_core::filter::{
    attribute_and_filter, build_iotps, iotp_kept, partition_by_flags, persistent_flags,
    reinject_dynamic, transit_diversity_keys, AsMapper, FilterConfig, FilterReport, FilterStage,
};
use lpr_core::lsp::Asn;
use lpr_core::pipeline::{IngestState, PersistenceWindow, PipelineOutput};
use lpr_core::quarantine::{validate_trace, DegradedReport};
use lpr_core::trace::Trace;
use lpr_core::tunnel::{extract_tunnels_into, RawTunnel};
use lpr_obs::{Level, Span, TraceEvent, Tracer};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Name of the root span of one timed iteration.
const ITERATION: &str = "iteration";

/// The span recorder of one run. Disabled (every call a no-op) on
/// untraced runs.
pub struct Layers {
    tracer: Tracer,
}

impl Layers {
    /// A recorder journaling spans when `enabled`.
    pub fn new(enabled: bool) -> Layers {
        let tracer = if enabled {
            Tracer::with_capacity(Level::Info, 1 << 20)
        } else {
            Tracer::disabled()
        };
        Layers { tracer }
    }

    /// Opens one timed iteration: layer spans opened until the guard
    /// drops nest under it.
    pub fn iteration(&self) -> IterationGuard<'_> {
        let span = self
            .tracer
            .span_under(lpr_obs::SpanContext::ROOT, ITERATION);
        self.tracer.set_default_parent(span.context());
        IterationGuard {
            layers: self,
            span: Some(span),
        }
    }

    /// Opens a layer span (under the open iteration, if any).
    pub fn span(&self, name: &'static str) -> Span {
        self.tracer.span(name)
    }

    /// Reconciles the journal into per-iteration layer self-times.
    pub fn times(&self) -> SpanTimes {
        SpanTimes::from_events(&self.tracer.snapshot())
    }
}

/// Closes its iteration span on drop.
pub struct IterationGuard<'a> {
    layers: &'a Layers,
    span: Option<Span>,
}

impl Drop for IterationGuard<'_> {
    fn drop(&mut self) {
        self.layers
            .tracer
            .set_default_parent(lpr_obs::SpanContext::ROOT);
        self.span.take();
    }
}

/// One traced iteration's reconciliation.
#[derive(Clone, Debug, Default)]
pub struct IterationTimes {
    /// The iteration's wall time, s.
    pub wall_s: f64,
    /// Wall time no layer span covers, s.
    pub unaccounted_s: f64,
    /// Self time per layer span name, s (summed over repeated spans).
    pub layers: BTreeMap<String, f64>,
}

/// Everything the journal of one run reconciles to.
#[derive(Clone, Debug, Default)]
pub struct SpanTimes {
    /// Timed iterations, in order.
    pub iterations: Vec<IterationTimes>,
    /// Durations of spans outside any iteration, s, by name.
    pub outside: BTreeMap<String, Vec<f64>>,
    /// Journal entries lost to the ring buffer (must be 0).
    pub dropped: u64,
}

impl SpanTimes {
    fn from_events(snapshot: &lpr_obs::TraceSnapshot) -> SpanTimes {
        struct Open {
            name: String,
            parent: u64,
            begin: u64,
            end: Option<u64>,
        }
        let mut spans: BTreeMap<u64, Open> = BTreeMap::new();
        for event in &snapshot.events {
            match event {
                TraceEvent::SpanBegin {
                    id,
                    parent,
                    name,
                    ts_us,
                    ..
                } => {
                    spans.insert(
                        *id,
                        Open {
                            name: name.clone(),
                            parent: *parent,
                            begin: *ts_us,
                            end: None,
                        },
                    );
                }
                TraceEvent::SpanEnd { id, ts_us } => {
                    if let Some(open) = spans.get_mut(id) {
                        open.end = Some(*ts_us);
                    }
                }
                TraceEvent::Event { .. } => {}
            }
        }
        let dur = |s: &Open| {
            s.end
                .map_or(0.0, |end| end.saturating_sub(s.begin) as f64 / 1e6)
        };
        let mut children: BTreeMap<u64, f64> = BTreeMap::new();
        for s in spans.values() {
            *children.entry(s.parent).or_default() += dur(s);
        }
        let self_time =
            |id: u64, s: &Open| (dur(s) - children.get(&id).copied().unwrap_or(0.0)).max(0.0);

        // Each span's iteration: walk parents up to a root.
        let root_of = |mut id: u64| {
            while let Some(s) = spans.get(&id) {
                if s.parent == 0 {
                    return Some(id);
                }
                id = s.parent;
            }
            None
        };
        let mut times = SpanTimes {
            dropped: snapshot.dropped,
            ..SpanTimes::default()
        };
        let mut index: BTreeMap<u64, usize> = BTreeMap::new();
        for (&id, s) in &spans {
            if s.parent == 0 && s.name == ITERATION {
                index.insert(id, times.iterations.len());
                times.iterations.push(IterationTimes {
                    wall_s: dur(s),
                    unaccounted_s: self_time(id, s),
                    layers: BTreeMap::new(),
                });
            }
        }
        for (&id, s) in &spans {
            if s.parent == 0 && s.name == ITERATION {
                continue;
            }
            match root_of(id).and_then(|root| index.get(&root)) {
                Some(&i) => {
                    *times.iterations[i]
                        .layers
                        .entry(s.name.clone())
                        .or_default() += self_time(id, s);
                }
                None if s.parent == 0 => {
                    times
                        .outside
                        .entry(s.name.clone())
                        .or_default()
                        .push(dur(s));
                }
                None => {}
            }
        }
        times
    }

    /// Median over iterations of one layer's self time, s (0 when the
    /// layer never ran).
    pub fn layer_s(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .iterations
            .iter()
            .map(|it| it.layers.get(name).copied().unwrap_or(0.0))
            .collect();
        crate::stats::median(&v)
    }

    /// Median duration of a span outside the iterations, s.
    pub fn outside_s(&self, name: &str) -> f64 {
        self.outside
            .get(name)
            .map_or(0.0, |v| crate::stats::median(v))
    }

    /// Median over iterations of the remainder no layer claims, s.
    pub fn unaccounted_s(&self) -> f64 {
        let v: Vec<f64> = self.iterations.iter().map(|it| it.unaccounted_s).collect();
        crate::stats::median(&v)
    }

    /// Median traced iteration wall, s.
    pub fn wall_s(&self) -> f64 {
        let v: Vec<f64> = self.iterations.iter().map(|it| it.wall_s).collect();
        crate::stats::median(&v)
    }
}

/// An [`AsMapper`] that counts lookups, and optionally logs the looked
/// up addresses for a replay through [`Ip2AsTrie::lookup`]. Answers are
/// the wrapped trie's, so pipeline output is unchanged.
pub struct CountingMapper<'a> {
    inner: &'a Ip2AsTrie,
    lookups: AtomicU64,
    log: Option<Mutex<Vec<Ipv4Addr>>>,
}

impl<'a> CountingMapper<'a> {
    /// Counts lookups into `inner`; logs addresses when `log`.
    pub fn new(inner: &'a Ip2AsTrie, log: bool) -> Self {
        CountingMapper {
            inner,
            lookups: AtomicU64::new(0),
            log: log.then(Default::default),
        }
    }

    /// Lookups answered so far.
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// The logged addresses, in lookup order.
    pub fn into_log(self) -> Vec<Ipv4Addr> {
        self.log
            .map(|m| m.into_inner().expect("address log poisoned"))
            .unwrap_or_default()
    }
}

impl AsMapper for CountingMapper<'_> {
    fn asn_of(&self, addr: Ipv4Addr) -> Option<Asn> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if let Some(log) = &self.log {
            log.lock().expect("address log poisoned").push(addr);
        }
        self.inner.asn_of(addr)
    }
}

/// The front half of the pipeline over in-memory traces, one span per
/// layer: quarantine and tunnel extraction (`tunnel.extract`), then the
/// fused IncompleteLsp/IntraAS/TargetAS pass (`filter.attribute`).
pub fn front_half(layers: &Layers, traces: &[Trace], mapper: &dyn AsMapper) -> IngestState {
    let span = layers.span("tunnel.extract");
    let mut degraded = DegradedReport::default();
    let mut tunnels: Vec<RawTunnel> = Vec::new();
    for trace in traces {
        match validate_trace(trace) {
            Ok(()) => {
                degraded.kept += 1;
                extract_tunnels_into(trace, &mut tunnels);
            }
            Err(reason) => degraded.note(reason),
        }
    }
    drop(span);
    let span = layers.span("filter.attribute");
    let attributed = attribute_and_filter(&tunnels, mapper);
    drop(span);
    IngestState {
        lsps: attributed.lsps,
        traces_in: traces.len() as u64,
        input: tunnels.len(),
        after_incomplete: attributed.after_incomplete,
        after_intra_as: attributed.after_intra_as,
        degraded,
        ..IngestState::default()
    }
}

/// The back half of the pipeline, one span per layer: TransitDiversity,
/// Persistence, IOTP construction and classification. Produces the same
/// [`PipelineOutput`] as `Pipeline::finish_stages_windowed` with the
/// default pipeline switches.
pub fn back_half(
    layers: &Layers,
    ingest: IngestState,
    window: PersistenceWindow<'_>,
    config: &FilterConfig,
) -> std::io::Result<PipelineOutput> {
    let mut report = FilterReport {
        input: ingest.input,
        ..FilterReport::default()
    };
    report
        .remaining
        .insert(FilterStage::IncompleteLsp, ingest.after_incomplete);
    report
        .remaining
        .insert(FilterStage::IntraAs, ingest.after_intra_as);
    report
        .remaining
        .insert(FilterStage::TargetAs, ingest.lsps.len());

    let span = layers.span("filter.transit_diversity");
    let keep = transit_diversity_keys(&ingest.lsps);
    let mut lsps = ingest.lsps;
    lsps.retain(|l| iotp_kept(&keep, l.iotp_key()));
    drop(span);
    report
        .remaining
        .insert(FilterStage::TransitDiversity, lsps.len());

    let span = layers.span("filter.persistence");
    let flags = match window {
        PersistenceWindow::Mem(future) => persistent_flags(&lsps, future, config),
        PersistenceWindow::Spilled(spilled) => {
            lpr_core::spill::persistent_flags_spilled(&lsps, spilled, config)?
        }
    };
    let (kept, dropped) = partition_by_flags(lsps, &flags);
    let persisted = reinject_dynamic(kept, dropped, config);
    drop(span);
    report
        .remaining
        .insert(FilterStage::Persistence, persisted.strictly_persistent);

    let span = layers.span("classify.build_iotps");
    let iotps = build_iotps(&persisted.lsps, &keep);
    drop(span);
    let span = layers.span("classify.classify");
    let classes: Vec<_> = iotps.iter().map(classify_iotp).collect();
    drop(span);

    Ok(PipelineOutput {
        iotps: iotps.into_iter().zip(classes).collect(),
        report,
        dynamic_ases: persisted.dynamic_ases,
        degraded: ingest.degraded,
    })
}

/// The rendered report a user reads: the per-AS document and the
/// pipeline section, and their joint FNV-1a fingerprint.
pub struct Rendered {
    /// `per_as_json` text.
    pub per_as: String,
    /// `snapshot_pipeline_json` text.
    pub pipeline: String,
}

impl Rendered {
    /// Renders both documents of `out`.
    pub fn of(out: &PipelineOutput) -> Rendered {
        Rendered {
            per_as: lpr_serve::per_as_json(out).render(),
            pipeline: lpr_serve::snapshot_pipeline_json(out).render(),
        }
    }

    /// FNV-1a over both documents.
    pub fn fnv(&self) -> u64 {
        let mut bytes = self.per_as.clone().into_bytes();
        bytes.push(b'\n');
        bytes.extend_from_slice(self.pipeline.as_bytes());
        lpr_serve::fnv1a64(&bytes)
    }
}
