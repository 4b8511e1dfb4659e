//! End-to-end LPR pipeline: traces in, classified IOTPs out (Fig. 3).
//!
//! The pipeline has two halves. The *ingest* half (tunnel extraction
//! plus the fused per-LSP filters) produces an [`IngestState`]; three
//! producers build one, one per input kind:
//!
//! - [`IngestState::from_traces`] over an in-memory trace slice,
//!   sharded across workers;
//! - [`crate::stream::CycleAccumulator`], fed one trace at a time;
//! - `lpr_corpus::ingest_cycle`, over an indexed on-disk corpus.
//!
//! The *aggregate* half (TransitDiversity, Persistence, classification)
//! has one implementation, [`Pipeline::finish_stages_windowed`] (with
//! its in-memory-window wrapper [`Pipeline::finish_stages`]). It
//! returns the classified IOTPs and the bookkeeping the paper's
//! evaluation needs (Table 1 survival proportions, dynamic-AS tags,
//! per-class tallies). [`Pipeline::run`] is `from_traces` plus
//! `finish_stages` at one thread.

use crate::classify::{classify_iotp, Class, Classification};
use crate::filter::{
    build_iotps, iotp_kept, partition_by_flags, persistent_flags, reinject_dynamic,
    transit_diversity_keys, AsMapper, FilterConfig, FilterReport, FilterStage,
};
use crate::lsp::{Asn, Iotp, IotpKey, Lsp, LspKey};
use crate::quarantine::DegradedReport;
use crate::trace::Trace;
use std::collections::BTreeSet;

/// The LPR pipeline.
#[derive(Clone, Debug, Default)]
pub struct Pipeline {
    /// Filter configuration.
    pub config: FilterConfig,
    /// Classify `Unclassified` IOTPs with the §5 penultimate-hop alias
    /// heuristic ([`crate::alias`]). Off by default — the paper
    /// reports its results without it.
    pub alias_rescue: bool,
    /// Skip the TransitDiversity filter (ablation support): IOTPs
    /// reaching a single destination AS are then kept and classified.
    pub skip_transit_diversity: bool,
}

/// Everything the pipeline produced for one measurement cycle.
///
/// `PartialEq` is structural over the full output (classified IOTPs in
/// order, report, dynamic ASes): the parallel pipeline's determinism
/// guarantee is checked as `seq_output == par_output`.
#[derive(Debug, PartialEq)]
pub struct PipelineOutput {
    /// Classified IOTPs, ordered by key.
    pub iotps: Vec<(Iotp, Classification)>,
    /// LSP survival accounting across the filters (Table 1).
    pub report: FilterReport,
    /// ASes tagged dynamic by the Persistence filter (§4.5).
    pub dynamic_ases: BTreeSet<Asn>,
    /// Kept/quarantined trace accounting from ingest.
    pub degraded: DegradedReport,
}

impl PipelineOutput {
    /// Counts of IOTPs per class, in the paper's display order
    /// (Mono-LSP, Multi-FEC, Mono-FEC, Unclassified).
    pub fn class_counts(&self) -> ClassCounts {
        let mut counts = ClassCounts::default();
        for (_, c) in &self.iotps {
            counts.add(c.class);
        }
        counts
    }

    /// Counts of IOTPs per class restricted to one AS.
    pub fn class_counts_for(&self, asn: Asn) -> ClassCounts {
        let mut counts = ClassCounts::default();
        for (iotp, c) in &self.iotps {
            if iotp.key.asn == asn {
                counts.add(c.class);
            }
        }
        counts
    }

    /// The ASes owning at least one classified IOTP.
    pub fn ases(&self) -> BTreeSet<Asn> {
        self.iotps.iter().map(|(i, _)| i.key.asn).collect()
    }
}

/// Per-class IOTP tallies, as plotted in Figs. 6b and 10–15.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// Mono-LSP IOTPs.
    pub mono_lsp: usize,
    /// Multi-FEC IOTPs.
    pub multi_fec: usize,
    /// ECMP Mono-FEC IOTPs, parallel-links subclass.
    pub mono_fec_parallel: usize,
    /// ECMP Mono-FEC IOTPs, routers-disjoint subclass.
    pub mono_fec_disjoint: usize,
    /// Unclassified IOTPs.
    pub unclassified: usize,
}

impl ClassCounts {
    /// Adds one IOTP of the given class.
    pub fn add(&mut self, class: Class) {
        use crate::classify::MonoFecKind::*;
        match class {
            Class::MonoLsp => self.mono_lsp += 1,
            Class::MultiFec => self.multi_fec += 1,
            Class::MonoFec(ParallelLinks) => self.mono_fec_parallel += 1,
            Class::MonoFec(RoutersDisjoint) => self.mono_fec_disjoint += 1,
            Class::Unclassified => self.unclassified += 1,
        }
    }

    /// Total ECMP Mono-FEC IOTPs (both subclasses).
    pub fn mono_fec(&self) -> usize {
        self.mono_fec_parallel + self.mono_fec_disjoint
    }

    /// Total IOTPs.
    pub fn total(&self) -> usize {
        self.mono_lsp + self.multi_fec + self.mono_fec() + self.unclassified
    }

    /// `(mono_lsp, multi_fec, mono_fec, unclassified)` as fractions of
    /// the total; all zeros when the tally is empty.
    pub fn fractions(&self) -> [f64; 4] {
        let t = self.total();
        if t == 0 {
            return [0.0; 4];
        }
        let t = t as f64;
        [
            self.mono_lsp as f64 / t,
            self.multi_fec as f64 / t,
            self.mono_fec() as f64 / t,
            self.unclassified as f64 / t,
        ]
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &ClassCounts) {
        self.mono_lsp += other.mono_lsp;
        self.multi_fec += other.multi_fec;
        self.mono_fec_parallel += other.mono_fec_parallel;
        self.mono_fec_disjoint += other.mono_fec_disjoint;
        self.unclassified += other.unclassified;
    }
}

/// The Persistence filter's re-observation window: one LSP key set per
/// future snapshot, either held in memory (the default at demo scale)
/// or spilled to sorted on-disk files by [`crate::spill::KeySpiller`]
/// (the out-of-core path, where a window of `BTreeSet`s would defeat
/// bounded-memory ingest).
///
/// Both forms answer the same membership question over the same keys,
/// so [`Pipeline::finish_stages_windowed`] produces identical output
/// either way.
#[derive(Clone, Copy, Debug)]
pub enum PersistenceWindow<'a> {
    /// In-memory per-snapshot key sets.
    Mem(&'a [BTreeSet<LspKey>]),
    /// Spilled per-snapshot key files (see [`crate::spill`]).
    Spilled(&'a [crate::spill::SpilledKeys]),
}

/// One measurement cycle's contribution to an [`IngestState`]: the
/// provenance record that makes merged states *evictable*.
///
/// An `IngestState` built from several cycles keeps, per cycle, how
/// many of its `lsps` (a contiguous run, in merge order) and how much
/// of every aggregate count came from that cycle, so
/// [`IngestState::evict_before`] can age a cycle out of the state by
/// dropping its LSP run and subtracting its counts — no recompute over
/// the surviving cycles.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CycleSegment {
    /// The cycle this segment's traces belong to (0 for untagged
    /// single-shot runs).
    pub cycle: u64,
    /// How many of the owning state's `lsps` (a contiguous run at this
    /// segment's position) came from this cycle.
    pub lsps: usize,
    /// Traces ingested for this cycle.
    pub traces_in: u64,
    /// Tunnels entering the filter pipeline for this cycle.
    pub input: usize,
    /// Count after IncompleteLsp.
    pub after_incomplete: usize,
    /// Count after IntraAs.
    pub after_intra_as: usize,
    /// Kept/quarantined trace accounting for this cycle.
    pub degraded: DegradedReport,
}

impl CycleSegment {
    /// Folds `other` (same cycle) into this segment.
    fn absorb(&mut self, other: &CycleSegment) {
        debug_assert_eq!(self.cycle, other.cycle);
        self.lsps += other.lsps;
        self.traces_in += other.traces_in;
        self.input += other.input;
        self.after_incomplete += other.after_incomplete;
        self.after_intra_as += other.after_intra_as;
        self.degraded.merge(&other.degraded);
    }
}

/// Accumulated state of the pipeline's *ingest* half: tunnel extraction
/// plus the fused per-LSP filters (IncompleteLsp, IntraAS, TargetAS).
///
/// Unlike [`crate::stream::CycleAccumulator`] this is an owned,
/// `Send`-able value, so parallel workers can each build one over a
/// shard of traces and hand it back across the thread boundary;
/// [`IngestState::merge`] combines shards. Merging in shard order over
/// contiguous shards reproduces the sequential ingest exactly (counts
/// are sums; `lsps` concatenates in input order).
///
/// The state is also **windowed**: [`IngestState::tag_cycle`] stamps a
/// freshly-ingested state with its cycle id, merges accumulate the
/// per-cycle provenance in `segments`, and
/// [`IngestState::evict_before`] drops whole cycles again — the
/// long-running `lpr serve` reconcile loop keeps one such state per
/// window and never recomputes the survivors.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IngestState {
    /// LSPs surviving the per-LSP filters, in input order.
    pub lsps: Vec<Lsp>,
    /// Traces ingested.
    pub traces_in: u64,
    /// Tunnels entering the filter pipeline.
    pub input: usize,
    /// Count after IncompleteLsp.
    pub after_incomplete: usize,
    /// Count after IntraAs.
    pub after_intra_as: usize,
    /// Kept/quarantined trace accounting for this shard.
    pub degraded: DegradedReport,
    /// Per-cycle provenance, in merge order, tiling `lsps` exactly.
    /// Empty means "untagged": the whole state implicitly belongs to
    /// cycle 0 (the shape every single-shot constructor produces).
    pub segments: Vec<CycleSegment>,
}

impl IngestState {
    /// The whole state expressed as one [`CycleSegment`] of the given
    /// cycle.
    fn as_segment(&self, cycle: u64) -> CycleSegment {
        CycleSegment {
            cycle,
            lsps: self.lsps.len(),
            traces_in: self.traces_in,
            input: self.input,
            after_incomplete: self.after_incomplete,
            after_intra_as: self.after_intra_as,
            degraded: self.degraded.clone(),
        }
    }

    /// Whether nothing has been ingested into this state at all (the
    /// `Default` shape).
    pub fn is_untouched(&self) -> bool {
        self.lsps.is_empty()
            && self.traces_in == 0
            && self.input == 0
            && self.after_incomplete == 0
            && self.after_intra_as == 0
            && self.degraded == DegradedReport::default()
            && self.segments.is_empty()
    }

    /// Materialises the implicit cycle-0 segment of an untagged state,
    /// restoring the invariant that non-empty states carry provenance.
    fn normalize(&mut self) {
        if self.segments.is_empty() && !self.is_untouched() {
            self.segments = vec![self.as_segment(0)];
        }
    }

    /// Stamps the whole state as belonging to `cycle`, collapsing any
    /// existing provenance into one segment. Call this on the state a
    /// single cycle's ingest produced, before merging it into a
    /// windowed state.
    pub fn tag_cycle(&mut self, cycle: u64) {
        if self.is_untouched() {
            return;
        }
        self.segments = vec![self.as_segment(cycle)];
    }

    /// Cycle ids present in this state, ascending and unique.
    pub fn cycles(&self) -> Vec<u64> {
        if self.segments.is_empty() {
            return if self.is_untouched() { Vec::new() } else { vec![0] };
        }
        let mut ids: Vec<u64> = self.segments.iter().map(|s| s.cycle).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Appends another shard's (or cycle's) state; order of merges must
    /// follow shard (= input) order for LSP order to match the
    /// sequential run. Provenance concatenates, coalescing adjacent
    /// segments of the same cycle.
    pub fn merge(&mut self, mut other: IngestState) {
        self.normalize();
        other.normalize();
        self.lsps.append(&mut other.lsps);
        self.traces_in += other.traces_in;
        self.input += other.input;
        self.after_incomplete += other.after_incomplete;
        self.after_intra_as += other.after_intra_as;
        self.degraded.merge(&other.degraded);
        for seg in other.segments.drain(..) {
            match self.segments.last_mut() {
                Some(last) if last.cycle == seg.cycle => last.absorb(&seg),
                _ => self.segments.push(seg),
            }
        }
    }

    /// Ages out every cycle older than `cycle`: their LSP runs are
    /// dropped from `lsps` and their counts subtracted from the
    /// aggregates, leaving exactly the state a from-scratch merge of
    /// the surviving cycles would have built. Returns the evicted
    /// segments (empty when nothing aged out).
    pub fn evict_before(&mut self, cycle: u64) -> Vec<CycleSegment> {
        self.normalize();
        if self.segments.iter().all(|s| s.cycle >= cycle) {
            return Vec::new();
        }
        let segments = std::mem::take(&mut self.segments);
        let lsps = std::mem::take(&mut self.lsps);
        *self = IngestState::default();
        let mut evicted = Vec::new();
        let mut offset = 0usize;
        for seg in segments {
            let range = offset..offset + seg.lsps;
            offset = range.end;
            if seg.cycle >= cycle {
                let mut part = IngestState {
                    lsps: lsps[range].to_vec(),
                    traces_in: seg.traces_in,
                    input: seg.input,
                    after_incomplete: seg.after_incomplete,
                    after_intra_as: seg.after_intra_as,
                    degraded: seg.degraded.clone(),
                    segments: Vec::new(),
                };
                part.segments = vec![seg];
                self.merge(part);
            } else {
                evicted.push(seg);
            }
        }
        evicted
    }
}

impl Pipeline {
    /// Builds a pipeline with the given filter configuration.
    pub fn new(config: FilterConfig) -> Self {
        Pipeline { config, alias_rescue: false, skip_transit_diversity: false }
    }

    /// Enables the §5 penultimate-hop alias rescue for `Unclassified`
    /// IOTPs.
    pub fn with_alias_rescue(mut self) -> Self {
        self.alias_rescue = true;
        self
    }

    /// Runs LPR over one cycle of traces at one thread.
    ///
    /// `future_keys` carries, for each of the following snapshots of the
    /// same month (in order), the set of LSP keys observed there; it
    /// feeds the Persistence filter. Pass `&[]` to skip persistence, as
    /// Fig. 16 does: a window of no snapshots keeps every LSP.
    /// For more threads or telemetry, compose
    /// [`IngestState::from_traces`] and [`Pipeline::finish_stages`]
    /// directly.
    pub fn run(
        &self,
        traces: &[Trace],
        mapper: &(dyn AsMapper + Sync),
        future_keys: &[BTreeSet<LspKey>],
    ) -> PipelineOutput {
        let one = lpr_par::ShardOptions::new(1);
        let ingest = IngestState::from_traces(traces, mapper, None, one);
        self.finish_stages(ingest, future_keys, None, one)
    }

    /// The aggregate back half of the pipeline — TransitDiversity,
    /// Persistence, classification — over an already-ingested
    /// [`IngestState`].
    ///
    /// Every ingest producer funnels into this one implementation
    /// (`opts` with one thread runs every shard inline on the caller's
    /// thread), so the paths cannot drift: determinism at any thread
    /// count reduces to determinism of the shard merges.
    pub fn finish_stages(
        &self,
        ingest: IngestState,
        future_keys: &[BTreeSet<LspKey>],
        recorder: Option<&lpr_obs::Recorder>,
        opts: lpr_par::ShardOptions,
    ) -> PipelineOutput {
        match self.finish_stages_windowed(ingest, PersistenceWindow::Mem(future_keys), recorder, opts)
        {
            Ok(out) => out,
            // The in-memory window performs no IO.
            Err(e) => unreachable!("in-memory persistence cannot fail: {e}"),
        }
    }

    /// [`Pipeline::finish_stages`] generalised over the persistence
    /// window representation. The [`PersistenceWindow::Spilled`] form
    /// probes sorted on-disk key files (hence the `io::Result`); it
    /// computes flags in one aggregate merge-join pass, so no per-worker
    /// Persistence telemetry rows are emitted on that path.
    ///
    /// With a `recorder`, the run's `threads` field is set from `opts`;
    /// the ingest funnel rows (TunnelExtraction and the three per-LSP
    /// filters, untimed: their work ran in the producer's `Ingest`
    /// stage) are recorded, then TransitDiversity, Persistence and
    /// Classification each run as a timed [`lpr_obs::StageGuard`]. When
    /// more than one worker runs, per-worker `worker{N}/<stage>` rows
    /// record each worker's busy time and item counts.
    pub fn finish_stages_windowed(
        &self,
        ingest: IngestState,
        window: PersistenceWindow<'_>,
        recorder: Option<&lpr_obs::Recorder>,
        opts: lpr_par::ShardOptions,
    ) -> std::io::Result<PipelineOutput> {
        use lpr_obs::StageGuard;
        use lpr_par::ShardTrace;
        let workers = recorder.filter(|_| opts.effective_threads() > 1);
        let mut report = FilterReport { input: ingest.input, ..Default::default() };
        report.remaining.insert(FilterStage::IncompleteLsp, ingest.after_incomplete);
        report.remaining.insert(FilterStage::IntraAs, ingest.after_intra_as);
        report.remaining.insert(FilterStage::TargetAs, ingest.lsps.len());
        if let Some(rec) = recorder {
            rec.set_threads(opts.effective_threads() as u64);
            record_ingest_funnel(rec, ingest.traces_in, &report);
        }

        // TransitDiversity (per IOTP, counted in LSPs). `keep` is a
        // sorted key slice; membership below is a binary search and the
        // IOTP key is computed once per LSP.
        let stage = StageGuard::open(recorder, FilterStage::TransitDiversity.name());
        let keep: Vec<IotpKey> = if self.skip_transit_diversity {
            let mut keys: Vec<_> = ingest.lsps.iter().map(|l| l.iotp_key()).collect();
            keys.sort_unstable();
            keys.dedup();
            keys
        } else {
            transit_diversity_keys(&ingest.lsps)
        };
        let mut lsps = ingest.lsps;
        let input = lsps.len() as u64;
        lsps.retain(|l| iotp_kept(&keep, l.iotp_key()));
        stage.finish_counts(input, lsps.len() as u64);
        report.remaining.insert(FilterStage::TransitDiversity, lsps.len());

        // Persistence. The expensive per-LSP half (key encoding + window
        // probes) shards across workers; the order-sensitive
        // partition and the per-AS dynamic reinjection stay sequential.
        let stage = StageGuard::open(recorder, FilterStage::Persistence.name());
        let flags: Vec<bool> = match window {
            PersistenceWindow::Mem(future_keys) => {
                let run = lpr_par::map_shards_traced(
                    &lsps,
                    opts,
                    ShardTrace::new(stage.tracer(), stage.context()),
                    |_, shard| persistent_flags(shard, future_keys, &self.config),
                )
                .expect_ok();
                if let Some(rec) = workers {
                    run.record_workers(rec, FilterStage::Persistence.name(), |_, flags| {
                        (flags.len() as u64, flags.iter().filter(|&&f| f).count() as u64)
                    });
                }
                run.outputs.concat()
            }
            PersistenceWindow::Spilled(snapshots) => {
                crate::spill::persistent_flags_spilled(&lsps, snapshots, &self.config)?
            }
        };
        let input = lsps.len() as u64;
        let (kept, dropped) = partition_by_flags(lsps, &flags);
        let persisted = reinject_dynamic(kept, dropped, &self.config);
        stage.finish_counts(input, persisted.strictly_persistent as u64);
        report
            .remaining
            .insert(FilterStage::Persistence, persisted.strictly_persistent);

        // Classification. IOTPs are rebuilt from the persistent LSPs and
        // re-checked for transit diversity membership (an IOTP may have
        // lost branches to Persistence but it keeps its destination
        // diversity by construction of `keep`). `build_iotps` returns
        // them sorted and key-unique, so shards classify disjoint key
        // ranges and a shard-order concat preserves key order.
        let stage = StageGuard::open(recorder, "Classification");
        let iotps = build_iotps(&persisted.lsps, &keep);
        let run = lpr_par::map_shards_traced(
            &iotps,
            opts,
            ShardTrace::new(stage.tracer(), stage.context()),
            |_, shard| {
                shard
                    .iter()
                    .map(|iotp| {
                        if self.alias_rescue {
                            crate::alias::classify_with_alias_heuristic(iotp)
                        } else {
                            classify_iotp(iotp)
                        }
                    })
                    .collect::<Vec<Classification>>()
            },
        )
        .expect_ok();
        if let Some(rec) = workers {
            run.record_workers(rec, "Classification", |_, classes| {
                (classes.len() as u64, classes.len() as u64)
            });
        }
        let classes: Vec<Classification> = run.outputs.into_iter().flatten().collect();
        let iotps: Vec<(Iotp, Classification)> = iotps.into_iter().zip(classes).collect();
        stage.finish_counts(persisted.strictly_persistent as u64, iotps.len() as u64);

        let output = PipelineOutput {
            iotps,
            report,
            dynamic_ases: persisted.dynamic_ases,
            degraded: ingest.degraded,
        };
        if let Some(rec) = recorder {
            if ingest.traces_in > 0 {
                rec.counter(lpr_obs::names::PIPELINE_TRACES).add(ingest.traces_in);
            }
            if output.degraded.ingested() > 0 {
                rec.counter(lpr_obs::names::PIPELINE_TRACES_KEPT).add(output.degraded.kept);
                rec.counter(lpr_obs::names::PIPELINE_TRACES_QUARANTINED)
                    .add(output.degraded.quarantined_total());
                let tracer = rec.tracer();
                for (reason, n) in &output.degraded.quarantined {
                    rec.counter(reason.counter_name()).add(*n);
                    // One warn event per reason, carrying the count —
                    // traces reconcile against the quarantine counters.
                    tracer.event(
                        tracer.default_parent(),
                        lpr_obs::Level::Warn,
                        "quarantine",
                        vec![
                            (
                                "reason".to_string(),
                                lpr_obs::FieldValue::Str(reason.name().to_string()),
                            ),
                            ("n".to_string(), lpr_obs::FieldValue::U64(*n)),
                        ],
                    );
                }
            }
            rec.counter(lpr_obs::names::PIPELINE_TUNNELS).add(output.report.input as u64);
            rec.counter(lpr_obs::names::PIPELINE_IOTPS_CLASSIFIED).add(output.iotps.len() as u64);
            rec.counter(lpr_obs::names::PIPELINE_DYNAMIC_ASES).add(output.dynamic_ases.len() as u64);
        }
        Ok(output)
    }

    /// The per-snapshot LSP key set used by Persistence, computed from
    /// raw traces at one thread (see [`Pipeline::snapshot_keys_par`]).
    pub fn snapshot_keys(traces: &[Trace]) -> BTreeSet<LspKey> {
        Self::snapshot_keys_par(traces, 1)
    }
}

/// Records the ingest half's funnel rows, chained from `report`:
/// TunnelExtraction (traces → tunnels) and the three per-LSP filters.
/// Their `wall_us` is 0: the work ran inside the producer's `Ingest`
/// stage, as one fused pass per trace.
fn record_ingest_funnel(recorder: &lpr_obs::Recorder, traces_in: u64, report: &FilterReport) {
    if traces_in > 0 {
        recorder.record_stage("TunnelExtraction", 0, traces_in, report.input as u64);
    }
    let mut input = report.input as u64;
    for stage in [FilterStage::IncompleteLsp, FilterStage::IntraAs, FilterStage::TargetAs] {
        let output = report.remaining[&stage] as u64;
        recorder.record_stage(stage.name(), 0, input, output);
        input = output;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Lse;
    use crate::trace::Hop;
    use std::net::Ipv4Addr;

    fn ip(a: u8, o: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, a, 0, o)
    }

    fn mapper(addr: Ipv4Addr) -> Option<Asn> {
        let o = addr.octets();
        match o[0] {
            10 => Some(Asn(o[1] as u32)),
            192 => Some(Asn(100)),
            198 => Some(Asn(101)),
            _ => None,
        }
    }

    /// [`Pipeline::run`] with a recorder attached.
    fn run_recorded(
        pipeline: &Pipeline,
        traces: &[Trace],
        future_keys: &[BTreeSet<LspKey>],
        rec: &lpr_obs::Recorder,
    ) -> PipelineOutput {
        let one = lpr_par::ShardOptions::new(1);
        let ingest = IngestState::from_traces(traces, &mapper, Some(rec), one);
        pipeline.finish_stages(ingest, future_keys, Some(rec), one)
    }

    /// A trace crossing AS1's two-LSR tunnel towards `dst`.
    fn mpls_trace(dst: Ipv4Addr, labels: [u32; 2], lsr_octets: [u8; 2]) -> Trace {
        let mut t = Trace::new(Ipv4Addr::new(203, 0, 113, 5), dst);
        t.push_hop(Hop::responsive(1, ip(1, 1)));
        t.push_hop(Hop::labelled(2, ip(1, lsr_octets[0]), &[Lse::transit(labels[0], 254)]));
        t.push_hop(Hop::labelled(3, ip(1, lsr_octets[1]), &[Lse::transit(labels[1], 253)]));
        t.push_hop(Hop::responsive(4, ip(1, 9)));
        t.push_hop(Hop::responsive(5, dst));
        t.reached = true;
        t
    }

    #[test]
    fn end_to_end_multi_fec() {
        // Two destinations in different ASes, same IP path, different
        // labels at the same LSRs => Multi-FEC.
        let traces = vec![
            mpls_trace(Ipv4Addr::new(192, 0, 2, 7), [100, 200], [2, 3]),
            mpls_trace(Ipv4Addr::new(198, 51, 100, 7), [101, 201], [2, 3]),
        ];
        let keys = Pipeline::snapshot_keys(&traces);
        let pipeline = Pipeline::default();
        let out = pipeline.run(&traces, &mapper, &[keys.clone(), keys]);
        assert_eq!(out.iotps.len(), 1);
        assert_eq!(out.iotps[0].1.class, Class::MultiFec);
        assert_eq!(out.class_counts().multi_fec, 1);
        assert_eq!(out.report.proportion_after(FilterStage::Persistence), 1.0);
    }

    #[test]
    fn end_to_end_mono_lsp() {
        let traces = vec![
            mpls_trace(Ipv4Addr::new(192, 0, 2, 7), [100, 200], [2, 3]),
            mpls_trace(Ipv4Addr::new(198, 51, 100, 7), [100, 200], [2, 3]),
        ];
        let keys = Pipeline::snapshot_keys(&traces);
        let out = Pipeline::default().run(&traces, &mapper, &[keys]);
        assert_eq!(out.class_counts().mono_lsp, 1);
    }

    #[test]
    fn single_destination_iotp_is_filtered_out() {
        let traces = vec![mpls_trace(Ipv4Addr::new(192, 0, 2, 7), [100, 200], [2, 3])];
        let keys = Pipeline::snapshot_keys(&traces);
        let out = Pipeline::default().run(&traces, &mapper, &[keys]);
        assert!(out.iotps.is_empty());
        assert_eq!(out.report.remaining[&FilterStage::TargetAs], 1);
        assert_eq!(out.report.remaining[&FilterStage::TransitDiversity], 0);
    }

    #[test]
    fn nonpersistent_lsps_drop_and_reinject() {
        let traces = vec![
            mpls_trace(Ipv4Addr::new(192, 0, 2, 7), [100, 200], [2, 3]),
            mpls_trace(Ipv4Addr::new(198, 51, 100, 7), [101, 201], [2, 3]),
        ];
        // Empty future snapshots: nothing persists; the whole AS1 set
        // vanishes; reinjection kicks in and tags AS1 dynamic.
        let out =
            Pipeline::default().run(&traces, &mapper, &[BTreeSet::new(), BTreeSet::new()]);
        assert_eq!(out.report.remaining[&FilterStage::Persistence], 0);
        assert!(out.dynamic_ases.contains(&Asn(1)));
        assert_eq!(out.iotps.len(), 1);
    }

    #[test]
    fn a_window_of_no_snapshots_applies_no_persistence_filter() {
        // What `lpr serve` runs: a state merged from two cycles, the
        // default j = 2 and no follow-up key sets. Every LSP passes
        // Persistence and no AS is tagged dynamic, exactly as at j = 0.
        let one = lpr_par::ShardOptions::new(1);
        let mut window = IngestState::default();
        for (cycle, labels) in [[100, 200], [101, 201]].into_iter().enumerate() {
            let traces = vec![
                mpls_trace(Ipv4Addr::new(192, 0, 2, 7), labels, [2, 3]),
                mpls_trace(Ipv4Addr::new(198, 51, 100, 7), labels, [2, 3]),
            ];
            let mut state = IngestState::from_traces(&traces, &mapper, None, one);
            state.tag_cycle(cycle as u64);
            window.merge(state);
        }
        let out = Pipeline::default().finish_stages(window.clone(), &[], None, one);
        let diverse = out.report.remaining[&FilterStage::TransitDiversity];
        assert_eq!(diverse, 4);
        assert_eq!(out.report.remaining[&FilterStage::Persistence], diverse);
        assert!(out.dynamic_ases.is_empty());
        let j0 = Pipeline::new(FilterConfig { persistence_window: 0, ..Default::default() });
        assert_eq!(out, j0.finish_stages(window, &[], None, one));
    }

    #[test]
    fn alias_rescue_is_plumbed_through() {
        // A PHP tunnel whose LSPs never share a labelled IP: base
        // pipeline says Unclassified, alias rescue reclassifies.
        let mk = |lsr_octet: u8, label: u32, dst: Ipv4Addr| {
            let mut t = Trace::new(Ipv4Addr::new(203, 0, 113, 5), dst);
            t.push_hop(Hop::responsive(1, ip(1, 1)));
            t.push_hop(Hop::labelled(2, ip(1, lsr_octet), &[Lse::transit(label, 254)]));
            t.push_hop(Hop::responsive(3, ip(1, 9)));
            t.push_hop(Hop::responsive(4, dst));
            t.reached = true;
            t
        };
        let traces = vec![
            mk(2, 100, Ipv4Addr::new(192, 0, 2, 7)),
            mk(3, 101, Ipv4Addr::new(198, 51, 100, 7)),
        ];
        let keys = Pipeline::snapshot_keys(&traces);
        let base = Pipeline::default().run(&traces, &mapper, std::slice::from_ref(&keys));
        assert_eq!(base.class_counts().unclassified, 1);
        let rescued =
            Pipeline::default().with_alias_rescue().run(&traces, &mapper, &[keys]);
        assert_eq!(rescued.class_counts().unclassified, 0);
        assert_eq!(rescued.class_counts().multi_fec, 1);
    }

    #[test]
    fn recorded_stages_reconcile_with_filter_report() {
        let traces = vec![
            mpls_trace(Ipv4Addr::new(192, 0, 2, 7), [100, 200], [2, 3]),
            mpls_trace(Ipv4Addr::new(198, 51, 100, 7), [101, 201], [2, 3]),
        ];
        let keys = Pipeline::snapshot_keys(&traces);
        let rec = lpr_obs::Recorder::new("test");
        let out = run_recorded(&Pipeline::default(), &traces, &[keys.clone(), keys], &rec);
        let telemetry = rec.finish();

        // Filter stages chain exactly: input of stage k equals output of
        // stage k-1, starting from the report's input tunnel count.
        let mut input = out.report.input as u64;
        for stage in FilterStage::ALL {
            let s = telemetry.stage(stage.name()).unwrap_or_else(|| panic!("{}", stage.name()));
            assert_eq!(s.input, input, "{} input", stage.name());
            assert_eq!(s.output, out.report.remaining[&stage] as u64, "{} output", stage.name());
            input = s.output;
        }
        let extraction = telemetry.stage("TunnelExtraction").unwrap();
        assert_eq!(extraction.input, traces.len() as u64);
        assert_eq!(extraction.output, out.report.input as u64);
        let classification = telemetry.stage("Classification").unwrap();
        assert_eq!(classification.output, out.iotps.len() as u64);
        assert_eq!(telemetry.counter("pipeline.traces"), traces.len() as u64);
        assert_eq!(telemetry.counter("pipeline.tunnels"), out.report.input as u64);
        assert_eq!(telemetry.counter("pipeline.iotps_classified"), out.iotps.len() as u64);
    }

    #[test]
    fn recorder_is_optional_and_unrecorded_runs_match() {
        let traces = vec![
            mpls_trace(Ipv4Addr::new(192, 0, 2, 7), [100, 200], [2, 3]),
            mpls_trace(Ipv4Addr::new(198, 51, 100, 7), [101, 201], [2, 3]),
        ];
        let keys = Pipeline::snapshot_keys(&traces);
        let rec = lpr_obs::Recorder::new("test");
        let plain = Pipeline::default().run(&traces, &mapper, std::slice::from_ref(&keys));
        let recorded = run_recorded(&Pipeline::default(), &traces, &[keys], &rec);
        assert_eq!(plain.report, recorded.report);
        assert_eq!(plain.class_counts(), recorded.class_counts());
    }

    #[test]
    fn degraded_traces_are_quarantined_not_fatal() {
        use crate::quarantine::QuarantineReason;
        let clean = vec![
            mpls_trace(Ipv4Addr::new(192, 0, 2, 7), [100, 200], [2, 3]),
            mpls_trace(Ipv4Addr::new(198, 51, 100, 7), [101, 201], [2, 3]),
        ];
        let mut broken = clean.clone();
        let mut dup = mpls_trace(Ipv4Addr::new(192, 0, 2, 8), [100, 200], [2, 3]);
        dup.hops.push(dup.hops.last().unwrap().clone()); // duplicated reply
        broken.push(dup);
        let mut rev = mpls_trace(Ipv4Addr::new(198, 51, 100, 8), [100, 200], [2, 3]);
        rev.hops.swap(0, 3); // reordered replies
        broken.push(rev);

        let keys = Pipeline::snapshot_keys(&broken);
        assert_eq!(keys, Pipeline::snapshot_keys(&clean), "quarantined traces yield no keys");

        let rec = lpr_obs::Recorder::new("degraded");
        let out = run_recorded(&Pipeline::default(), &broken, std::slice::from_ref(&keys), &rec);
        assert_eq!(out.degraded.kept, 2);
        assert_eq!(out.degraded.quarantined[&QuarantineReason::DuplicateTtl], 1);
        assert_eq!(out.degraded.quarantined[&QuarantineReason::NonMonotonicTtl], 1);
        assert_eq!(out.degraded.ingested(), broken.len() as u64);

        // The surviving pipeline matches a run over only the clean traces.
        let clean_out = Pipeline::default().run(&clean, &mapper, &[keys]);
        assert_eq!(out.iotps, clean_out.iotps);
        assert_eq!(out.report, clean_out.report);

        // Telemetry reconciles: kept + quarantined == traces ingested.
        let telemetry = rec.finish();
        assert_eq!(telemetry.counter("pipeline.traces"), broken.len() as u64);
        assert_eq!(telemetry.counter("pipeline.traces_kept"), 2);
        assert_eq!(telemetry.counter("pipeline.traces_quarantined"), 2);
        assert_eq!(
            telemetry.counter(QuarantineReason::DuplicateTtl.counter_name())
                + telemetry.counter(QuarantineReason::NonMonotonicTtl.counter_name()),
            telemetry.counter("pipeline.traces_quarantined"),
        );
    }

    #[test]
    fn class_counts_helpers() {
        let mut c = ClassCounts::default();
        c.add(Class::MonoLsp);
        c.add(Class::MultiFec);
        c.add(Class::MonoFec(crate::classify::MonoFecKind::ParallelLinks));
        c.add(Class::MonoFec(crate::classify::MonoFecKind::RoutersDisjoint));
        assert_eq!(c.total(), 4);
        assert_eq!(c.mono_fec(), 2);
        let f = c.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let mut d = ClassCounts::default();
        d.merge(&c);
        assert_eq!(d, c);
        assert_eq!(ClassCounts::default().fractions(), [0.0; 4]);
    }
}
