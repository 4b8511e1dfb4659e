//! Parallel front end of the LPR pipeline.
//!
//! The pipeline's hot path is embarrassingly parallel per trace (tunnel
//! extraction + the fused per-LSP filters) and per IOTP
//! (classification). This module shards that work over
//! [`lpr_par::map_shards`] while keeping the output **byte-identical**
//! for any thread count:
//!
//! - [`IngestState::from_traces`] cuts traces into contiguous shards;
//!   each worker runs its own [`CycleAccumulator`] over its shard and
//!   hands back an owned [`IngestState`]. Merging shard states *in
//!   shard order* reproduces the sequential LSP order exactly, and
//!   every count is a plain sum.
//! - The aggregate stages (TransitDiversity → Persistence →
//!   classification) then run through [`Pipeline::finish_stages`],
//!   which in turn shards the per-LSP persistence probe and the
//!   per-IOTP classification.
//!
//! With `threads <= 1` every shard runs inline on the caller's thread,
//! so [`Pipeline::run`] is this same path at one thread, not a separate
//! sequential implementation.

use crate::filter::{AsMapper, KeySetBuilder};
use crate::lsp::LspKey;
use crate::pipeline::{IngestState, Pipeline};
use crate::quarantine::QuarantineReason;
use crate::stream::CycleAccumulator;
use crate::trace::Trace;
use lpr_par::ShardOptions;
use std::collections::BTreeSet;

impl IngestState {
    /// The ingest half of the pipeline over a trace slice: validation,
    /// tunnel extraction and the fused per-LSP filters, sharded across
    /// `opts` workers and merged in shard order. Feed the result to
    /// [`Pipeline::finish_stages`].
    ///
    /// Shards are caught: a panicking worker poisons only its own
    /// shard, whose traces are then quarantined wholesale as
    /// [`QuarantineReason::PoisonedShard`] instead of tearing down the
    /// run. The work is `recorder`'s `Ingest` stage (traces in, LSPs
    /// kept); when more than one worker runs, each worker also gets a
    /// `worker{N}/Ingest` row (busy time, traces in, LSPs out), and
    /// those rows sum to the stage's counts.
    pub fn from_traces(
        traces: &[Trace],
        mapper: &(dyn AsMapper + Sync),
        recorder: Option<&lpr_obs::Recorder>,
        opts: ShardOptions,
    ) -> IngestState {
        let stage = lpr_obs::StageGuard::open(recorder, "Ingest");
        let run = lpr_par::map_shards_traced(
            traces,
            opts,
            lpr_par::ShardTrace::new(stage.tracer(), stage.context()),
            |_, shard| {
                let mut acc = CycleAccumulator::new(mapper);
                for trace in shard {
                    acc.push_trace(trace);
                }
                acc.into_state()
            },
        );

        if let Some(rec) = recorder.filter(|_| opts.effective_threads() > 1) {
            run.record_workers(rec, "Ingest", |shard, out| match out {
                Ok(state) => (state.traces_in, state.lsps.len() as u64),
                Err(_) => (run.shard_lens[shard] as u64, 0),
            });
        }

        // Shard-order merge: LSPs concatenate in input order, counts sum.
        let mut ingest = IngestState::default();
        let mut poisoned = 0u64;
        for (shard, result) in run.outputs.into_iter().enumerate() {
            match result {
                Ok(state) => ingest.merge(state),
                Err(_poisoned_shard) => {
                    let n = run.shard_lens.get(shard).copied().unwrap_or(0) as u64;
                    // Merged (not field-poked) so the quarantined shard
                    // lands in the per-cycle provenance like any other.
                    let mut degraded = crate::quarantine::DegradedReport::default();
                    degraded.note_many(QuarantineReason::PoisonedShard, n);
                    ingest.merge(IngestState { traces_in: n, degraded, ..IngestState::default() });
                    poisoned += 1;
                }
            }
        }
        stage.finish_counts(ingest.traces_in, ingest.lsps.len() as u64);
        if let (Some(rec), true) = (recorder, poisoned > 0) {
            rec.counter(lpr_obs::names::PAR_POISONED_SHARDS).add(poisoned);
        }
        ingest
    }
}

impl Pipeline {
    /// The per-snapshot LSP key set the Persistence filter matches
    /// against, built by one [`KeySetBuilder`] per shard of traces and
    /// unioned (a set union is order-insensitive, so the result is
    /// identical at any thread count). Quarantined traces contribute no
    /// keys, matching what an ingest run over the same snapshot would
    /// keep.
    pub fn snapshot_keys_par(traces: &[Trace], threads: usize) -> BTreeSet<LspKey> {
        let run = lpr_par::map_shards(traces, ShardOptions::new(threads), |_, shard| {
            let mut keys = KeySetBuilder::default();
            for trace in shard {
                keys.push_trace(trace);
            }
            keys.finish()
        });
        let mut keys = BTreeSet::new();
        for shard in run.outputs {
            keys.extend(shard);
        }
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Lse;
    use crate::lsp::Asn;
    use crate::pipeline::PipelineOutput;
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

    /// A trace crossing AS`asn`'s two-LSR tunnel towards `dst`.
    fn mpls_trace(asn: u8, dst: Ipv4Addr, labels: [u32; 2], lsrs: [u8; 2]) -> Trace {
        let mut t = Trace::new(Ipv4Addr::new(203, 0, 113, 5), dst);
        t.push_hop(Hop::responsive(1, ip(asn, 1)));
        t.push_hop(Hop::labelled(2, ip(asn, lsrs[0]), &[Lse::transit(labels[0], 254)]));
        t.push_hop(Hop::labelled(3, ip(asn, lsrs[1]), &[Lse::transit(labels[1], 253)]));
        t.push_hop(Hop::responsive(4, ip(asn, 9)));
        t.push_hop(Hop::responsive(5, dst));
        t.reached = true;
        t
    }

    /// A mixed workload: several ASes, diverse and non-diverse IOTPs,
    /// some non-persistent LSPs.
    fn workload() -> Vec<Trace> {
        let mut traces = Vec::new();
        for asn in 1..=6u8 {
            for i in 0..10u32 {
                let dst = if i % 2 == 0 {
                    Ipv4Addr::new(192, 0, 2, 10 + i as u8)
                } else {
                    Ipv4Addr::new(198, 51, 100, 10 + i as u8)
                };
                traces.push(mpls_trace(asn, dst, [100 + i % 3, 200 + i % 3], [2, 3]));
            }
        }
        traces
    }

    /// The in-memory pipeline at `threads`: `from_traces`, then
    /// `finish_stages` over one future snapshot.
    fn run_at(
        pipeline: &Pipeline,
        traces: &[Trace],
        mapper: &(dyn AsMapper + Sync),
        keys: &BTreeSet<LspKey>,
        threads: usize,
        recorder: Option<&lpr_obs::Recorder>,
    ) -> PipelineOutput {
        let opts = ShardOptions::new(threads);
        let ingest = IngestState::from_traces(traces, mapper, recorder, opts);
        pipeline.finish_stages(ingest, std::slice::from_ref(keys), recorder, opts)
    }

    #[test]
    fn parallel_run_is_byte_identical_to_sequential() {
        let traces = workload();
        let keys = Pipeline::snapshot_keys(&traces);
        let pipeline = Pipeline::default();
        let seq = pipeline.run(&traces, &mapper, std::slice::from_ref(&keys));
        for threads in [1usize, 2, 3, 4, 8] {
            let par = run_at(&pipeline, &traces, &mapper, &keys, threads, None);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn parallel_snapshot_keys_match_sequential() {
        let traces = workload();
        let seq = Pipeline::snapshot_keys(&traces);
        for threads in [1usize, 2, 4, 7] {
            assert_eq!(Pipeline::snapshot_keys_par(&traces, threads), seq, "threads={threads}");
        }
    }

    #[test]
    fn parallel_options_are_respected() {
        let traces = workload();
        let keys = Pipeline::snapshot_keys(&traces);
        let mut pipeline = Pipeline::default().with_alias_rescue();
        pipeline.skip_transit_diversity = true;
        let seq = pipeline.run(&traces, &mapper, std::slice::from_ref(&keys));
        let par = run_at(&pipeline, &traces, &mapper, &keys, 4, None);
        assert_eq!(par, seq);
    }

    #[test]
    fn parallel_telemetry_reconciles_with_sequential_counts() {
        let traces = workload();
        let keys = Pipeline::snapshot_keys(&traces);
        let pipeline = Pipeline::default();

        let rec = lpr_obs::Recorder::new("par");
        let out = run_at(&pipeline, &traces, &mapper, &keys, 4, Some(&rec));
        let telemetry = rec.finish();
        assert_eq!(telemetry.threads, 4);

        // Aggregate filter stages chain exactly as in the sequential run.
        let mut input = out.report.input as u64;
        for stage in crate::filter::FilterStage::ALL {
            let s = telemetry.stage(stage.name()).unwrap_or_else(|| panic!("{}", stage.name()));
            assert_eq!(s.input, input, "{} input", stage.name());
            assert_eq!(s.output, out.report.remaining[&stage] as u64, "{} output", stage.name());
            input = s.output;
        }

        // Worker rows sum-reconcile with the aggregate stages.
        let ingest: Vec<_> = telemetry.worker_stages("Ingest");
        assert!(!ingest.is_empty(), "worker ingest rows expected");
        assert_eq!(
            ingest.iter().map(|s| s.input).sum::<u64>(),
            traces.len() as u64,
            "worker ingest inputs cover every trace"
        );
        assert_eq!(
            ingest.iter().map(|s| s.output).sum::<u64>(),
            out.report.remaining[&crate::filter::FilterStage::TargetAs] as u64,
            "worker ingest outputs sum to the TargetAS survivors"
        );
        let classify: Vec<_> = telemetry.worker_stages("Classification");
        assert!(!classify.is_empty(), "worker classification rows expected");
        assert_eq!(
            classify.iter().map(|s| s.output).sum::<u64>(),
            out.iotps.len() as u64,
            "worker classification outputs sum to the classified IOTPs"
        );
        let persist: Vec<_> = telemetry.worker_stages("Persistence");
        assert_eq!(
            persist.iter().map(|s| s.input).sum::<u64>(),
            out.report.remaining[&crate::filter::FilterStage::TransitDiversity] as u64,
        );
        assert_eq!(
            persist.iter().map(|s| s.output).sum::<u64>(),
            out.report.remaining[&crate::filter::FilterStage::Persistence] as u64,
        );
    }

    #[test]
    fn quarantine_is_identical_across_thread_counts() {
        // Sprinkle structurally-broken traces through the workload; the
        // quarantine (and hence the whole output, degraded report
        // included) must not depend on sharding.
        let mut traces = workload();
        for i in [3usize, 17, 40] {
            let mut t = traces[i].clone();
            t.hops.push(t.hops[2].clone()); // duplicated reply
            traces.insert(i, t);
        }
        let keys = Pipeline::snapshot_keys(&traces);
        let pipeline = Pipeline::default();
        let seq = pipeline.run(&traces, &mapper, std::slice::from_ref(&keys));
        assert_eq!(seq.degraded.quarantined_total(), 3);
        assert_eq!(seq.degraded.ingested(), traces.len() as u64);
        for threads in [1usize, 2, 3, 4, 8] {
            let par = run_at(&pipeline, &traces, &mapper, &keys, threads, None);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn panicking_worker_quarantines_its_shard() {
        // A mapper that panics on one sentinel address: the shard
        // holding that trace is quarantined as PoisonedShard, every
        // other shard classifies normally and the run completes — at
        // one thread (`Pipeline::run`) as at four.
        let bomb = Ipv4Addr::new(10, 66, 0, 1);
        let volatile_mapper = move |addr: Ipv4Addr| -> Option<Asn> {
            assert_ne!(addr, bomb, "mapper hit the poisoned address");
            mapper(addr)
        };
        // Several shards' worth of traces (shards hold >= 64 items), so
        // the bomb's shard is a strict subset of the input.
        let mut traces = Vec::new();
        for _ in 0..5 {
            traces.extend(workload());
        }
        let n_clean = traces.len();
        let mut t = mpls_trace(66, Ipv4Addr::new(192, 0, 2, 99), [1, 2], [2, 3]);
        t.hops[0] = Hop::responsive(1, bomb);
        traces.insert(traces.len() / 2, t);

        let keys = Pipeline::snapshot_keys(&traces);
        let pipeline = Pipeline::default();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = run_at(&pipeline, &traces, &volatile_mapper, &keys, 4, None);
        let seq = pipeline.run(&traces, &volatile_mapper, std::slice::from_ref(&keys));
        std::panic::set_hook(prev);

        use crate::quarantine::QuarantineReason;
        let poisoned = out.degraded.quarantined[&QuarantineReason::PoisonedShard];
        assert!(poisoned >= 1, "the bomb trace's shard is quarantined");
        assert!(
            poisoned < traces.len() as u64,
            "only the bomb's shard is quarantined, not the whole run"
        );
        assert_eq!(out.degraded.ingested(), traces.len() as u64);
        assert_eq!(out.degraded.kept, n_clean as u64 + 1 - poisoned);
        assert!(!out.iotps.is_empty(), "surviving shards still classify");
        let seq_poisoned = seq.degraded.quarantined[&QuarantineReason::PoisonedShard];
        assert!(seq_poisoned >= 1 && seq_poisoned < traces.len() as u64);
        assert_eq!(seq.degraded.ingested(), traces.len() as u64);
    }

    #[test]
    fn single_threaded_run_records_no_worker_rows() {
        let traces = workload();
        let keys = Pipeline::snapshot_keys(&traces);
        let rec = lpr_obs::Recorder::new("seq");
        run_at(&Pipeline::default(), &traces, &mapper, &keys, 1, Some(&rec));
        let telemetry = rec.finish();
        assert_eq!(telemetry.threads, 1);
        assert!(telemetry.worker_stages("Ingest").is_empty());
        assert!(telemetry.worker_stages("Classification").is_empty());
    }
}
