//! Property tests for the pipeline's ingest producers: for *any*
//! random trace set, the sharded producer at *any* thread count and the
//! streaming [`CycleAccumulator`] fed trace by trace must both finish to
//! output byte-identical to [`Pipeline::run`], and the per-worker
//! telemetry rows must sum-reconcile with the aggregate stage rows.

use lpr_core::filter::FilterStage;
use lpr_core::label::Lse;
use lpr_core::lsp::Asn;
use lpr_core::pipeline::{IngestState, Pipeline};
use lpr_core::stream::CycleAccumulator;
use lpr_core::trace::{Hop, Trace};
use lpr_par::ShardOptions;
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn ip(asn: u8, o: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, asn, 0, o)
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

prop_compose! {
    /// One random trace. Most are complete MPLS crossings of a small AS
    /// pool (so IOTPs collide and TransitDiversity has work to do);
    /// some are label-free, truncated before the post-tunnel hop, or
    /// unreached, so every filter stage sees traffic.
    fn arb_trace()(
        asn in 1u8..=6,
        kind in 0u8..8,
        tunnel_len in 1usize..4,
        label in 16u32..22,
        lsr in 2u8..6,
        reached in any::<bool>(),
        dst_net in 0u8..2,
        dst_host in 0u8..12,
    ) -> Trace {
        let dst = if dst_net == 0 {
            Ipv4Addr::new(192, 0, 2, 10 + dst_host)
        } else {
            Ipv4Addr::new(198, 51, 100, 10 + dst_host)
        };
        let mut t = Trace::new(Ipv4Addr::new(203, 0, 113, 5), dst);
        t.push_hop(Hop::responsive(1, ip(asn, 1)));
        let mut ttl = 2u8;
        if kind != 0 {
            // An MPLS tunnel of `tunnel_len` LSRs.
            for i in 0..tunnel_len {
                t.push_hop(Hop::labelled(
                    ttl,
                    ip(asn, lsr + i as u8),
                    &[Lse::transit(label + i as u32, 254 - i as u8)],
                ));
                ttl += 1;
            }
        }
        if kind != 1 {
            // The post-tunnel hop; omitting it (kind == 1) feeds the
            // IncompleteLsp filter.
            t.push_hop(Hop::responsive(ttl, ip(asn, 9)));
            ttl += 1;
        }
        t.push_hop(Hop::responsive(ttl, dst));
        t.reached = reached || kind >= 2;
        t
    }
}

fn arb_traces() -> impl Strategy<Value = Vec<Trace>> {
    // Up to ~2.5 shards at the default 64-trace shard floor, so runs
    // cross the inline/parallel and single-/multi-shard boundaries.
    proptest::collection::vec(arb_trace(), 0..160)
}

fn remaining(out: &lpr_core::pipeline::PipelineOutput, stage: FilterStage) -> u64 {
    out.report.remaining.get(&stage).copied().unwrap_or(0) as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn parallel_run_matches_sequential_for_any_thread_count(
        primary in arb_traces(),
        future in arb_traces(),
    ) {
        let keys = Pipeline::snapshot_keys(&future);
        let pipeline = Pipeline::default();
        let future = std::slice::from_ref(&keys);
        let seq = pipeline.run(&primary, &mapper, future);
        for threads in 1usize..=8 {
            let opts = ShardOptions::new(threads);
            let ingest = IngestState::from_traces(&primary, &mapper, None, opts);
            let par = pipeline.finish_stages(ingest, future, None, opts);
            prop_assert_eq!(&par, &seq, "threads={}", threads);
        }

        // The streaming producer: one accumulator, fed trace by trace.
        let mut acc = CycleAccumulator::new(&mapper);
        for trace in &primary {
            acc.push_trace(trace);
        }
        let one = ShardOptions::new(1);
        let streamed = pipeline.finish_stages(acc.into_state(), future, None, one);
        prop_assert_eq!(&streamed, &seq, "streaming accumulator");
    }

    #[test]
    fn parallel_snapshot_keys_match_sequential(traces in arb_traces()) {
        let seq = Pipeline::snapshot_keys(&traces);
        for threads in 1usize..=8 {
            prop_assert_eq!(
                Pipeline::snapshot_keys_par(&traces, threads),
                seq.clone(),
                "threads={}",
                threads
            );
        }
    }

    #[test]
    fn worker_telemetry_sum_reconciles_with_aggregates(
        primary in arb_traces(),
        future in arb_traces(),
        threads in 2usize..=8,
    ) {
        let keys = Pipeline::snapshot_keys(&future);
        let pipeline = Pipeline::default();
        let rec = lpr_obs::Recorder::new("par-prop");
        let opts = ShardOptions::new(threads);
        let ingest = IngestState::from_traces(&primary, &mapper, Some(&rec), opts);
        let out = pipeline.finish_stages(ingest, std::slice::from_ref(&keys), Some(&rec), opts);
        let telemetry = rec.finish();
        prop_assert_eq!(telemetry.threads, threads as u64);

        let ingest = telemetry.worker_stages("Ingest");
        prop_assert_eq!(
            ingest.iter().map(|s| s.input).sum::<u64>(),
            primary.len() as u64,
            "worker ingest inputs must cover every trace"
        );
        prop_assert_eq!(
            ingest.iter().map(|s| s.output).sum::<u64>(),
            remaining(&out, FilterStage::TargetAs),
            "worker ingest outputs must sum to the TargetAS survivors"
        );

        let persist = telemetry.worker_stages("Persistence");
        prop_assert_eq!(
            persist.iter().map(|s| s.input).sum::<u64>(),
            remaining(&out, FilterStage::TransitDiversity),
            "worker persistence inputs must sum to the TransitDiversity survivors"
        );
        prop_assert_eq!(
            persist.iter().map(|s| s.output).sum::<u64>(),
            remaining(&out, FilterStage::Persistence),
            "worker persistence outputs must sum to the Persistence survivors"
        );

        let classify = telemetry.worker_stages("Classification");
        prop_assert_eq!(
            classify.iter().map(|s| s.output).sum::<u64>(),
            out.iotps.len() as u64,
            "worker classification outputs must sum to the classified IOTPs"
        );
    }
}
