//! Window-eviction equivalence: `IngestState::evict_before(cycle)`
//! followed by re-merging the surviving cycles must be byte-identical
//! to rebuilding the state from scratch over only the surviving
//! traces — at every ingest thread count.
//!
//! This is the contract `lpr serve`'s reconcile loop leans on: aging a
//! cycle out of the windowed state is *exactly* a from-scratch ingest
//! of the remaining window, without paying for one.

use lpr_core::lsp::Asn;
use lpr_core::pipeline::{IngestState, Pipeline};
use lpr_core::prelude::*;
use lpr_core::trace::Hop;
use proptest::prelude::*;
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

/// A trace crossing AS`asn`'s two-LSR tunnel towards `dst`; `broken`
/// duplicates a reply so the trace is quarantined, exercising the
/// degraded accounting through eviction too.
fn mpls_trace(asn: u8, dst_octet: u8, label: u32, broken: bool) -> Trace {
    let dst = if dst_octet.is_multiple_of(2) {
        Ipv4Addr::new(192, 0, 2, dst_octet)
    } else {
        Ipv4Addr::new(198, 51, 100, dst_octet)
    };
    let mut t = Trace::new(Ipv4Addr::new(203, 0, 113, 5), dst);
    t.push_hop(Hop::responsive(1, ip(asn, 1)));
    t.push_hop(Hop::labelled(2, ip(asn, 2), &[Lse::transit(label, 254)]));
    t.push_hop(Hop::labelled(3, ip(asn, 3), &[Lse::transit(label + 100, 253)]));
    t.push_hop(Hop::responsive(4, ip(asn, 9)));
    t.push_hop(Hop::responsive(5, dst));
    t.reached = true;
    if broken {
        t.hops.push(t.hops[2].clone());
    }
    t
}

/// One cycle's worth of traces, derived deterministically from the
/// cycle's spec.
fn cycle_traces(spec: &CycleSpec) -> Vec<Trace> {
    let mut traces = Vec::new();
    for i in 0..spec.traces {
        let asn = 1 + ((spec.seed + i as u64) % 5) as u8;
        let dst = 10 + ((spec.seed / 3 + i as u64) % 40) as u8;
        let label = 100 + ((spec.seed + 7 * i as u64) % 9) as u32;
        let broken = spec.break_every != 0 && i % spec.break_every == 0;
        traces.push(mpls_trace(asn, dst, label, broken));
    }
    traces
}

#[derive(Clone, Debug)]
struct CycleSpec {
    seed: u64,
    traces: usize,
    break_every: usize,
}

/// Ingests one cycle's traces at the given thread count, producing the
/// tagged [`IngestState`] the reconcile loop would merge.
fn ingest_cycle(traces: &[Trace], cycle: u64, threads: usize) -> IngestState {
    let mut state =
        IngestState::from_traces(traces, &mapper, None, lpr_par::ShardOptions::new(threads));
    state.tag_cycle(cycle);
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn evict_then_remerge_equals_rebuild_from_scratch(
        seeds in proptest::collection::vec(0u64..10_000, 2..6),
        sizes in proptest::collection::vec(1usize..40, 2..6),
        cutoff in 0u64..6,
    ) {
        let n_cycles = seeds.len().min(sizes.len());
        let specs: Vec<CycleSpec> = (0..n_cycles)
            .map(|i| CycleSpec {
                seed: seeds[i],
                traces: sizes[i],
                break_every: if seeds[i] % 3 == 0 { 4 } else { 0 },
            })
            .collect();
        let cutoff = cutoff.min(n_cycles as u64);

        for threads in [1usize, 2, 4, 8] {
            // Windowed path: merge every cycle, then age out the old ones.
            let mut windowed = IngestState::default();
            for (cycle, spec) in specs.iter().enumerate() {
                let traces = cycle_traces(spec);
                windowed.merge(ingest_cycle(&traces, cycle as u64, threads));
            }
            let evicted = windowed.evict_before(cutoff);
            prop_assert_eq!(
                evicted.len() as u64,
                cutoff,
                "one evicted segment per aged-out cycle (threads={})", threads
            );

            // From-scratch path: ingest only the surviving cycles.
            let mut rebuilt = IngestState::default();
            for (cycle, spec) in specs.iter().enumerate().skip(cutoff as usize) {
                let traces = cycle_traces(spec);
                rebuilt.merge(ingest_cycle(&traces, cycle as u64, threads));
            }

            // Byte-identical state...
            prop_assert_eq!(&windowed, &rebuilt, "threads={}", threads);

            // ...and byte-identical pipeline output downstream.
            let pipeline = Pipeline::default();
            let out_windowed = pipeline.finish_stages(
                windowed.clone(),
                &[],
                None,
                lpr_par::ShardOptions::new(threads),
            );
            let out_rebuilt = pipeline.finish_stages(
                rebuilt,
                &[],
                None,
                lpr_par::ShardOptions::new(1),
            );
            prop_assert_eq!(out_windowed, out_rebuilt, "threads={}", threads);
        }
    }

    #[test]
    fn eviction_accounting_reconciles(
        seeds in proptest::collection::vec(0u64..10_000, 3..5),
    ) {
        let specs: Vec<CycleSpec> = seeds
            .iter()
            .map(|&seed| CycleSpec { seed, traces: 12, break_every: 3 })
            .collect();
        let mut state = IngestState::default();
        for (cycle, spec) in specs.iter().enumerate() {
            state.merge(ingest_cycle(&cycle_traces(spec), cycle as u64, 2));
        }
        let total_before = state.traces_in;
        let evicted = state.evict_before(1);
        let gone: u64 = evicted.iter().map(|s| s.traces_in).sum();
        prop_assert_eq!(state.traces_in + gone, total_before);
        prop_assert_eq!(state.cycles(), (1..specs.len() as u64).collect::<Vec<_>>());
        // Kept + quarantined still reconciles with ingested post-evict.
        prop_assert_eq!(
            state.degraded.kept + state.degraded.quarantined.values().sum::<u64>(),
            state.traces_in
        );
    }
}
