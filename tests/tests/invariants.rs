//! Property-based invariants that hold across the whole stack:
//! topology generation → control plane → data plane → traceroute →
//! LPR. These encode the paper's core reasoning as executable laws.

use integration::fixtures::{small_internet, TRANSIT};
use lpr_chaos::FaultPlan;
use lpr_core::prelude::*;
use netsim::{
    MplsConfig, ProbeOptions, Prober, ProbingStrategy, RevelationOptions, TePathMode,
    TopologyParams, VisibilityMix,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

fn run_lpr(net: &netsim::Internet) -> PipelineOutput {
    let prober = Prober::new(net, ProbeOptions::default());
    let vps: Vec<Ipv4Addr> = net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
    let dsts = net.topo.destinations(1);
    let traces = prober.campaign(&vps, &dsts, 1, None).traces;
    let rib = net.topo.rib();
    let keys = Pipeline::snapshot_keys(&traces);
    Pipeline::default().run(&traces, &rib, &[keys.clone(), keys])
}

fn arb_params() -> impl Strategy<Value = TopologyParams> {
    (3usize..9, 2usize..5, 0usize..3, 0usize..3, 0usize..3, any::<bool>()).prop_map(
        |(core, borders, diamonds, unbalanced, bundles, edges)| TopologyParams {
            core_routers: core,
            border_routers: borders,
            ecmp_diamonds: diamonds,
            unbalanced_diamonds: unbalanced,
            parallel_bundles: bundles,
            diamonds_at_edges: edges,
            parallel_width: 3,
            uniform_cost: 10,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// LDP's per-router label scope means a pure-LDP network can NEVER
    /// be classified Multi-FEC — this is the heart of the LPR
    /// inference (paper §3.2).
    #[test]
    fn pure_ldp_is_never_multi_fec(params in arb_params()) {
        let net = small_internet(params, MplsConfig::ldp_default());
        let out = run_lpr(&net);
        let c = out.class_counts_for(TRANSIT);
        prop_assert_eq!(c.multi_fec, 0, "{:?}", c);
    }

    /// Multi-LSP RSVP-TE pairs, conversely, must never be mistaken for
    /// ECMP: with a diversity-free chain the transit classifies as
    /// Multi-FEC or Mono-LSP only.
    #[test]
    fn te_on_chain_is_multi_fec_or_mono_lsp(
        core in 3usize..9,
        borders in 2usize..5,
        lsps in 2usize..5,
    ) {
        let params = TopologyParams {
            core_routers: core,
            border_routers: borders,
            ..TopologyParams::default()
        };
        let net = small_internet(params, MplsConfig::with_te(1.0, lsps, TePathMode::SamePath));
        let out = run_lpr(&net);
        let c = out.class_counts_for(TRANSIT);
        prop_assert_eq!(c.mono_fec(), 0, "{:?}", c);
        prop_assert_eq!(c.unclassified, 0, "{:?}", c);
    }

    /// Campaigns are Paris-stable and thread-invariant: whatever the
    /// topology, probing strategy, fault rate and revelation setting,
    /// the whole campaign output at any thread count equals the 1-thread
    /// run, and a stochastic strategy emits exactly the exhaustive
    /// campaign's trace for every pair it probes.
    #[test]
    fn campaigns_are_deterministic(
        params in arb_params(),
        te in any::<bool>(),
        strategy in any::<prop::sample::Index>(),
        rate in 0.0f64..0.3,
        fault_seed in any::<u64>(),
        reveal in any::<bool>(),
        threads in any::<prop::sample::Index>(),
    ) {
        let mut cfg = if te {
            MplsConfig::with_te(0.5, 2, TePathMode::SamePath)
        } else {
            MplsConfig::ldp_default()
        };
        if reveal {
            // Hide part of the deployment, so revelation has triggers
            // to chase.
            cfg.visibility =
                VisibilityMix { explicit: 0.0, implicit: 0.4, invisible: 0.3, opaque: 0.3 };
        }
        let net = small_internet(params, cfg);
        let strategies = [ProbingStrategy::Exhaustive, ProbingStrategy::MdaLite, ProbingStrategy::Mda];
        let probing = strategies[strategy.index(strategies.len())];
        let threads = [2usize, 3, 8][threads.index(3)];
        let reveal_opts = RevelationOptions::default();
        let reveal = reveal.then_some(&reveal_opts);
        let vps: Vec<Ipv4Addr> = net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
        let dsts = net.topo.destinations(16);
        let campaign = |probing, threads, reveal| {
            Prober::new(&net, ProbeOptions { probing, ..ProbeOptions::default() })
                .with_faults(FaultPlan::uniform(fault_seed, rate))
                .campaign(&vps, &dsts, threads, reveal)
        };
        let seq = campaign(probing, 1, reveal);
        let par = campaign(probing, threads, reveal);
        prop_assert_eq!(&par.traces, &seq.traces, "traces at {} threads", threads);
        prop_assert_eq!(par.budget, seq.budget, "budget at {} threads", threads);
        prop_assert_eq!(&par.evidence, &seq.evidence, "evidence at {} threads", threads);
        prop_assert_eq!(par.faults, seq.faults, "faults at {} threads", threads);
        if probing != ProbingStrategy::Exhaustive {
            let exhaustive = campaign(ProbingStrategy::Exhaustive, 1, None);
            let by_pair: BTreeMap<_, _> =
                exhaustive.traces.iter().map(|t| ((t.src, t.dst), t)).collect();
            for t in &seq.traces {
                prop_assert_eq!(by_pair[&(t.src, t.dst)], t, "{:?} trace differs", probing);
            }
        }
    }

    /// Every trace reaches its destination on a loss-free network, and
    /// every reply address is attributable (RIB-complete).
    #[test]
    fn traces_complete_and_attributable(params in arb_params()) {
        let net = small_internet(params, MplsConfig::ldp_default());
        let prober = Prober::new(&net, ProbeOptions::default());
        let vps: Vec<Ipv4Addr> = net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
        let dsts = net.topo.destinations(1);
        let rib = net.topo.rib();
        for t in prober.campaign(&vps, &dsts, 1, None).traces {
            prop_assert!(t.reached, "{} -> {} did not complete", t.src, t.dst);
            for h in t.responsive_hops() {
                prop_assert!(rib.lookup(h.addr.unwrap()).is_some());
            }
        }
    }

    /// warts round-trip is lossless for every simulated campaign.
    #[test]
    fn warts_roundtrip_is_lossless(params in arb_params()) {
        let net = small_internet(params, MplsConfig::with_te(0.5, 2, TePathMode::SamePath));
        let prober = Prober::new(&net, ProbeOptions::default());
        let vps: Vec<Ipv4Addr> = net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
        let dsts = net.topo.destinations(1);
        let traces = prober.campaign(&vps, &dsts, 1, None).traces;

        let mut w = warts::WartsWriter::new();
        let list = w.list(1, "prop");
        let cycle = w.cycle_start(list, 1, 0);
        for t in &traces {
            w.trace(&warts::trace_to_record(t, list, cycle)).unwrap();
        }
        w.cycle_stop(cycle, 1);
        let bytes = w.into_bytes();
        let parsed: Vec<_> = warts::WartsReader::new(&bytes)
            .traces()
            .unwrap()
            .iter()
            .filter_map(|r| warts::trace_to_core(r).unwrap())
            .collect();
        prop_assert_eq!(parsed, traces);
    }

    /// The filter pipeline is monotone: every stage only removes LSPs.
    #[test]
    fn filters_are_monotone(params in arb_params(), anon in 0.0f64..0.2) {
        let mut cfg = MplsConfig::with_te(0.3, 2, TePathMode::SamePath);
        cfg.anonymous_rate = anon;
        let net = small_internet(params, cfg);
        let out = run_lpr(&net);
        let mut prev = out.report.input;
        for stage in FilterStage::ALL {
            let cur = out.report.remaining[&stage];
            prop_assert!(cur <= prev, "{:?}: {} > {}", stage, cur, prev);
            prev = cur;
        }
    }

    /// Classification is insensitive to trace order.
    #[test]
    fn classification_is_order_independent(params in arb_params(), seed in any::<u64>()) {
        let net = small_internet(params, MplsConfig::with_te(0.5, 2, TePathMode::SamePath));
        let prober = Prober::new(&net, ProbeOptions::default());
        let vps: Vec<Ipv4Addr> = net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
        let dsts = net.topo.destinations(1);
        let mut traces = prober.campaign(&vps, &dsts, 1, None).traces;
        let rib = net.topo.rib();
        let keys = Pipeline::snapshot_keys(&traces);
        let a = Pipeline::default().run(&traces, &rib, std::slice::from_ref(&keys));

        // Deterministic shuffle driven by the seed.
        let mut s = seed;
        for i in (1..traces.len()).rev() {
            s = netsim::internet::splitmix64(s);
            traces.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let b = Pipeline::default().run(&traces, &rib, &[keys]);
        prop_assert_eq!(a.class_counts(), b.class_counts());
    }
}
