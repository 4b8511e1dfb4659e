//! Cross-thread determinism of the revelation campaign, and its
//! behaviour under injected faults: at any thread count the traces,
//! the probe budget, the revealed evidence and the downstream
//! classifier output must be byte-identical — with and without chaos —
//! and faults may only degrade the result towards Unclassified, never
//! fabricate evidence.

use lpr_chaos::FaultPlan;
use lpr_core::lsp::Asn;
use lpr_core::pipeline::Pipeline;
use lpr_core::reveal::{apply_revelations, RevealedTunnel, RevelationStatus};
use netsim::{
    AsSpec, Internet, MplsConfig, Peering, ProbeOptions, Prober, RevelationOptions, Topology,
    TopologyParams, Vendor, VisibilityMix,
};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

fn build() -> Internet {
    let mut cfg = MplsConfig::ldp_default();
    cfg.visibility =
        VisibilityMix { explicit: 0.2, implicit: 0.3, invisible: 0.3, opaque: 0.2 };
    let specs = vec![
        AsSpec::transit(
            65000,
            "transit",
            Vendor::Juniper,
            TopologyParams {
                core_routers: 8,
                border_routers: 3,
                ecmp_diamonds: 2,
                ..Default::default()
            },
        ),
        AsSpec::stub(100, "src", 0, 2),
        AsSpec::stub(200, "dst-a", 4, 0),
        AsSpec::stub(201, "dst-b", 4, 0),
    ];
    let peerings = vec![
        Peering::new(Asn(100), Asn(65000)).at_b(0),
        Peering::new(Asn(65000), Asn(200)).at_a(1),
        Peering::new(Asn(65000), Asn(201)).at_a(2),
    ];
    let topo = Topology::build_with_peerings(&specs, &peerings);
    let mut configs = BTreeMap::new();
    configs.insert(Asn(65000), cfg);
    Internet::new(topo, &configs)
}

fn endpoints(net: &Internet) -> (Vec<Ipv4Addr>, Vec<Ipv4Addr>) {
    let vps: Vec<Ipv4Addr> = net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
    let dsts = net.topo.destinations(1);
    (vps, dsts)
}

/// A chaos plan exercising the revelation-specific faults alongside
/// plain probe loss. Duplication/reordering faults are left quiet here:
/// they rebuild hop lists, which is quarantine territory, not
/// revelation territory.
fn revelation_plan() -> FaultPlan {
    let mut plan = FaultPlan::none(42);
    plan.probe_loss = 0.05;
    plan.trigger_loss = 0.3;
    plan.dpr_rate_limit = 0.3;
    plan
}

fn run_full(
    net: &Internet,
    faults: Option<FaultPlan>,
    threads: usize,
) -> (
    Vec<lpr_core::trace::Trace>,
    netsim::ProbeBudget,
    Vec<RevealedTunnel>,
    lpr_core::pipeline::PipelineOutput,
) {
    let mut prober = Prober::new(net, ProbeOptions::default());
    if let Some(plan) = faults {
        prober = prober.with_faults(plan);
    }
    let (vps, dsts) = endpoints(net);
    let netsim::CampaignOutput { traces, budget, evidence, .. } =
        prober.campaign(&vps, &dsts, threads, Some(&RevelationOptions::default()));
    let rib = net.topo.rib();
    let keys = Pipeline::snapshot_keys(&traces);
    let mut out = Pipeline::default().run(&traces, &rib, &[keys.clone(), keys]);
    apply_revelations(&mut out, &evidence, None);
    (traces, budget, evidence, out)
}

#[test]
fn revelation_campaign_is_thread_invariant() {
    let net = build();
    let (seq_traces, seq_budget, seq_evidence, seq_out) = run_full(&net, None, 1);
    assert!(
        seq_evidence.iter().any(|e| e.status == RevelationStatus::Revealed),
        "fixture reveals nothing; the determinism check would be vacuous"
    );
    for threads in [2usize, 4, 8] {
        let (traces, budget, evidence, out) = run_full(&net, None, threads);
        assert_eq!(traces, seq_traces, "traces diverged at {threads} threads");
        assert_eq!(budget, seq_budget, "budget diverged at {threads} threads");
        assert_eq!(evidence, seq_evidence, "evidence diverged at {threads} threads");
        assert_eq!(out, seq_out, "classifier output diverged at {threads} threads");
    }
}

#[test]
fn revelation_campaign_is_thread_invariant_under_chaos() {
    let net = build();
    let (seq_traces, seq_budget, seq_evidence, seq_out) =
        run_full(&net, Some(revelation_plan()), 1);
    for threads in [2usize, 4, 8] {
        let (traces, budget, evidence, out) = run_full(&net, Some(revelation_plan()), threads);
        assert_eq!(traces, seq_traces, "chaos traces diverged at {threads} threads");
        assert_eq!(budget, seq_budget, "chaos budget diverged at {threads} threads");
        assert_eq!(evidence, seq_evidence, "chaos evidence diverged at {threads} threads");
        assert_eq!(out, seq_out, "chaos classifier output diverged at {threads} threads");
    }
}

#[test]
fn chaos_degrades_unclassified_ward_without_fabrication() {
    let net = build();
    let (_, clean_budget, clean_evidence, clean_out) = run_full(&net, None, 1);
    let (_, chaos_budget, chaos_evidence, chaos_out) =
        run_full(&net, Some(revelation_plan()), 1);

    // Lost trigger replies and rate-limited DPR walks only remove
    // information: the faulted candidate set is a subset of the clean
    // one, and each surviving candidate reveals a subset of its clean
    // paths.
    let clean_by_pair: BTreeMap<(Ipv4Addr, Ipv4Addr), &RevealedTunnel> =
        clean_evidence.iter().map(|e| ((e.ingress, e.egress), e)).collect();
    for ev in &chaos_evidence {
        let clean = clean_by_pair
            .get(&(ev.ingress, ev.egress))
            .unwrap_or_else(|| panic!("chaos fabricated candidate {ev:?}"));
        for path in &ev.paths {
            assert!(
                clean.paths.contains(path),
                "chaos fabricated interior {path:?} for <{} → {}>",
                ev.ingress,
                ev.egress
            );
        }
    }
    assert!(
        chaos_budget.revelation_revealed <= clean_budget.revelation_revealed,
        "chaos revealed more than clean ({} > {})",
        chaos_budget.revelation_revealed,
        clean_budget.revelation_revealed
    );

    // The classifier may only move Unclassified-ward under faults.
    let clean_counts = clean_out.class_counts();
    let chaos_counts = chaos_out.class_counts();
    assert!(
        chaos_counts.unclassified as f64 / chaos_counts.total().max(1) as f64
            >= clean_counts.unclassified as f64 / clean_counts.total().max(1) as f64,
        "chaos must not shrink the Unclassified share: {chaos_counts:?} vs {clean_counts:?}"
    );

    // The plan actually bit: its revelation faults fired.
    let prober = Prober::new(&net, ProbeOptions::default()).with_faults(revelation_plan());
    let (vps, dsts) = endpoints(&net);
    let injected =
        prober.campaign(&vps, &dsts, 1, Some(&RevelationOptions::default())).faults;
    assert!(
        injected.trigger_replies_lost + injected.dpr_rate_limited > 0,
        "the chaos plan's revelation faults never fired: {injected:?}"
    );
}
