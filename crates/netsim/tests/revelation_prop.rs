//! Property tests for the revelation oracle: the dataplane records
//! every hidden traversal that actually happens, and the revelation
//! phase must account for each of them — either by revealing the
//! tunnel or by attributing the miss to an explicitly enumerated
//! non-revealable cause. Revealed interiors must lie on the IGP
//! shortest-path DAG the tunnel's LSP follows (never fabricated).

use lpr_core::lsp::Asn;
use lpr_core::reveal::{RevealedTunnel, RevelationStatus};
use netsim::internet::TunnelVisibility;
use netsim::{
    on_shortest_dag, oracle_traversals, AsSpec, Internet, MplsConfig, OracleTraversal, Peering,
    ProbeOptions, Prober, RevelationOptions, Topology, TopologyParams, Vendor, VisibilityMix,
};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// src stub — transit (with ECMP diamonds) — two dst stubs, the transit
/// AS's LDP tunnels drawn from `mix`. Clean measurement conditions: no
/// anonymity, no faults — every miss must be structural.
fn build(mix: VisibilityMix) -> Internet {
    let mut cfg = MplsConfig::ldp_default();
    cfg.visibility = mix;
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

fn campaign_endpoints(net: &Internet) -> (Vec<Ipv4Addr>, Vec<Ipv4Addr>) {
    let vps: Vec<Ipv4Addr> = net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
    let dsts = net.topo.destinations(1);
    (vps, dsts)
}

fn reveal(net: &Internet) -> (Vec<RevealedTunnel>, Vec<OracleTraversal>) {
    let prober = Prober::new(net, ProbeOptions::default());
    let (vps, dsts) = campaign_endpoints(net);
    let evidence =
        prober.campaign(&vps, &dsts, 1, Some(&RevelationOptions::default())).evidence;
    let oracle = oracle_traversals(&prober, &vps, &dsts);
    (evidence, oracle)
}

/// The property: every oracle-known traversal is covered by evidence,
/// or its absence is one of the enumerated structural causes.
fn assert_oracle_accounted(evidence: &[RevealedTunnel], oracle: &[OracleTraversal]) {
    let by_pair: BTreeMap<(Ipv4Addr, Ipv4Addr), &RevealedTunnel> =
        evidence.iter().map(|e| ((e.ingress, e.egress), e)).collect();
    assert!(!oracle.is_empty(), "the mix produced no hidden traversals at all");
    for t in oracle {
        // Enumerated cause: the walk ended inside the tunnel, so the
        // trace never showed the egress — no artifact is possible.
        let Some(egress_addr) = t.egress_addr else { continue };
        // Enumerated cause: adjacent LERs. An implicit or opaque
        // tunnel with no interior LSR leaves no artifact (nothing
        // u-turns, nothing quotes an opaque stack); only invisible
        // tunnels still betray themselves (the duplicate-IP quirk
        // comes from the egress itself).
        if t.interior.is_empty() && t.visibility != TunnelVisibility::Invisible {
            continue;
        }
        let ev = by_pair.get(&(t.ingress_addr, egress_addr)).unwrap_or_else(|| {
            panic!(
                "oracle tunnel <{} → {}> ({:?}) left no evidence",
                t.ingress_addr, egress_addr, t.visibility
            )
        });
        // Every outcome is an enumerated variant by construction; under
        // clean conditions the only acceptable ones are actual
        // revelation or a structural cause that does not depend on
        // measurement noise.
        assert!(
            matches!(
                ev.status,
                RevelationStatus::Revealed
                    | RevelationStatus::IngressOffPath
                    | RevelationStatus::InfraTunneled
            ),
            "clean conditions, but <{} → {}> ended {:?}",
            t.ingress_addr,
            egress_addr,
            ev.status,
        );
    }
}

/// The subset property: every address a revelation reports sits on the
/// IGP shortest-path DAG between the tunnel's LERs, inside their AS —
/// i.e. on some equal-cost path of the LSP the oracle knows.
fn assert_paths_on_lsp(net: &Internet, evidence: &[RevealedTunnel]) {
    for ev in evidence {
        if ev.status != RevelationStatus::Revealed {
            assert!(ev.paths.is_empty(), "paths without Revealed status");
            continue;
        }
        let ingress = net.infra_attachment(ev.ingress).expect("revealed ingress resolves");
        let egress = net.infra_attachment(ev.egress).expect("revealed egress resolves");
        assert_eq!(ingress.as_id, egress.as_id, "LERs of one tunnel share an AS");
        for path in &ev.paths {
            for &addr in path {
                let at = net.infra_attachment(addr).expect("interior addr resolves");
                assert_eq!(at.as_id, ingress.as_id, "interior {addr} outside the AS");
                assert!(
                    on_shortest_dag(net, at.as_id, ingress.router, egress.router, at.router),
                    "revealed interior {addr} off the shortest-path DAG of <{} → {}>",
                    ev.ingress,
                    ev.egress,
                );
            }
        }
    }
}

fn kind_revealed(evidence: &[RevealedTunnel], kind: lpr_core::reveal::TriggerKind) -> usize {
    evidence
        .iter()
        .filter(|e| e.kind == kind && e.status == RevelationStatus::Revealed)
        .count()
}

#[test]
fn invisible_tunnels_are_accounted_and_revealed() {
    let net = build(VisibilityMix { explicit: 0.0, implicit: 0.0, invisible: 1.0, opaque: 0.0 });
    let (evidence, oracle) = reveal(&net);
    assert_oracle_accounted(&evidence, &oracle);
    assert_paths_on_lsp(&net, &evidence);
    assert!(
        kind_revealed(&evidence, lpr_core::reveal::TriggerKind::DupIp) > 0,
        "no invisible tunnel was revealed via its duplicate-IP artifact: {evidence:?}"
    );
}

#[test]
fn implicit_tunnels_are_accounted_and_revealed() {
    let net = build(VisibilityMix { explicit: 0.0, implicit: 1.0, invisible: 0.0, opaque: 0.0 });
    let (evidence, oracle) = reveal(&net);
    assert_oracle_accounted(&evidence, &oracle);
    assert_paths_on_lsp(&net, &evidence);
    assert!(
        kind_revealed(&evidence, lpr_core::reveal::TriggerKind::Uturn) > 0,
        "no implicit tunnel was revealed via its u-turn RTT artifact: {evidence:?}"
    );
}

#[test]
fn opaque_tunnels_are_accounted_and_revealed() {
    let net = build(VisibilityMix { explicit: 0.0, implicit: 0.0, invisible: 0.0, opaque: 1.0 });
    let (evidence, oracle) = reveal(&net);
    assert_oracle_accounted(&evidence, &oracle);
    assert_paths_on_lsp(&net, &evidence);
    assert!(
        kind_revealed(&evidence, lpr_core::reveal::TriggerKind::OpaqueStack) > 0,
        "no opaque tunnel was revealed via its one-hop-stack artifact: {evidence:?}"
    );
}

#[test]
fn mixed_visibility_campaign_is_fully_accounted() {
    // Hidden kinds only: with a handful of LER pairs, an explicit
    // share could absorb every pair and leave the property vacuous.
    let net = build(VisibilityMix { explicit: 0.0, implicit: 0.4, invisible: 0.3, opaque: 0.3 });
    let (evidence, oracle) = reveal(&net);
    assert_oracle_accounted(&evidence, &oracle);
    assert_paths_on_lsp(&net, &evidence);
}

#[test]
fn infra_in_fec_is_attributed_not_probed() {
    let mut cfg = MplsConfig::ldp_default();
    cfg.visibility = VisibilityMix { explicit: 0.0, implicit: 0.0, invisible: 1.0, opaque: 0.0 };
    cfg.infra_in_fec = true;
    let specs = vec![
        AsSpec::transit(
            65000,
            "transit",
            Vendor::Juniper,
            TopologyParams { core_routers: 8, border_routers: 3, ..Default::default() },
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
    let net = Internet::new(topo, &configs);
    let (evidence, oracle) = reveal(&net);
    assert!(!oracle.is_empty());
    assert!(!evidence.is_empty(), "triggers still fire; only the re-probe is doomed");
    for ev in &evidence {
        assert_eq!(
            ev.status,
            RevelationStatus::InfraTunneled,
            "an infra-tunneling AS cannot be DPR-probed: {ev:?}"
        );
        assert_eq!(ev.probes, 0, "attributed candidates must not spend probes");
    }
}

#[test]
fn budget_exhaustion_is_attributed_in_order() {
    let net = build(VisibilityMix { explicit: 0.0, implicit: 0.0, invisible: 1.0, opaque: 0.0 });
    let prober = Prober::new(&net, ProbeOptions::default());
    let (vps, dsts) = campaign_endpoints(&net);
    let unlimited = RevelationOptions::default();
    let full = prober.campaign(&vps, &dsts, 1, Some(&unlimited)).evidence;
    let probeable = full.iter().filter(|e| e.status != RevelationStatus::InfraTunneled).count();
    assert!(probeable > 1, "need at least two candidates to cut between");
    // Budget for exactly one candidate's worst case.
    let one = RevelationOptions {
        flows: unlimited.flows,
        max_probes: (unlimited.flows as u64) * (ProbeOptions::default().max_ttl as u64),
    };
    let out = prober.campaign(&vps, &dsts, 1, Some(&one));
    let (budget, capped) = (out.budget, out.evidence);
    let exhausted =
        capped.iter().filter(|e| e.status == RevelationStatus::BudgetExhausted).count();
    assert_eq!(exhausted, probeable - 1, "all but the first candidate must be cut: {capped:?}");
    for ev in capped.iter().filter(|e| e.status == RevelationStatus::BudgetExhausted) {
        assert_eq!(ev.probes, 0);
    }
    assert!(budget.revelation_probes <= one.max_probes, "budget overrun");
}

#[test]
fn legacy_ttl_propagate_off_stays_artifact_free() {
    // The pre-revelation invisible knob: no artifact is emitted, so no
    // trigger may fire — the golden campaign shape is preserved and the
    // oracle attributes the miss to the legacy configuration.
    let mut cfg = MplsConfig::ldp_default();
    cfg.ttl_propagate = false;
    let specs = vec![
        AsSpec::transit(
            65000,
            "transit",
            Vendor::Juniper,
            TopologyParams { core_routers: 8, border_routers: 3, ..Default::default() },
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
    let net = Internet::new(topo, &configs);
    let (evidence, oracle) = reveal(&net);
    assert!(!oracle.is_empty(), "legacy invisible traversals are still oracle-known");
    assert!(oracle.iter().all(|t| t.visibility == TunnelVisibility::Invisible));
    assert!(
        !net.config(oracle[0].as_id).ttl_propagate,
        "the enumerated cause: the AS runs the legacy artifact-free knob"
    );
    assert!(evidence.is_empty(), "no artifact, no trigger: {evidence:?}");
}
