//! End-to-end: the LPR pipeline applied to simulated campaigns must
//! recover exactly the path-diversity class each AS was configured
//! with. This is the core soundness check of the whole reproduction:
//! configuration → data plane → traceroute → filters → classification.

use lpr_core::prelude::*;
use netsim::{
    AsSpec, Internet, MplsConfig, Peering, ProbeOptions, Prober, TePathMode, Topology,
    TopologyParams, Vendor,
};
use lpr_core::lsp::Asn;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Builds a three-AS Internet (src stub — transit — dst stubs) with the
/// given transit shape and MPLS behaviour, plus TWO destination stubs
/// behind the same egress so IOTPs pass TransitDiversity.
fn build(params: TopologyParams, cfg: MplsConfig) -> Internet {
    let specs = vec![
        AsSpec::transit(65000, "transit", Vendor::Juniper, params),
        AsSpec::stub(100, "src", 0, 2),
        AsSpec::stub(200, "dst-a", 4, 0),
        AsSpec::stub(201, "dst-b", 4, 0),
    ];
    // Both destination stubs peer with the SAME transit border so
    // transit IOTPs serve two destination ASes.
    let peerings = vec![
        Peering::new(Asn(100), Asn(65000)).at_b(0),
        Peering::new(Asn(65000), Asn(200)).at_a(1),
        Peering::new(Asn(65000), Asn(201)).at_a(1),
    ];
    let topo = Topology::build_with_peerings(&specs, &peerings);
    let mut configs = BTreeMap::new();
    configs.insert(Asn(65000), cfg);
    Internet::new(topo, &configs)
}

fn run_lpr(net: &Internet) -> PipelineOutput {
    let prober = Prober::new(net, ProbeOptions::default());
    let vps: Vec<Ipv4Addr> = net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
    let dsts = net.topo.destinations(1);
    let traces = prober.campaign(&vps, &dsts, 1, None).traces;
    assert!(traces.iter().any(|t| t.has_mpls()), "campaign shows no MPLS at all");
    let rib = net.topo.rib();
    let keys = Pipeline::snapshot_keys(&traces);
    Pipeline::default().run(&traces, &rib, &[keys.clone(), keys])
}

fn transit_counts(out: &PipelineOutput) -> lpr_core::pipeline::ClassCounts {
    out.class_counts_for(Asn(65000))
}

#[test]
fn chain_topology_yields_mono_lsp() {
    let net = build(
        TopologyParams { core_routers: 6, border_routers: 3, ..Default::default() },
        MplsConfig::ldp_default(),
    );
    let out = run_lpr(&net);
    let c = transit_counts(&out);
    assert!(c.total() > 0, "no transit IOTPs classified");
    assert_eq!(c.total(), c.mono_lsp, "chain + LDP must be all Mono-LSP: {c:?}");
}

#[test]
fn diamonds_yield_mono_fec_disjoint() {
    let net = build(
        TopologyParams {
            core_routers: 8,
            border_routers: 3,
            ecmp_diamonds: 4,
            ..Default::default()
        },
        MplsConfig::ldp_default(),
    );
    let out = run_lpr(&net);
    let c = transit_counts(&out);
    assert!(c.total() > 0);
    assert!(c.mono_fec_disjoint > 0, "diamonds must show disjoint-router ECMP: {c:?}");
    assert_eq!(c.multi_fec, 0, "pure LDP must never classify Multi-FEC: {c:?}");
}

#[test]
fn parallel_bundles_yield_mono_fec_parallel_links() {
    let net = build(
        TopologyParams {
            core_routers: 8,
            border_routers: 3,
            parallel_bundles: 4,
            parallel_width: 3,
            ..Default::default()
        },
        MplsConfig::ldp_default(),
    );
    let out = run_lpr(&net);
    let c = transit_counts(&out);
    assert!(c.total() > 0);
    assert!(c.mono_fec_parallel > 0, "bundles must show parallel-links ECMP: {c:?}");
    assert_eq!(c.multi_fec, 0, "pure LDP must never classify Multi-FEC: {c:?}");
}

#[test]
fn rsvp_te_yields_multi_fec_on_same_ip_path() {
    let net = build(
        TopologyParams { core_routers: 8, border_routers: 3, ..Default::default() },
        MplsConfig::with_te(1.0, 3, TePathMode::SamePath),
    );
    let out = run_lpr(&net);
    let c = transit_counts(&out);
    assert!(c.total() > 0);
    assert!(c.multi_fec > 0, "TE pairs must classify Multi-FEC: {c:?}");
    // Same-IP-path TE: the IOTPs are logically wide but balanced.
    for (iotp, cls) in &out.iotps {
        if cls.class == Class::MultiFec {
            let m = lpr_core::metrics::IotpMetrics::of(iotp);
            assert!(m.width > 1);
            assert_eq!(m.symmetry, 0, "same-path TE must be balanced");
        }
    }
}

#[test]
fn partial_te_mixes_classes() {
    // Two source stubs (distinct ingress borders) and two destination
    // border anchors, each serving two stub ASes => 4 transit IOTPs.
    let specs = vec![
        AsSpec::transit(
            65000,
            "transit",
            Vendor::Juniper,
            TopologyParams {
                core_routers: 10,
                border_routers: 4,
                ecmp_diamonds: 3,
                ..Default::default()
            },
        ),
        AsSpec::stub(100, "src-a", 0, 1),
        AsSpec::stub(101, "src-b", 0, 1),
        AsSpec::stub(200, "dst-a", 3, 0),
        AsSpec::stub(201, "dst-b", 3, 0),
        AsSpec::stub(202, "dst-c", 3, 0),
        AsSpec::stub(203, "dst-d", 3, 0),
    ];
    let peerings = vec![
        Peering::new(Asn(100), Asn(65000)).at_b(0),
        Peering::new(Asn(101), Asn(65000)).at_b(1),
        Peering::new(Asn(65000), Asn(200)).at_a(2),
        Peering::new(Asn(65000), Asn(201)).at_a(2),
        Peering::new(Asn(65000), Asn(202)).at_a(3),
        Peering::new(Asn(65000), Asn(203)).at_a(3),
    ];
    let topo = Topology::build_with_peerings(&specs, &peerings);
    let mut configs = BTreeMap::new();
    configs.insert(Asn(65000), MplsConfig::with_te(0.5, 2, TePathMode::SamePath));
    let net = Internet::new(topo, &configs);
    let out = run_lpr(&net);
    let c = transit_counts(&out);
    assert!(c.total() >= 4, "{c:?}");
    assert!(c.multi_fec > 0, "{c:?}");
    assert!(c.mono_fec() + c.mono_lsp > 0, "{c:?}");
}

#[test]
fn filters_account_for_every_lsp() {
    let net = build(
        TopologyParams {
            core_routers: 8,
            border_routers: 3,
            ecmp_diamonds: 2,
            ..Default::default()
        },
        MplsConfig::ldp_default(),
    );
    let out = run_lpr(&net);
    let r = &out.report;
    assert!(r.input > 0);
    let mut prev = r.input;
    for stage in FilterStage::ALL {
        let cur = r.remaining[&stage];
        assert!(cur <= prev, "{stage:?} grew: {cur} > {prev}");
        prev = cur;
    }
    assert!(r.proportion_after(FilterStage::Persistence) > 0.0);
}

#[test]
fn internal_destination_tunnels_are_dropped_by_target_as() {
    // Give the TRANSIT AS its own destination prefixes: tunnels towards
    // them must be filtered by TargetAS, not classified.
    let mut spec = AsSpec::transit(
        65000,
        "transit",
        Vendor::Juniper,
        TopologyParams { core_routers: 6, border_routers: 2, ..Default::default() },
    );
    spec.dest_prefixes = 3;
    let specs = vec![
        spec,
        AsSpec::stub(100, "src", 0, 1),
        AsSpec::stub(200, "dst", 2, 0),
    ];
    let peerings = vec![(Asn(100), Asn(65000), 1), (Asn(65000), Asn(200), 1)];
    let topo = Topology::build(&specs, &peerings);
    let mut configs = BTreeMap::new();
    configs.insert(Asn(65000), MplsConfig::ldp_default());
    let net = Internet::new(topo, &configs);

    let prober = Prober::new(&net, ProbeOptions::default());
    let vps: Vec<Ipv4Addr> = net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
    let dsts = net.topo.destinations(1);
    let traces = prober.campaign(&vps, &dsts, 1, None).traces;
    let rib = net.topo.rib();
    let keys = Pipeline::snapshot_keys(&traces);
    let out = Pipeline::default().run(&traces, &rib, &[keys]);
    let r = &out.report;
    assert!(
        r.remaining[&FilterStage::TargetAs] < r.remaining[&FilterStage::IntraAs],
        "internal-destination tunnels should be dropped by TargetAS: {r:?}"
    );
}

#[test]
fn anonymous_routers_feed_incomplete_filter() {
    let mut cfg = MplsConfig::ldp_default();
    cfg.anonymous_rate = 0.3;
    let net = build(
        TopologyParams { core_routers: 8, border_routers: 3, ..Default::default() },
        cfg,
    );
    let out = run_lpr(&net);
    let r = &out.report;
    assert!(
        r.remaining[&FilterStage::IncompleteLsp] < r.input,
        "30% anonymity must produce incomplete LSPs: {r:?}"
    );
}

#[test]
fn warts_roundtrip_preserves_classification() {
    // Simulate → warts bytes → parse → LPR must equal direct LPR.
    let net = build(
        TopologyParams {
            core_routers: 8,
            border_routers: 3,
            ecmp_diamonds: 2,
            ..Default::default()
        },
        MplsConfig::with_te(0.5, 2, TePathMode::SamePath),
    );
    let prober = Prober::new(&net, ProbeOptions::default());
    let vps: Vec<Ipv4Addr> = net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
    let dsts = net.topo.destinations(1);
    let traces = prober.campaign(&vps, &dsts, 1, None).traces;

    let mut writer = warts::WartsWriter::new();
    let list = writer.list(1, "e2e");
    let cycle = writer.cycle_start(list, 1, 0);
    for t in &traces {
        writer.trace(&warts::trace_to_record(t, list, cycle)).unwrap();
    }
    writer.cycle_stop(cycle, 1);
    let bytes = writer.into_bytes();

    let records = warts::WartsReader::new(&bytes).traces().unwrap();
    let reparsed: Vec<_> = records
        .iter()
        .filter_map(|r| warts::trace_to_core(r).unwrap())
        .collect();
    assert_eq!(reparsed, traces);
}
