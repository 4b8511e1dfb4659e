//! BGP/MPLS-VPN service labels (RFC 4364) end to end: probes through
//! VPN pairs expose two-entry label stacks, and the resulting tunnels
//! behave under LPR the way the paper implies — they never surface in
//! the transit classification (the run of labelled hops extends into
//! the customer AS, so IntraAS rejects it), which is consistent with
//! the paper's "we did not observe many tunnels through VPNs" (§1).

use lpr_core::prelude::*;
use netsim::{
    AsSpec, Internet, MplsConfig, Peering, ProbeOptions, Prober, Topology, TopologyParams,
    Vendor,
};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

fn build(vpn_fraction: f64) -> Internet {
    let specs = vec![
        AsSpec::transit(
            65000,
            "pe-core",
            Vendor::Juniper,
            TopologyParams { core_routers: 5, border_routers: 3, ..TopologyParams::default() },
        ),
        AsSpec::stub(64600, "monitors", 0, 1),
        AsSpec::stub(64700, "vrf-red", 3, 0),
        AsSpec::stub(64701, "vrf-blue", 3, 0),
    ];
    let peerings = vec![
        Peering::new(Asn(64600), Asn(65000)).at_b(0),
        Peering::new(Asn(65000), Asn(64700)).at_a(1),
        Peering::new(Asn(65000), Asn(64701)).at_a(1),
    ];
    let topo = Topology::build_with_peerings(&specs, &peerings);
    let mut configs = BTreeMap::new();
    let mut cfg = MplsConfig::ldp_default();
    cfg.vpn_pair_fraction = vpn_fraction;
    configs.insert(Asn(65000), cfg);
    Internet::new(topo, &configs)
}

fn campaign(net: &Internet) -> Vec<Trace> {
    let prober = Prober::new(net, ProbeOptions::default());
    let vps: Vec<Ipv4Addr> = net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
    let dsts = net.topo.destinations(1);
    prober.campaign(&vps, &dsts, 1, None).traces
}

#[test]
fn vpn_pairs_expose_two_entry_stacks() {
    let traces = campaign(&build(1.0));
    let mut depth2 = 0usize;
    let mut bottom_flags_ok = true;
    for t in &traces {
        for h in &t.hops {
            if h.stack.depth() == 2 {
                depth2 += 1;
                let entries = h.stack.entries();
                bottom_flags_ok &= !entries[0].bottom && entries[1].bottom;
            }
        }
    }
    assert!(depth2 > 0, "expected two-entry stacks on VPN pairs");
    assert!(bottom_flags_ok, "bottom-of-stack must sit on the service entry only");
}

#[test]
fn service_label_is_per_customer() {
    let net = build(1.0);
    let traces = campaign(&net);
    // Collect the bottom labels per destination AS.
    let rib = net.topo.rib();
    let mut per_customer: BTreeMap<u32, std::collections::BTreeSet<u32>> = BTreeMap::new();
    for t in &traces {
        let customer = rib.lookup(t.dst).unwrap().0;
        for h in &t.hops {
            if h.stack.depth() == 2 {
                per_customer
                    .entry(customer)
                    .or_default()
                    .insert(h.stack.entries()[1].label.value());
            }
        }
    }
    assert!(per_customer.len() >= 2, "need two customers: {per_customer:?}");
    for (customer, labels) in &per_customer {
        assert_eq!(labels.len(), 1, "one VRF label per customer {customer}: {labels:?}");
    }
    let all: std::collections::BTreeSet<_> =
        per_customer.values().flatten().collect();
    assert!(all.len() >= 2, "customers must get distinct VRF labels");
}

#[test]
fn egress_pe_quotes_the_lone_service_label() {
    let traces = campaign(&build(1.0));
    // Somewhere a hop shows exactly one label while its predecessor
    // showed two: the PHP'd service entry on the egress PE.
    let mut seen = false;
    for t in &traces {
        for w in t.hops.windows(2) {
            if w[0].stack.depth() == 2 && w[1].stack.depth() == 1 {
                assert!(w[1].stack.entries()[0].bottom);
                seen = true;
            }
        }
    }
    assert!(seen, "egress PE must expose the service label after PHP");
}

#[test]
fn vpn_tunnels_are_dropped_by_intra_as() {
    // With VPN on, the labelled run runs into the customer AS; the
    // IntraAS filter must reject those LSPs, keeping them out of the
    // transit classification (the paper's observed non-presence).
    let rib_lookup = |net: &Internet, traces: &[Trace]| {
        let rib = net.topo.rib();
        let keys = Pipeline::snapshot_keys(traces);
        Pipeline::default().run(traces, &rib, &[keys])
    };
    let vpn_net = build(1.0);
    let vpn_out = rib_lookup(&vpn_net, &campaign(&vpn_net));
    let plain_net = build(0.0);
    let plain_out = rib_lookup(&plain_net, &campaign(&plain_net));

    let drop = |out: &PipelineOutput| {
        out.report.remaining[&FilterStage::IncompleteLsp]
            - out.report.remaining[&FilterStage::IntraAs]
    };
    assert_eq!(drop(&plain_out), 0, "no VPN, no IntraAS drops");
    assert!(drop(&vpn_out) > 0, "VPN tunnels must be dropped by IntraAS");
    // And the transit classification still never shows Multi-FEC out
    // of plain LDP, VPN or not.
    assert_eq!(vpn_out.class_counts().multi_fec, 0);
}

#[test]
fn warts_roundtrips_two_entry_stacks() {
    let traces = campaign(&build(1.0));
    let mut w = warts::WartsWriter::new();
    let list = w.list(1, "vpn");
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
    assert_eq!(parsed, traces);
}

#[test]
fn uhp_with_vpn_shows_explicit_null_over_service() {
    // Ultimate-hop popping plus a service label: the egress receives
    // [explicit-null, service] and pops both.
    let specs = vec![
        AsSpec::transit(
            65000,
            "pe-core",
            Vendor::Juniper,
            TopologyParams { core_routers: 5, border_routers: 3, ..TopologyParams::default() },
        ),
        AsSpec::stub(64600, "monitors", 0, 1),
        AsSpec::stub(64700, "vrf-red", 3, 0),
        AsSpec::stub(64701, "vrf-blue", 3, 0),
    ];
    let peerings = vec![
        Peering::new(Asn(64600), Asn(65000)).at_b(0),
        Peering::new(Asn(65000), Asn(64700)).at_a(1),
        Peering::new(Asn(65000), Asn(64701)).at_a(1),
    ];
    let topo = Topology::build_with_peerings(&specs, &peerings);
    let mut configs = BTreeMap::new();
    let mut cfg = MplsConfig::ldp_default();
    cfg.vpn_pair_fraction = 1.0;
    cfg.php = false;
    configs.insert(Asn(65000), cfg);
    let net = Internet::new(topo, &configs);

    let traces = campaign(&net);
    let mut saw_null_over_service = false;
    for t in &traces {
        for h in &t.hops {
            if h.stack.depth() == 2 && h.stack.entries()[0].label.value() == 0 {
                assert!(h.stack.entries()[1].bottom);
                saw_null_over_service = true;
            }
        }
        assert!(t.reached, "UHP+VPN must still deliver: {t:?}");
    }
    assert!(saw_null_over_service, "expected [explicit-null, service] at the egress PE");
}

#[test]
fn rfc4950_off_hides_vpn_stacks_but_not_hops() {
    let specs = vec![
        AsSpec::transit(
            65000,
            "pe-core",
            Vendor::Juniper,
            TopologyParams { core_routers: 5, border_routers: 3, ..TopologyParams::default() },
        ),
        AsSpec::stub(64600, "monitors", 0, 1),
        AsSpec::stub(64700, "vrf-red", 3, 0),
        AsSpec::stub(64701, "vrf-blue", 3, 0),
    ];
    let peerings = vec![
        Peering::new(Asn(64600), Asn(65000)).at_b(0),
        Peering::new(Asn(65000), Asn(64700)).at_a(1),
        Peering::new(Asn(65000), Asn(64701)).at_a(1),
    ];
    let topo = Topology::build_with_peerings(&specs, &peerings);
    let mut configs = BTreeMap::new();
    let mut cfg = MplsConfig::ldp_default();
    cfg.vpn_pair_fraction = 1.0;
    cfg.rfc4950 = false;
    configs.insert(Asn(65000), cfg);
    let net = Internet::new(topo, &configs);

    for t in campaign(&net) {
        assert!(t.reached);
        for h in &t.hops {
            assert!(h.stack.is_empty(), "implicit tunnel must quote nothing: {h:?}");
        }
    }
}
