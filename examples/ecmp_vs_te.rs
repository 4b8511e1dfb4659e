//! ECMP vs TE: the core LPR distinction, on one diamond topology.
//!
//! The same physical network is run three times with different MPLS
//! policies; the traces look superficially similar (labelled hops
//! between the same LERs), yet LPR separates them by label pattern:
//!
//! * pure LDP over ECMP diamonds      → ECMP Mono-FEC (routers disjoint)
//! * pure LDP over parallel links     → ECMP Mono-FEC (parallel links)
//! * RSVP-TE, several LSPs, same path → Multi-FEC
//!
//! ```sh
//! cargo run -p lpr-examples --bin ecmp_vs_te
//! ```

use lpr_core::prelude::*;
use netsim::{
    AsSpec, Internet, MplsConfig, Peering, ProbeOptions, Prober, TePathMode, Topology,
    TopologyParams, Vendor,
};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

fn build(params: TopologyParams, cfg: MplsConfig) -> Internet {
    let specs = vec![
        AsSpec::transit(65000, "isp", Vendor::Juniper, params),
        AsSpec::stub(64600, "monitors", 0, 2),
        AsSpec::stub(64700, "cust-a", 4, 0),
        AsSpec::stub(64701, "cust-b", 4, 0),
    ];
    let peerings = vec![
        Peering::new(Asn(64600), Asn(65000)).at_b(0),
        Peering::new(Asn(65000), Asn(64700)).at_a(1),
        Peering::new(Asn(65000), Asn(64701)).at_a(1),
    ];
    let topo = Topology::build_with_peerings(&specs, &peerings);
    let mut configs = BTreeMap::new();
    configs.insert(Asn(65000), cfg);
    Internet::new(topo, &configs)
}

fn classify(net: &Internet) -> lpr_core::pipeline::ClassCounts {
    let prober = Prober::new(net, ProbeOptions::default());
    let vps: Vec<Ipv4Addr> = net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
    let dsts = net.topo.destinations(1);
    let traces = prober.campaign(&vps, &dsts, 1, None).traces;
    let rib = net.topo.rib();
    let keys = Pipeline::snapshot_keys(&traces);
    Pipeline::default().run(&traces, &rib, &[keys]).class_counts()
}

fn show(name: &str, c: &lpr_core::pipeline::ClassCounts) {
    println!(
        "{name:<28} mono_lsp={} multi_fec={} mono_fec_parallel={} mono_fec_disjoint={} unclassified={}",
        c.mono_lsp, c.multi_fec, c.mono_fec_parallel, c.mono_fec_disjoint, c.unclassified
    );
}

fn main() {
    println!("Three operators, one question: where does their path diversity come from?\n");

    // Scenario 1: IGP ECMP over disjoint routers, labels from LDP.
    let diamonds = TopologyParams {
        core_routers: 6,
        border_routers: 3,
        ecmp_diamonds: 3,
        ..TopologyParams::default()
    };
    let c = classify(&build(diamonds, MplsConfig::ldp_default()));
    show("LDP + ECMP diamonds", &c);
    assert!(c.mono_fec_disjoint > 0 && c.multi_fec == 0);

    // Scenario 2: IGP ECMP over parallel link bundles, labels from LDP.
    let bundles = TopologyParams {
        core_routers: 6,
        border_routers: 3,
        parallel_bundles: 3,
        parallel_width: 3,
        ..TopologyParams::default()
    };
    let c = classify(&build(bundles, MplsConfig::ldp_default()));
    show("LDP + parallel bundles", &c);
    assert!(c.mono_fec_parallel > 0 && c.multi_fec == 0);

    // Scenario 3: RSVP-TE, three LSPs per pair, all pinned to the same
    // IP path — diversity exists only in the labels.
    let chain = TopologyParams { core_routers: 6, border_routers: 3, ..TopologyParams::default() };
    let c = classify(&build(chain, MplsConfig::with_te(1.0, 3, TePathMode::SamePath)));
    show("RSVP-TE (same IP path)", &c);
    assert!(c.multi_fec > 0);

    println!("\nLPR recovers the control-plane story from labels alone:");
    println!(" - one label per common IP         => one FEC => the diversity is IGP ECMP (LDP),");
    println!("   same labels but different IPs   => the 'routers' are aliases: parallel links;");
    println!(" - several labels on one common IP => several FECs => RSVP-TE traffic engineering,");
    println!("   even when every LSP rides the same physical path.");
}
