//! Quickstart: build a small MPLS transit network, traceroute through
//! it, and let LPR tell you how the operator uses MPLS.
//!
//! ```sh
//! cargo run -p lpr-examples --bin quickstart
//! ```

use lpr_core::prelude::*;
use netsim::{
    AsSpec, Internet, MplsConfig, Peering, ProbeOptions, Prober, TePathMode, Topology,
    TopologyParams, Vendor,
};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

fn main() {
    // 1. A transit ISP (AS 65000) between a monitor stub and two
    //    customer stubs sharing one egress border.
    let specs = vec![
        AsSpec::transit(
            65000,
            "demo-transit",
            Vendor::Juniper,
            TopologyParams {
                core_routers: 6,
                border_routers: 3,
                ecmp_diamonds: 1,
                parallel_bundles: 1,
                ..TopologyParams::default()
            },
        ),
        AsSpec::stub(64600, "monitors", 0, 2),
        AsSpec::stub(64700, "customer-a", 3, 0),
        AsSpec::stub(64701, "customer-b", 3, 0),
    ];
    let peerings = vec![
        Peering::new(Asn(64600), Asn(65000)).at_b(0),
        Peering::new(Asn(65000), Asn(64700)).at_a(1),
        Peering::new(Asn(65000), Asn(64701)).at_a(1),
    ];
    let topo = Topology::build_with_peerings(&specs, &peerings);

    // 2. The operator's MPLS policy: LDP everywhere, plus RSVP-TE
    //    (2 LSPs) on half of the LER pairs.
    let mut configs = BTreeMap::new();
    configs.insert(Asn(65000), MplsConfig::with_te(0.5, 2, TePathMode::SamePath));
    let net = Internet::new(topo, &configs);

    // 3. Probe: every monitor towards every destination, Paris style.
    let prober = Prober::new(&net, ProbeOptions::default());
    let vps: Vec<Ipv4Addr> = net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
    let dsts = net.topo.destinations(1);
    let traces = prober.campaign(&vps, &dsts, 1, None).traces;
    println!("probed {} traces from {} monitors to {} destinations", traces.len(), vps.len(), dsts.len());

    // Show one trace with its RFC 4950 label stacks.
    let sample = traces.iter().find(|t| t.has_mpls()).expect("an MPLS trace");
    println!("\nsample trace {} -> {}:", sample.src, sample.dst);
    for hop in &sample.hops {
        match hop.addr {
            Some(a) if hop.is_labelled() => println!("  {:>2}  {a}  MPLS {:?}", hop.probe_ttl, hop.stack),
            Some(a) => println!("  {:>2}  {a}", hop.probe_ttl),
            None => println!("  {:>2}  *", hop.probe_ttl),
        }
    }

    // 4. LPR: filter and classify.
    let rib = net.topo.rib();
    let keys = Pipeline::snapshot_keys(&traces);
    let out = Pipeline::default().run(&traces, &rib, &[keys.clone(), keys]);

    println!("\nfilter survival (of {} extracted LSPs):", out.report.input);
    for stage in FilterStage::ALL {
        println!(
            "  {:<18} {:.3}",
            stage.name(),
            out.report.proportion_after(stage)
        );
    }

    println!("\nclassified IOTPs:");
    for (iotp, cls) in &out.iotps {
        let m = lpr_core::metrics::IotpMetrics::of(iotp);
        println!(
            "  {} <{} ; {}>  {}  (width {}, length {}, {})",
            iotp.key.asn,
            iotp.key.ingress,
            iotp.key.egress,
            cls.class,
            m.width,
            m.length,
            if m.is_balanced() { "balanced" } else { "unbalanced" },
        );
    }
    let c = out.class_counts();
    println!(
        "\nsummary: {} Mono-LSP, {} Multi-FEC (RSVP-TE), {} ECMP Mono-FEC ({} parallel links / {} disjoint), {} unclassified",
        c.mono_lsp, c.multi_fec, c.mono_fec(), c.mono_fec_parallel, c.mono_fec_disjoint, c.unclassified
    );
}
