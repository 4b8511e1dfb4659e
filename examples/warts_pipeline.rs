//! Full warts pipeline: what a consumer of real CAIDA Archipelago data
//! does — except the warts bytes come from the simulator.
//!
//! simulate → serialise to warts → (bytes on disk) → parse warts →
//! extract tunnels → LPR.
//!
//! ```sh
//! cargo run -p lpr-examples --bin warts_pipeline [output.warts]
//! ```

use lpr_core::prelude::*;
use netsim::{
    AsSpec, Internet, MplsConfig, Peering, ProbeOptions, Prober, TePathMode, Topology,
    TopologyParams, Vendor,
};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

fn main() {
    // --- Measurement side: an Ark-like monitor dumps a warts file. ---
    let specs = vec![
        AsSpec::transit(
            65000,
            "isp",
            Vendor::Cisco,
            TopologyParams {
                core_routers: 6,
                border_routers: 3,
                ecmp_diamonds: 1,
                ..TopologyParams::default()
            },
        ),
        AsSpec::stub(64600, "monitors", 0, 1),
        AsSpec::stub(64700, "cust-a", 3, 0),
        AsSpec::stub(64701, "cust-b", 3, 0),
    ];
    let peerings = vec![
        Peering::new(Asn(64600), Asn(65000)).at_b(0),
        Peering::new(Asn(65000), Asn(64700)).at_a(1),
        Peering::new(Asn(65000), Asn(64701)).at_a(1),
    ];
    let topo = Topology::build_with_peerings(&specs, &peerings);
    let rib_text = ip2as::to_rib_string(&topo.rib());

    let mut configs = BTreeMap::new();
    configs.insert(Asn(65000), MplsConfig::with_te(0.4, 2, TePathMode::SamePath));
    let net = Internet::new(topo, &configs);

    let prober = Prober::new(&net, ProbeOptions::default());
    let vps: Vec<Ipv4Addr> = net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
    let dsts = net.topo.destinations(1);
    let traces = prober.campaign(&vps, &dsts, 1, None).traces;

    let bytes = warts::encode_cycle(&traces, "team-1", 1, 1_417_392_000, 1_417_478_400)
        .expect("serialise trace");
    println!(
        "wrote {} traces into {} bytes of warts ({} bytes/trace)",
        traces.len(),
        bytes.len(),
        bytes.len() / traces.len().max(1)
    );

    if let Some(path) = std::env::args().nth(1) {
        std::fs::write(&path, &bytes).expect("write warts file");
        println!("saved to {path}");
    }

    // --- Analysis side: parse the bytes back and run LPR. ------------
    let records = warts::WartsReader::new(&bytes).traces().expect("parse warts");
    let parsed: Vec<Trace> = records
        .iter()
        .filter_map(|r| warts::trace_to_core(r).expect("decode ICMP extensions"))
        .collect();
    assert_eq!(parsed, traces, "lossless round-trip");
    println!("parsed {} trace records back, bit-identical to the originals", parsed.len());

    let rib = ip2as::parse_rib(&rib_text).expect("parse RIB snapshot");
    let keys = Pipeline::snapshot_keys(&parsed);
    let out = Pipeline::default().run(&parsed, &rib, &[keys]);

    let c = out.class_counts();
    println!(
        "LPR on the reparsed data: {} IOTPs — {} Mono-LSP, {} Multi-FEC, {} Mono-FEC, {} unclassified",
        c.total(),
        c.mono_lsp,
        c.multi_fec,
        c.mono_fec(),
        c.unclassified
    );
}
