//! Bounded-memory analysis of a large warts file: stream records with
//! `WartsStreamReader`, filter trace by trace with `CycleAccumulator`,
//! classify at the end. This is the shape of a real CAIDA-scale run
//! (the paper's cycles hold ~14 M LSPs — far too many to buffer as raw
//! traces). The example checks that the streamed output equals
//! `Pipeline::run` over the same campaign held in memory.
//!
//! ```sh
//! cargo run --release -p lpr-examples --bin streaming_analysis
//! ```

use lpr_core::prelude::*;
use lpr_core::stream::CycleAccumulator;
use netsim::{
    AsSpec, Internet, MplsConfig, Peering, ProbeOptions, Prober, TePathMode, Topology,
    TopologyParams, Vendor,
};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::Ipv4Addr;

fn main() {
    // --- Produce a warts file on disk (stand-in for an Ark dump). ----
    let specs = vec![
        AsSpec::transit(
            65000,
            "isp",
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
        AsSpec::stub(64700, "cust-a", 4, 0),
        AsSpec::stub(64701, "cust-b", 4, 0),
    ];
    let peerings = vec![
        Peering::new(Asn(64600), Asn(65000)).at_b(0),
        Peering::new(Asn(65000), Asn(64700)).at_a(1),
        Peering::new(Asn(65000), Asn(64701)).at_a(1),
    ];
    let topo = Topology::build_with_peerings(&specs, &peerings);
    let rib = topo.rib();
    let mut configs = BTreeMap::new();
    configs.insert(Asn(65000), MplsConfig::with_te(0.5, 2, TePathMode::SamePath));
    let net = Internet::new(topo, &configs);
    let prober = Prober::new(&net, ProbeOptions::default());
    let vps: Vec<Ipv4Addr> = net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
    let dsts = net.topo.destinations(1);

    let mut writer = warts::WartsWriter::new();
    let list = writer.list(1, "stream-demo");
    let cycle = writer.cycle_start(list, 1, 0);
    let mut campaign = Vec::new();
    for &vp in &vps {
        for &dst in &dsts {
            let t = prober.trace(vp, dst);
            writer.trace(&warts::trace_to_record(&t, list, cycle)).unwrap();
            campaign.push(t);
        }
    }
    writer.cycle_stop(cycle, 1);
    let path = std::env::temp_dir().join("lpr-streaming-demo.warts");
    warts::write_path(&path, writer).expect("write warts file");
    println!(
        "wrote {} traces to {} ({} bytes)",
        campaign.len(),
        path.display(),
        std::fs::metadata(&path).unwrap().len()
    );

    // --- Analyse it without ever holding the traces in memory. -------
    let file = std::fs::File::open(&path).expect("open warts file");
    let mut reader = warts::WartsStreamReader::new(BufReader::new(file));
    let mut acc = CycleAccumulator::new(&rib);
    let mut seen = 0usize;
    while let Some(record) = reader.next_record().expect("stream records") {
        if let warts::Record::Trace(t) = record {
            if let Some(trace) = warts::trace_to_core(&t).expect("decode") {
                acc.push_trace(&trace);
                seen += 1;
            }
        }
    }
    println!("streamed {seen} traces; retained only {} filtered LSPs in memory", acc.retained());

    let one = lpr_par::ShardOptions::new(1);
    let out = Pipeline::default().finish_stages(acc.into_state(), &[], None, one);
    assert_eq!(
        out,
        Pipeline::default().run(&campaign, &rib, &[]),
        "streamed output must equal the in-memory run over the same campaign"
    );
    let c = out.class_counts();
    println!(
        "classified {} IOTPs: {} Mono-LSP | {} Multi-FEC | {} Mono-FEC | {} unclassified",
        c.total(),
        c.mono_lsp,
        c.multi_fec,
        c.mono_fec(),
        c.unclassified
    );
    std::fs::remove_file(&path).ok();
}
