//! Fig. 17 — the RSVP-TE label-re-optimisation sawtooth.

use crate::output::{announce, print_table, write_csv};
use ark_dataset::dynamics::{run as run_dynamics, DynamicsOptions, LabelSample};
use ark_dataset::World;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Runs the high-frequency campaign with the paper's cadence (probe
/// every 2 minutes for 600 minutes).
pub fn run(world: &World) -> Vec<LabelSample> {
    run_dynamics(world, &DynamicsOptions::default())
}

/// Prints and writes the per-LSR label series.
pub fn emit(samples: &[LabelSample]) {
    // Column per LSR address, in first-appearance order.
    let mut lsrs: Vec<Ipv4Addr> = Vec::new();
    for s in samples {
        for (addr, _) in &s.hops {
            if !lsrs.contains(addr) {
                lsrs.push(*addr);
            }
        }
    }
    let mut header: Vec<String> = vec!["minute".into()];
    header.extend(lsrs.iter().map(|a| format!("lsr_{a}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();

    let rows: Vec<Vec<String>> = samples
        .iter()
        .map(|s| {
            let by_addr: BTreeMap<Ipv4Addr, u32> = s.hops.iter().copied().collect();
            let mut row = vec![s.minute.to_string()];
            for lsr in &lsrs {
                row.push(by_addr.get(lsr).map(|l| l.to_string()).unwrap_or_default());
            }
            row
        })
        .collect();
    let path = write_csv("fig17_label_dynamics.csv", &header_refs, &rows);
    announce("Fig. 17", &path);

    // Console: show a decimated view plus per-LSR consumption rates.
    let shown: Vec<Vec<String>> = rows.iter().step_by(10).cloned().collect();
    print_table("Fig. 17 — label evolution (every 20 min shown)", &header_refs, &shown);
    for (i, lsr) in lsrs.iter().enumerate() {
        let series: Vec<u32> = samples
            .iter()
            .filter_map(|s| s.hops.iter().find(|(a, _)| a == lsr).map(|(_, l)| *l))
            .collect();
        if series.len() >= 2 {
            let wraps = series.windows(2).filter(|w| w[1] < w[0]).count();
            println!(
                "LSR{} ({lsr}): labels {} -> {}, {} wrap(s)",
                i + 1,
                series.first().unwrap(),
                series.last().unwrap(),
                wraps
            );
        }
    }
}
