//! The MDA-Lite headline tradeoff: probes per destination vs the
//! fraction of exhaustive-oracle path diversity recovered.
//!
//! For every `(vp, dst)` pair of the cycle's probing surface we run
//! the exhaustive oracle (every flow of the budget) and the MDA-Lite
//! stopping rule under a sweep of flow caps, and report the recall of
//! the oracle's distinct IP path set — the curve arXiv:1809.10070
//! leads with. A full-MDA row shows what per-hop re-confirmation costs
//! on top.

use crate::output::{announce, f3, print_table, write_csv};
use ark_dataset::World;
use netsim::{Internet, MdaOptions, ProbeOptions, Prober, ProbingStrategy};
use std::collections::BTreeSet;

/// One point of the probes-vs-recall curve.
#[derive(Clone, Debug)]
pub struct RecallPoint {
    /// Strategy spelling (`exhaustive`, `mda`, `mda-lite`).
    pub mode: &'static str,
    /// Flow budget cap handed to the prober.
    pub max_flows: usize,
    /// Mean probe packets spent per destination.
    pub probes_per_dst: f64,
    /// Mean flow-varied walks per destination.
    pub flows_per_dst: f64,
    /// Fraction of the oracle's distinct paths recovered.
    pub path_recall: f64,
}

/// Flow-budget caps swept for the MDA-Lite curve.
const CAPS: &[usize] = &[2, 4, 6, 8, 11, 16, 24, 32];

/// The oracle's flow budget (and the cap for the full-MDA row).
const ORACLE_FLOWS: usize = 32;

/// Sweeps MDA-Lite flow caps against the exhaustive oracle on one
/// cycle's network.
pub fn run(world: &World, cycle: usize) -> Vec<RecallPoint> {
    let configs = ark_dataset::configs_for_cycle(cycle);
    let net = Internet::new(world.topo.clone(), &configs);
    let prober = Prober::new(&net, ProbeOptions::default());
    let vps = world.all_vps();
    let dsts = world.all_destinations(1);

    // The oracle: exhaustive enumeration per pair, computed once.
    let mut oracle: Vec<BTreeSet<Vec<std::net::Ipv4Addr>>> = Vec::new();
    let mut oracle_probes = 0u64;
    let mut oracle_flows = 0u64;
    let mut oracle_paths = 0usize;
    for &vp in &vps {
        for &dst in &dsts {
            let d = prober.mda_discover(
                vp,
                dst,
                &MdaOptions {
                    strategy: ProbingStrategy::Exhaustive,
                    max_flows: ORACLE_FLOWS,
                    ..MdaOptions::default()
                },
            );
            oracle_probes += d.probes_sent;
            oracle_flows += d.flows_traced;
            oracle_paths += d.paths.len();
            oracle.push(d.paths.into_iter().collect());
        }
    }
    let pairs = (vps.len() * dsts.len()).max(1) as f64;
    let mut points = vec![RecallPoint {
        mode: ProbingStrategy::Exhaustive.name(),
        max_flows: ORACLE_FLOWS,
        probes_per_dst: oracle_probes as f64 / pairs,
        flows_per_dst: oracle_flows as f64 / pairs,
        path_recall: 1.0,
    }];

    let mut sweep = |strategy: ProbingStrategy, cap: usize| {
        let (mut probes, mut flows, mut found) = (0u64, 0u64, 0usize);
        let mut i = 0usize;
        for &vp in &vps {
            for &dst in &dsts {
                let d = prober.mda_discover(
                    vp,
                    dst,
                    &MdaOptions { strategy, max_flows: cap, ..MdaOptions::default() },
                );
                probes += d.probes_sent;
                flows += d.flows_traced;
                found += d.paths.iter().filter(|p| oracle[i].contains(*p)).count();
                i += 1;
            }
        }
        points.push(RecallPoint {
            mode: strategy.name(),
            max_flows: cap,
            probes_per_dst: probes as f64 / pairs,
            flows_per_dst: flows as f64 / pairs,
            path_recall: found as f64 / oracle_paths.max(1) as f64,
        });
    };
    for &cap in CAPS {
        sweep(ProbingStrategy::MdaLite, cap);
    }
    sweep(ProbingStrategy::Mda, ORACLE_FLOWS);
    points
}

/// Prints and writes `fig_mda_recall.csv`.
pub fn emit(points: &[RecallPoint]) {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.mode.to_string(),
                p.max_flows.to_string(),
                f3(p.probes_per_dst),
                f3(p.flows_per_dst),
                f3(p.path_recall),
            ]
        })
        .collect();
    print_table(
        "MDA-Lite probes per destination vs diversity recall",
        &["mode", "max_flows", "probes_per_dst", "flows_per_dst", "path_recall"],
        &rows,
    );
    let path = write_csv(
        "fig_mda_recall.csv",
        &["mode", "max_flows", "probes_per_dst", "flows_per_dst", "path_recall"],
        &rows,
    );
    announce("MDA recall curve", &path);
}
