//! Revelation A/B: how much transit path diversity hidden and
//! invisible tunnels conceal from LPR, and how much of it the
//! TNT-style revelation phase buys back.
//!
//! For a sweep of tunnel-visibility mixes we render one cycle, analyse
//! it twice — once plain, once with the revealed evidence applied —
//! and report the IOTP count, the Unclassified share, and what the
//! DPR re-probing cost on top of the campaign.

use crate::output::{announce, f3, print_table, write_csv};
use ark_dataset::{
    analyze_cycle, analyze_cycle_revealed, generate_cycle_with_revelation, CampaignOptions,
    CycleData, World,
};
use lpr_core::pipeline::ClassCounts;
use lpr_core::reveal::{RevealedTunnel, RevelationStatus};
use netsim::{RevelationOptions, VisibilityMix};

/// The A/B over one rendered cycle: its IOTPs classified without and
/// with the revealed evidence, and what the revelation phase cost.
#[derive(Clone, Debug)]
pub struct RevelationAb {
    /// Class tally of plain LPR.
    pub base: ClassCounts,
    /// Class tally after the revelation stage.
    pub revealed: ClassCounts,
    /// Candidates the revelation phase considered.
    pub triggers: u64,
    /// Candidates it revealed at least one interior path for.
    pub revealed_tunnels: u64,
    /// Probe packets the DPR walks spent.
    pub revelation_probes: u64,
    /// Revelation probes as a fraction of the base campaign's probes.
    pub probe_overhead: f64,
}

/// Analyses a cycle rendered with the revelation phase twice — plain,
/// then with `evidence` applied (j = 2 both times).
pub fn ab(world: &World, data: &CycleData, evidence: &[RevealedTunnel]) -> RevelationAb {
    let base = analyze_cycle(world, data, 2);
    let revealed = analyze_cycle_revealed(world, data, 2, evidence);
    let base_probes = (data.budget.probes_sent - data.budget.revelation_probes).max(1);
    RevelationAb {
        base: base.output.class_counts(),
        revealed: revealed.output.class_counts(),
        triggers: data.budget.revelation_triggers,
        revealed_tunnels: evidence
            .iter()
            .filter(|e| e.status == RevelationStatus::Revealed)
            .count() as u64,
        revelation_probes: data.budget.revelation_probes,
        probe_overhead: data.budget.revelation_probes as f64 / base_probes as f64,
    }
}

/// The visibility mixes swept, worst-case hidden shares bracketed by
/// the all-explicit control.
pub const MIXES: &[(&str, VisibilityMix)] = &[
    ("explicit", VisibilityMix { explicit: 1.0, implicit: 0.0, invisible: 0.0, opaque: 0.0 }),
    ("implicit", VisibilityMix { explicit: 0.5, implicit: 0.5, invisible: 0.0, opaque: 0.0 }),
    ("invisible", VisibilityMix { explicit: 0.5, implicit: 0.0, invisible: 0.5, opaque: 0.0 }),
    ("opaque", VisibilityMix { explicit: 0.5, implicit: 0.0, invisible: 0.0, opaque: 0.5 }),
    ("mixed", VisibilityMix { explicit: 0.4, implicit: 0.2, invisible: 0.2, opaque: 0.2 }),
];

/// Runs the A/B sweep on one cycle's network, one point per mix.
pub fn run(world: &World, cycle: usize) -> Vec<(&'static str, RevelationAb)> {
    MIXES
        .iter()
        .map(|&(name, mix)| {
            let opts = CampaignOptions { visibility: Some(mix), ..Default::default() };
            let (data, evidence) = generate_cycle_with_revelation(
                world,
                cycle,
                &opts,
                &RevelationOptions::default(),
            );
            (name, ab(world, &data, &evidence))
        })
        .collect()
}

/// Prints and writes `fig_revelation.csv`.
pub fn emit(points: &[(&str, RevelationAb)]) {
    let headers = [
        "mix",
        "iotps_base",
        "iotps_revealed",
        "unclassified_base",
        "unclassified_revealed",
        "triggers",
        "revealed",
        "revelation_probes",
        "probe_overhead",
    ];
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|(mix, p)| {
            vec![
                mix.to_string(),
                p.base.total().to_string(),
                p.revealed.total().to_string(),
                f3(p.base.fractions()[3]),
                f3(p.revealed.fractions()[3]),
                p.triggers.to_string(),
                p.revealed_tunnels.to_string(),
                p.revelation_probes.to_string(),
                f3(p.probe_overhead),
            ]
        })
        .collect();
    print_table("Revelation A/B: diversity recovered vs probe overhead", &headers, &rows);
    let path = write_csv("fig_revelation.csv", &headers, &rows);
    announce("revelation A/B", &path);
}
