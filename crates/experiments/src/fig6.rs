//! Fig. 6 — the Persistence-window sweep (§4.2).
//!
//! The paper takes the 29 daily snapshots of December 2014 and varies
//! the persistence parameter `j` from 0 (no filter) to 29, measuring
//! (a) how many LSPs survive and (b) how the classification mix moves.
//! The expected shape: a drop from `j = 0` to `j = 1`, then stability
//! for `j ≥ 2` — which is why the paper settles on `j = 2`.

use crate::output::{announce, f3, print_table, write_csv};
use ark_dataset::{CampaignOptions, World};
use ark_dataset::campaign::generate_cycle;
use lpr_core::filter::{FilterConfig, FilterStage};
use lpr_core::pipeline::{IngestState, Pipeline};

/// One row of the sweep.
#[derive(Clone, Debug)]
pub struct SweepRow {
    /// Persistence window.
    pub j: usize,
    /// LSP observations surviving the whole pipeline.
    pub lsps_kept: usize,
    /// Class fractions `[mono_lsp, multi_fec, mono_fec, unclassified]`.
    pub fractions: [f64; 4],
}

/// Runs the sweep over a December-2014-like month rendered with
/// `snapshots` daily snapshots.
pub fn run(world: &World, snapshots: usize) -> Vec<SweepRow> {
    let opts = CampaignOptions { snapshots, ..Default::default() };
    let data = generate_cycle(world, 60, &opts);
    // `0` threads = the machine's available parallelism; the output is
    // identical at any thread count.
    let futures: Vec<_> =
        data.snapshots[1..].iter().map(|t| Pipeline::snapshot_keys_par(t, 0)).collect();
    let opts = lpr_par::ShardOptions::new(0);
    // The ingest half does not depend on `j`: ingest once, finish once
    // per window.
    let ingest = IngestState::from_traces(&data.snapshots[0], world.rib(), None, opts);

    let mut rows = Vec::new();
    for j in 0..snapshots {
        let pipeline =
            Pipeline::new(FilterConfig { persistence_window: j, ..Default::default() });
        let window = &futures[..j.min(futures.len())];
        let out = pipeline.finish_stages(ingest.clone(), window, None, opts);
        rows.push(SweepRow {
            j,
            lsps_kept: out.report.remaining[&FilterStage::Persistence],
            fractions: out.class_counts().fractions(),
        });
    }
    rows
}

/// Prints and writes the sweep.
pub fn emit(rows: &[SweepRow]) {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.j.to_string(),
                r.lsps_kept.to_string(),
                f3(r.fractions[0]),
                f3(r.fractions[1]),
                f3(r.fractions[2]),
                f3(r.fractions[3]),
            ]
        })
        .collect();
    print_table(
        "Fig. 6 — Persistence filter impact (j sweep)",
        &["j", "lsps_kept", "mono_lsp", "multi_fec", "mono_fec", "unclassified"],
        &data,
    );
    let path = write_csv(
        "fig6_persistence_sweep.csv",
        &["j", "lsps_kept", "mono_lsp", "multi_fec", "mono_fec", "unclassified"],
        &data,
    );
    announce("Fig. 6a/6b", &path);
}
