//! Rendering and analysing one monthly cycle.
//!
//! A cycle consists of `1 + j` same-month snapshots: the primary one
//! that gets classified and the `j` follow-ups the Persistence filter
//! matches against (§3.1, §4.2; the paper settles on `j = 2`). Within
//! a month the control plane is stable — except for *dynamic* ASes,
//! whose TE LSPs are re-optimised between snapshots and therefore never
//! persist (§4.5).

use crate::evolution::{configs_for_cycle, dest_growth, dynamic_ases, vp_availability};
use crate::world::World;
use lpr_core::filter::FilterConfig;
use lpr_core::pipeline::{Pipeline, PipelineOutput};
use lpr_core::report::CycleReport;
use lpr_core::trace::Trace;
use lpr_core::reveal::{apply_revelations, RevealedTunnel};
use netsim::internet::splitmix64;
use netsim::{
    CampaignOutput, Internet, ProbeBudget, ProbeOptions, Prober, ProbingStrategy,
    RevelationOptions, VisibilityMix,
};
use std::net::Ipv4Addr;

/// Campaign-wide options.
#[derive(Clone, Debug)]
pub struct CampaignOptions {
    /// Snapshots rendered per cycle (primary + persistence window).
    pub snapshots: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Fraction of `(vp, dst)` flows remapped between snapshots
    /// (routing noise feeding the Persistence filter).
    pub flow_churn_rate: f64,
    /// Fraction of intra-AS links whose IGP cost is perturbed in each
    /// follow-up snapshot (real re-weighting events: shortest paths —
    /// and the LSPs riding them — genuinely move).
    pub igp_perturbation: f64,
    /// Hosts probed per destination /24.
    pub hosts_per_prefix: usize,
    /// Worker threads for per-destination probing within a snapshot
    /// (`0` = available parallelism). Output is byte-identical for any
    /// value (deterministic shard-order merge). Defaults to 1: cycles
    /// are usually already sharded across threads by
    /// [`run_cycles`](crate::run_cycles), and nesting pools oversubscribes.
    pub threads: usize,
    /// Probing strategy: exhaustive every-pair walks (the default, the
    /// golden campaign shape) or the MDA/MDA-Lite stopping rules that
    /// prune each `(vp, /24)` host group once its path diversity is
    /// statistically settled.
    pub probing: ProbingStrategy,
    /// Tunnel-visibility override applied to every MPLS-enabled AS of
    /// the cycle's configuration. `None` (the default) keeps each AS's
    /// own visibility — the golden campaign shape.
    pub visibility: Option<VisibilityMix>,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            snapshots: 3,
            seed: 0xA5CADA,
            flow_churn_rate: 0.08,
            igp_perturbation: 0.03,
            hosts_per_prefix: 1,
            threads: 1,
            probing: ProbingStrategy::Exhaustive,
            visibility: None,
        }
    }
}

/// One rendered cycle.
pub struct CycleData {
    /// 1-based cycle number.
    pub cycle: usize,
    /// The snapshots, primary first.
    pub snapshots: Vec<Vec<Trace>>,
    /// Probe-budget tallies summed over the snapshots.
    pub budget: ProbeBudget,
}

/// The probing list for a cycle: destinations filtered by the growth
/// schedule (stable subsets: a destination present at growth g stays
/// present for any g' ≥ g), monitors filtered by availability.
pub fn probing_list(world: &World, cycle: usize, opts: &CampaignOptions) -> (Vec<Ipv4Addr>, Vec<Ipv4Addr>) {
    let growth = dest_growth(cycle);
    let dsts: Vec<Ipv4Addr> = world
        .all_destinations(opts.hosts_per_prefix)
        .into_iter()
        .filter(|d| {
            let h = splitmix64((u32::from(*d) >> 8) as u64 ^ 0xD0_57);
            (h as f64 / u64::MAX as f64) < growth
        })
        .collect();
    let avail = vp_availability(cycle);
    let all_vps = world.all_vps();
    let fleet = all_vps.len() as f64;
    let vps: Vec<Ipv4Addr> = all_vps
        .into_iter()
        .enumerate()
        .filter(|(i, _)| ((*i as f64 + 0.5) / fleet) < avail + 1e-9)
        .map(|(_, vp)| vp)
        .collect();
    (vps, dsts)
}

/// Renders all snapshots of one cycle.
///
/// Follow-up snapshots see two kinds of routing noise: a fraction of
/// Paris flows is re-hashed (`flow_churn_rate`) and a fraction of
/// intra-AS IGP costs is perturbed (`igp_perturbation`), so some LSPs
/// of the primary snapshot genuinely vanish — the churn the
/// Persistence filter removes. Dynamic ASes additionally re-signal
/// their TE LSPs (fresh labels) between snapshots (§4.5).
pub fn generate_cycle(world: &World, cycle: usize, opts: &CampaignOptions) -> CycleData {
    render_cycle(world, cycle, opts, None).0
}

/// [`generate_cycle`] with the revelation phase run over the primary
/// snapshot: hidden-tunnel triggers detected in its traces are
/// re-probed with DPR walks against the primary snapshot's network.
/// Follow-up snapshots render exactly as in [`generate_cycle`], and the
/// revelation probes are folded into the cycle's budget.
pub fn generate_cycle_with_revelation(
    world: &World,
    cycle: usize,
    opts: &CampaignOptions,
    reveal_opts: &RevelationOptions,
) -> (CycleData, Vec<RevealedTunnel>) {
    render_cycle(world, cycle, opts, Some(reveal_opts))
}

/// Renders every snapshot of a cycle; revelation, when asked for, runs
/// over the primary snapshot only.
fn render_cycle(
    world: &World,
    cycle: usize,
    opts: &CampaignOptions,
    reveal: Option<&RevelationOptions>,
) -> (CycleData, Vec<RevealedTunnel>) {
    let mut budget = ProbeBudget::default();
    let mut evidence = Vec::new();
    let snapshots = (0..opts.snapshots)
        .map(|snap| {
            let out = render_snapshot(world, cycle, snap, opts, reveal.filter(|_| snap == 0));
            budget.merge(&out.budget);
            evidence.extend(out.evidence);
            out.traces
        })
        .collect();
    (CycleData { cycle, snapshots, budget }, evidence)
}

/// Renders **one** snapshot of a cycle — the bounded-memory unit. At
/// paper scale the corpus writer consumes snapshots one at a time
/// (write or spill, then drop) instead of holding the whole cycle;
/// collecting `0..opts.snapshots` reproduces [`generate_cycle`]
/// exactly.
pub fn generate_snapshot(
    world: &World,
    cycle: usize,
    snap: usize,
    opts: &CampaignOptions,
) -> Vec<Trace> {
    generate_snapshot_with_budget(world, cycle, snap, opts).0
}

/// [`generate_snapshot`] plus the snapshot's probe-budget tally — what
/// the campaign spent and what the stopping rule pruned.
pub fn generate_snapshot_with_budget(
    world: &World,
    cycle: usize,
    snap: usize,
    opts: &CampaignOptions,
) -> (Vec<Trace>, ProbeBudget) {
    let out = render_snapshot(world, cycle, snap, opts, None);
    (out.traces, out.budget)
}

/// Probes one snapshot of a cycle over the cycle's probing list, with
/// the revelation phase when `reveal` is `Some`.
fn render_snapshot(
    world: &World,
    cycle: usize,
    snap: usize,
    opts: &CampaignOptions,
    reveal: Option<&RevelationOptions>,
) -> CampaignOutput {
    let net = snapshot_net(world, cycle, snap, opts);
    let (vps, dsts) = probing_list(world, cycle, opts);
    let probe_opts = ProbeOptions {
        seed: opts.seed,
        snapshot_salt: (cycle as u64) << 8 | snap as u64,
        flow_churn_rate: if snap == 0 { 0.0 } else { opts.flow_churn_rate },
        probing: opts.probing,
        ..ProbeOptions::default()
    };
    Prober::new(&net, probe_opts).campaign(&vps, &dsts, opts.threads, reveal)
}

/// The simulated Internet a snapshot is probed against, with the
/// cycle's configs, the snapshot's IGP perturbation and TE
/// re-optimisations, and the campaign's visibility override applied.
fn snapshot_net(world: &World, cycle: usize, snap: usize, opts: &CampaignOptions) -> Internet {
    let mut configs = configs_for_cycle(cycle);
    if let Some(mix) = opts.visibility {
        for cfg in configs.values_mut() {
            if cfg.enabled {
                cfg.visibility = mix;
            }
        }
    }
    let topo = if snap == 0 || opts.igp_perturbation <= 0.0 {
        world.topo.clone()
    } else {
        world.topo.with_perturbed_costs(
            opts.seed ^ (cycle as u64) << 16 ^ snap as u64,
            opts.igp_perturbation,
        )
    };
    let mut net = Internet::new(topo, &configs);
    // Dynamic ASes re-signal their TE LSPs between snapshots; the
    // k-th snapshot has seen k re-optimisations.
    for asn in dynamic_ases() {
        for _ in 0..snap {
            net.reoptimize_te(asn);
        }
    }
    net
}

/// A cycle's LPR results.
pub struct CycleAnalysis {
    /// The pipeline output over the primary snapshot.
    pub output: PipelineOutput,
    /// The per-AS / global aggregation (Figs. 5, 10–15, Table 2).
    pub report: CycleReport,
}

/// Runs LPR over a rendered cycle with persistence window `j`
/// (`j + 1 ≤ snapshots`; extra snapshots are ignored).
pub fn analyze_cycle(world: &World, data: &CycleData, j: usize) -> CycleAnalysis {
    analyze_cycle_revealed(world, data, j, &[])
}

/// [`analyze_cycle`] with the revelation classifier stage applied: the
/// revealed evidence upgrades Unclassified (and diversity-hiding
/// Mono-LSP) IOTPs before the per-AS report is built, so the report
/// reflects the revealed diversity.
pub fn analyze_cycle_revealed(
    world: &World,
    data: &CycleData,
    j: usize,
    evidence: &[RevealedTunnel],
) -> CycleAnalysis {
    let future: Vec<_> = data.snapshots[1..]
        .iter()
        .take(j)
        .map(|traces| Pipeline::snapshot_keys(traces))
        .collect();
    let pipeline = Pipeline::new(FilterConfig { persistence_window: j, ..Default::default() });
    let mut output = pipeline.run(&data.snapshots[0], world.rib(), &future);
    apply_revelations(&mut output, evidence, None);
    let report = CycleReport::build(&data.snapshots[0], &output, world.rib());
    CycleAnalysis { output, report }
}

/// Convenience: renders and analyses a range of cycles in parallel on
/// the workspace shard scheduler (`lpr-par`), returning analyses in
/// cycle order.
pub fn run_cycles(
    world: &World,
    cycles: std::ops::RangeInclusive<usize>,
    opts: &CampaignOptions,
    j: usize,
) -> Vec<(usize, CycleAnalysis)> {
    let cycles: Vec<usize> = cycles.collect();
    // One cycle per shard: each render+analyse is seconds of work, so
    // the chunked queue load-balances whole cycles across workers.
    let shard_opts = lpr_par::ShardOptions {
        threads: 0,
        shards_per_thread: 1,
        min_shard_len: 1,
    };
    let run = lpr_par::map_shards(&cycles, shard_opts, |_, shard| {
        shard
            .iter()
            .map(|&cycle| {
                let data = generate_cycle(world, cycle, opts);
                (cycle, analyze_cycle(world, &data, j))
            })
            .collect::<Vec<_>>()
    });
    run.outputs.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{standard_world, L3, NTT, TATA, VOD};
    use lpr_core::filter::FilterStage;

    #[test]
    fn cycle_generation_is_deterministic() {
        let world = standard_world();
        let opts = CampaignOptions { snapshots: 1, ..Default::default() };
        let a = generate_cycle(&world, 30, &opts);
        let b = generate_cycle(&world, 30, &opts);
        assert_eq!(a.snapshots[0], b.snapshots[0]);
    }

    #[test]
    fn analysis_produces_featured_iotps() {
        let world = standard_world();
        let opts = CampaignOptions::default();
        let data = generate_cycle(&world, 40, &opts);
        let analysis = analyze_cycle(&world, &data, 2);
        let out = &analysis.output;
        assert!(out.report.input > 0);
        for asn in [VOD, TATA, NTT, L3] {
            assert!(
                out.class_counts_for(asn).total() > 0,
                "{asn} has no classified IOTPs at cycle 40"
            );
        }
        // Vodafone is dynamic: its TE labels change between snapshots.
        assert!(out.dynamic_ases.contains(&VOD), "{:?}", out.dynamic_ases);
    }

    #[test]
    fn level3_dark_before_29() {
        let world = standard_world();
        let opts = CampaignOptions { snapshots: 3, ..Default::default() };
        let data = generate_cycle(&world, 20, &opts);
        let analysis = analyze_cycle(&world, &data, 2);
        assert_eq!(analysis.output.class_counts_for(L3).total(), 0);
        // But Level3 addresses are still seen as non-MPLS.
        let stats = &analysis.report.per_as[&L3];
        assert_eq!(stats.mpls_ips, 0);
        assert!(stats.non_mpls_ips > 0);
    }

    #[test]
    fn filters_remove_something_every_stage() {
        let world = standard_world();
        let opts = CampaignOptions::default();
        let data = generate_cycle(&world, 45, &opts);
        let analysis = analyze_cycle(&world, &data, 2);
        let r = &analysis.output.report;
        let after = |s| r.remaining[&s];
        assert!(after(FilterStage::IncompleteLsp) < r.input, "incomplete");
        assert!(after(FilterStage::IntraAs) < after(FilterStage::IncompleteLsp), "intraas");
        assert!(after(FilterStage::TargetAs) < after(FilterStage::IntraAs), "targetas");
        assert!(
            after(FilterStage::TransitDiversity) < after(FilterStage::TargetAs),
            "transitdiversity"
        );
        assert!(
            after(FilterStage::Persistence) < after(FilterStage::TransitDiversity),
            "persistence"
        );
    }

    #[test]
    fn tata_is_mono_fec_parallel_heavy() {
        let world = standard_world();
        let opts = CampaignOptions::default();
        let data = generate_cycle(&world, 10, &opts);
        let analysis = analyze_cycle(&world, &data, 2);
        let c = analysis.output.class_counts_for(TATA);
        assert!(c.total() > 0);
        assert!(c.mono_fec() > 0, "{c:?}");
        assert!(c.mono_fec_parallel >= c.mono_fec_disjoint, "{c:?}");
        assert_eq!(c.multi_fec, 0, "Tata runs no TE: {c:?}");
    }

    #[test]
    fn ntt_is_mono_lsp_heavy() {
        let world = standard_world();
        let opts = CampaignOptions::default();
        let data = generate_cycle(&world, 30, &opts);
        let analysis = analyze_cycle(&world, &data, 2);
        let c = analysis.output.class_counts_for(NTT);
        assert!(c.total() > 0);
        assert!(c.mono_lsp * 2 > c.total(), "Mono-LSP should dominate NTT: {c:?}");
    }
}
