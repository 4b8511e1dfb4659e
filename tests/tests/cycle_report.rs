//! `CycleReport::build` walks the traces once and looks each distinct
//! address up once. Here it is checked, field by field, against the
//! three-walk build it replaced (kept below as the reference): on
//! several cycles of the standard campaign, on one cycle degraded by
//! chaos faults, and on the mixed-visibility campaign with its revealed
//! evidence applied.

use ark_dataset::campaign::{
    analyze_cycle, analyze_cycle_revealed, generate_cycle, generate_cycle_with_revelation,
    CampaignOptions, CycleAnalysis,
};
use ark_dataset::{standard_world, World};
use lpr_chaos::FaultPlan;
use lpr_core::filter::AsMapper;
use lpr_core::lsp::Asn;
use lpr_core::pipeline::{ClassCounts, PipelineOutput};
use lpr_core::report::{AsCycleStats, CycleReport};
use lpr_core::trace::Trace;
use netsim::{RevelationOptions, VisibilityMix};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// The three-walk build: MPLS traces, then address usage, then one
/// IP2AS lookup per responsive hop, then one class tally per AS.
fn reference_build(
    traces: &[Trace],
    output: &PipelineOutput,
    mapper: &dyn AsMapper,
) -> CycleReport {
    let traces_with_mpls = traces.iter().filter(|t| t.has_mpls()).count();
    let mut mpls = BTreeSet::new();
    let mut all = BTreeSet::new();
    for t in traces {
        for h in t.responsive_hops() {
            let addr = h.addr.expect("responsive");
            all.insert(addr);
            if h.is_labelled() {
                mpls.insert(addr);
            }
        }
    }
    let non_mpls: BTreeSet<Ipv4Addr> = all.difference(&mpls).copied().collect();

    let mut mpls_per_as: BTreeMap<Asn, BTreeSet<Ipv4Addr>> = BTreeMap::new();
    for (iotp, _) in &output.iotps {
        let set = mpls_per_as.entry(iotp.key.asn).or_default();
        set.insert(iotp.key.ingress);
        set.insert(iotp.key.egress);
        set.extend(iotp.lsr_addrs());
    }
    let mut seen_per_as: BTreeMap<Asn, BTreeSet<Ipv4Addr>> = BTreeMap::new();
    for t in traces {
        for h in t.responsive_hops() {
            let addr = h.addr.expect("responsive");
            if let Some(asn) = mapper.asn_of(addr) {
                seen_per_as.entry(asn).or_default().insert(addr);
            }
        }
    }
    let mut per_as: BTreeMap<Asn, AsCycleStats> = BTreeMap::new();
    for asn in output.ases() {
        let mpls = mpls_per_as.get(&asn).cloned().unwrap_or_default();
        let seen = seen_per_as.get(&asn).cloned().unwrap_or_default();
        let stats = per_as.entry(asn).or_default();
        stats.classes = output.class_counts_for(asn);
        stats.mpls_ips = mpls.len();
        stats.non_mpls_ips = seen.difference(&mpls).count();
    }
    for (asn, seen) in &seen_per_as {
        per_as.entry(*asn).or_insert_with(|| AsCycleStats {
            classes: ClassCounts::default(),
            mpls_ips: 0,
            non_mpls_ips: seen.len(),
        });
    }
    CycleReport {
        traces: traces.len(),
        traces_with_mpls,
        ip_usage_mpls: mpls.len(),
        ip_usage_non_mpls: non_mpls.len(),
        per_as,
        dynamic_ases: output.dynamic_ases.clone(),
    }
}

/// The analysis's report (built in one walk) equals the reference, field
/// by field.
fn assert_matches_reference(
    world: &World,
    traces: &[Trace],
    analysis: &CycleAnalysis,
    what: &str,
) {
    let report = &analysis.report;
    assert!(report.traces_with_mpls > 0 && !report.per_as.is_empty(), "{what}: a real cycle");
    assert_eq!(*report, reference_build(traces, &analysis.output, world.rib()), "{what}");
}

#[test]
fn one_walk_equals_the_reference_on_standard_cycles() {
    let world = standard_world();
    for cycle in [1, 20, 40, 60] {
        let data = generate_cycle(&world, cycle, &CampaignOptions::default());
        let analysis = analyze_cycle(&world, &data, 2);
        assert_matches_reference(&world, &data.snapshots[0], &analysis, &format!("cycle {cycle}"));
    }
}

#[test]
fn one_walk_equals_the_reference_under_chaos() {
    let world = standard_world();
    let mut data = generate_cycle(&world, 40, &CampaignOptions::default());
    for snapshot in &mut data.snapshots {
        FaultPlan::uniform(7, 0.10).degrade_traces(snapshot);
    }
    let analysis = analyze_cycle(&world, &data, 2);
    assert_matches_reference(&world, &data.snapshots[0], &analysis, "chaos 0.10");
}

#[test]
fn one_walk_equals_the_reference_on_the_revealed_mix() {
    let world = standard_world();
    let mix = VisibilityMix { explicit: 0.4, implicit: 0.2, invisible: 0.2, opaque: 0.2 };
    let opts = CampaignOptions { visibility: Some(mix), ..CampaignOptions::default() };
    let (data, evidence) =
        generate_cycle_with_revelation(&world, 40, &opts, &RevelationOptions::default());
    assert!(!evidence.is_empty(), "the mix raises revelation evidence");
    let analysis = analyze_cycle_revealed(&world, &data, 2, &evidence);
    assert_matches_reference(&world, &data.snapshots[0], &analysis, "revealed mix");
}
