//! Ground-truth checks of the §5 label-based alias resolution: the
//! simulator knows which interfaces share a router, so every inferred
//! alias pair can be verified against the real topology — precision
//! must be 100 % (the paper's argument is that LDP label scope makes
//! these inferences sound, not merely heuristic).

use integration::fixtures::{small_internet, TRANSIT};
use lpr_core::prelude::*;
use lpr_core::aliasres::{infer_aliases, merge_router_level};
use netsim::{MplsConfig, ProbeOptions, Prober, TopologyParams};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

fn classified(net: &netsim::Internet) -> PipelineOutput {
    let prober = Prober::new(net, ProbeOptions::default());
    let vps: Vec<Ipv4Addr> = net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
    let dsts = net.topo.destinations(1);
    let traces = prober.campaign(&vps, &dsts, 1, None).traces;
    let rib = net.topo.rib();
    let keys = Pipeline::snapshot_keys(&traces);
    Pipeline::default().run(&traces, &rib, &[keys])
}

/// Maps every interface address to its owning router.
fn owner_map(net: &netsim::Internet) -> BTreeMap<Ipv4Addr, netsim::RouterId> {
    let mut m = BTreeMap::new();
    for iface in &net.topo.ifaces {
        m.insert(iface.addr, iface.router);
    }
    for r in &net.topo.routers {
        m.insert(r.loopback, r.id);
    }
    m
}

#[test]
fn inferred_aliases_are_real_aliases() {
    let net = small_internet(
        TopologyParams {
            core_routers: 7,
            border_routers: 3,
            parallel_bundles: 3,
            parallel_width: 3,
            ecmp_diamonds: 1,
            ..TopologyParams::default()
        },
        MplsConfig::ldp_default(),
    );
    let out = classified(&net);
    let aliases = infer_aliases(out.iotps.iter().map(|(i, _)| i));
    let owners = owner_map(&net);

    let sets = aliases.sets();
    assert!(!sets.is_empty(), "parallel bundles must reveal alias sets");
    let mut pairs = 0usize;
    for set in &sets {
        let routers: std::collections::BTreeSet<_> =
            set.iter().map(|a| owners[a]).collect();
        assert_eq!(
            routers.len(),
            1,
            "alias set {set:?} spans several routers: {routers:?}"
        );
        pairs += set.len() - 1;
    }
    assert!(pairs >= 2, "expected several alias pairs, got {pairs}");
}

#[test]
fn router_level_merge_preserves_class_counts_without_aliased_lers() {
    // With no parallel links feeding LER aliases, router-level
    // aggregation is the identity on keys.
    let net = small_internet(
        TopologyParams { core_routers: 6, border_routers: 3, ..TopologyParams::default() },
        MplsConfig::ldp_default(),
    );
    let out = classified(&net);
    let iotps: Vec<_> = out.iotps.iter().map(|(i, _)| i.clone()).collect();
    let aliases = infer_aliases(iotps.iter());
    let merged = merge_router_level(&iotps, &aliases);
    assert_eq!(merged.len(), iotps.len());
    for (_, absorbed) in &merged {
        assert_eq!(*absorbed, 1);
    }
}

#[test]
fn te_predecessor_aliases_are_sound_too() {
    let net = small_internet(
        TopologyParams { core_routers: 7, border_routers: 3, ..TopologyParams::default() },
        MplsConfig::with_te(1.0, 3, netsim::TePathMode::SamePath),
    );
    let out = classified(&net);
    assert!(out.class_counts_for(TRANSIT).multi_fec > 0);
    let aliases = infer_aliases(out.iotps.iter().map(|(i, _)| i));
    let owners = owner_map(&net);
    for set in aliases.sets() {
        let routers: std::collections::BTreeSet<_> =
            set.iter().map(|a| owners[a]).collect();
        assert_eq!(routers.len(), 1, "alias set {set:?} is wrong");
    }
}
