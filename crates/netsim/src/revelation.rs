//! The revelation probing phase: TNT-style targeted re-probing of
//! hidden-tunnel candidates.
//!
//! Plain traceroute campaigns miss tunnels whose routers hide the
//! MPLS evidence (`ttl-propagate off`, suppressed RFC 4950 quoting,
//! opaque one-hop stacks). They still leave artifacts —
//! [`lpr_core::reveal::detect_triggers`] finds them — and this module
//! turns each triggered `<ingress, egress>` candidate into DPR-style
//! re-probes: traceroutes aimed *at the egress's own address*. Routers
//! do not label-switch traffic towards their AS's infrastructure
//! addresses (unless the operator put them in a FEC, see
//! [`crate::internet::MplsConfig::infra_in_fec`]), so the re-probe
//! walks the tunnel's interior hop by hop, revealing it.
//!
//! Everything derives from `(seed, candidate, flow index)`, so
//! revelation campaigns replay bit-identically and shard over threads
//! with the same shard-order merge discipline the base campaign uses.
//!
//! The module also hosts the *revelation oracle* used by the property
//! tests: [`oracle_traversals`] replays the campaign's forwarding walks
//! with the dataplane's ground-truth recorder attached, enumerating
//! every hidden traversal that actually happened, and
//! [`on_shortest_dag`] checks interior membership in the IGP's
//! shortest-path DAG (every LDP LSP follows it).

use crate::dataplane::{probe_ladder, OracleTraversal};
use crate::internet::{splitmix64, Internet};
use crate::probe::{CampaignOutput, Prober};
use crate::topology::{AsId, RouterId};
use lpr_chaos::FaultCounts;
use lpr_core::reveal::{detect_triggers, RevealedTunnel, RevelationStatus, TriggerKind};
use lpr_core::trace::Trace;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// Salt folded into revelation flow identifiers so DPR walks explore
/// the ECMP space independently of the base campaign's Paris flows.
pub const REVEAL_SALT: u64 = 0x5245_5645_414C_5F31;

/// Parameters of the revelation phase.
#[derive(Clone, Copy, Debug)]
pub struct RevelationOptions {
    /// DPR walks (distinct flow identifiers) per candidate tunnel.
    pub flows: usize,
    /// Probe-packet budget for the whole phase. Candidates are cut off
    /// *a priori* on their worst-case cost (`flows × max_ttl`), keeping
    /// the cutoff — and thus the output — independent of thread count.
    pub max_probes: u64,
}

impl Default for RevelationOptions {
    fn default() -> Self {
        RevelationOptions { flows: 4, max_probes: u64::MAX }
    }
}

/// One deduplicated revelation candidate, with everything the probing
/// stage needs resolved up front.
struct Candidate {
    kind: TriggerKind,
    vp: Ipv4Addr,
    ingress: Ipv4Addr,
    egress: Ipv4Addr,
    asn: lpr_core::lsp::Asn,
    /// Router-level identities (candidate addresses are interface or
    /// loopback addresses; DPR walks may see other interfaces of the
    /// same routers).
    ingress_router: Option<RouterId>,
    egress_router: Option<RouterId>,
    /// Status decided before probing (`InfraTunneled`,
    /// `BudgetExhausted`, or unresolvable ⇒ `Unresponsive`); `None`
    /// means the candidate gets probed.
    predecided: Option<RevelationStatus>,
}

/// Detects triggers across `traces` (in order), deduplicates them by
/// `(ingress, egress)` keeping the first, and resolves each candidate
/// against the simulated topology. Returns the worklist in detection
/// order; `injected` tallies trigger replies the fault plan ate.
fn collect_candidates(
    prober: &Prober<'_>,
    traces: &[Trace],
    opts: &RevelationOptions,
    injected: &mut FaultCounts,
) -> Vec<Candidate> {
    let net = prober.net;
    let mut seen: BTreeSet<(Ipv4Addr, Ipv4Addr)> = BTreeSet::new();
    let mut out = Vec::new();
    for trace in traces {
        for trigger in detect_triggers(trace) {
            if let Some(plan) = prober.fault_plan() {
                if plan.trigger_lost(trigger.ingress, trigger.egress) {
                    injected.trigger_replies_lost += 1;
                    continue;
                }
            }
            if !seen.insert((trigger.ingress, trigger.egress)) {
                continue;
            }
            let egress_at = net.infra_attachment(trigger.egress);
            let ingress_at = net.infra_attachment(trigger.ingress);
            let (asn, predecided) = match egress_at {
                Some(at) => {
                    let asn = net.topo.as_of(at.as_id).asn;
                    if net.config(at.as_id).infra_in_fec {
                        // Probes towards this AS's infrastructure ride
                        // the same tunnels: nothing to walk.
                        (asn, Some(RevelationStatus::InfraTunneled))
                    } else {
                        (asn, None)
                    }
                }
                // The artifact converged on a non-infrastructure
                // address (e.g. the traced destination): nothing to
                // aim a DPR walk at.
                None => (lpr_core::lsp::Asn(0), Some(RevelationStatus::Unresponsive)),
            };
            out.push(Candidate {
                kind: trigger.kind,
                vp: trigger.vp,
                ingress: trigger.ingress,
                egress: trigger.egress,
                asn,
                ingress_router: ingress_at.map(|a| a.router),
                egress_router: egress_at.map(|a| a.router),
                predecided,
            });
        }
    }
    // Budget cutoff on worst-case cost, decided before any probing so
    // the cutoff is identical at every thread count.
    let worst_case = (opts.flows as u64) * (prober.opts.max_ttl as u64);
    let mut committed = 0u64;
    for cand in &mut out {
        if cand.predecided.is_some() {
            continue;
        }
        if committed + worst_case > opts.max_probes {
            cand.predecided = Some(RevelationStatus::BudgetExhausted);
        } else {
            committed += worst_case;
        }
    }
    out
}

/// Runs the DPR walks for one probeable candidate.
fn probe_candidate(
    prober: &Prober<'_>,
    cand: &Candidate,
    flows: usize,
    injected: &mut FaultCounts,
) -> RevealedTunnel {
    let net = prober.net;
    let egress_router = cand.egress_router.expect("probeable candidates resolve their egress");
    let mut paths: BTreeSet<Vec<Ipv4Addr>> = BTreeSet::new();
    let mut probes = 0u64;
    let mut reached_egress = false;
    let mut ingress_on_path = false;
    for k in 0..flows {
        if let Some(plan) = prober.fault_plan() {
            if plan.dpr_rate_limited(cand.egress, k) {
                injected.dpr_rate_limited += 1;
                continue;
            }
        }
        let flow = splitmix64(
            (u32::from(cand.ingress) as u64)
                ^ ((u32::from(cand.egress) as u64) << 32)
                ^ ((k as u64) << 17)
                ^ prober.opts.seed
                ^ REVEAL_SALT,
        );
        let (trace, p) = prober.run_ladder(cand.vp, cand.egress, flow, injected);
        probes += p;
        let router_of = |h: &lpr_core::trace::Hop| {
            h.addr.and_then(|a| net.infra_attachment(a)).map(|a| a.router)
        };
        let egress_pos = trace.hops.iter().position(|h| router_of(h) == Some(egress_router));
        if egress_pos.is_some() {
            reached_egress = true;
        }
        let Some(ingress_router) = cand.ingress_router else { continue };
        let Some(ingress_pos) =
            trace.hops.iter().position(|h| router_of(h) == Some(ingress_router))
        else {
            continue;
        };
        let Some(egress_pos) = egress_pos.filter(|&e| e > ingress_pos) else { continue };
        ingress_on_path = true;
        let interior = &trace.hops[ingress_pos + 1..egress_pos];
        if interior.iter().any(|h| !h.is_responsive()) {
            // An anonymous hole inside the walk: an incomplete interior
            // would understate the LSP, so the flow contributes nothing.
            continue;
        }
        paths.insert(interior.iter().map(|h| h.addr.expect("checked responsive")).collect());
    }
    let status = if !paths.is_empty() {
        RevelationStatus::Revealed
    } else if reached_egress && !ingress_on_path {
        RevelationStatus::IngressOffPath
    } else {
        RevelationStatus::Unresponsive
    };
    RevealedTunnel {
        asn: cand.asn,
        ingress: cand.ingress,
        egress: cand.egress,
        kind: cand.kind,
        paths: if status == RevelationStatus::Revealed {
            paths.into_iter().collect()
        } else {
            Vec::new()
        },
        status,
        probes,
    }
}

/// The revelation phase of a campaign: detect triggers in `out.traces`,
/// re-probe each candidate with DPR walks, and record the evidence in
/// detection order in `out.evidence`. Its costs are folded into
/// `out.budget` (the `revelation_*` fields; `probes_sent` includes the
/// DPR walks) and its injected faults into `out.faults`.
///
/// Sharded over `threads` workers with the shard-order merge
/// discipline: every candidate's walks derive only from the candidate
/// and the campaign seed, so the evidence and fault tallies are
/// byte-identical to the sequential run for any thread count.
pub(crate) fn reveal(
    prober: &Prober<'_>,
    opts: &RevelationOptions,
    threads: usize,
    out: &mut CampaignOutput,
) {
    let candidates = collect_candidates(prober, &out.traces, opts, &mut out.faults);
    let tracer = prober.tracer();
    let span = tracer.span("revelation");
    let flows = opts.flows;
    let run_one = |cand: &Candidate, injected: &mut FaultCounts| match cand.predecided {
        Some(status) => RevealedTunnel {
            asn: cand.asn,
            ingress: cand.ingress,
            egress: cand.egress,
            kind: cand.kind,
            paths: Vec::new(),
            status,
            probes: 0,
        },
        None => probe_candidate(prober, cand, flows, injected),
    };
    let run = lpr_par::map_shards_traced(
        &candidates,
        lpr_par::ShardOptions::new(threads),
        lpr_par::ShardTrace::new(&tracer, span.context()),
        |_, shard| {
            let mut injected = FaultCounts::default();
            let evidence: Vec<RevealedTunnel> =
                shard.iter().map(|c| run_one(c, &mut injected)).collect();
            (evidence, injected)
        },
    )
    .expect_ok();
    out.evidence.reserve(candidates.len());
    for (evidence, injected) in run.outputs {
        out.evidence.extend(evidence);
        out.faults.merge(&injected);
    }
    let budget = &mut out.budget;
    budget.revelation_triggers = out.evidence.len() as u64;
    for ev in &out.evidence {
        budget.revelation_probes += ev.probes;
        if ev.status == RevelationStatus::Revealed {
            budget.revelation_revealed += 1;
        }
    }
    budget.probes_sent += budget.revelation_probes;
}

/// The revelation oracle: replays the campaign's forwarding walks with
/// the dataplane's ground-truth recorder attached and returns every
/// non-explicit tunnel traversal that actually happened, in row-major
/// `(vp, dst)` order. Fault plans, anonymity and RTTs play no part —
/// this is what the network *did*, not what traceroute saw.
pub fn oracle_traversals(
    prober: &Prober<'_>,
    vps: &[Ipv4Addr],
    dsts: &[Ipv4Addr],
) -> Vec<OracleTraversal> {
    let mut out = Vec::new();
    for &vp in vps {
        for &dst in dsts {
            let flow = prober.flow(vp, dst);
            let mut events = Vec::new();
            probe_ladder(
                prober.net,
                vp,
                dst,
                flow,
                prober.opts.max_ttl as usize,
                &mut events,
                Some(&mut out),
            );
        }
    }
    out
}

/// Whether router `r` lies on the IGP shortest-path DAG from `ingress`
/// to `egress` inside one AS — true exactly when some equal-cost
/// shortest path passes through it. LDP LSPs follow this DAG, so every
/// interior address a correct revelation reports must map to a router
/// satisfying this.
pub fn on_shortest_dag(
    net: &Internet,
    as_id: AsId,
    ingress: RouterId,
    egress: RouterId,
    r: RouterId,
) -> bool {
    let igp = net.igp(as_id);
    match (igp.distance(ingress, r), igp.distance(r, egress), igp.distance(ingress, egress)) {
        (Some(head), Some(tail), Some(total)) => head + tail == total,
        _ => false,
    }
}
