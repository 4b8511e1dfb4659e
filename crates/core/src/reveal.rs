//! TNT-style revelation of hidden and invisible MPLS tunnels.
//!
//! The paper's Unclassified class exists because PHP and
//! `ttl-propagate off` hide tunnel evidence from plain traceroute. TNT
//! (the paper's successor) notices the *artifacts* such tunnels leave
//! in ordinary traces and re-probes the suspect `<ingress, egress>`
//! pair with targeted DPR walks. This module holds the
//! measurement-side half of that loop:
//!
//! * [`detect_triggers`] scans one trace for the three artifact
//!   families — the duplicate-IP signature of an invisible tunnel
//!   (the egress answers two consecutive TTLs after a pipelined pop),
//!   the u-turn RTT quirk of an implicit tunnel (interior LSRs route
//!   their ICMP replies down the LSP to the egress first, inflating
//!   RTTs by a constant detour until the egress snaps back), and the
//!   opaque one-hop stack (a tail LSR quoting a single fresh LSE with
//!   TTL 255).
//! * [`RevealedTunnel`] carries the outcome of re-probing one
//!   candidate: either the revealed interior paths or an explicitly
//!   enumerated [`RevelationStatus`] cause for why revelation was
//!   impossible — the oracle property test forbids silent misses.
//! * [`apply_revelations`] is the classifier stage: it upgrades
//!   Unclassified (and diversity-hiding Mono-LSP) IOTPs with revealed
//!   evidence and materialises IOTPs for revealed tunnels that plain
//!   extraction never saw, emitting the `revelation.*` counters.
//!
//! The probing half (running the DPR walks) lives in `netsim`, which
//! owns the simulated dataplane.

use crate::classify::{Class, Classification, MonoFecKind};
use crate::label::LabelStack;
use crate::lsp::{Asn, Branch, Iotp, IotpKey, LspHop};
use crate::pipeline::PipelineOutput;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// Minimum RTT jump (µs) between consecutive responsive hops read as a
/// tunnel *entry* by the u-turn detector. The simulator's per-hop RTT
/// grows by 1500 µs ± 900 µs jitter, so ordinary deltas stay under
/// 2400 µs while the 3000 µs u-turn detour pushes entry deltas past
/// 3600 µs — this threshold sits exactly on that gap.
pub const UTURN_ENTRY_JUMP_US: u32 = 3600;

/// The artifact families that trigger tunnel revelation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum TriggerKind {
    /// The same address answered two consecutive TTLs (and is not the
    /// destination): the signature of an invisible tunnel whose egress
    /// also answers the TTL that died inside the tunnel.
    DupIp,
    /// A hop quoted a single label stack entry with a fresh (255) LSE
    /// TTL: an opaque tunnel's tail LSR, quoting the label it received
    /// without the decrements TTL propagation would have left.
    OpaqueStack,
    /// An RTT step up of at least [`UTURN_ENTRY_JUMP_US`] followed by a
    /// later RTT drop across unlabelled hops: implicit-tunnel interior
    /// LSRs detour their replies via the egress (the u-turn), the
    /// egress itself does not.
    Uturn,
}

impl TriggerKind {
    /// Counter name of this trigger family
    /// (`revelation.trigger.<kind>`).
    pub fn counter_name(&self) -> &'static str {
        match self {
            TriggerKind::DupIp => lpr_obs::names::REVELATION_TRIGGER_DUP_IP,
            TriggerKind::OpaqueStack => lpr_obs::names::REVELATION_TRIGGER_OPAQUE,
            TriggerKind::Uturn => lpr_obs::names::REVELATION_TRIGGER_UTURN,
        }
    }

    /// Short display name (`dup_ip` / `opaque` / `uturn`).
    pub fn name(&self) -> &'static str {
        match self {
            TriggerKind::DupIp => "dup_ip",
            TriggerKind::OpaqueStack => "opaque",
            TriggerKind::Uturn => "uturn",
        }
    }
}

/// One revelation trigger: an artifact observed in a trace, pointing
/// at a candidate hidden tunnel.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Trigger {
    /// Which artifact family fired.
    pub kind: TriggerKind,
    /// Vantage point of the trace the artifact appeared in (DPR
    /// re-probes launch from here).
    pub vp: Ipv4Addr,
    /// Candidate tunnel ingress (the hop preceding the artifact).
    pub ingress: Ipv4Addr,
    /// Candidate tunnel egress (the artifact's convergence address).
    pub egress: Ipv4Addr,
}

/// Scans one trace for revelation triggers, in hop order.
///
/// Each trigger needs its *ingress* candidate (the responsive hop at
/// the preceding TTL) to anchor the re-probe; artifacts whose
/// neighbouring evidence went anonymous yield no trigger — the oracle
/// attributes those misses to anonymous evidence, not to detection.
pub fn detect_triggers(trace: &crate::trace::Trace) -> Vec<Trigger> {
    let hops = &trace.hops;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 1 < hops.len() {
        let (prev, cur) = (&hops[i], &hops[i + 1]);
        if cur.probe_ttl != prev.probe_ttl + 1 {
            i += 1;
            continue;
        }
        let (Some(prev_addr), Some(cur_addr)) = (prev.addr, cur.addr) else {
            i += 1;
            continue;
        };
        // Duplicate IP: the egress answered both the TTL that died
        // inside the invisible tunnel and its own.
        if prev_addr == cur_addr && cur_addr != trace.dst && cur.stack.is_empty() {
            if let Some(ingress) = hops[..i]
                .iter()
                .rev()
                .find(|h| h.addr.is_some_and(|a| a != cur_addr))
                .and_then(|h| h.addr)
            {
                out.push(Trigger {
                    kind: TriggerKind::DupIp,
                    vp: trace.src,
                    ingress,
                    egress: cur_addr,
                });
            }
            // Skip past the pair so an N-fold repeat fires once.
            i += 2;
            continue;
        }
        // Opaque one-hop stack: `cur` quotes a single LSE whose TTL is
        // still 255 — TTL propagation would have decremented it.
        if cur.stack.depth() == 1
            && cur.stack.entries()[0].ttl == 255
            && !prev.is_labelled()
        {
            if let Some(next) = hops.get(i + 2) {
                if next.probe_ttl == cur.probe_ttl + 1 {
                    if let Some(egress) = next.addr {
                        out.push(Trigger {
                            kind: TriggerKind::OpaqueStack,
                            vp: trace.src,
                            ingress: prev_addr,
                            egress,
                        });
                        i += 2;
                        continue;
                    }
                }
            }
        }
        // U-turn: entry = an implausibly large RTT step between
        // unlabelled hops; the egress is the first later hop whose RTT
        // drops back (the detour constant vanishing).
        if prev.stack.is_empty()
            && cur.stack.is_empty()
            && cur.rtt_us >= prev.rtt_us + UTURN_ENTRY_JUMP_US
        {
            let mut k = i + 1;
            let mut egress = None;
            while k + 1 < hops.len() {
                let (a, b) = (&hops[k], &hops[k + 1]);
                if b.probe_ttl != a.probe_ttl + 1 || b.addr.is_none() || !b.stack.is_empty()
                {
                    break;
                }
                if b.rtt_us < a.rtt_us {
                    egress = b.addr;
                    break;
                }
                k += 1;
            }
            if let Some(egress) = egress {
                out.push(Trigger {
                    kind: TriggerKind::Uturn,
                    vp: trace.src,
                    ingress: prev_addr,
                    egress,
                });
                i = k + 2;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Why a triggered candidate could (or could not) be revealed. Every
/// non-`Revealed` variant is an explicitly enumerated non-revealable
/// cause: the oracle property test accepts these and nothing else.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RevelationStatus {
    /// DPR walks exposed at least one interior path.
    Revealed,
    /// The owning AS label-switches traffic towards its own
    /// infrastructure addresses too (`infra_in_fec`), so DPR probes
    /// ride the same tunnel and reveal nothing.
    InfraTunneled,
    /// Every DPR walk came back without a usable interior — anonymous
    /// hops, rate-limited replies, or an unresolvable egress.
    Unresponsive,
    /// No DPR walk crossed the candidate ingress: the re-probe towards
    /// the egress address entered the AS elsewhere.
    IngressOffPath,
    /// The revelation probe budget ran out before this candidate.
    BudgetExhausted,
}

impl RevelationStatus {
    /// Short display name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            RevelationStatus::Revealed => "revealed",
            RevelationStatus::InfraTunneled => "infra_tunneled",
            RevelationStatus::Unresponsive => "unresponsive",
            RevelationStatus::IngressOffPath => "ingress_off_path",
            RevelationStatus::BudgetExhausted => "budget_exhausted",
        }
    }
}

/// The outcome of re-probing one triggered candidate tunnel.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RevealedTunnel {
    /// AS owning the candidate pair.
    pub asn: Asn,
    /// Tunnel ingress address (the trigger's anchor hop).
    pub ingress: Ipv4Addr,
    /// Tunnel egress address (the trigger's convergence address).
    pub egress: Ipv4Addr,
    /// Which artifact family triggered the candidate.
    pub kind: TriggerKind,
    /// Distinct interior address sequences the DPR walks exposed,
    /// sorted; empty unless `status` is `Revealed` (a revealed empty
    /// path means the pair is adjacent — no hidden routers).
    pub paths: Vec<Vec<Ipv4Addr>>,
    /// Outcome or enumerated non-revealable cause.
    pub status: RevelationStatus,
    /// Probe packets the candidate's DPR walks spent.
    pub probes: u64,
}

impl RevealedTunnel {
    /// The IOTP this evidence upgrades.
    pub fn iotp_key(&self) -> IotpKey {
        IotpKey { asn: self.asn, ingress: self.ingress, egress: self.egress }
    }
}

/// What [`apply_revelations`] did to a pipeline output.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RevelationSummary {
    /// Candidates considered (evidence entries).
    pub triggers: u64,
    /// DPR probe packets the evidence cost.
    pub probes: u64,
    /// Candidates that revealed at least one path.
    pub revealed: u64,
    /// Existing IOTPs whose class was upgraded.
    pub upgraded: u64,
    /// IOTPs newly materialised from revealed evidence.
    pub created: u64,
}

impl RevelationSummary {
    /// Total IOTPs whose classification now rests on revealed evidence
    /// (the `revelation.upgraded` counter).
    pub fn total_upgraded(&self) -> u64 {
        self.upgraded + self.created
    }
}

/// The class revealed evidence supports: revealed diversity carries no
/// labels, so it is IGP ECMP under one FEC — a single interior path is
/// a Mono-LSP, several are ECMP Mono-FEC across disjoint routers.
/// Multi-FEC is unreachable via revelation (distinct labels on a
/// common address can only be *observed*, never revealed label-less).
fn revealed_class(paths: &[Vec<Ipv4Addr>]) -> Class {
    if paths.len() > 1 {
        Class::MonoFec(MonoFecKind::RoutersDisjoint)
    } else {
        Class::MonoLsp
    }
}

/// The revelation classifier stage: upgrades `output` in place with
/// revealed evidence and returns what changed.
///
/// * An existing IOTP classified `Unclassified` whose key matches
///   revealed evidence is re-classified from the revealed paths.
/// * An existing `MonoLsp` IOTP (a single observed branch — the shape
///   an opaque tunnel's lone quirky hop produces) is upgraded when
///   revelation exposes *more* diversity than observation did.
/// * Revealed tunnels with no IOTP at all (invisible and implicit
///   tunnels leave no extractable labels) materialise a new IOTP with
///   one label-less branch per revealed path, keeping `output.iotps`
///   sorted by key.
///
/// Non-`Revealed` evidence changes nothing: under chaos the classifier
/// degrades Unclassified-ward rather than fabricating evidence.
pub fn apply_revelations(
    output: &mut PipelineOutput,
    evidence: &[RevealedTunnel],
    recorder: Option<&lpr_obs::Recorder>,
) -> RevelationSummary {
    let stage = lpr_obs::StageGuard::open(recorder, "Revelation");
    let mut summary = RevelationSummary {
        triggers: evidence.len() as u64,
        ..RevelationSummary::default()
    };
    for ev in evidence {
        summary.probes += ev.probes;
        if ev.status != RevelationStatus::Revealed {
            continue;
        }
        summary.revealed += 1;
        let key = ev.iotp_key();
        match output.iotps.binary_search_by(|(iotp, _)| iotp.key.cmp(&key)) {
            Ok(pos) => {
                let (iotp, class) = &mut output.iotps[pos];
                let upgraded = revealed_class(&ev.paths);
                let upgrade = match class.class {
                    Class::Unclassified => true,
                    // Observation saw one branch; revelation saw more.
                    Class::MonoLsp => {
                        upgraded != Class::MonoLsp && ev.paths.len() > iotp.width()
                    }
                    _ => false,
                };
                if upgrade {
                    *class = Classification {
                        class: upgraded,
                        common_ips: class.common_ips,
                        multi_label_ips: Vec::new(),
                    };
                    summary.upgraded += 1;
                }
            }
            Err(pos) => {
                let mut iotp = Iotp::new(key);
                for path in &ev.paths {
                    iotp.branches.push(Branch {
                        hops: path
                            .iter()
                            .map(|&a| LspHop::new(a, LabelStack::empty()))
                            .collect(),
                        dst_asns: BTreeSet::new(),
                        observations: 1,
                    });
                }
                let classification = Classification {
                    class: revealed_class(&ev.paths),
                    common_ips: 0,
                    multi_label_ips: Vec::new(),
                };
                output.iotps.insert(pos, (iotp, classification));
                summary.created += 1;
            }
        }
    }
    stage.finish_counts(summary.triggers, summary.total_upgraded());
    if let Some(rec) = recorder {
        rec.counter(lpr_obs::names::REVELATION_TRIGGERS).add(summary.triggers);
        rec.counter(lpr_obs::names::REVELATION_PROBES).add(summary.probes);
        rec.counter(lpr_obs::names::REVELATION_UPGRADED).add(summary.total_upgraded());
        let mut by_kind: std::collections::BTreeMap<TriggerKind, u64> =
            std::collections::BTreeMap::new();
        for ev in evidence {
            *by_kind.entry(ev.kind).or_default() += 1;
        }
        for (kind, n) in by_kind {
            rec.counter(kind.counter_name()).add(n);
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{Label, Lse};
    use crate::quarantine::DegradedReport;
    use crate::trace::{Hop, Trace};
    use crate::filter::FilterReport;

    fn ip(o: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, o)
    }

    fn hop_rtt(ttl: u8, addr: Ipv4Addr, rtt_us: u32) -> Hop {
        Hop { probe_ttl: ttl, addr: Some(addr), rtt_us, stack: LabelStack::empty() }
    }

    #[test]
    fn dup_ip_trigger_detected() {
        let mut t = Trace::new(ip(100), Ipv4Addr::new(192, 0, 2, 9));
        t.push_hop(Hop::responsive(1, ip(1)));
        t.push_hop(Hop::responsive(2, ip(5)));
        t.push_hop(Hop::responsive(3, ip(5)));
        t.push_hop(Hop::responsive(4, Ipv4Addr::new(192, 0, 2, 9)));
        t.reached = true;
        let triggers = detect_triggers(&t);
        assert_eq!(
            triggers,
            vec![Trigger {
                kind: TriggerKind::DupIp,
                vp: ip(100),
                ingress: ip(1),
                egress: ip(5),
            }]
        );
    }

    #[test]
    fn dup_ip_at_destination_is_not_a_trigger() {
        let dst = Ipv4Addr::new(192, 0, 2, 9);
        let mut t = Trace::new(ip(100), dst);
        t.push_hop(Hop::responsive(1, ip(1)));
        t.push_hop(Hop::responsive(2, dst));
        t.push_hop(Hop::responsive(3, dst));
        assert!(detect_triggers(&t).is_empty());
    }

    #[test]
    fn opaque_stack_trigger_detected() {
        let mut t = Trace::new(ip(100), Ipv4Addr::new(192, 0, 2, 9));
        t.push_hop(Hop::responsive(1, ip(1)));
        t.push_hop(Hop::labelled(2, ip(4), &[Lse::new(Label::new(300), 0, true, 255)]));
        t.push_hop(Hop::responsive(3, ip(9)));
        let triggers = detect_triggers(&t);
        assert_eq!(triggers.len(), 1);
        assert_eq!(triggers[0].kind, TriggerKind::OpaqueStack);
        assert_eq!(triggers[0].ingress, ip(1));
        assert_eq!(triggers[0].egress, ip(9));
    }

    #[test]
    fn normal_quoted_stack_is_not_opaque() {
        // Ordinary RFC 4950 quoting leaves a decremented LSE TTL.
        let mut t = Trace::new(ip(100), Ipv4Addr::new(192, 0, 2, 9));
        t.push_hop(Hop::responsive(1, ip(1)));
        t.push_hop(Hop::labelled(2, ip(4), &[Lse::new(Label::new(300), 0, true, 1)]));
        t.push_hop(Hop::responsive(3, ip(9)));
        assert!(detect_triggers(&t).is_empty());
    }

    #[test]
    fn uturn_trigger_detected() {
        let mut t = Trace::new(ip(100), Ipv4Addr::new(192, 0, 2, 9));
        t.push_hop(hop_rtt(1, ip(1), 1500));
        // Interior hops: +1500 per TTL plus the 3000 µs detour.
        t.push_hop(hop_rtt(2, ip(4), 6000));
        t.push_hop(hop_rtt(3, ip(5), 7500));
        // Egress: detour gone, RTT drops.
        t.push_hop(hop_rtt(4, ip(9), 6000));
        let triggers = detect_triggers(&t);
        assert_eq!(triggers.len(), 1);
        assert_eq!(triggers[0].kind, TriggerKind::Uturn);
        assert_eq!(triggers[0].ingress, ip(1));
        assert_eq!(triggers[0].egress, ip(9));
    }

    #[test]
    fn plain_rtt_growth_is_not_a_uturn() {
        let mut t = Trace::new(ip(100), Ipv4Addr::new(192, 0, 2, 9));
        for ttl in 1..=6u8 {
            t.push_hop(hop_rtt(ttl, ip(ttl), ttl as u32 * 1500 + (ttl as u32 * 37) % 900));
        }
        assert!(detect_triggers(&t).is_empty());
    }

    #[test]
    fn anonymous_neighbours_suppress_triggers() {
        let mut t = Trace::new(ip(100), Ipv4Addr::new(192, 0, 2, 9));
        t.push_hop(Hop::anonymous(1));
        t.push_hop(Hop::responsive(2, ip(5)));
        t.push_hop(Hop::responsive(3, ip(5)));
        assert!(detect_triggers(&t).is_empty(), "no ingress anchor, no trigger");
    }

    fn empty_output() -> PipelineOutput {
        PipelineOutput {
            iotps: Vec::new(),
            report: FilterReport::default(),
            dynamic_ases: BTreeSet::new(),
            degraded: DegradedReport::default(),
        }
    }

    fn evidence(paths: &[&[u8]], status: RevelationStatus) -> RevealedTunnel {
        RevealedTunnel {
            asn: Asn(65000),
            ingress: ip(1),
            egress: ip(9),
            kind: TriggerKind::DupIp,
            paths: paths.iter().map(|p| p.iter().map(|&o| ip(o)).collect()).collect(),
            status,
            probes: 12,
        }
    }

    #[test]
    fn revealed_tunnel_without_iotp_is_created() {
        let mut out = empty_output();
        let summary = apply_revelations(
            &mut out,
            &[evidence(&[&[4], &[5]], RevelationStatus::Revealed)],
            None,
        );
        assert_eq!(summary.created, 1);
        assert_eq!(summary.upgraded, 0);
        assert_eq!(out.iotps.len(), 1);
        assert_eq!(out.iotps[0].1.class, Class::MonoFec(MonoFecKind::RoutersDisjoint));
        assert_eq!(out.iotps[0].0.width(), 2);
    }

    #[test]
    fn single_revealed_path_is_mono_lsp() {
        let mut out = empty_output();
        apply_revelations(&mut out, &[evidence(&[&[4]], RevelationStatus::Revealed)], None);
        assert_eq!(out.iotps[0].1.class, Class::MonoLsp);
    }

    #[test]
    fn unclassified_iotp_is_upgraded_in_place() {
        let mut out = empty_output();
        let key = IotpKey { asn: Asn(65000), ingress: ip(1), egress: ip(9) };
        let mut iotp = Iotp::new(key);
        for o in [4u8, 5] {
            iotp.branches.push(Branch {
                hops: vec![LspHop::new(ip(o), LabelStack::empty())],
                dst_asns: BTreeSet::new(),
                observations: 1,
            });
        }
        out.iotps.push((
            iotp,
            Classification {
                class: Class::Unclassified,
                common_ips: 0,
                multi_label_ips: Vec::new(),
            },
        ));
        let summary = apply_revelations(
            &mut out,
            &[evidence(&[&[4], &[5]], RevelationStatus::Revealed)],
            None,
        );
        assert_eq!(summary.upgraded, 1);
        assert_eq!(summary.created, 0);
        assert_eq!(out.iotps[0].1.class, Class::MonoFec(MonoFecKind::RoutersDisjoint));
    }

    #[test]
    fn unrevealed_evidence_changes_nothing() {
        for status in [
            RevelationStatus::InfraTunneled,
            RevelationStatus::Unresponsive,
            RevelationStatus::IngressOffPath,
            RevelationStatus::BudgetExhausted,
        ] {
            let mut out = empty_output();
            let summary = apply_revelations(&mut out, &[evidence(&[], status)], None);
            assert!(out.iotps.is_empty(), "{status:?} must not fabricate IOTPs");
            assert_eq!(summary.total_upgraded(), 0);
        }
    }

    #[test]
    fn created_iotps_keep_key_order() {
        let mut out = empty_output();
        let mut later = evidence(&[&[4]], RevelationStatus::Revealed);
        later.ingress = ip(200);
        let earlier = evidence(&[&[5]], RevelationStatus::Revealed);
        apply_revelations(&mut out, &[later, earlier], None);
        assert_eq!(out.iotps.len(), 2);
        assert!(out.iotps[0].0.key < out.iotps[1].0.key);
    }

    #[test]
    fn counters_reconcile_with_summary() {
        let rec = lpr_obs::Recorder::new("reveal");
        let mut out = empty_output();
        let summary = apply_revelations(
            &mut out,
            &[
                evidence(&[&[4]], RevelationStatus::Revealed),
                evidence(&[], RevelationStatus::Unresponsive),
            ],
            Some(&rec),
        );
        let telemetry = rec.finish();
        assert_eq!(telemetry.counter("revelation.triggers"), summary.triggers);
        assert_eq!(telemetry.counter("revelation.probes"), summary.probes);
        assert_eq!(telemetry.counter("revelation.upgraded"), summary.total_upgraded());
        assert_eq!(telemetry.counter("revelation.trigger.dup_ip"), 2);
    }
}
