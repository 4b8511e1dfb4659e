//! Probe/reply-level fault plans.

use crate::splitmix64;
use lpr_core::label::LabelStack;
use lpr_core::trace::{Hop, Trace};
use std::net::Ipv4Addr;

// Per-fault-kind salts: the same (vp, dst, ttl) rolls independently for
// each fault, so e.g. raising the loss rate never reshuffles which hops
// go PHP-silent.
const LOSS_SALT: u64 = 0x4C4F_5353_0000_0001;
const RATE_LIMIT_SALT: u64 = 0x5241_5445_0000_0002;
const PHP_SILENT_SALT: u64 = 0x5048_5053_0000_0003;
const TRUNCATE_SALT: u64 = 0x5452_554E_0000_0004;
const DUPLICATE_SALT: u64 = 0x4455_504C_0000_0005;
const REORDER_SALT: u64 = 0x5245_4F52_0000_0006;
const TRIGGER_LOSS_SALT: u64 = 0x5452_4947_0000_0007;
const DPR_RATE_SALT: u64 = 0x4450_5252_0000_0008;

/// A deterministic, seeded fault plan for a measurement campaign.
///
/// Each field is an independent fault probability in `[0, 1]`. All
/// decisions are pure functions of `(seed, fault kind, identifiers)` —
/// see the predicate methods — so the plan is `Copy`, `Sync`-friendly
/// and replays identically anywhere.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed every fault decision derives from.
    pub seed: u64,
    /// Per-probe reply loss (the hop turns anonymous).
    pub probe_loss: f64,
    /// Per-probe ICMP rate limiting at the replying router (the hop
    /// turns anonymous; keyed by router, so a rate-limited router drops
    /// a correlated share of its replies).
    pub rate_limit: f64,
    /// Per-*router* PHP-style label silence: the router responds but
    /// never quotes its RFC 4950 stack, hiding the tunnel from LPR.
    pub php_silence: f64,
    /// Per-hop truncation of the quoted label stack to its top entry
    /// (a cut RFC 4950 extension).
    pub truncate_ext: f64,
    /// Per-hop duplicated reply (the same probe answered twice).
    pub duplicate_reply: f64,
    /// Per-hop reply reordering (swapped with its successor).
    pub reorder_reply: f64,
    /// Per-candidate loss of a revelation trigger: the artifact reply
    /// that would have fired the tunnel-revelation phase never arrives,
    /// so the candidate is silently not re-probed. Only the revelation
    /// phase consults this — legacy campaigns are unaffected.
    pub trigger_loss: f64,
    /// Per-flow ICMP rate limiting of DPR (revelation) re-probe walks:
    /// the targeted walk elicits nothing and contributes no revealed
    /// path. Only the revelation phase consults this.
    pub dpr_rate_limit: f64,
    /// Byte-level corruption rate for encoded warts streams (consumed
    /// by [`crate::corrupt_warts_bytes`], carried here so one plan
    /// describes a whole chaos run).
    pub corruption: f64,
}

impl FaultPlan {
    /// The quiet plan: a seed but no faults.
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            probe_loss: 0.0,
            rate_limit: 0.0,
            php_silence: 0.0,
            truncate_ext: 0.0,
            duplicate_reply: 0.0,
            reorder_reply: 0.0,
            trigger_loss: 0.0,
            dpr_rate_limit: 0.0,
            corruption: 0.0,
        }
    }

    /// A plan exercising every fault at `rate` (structural faults —
    /// duplication and reordering — at half of it, since each damaged
    /// trace is quarantined wholesale).
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            probe_loss: rate,
            rate_limit: rate / 2.0,
            php_silence: rate,
            truncate_ext: rate,
            duplicate_reply: rate / 2.0,
            reorder_reply: rate / 2.0,
            trigger_loss: rate,
            dpr_rate_limit: rate,
            corruption: rate,
        }
    }

    /// Whether the plan injects nothing.
    pub fn is_quiet(&self) -> bool {
        self.probe_loss <= 0.0
            && self.rate_limit <= 0.0
            && self.php_silence <= 0.0
            && self.truncate_ext <= 0.0
            && self.duplicate_reply <= 0.0
            && self.reorder_reply <= 0.0
            && self.trigger_loss <= 0.0
            && self.dpr_rate_limit <= 0.0
            && self.corruption <= 0.0
    }

    fn roll(&self, salt: u64, key: u64, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let h = splitmix64(self.seed ^ salt ^ splitmix64(key));
        (h >> 11) as f64 / ((1u64 << 53) as f64) < rate
    }

    fn probe_key(vp: Ipv4Addr, dst: Ipv4Addr, ttl: u8) -> u64 {
        ((u32::from(vp) as u64) << 32 | u32::from(dst) as u64) ^ ((ttl as u64) << 1)
    }

    /// Whether this probe's reply is lost in transit.
    pub fn lose_probe(&self, vp: Ipv4Addr, dst: Ipv4Addr, ttl: u8) -> bool {
        self.roll(LOSS_SALT, Self::probe_key(vp, dst, ttl), self.probe_loss)
    }

    /// Whether the replying router rate-limits this probe's ICMP.
    pub fn rate_limited(&self, router: Ipv4Addr, ttl: u8) -> bool {
        self.roll(RATE_LIMIT_SALT, (u32::from(router) as u64) << 8 | ttl as u64, self.rate_limit)
    }

    /// Whether `router` is PHP-silent for the whole campaign (responds,
    /// but never quotes a label stack).
    pub fn php_silent(&self, router: Ipv4Addr) -> bool {
        self.roll(PHP_SILENT_SALT, u32::from(router) as u64, self.php_silence)
    }

    /// Whether this hop's quoted stack arrives truncated to one entry.
    pub fn truncate_stack(&self, router: Ipv4Addr, ttl: u8) -> bool {
        self.roll(TRUNCATE_SALT, (u32::from(router) as u64) << 8 | ttl as u64, self.truncate_ext)
    }

    /// Whether this probe's reply is duplicated.
    pub fn duplicate_reply(&self, vp: Ipv4Addr, dst: Ipv4Addr, ttl: u8) -> bool {
        self.roll(DUPLICATE_SALT, Self::probe_key(vp, dst, ttl), self.duplicate_reply)
    }

    /// Whether this reply overtakes its successor (arrives reordered).
    pub fn reorder_reply(&self, vp: Ipv4Addr, dst: Ipv4Addr, ttl: u8) -> bool {
        self.roll(REORDER_SALT, Self::probe_key(vp, dst, ttl), self.reorder_reply)
    }

    /// Whether the revelation trigger for the `(ingress, egress)`
    /// candidate pair is lost before detection fires.
    pub fn trigger_lost(&self, ingress: Ipv4Addr, egress: Ipv4Addr) -> bool {
        self.roll(
            TRIGGER_LOSS_SALT,
            (u32::from(ingress) as u64) << 32 | u32::from(egress) as u64,
            self.trigger_loss,
        )
    }

    /// Whether the `k`-th DPR re-probe walk towards `egress` is
    /// rate-limited away (keyed by target, so a limited egress drops a
    /// correlated share of its revelation walks).
    pub fn dpr_rate_limited(&self, egress: Ipv4Addr, k: usize) -> bool {
        self.roll(
            DPR_RATE_SALT,
            (u32::from(egress) as u64) << 16 | (k as u64 & 0xFFFF),
            self.dpr_rate_limit,
        )
    }

    /// Applies the reply-content faults (loss, rate limiting, PHP
    /// silence, stack truncation) to one trace in place.
    pub fn degrade_replies(&self, trace: &mut Trace, counts: &mut FaultCounts) {
        let (vp, dst) = (trace.src, trace.dst);
        for hop in &mut trace.hops {
            let addr = match hop.addr {
                Some(a) => a,
                None => continue,
            };
            let ttl = hop.probe_ttl;
            if self.lose_probe(vp, dst, ttl) {
                *hop = Hop::anonymous(ttl);
                counts.lost += 1;
                continue;
            }
            if self.rate_limited(addr, ttl) {
                *hop = Hop::anonymous(ttl);
                counts.rate_limited += 1;
                continue;
            }
            if hop.is_labelled() && self.php_silent(addr) {
                hop.stack = LabelStack::empty();
                counts.php_silenced += 1;
                continue;
            }
            if hop.stack.depth() > 1 && self.truncate_stack(addr, ttl) {
                hop.stack = LabelStack::from_entries(&hop.stack.entries()[..1]);
                counts.truncated_exts += 1;
            }
        }
    }

    /// Applies the structural faults (duplicated and reordered replies)
    /// to one trace in place. The resulting hop list may violate the
    /// strictly-increasing-TTL invariant — that is the point: such a
    /// trace is exactly what `lpr_core`'s quarantine must catch.
    pub fn degrade_structure(&self, trace: &mut Trace, counts: &mut FaultCounts) {
        let (vp, dst) = (trace.src, trace.dst);
        if trace.hops.iter().any(|h| self.duplicate_reply(vp, dst, h.probe_ttl)) {
            let mut hops = Vec::with_capacity(trace.hops.len() + 2);
            for hop in trace.hops.drain(..) {
                let dup = self.duplicate_reply(vp, dst, hop.probe_ttl);
                if dup {
                    hops.push(hop.clone());
                    counts.duplicated += 1;
                }
                hops.push(hop);
            }
            trace.hops = hops;
        }
        let len = trace.hops.len();
        for i in 0..len.saturating_sub(1) {
            if self.reorder_reply(vp, dst, trace.hops[i].probe_ttl)
                && trace.hops[i].probe_ttl != trace.hops[i + 1].probe_ttl
            {
                trace.hops.swap(i, i + 1);
                counts.reordered += 1;
            }
        }
    }

    /// Applies every reply-level fault to one trace in place.
    pub fn degrade_trace(&self, trace: &mut Trace, counts: &mut FaultCounts) {
        self.degrade_replies(trace, counts);
        self.degrade_structure(trace, counts);
    }

    /// Degrades a whole campaign in place, returning the tally of
    /// injected faults.
    pub fn degrade_traces(&self, traces: &mut [Trace]) -> FaultCounts {
        let mut counts = FaultCounts::default();
        for trace in traces {
            self.degrade_trace(trace, &mut counts);
        }
        counts
    }
}

/// Counts of faults a plan actually injected into a set of traces.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Replies lost in transit.
    pub lost: u64,
    /// Replies dropped by router-side ICMP rate limiting.
    pub rate_limited: u64,
    /// Labelled hops whose stack was hidden by PHP silence.
    pub php_silenced: u64,
    /// Hops whose quoted stack was truncated to its top entry.
    pub truncated_exts: u64,
    /// Duplicated replies inserted.
    pub duplicated: u64,
    /// Adjacent reply pairs swapped.
    pub reordered: u64,
    /// Revelation triggers whose artifact reply was lost.
    pub trigger_replies_lost: u64,
    /// DPR revelation walks suppressed by ICMP rate limiting.
    pub dpr_rate_limited: u64,
}

impl FaultCounts {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.lost
            + self.rate_limited
            + self.php_silenced
            + self.truncated_exts
            + self.duplicated
            + self.reordered
            + self.trigger_replies_lost
            + self.dpr_rate_limited
    }

    /// Accumulates another tally.
    pub fn merge(&mut self, other: &FaultCounts) {
        self.lost += other.lost;
        self.rate_limited += other.rate_limited;
        self.php_silenced += other.php_silenced;
        self.truncated_exts += other.truncated_exts;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        self.trigger_replies_lost += other.trigger_replies_lost;
        self.dpr_rate_limited += other.dpr_rate_limited;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpr_core::label::Lse;

    fn ip(o: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, o)
    }

    fn sample_trace(dst_octet: u8) -> Trace {
        let mut t = Trace::new(ip(1), Ipv4Addr::new(192, 0, 2, dst_octet));
        t.push_hop(Hop::responsive(1, ip(2)));
        t.push_hop(Hop::labelled(2, ip(3), &[Lse::transit(100, 254), Lse::transit(7, 254)]));
        t.push_hop(Hop::labelled(3, ip(4), &[Lse::transit(200, 253)]));
        t.push_hop(Hop::responsive(4, Ipv4Addr::new(192, 0, 2, dst_octet)));
        t.reached = true;
        t
    }

    #[test]
    fn quiet_plan_is_identity() {
        let plan = FaultPlan::none(42);
        assert!(plan.is_quiet());
        let mut traces: Vec<Trace> = (0..32).map(sample_trace).collect();
        let orig = traces.clone();
        let counts = plan.degrade_traces(&mut traces);
        assert_eq!(counts, FaultCounts::default());
        assert_eq!(traces, orig);
    }

    #[test]
    fn degradation_is_deterministic() {
        let plan = FaultPlan::uniform(7, 0.3);
        let mut a: Vec<Trace> = (0..64).map(sample_trace).collect();
        let mut b = a.clone();
        let ca = plan.degrade_traces(&mut a);
        let cb = plan.degrade_traces(&mut b);
        assert_eq!(a, b);
        assert_eq!(ca, cb);
        assert!(ca.total() > 0, "30% across six faults must fire on 64 traces");
    }

    #[test]
    fn seeds_vary_the_fault_pattern() {
        let mut a: Vec<Trace> = (0..64).map(sample_trace).collect();
        let mut b = a.clone();
        FaultPlan::uniform(1, 0.3).degrade_traces(&mut a);
        FaultPlan::uniform(2, 0.3).degrade_traces(&mut b);
        assert_ne!(a, b, "different seeds, different degradation");
    }

    #[test]
    fn full_rates_hit_every_hop() {
        let mut plan = FaultPlan::none(0);
        plan.probe_loss = 1.0;
        let mut t = sample_trace(9);
        let mut counts = FaultCounts::default();
        plan.degrade_replies(&mut t, &mut counts);
        assert!(t.hops.iter().all(|h| !h.is_responsive()));
        assert_eq!(counts.lost, 4);
    }

    #[test]
    fn php_silence_hides_labels_but_keeps_replies() {
        let mut plan = FaultPlan::none(0);
        plan.php_silence = 1.0;
        let mut t = sample_trace(9);
        let mut counts = FaultCounts::default();
        plan.degrade_replies(&mut t, &mut counts);
        assert!(t.hops.iter().all(|h| h.is_responsive()));
        assert!(t.hops.iter().all(|h| !h.is_labelled()));
        assert_eq!(counts.php_silenced, 2);
    }

    #[test]
    fn truncation_keeps_only_the_top_entry() {
        let mut plan = FaultPlan::none(0);
        plan.truncate_ext = 1.0;
        let mut t = sample_trace(9);
        let mut counts = FaultCounts::default();
        plan.degrade_replies(&mut t, &mut counts);
        assert_eq!(counts.truncated_exts, 1, "only the depth-2 stack can truncate");
        assert!(t.hops.iter().all(|h| h.stack.depth() <= 1));
    }

    #[test]
    fn structural_faults_break_ttl_monotonicity() {
        let mut plan = FaultPlan::none(3);
        plan.duplicate_reply = 1.0;
        let mut t = sample_trace(9);
        let mut counts = FaultCounts::default();
        plan.degrade_structure(&mut t, &mut counts);
        assert_eq!(counts.duplicated, 4);
        assert_eq!(t.hops.len(), 8);
        let monotonic = t.hops.windows(2).all(|w| w[0].probe_ttl < w[1].probe_ttl);
        assert!(!monotonic, "duplicates must violate strict TTL order");
    }
}
