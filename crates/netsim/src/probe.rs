//! The Paris-traceroute probing engine.
//!
//! [`Prober`] runs full TTL ladders and produces
//! [`lpr_core::trace::Trace`]s — the exact input LPR consumes. It
//! models the measurement artefacts the paper's filtering stage exists
//! for:
//!
//! * **anonymous routers**: each probe independently goes unanswered
//!   with the replying AS's `anonymous_rate` (feeding the
//!   IncompleteLsp filter);
//! * **flow churn**: between snapshots a small fraction of `(vp, dst)`
//!   flows hash onto different ECMP paths (routing noise, feeding the
//!   Persistence filter);
//! * Paris behaviour: within one trace the flow identifier is constant,
//!   so one trace follows one path.
//!
//! Everything derives from `(seed, snapshot_salt, vp, dst, ttl)` — no
//! hidden RNG state — so campaigns replay bit-identically.
//!
//! [`Prober::campaign`] is the one way to run a campaign, whatever the
//! [`ProbingStrategy`], with or without the revelation phase. It returns
//! a [`CampaignOutput`]: the traces, the probe budget, the revelation
//! evidence and the tally of faults a [`FaultPlan`] injected. The prober
//! itself keeps no tally and holds no mutable state.

use crate::dataplane::{probe_ladder, LadderEnd, ProbeReply};
use crate::internet::{splitmix64, Internet};
use crate::mda::{self, ProbingStrategy};
use crate::revelation::RevelationOptions;
use lpr_chaos::{FaultCounts, FaultPlan};
use lpr_core::reveal::RevealedTunnel;
use lpr_core::trace::{Hop, Trace};
use std::net::Ipv4Addr;

/// Extra round-trip time (µs) on replies that detoured via a tunnel
/// tail before returning — the implicit-tunnel u-turn artifact (the
/// interior LSR forwards the ICMP reply down the LSP to the egress,
/// which routes it back). Sized well above the synthetic RTT jitter
/// (±900 µs) so the [`lpr_core::reveal`] RTLA detector separates the
/// two cleanly.
pub const UTURN_DETOUR_US: u32 = 3000;

/// Probing parameters.
#[derive(Clone, Debug)]
pub struct ProbeOptions {
    /// Highest TTL probed.
    pub max_ttl: u8,
    /// Consecutive unanswered probes before giving up (scamper's gap
    /// limit).
    pub gap_limit: u8,
    /// Campaign seed.
    pub seed: u64,
    /// Snapshot discriminator: anonymity and churn vary with it while
    /// the Paris flow stays put (unless churned).
    pub snapshot_salt: u64,
    /// Fraction of `(vp, dst)` flows remapped this snapshot.
    pub flow_churn_rate: f64,
    /// How campaigns spend probes: exhaustive every-pair walks (the
    /// default — today's behaviour, the golden shape) or the
    /// [`crate::mda`] stopping rules pruning each `(vp, /24)` host
    /// group once its ECMP width is statistically settled.
    pub probing: ProbingStrategy,
}

impl Default for ProbeOptions {
    fn default() -> Self {
        ProbeOptions {
            max_ttl: 32,
            gap_limit: 5,
            seed: 0,
            snapshot_salt: 0,
            flow_churn_rate: 0.0,
            probing: ProbingStrategy::Exhaustive,
        }
    }
}

/// Per-campaign probe-budget accounting: what a campaign spent and what
/// the stopping rule saved. Under [`ProbingStrategy::Exhaustive`] every
/// pair is probed and nothing is pruned; the stochastic strategies
/// prune whole pairs once a host group's widest hop meets its `n_k`
/// threshold.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProbeBudget {
    /// `(vp, dst)` pairs the campaign was asked to cover.
    pub pairs_total: u64,
    /// Pairs actually traced (emitted a trace).
    pub pairs_probed: u64,
    /// Pairs skipped by the stopping rule.
    pub pairs_pruned: u64,
    /// Flow-varied ladder walks that produced emitted traces.
    pub flows_traced: u64,
    /// Probe packets sent, re-confirmation walks included.
    pub probes_sent: u64,
    /// Steered per-hop re-confirmation walks ([`ProbingStrategy::Mda`]
    /// only).
    pub confirmations: u64,
    /// Host groups whose stopping rule settled within the group.
    pub groups_stopped: u64,
    /// Host groups that ran out of hosts before the rule settled.
    pub groups_exhausted: u64,
    /// Hidden-tunnel candidates the revelation phase considered
    /// (deduplicated triggers).
    pub revelation_triggers: u64,
    /// Probe packets the revelation phase's DPR walks spent (also
    /// folded into `probes_sent`).
    pub revelation_probes: u64,
    /// Candidates the revelation phase revealed at least one interior
    /// path for.
    pub revelation_revealed: u64,
}

impl ProbeBudget {
    /// Folds another tally into this one, field-wise.
    pub fn merge(&mut self, other: &ProbeBudget) {
        self.pairs_total += other.pairs_total;
        self.pairs_probed += other.pairs_probed;
        self.pairs_pruned += other.pairs_pruned;
        self.flows_traced += other.flows_traced;
        self.probes_sent += other.probes_sent;
        self.confirmations += other.confirmations;
        self.groups_stopped += other.groups_stopped;
        self.groups_exhausted += other.groups_exhausted;
        self.revelation_triggers += other.revelation_triggers;
        self.revelation_probes += other.revelation_probes;
        self.revelation_revealed += other.revelation_revealed;
    }

    /// Probe packets per requested destination pair — the headline
    /// MDA-Lite economy number.
    pub fn probes_per_pair(&self) -> f64 {
        self.probes_sent as f64 / self.pairs_total.max(1) as f64
    }
}

/// What one [`Prober::campaign`] produced and spent.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CampaignOutput {
    /// Emitted traces in row-major `(vp, dst)` order; pairs the stopping
    /// rule pruned emit nothing.
    pub traces: Vec<Trace>,
    /// What the campaign spent and pruned, revelation included.
    pub budget: ProbeBudget,
    /// Revelation evidence in detection order (empty without
    /// revelation).
    pub evidence: Vec<RevealedTunnel>,
    /// Faults the prober's [`FaultPlan`] injected, revelation included
    /// (zero without a plan).
    pub faults: FaultCounts,
}

/// Handles to the `probe.*` metrics a [`Prober`] maintains.
struct ProbeMetrics {
    /// Probes sent (`probe.sent`): one per TTL step.
    sent: std::sync::Arc<lpr_obs::Counter>,
    /// Replies received (`probe.replies`): everything but anonymous
    /// losses.
    replies: std::sync::Arc<lpr_obs::Counter>,
    /// Probes lost to anonymous routers (`probe.anonymous`).
    anonymous: std::sync::Arc<lpr_obs::Counter>,
    /// RFC 4950 quoted label-stack depth per time-exceeded reply
    /// (`probe.stack_depth`); depth 0 means no labels quoted.
    stack_depth: std::sync::Arc<lpr_obs::Histogram>,
    /// Flow walks that produced emitted traces (`probe.budget.flows`).
    budget_flows: std::sync::Arc<lpr_obs::Counter>,
    /// Pairs pruned by the stopping rule (`probe.budget.pruned`).
    budget_pruned: std::sync::Arc<lpr_obs::Counter>,
    /// Host groups settled by the rule (`probe.budget.stopped`).
    budget_stopped: std::sync::Arc<lpr_obs::Counter>,
    /// Host groups that ran dry first (`probe.budget.exhausted`).
    budget_exhausted: std::sync::Arc<lpr_obs::Counter>,
    /// The recorder's span/event journal: campaigns run inside a
    /// `campaign` span with per-shard child spans (inert by default).
    tracer: lpr_obs::Tracer,
}

/// A traceroute engine bound to one simulated Internet. It holds no
/// mutable state, so shard workers share it directly.
pub struct Prober<'a> {
    pub(crate) net: &'a Internet,
    pub(crate) opts: ProbeOptions,
    metrics: Option<ProbeMetrics>,
    faults: Option<FaultPlan>,
}

impl<'a> Prober<'a> {
    /// Binds a prober to a network.
    pub fn new(net: &'a Internet, opts: ProbeOptions) -> Self {
        Prober { net, opts, metrics: None, faults: None }
    }

    /// Injects the plan's measurement-layer faults (probe loss, ICMP
    /// rate limiting, PHP silence, truncated label-stack extensions,
    /// duplicated and reordered replies) into every trace this prober
    /// runs; a campaign reports what fired in [`CampaignOutput::faults`].
    /// Fault decisions derive from the plan's own seed, so the same plan
    /// over the same campaign replays bit-identically — and a quiet plan
    /// is the identity.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Tallies probing activity into `recorder`'s registry: `probe.sent`,
    /// `probe.replies`, `probe.anonymous` counters and the
    /// `probe.stack_depth` histogram of RFC 4950 quoted stack depths.
    pub fn with_recorder(mut self, recorder: &lpr_obs::Recorder) -> Self {
        self.metrics = Some(ProbeMetrics {
            sent: recorder.counter(lpr_obs::names::PROBE_SENT),
            replies: recorder.counter(lpr_obs::names::PROBE_REPLIES),
            anonymous: recorder.counter(lpr_obs::names::PROBE_ANONYMOUS),
            stack_depth: recorder.histogram(lpr_obs::names::PROBE_STACK_DEPTH),
            budget_flows: recorder.counter(lpr_obs::names::PROBE_BUDGET_FLOWS),
            budget_pruned: recorder.counter(lpr_obs::names::PROBE_BUDGET_PRUNED),
            budget_stopped: recorder.counter(lpr_obs::names::PROBE_BUDGET_STOPPED),
            budget_exhausted: recorder.counter(lpr_obs::names::PROBE_BUDGET_EXHAUSTED),
            tracer: recorder.tracer().clone(),
        });
        self
    }

    /// The span/event journal this prober records into (the inert
    /// tracer without a recorder).
    pub(crate) fn tracer(&self) -> lpr_obs::Tracer {
        self.metrics.as_ref().map_or_else(lpr_obs::Tracer::disabled, |m| m.tracer.clone())
    }

    /// The fault plan the prober was armed with, if any — the
    /// revelation phase consults its trigger-loss and DPR
    /// rate-limiting predicates.
    pub(crate) fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Runs one traceroute (Paris: the flow identifier derives from
    /// `(vp, dst)` and stays constant across the TTL ladder).
    pub fn trace(&self, vp: Ipv4Addr, dst: Ipv4Addr) -> Trace {
        self.run_ladder(vp, dst, self.flow(vp, dst), &mut FaultCounts::default()).0
    }

    /// Runs a campaign: every vantage point towards every destination,
    /// then, when `reveal` is `Some`, the revelation phase over the
    /// campaign's traces (see [`crate::revelation`]).
    ///
    /// The probe phase shards `(vp, /24 host group)` units over
    /// `threads` workers (`0` = available parallelism) via `lpr-par`.
    /// Each group is self-contained: its hosts are probed in order under
    /// their own Paris flows until the strategy's stopping rule settles
    /// ([`ProbingStrategy::Exhaustive`] probes every host), so the
    /// emitted traces are the exhaustive campaign's traces for the
    /// probed pairs. Shard outputs are concatenated in shard order, so
    /// traces come out in row-major `(vp, dst)` order and the whole
    /// [`CampaignOutput`] — traces, budget, evidence and fault tally — is
    /// byte-identical at any thread count. Fault decisions are pure
    /// functions of `(plan, vp, dst, ttl)`, so chaos mode shards safely.
    pub fn campaign(
        &self,
        vps: &[Ipv4Addr],
        dsts: &[Ipv4Addr],
        threads: usize,
        reveal: Option<&RevelationOptions>,
    ) -> CampaignOutput {
        let groups = mda::prefix_groups(dsts);
        let work: Vec<(Ipv4Addr, &[Ipv4Addr])> = vps
            .iter()
            .flat_map(|&vp| groups.iter().map(move |&(s, e)| (vp, &dsts[s..e])))
            .collect();
        let tracer = self.tracer();
        let span = tracer.span("campaign");
        let run = lpr_par::map_shards_traced(
            &work,
            lpr_par::ShardOptions::new(threads),
            lpr_par::ShardTrace::new(&tracer, span.context()),
            |_, shard| {
                let mut part = CampaignOutput::default();
                for &(vp, hosts) in shard {
                    mda::probe_group(self, vp, hosts, &mut part);
                }
                part
            },
        )
        .expect_ok();
        drop(span);
        let mut out = CampaignOutput {
            traces: Vec::with_capacity(vps.len() * dsts.len()),
            ..CampaignOutput::default()
        };
        for part in run.outputs {
            out.traces.extend(part.traces);
            out.budget.merge(&part.budget);
            out.faults.merge(&part.faults);
        }
        let budget = &mut out.budget;
        budget.pairs_total = (vps.len() * dsts.len()) as u64;
        budget.pairs_probed = out.traces.len() as u64;
        budget.pairs_pruned = budget.pairs_total - budget.pairs_probed;
        if let Some(m) = &self.metrics {
            m.budget_flows.add(budget.flows_traced);
            m.budget_pruned.add(budget.pairs_pruned);
            m.budget_stopped.add(budget.groups_stopped);
            m.budget_exhausted.add(budget.groups_exhausted);
        }
        if let Some(opts) = reveal {
            crate::revelation::reveal(self, opts, threads, &mut out);
        }
        out
    }

    /// The Paris flow identifier for a `(vp, dst)` pair this snapshot.
    pub(crate) fn flow(&self, vp: Ipv4Addr, dst: Ipv4Addr) -> u64 {
        let base = splitmix64(
            (u32::from(vp) as u64) ^ ((u32::from(dst) as u64) << 32) ^ self.opts.seed,
        );
        if self.opts.flow_churn_rate > 0.0 {
            let h = splitmix64(base ^ self.opts.snapshot_salt ^ 0xC0FFEE);
            if (h as f64 / u64::MAX as f64) < self.opts.flow_churn_rate {
                return base ^ splitmix64(self.opts.snapshot_salt.wrapping_add(1));
            }
        }
        base
    }

    /// Whether this particular probe's reply is lost (anonymous hop).
    fn anonymous(&self, vp: Ipv4Addr, dst: Ipv4Addr, ttl: u8, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        let h = splitmix64(
            self.opts.seed
                ^ self.opts.snapshot_salt.rotate_left(17)
                ^ ((u32::from(vp) as u64) << 8)
                ^ ((u32::from(dst) as u64) << 24)
                ^ (ttl as u64),
        );
        (h as f64 / u64::MAX as f64) < rate
    }

    /// Synthetic RTT: grows with hop count, deterministic jitter.
    fn rtt(&self, vp: Ipv4Addr, dst: Ipv4Addr, ttl: u8) -> u32 {
        let h = splitmix64((u32::from(vp) as u64) ^ (u32::from(dst) as u64) ^ (ttl as u64) << 48);
        ttl as u32 * 1500 + (h % 900) as u32
    }

    /// One traceroute over a single forwarding walk under `flow` — the
    /// MDA primitive: Paris traceroute enumerates ECMP branches by
    /// probing under several flow identifiers, each held constant within
    /// its own trace. The TTL ladder consumes the walk's per-TTL expiry
    /// events in order, then its terminal (Echo/Unreachable) — O(hops)
    /// where probing each TTL separately was O(hops²). Returns the trace
    /// plus the exact number of probe packets the ladder spent (the
    /// currency budget accounting is denominated in); injected faults
    /// are tallied into `injected`.
    pub(crate) fn run_ladder(
        &self,
        vp: Ipv4Addr,
        dst: Ipv4Addr,
        flow: u64,
        injected: &mut FaultCounts,
    ) -> (Trace, u64) {
        let mut trace = Trace::new(vp, dst);
        let mut probes = 0u64;
        let mut gap = 0u8;
        let mut events = Vec::new();
        let end =
            probe_ladder(self.net, vp, dst, flow, self.opts.max_ttl as usize, &mut events, None);
        let mut events = events.into_iter();
        let metrics = self.metrics.as_ref();
        let faults = self.faults.as_ref();
        for ttl in 1..=self.opts.max_ttl {
            probes += 1;
            if let Some(m) = metrics {
                m.sent.inc();
            }
            match events.next() {
                Some(ProbeReply::TimeExceeded { router, addr, mut stack, uturn }) => {
                    let rate = self
                        .net
                        .config(self.net.topo.router(router).as_id)
                        .anonymous_rate;
                    // Injected reply faults: loss in transit and router-side
                    // ICMP rate limiting both leave the hop anonymous, like
                    // the modelled anonymity does.
                    let faulted = match faults {
                        Some(plan) if plan.lose_probe(vp, dst, ttl) => {
                            injected.lost += 1;
                            true
                        }
                        Some(plan) if plan.rate_limited(addr, ttl) => {
                            injected.rate_limited += 1;
                            true
                        }
                        _ => false,
                    };
                    if faulted || self.anonymous(vp, dst, ttl, rate) {
                        if let Some(m) = metrics {
                            m.anonymous.inc();
                        }
                        trace.push_hop(Hop::anonymous(ttl));
                        gap += 1;
                    } else {
                        if let Some(plan) = faults {
                            if !stack.is_empty() && plan.php_silent(addr) {
                                stack = lpr_core::label::LabelStack::empty();
                                injected.php_silenced += 1;
                            } else if stack.depth() > 1 && plan.truncate_stack(addr, ttl) {
                                stack =
                                    lpr_core::label::LabelStack::from_entries(&stack.entries()[..1]);
                                injected.truncated_exts += 1;
                            }
                        }
                        if let Some(m) = metrics {
                            m.replies.inc();
                            m.stack_depth.observe(stack.depth());
                        }
                        trace.push_hop(Hop {
                            probe_ttl: ttl,
                            addr: Some(addr),
                            rtt_us: self.rtt(vp, dst, ttl)
                                + if uturn { UTURN_DETOUR_US } else { 0 },
                            stack,
                        });
                        gap = 0;
                    }
                }
                Some(_) => unreachable!("the ladder records only TTL expiries"),
                None => {
                    // Past the last expiry: the walk's terminal answers
                    // (or doesn't) every remaining TTL.
                    if let LadderEnd::Echo { addr } = end {
                        if let Some(m) = metrics {
                            m.replies.inc();
                        }
                        trace.push_hop(Hop {
                            probe_ttl: ttl,
                            addr: Some(addr),
                            rtt_us: self.rtt(vp, dst, ttl),
                            stack: lpr_core::label::LabelStack::empty(),
                        });
                        trace.reached = true;
                    }
                    break;
                }
            }
            if gap >= self.opts.gap_limit {
                break;
            }
        }
        if let Some(plan) = faults {
            // Duplicated/reordered replies rebuild the hop list, possibly
            // breaking strict TTL order — downstream quarantine territory.
            plan.degrade_structure(&mut trace, injected);
        }
        (trace, probes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::internet::MplsConfig;
    use crate::topology::{AsSpec, Topology, TopologyParams};
    use crate::vendor::Vendor;
    use lpr_core::lsp::Asn;
    use std::collections::BTreeMap;

    /// One transit of the given shape between a monitor stub with `vps`
    /// vantage points and a customer stub announcing `prefixes` /24s.
    fn build_with(params: TopologyParams, vps: usize, prefixes: usize, cfg: MplsConfig) -> Internet {
        let specs = vec![
            AsSpec::transit(1, "t", Vendor::Cisco, params),
            AsSpec::stub(100, "src", 0, vps),
            AsSpec::stub(200, "dst", prefixes, 0),
        ];
        let peerings = vec![(Asn(100), Asn(1), 1), (Asn(1), Asn(200), 1)];
        let topo = Topology::build(&specs, &peerings);
        let mut configs = BTreeMap::new();
        configs.insert(Asn(1), cfg);
        Internet::new(topo, &configs)
    }

    fn build(anonymous_rate: f64) -> Internet {
        let params = TopologyParams { core_routers: 5, border_routers: 2, ..Default::default() };
        let mut cfg = MplsConfig::ldp_default();
        cfg.anonymous_rate = anonymous_rate;
        build_with(params, 1, 2, cfg)
    }

    fn endpoints(net: &Internet, per_prefix: usize) -> (Vec<Ipv4Addr>, Vec<Ipv4Addr>) {
        let vps = net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
        (vps, net.topo.destinations(per_prefix))
    }

    #[test]
    fn traces_are_reproducible() {
        let net = build(0.0);
        let prober = Prober::new(&net, ProbeOptions::default());
        let vp = net.topo.vantage_points()[0].0;
        let dst = net.topo.destinations(1)[0];
        assert_eq!(prober.trace(vp, dst), prober.trace(vp, dst));
    }

    #[test]
    fn campaign_covers_all_pairs() {
        let net = build(0.0);
        let prober = Prober::new(&net, ProbeOptions::default());
        let (vps, dsts) = endpoints(&net, 2);
        let out = prober.campaign(&vps, &dsts, 1, None);
        assert_eq!(out.traces.len(), vps.len() * dsts.len());
        assert!(out.traces.iter().all(|t| t.reached));
        assert!(out.traces.iter().any(|t| t.has_mpls()));
        // The oracle probes every pair and has no stopping rule to
        // settle or run dry.
        let b = out.budget;
        assert_eq!((b.pairs_probed, b.pairs_pruned), (b.pairs_total, 0));
        assert_eq!(b.flows_traced, b.pairs_total);
        assert_eq!((b.groups_stopped, b.groups_exhausted), (0, 0));
        assert!(out.evidence.is_empty());
    }

    #[test]
    fn recorder_tallies_probes_and_stack_depths() {
        let net = build(0.0);
        let rec = lpr_obs::Recorder::new("probe-test");
        let prober = Prober::new(&net, ProbeOptions::default()).with_recorder(&rec);
        let (vps, dsts) = endpoints(&net, 2);
        let traces = prober.campaign(&vps, &dsts, 1, None).traces;
        let telemetry = rec.finish();

        let sent = telemetry.counter("probe.sent");
        let replies = telemetry.counter("probe.replies");
        assert!(sent > 0);
        // No anonymity here: every probe is answered or the ladder
        // stopped on Unreachable (unanswered, not counted as a reply).
        assert!(replies <= sent);
        assert_eq!(telemetry.counter("probe.anonymous"), 0);
        // Every responsive hop corresponds to one counted reply.
        let responsive: u64 =
            traces.iter().map(|t| t.responsive_hops().count() as u64).sum();
        assert_eq!(replies, responsive);
        // MPLS traversal shows up as non-zero quoted stack depths.
        let depths = &telemetry.histograms["probe.stack_depth"];
        assert!(depths.iter().skip(1).sum::<u64>() > 0, "labelled hops observed");
    }

    #[test]
    fn anonymity_produces_gaps() {
        let net = build(0.5);
        let prober = Prober::new(&net, ProbeOptions::default());
        let (vps, dsts) = endpoints(&net, 2);
        let traces = prober.campaign(&vps, &dsts, 1, None).traces;
        let anonymous: usize = traces
            .iter()
            .flat_map(|t| t.hops.iter())
            .filter(|h| !h.is_responsive())
            .count();
        assert!(anonymous > 0);
    }

    #[test]
    fn snapshot_salt_changes_anonymity_pattern_not_paths() {
        let net = build(0.3);
        let base = ProbeOptions::default();
        let vp = net.topo.vantage_points()[0].0;
        let dst = net.topo.destinations(1)[0];
        let a = Prober::new(&net, base.clone()).trace(vp, dst);
        let b = Prober::new(
            &net,
            ProbeOptions { snapshot_salt: 99, ..base },
        )
        .trace(vp, dst);
        // The responsive hops that exist in both must agree (no churn).
        for (x, y) in a.hops.iter().zip(b.hops.iter()) {
            if x.is_responsive() && y.is_responsive() {
                assert_eq!(x.addr, y.addr);
            }
        }
    }

    #[test]
    fn quiet_fault_plan_is_identity() {
        let net = build(0.0);
        let (vps, dsts) = endpoints(&net, 4);
        let plain = Prober::new(&net, ProbeOptions::default()).campaign(&vps, &dsts, 1, None);
        let quiet = Prober::new(&net, ProbeOptions::default())
            .with_faults(lpr_chaos::FaultPlan::none(9));
        let out = quiet.campaign(&vps, &dsts, 1, None);
        assert_eq!(out.faults, FaultCounts::default());
        assert_eq!(out, plain);
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let net = build(0.0);
        let (vps, dsts) = endpoints(&net, 4);
        let run = |seed: u64| {
            Prober::new(&net, ProbeOptions::default())
                .with_faults(lpr_chaos::FaultPlan::uniform(seed, 0.3))
                .campaign(&vps, &dsts, 1, None)
        };
        let a = run(5);
        assert_eq!(a, run(5));
        assert!(a.faults.total() > 0, "30% faults must fire somewhere");
        assert_ne!(a.traces, run(6).traces, "different seeds, different faults");
    }

    #[test]
    fn probe_loss_faults_leave_anonymous_hops() {
        let net = build(0.0);
        let (vps, dsts) = endpoints(&net, 4);
        let mut plan = lpr_chaos::FaultPlan::none(1);
        plan.probe_loss = 0.5;
        let prober = Prober::new(&net, ProbeOptions::default()).with_faults(plan);
        let out = prober.campaign(&vps, &dsts, 1, None);
        let anonymous = out
            .traces
            .iter()
            .flat_map(|t| t.hops.iter())
            .filter(|h| !h.is_responsive())
            .count() as u64;
        assert!(out.faults.lost > 0);
        assert!(anonymous >= out.faults.lost, "every lost reply is an anonymous hop");
    }

    #[test]
    fn php_silence_fault_hides_label_stacks() {
        let net = build(0.0);
        let (vps, dsts) = endpoints(&net, 2);
        let mut plan = lpr_chaos::FaultPlan::none(2);
        plan.php_silence = 1.0;
        let prober = Prober::new(&net, ProbeOptions::default()).with_faults(plan);
        let out = prober.campaign(&vps, &dsts, 1, None);
        assert!(out.traces.iter().all(|t| !t.has_mpls()), "every stack is silenced");
        assert!(out.faults.php_silenced > 0);
    }

    #[test]
    fn structural_faults_reach_the_hop_lists() {
        let net = build(0.0);
        let (vps, dsts) = endpoints(&net, 4);
        let mut plan = lpr_chaos::FaultPlan::none(4);
        plan.duplicate_reply = 1.0;
        let prober = Prober::new(&net, ProbeOptions::default()).with_faults(plan);
        let out = prober.campaign(&vps, &dsts, 1, None);
        assert!(out.faults.duplicated > 0);
        assert!(
            out.traces.iter().any(|t| {
                t.hops.windows(2).any(|w| w[0].probe_ttl >= w[1].probe_ttl)
            }),
            "duplicated replies break strict TTL order somewhere"
        );
    }

    #[test]
    fn campaign_matches_sequential_for_any_thread_count() {
        // 7 vantage points × 40 /24s: enough (vp, /24) units that the
        // probe phase's shard bounds move with the thread count.
        let params = TopologyParams {
            core_routers: 6,
            border_routers: 2,
            ecmp_diamonds: 2,
            ..Default::default()
        };
        let mut cfg = MplsConfig::ldp_default();
        cfg.anonymous_rate = 0.2;
        cfg.visibility = crate::VisibilityMix {
            explicit: 0.4,
            implicit: 0.2,
            invisible: 0.2,
            opaque: 0.2,
        };
        let net = build_with(params, 7, 40, cfg);
        let (vps, dsts) = endpoints(&net, 8);
        let units = vps.len() * mda::prefix_groups(&dsts).len();
        let shards = |threads| lpr_par::ShardOptions::new(threads).shard_count(units);
        assert_ne!(shards(1), shards(2), "shard bounds must differ between thread counts");
        let plan = lpr_chaos::FaultPlan::uniform(3, 0.2);
        let reveal = RevelationOptions::default();
        let row_major: Vec<_> = vps.iter().flat_map(|&vp| dsts.iter().map(move |&d| (vp, d))).collect();
        for probing in [ProbingStrategy::Exhaustive, ProbingStrategy::MdaLite, ProbingStrategy::Mda] {
            let prober =
                Prober::new(&net, ProbeOptions { probing, ..Default::default() }).with_faults(plan);
            let seq = prober.campaign(&vps, &dsts, 1, Some(&reveal));
            assert!(seq.faults.total() > 0 && !seq.evidence.is_empty(), "{probing:?}");
            // Emitted pairs are a row-major subsequence of the pair list.
            let mut pairs = row_major.iter();
            assert!(seq.traces.iter().all(|t| pairs.any(|&p| p == (t.src, t.dst))), "{probing:?}");
            for threads in [2usize, 3, 8] {
                assert_eq!(
                    prober.campaign(&vps, &dsts, threads, Some(&reveal)),
                    seq,
                    "{probing:?} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn flow_churn_moves_some_flows() {
        let params = TopologyParams {
            core_routers: 6,
            border_routers: 2,
            ecmp_diamonds: 2,
            ..Default::default()
        };
        let net = build_with(params, 1, 4, MplsConfig::ldp_default());
        let (vps, dsts) = endpoints(&net, 4);
        let paths = |flow_churn_rate: f64, snapshot_salt: u64| -> Vec<Vec<Ipv4Addr>> {
            let opts = ProbeOptions { snapshot_salt, flow_churn_rate, ..Default::default() };
            Prober::new(&net, opts)
                .campaign(&vps, &dsts, 1, None)
                .traces
                .iter()
                .map(|t| t.responsive_hops().filter_map(|h| h.addr).collect())
                .collect()
        };
        let base = paths(0.0, 0);
        let churned = paths(1.0, 7);
        assert_eq!(base.len(), churned.len());
        assert!(
            base.iter().zip(&churned).any(|(a, b)| a != b),
            "full churn over ECMP diamonds moved no flow"
        );
        assert_eq!(paths(0.0, 7), base, "a new salt without churn moved a flow");
    }
}
