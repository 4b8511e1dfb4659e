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

use crate::dataplane::{probe_ladder, LadderEnd, ProbeReply};
use crate::internet::{splitmix64, Internet};
use crate::mda::{self, ProbingStrategy};
use lpr_chaos::{FaultCounts, FaultPlan};
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

/// A traceroute engine bound to one simulated Internet.
pub struct Prober<'a> {
    net: &'a Internet,
    opts: ProbeOptions,
    metrics: Option<ProbeMetrics>,
    faults: Option<FaultPlan>,
    injected: std::cell::Cell<FaultCounts>,
}

impl<'a> Prober<'a> {
    /// Binds a prober to a network.
    pub fn new(net: &'a Internet, opts: ProbeOptions) -> Self {
        Prober {
            net,
            opts,
            metrics: None,
            faults: None,
            injected: std::cell::Cell::new(FaultCounts::default()),
        }
    }

    /// Injects the plan's measurement-layer faults (probe loss, ICMP
    /// rate limiting, PHP silence, truncated label-stack extensions,
    /// duplicated and reordered replies) into every trace this prober
    /// runs. Fault decisions derive from the plan's own seed, so the
    /// same plan over the same campaign replays bit-identically — and a
    /// quiet plan is the identity.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Tally of faults injected by the [`FaultPlan`] so far (zero
    /// without one).
    pub fn injected_faults(&self) -> FaultCounts {
        self.injected.get()
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

    /// The [`Sync`] view of this prober that shard workers share; the
    /// fault tally (a `Cell`) stays behind, accumulated per worker and
    /// merged back in shard order.
    pub(crate) fn core(&self) -> ProbeCore<'_> {
        ProbeCore {
            net: self.net,
            opts: &self.opts,
            metrics: self.metrics.as_ref(),
            faults: self.faults.as_ref(),
        }
    }

    /// Folds a worker-local fault tally into the prober's running total.
    pub(crate) fn merge_injected(&self, injected: FaultCounts) {
        if injected.total() > 0 {
            let mut total = self.injected.get();
            total.merge(&injected);
            self.injected.set(total);
        }
    }

    /// Runs one traceroute (Paris: the flow identifier derives from
    /// `(vp, dst)` and stays constant across the TTL ladder).
    pub fn trace(&self, vp: Ipv4Addr, dst: Ipv4Addr) -> Trace {
        self.trace_with_flow(vp, dst, self.core().flow(vp, dst))
    }

    /// Runs one traceroute with an explicit flow identifier — the MDA
    /// (multipath detection) primitive: Paris traceroute enumerates
    /// ECMP branches by probing the same destination under several
    /// flow identifiers, each held constant within its own trace.
    pub fn trace_with_flow(&self, vp: Ipv4Addr, dst: Ipv4Addr, flow: u64) -> Trace {
        let mut injected = FaultCounts::default();
        let trace = self.core().trace_with_flow(vp, dst, flow, &mut injected);
        self.merge_injected(injected);
        trace
    }

    /// Runs a full campaign: every vantage point towards every
    /// destination, in row-major `(vp, dst)` order.
    pub fn campaign(&self, vps: &[Ipv4Addr], dsts: &[Ipv4Addr]) -> Vec<Trace> {
        self.campaign_par(vps, dsts, 1)
    }

    /// [`Prober::campaign`] sharded over `threads` workers (`0` =
    /// available parallelism) via `lpr-par`, with the deterministic
    /// shard-order merge discipline: contiguous shards of the row-major
    /// `(vp, dst)` pair list are concatenated in shard order, so the
    /// output — traces and injected-fault tallies alike — is
    /// byte-identical to the sequential campaign for any thread count.
    /// Fault decisions are pure functions of `(plan, vp, dst, ttl)`, so
    /// chaos mode shards safely.
    pub fn campaign_par(
        &self,
        vps: &[Ipv4Addr],
        dsts: &[Ipv4Addr],
        threads: usize,
    ) -> Vec<Trace> {
        self.campaign_with_budget(vps, dsts, threads).0
    }

    /// [`Prober::campaign_par`] plus the campaign's [`ProbeBudget`].
    /// Under [`ProbingStrategy::Exhaustive`] the work unit is the
    /// `(vp, dst)` pair, exactly as before. The stochastic strategies
    /// shard over `(vp, /24 host group)` units instead: each group is
    /// self-contained (its stopping rule sees only its own traces), so
    /// contiguous group shards concatenated in shard order stay
    /// byte-identical at any thread count — same discipline, coarser
    /// unit. Emitted traces are the exhaustive campaign's traces for
    /// the probed pairs; pruned pairs emit nothing.
    pub fn campaign_with_budget(
        &self,
        vps: &[Ipv4Addr],
        dsts: &[Ipv4Addr],
        threads: usize,
    ) -> (Vec<Trace>, ProbeBudget) {
        let core = self.core();
        let tracer = self.tracer();
        let span = tracer.span("campaign");
        let strategy = self.opts.probing;
        let mut budget = ProbeBudget {
            pairs_total: (vps.len() * dsts.len()) as u64,
            ..ProbeBudget::default()
        };
        let out = match strategy {
            ProbingStrategy::Exhaustive => {
                self.exhaustive_campaign(vps, dsts, threads, &tracer, &span, &mut budget)
            }
            _ => {
                let groups = mda::prefix_groups(dsts);
                let work: Vec<(Ipv4Addr, usize, usize)> = vps
                    .iter()
                    .flat_map(|&vp| groups.iter().map(move |&(s, e)| (vp, s, e)))
                    .collect();
                let run = lpr_par::map_shards_traced(
                    &work,
                    lpr_par::ShardOptions::new(threads),
                    lpr_par::ShardTrace::new(&tracer, span.context()),
                    |_, shard| {
                        let mut injected = FaultCounts::default();
                        let mut tally = ProbeBudget::default();
                        let traces: Vec<Trace> = shard
                            .iter()
                            .flat_map(|&(vp, s, e)| {
                                let (traces, group) = mda::probe_group(
                                    core,
                                    vp,
                                    &dsts[s..e],
                                    strategy,
                                    &mut injected,
                                );
                                tally.merge(&group);
                                traces
                            })
                            .collect();
                        (traces, injected, tally)
                    },
                )
                .expect_ok();
                let mut out = Vec::with_capacity(vps.len() * dsts.len());
                let mut merged = FaultCounts::default();
                for (traces, injected, tally) in run.outputs {
                    out.extend(traces);
                    merged.merge(&injected);
                    budget.merge(&tally);
                }
                self.merge_injected(merged);
                out
            }
        };
        budget.pairs_probed = out.len() as u64;
        budget.pairs_pruned = budget.pairs_total - budget.pairs_probed;
        if let Some(m) = &self.metrics {
            m.budget_flows.add(budget.flows_traced);
            m.budget_pruned.add(budget.pairs_pruned);
            m.budget_stopped.add(budget.groups_stopped);
            m.budget_exhausted.add(budget.groups_exhausted);
        }
        (out, budget)
    }

    /// [`Prober::campaign_with_budget`] followed by the revelation
    /// phase: triggers detected in the campaign's traces are re-probed
    /// with targeted DPR walks (see [`crate::revelation`]), and the
    /// evidence is returned alongside the traces. Revelation costs are
    /// folded into the budget (`revelation_*` fields, and
    /// `probes_sent` includes the DPR walks). Both the traces and the
    /// evidence are byte-identical at any thread count.
    pub fn campaign_with_revelation(
        &self,
        vps: &[Ipv4Addr],
        dsts: &[Ipv4Addr],
        threads: usize,
        reveal_opts: &crate::revelation::RevelationOptions,
    ) -> (Vec<Trace>, ProbeBudget, Vec<lpr_core::reveal::RevealedTunnel>) {
        let (traces, mut budget) = self.campaign_with_budget(vps, dsts, threads);
        let evidence =
            crate::revelation::reveal_from_traces(self, &traces, reveal_opts, threads);
        budget.revelation_triggers = evidence.len() as u64;
        for ev in &evidence {
            budget.revelation_probes += ev.probes;
            if ev.status == lpr_core::reveal::RevelationStatus::Revealed {
                budget.revelation_revealed += 1;
            }
        }
        budget.probes_sent += budget.revelation_probes;
        (traces, budget, evidence)
    }

    /// The original every-pair campaign (pair-sharded, golden shape),
    /// with probe counting folded into `budget`.
    fn exhaustive_campaign(
        &self,
        vps: &[Ipv4Addr],
        dsts: &[Ipv4Addr],
        threads: usize,
        tracer: &lpr_obs::Tracer,
        span: &lpr_obs::Span,
        budget: &mut ProbeBudget,
    ) -> Vec<Trace> {
        let core = self.core();
        let pairs: Vec<(Ipv4Addr, Ipv4Addr)> = vps
            .iter()
            .flat_map(|&vp| dsts.iter().map(move |&dst| (vp, dst)))
            .collect();
        let run = lpr_par::map_shards_traced(
            &pairs,
            lpr_par::ShardOptions::new(threads),
            lpr_par::ShardTrace::new(tracer, span.context()),
            |_, shard| {
                let mut injected = FaultCounts::default();
                let mut probes = 0u64;
                let traces: Vec<Trace> = shard
                    .iter()
                    .map(|&(vp, dst)| {
                        let flow = core.flow(vp, dst);
                        let (trace, p) =
                            core.trace_with_flow_counted(vp, dst, flow, &mut injected);
                        probes += p;
                        trace
                    })
                    .collect();
                (traces, injected, probes)
            },
        )
        .expect_ok();
        let mut out = Vec::with_capacity(pairs.len());
        let mut merged = FaultCounts::default();
        for (traces, injected, probes) in run.outputs {
            out.extend(traces);
            merged.merge(&injected);
            budget.probes_sent += probes;
        }
        budget.flows_traced = out.len() as u64;
        self.merge_injected(merged);
        out
    }
}

/// The shareable probing state: everything [`Prober`] holds except the
/// interior-mutable fault tally, so shard workers can trace
/// concurrently while each accumulates faults into its own
/// [`FaultCounts`].
#[derive(Clone, Copy)]
pub(crate) struct ProbeCore<'a> {
    pub(crate) net: &'a Internet,
    pub(crate) opts: &'a ProbeOptions,
    metrics: Option<&'a ProbeMetrics>,
    faults: Option<&'a FaultPlan>,
}

impl ProbeCore<'_> {
    /// The fault plan the prober was armed with, if any — the
    /// revelation phase consults its trigger-loss and DPR
    /// rate-limiting predicates.
    pub(crate) fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults
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

    /// [`ProbeCore::trace_with_flow`] plus the exact number of probe
    /// packets the ladder spent — the currency budget accounting is
    /// denominated in.
    pub(crate) fn trace_with_flow_counted(
        &self,
        vp: Ipv4Addr,
        dst: Ipv4Addr,
        flow: u64,
        injected: &mut FaultCounts,
    ) -> (Trace, u64) {
        let mut probes = 0u64;
        let trace = self.run_ladder(vp, dst, flow, injected, &mut probes);
        (trace, probes)
    }

    /// One traceroute over a single forwarding walk.
    pub(crate) fn trace_with_flow(
        &self,
        vp: Ipv4Addr,
        dst: Ipv4Addr,
        flow: u64,
        injected: &mut FaultCounts,
    ) -> Trace {
        let mut probes = 0u64;
        self.run_ladder(vp, dst, flow, injected, &mut probes)
    }

    /// The TTL ladder over a single forwarding walk: consumes the
    /// walk's per-TTL expiry events in order, then its terminal
    /// (Echo/Unreachable) — O(hops) where probing each TTL separately
    /// was O(hops²).
    fn run_ladder(
        &self,
        vp: Ipv4Addr,
        dst: Ipv4Addr,
        flow: u64,
        injected: &mut FaultCounts,
        probes: &mut u64,
    ) -> Trace {
        let mut trace = Trace::new(vp, dst);
        let mut gap = 0u8;
        let mut events = Vec::new();
        let end =
            probe_ladder(self.net, vp, dst, flow, self.opts.max_ttl as usize, &mut events, None);
        let mut events = events.into_iter();
        for ttl in 1..=self.opts.max_ttl {
            *probes += 1;
            if let Some(m) = self.metrics {
                m.sent.inc();
            }
            match events.next() {
                Some(ProbeReply::TimeExceeded { router, addr, stack, uturn }) => {
                    let rate = self
                        .net
                        .config(self.net.topo.router(router).as_id)
                        .anonymous_rate;
                    // Injected reply faults: loss in transit and router-side
                    // ICMP rate limiting both leave the hop anonymous, like
                    // the modelled anonymity does.
                    let faulted = match self.faults {
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
                        if let Some(m) = self.metrics {
                            m.anonymous.inc();
                        }
                        trace.push_hop(Hop::anonymous(ttl));
                        gap += 1;
                    } else {
                        let mut stack: lpr_core::label::LabelStack =
                            stack.into_iter().collect();
                        if let Some(plan) = self.faults {
                            if !stack.is_empty() && plan.php_silent(addr) {
                                stack = lpr_core::label::LabelStack::empty();
                                injected.php_silenced += 1;
                            } else if stack.depth() > 1 && plan.truncate_stack(addr, ttl) {
                                stack =
                                    lpr_core::label::LabelStack::from_entries(&stack.entries()[..1]);
                                injected.truncated_exts += 1;
                            }
                        }
                        if let Some(m) = self.metrics {
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
                        if let Some(m) = self.metrics {
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
        if let Some(plan) = self.faults {
            // Duplicated/reordered replies rebuild the hop list, possibly
            // breaking strict TTL order — downstream quarantine territory.
            plan.degrade_structure(&mut trace, injected);
        }
        trace
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

    fn build(anonymous_rate: f64) -> Internet {
        let specs = vec![
            AsSpec::transit(
                1,
                "t",
                Vendor::Cisco,
                TopologyParams { core_routers: 5, border_routers: 2, ..Default::default() },
            ),
            AsSpec::stub(100, "src", 0, 1),
            AsSpec::stub(200, "dst", 2, 0),
        ];
        let peerings = vec![(Asn(100), Asn(1), 1), (Asn(1), Asn(200), 1)];
        let topo = Topology::build(&specs, &peerings);
        let mut configs = BTreeMap::new();
        let mut cfg = MplsConfig::ldp_default();
        cfg.anonymous_rate = anonymous_rate;
        configs.insert(Asn(1), cfg);
        Internet::new(topo, &configs)
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
        let vps: Vec<_> = net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
        let dsts = net.topo.destinations(2);
        let traces = prober.campaign(&vps, &dsts);
        assert_eq!(traces.len(), vps.len() * dsts.len());
        assert!(traces.iter().all(|t| t.reached));
        assert!(traces.iter().any(|t| t.has_mpls()));
    }

    #[test]
    fn recorder_tallies_probes_and_stack_depths() {
        let net = build(0.0);
        let rec = lpr_obs::Recorder::new("probe-test");
        let prober = Prober::new(&net, ProbeOptions::default()).with_recorder(&rec);
        let vps: Vec<_> = net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
        let dsts = net.topo.destinations(2);
        let traces = prober.campaign(&vps, &dsts);
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
        let vps: Vec<_> = net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
        let dsts = net.topo.destinations(2);
        let traces = prober.campaign(&vps, &dsts);
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
        let vps: Vec<_> = net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
        let dsts = net.topo.destinations(4);
        let plain = Prober::new(&net, ProbeOptions::default()).campaign(&vps, &dsts);
        let quiet = Prober::new(&net, ProbeOptions::default())
            .with_faults(lpr_chaos::FaultPlan::none(9));
        assert_eq!(quiet.campaign(&vps, &dsts), plain);
        assert_eq!(quiet.injected_faults(), FaultCounts::default());
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let net = build(0.0);
        let vps: Vec<_> = net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
        let dsts = net.topo.destinations(4);
        let run = |seed: u64| {
            let p = Prober::new(&net, ProbeOptions::default())
                .with_faults(lpr_chaos::FaultPlan::uniform(seed, 0.3));
            let traces = p.campaign(&vps, &dsts);
            (traces, p.injected_faults())
        };
        let (ta, ca) = run(5);
        let (tb, cb) = run(5);
        assert_eq!(ta, tb);
        assert_eq!(ca, cb);
        assert!(ca.total() > 0, "30% faults must fire somewhere");
        let (tc, _) = run(6);
        assert_ne!(ta, tc, "different seeds, different faults");
    }

    #[test]
    fn probe_loss_faults_leave_anonymous_hops() {
        let net = build(0.0);
        let vps: Vec<_> = net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
        let dsts = net.topo.destinations(4);
        let mut plan = lpr_chaos::FaultPlan::none(1);
        plan.probe_loss = 0.5;
        let prober = Prober::new(&net, ProbeOptions::default()).with_faults(plan);
        let traces = prober.campaign(&vps, &dsts);
        let anonymous = traces
            .iter()
            .flat_map(|t| t.hops.iter())
            .filter(|h| !h.is_responsive())
            .count() as u64;
        let injected = prober.injected_faults();
        assert!(injected.lost > 0);
        assert!(anonymous >= injected.lost, "every lost reply is an anonymous hop");
    }

    #[test]
    fn php_silence_fault_hides_label_stacks() {
        let net = build(0.0);
        let vps: Vec<_> = net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
        let dsts = net.topo.destinations(2);
        let mut plan = lpr_chaos::FaultPlan::none(2);
        plan.php_silence = 1.0;
        let prober = Prober::new(&net, ProbeOptions::default()).with_faults(plan);
        let traces = prober.campaign(&vps, &dsts);
        assert!(traces.iter().all(|t| !t.has_mpls()), "every stack is silenced");
        assert!(prober.injected_faults().php_silenced > 0);
    }

    #[test]
    fn structural_faults_reach_the_hop_lists() {
        let net = build(0.0);
        let vps: Vec<_> = net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
        let dsts = net.topo.destinations(4);
        let mut plan = lpr_chaos::FaultPlan::none(4);
        plan.duplicate_reply = 1.0;
        let prober = Prober::new(&net, ProbeOptions::default()).with_faults(plan);
        let traces = prober.campaign(&vps, &dsts);
        assert!(prober.injected_faults().duplicated > 0);
        assert!(
            traces.iter().any(|t| {
                t.hops.windows(2).any(|w| w[0].probe_ttl >= w[1].probe_ttl)
            }),
            "duplicated replies break strict TTL order somewhere"
        );
    }

    #[test]
    fn campaign_par_matches_sequential_for_any_thread_count() {
        let net = build(0.2);
        let vps: Vec<_> = net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
        let dsts = net.topo.destinations(64);
        let plan = lpr_chaos::FaultPlan::uniform(3, 0.2);
        let seq_prober = Prober::new(&net, ProbeOptions::default()).with_faults(plan);
        let seq = seq_prober.campaign(&vps, &dsts);
        assert!(vps.len() * dsts.len() > 64, "needs to span several shards");
        for threads in [2usize, 3, 8] {
            let p = Prober::new(&net, ProbeOptions::default()).with_faults(plan);
            assert_eq!(p.campaign_par(&vps, &dsts, threads), seq, "threads = {threads}");
            assert_eq!(p.injected_faults(), seq_prober.injected_faults());
        }
    }

    #[test]
    fn flow_churn_moves_some_flows() {
        let net = build(0.0);
        let vps: Vec<_> = net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
        let dsts = net.topo.destinations(4);
        let a = Prober::new(&net, ProbeOptions::default()).campaign(&vps, &dsts);
        let b = Prober::new(
            &net,
            ProbeOptions { snapshot_salt: 7, flow_churn_rate: 1.0, ..Default::default() },
        )
        .campaign(&vps, &dsts);
        // With 100% churn at least one trace must differ (the topology
        // has no ECMP here only if paths are unique — so compare flows
        // indirectly: identical campaigns would be suspicious).
        assert_eq!(a.len(), b.len());
    }
}
