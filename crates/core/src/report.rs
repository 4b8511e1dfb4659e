//! Per-cycle, per-AS aggregation (the raw material of §4's figures).
//!
//! [`CycleReport`] condenses one measurement cycle into the quantities
//! the paper plots: the fraction of traces crossing an explicit tunnel
//! (Fig. 5a), MPLS vs non-MPLS address tallies globally (Fig. 5b) and
//! per AS (Table 2), and classified-IOTP tallies per AS (Figs. 10–15).

pub use crate::filter::AsMapper;
use crate::lsp::Asn;
use crate::pipeline::{ClassCounts, PipelineOutput};
use crate::trace::Trace;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::Ipv4Addr;

/// One walk over raw traces (pre-filtering, as in Fig. 5b): every
/// responsive address, with whether it was seen at a label-bearing hop,
/// and the trace counts of Fig. 5a.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IpUsage {
    /// Every responsive address, and whether some hop it answered at
    /// quoted labels.
    pub addrs: HashMap<Ipv4Addr, bool>,
    /// Traces walked.
    pub traces: usize,
    /// Traces crossing at least one explicit tunnel.
    pub traces_with_mpls: usize,
}

impl IpUsage {
    /// Walks `traces` once.
    pub fn of_traces<'a>(traces: impl IntoIterator<Item = &'a Trace>) -> IpUsage {
        let mut usage = IpUsage::default();
        for t in traces {
            let mut mpls = false;
            for h in &t.hops {
                mpls |= h.is_labelled();
                if let Some(addr) = h.addr {
                    *usage.addrs.entry(addr).or_default() |= h.is_labelled();
                }
            }
            usage.traces += 1;
            usage.traces_with_mpls += usize::from(mpls);
        }
        usage
    }

    /// Addresses observed at label-bearing hops.
    pub fn mpls(&self) -> usize {
        self.addrs.values().filter(|&&labelled| labelled).count()
    }

    /// Addresses observed only at unlabelled hops.
    pub fn non_mpls(&self) -> usize {
        self.addrs.len() - self.mpls()
    }
}

/// Per-AS summary for one cycle.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AsCycleStats {
    /// Classified-IOTP tallies.
    pub classes: ClassCounts,
    /// Addresses of this AS involved in (filtered) MPLS tunnels.
    pub mpls_ips: usize,
    /// Addresses of this AS seen in the cycle but not in MPLS tunnels.
    pub non_mpls_ips: usize,
}

/// Everything the evaluation needs from one cycle.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CycleReport {
    /// Total traces in the cycle.
    pub traces: usize,
    /// Traces crossing at least one explicit tunnel (Fig. 5a numerator).
    pub traces_with_mpls: usize,
    /// Global address usage, pre-filtering (Fig. 5b).
    pub ip_usage_mpls: usize,
    /// Global non-MPLS address count, pre-filtering (Fig. 5b).
    pub ip_usage_non_mpls: usize,
    /// Per-AS statistics, post-filtering (Table 2, Figs. 10–15).
    pub per_as: BTreeMap<Asn, AsCycleStats>,
    /// ASes tagged dynamic this cycle.
    pub dynamic_ases: BTreeSet<Asn>,
}

impl CycleReport {
    /// Builds the report for one cycle from the raw traces and the
    /// pipeline output computed over them.
    ///
    /// Per-AS MPLS addresses are counted *after filtering* (as Table 2
    /// does): they are the LER/LSR addresses of the classified IOTPs.
    /// Per-AS non-MPLS addresses are every other address of the AS seen
    /// in the cycle's traces. The traces are walked once, and each
    /// distinct address is looked up once.
    pub fn build(traces: &[Trace], output: &PipelineOutput, mapper: &dyn AsMapper) -> Self {
        let usage = IpUsage::of_traces(traces);

        // Class tallies and filtered-tunnel addresses, per AS.
        let mut mpls_per_as: BTreeMap<Asn, (ClassCounts, BTreeSet<Ipv4Addr>)> = BTreeMap::new();
        for (iotp, c) in &output.iotps {
            let (classes, addrs) = mpls_per_as.entry(iotp.key.asn).or_default();
            classes.add(c.class);
            addrs.insert(iotp.key.ingress);
            addrs.insert(iotp.key.egress);
            addrs.extend(iotp.branches.iter().flat_map(|b| b.hops.iter().map(|h| h.addr)));
        }
        let mut per_as: BTreeMap<Asn, AsCycleStats> = mpls_per_as
            .iter()
            .map(|(&asn, (classes, addrs))| {
                let stats =
                    AsCycleStats { classes: *classes, mpls_ips: addrs.len(), non_mpls_ips: 0 };
                (asn, stats)
            })
            .collect();
        // Every other address of the cycle counts for its AS. ASes seen
        // in traces but with no classified IOTP still get a row
        // (all-zero classes) so longitudinal plots show the gaps.
        for &addr in usage.addrs.keys() {
            let Some(asn) = mapper.asn_of(addr) else { continue };
            let mpls = mpls_per_as.get(&asn).is_some_and(|(_, addrs)| addrs.contains(&addr));
            per_as.entry(asn).or_default().non_mpls_ips += usize::from(!mpls);
        }

        CycleReport {
            traces: usage.traces,
            traces_with_mpls: usage.traces_with_mpls,
            ip_usage_mpls: usage.mpls(),
            ip_usage_non_mpls: usage.non_mpls(),
            per_as,
            dynamic_ases: output.dynamic_ases.clone(),
        }
    }

    /// Fraction of traces crossing at least one explicit tunnel
    /// (Fig. 5a; 0.0 for an empty cycle).
    pub fn mpls_trace_fraction(&self) -> f64 {
        if self.traces == 0 {
            0.0
        } else {
            self.traces_with_mpls as f64 / self.traces as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Lse;
    use crate::pipeline::Pipeline;
    use crate::trace::Hop;

    fn ip(a: u8, o: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, a, 0, o)
    }

    fn mapper(addr: Ipv4Addr) -> Option<Asn> {
        let o = addr.octets();
        match o[0] {
            10 => Some(Asn(o[1] as u32)),
            192 => Some(Asn(100)),
            198 => Some(Asn(101)),
            _ => None,
        }
    }

    fn mpls_trace(dst: Ipv4Addr, labels: [u32; 2]) -> Trace {
        let mut t = Trace::new(Ipv4Addr::new(203, 0, 113, 5), dst);
        t.push_hop(Hop::responsive(1, ip(1, 1)));
        t.push_hop(Hop::labelled(2, ip(1, 2), &[Lse::transit(labels[0], 254)]));
        t.push_hop(Hop::labelled(3, ip(1, 3), &[Lse::transit(labels[1], 253)]));
        t.push_hop(Hop::responsive(4, ip(1, 9)));
        t.push_hop(Hop::responsive(5, dst));
        t.reached = true;
        t
    }

    fn plain_trace(dst: Ipv4Addr) -> Trace {
        let mut t = Trace::new(Ipv4Addr::new(203, 0, 113, 5), dst);
        t.push_hop(Hop::responsive(1, ip(2, 1)));
        t.push_hop(Hop::responsive(2, dst));
        t.reached = true;
        t
    }

    #[test]
    fn ip_usage_classifies_addresses() {
        let traces =
            [mpls_trace(Ipv4Addr::new(192, 0, 2, 7), [100, 200]), plain_trace(ip(3, 7))];
        let usage = IpUsage::of_traces(traces.iter());
        assert_eq!(usage.mpls(), 2);
        // ingress, egress, dst of trace 1, two hops of trace 2
        assert_eq!(usage.non_mpls(), 5);
        assert_eq!((usage.traces, usage.traces_with_mpls), (2, 1));
    }

    #[test]
    fn cycle_report_counts() {
        let traces = vec![
            mpls_trace(Ipv4Addr::new(192, 0, 2, 7), [100, 200]),
            mpls_trace(Ipv4Addr::new(198, 51, 100, 7), [101, 201]),
            plain_trace(ip(3, 7)),
        ];
        let keys = Pipeline::snapshot_keys(&traces);
        let out = Pipeline::default().run(&traces, &mapper, &[keys]);
        let report = CycleReport::build(&traces, &out, &mapper);
        assert_eq!(report.traces, 3);
        assert_eq!(report.traces_with_mpls, 2);
        assert!((report.mpls_trace_fraction() - 2.0 / 3.0).abs() < 1e-9);
        let as1 = &report.per_as[&Asn(1)];
        assert_eq!(as1.classes.multi_fec, 1);
        // ingress + egress + 2 LSRs
        assert_eq!(as1.mpls_ips, 4);
        // AS2 appears with zero classes.
        assert_eq!(report.per_as[&Asn(2)].classes.total(), 0);
        assert_eq!(report.per_as[&Asn(2)].non_mpls_ips, 1);
    }
}
