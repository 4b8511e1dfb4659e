//! IOTP length, width and symmetry (paper §4.3).
//!
//! These adapt the load-balanced-path metrics of Augustin et al. to
//! IOTPs:
//!
//! * **length** — the number of LSRs in the *longest* LSP of the IOTP,
//!   LERs excluded (Fig. 7);
//! * **width** — the number of branches between the ingress and egress
//!   LERs, physically or logically distinct (Fig. 8);
//! * **symmetry** — length minus the number of LSRs in the *shortest*
//!   LSP; `0` means balanced (Fig. 9).

use crate::hist::Histogram;
use crate::lsp::Iotp;

/// The three §4.3 metrics for one IOTP.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IotpMetrics {
    /// LSRs in the longest branch.
    pub length: usize,
    /// Number of branches.
    pub width: usize,
    /// Longest minus shortest branch (in LSRs).
    pub symmetry: usize,
}

impl IotpMetrics {
    /// Computes the metrics of an IOTP. An IOTP always holds at least
    /// one branch by construction; an empty one reports all zeros.
    pub fn of(iotp: &Iotp) -> Self {
        let longest = iotp.branches.iter().map(|b| b.lsr_count()).max().unwrap_or(0);
        let shortest = iotp.branches.iter().map(|b| b.lsr_count()).min().unwrap_or(0);
        IotpMetrics { length: longest, width: iotp.width(), symmetry: longest - shortest }
    }

    /// Whether the IOTP is balanced (symmetrical): all branches have the
    /// same LSR count.
    pub fn is_balanced(&self) -> bool {
        self.symmetry == 0
    }
}

/// Length / width / symmetry distributions over a set of IOTPs, as
/// plotted in Figs. 7–9.
#[derive(Clone, Debug, Default)]
pub struct MetricDistributions {
    /// IOTP length histogram.
    pub length: Histogram,
    /// IOTP width histogram.
    pub width: Histogram,
    /// IOTP symmetry histogram.
    pub symmetry: Histogram,
}

impl MetricDistributions {
    /// Accumulates one IOTP.
    pub fn add(&mut self, iotp: &Iotp) {
        let m = IotpMetrics::of(iotp);
        self.length.add(m.length as u64);
        self.width.add(m.width as u64);
        self.symmetry.add(m.symmetry as u64);
    }

    /// Accumulates many IOTPs.
    pub fn collect<'a>(iotps: impl IntoIterator<Item = &'a Iotp>) -> Self {
        let mut d = MetricDistributions::default();
        for i in iotps {
            d.add(i);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{LabelStack, Lse};
    use crate::lsp::{Asn, Iotp, IotpKey, Lsp, LspHop};
    use std::net::Ipv4Addr;

    fn ip(o: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, o)
    }

    fn iotp(branch_lengths: &[usize]) -> Iotp {
        let key = IotpKey { asn: Asn(1), ingress: ip(1), egress: ip(9) };
        let mut iotp = Iotp::new(key);
        for (bi, &len) in branch_lengths.iter().enumerate() {
            let lsp = Lsp {
                asn: Asn(1),
                ingress: ip(1),
                egress: ip(9),
                hops: (0..len)
                    .map(|h| {
                        LspHop::new(
                            Ipv4Addr::new(10, 0, bi as u8 + 1, h as u8 + 1),
                            LabelStack::from_entries(&[Lse::transit(
                                (bi * 100 + h) as u32 + 16,
                                255,
                            )]),
                        )
                    })
                    .collect(),
                dst_asn: Some(Asn(100 + bi as u32)),
            };
            iotp.absorb(&lsp);
        }
        iotp
    }

    #[test]
    fn metrics_of_single_branch() {
        let m = IotpMetrics::of(&iotp(&[3]));
        assert_eq!(m, IotpMetrics { length: 3, width: 1, symmetry: 0 });
        assert!(m.is_balanced());
    }

    #[test]
    fn metrics_of_unbalanced_iotp() {
        let m = IotpMetrics::of(&iotp(&[5, 2, 4]));
        assert_eq!(m, IotpMetrics { length: 5, width: 3, symmetry: 3 });
        assert!(!m.is_balanced());
    }

    #[test]
    fn distributions_accumulate() {
        let iotps = [iotp(&[3]), iotp(&[2, 2]), iotp(&[4, 1])];
        let d = MetricDistributions::collect(iotps.iter());
        assert_eq!(d.length.total(), 3);
        assert_eq!(d.width.count(1), 1);
        assert_eq!(d.width.count(2), 2);
        assert_eq!(d.symmetry.count(0), 2);
        assert_eq!(d.symmetry.count(3), 1);
    }
}
