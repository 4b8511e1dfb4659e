//! Vendor fingerprinting from observed label values.
//!
//! Label ranges are vendor-specific (paper §2.2): Cisco platforms
//! allocate dynamic labels from 16 upwards, Juniper from 299 776
//! upwards. The paper uses this (together with its earlier TTL-based
//! fingerprinting work) to attribute the Fig. 17 re-optimisation
//! behaviour "mainly to Juniper hardware". This module infers the
//! dominant platform of an AS from the labels its LSRs expose — a
//! handy sanity check when auditing an unknown ISP.

use crate::lsp::{Asn, Iotp};
use crate::label::Label;
use std::collections::BTreeMap;

/// First label of the Juniper dynamic range.
pub const JUNIPER_RANGE_START: u32 = 299_776;

/// The platform inferred for an AS.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InferredVendor {
    /// Labels dominated by the low (16…) dynamic range.
    CiscoLike,
    /// Labels dominated by the 299 776… dynamic range.
    JuniperLike,
    /// Not enough signal, or an even mix (multi-vendor networks
    /// exist).
    Mixed,
}

/// Counts of observed labels per vendor range.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VendorEvidence {
    /// Labels in `16..299_776`.
    pub low_range: usize,
    /// Labels in `299_776..`.
    pub high_range: usize,
    /// Reserved labels (0–15), counted separately — they say nothing
    /// about the platform.
    pub reserved: usize,
}

impl VendorEvidence {
    /// Adds one observed label.
    pub fn add(&mut self, label: Label) {
        if label.is_reserved() {
            self.reserved += 1;
        } else if label.value() >= JUNIPER_RANGE_START {
            self.high_range += 1;
        } else {
            self.low_range += 1;
        }
    }

    /// The verdict: a platform is inferred when it owns at least ¾ of
    /// the non-reserved observations (and there are at least 4).
    pub fn verdict(&self) -> InferredVendor {
        let total = self.low_range + self.high_range;
        if total < 4 {
            return InferredVendor::Mixed;
        }
        if self.high_range * 4 >= total * 3 {
            InferredVendor::JuniperLike
        } else if self.low_range * 4 >= total * 3 {
            InferredVendor::CiscoLike
        } else {
            InferredVendor::Mixed
        }
    }
}

/// Accumulates label evidence per AS over classified IOTPs and infers
/// each AS's dominant platform.
pub fn infer_vendors<'a>(
    iotps: impl IntoIterator<Item = &'a Iotp>,
) -> BTreeMap<Asn, (VendorEvidence, InferredVendor)> {
    let mut evidence: BTreeMap<Asn, VendorEvidence> = BTreeMap::new();
    for iotp in iotps {
        let e = evidence.entry(iotp.key.asn).or_default();
        for branch in &iotp.branches {
            for hop in &branch.hops {
                for label in hop.labels() {
                    e.add(label);
                }
            }
        }
    }
    evidence
        .into_iter()
        .map(|(asn, e)| (asn, (e, e.verdict())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{LabelStack, Lse};
    use crate::lsp::{IotpKey, Lsp, LspHop};
    use std::net::Ipv4Addr;

    fn iotp_with_labels(asn: u32, labels: &[u32]) -> Iotp {
        let ip = |o: u8| Ipv4Addr::new(10, 0, 0, o);
        let key = IotpKey { asn: Asn(asn), ingress: ip(1), egress: ip(9) };
        let mut iotp = Iotp::new(key);
        for (i, &l) in labels.iter().enumerate() {
            iotp.absorb(&Lsp {
                asn: Asn(asn),
                ingress: ip(1),
                egress: ip(9),
                hops: vec![LspHop::new(
                    ip(2 + i as u8),
                    LabelStack::from_entries(&[Lse::transit(l, 255)]),
                )],
                dst_asn: Some(Asn(100 + i as u32)),
            });
        }
        iotp
    }

    #[test]
    fn juniper_range_is_detected() {
        let iotp = iotp_with_labels(1, &[300_000, 301_234, 456_789, 700_000]);
        let v = infer_vendors([&iotp]);
        assert_eq!(v[&Asn(1)].1, InferredVendor::JuniperLike);
    }

    #[test]
    fn cisco_range_is_detected() {
        let iotp = iotp_with_labels(1, &[16, 1024, 99_000, 24]);
        let v = infer_vendors([&iotp]);
        assert_eq!(v[&Asn(1)].1, InferredVendor::CiscoLike);
    }

    #[test]
    fn mixed_or_scarce_evidence_stays_mixed() {
        // Not enough labels.
        let iotp = iotp_with_labels(1, &[300_000]);
        assert_eq!(infer_vendors([&iotp])[&Asn(1)].1, InferredVendor::Mixed);
        // Even mix.
        let iotp = iotp_with_labels(2, &[16, 17, 300_000, 300_001]);
        assert_eq!(infer_vendors([&iotp])[&Asn(2)].1, InferredVendor::Mixed);
    }

    #[test]
    fn reserved_labels_are_neutral() {
        let mut e = VendorEvidence::default();
        for l in [0u32, 3, 300_000, 300_001, 300_002, 300_003] {
            e.add(Label::new(l));
        }
        assert_eq!(e.reserved, 2);
        assert_eq!(e.verdict(), InferredVendor::JuniperLike);
    }
}
