//! The classification step of LPR (paper §3.2, Algorithm 1).
//!
//! Every filtered IOTP is assigned to one of four classes by recognising
//! the standard label-distribution behaviours of LDP versus RSVP-TE:
//!
//! * **Mono-LSP** — a single LSP whatever the destination: no transit
//!   path diversity (Fig. 4a).
//! * **Multi-FEC** — at least one *common IP address* (an LSR interface
//!   crossed by ≥2 distinct LSPs) exposes **different labels** for
//!   different LSPs. LDP would have advertised one label per prefix to
//!   all neighbours, so distinct labels on the same router for the same
//!   egress betray distinct FECs, i.e. RSVP-TE traffic engineering
//!   (Fig. 4b).
//! * **ECMP Mono-FEC** — every common IP address carries a single label:
//!   one FEC, with the path diversity coming from IGP ECMP underneath
//!   LDP. Split into **Parallel Links** (identical label sequences with
//!   differing addresses ⇒ the addresses are aliases on bundled links,
//!   Fig. 4d) and **Routers Disjoint** (labels *and* addresses differ at
//!   some hop ⇒ genuinely diverse routers, Fig. 4c).
//! * **Unclassified** — no common IP address at all, which happens when
//!   PHP hides the labels at the only convergence point (the egress
//!   LER). §5's alias heuristic ([`crate::alias`]) can rescue these.

use crate::label::Label;
use crate::lsp::Iotp;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::net::Ipv4Addr;

/// The ECMP Mono-FEC subclasses (paper Fig. 4c / 4d and Fig. 13).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MonoFecKind {
    /// Identical label sequences on every branch while addresses differ:
    /// LDP label scope is per-router, so two distinct routers would not
    /// have chosen the same labels — the addresses must be aliases of
    /// the same routers, i.e. ECMP over parallel (bundled) links.
    ParallelLinks,
    /// Branches differ in both labels and addresses at some hop: ECMP
    /// across disjoint routers.
    RoutersDisjoint,
}

/// The LPR classes (paper Fig. 3 and Algorithm 1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Class {
    /// A single LSP for every destination AS: no observable diversity.
    MonoLsp,
    /// Distinct labels on a common IP address: RSVP-TE / multiple FECs.
    MultiFec,
    /// A single FEC with ECMP load balancing underneath.
    MonoFec(MonoFecKind),
    /// No common IP address: cannot conclude (typically PHP).
    Unclassified,
}

impl Class {
    /// Coarse class label used in the paper's figures
    /// (`Mono-LSP` / `Multi-FEC` / `Mono-FEC` / `Unclass.`).
    pub fn name(&self) -> &'static str {
        match self {
            Class::MonoLsp => "Mono-LSP",
            Class::MultiFec => "Multi-FEC",
            Class::MonoFec(_) => "Mono-FEC",
            Class::Unclassified => "Unclassified",
        }
    }
}

impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Class::MonoFec(MonoFecKind::ParallelLinks) => write!(f, "Mono-FEC (parallel links)"),
            Class::MonoFec(MonoFecKind::RoutersDisjoint) => {
                write!(f, "Mono-FEC (routers disjoint)")
            }
            other => f.write_str(other.name()),
        }
    }
}

/// Full classification result for one IOTP.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Classification {
    /// The class assigned by Algorithm 1.
    pub class: Class,
    /// Number of common IP addresses the IOTP exhibits (addresses of
    /// LSRs crossed by at least two distinct LSPs).
    pub common_ips: usize,
    /// The common IP addresses on which several labels were seen
    /// (non-empty exactly for Multi-FEC).
    pub multi_label_ips: Vec<Ipv4Addr>,
}

/// The set of label-value sequences observed at each address across the
/// IOTP's branches, restricted to addresses crossed by ≥2 branches.
///
/// This is the `getCommonIP()` of Algorithm 1 (line 15): an address
/// belongs to the common set when at least two *distinct* LSPs traverse
/// it. The associated value collects every label signature quoted there,
/// which line 21 then counts.
pub fn common_ip_labels(iotp: &Iotp) -> BTreeMap<Ipv4Addr, BTreeSet<Vec<Label>>> {
    // addr -> (branch indices that cross it, label signatures seen there)
    let mut seen: BTreeMap<Ipv4Addr, (BTreeSet<usize>, BTreeSet<Vec<Label>>)> = BTreeMap::new();
    for (bi, branch) in iotp.branches.iter().enumerate() {
        for hop in &branch.hops {
            let entry = seen.entry(hop.addr).or_default();
            entry.0.insert(bi);
            entry.1.insert(hop.labels());
        }
    }
    seen.into_iter()
        .filter(|(_, (branches, _))| branches.len() >= 2)
        .map(|(addr, (_, labels))| (addr, labels))
        .collect()
}

/// Classifies one IOTP (Algorithm 1 of the paper).
pub fn classify_iotp(iotp: &Iotp) -> Classification {
    // Line 10: a single LSP (same addresses, same labels) => Mono-LSP.
    if iotp.branches.len() <= 1 {
        return Classification { class: Class::MonoLsp, common_ips: 0, multi_label_ips: Vec::new() };
    }

    let common = common_ip_labels(iotp);

    // Lines 16–19: no common IP address => Unclassified.
    if common.is_empty() {
        return Classification {
            class: Class::Unclassified,
            common_ips: 0,
            multi_label_ips: Vec::new(),
        };
    }

    // Lines 20–25: any common IP with more than one label => Multi-FEC.
    let multi_label_ips: Vec<Ipv4Addr> = common
        .iter()
        .filter(|(_, labels)| labels.len() > 1)
        .map(|(addr, _)| *addr)
        .collect();
    if !multi_label_ips.is_empty() {
        return Classification {
            class: Class::MultiFec,
            common_ips: common.len(),
            multi_label_ips,
        };
    }

    // Lines 26–28: every common IP carries a single label => ECMP
    // Mono-FEC. Subclass split per §3.2's discussion of Fig. 4c/4d.
    let kind = mono_fec_kind(iotp);
    Classification {
        class: Class::MonoFec(kind),
        common_ips: common.len(),
        multi_label_ips: Vec::new(),
    }
}

/// Distinguishes the two Mono-FEC subclasses.
///
/// *Parallel Links*: the label sequences of all branches are identical
/// while addresses differ — the differing addresses must be aliases.
/// *Routers Disjoint*: at least one hop position differs in both labels
/// and addresses (or the branches have different lengths, which identical
/// label sequences cannot produce).
fn mono_fec_kind(iotp: &Iotp) -> MonoFecKind {
    let mut signatures = iotp
        .branches
        .iter()
        .map(|b| b.hops.iter().map(|h| h.labels()).collect::<Vec<_>>());
    let first = match signatures.next() {
        Some(s) => s,
        None => return MonoFecKind::ParallelLinks,
    };
    if signatures.all(|s| s == first) {
        MonoFecKind::ParallelLinks
    } else {
        MonoFecKind::RoutersDisjoint
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

    fn key() -> IotpKey {
        IotpKey { asn: Asn(65000), ingress: ip(1), egress: ip(9) }
    }

    /// Builds an LSP whose LSR hops are (last-octet, label) pairs.
    fn lsp(hops: &[(u8, u32)], dst_asn: u32) -> Lsp {
        Lsp {
            asn: Asn(65000),
            ingress: ip(1),
            egress: ip(9),
            hops: hops
                .iter()
                .map(|&(o, l)| {
                    LspHop::new(ip(o), LabelStack::from_entries(&[Lse::transit(l, 255)]))
                })
                .collect(),
            dst_asn: Some(Asn(dst_asn)),
        }
    }

    fn iotp_of(lsps: &[Lsp]) -> Iotp {
        let mut iotp = Iotp::new(key());
        for l in lsps {
            iotp.absorb(l);
        }
        iotp
    }

    #[test]
    fn single_lsp_is_mono_lsp() {
        // Fig. 4a: same path, two destination ASes.
        let iotp = iotp_of(&[lsp(&[(2, 100), (3, 200)], 1), lsp(&[(2, 100), (3, 200)], 2)]);
        assert_eq!(classify_iotp(&iotp).class, Class::MonoLsp);
    }

    #[test]
    fn different_labels_on_common_ip_is_multi_fec() {
        // Fig. 4b: both LSPs cross LSR ip(3) which shows L200 vs L201.
        let iotp = iotp_of(&[lsp(&[(2, 100), (3, 200)], 1), lsp(&[(2, 101), (3, 201)], 2)]);
        let c = classify_iotp(&iotp);
        assert_eq!(c.class, Class::MultiFec);
        assert!(c.multi_label_ips.contains(&ip(2)));
        assert!(c.multi_label_ips.contains(&ip(3)));
    }

    #[test]
    fn multi_fec_detected_even_on_single_common_hop() {
        // Paths differ everywhere except one convergence LSR.
        let iotp = iotp_of(&[
            lsp(&[(2, 100), (5, 300), (3, 200)], 1),
            lsp(&[(4, 101), (6, 301), (3, 201)], 2),
        ]);
        let c = classify_iotp(&iotp);
        assert_eq!(c.class, Class::MultiFec);
        assert_eq!(c.multi_label_ips, vec![ip(3)]);
    }

    #[test]
    fn ecmp_disjoint_routers() {
        // Fig. 4c: diverge through different routers (different labels
        // AND addresses), reconverge on a common tail with equal labels.
        let iotp = iotp_of(&[
            lsp(&[(2, 100), (7, 400)], 1),
            lsp(&[(4, 101), (7, 400)], 2),
        ]);
        let c = classify_iotp(&iotp);
        assert_eq!(c.class, Class::MonoFec(MonoFecKind::RoutersDisjoint));
        assert_eq!(c.common_ips, 1);
    }

    #[test]
    fn ecmp_parallel_links() {
        // Fig. 4d: same labels all along, different interface addresses
        // on the first hop (parallel links towards the same LSR), then a
        // shared hop.
        let iotp = iotp_of(&[
            lsp(&[(2, 100), (7, 400)], 1),
            lsp(&[(3, 100), (7, 400)], 2),
        ]);
        let c = classify_iotp(&iotp);
        assert_eq!(c.class, Class::MonoFec(MonoFecKind::ParallelLinks));
    }

    #[test]
    fn no_common_ip_is_unclassified() {
        // PHP case: LSPs converge only at the (label-less) egress LER.
        let iotp = iotp_of(&[lsp(&[(2, 100)], 1), lsp(&[(4, 101)], 2)]);
        assert_eq!(classify_iotp(&iotp).class, Class::Unclassified);
    }

    #[test]
    fn different_lengths_with_common_tail_single_label_is_disjoint() {
        let iotp = iotp_of(&[
            lsp(&[(2, 100), (5, 300), (7, 400)], 1),
            lsp(&[(4, 101), (7, 400)], 2),
        ]);
        assert_eq!(
            classify_iotp(&iotp).class,
            Class::MonoFec(MonoFecKind::RoutersDisjoint)
        );
    }

    #[test]
    fn multi_fec_takes_precedence_over_ecmp() {
        // Three branches: two form an ECMP pattern, the third reuses a
        // common IP with a different label => Multi-FEC wins (the paper
        // classifies an IOTP multi-FEC as soon as one common IP shows
        // distinct labels — an upper bound on TE usage, §3.2).
        let iotp = iotp_of(&[
            lsp(&[(2, 100), (7, 400)], 1),
            lsp(&[(4, 101), (7, 400)], 2),
            lsp(&[(2, 100), (7, 401)], 3),
        ]);
        assert_eq!(classify_iotp(&iotp).class, Class::MultiFec);
    }

    #[test]
    fn label_stack_depth_matters() {
        // Same outer label but different inner label at the common hop:
        // distinct signatures => Multi-FEC.
        let mk = |inner: u32, dst: u32| Lsp {
            asn: Asn(65000),
            ingress: ip(1),
            egress: ip(9),
            hops: vec![LspHop::new(
                ip(3),
                LabelStack::from_entries(&[Lse::transit(100, 255), Lse::transit(inner, 255)]),
            )],
            dst_asn: Some(Asn(dst)),
        };
        let iotp = iotp_of(&[mk(7, 1), mk(8, 2)]);
        assert_eq!(classify_iotp(&iotp).class, Class::MultiFec);
    }

    #[test]
    fn common_ip_labels_counts_branches_not_observations() {
        // The same LSP observed twice is ONE branch: its hop addresses
        // are not "common" on their own.
        let iotp = iotp_of(&[lsp(&[(2, 100)], 1), lsp(&[(2, 100)], 2)]);
        assert!(common_ip_labels(&iotp).is_empty());
    }

    #[test]
    fn classification_names() {
        assert_eq!(Class::MonoLsp.name(), "Mono-LSP");
        assert_eq!(Class::MonoFec(MonoFecKind::ParallelLinks).name(), "Mono-FEC");
        assert_eq!(
            Class::MonoFec(MonoFecKind::ParallelLinks).to_string(),
            "Mono-FEC (parallel links)"
        );
    }
}
