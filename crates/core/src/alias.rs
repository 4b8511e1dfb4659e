//! The §5 penultimate-hop alias heuristic.
//!
//! With PHP, the LSPs of an IOTP may only converge at the Egress LER,
//! which exposes no label — Algorithm 1 then gives up (`Unclassified`).
//! The paper's discussion proposes a lightweight rescue: the Egress LER
//! is, by the IOTP's definition, a convergence point shared by every
//! branch; assuming routers answer with the incoming interface of the
//! probe over point-to-point links, the *penultimate* hops of the
//! branches are upstream interfaces feeding that shared point and can
//! serve as a virtual common IP. Comparing the labels quoted there
//! separates Mono-FEC (one label) from Multi-FEC (distinct labels).
//!
//! The heuristic is opt-in — the paper itself reports results *without*
//! it, noting it mainly removes the Unclassified class — and is exposed
//! here as [`classify_with_alias_heuristic`].

use crate::classify::{classify_iotp, Class, Classification, MonoFecKind};
use crate::label::Label;
use crate::lsp::Iotp;
use std::collections::BTreeSet;

/// Classifies an IOTP with Algorithm 1 and, when that yields
/// `Unclassified`, retries using the penultimate hops of every branch as
/// a virtual common point.
///
/// Branches without any hop (possible after UHP egress trimming) keep
/// the IOTP unclassified: there is no penultimate observation to use.
pub fn classify_with_alias_heuristic(iotp: &Iotp) -> Classification {
    let base = classify_iotp(iotp);
    if base.class != Class::Unclassified {
        return base;
    }
    let mut penultimate_labels: BTreeSet<Vec<Label>> = BTreeSet::new();
    for branch in &iotp.branches {
        match branch.hops.last() {
            Some(h) => {
                penultimate_labels.insert(h.labels());
            }
            None => return base,
        }
    }
    let class = if penultimate_labels.len() > 1 {
        Class::MultiFec
    } else {
        // A single label at the virtual convergence point: ECMP
        // Mono-FEC. The subclass follows the standard rule.
        let sigs: BTreeSet<Vec<Vec<Label>>> = iotp
            .branches
            .iter()
            .map(|b| b.hops.iter().map(|h| h.labels()).collect())
            .collect();
        if sigs.len() <= 1 {
            Class::MonoFec(MonoFecKind::ParallelLinks)
        } else {
            Class::MonoFec(MonoFecKind::RoutersDisjoint)
        }
    };
    Classification { class, common_ips: 1, multi_label_ips: Vec::new() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{LabelStack, Lse};
    use crate::lsp::{Asn, IotpKey, Lsp, LspHop};
    use std::net::Ipv4Addr;

    fn ip(o: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, o)
    }

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
        let mut iotp = Iotp::new(IotpKey { asn: Asn(65000), ingress: ip(1), egress: ip(9) });
        for l in lsps {
            iotp.absorb(l);
        }
        iotp
    }

    #[test]
    fn non_unclassified_results_pass_through() {
        let iotp = iotp_of(&[lsp(&[(2, 100)], 1), lsp(&[(2, 100)], 2)]);
        assert_eq!(classify_with_alias_heuristic(&iotp).class, Class::MonoLsp);
    }

    #[test]
    fn rescue_to_multi_fec() {
        // No common IP; penultimate hops (the only hops) show distinct
        // labels => the virtual common point reveals multiple FECs.
        let iotp = iotp_of(&[lsp(&[(2, 100)], 1), lsp(&[(4, 101)], 2)]);
        assert_eq!(classify_iotp(&iotp).class, Class::Unclassified);
        assert_eq!(classify_with_alias_heuristic(&iotp).class, Class::MultiFec);
    }

    #[test]
    fn rescue_to_mono_fec_parallel() {
        // Same single label on both branches, differing addresses:
        // aliases on parallel links.
        let iotp = iotp_of(&[lsp(&[(2, 100)], 1), lsp(&[(4, 100)], 2)]);
        assert_eq!(classify_iotp(&iotp).class, Class::Unclassified);
        assert_eq!(
            classify_with_alias_heuristic(&iotp).class,
            Class::MonoFec(MonoFecKind::ParallelLinks)
        );
    }

    #[test]
    fn rescue_to_mono_fec_disjoint() {
        // Penultimate labels agree but upstream hops differ in both
        // labels and addresses.
        let iotp = iotp_of(&[lsp(&[(2, 50), (3, 100)], 1), lsp(&[(4, 51), (5, 100)], 2)]);
        assert_eq!(classify_iotp(&iotp).class, Class::Unclassified);
        assert_eq!(
            classify_with_alias_heuristic(&iotp).class,
            Class::MonoFec(MonoFecKind::RoutersDisjoint)
        );
    }
}
