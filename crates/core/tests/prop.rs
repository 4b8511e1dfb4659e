//! Property tests for the LPR classification: random IOTPs are checked
//! against a naive reference implementation of Algorithm 1, plus
//! structural invariances (branch order, duplicate observations). The
//! LSP key's byte encoding is checked against a nested reference key.

use lpr_core::classify::{classify_iotp, Class, MonoFecKind};
use lpr_core::label::{Label, LabelStack, Lse};
use lpr_core::lsp::{Asn, Iotp, IotpKey, Lsp, LspHop, LspKey};
use lpr_core::metrics::IotpMetrics;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

fn ip(o: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, o)
}

/// A random LSP: a short sequence of (address, label) hops drawn from
/// small pools so collisions (common IPs, equal labels) actually occur.
fn arb_lsp(dst_asn: u32) -> impl Strategy<Value = Lsp> {
    proptest::collection::vec((2u8..10, 16u32..24), 1..5).prop_map(move |hops| Lsp {
        asn: Asn(65000),
        ingress: ip(1),
        egress: ip(99),
        hops: hops
            .into_iter()
            .map(|(o, l)| LspHop::new(ip(o), LabelStack::from_entries(&[Lse::transit(l, 255)])))
            .collect(),
        dst_asn: Some(Asn(dst_asn)),
    })
}

fn arb_iotp() -> impl Strategy<Value = Iotp> {
    proptest::collection::vec(arb_lsp(0), 1..6).prop_map(|mut lsps| {
        let key = IotpKey { asn: Asn(65000), ingress: ip(1), egress: ip(99) };
        let mut iotp = Iotp::new(key);
        for (i, l) in lsps.iter_mut().enumerate() {
            l.dst_asn = Some(Asn(100 + i as u32));
            iotp.absorb(l);
        }
        iotp
    })
}

/// Naive re-statement of Algorithm 1, written independently of the
/// library implementation.
fn reference_class(iotp: &Iotp) -> Class {
    if iotp.branches.len() <= 1 {
        return Class::MonoLsp;
    }
    // addr -> (branches crossing it, label sequences seen there)
    let mut by_addr: BTreeMap<Ipv4Addr, (BTreeSet<usize>, BTreeSet<Vec<Label>>)> =
        BTreeMap::new();
    for (bi, b) in iotp.branches.iter().enumerate() {
        for h in &b.hops {
            let e = by_addr.entry(h.addr).or_default();
            e.0.insert(bi);
            e.1.insert(h.labels());
        }
    }
    let common: Vec<_> = by_addr.values().filter(|(bs, _)| bs.len() >= 2).collect();
    if common.is_empty() {
        return Class::Unclassified;
    }
    if common.iter().any(|(_, labels)| labels.len() > 1) {
        return Class::MultiFec;
    }
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
}

/// The nested form `LspKey` had before it became its byte encoding: the
/// reference that encoding's equality must agree with.
#[derive(PartialEq, Eq, Debug)]
struct NestedKey {
    ingress: Ipv4Addr,
    egress: Ipv4Addr,
    signature: Vec<(Ipv4Addr, Vec<Label>)>,
}

fn nested_key(l: &Lsp) -> NestedKey {
    NestedKey {
        ingress: l.ingress,
        egress: l.egress,
        signature: l.hops.iter().map(|h| (h.addr, h.labels())).collect(),
    }
}

/// A random LSP of 1–6 hops, each quoting 0–3 labels. LERs, addresses
/// and labels share one small pool of 32-bit words, so an address and
/// a label can be the same word and only the length prefixes tell hop
/// boundaries apart.
fn arb_keyed_lsp() -> impl Strategy<Value = Lsp> {
    let stack = proptest::collection::vec((2u32..5, 250u8..=255), 0..4);
    let hops = proptest::collection::vec((2u32..5, stack), 1..7);
    (2u32..5, 2u32..5, hops).prop_map(|(ingress, egress, hops)| Lsp {
        asn: Asn(65000),
        ingress: Ipv4Addr::from(ingress),
        egress: Ipv4Addr::from(egress),
        hops: hops
            .into_iter()
            .map(|(addr, stack)| {
                let stack = stack.into_iter().map(|(l, ttl)| Lse::transit(l, ttl)).collect();
                LspHop::new(Ipv4Addr::from(addr), stack)
            })
            .collect(),
        dst_asn: None,
    })
}

/// A second LSP near `a`: a copy that differs only in TTLs, or one
/// small edit, or an independent draw (`fresh`).
fn near(a: &Lsp, edit: u8, at: usize, fresh: Lsp) -> Lsp {
    let mut b = a.clone();
    let i = at % b.hops.len();
    let last_label = |b: &Lsp| b.hops[i].stack.entries().last().copied();
    match edit {
        0 => {
            let entries: Vec<Lse> = b.hops[i]
                .stack
                .entries()
                .iter()
                .map(|e| Lse::new(e.label, e.tc, e.bottom, e.ttl.wrapping_sub(7)))
                .collect();
            b.hops[i].stack = LabelStack::from_entries(&entries);
        }
        1 => match b.hops[i].stack.top().copied() {
            Some(top) => b.hops[i].stack.swap_top(Label::new(top.label.value() ^ 1)),
            None => b.hops[i].stack.push(Lse::transit(2, 255)),
        },
        // Move a label across a hop boundary: the flat label sequence
        // stays the same, the key must not.
        2 if i + 1 < b.hops.len() => {
            if let Some(last) = last_label(&b) {
                let depth = b.hops[i].stack.depth();
                b.hops[i].stack = LabelStack::from_entries(&b.hops[i].stack.entries()[..depth - 1]);
                let mut moved = vec![last];
                moved.extend_from_slice(b.hops[i + 1].stack.entries());
                b.hops[i + 1].stack = LabelStack::from_entries(&moved);
            }
        }
        // Shift a hop boundary: hop i's last label becomes hop i+1's
        // address, and that address its first label. The words stay
        // the same; only the label counts tell the two apart.
        3 if i + 1 < b.hops.len() => {
            if let Some(last) = last_label(&b) {
                let depth = b.hops[i].stack.depth();
                b.hops[i].stack = LabelStack::from_entries(&b.hops[i].stack.entries()[..depth - 1]);
                let next = &mut b.hops[i + 1];
                let mut stack = vec![Lse::transit(u32::from(next.addr), 255)];
                stack.extend_from_slice(next.stack.entries());
                next.addr = Ipv4Addr::from(last.label.value());
                next.stack = LabelStack::from_entries(&stack);
            }
        }
        4 if b.hops.len() > 1 => {
            b.hops.pop();
        }
        5 => b.hops[i].addr = Ipv4Addr::from(u32::from(b.hops[i].addr) % 3 + 2),
        6 => std::mem::swap(&mut b.ingress, &mut b.egress),
        _ => b = fresh,
    }
    b
}

proptest! {
    #[test]
    fn lsp_key_bytes_agree_with_the_nested_key(
        a in arb_keyed_lsp(),
        edit in 0u8..9,
        at in 0usize..6,
        fresh in arb_keyed_lsp(),
    ) {
        let b = near(&a, edit, at, fresh);
        let same = nested_key(&a) == nested_key(&b);
        prop_assert_eq!(a.key() == b.key(), same);
        // The buffer encoding is the key's bytes, and a key set answers
        // a borrowed probe exactly as it answers the owned key.
        let mut buf = vec![0xAA; 3];
        b.encode_key(&mut buf);
        prop_assert_eq!(buf.as_slice(), b.key().as_bytes());
        let set: BTreeSet<LspKey> = [a.key()].into_iter().collect();
        prop_assert_eq!(set.contains(buf.as_slice()), set.contains(&b.key()));
        prop_assert_eq!(set.contains(buf.as_slice()), same);
    }
}

proptest! {
    #[test]
    fn classification_matches_reference(iotp in arb_iotp()) {
        prop_assert_eq!(classify_iotp(&iotp).class, reference_class(&iotp));
    }

    #[test]
    fn classification_is_branch_order_invariant(iotp in arb_iotp(), seed in any::<u64>()) {
        let base = classify_iotp(&iotp).class;
        let mut shuffled = iotp.clone();
        let mut s = seed;
        for i in (1..shuffled.branches.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (s >> 33) as usize % (i + 1);
            shuffled.branches.swap(i, j);
        }
        prop_assert_eq!(classify_iotp(&shuffled).class, base);
    }

    #[test]
    fn duplicate_observations_do_not_change_the_class(iotp in arb_iotp()) {
        let base = classify_iotp(&iotp).class;
        let mut doubled = iotp.clone();
        // Re-absorb each existing branch as a fresh observation.
        let branches = iotp.branches.clone();
        for b in &branches {
            let lsp = Lsp {
                asn: iotp.key.asn,
                ingress: iotp.key.ingress,
                egress: iotp.key.egress,
                hops: b.hops.clone(),
                dst_asn: Some(Asn(9999)),
            };
            doubled.absorb(&lsp);
        }
        prop_assert_eq!(doubled.width(), iotp.width(), "absorb must dedupe");
        prop_assert_eq!(classify_iotp(&doubled).class, base);
    }

    #[test]
    fn metrics_invariants(iotp in arb_iotp()) {
        let m = IotpMetrics::of(&iotp);
        prop_assert_eq!(m.width, iotp.branches.len());
        prop_assert!(m.symmetry <= m.length);
        let max = iotp.branches.iter().map(|b| b.hops.len()).max().unwrap_or(0);
        let min = iotp.branches.iter().map(|b| b.hops.len()).min().unwrap_or(0);
        prop_assert_eq!(m.length, max);
        prop_assert_eq!(m.symmetry, max - min);
        // Mono-LSP <=> width 1.
        let cls = classify_iotp(&iotp).class;
        prop_assert_eq!(cls == Class::MonoLsp, m.width == 1);
    }

    #[test]
    fn alias_rescue_only_touches_unclassified(iotp in arb_iotp()) {
        let base = classify_iotp(&iotp).class;
        let rescued = lpr_core::alias::classify_with_alias_heuristic(&iotp).class;
        if base != Class::Unclassified {
            prop_assert_eq!(rescued, base);
        } else {
            prop_assert!(rescued != Class::MonoLsp, "rescue cannot invent Mono-LSP");
        }
    }
}
