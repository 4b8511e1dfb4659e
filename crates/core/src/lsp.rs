//! LSPs (Label Switched Paths) and IOTPs (In-Out Transit Pairs).
//!
//! After tunnel extraction and AS attribution, the unit of analysis is
//! the [`Lsp`]: one observed label-switched path through a single AS,
//! with its ingress and egress LERs and, for every intermediate LSR, the
//! reply address and the quoted label stack.
//!
//! LSPs sharing the same `<Ingress LER; Egress LER>` pair within the same
//! AS form an [`Iotp`] (paper §3): the set of explicit MPLS tunnels with
//! the same IP entry and exit points. An IOTP may hold several
//! *branches*, each corresponding to a distinct LSP — physically distinct
//! (different reply IPs) or logically distinct (same IPs, different
//! labels), cf. Fig. 2 of the paper.

use crate::label::{Label, LabelStack};
use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::fmt;
use std::net::Ipv4Addr;

/// An Autonomous System number.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Asn(pub u32);

impl fmt::Debug for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// One intermediate LSR observation inside an LSP: the ICMP reply address
/// and the MPLS label stack it quoted.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct LspHop {
    /// Reply address of the LSR (the incoming-interface address in the
    /// common case).
    pub addr: Ipv4Addr,
    /// Quoted label stack, outermost entry first.
    pub stack: LabelStack,
}

impl LspHop {
    /// Builds a hop observation.
    pub fn new(addr: Ipv4Addr, stack: LabelStack) -> Self {
        LspHop { addr, stack }
    }

    /// The label *values* of this hop, the part LPR compares.
    pub fn labels(&self) -> Vec<Label> {
        self.stack.label_values()
    }

    /// Whether two observations agree on the part LPR compares: the
    /// address and the label values (what [`LspKey`] encodes), compared
    /// in place.
    pub(crate) fn same_signature(&self, other: &LspHop) -> bool {
        self.addr == other.addr && self.stack.same_labels(&other.stack)
    }
}

impl fmt::Debug for LspHop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:?}", self.addr, self.stack)
    }
}

/// The identity of an LSP for deduplication and persistence matching:
/// entry point, exit point, and the full (address, label-values) sequence
/// of its intermediate LSRs.
///
/// Two observations with the same key are the *same* LSP, regardless of
/// which trace, destination, or monitor produced them.
///
/// The key is the byte string [`LspKey::encode`] writes, the one place
/// the format is decided (the spill stores the same bytes). `Ord` is
/// byte order; `Borrow<[u8]>` lets a key set answer `contains` for an
/// encoding held in a reused buffer.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct LspKey(Box<[u8]>);

impl LspKey {
    /// Writes the key of the LSP `ingress → hops → egress` into `out`
    /// (cleared first): `ingress ‖ egress ‖ u32 hop count ‖ per hop:
    /// addr ‖ u32 label count ‖ labels`, all big-endian. Fixed widths
    /// and length prefixes make it injective: byte equality is key
    /// equality. Of each hop's stack only the label values count.
    pub fn encode<'a>(
        ingress: Ipv4Addr,
        egress: Ipv4Addr,
        hops: impl ExactSizeIterator<Item = (Ipv4Addr, &'a LabelStack)>,
        out: &mut Vec<u8>,
    ) {
        out.clear();
        out.extend_from_slice(&ingress.octets());
        out.extend_from_slice(&egress.octets());
        out.extend_from_slice(&(hops.len() as u32).to_be_bytes());
        for (addr, stack) in hops {
            out.extend_from_slice(&addr.octets());
            out.extend_from_slice(&(stack.depth() as u32).to_be_bytes());
            for lse in stack.entries() {
                out.extend_from_slice(&lse.label.value().to_be_bytes());
            }
        }
    }

    /// The key [`LspKey::encode`] wrote into `bytes`.
    pub(crate) fn from_encoded(bytes: &[u8]) -> Self {
        LspKey(bytes.into())
    }

    /// The key's bytes, as the spill stores them.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl Borrow<[u8]> for LspKey {
    fn borrow(&self) -> &[u8] {
        &self.0
    }
}

/// A single observed Label Switched Path through one AS.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Lsp {
    /// AS the tunnel belongs to (the AS of every LSR in it).
    pub asn: Asn,
    /// Ingress LER (tunnel entry point).
    pub ingress: Ipv4Addr,
    /// Egress LER (tunnel exit point).
    pub egress: Ipv4Addr,
    /// Intermediate LSRs, in path order (LERs excluded).
    pub hops: Vec<LspHop>,
    /// AS of the destination of the traceroute that revealed this LSP
    /// (`None` if unmapped).
    pub dst_asn: Option<Asn>,
}

impl Lsp {
    /// Writes this LSP's key into a reused buffer (see [`LspKey::encode`]).
    pub fn encode_key(&self, out: &mut Vec<u8>) {
        let hops = self.hops.iter().map(|h| (h.addr, &h.stack));
        LspKey::encode(self.ingress, self.egress, hops, out);
    }

    /// The LSP's deduplication/persistence key.
    pub fn key(&self) -> LspKey {
        let mut bytes = Vec::new();
        self.encode_key(&mut bytes);
        LspKey(bytes.into())
    }

    /// The IOTP this LSP belongs to.
    pub fn iotp_key(&self) -> IotpKey {
        IotpKey { asn: self.asn, ingress: self.ingress, egress: self.egress }
    }

    /// Number of intermediate LSRs.
    pub fn lsr_count(&self) -> usize {
        self.hops.len()
    }
}

/// The identity of an IOTP: the AS plus the `<Ingress LER; Egress LER>`
/// address pair.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct IotpKey {
    /// Owning AS.
    pub asn: Asn,
    /// Ingress LER address.
    pub ingress: Ipv4Addr,
    /// Egress LER address.
    pub egress: Ipv4Addr,
}

/// One distinct branch of an IOTP: a unique LSP signature together with
/// the set of destination ASes it was observed carrying traffic towards
/// and how many times it was observed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Branch {
    /// Intermediate LSRs of this branch.
    pub hops: Vec<LspHop>,
    /// Destination ASes reached through this branch.
    pub dst_asns: BTreeSet<Asn>,
    /// Observation count (number of merged LSP observations).
    pub observations: usize,
}

impl Branch {
    /// Number of intermediate LSRs of this branch.
    pub fn lsr_count(&self) -> usize {
        self.hops.len()
    }
}

/// An In-Out Transit Pair: every distinct LSP observed between one
/// `<Ingress LER; Egress LER>` pair of a given AS.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Iotp {
    /// The IOTP identity.
    pub key: IotpKey,
    /// Distinct branches (LSPs), in first-observation order.
    pub branches: Vec<Branch>,
}

impl Iotp {
    /// Creates an empty IOTP for a key.
    pub fn new(key: IotpKey) -> Self {
        Iotp { key, branches: Vec::new() }
    }

    /// Merges an LSP observation into the IOTP, deduplicating by LSP
    /// signature. The LSP must share the IOTP's key.
    pub fn absorb(&mut self, lsp: &Lsp) {
        debug_assert_eq!(lsp.iotp_key(), self.key);
        let same = |b: &&mut Branch| {
            b.hops.len() == lsp.hops.len()
                && b.hops.iter().zip(&lsp.hops).all(|(x, y)| x.same_signature(y))
        };
        if let Some(b) = self.branches.iter_mut().find(same) {
            if let Some(a) = lsp.dst_asn {
                b.dst_asns.insert(a);
            }
            b.observations += 1;
            return;
        }
        let mut dst_asns = BTreeSet::new();
        if let Some(a) = lsp.dst_asn {
            dst_asns.insert(a);
        }
        self.branches.push(Branch { hops: lsp.hops.clone(), dst_asns, observations: 1 });
    }

    /// Number of distinct branches (the IOTP's *width*, §4.3).
    pub fn width(&self) -> usize {
        self.branches.len()
    }

    /// All destination ASes reached through this IOTP.
    pub fn dst_asns(&self) -> BTreeSet<Asn> {
        self.branches.iter().flat_map(|b| b.dst_asns.iter().copied()).collect()
    }

    /// Every address observed inside the IOTP's branches (LSRs only).
    pub fn lsr_addrs(&self) -> BTreeSet<Ipv4Addr> {
        self.branches.iter().flat_map(|b| b.hops.iter().map(|h| h.addr)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Lse;

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

    #[test]
    fn identical_lsps_merge_into_one_branch() {
        let a = lsp(&[(2, 100), (3, 200)], 1);
        let b = lsp(&[(2, 100), (3, 200)], 2);
        let mut iotp = Iotp::new(a.iotp_key());
        iotp.absorb(&a);
        iotp.absorb(&b);
        assert_eq!(iotp.width(), 1);
        assert_eq!(iotp.branches[0].observations, 2);
        assert_eq!(iotp.dst_asns().len(), 2);
    }

    #[test]
    fn label_difference_makes_new_branch() {
        let a = lsp(&[(2, 100), (3, 200)], 1);
        let b = lsp(&[(2, 100), (3, 201)], 2);
        let mut iotp = Iotp::new(a.iotp_key());
        iotp.absorb(&a);
        iotp.absorb(&b);
        assert_eq!(iotp.width(), 2);
    }

    #[test]
    fn address_difference_makes_new_branch() {
        let a = lsp(&[(2, 100)], 1);
        let b = lsp(&[(4, 100)], 1);
        let mut iotp = Iotp::new(a.iotp_key());
        iotp.absorb(&a);
        iotp.absorb(&b);
        assert_eq!(iotp.width(), 2);
    }

    #[test]
    fn ttl_difference_merges_but_stack_depth_splits() {
        let a = lsp(&[(2, 100), (3, 200)], 1);
        let mut b = a.clone();
        b.hops[1].stack = LabelStack::from_entries(&[Lse::new(Label::new(200), 5, false, 7)]);
        let mut c = a.clone();
        c.hops[1].stack = LabelStack::from_entries(&[Lse::transit(200, 255), Lse::transit(16, 255)]);
        let mut iotp = Iotp::new(a.iotp_key());
        for l in [&a, &b, &c] {
            iotp.absorb(l);
        }
        assert_eq!(iotp.width(), 2);
        assert_eq!(iotp.branches[0].observations, 2);
        assert_eq!(iotp.branches[1].hops, c.hops);
    }

    #[test]
    fn lsp_key_bytes_follow_the_documented_layout() {
        let mut l = lsp(&[(2, 100)], 1);
        l.hops.push(LspHop::new(ip(3), LabelStack::empty()));
        let expect = [
            &[10, 0, 0, 1][..],
            &[10, 0, 0, 9],
            &2u32.to_be_bytes(),
            &[10, 0, 0, 2],
            &1u32.to_be_bytes(),
            &100u32.to_be_bytes(),
            &[10, 0, 0, 3],
            &0u32.to_be_bytes(),
        ]
        .concat();
        assert_eq!(l.key().as_bytes(), expect);
        let set: BTreeSet<LspKey> = [l.key()].into_iter().collect();
        assert!(set.contains(expect.as_slice()));
    }

    #[test]
    fn lsp_key_ignores_ttl_but_not_labels() {
        let mut a = lsp(&[(2, 100)], 1);
        let mut b = lsp(&[(2, 100)], 1);
        a.hops[0].stack = LabelStack::from_entries(&[Lse::transit(100, 254)]);
        b.hops[0].stack = LabelStack::from_entries(&[Lse::transit(100, 13)]);
        assert_eq!(a.key(), b.key());
        b.hops[0].stack = LabelStack::from_entries(&[Lse::transit(101, 254)]);
        assert_ne!(a.key(), b.key());
    }
}
