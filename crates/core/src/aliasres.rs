//! Label-based alias resolution and router-level IOTPs (§5).
//!
//! The paper keeps its analysis at the *address* level to avoid the
//! biases of active alias-resolution tools, but sketches how the label
//! patterns themselves reveal aliases:
//!
//! 1. **Parallel-link positions** — when two branches of an IOTP carry
//!    *identical label sequences* over *different addresses*, LDP's
//!    per-router label scope says those addresses belong to the same
//!    routers (the Fig. 4d argument): every differing position yields
//!    an alias pair.
//! 2. **Predecessors of a common IP** — replying with the incoming
//!    interface over point-to-point links means that reaching the same
//!    address implies arriving over the same link from the same
//!    upstream router; the hops *preceding* a shared address in
//!    different branches are therefore aliases (the §5 argument behind
//!    the penultimate-hop heuristic).
//!
//! [`infer_aliases`] mines both patterns from classified IOTPs;
//! [`merge_router_level`] then re-keys IOTPs by alias-set
//! representative, producing the *router-level* IOTPs §5 calls for —
//! fewer, more consistent pairs.

use crate::lsp::{Branch, Iotp, IotpKey};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// A union-find over interface addresses.
#[derive(Clone, Debug, Default)]
pub struct AliasSets {
    parent: BTreeMap<Ipv4Addr, Ipv4Addr>,
}

impl AliasSets {
    /// An empty relation (every address its own router).
    pub fn new() -> Self {
        Self::default()
    }

    /// The canonical representative of an address's alias set.
    pub fn find(&self, addr: Ipv4Addr) -> Ipv4Addr {
        let mut cur = addr;
        while let Some(&p) = self.parent.get(&cur) {
            if p == cur {
                break;
            }
            cur = p;
        }
        cur
    }

    /// Declares two addresses aliases of the same router.
    pub fn union(&mut self, a: Ipv4Addr, b: Ipv4Addr) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            // Deterministic orientation: the smaller address leads.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent.insert(hi, lo);
            self.parent.entry(lo).or_insert(lo);
        }
    }

    /// Whether two addresses are known aliases.
    pub fn same_router(&self, a: Ipv4Addr, b: Ipv4Addr) -> bool {
        self.find(a) == self.find(b)
    }

    /// Every non-trivial alias set (size ≥ 2), each sorted.
    pub fn sets(&self) -> Vec<Vec<Ipv4Addr>> {
        let mut grouped: BTreeMap<Ipv4Addr, Vec<Ipv4Addr>> = BTreeMap::new();
        for &addr in self.parent.keys() {
            grouped.entry(self.find(addr)).or_default().push(addr);
        }
        grouped.into_values().filter(|v| v.len() >= 2).collect()
    }
}

fn label_signature(b: &Branch) -> Vec<Vec<crate::label::Label>> {
    b.hops.iter().map(|h| h.labels()).collect()
}

/// Mines alias pairs from the label patterns of a set of IOTPs.
pub fn infer_aliases<'a>(iotps: impl IntoIterator<Item = &'a Iotp>) -> AliasSets {
    let mut sets = AliasSets::new();
    for iotp in iotps {
        let branches = &iotp.branches;
        for i in 0..branches.len() {
            for j in i + 1..branches.len() {
                let (a, b) = (&branches[i], &branches[j]);
                // Pattern 1: identical label sequences => positionwise
                // aliases.
                if a.hops.len() == b.hops.len() && label_signature(a) == label_signature(b) {
                    for (ha, hb) in a.hops.iter().zip(&b.hops) {
                        if ha.addr != hb.addr {
                            sets.union(ha.addr, hb.addr);
                        }
                    }
                }
                // Pattern 2: predecessors of a shared address are
                // aliases (point-to-point incoming-interface replies).
                for (pa, wa) in a.hops.windows(2).enumerate() {
                    let _ = pa;
                    for wb in b.hops.windows(2) {
                        if wa[1].addr == wb[1].addr && wa[0].addr != wb[0].addr {
                            sets.union(wa[0].addr, wb[0].addr);
                        }
                    }
                }
            }
        }
    }
    sets
}

/// Re-keys IOTPs at the router level: ingress/egress addresses are
/// replaced by their alias-set representative and IOTPs that collapse
/// onto the same key are merged.
///
/// Returns the merged IOTPs together with how many address-level IOTPs
/// each one absorbed.
pub fn merge_router_level(iotps: &[Iotp], aliases: &AliasSets) -> Vec<(Iotp, usize)> {
    let mut merged: BTreeMap<IotpKey, (Iotp, usize)> = BTreeMap::new();
    for iotp in iotps {
        let key = IotpKey {
            asn: iotp.key.asn,
            ingress: aliases.find(iotp.key.ingress),
            egress: aliases.find(iotp.key.egress),
        };
        let entry = merged
            .entry(key)
            .or_insert_with(|| (Iotp::new(key), 0));
        entry.1 += 1;
        // Re-absorb every branch as an LSP-like observation.
        for b in &iotp.branches {
            let lsp = crate::lsp::Lsp {
                asn: iotp.key.asn,
                ingress: key.ingress,
                egress: key.egress,
                hops: b.hops.clone(),
                dst_asn: b.dst_asns.iter().next().copied(),
            };
            entry.0.absorb(&lsp);
            // Preserve the full destination sets.
            if let Some(last) = entry.0.branches.last_mut() {
                let sig_match = last.hops.len() == b.hops.len()
                    && last.hops.iter().zip(&b.hops).all(|(x, y)| x == y);
                if sig_match {
                    last.dst_asns.extend(b.dst_asns.iter().copied());
                }
            }
        }
    }
    merged.into_values().collect()
}

/// Convenience: the distinct destination-AS count of a merged IOTP.
pub fn dst_diversity(iotp: &Iotp) -> usize {
    let all: BTreeSet<_> = iotp.branches.iter().flat_map(|b| b.dst_asns.iter()).collect();
    all.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{LabelStack, Lse};
    use crate::lsp::{Asn, Lsp, LspHop};

    fn ip(o: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, o)
    }

    fn lsp(ingress: u8, egress: u8, hops: &[(u8, u32)], dst_asn: u32) -> Lsp {
        Lsp {
            asn: Asn(65000),
            ingress: ip(ingress),
            egress: ip(egress),
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
        let mut iotp = Iotp::new(lsps[0].iotp_key());
        for l in lsps {
            iotp.absorb(l);
        }
        iotp
    }

    #[test]
    fn parallel_links_reveal_aliases() {
        // Same labels, different first-hop addresses: ip(2) and ip(3)
        // must be aliases.
        let iotp = iotp_of(&[
            lsp(1, 9, &[(2, 100), (7, 400)], 100),
            lsp(1, 9, &[(3, 100), (7, 400)], 101),
        ]);
        let aliases = infer_aliases([&iotp]);
        assert!(aliases.same_router(ip(2), ip(3)));
        assert!(!aliases.same_router(ip(2), ip(7)));
        assert_eq!(aliases.sets(), vec![vec![ip(2), ip(3)]]);
    }

    #[test]
    fn predecessors_of_shared_address_are_aliases() {
        // Branches meet at ip(7) (same address => same incoming link):
        // their predecessors ip(2)/ip(4) are aliases even though the
        // labels differ (TE case).
        let iotp = iotp_of(&[
            lsp(1, 9, &[(2, 100), (7, 400)], 100),
            lsp(1, 9, &[(4, 101), (7, 401)], 101),
        ]);
        let aliases = infer_aliases([&iotp]);
        assert!(aliases.same_router(ip(2), ip(4)));
    }

    #[test]
    fn no_false_aliases_on_disjoint_branches() {
        let iotp = iotp_of(&[
            lsp(1, 9, &[(2, 100), (5, 300)], 100),
            lsp(1, 9, &[(3, 101), (6, 301)], 101),
        ]);
        let aliases = infer_aliases([&iotp]);
        assert!(aliases.sets().is_empty());
    }

    #[test]
    fn router_level_merge_collapses_aliased_ingresses() {
        // Two address-level IOTPs whose ingress addresses are aliases
        // (learned from a third, parallel-links IOTP).
        let teach = iotp_of(&[
            lsp(1, 9, &[(20, 100), (7, 400)], 100),
            lsp(1, 9, &[(21, 100), (7, 400)], 101),
        ]);
        let a = iotp_of(&[lsp(20, 8, &[(5, 200)], 100), lsp(20, 8, &[(5, 200)], 101)]);
        let b = iotp_of(&[lsp(21, 8, &[(5, 201)], 102)]);
        let aliases = infer_aliases([&teach]);
        assert!(aliases.same_router(ip(20), ip(21)));

        let merged = merge_router_level(&[a, b], &aliases);
        assert_eq!(merged.len(), 1, "aliased ingresses must merge");
        let (iotp, absorbed) = &merged[0];
        assert_eq!(*absorbed, 2);
        assert_eq!(iotp.key.ingress, ip(20)); // smaller representative
        assert_eq!(iotp.width(), 2); // L200 and L201 branches
        assert_eq!(dst_diversity(iotp), 3);
    }

    #[test]
    fn union_find_is_transitive_and_deterministic() {
        let mut s = AliasSets::new();
        s.union(ip(5), ip(3));
        s.union(ip(3), ip(8));
        assert!(s.same_router(ip(5), ip(8)));
        assert_eq!(s.find(ip(8)), ip(3));
        assert_eq!(s.sets(), vec![vec![ip(3), ip(5), ip(8)]]);
        // Unknown addresses are their own routers.
        assert_eq!(s.find(ip(77)), ip(77));
    }
}
