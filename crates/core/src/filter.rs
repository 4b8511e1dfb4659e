//! The filtering-and-sanitising stage of LPR (paper §3.1, Table 1).
//!
//! Four filters are applied sequentially to the explicit tunnels
//! extracted from a cycle (plus the implicit *incomplete-LSP* removal
//! performed during extraction):
//!
//! 1. **IncompleteLsp** — LSPs containing an anonymous LSR or whose LERs
//!    could not be delimited are removed.
//! 2. **IntraAs** — every address involved in the LSP must belong to one
//!    AS (inter-domain transit tunnels are negligible: 0.9% in the
//!    paper).
//! 3. **TargetAs** — the traceroute destination must sit in a *different*
//!    AS than the tunnel, otherwise the tunnel does not carry transit
//!    traffic.
//! 4. **TransitDiversity** — only IOTPs used to reach at least two
//!    distinct destination ASes are kept (multi-FEC practice is defined
//!    on destination prefixes).
//! 5. **Persistence** — an LSP seen in cycle *X* is kept only if it is
//!    seen again in one of the *j* following snapshots of the same month
//!    (default *j = 2*). If an AS loses its whole LSP set to this filter
//!    the set is reinjected and the AS tagged *dynamic* (§4.5).

use crate::lsp::{Asn, Iotp, IotpKey, Lsp, LspHop, LspKey};
use crate::quarantine::validate_trace;
use crate::trace::Trace;
use crate::tunnel::{extract_tunnels_into, RawTunnel};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// Maps an IP address to the AS that originates it (IP2AS).
///
/// Implemented by `ip2as::Ip2AsTrie` over Routeviews-style RIB
/// snapshots; any longest-prefix-match source will do.
pub trait AsMapper {
    /// The origin AS of `addr`, or `None` when unmapped.
    fn asn_of(&self, addr: Ipv4Addr) -> Option<Asn>;
}

impl<F: Fn(Ipv4Addr) -> Option<Asn>> AsMapper for F {
    fn asn_of(&self, addr: Ipv4Addr) -> Option<Asn> {
        self(addr)
    }
}

/// The filter stages, in application order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum FilterStage {
    /// Anonymous LSR / undelimited LER removal (done at extraction).
    IncompleteLsp,
    /// All LSP addresses in one AS.
    IntraAs,
    /// Destination outside the tunnel's AS.
    TargetAs,
    /// IOTP reaches ≥ 2 destination ASes.
    TransitDiversity,
    /// LSP re-observed within the next `j` snapshots.
    Persistence,
}

impl FilterStage {
    /// All stages in order.
    pub const ALL: [FilterStage; 5] = [
        FilterStage::IncompleteLsp,
        FilterStage::IntraAs,
        FilterStage::TargetAs,
        FilterStage::TransitDiversity,
        FilterStage::Persistence,
    ];

    /// Human-readable name matching Table 1 of the paper.
    pub fn name(&self) -> &'static str {
        match self {
            FilterStage::IncompleteLsp => "Incomplete LSPs",
            FilterStage::IntraAs => "IntraAS",
            FilterStage::TargetAs => "TargetAS",
            FilterStage::TransitDiversity => "TransitDiversity",
            FilterStage::Persistence => "Persistence",
        }
    }
}

/// Configuration of the filter pipeline.
#[derive(Clone, Debug)]
pub struct FilterConfig {
    /// Persistence window `j`: an LSP of cycle X survives if re-observed
    /// in X+1, …, X+j. `0` disables the Persistence filter, as does a
    /// run given no follow-up snapshots. The paper settles on `j = 2`
    /// (§4.2).
    pub persistence_window: usize,
    /// Fraction of an AS's LSPs that must disappear for the dynamic
    /// reinjection of §4.5 to trigger. The paper reinjects only when the
    /// *whole* set is deleted (footnote 4), i.e. `1.0`.
    pub dynamic_reinject_threshold: f64,
}

impl Default for FilterConfig {
    fn default() -> Self {
        FilterConfig { persistence_window: 2, dynamic_reinject_threshold: 1.0 }
    }
}

/// Survival accounting across the pipeline, in LSPs (Table 1 reports the
/// proportion of tunnels remaining after each filter).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FilterReport {
    /// LSPs entering the pipeline (raw extracted tunnels).
    pub input: usize,
    /// LSPs remaining after each stage, keyed by stage.
    pub remaining: BTreeMap<FilterStage, usize>,
}

impl FilterReport {
    /// Proportion of the input remaining after `stage` (1.0 when the
    /// input was empty, mirroring "nothing was removed").
    pub fn proportion_after(&self, stage: FilterStage) -> f64 {
        if self.input == 0 {
            return 1.0;
        }
        self.remaining.get(&stage).map_or(1.0, |&n| n as f64 / self.input as f64)
    }
}

/// Outcome of the LSP-level (per-trace) filters.
#[derive(Debug)]
pub struct AttributionOutcome {
    /// LSPs that survived IncompleteLsp + IntraAs + TargetAs.
    pub lsps: Vec<Lsp>,
    /// Count after IncompleteLsp.
    pub after_incomplete: usize,
    /// Count after IntraAs.
    pub after_intra_as: usize,
    /// Count after TargetAs (== `lsps.len()`).
    pub after_target_as: usize,
}

/// Applies the three per-LSP filters: IncompleteLsp, IntraAs, TargetAs.
///
/// Attribution assigns each complete tunnel to an AS: the AS every LSR
/// address and both LER addresses map to. Tunnels with unmapped or
/// mixed-AS addresses fail IntraAs; tunnels whose destination maps into
/// the tunnel's own AS (or is unmapped) fail TargetAs.
pub fn attribute_and_filter(
    tunnels: &[RawTunnel],
    mapper: &dyn AsMapper,
) -> AttributionOutcome {
    let mut after_incomplete = 0usize;
    let mut after_intra_as = 0usize;
    let mut lsps = Vec::new();

    for t in tunnels {
        if !t.is_complete() || t.lsrs.is_empty() {
            continue;
        }
        after_incomplete += 1;

        let ingress = t.ingress.expect("complete tunnel");
        let egress = t.egress.expect("complete tunnel");

        // IntraAs: all LSR addresses plus both LERs must map to one AS.
        let mut asn: Option<Asn> = None;
        let mut intra = true;
        for addr in t
            .lsrs
            .iter()
            .map(|(a, _)| *a)
            .chain([ingress, egress])
        {
            match mapper.asn_of(addr) {
                Some(a) => match asn {
                    None => asn = Some(a),
                    Some(prev) if prev == a => {}
                    Some(_) => {
                        intra = false;
                        break;
                    }
                },
                None => {
                    intra = false;
                    break;
                }
            }
        }
        let asn = match (intra, asn) {
            (true, Some(a)) => a,
            _ => continue,
        };
        after_intra_as += 1;

        // TargetAs: the destination must be in a different AS.
        let dst_asn = mapper.asn_of(t.dst);
        if dst_asn == Some(asn) || dst_asn.is_none() {
            continue;
        }

        lsps.push(Lsp {
            asn,
            ingress,
            egress,
            hops: t
                .lsrs
                .iter()
                .map(|(a, s)| LspHop::new(*a, s.clone()))
                .collect(),
            dst_asn,
        });
    }

    let after_target_as = lsps.len();
    AttributionOutcome { lsps, after_incomplete, after_intra_as, after_target_as }
}

/// Groups LSPs into IOTPs and applies the TransitDiversity filter:
/// only IOTPs reaching at least two destination ASes survive.
///
/// Returns the surviving IOTP keys as a **sorted** `Vec` — membership
/// checks downstream are a [`slice::binary_search`] on this slice (see
/// [`iotp_kept`]), which beats a `BTreeSet` probe on both locality and
/// allocation.
pub fn transit_diversity_keys(lsps: &[Lsp]) -> Vec<IotpKey> {
    let mut dsts: BTreeMap<IotpKey, BTreeSet<Asn>> = BTreeMap::new();
    for l in lsps {
        if let Some(d) = l.dst_asn {
            dsts.entry(l.iotp_key()).or_default().insert(d);
        }
    }
    // BTreeMap iterates in key order, so the Vec is born sorted.
    dsts.into_iter().filter(|(_, d)| d.len() >= 2).map(|(k, _)| k).collect()
}

/// Membership probe against the sorted keep-slice produced by
/// [`transit_diversity_keys`].
#[inline]
pub fn iotp_kept(keep: &[IotpKey], key: IotpKey) -> bool {
    keep.binary_search(&key).is_ok()
}

/// Result of the Persistence filter.
#[derive(Debug)]
pub struct PersistenceOutcome {
    /// LSPs kept (re-observed, or reinjected for dynamic ASes).
    pub lsps: Vec<Lsp>,
    /// ASes whose LSP set vanished entirely and was reinjected (§4.5).
    pub dynamic_ases: BTreeSet<Asn>,
    /// Number of LSP observations kept *before* dynamic reinjection
    /// (this is what Table 1 counts).
    pub strictly_persistent: usize,
}

/// Applies the Persistence filter: an LSP observation of the current
/// cycle survives when its [`LspKey`] appears in at least one of the
/// `future_keys` sets (the following `j` snapshots of the same month).
///
/// When every LSP of an AS would disappear (fraction ≥
/// `config.dynamic_reinject_threshold`), the AS's whole set is
/// reinjected and the AS is tagged dynamic — frequent label
/// reallocation is a TE behaviour worth studying, not noise (§4.5).
pub fn persistence(
    lsps: Vec<Lsp>,
    future_keys: &[BTreeSet<LspKey>],
    config: &FilterConfig,
) -> PersistenceOutcome {
    let flags = persistent_flags(&lsps, future_keys, config);
    let (kept, dropped) = partition_by_flags(lsps, &flags);
    reinject_dynamic(kept, dropped, config)
}

/// The per-LSP half of the Persistence filter: `flags[i]` is whether
/// `lsps[i]` is re-observed inside the window. A window of no snapshots
/// keeps every LSP. Keys are probed as bytes from one reused buffer, so
/// nothing is allocated per LSP; the map is pure per item, so the
/// parallel pipeline shards it.
pub fn persistent_flags(
    lsps: &[Lsp],
    future_keys: &[BTreeSet<LspKey>],
    config: &FilterConfig,
) -> Vec<bool> {
    let window = &future_keys[..config.persistence_window.min(future_keys.len())];
    if window.is_empty() {
        return vec![true; lsps.len()];
    }
    let mut key = Vec::new();
    lsps.iter()
        .map(|l| {
            l.encode_key(&mut key);
            window.iter().any(|cycle| cycle.contains(key.as_slice()))
        })
        .collect()
}

/// Splits `lsps` into (kept, dropped) by the persistence flags,
/// preserving order within each half. Moves, never clones.
pub fn partition_by_flags(lsps: Vec<Lsp>, flags: &[bool]) -> (Vec<Lsp>, Vec<Lsp>) {
    debug_assert_eq!(lsps.len(), flags.len());
    let mut kept = Vec::with_capacity(lsps.len());
    let mut dropped = Vec::new();
    for (l, &keep) in lsps.into_iter().zip(flags) {
        if keep {
            kept.push(l);
        } else {
            dropped.push(l);
        }
    }
    (kept, dropped)
}

/// The aggregate half of the Persistence filter: per-AS dynamic
/// detection and reinjection over an already-partitioned LSP set (§4.5).
pub fn reinject_dynamic(
    mut kept: Vec<Lsp>,
    dropped: Vec<Lsp>,
    config: &FilterConfig,
) -> PersistenceOutcome {
    let strictly_persistent = kept.len();

    let mut kept_per_as: BTreeMap<Asn, usize> = BTreeMap::new();
    let mut dropped_per_as: BTreeMap<Asn, usize> = BTreeMap::new();
    for l in &kept {
        *kept_per_as.entry(l.asn).or_default() += 1;
    }
    for l in &dropped {
        *dropped_per_as.entry(l.asn).or_default() += 1;
    }
    let mut dynamic_ases = BTreeSet::new();
    for (&asn, &ndropped) in &dropped_per_as {
        let nkept = kept_per_as.get(&asn).copied().unwrap_or(0);
        let total = nkept + ndropped;
        if total > 0 && ndropped as f64 / total as f64 >= config.dynamic_reinject_threshold {
            dynamic_ases.insert(asn);
        }
    }
    if !dynamic_ases.is_empty() {
        kept.extend(dropped.into_iter().filter(|l| dynamic_ases.contains(&l.asn)));
    }

    PersistenceOutcome { lsps: kept, dynamic_ases, strictly_persistent }
}

/// Builds the final IOTPs from the filtered LSPs, restricted to the
/// surviving IOTP keys (the sorted slice from
/// [`transit_diversity_keys`]).
///
/// The result is sorted by [`IotpKey`] and key-unique — parallel
/// classification relies on this to shard without regrouping.
pub fn build_iotps(lsps: &[Lsp], keep: &[IotpKey]) -> Vec<Iotp> {
    let mut map: BTreeMap<IotpKey, Iotp> = BTreeMap::new();
    for l in lsps {
        let k = l.iotp_key();
        if !iotp_kept(keep, k) {
            continue;
        }
        map.entry(k).or_insert_with(|| Iotp::new(k)).absorb(l);
    }
    map.into_values().collect()
}

/// Builds one snapshot's LSP key set, the set the Persistence filter
/// matches against, one trace at a time. Only complete tunnels of valid
/// traces count: a quarantined trace or an incomplete re-observation
/// cannot confirm an LSP. Tunnels and key bytes go into reused buffers,
/// and a key is allocated only when it is new.
#[derive(Debug, Default)]
pub struct KeySetBuilder {
    keys: BTreeSet<LspKey>,
    tunnels: Vec<RawTunnel>,
    key: Vec<u8>,
}

impl KeySetBuilder {
    /// Adds the keys of one trace's complete tunnels.
    pub fn push_trace(&mut self, trace: &Trace) {
        if validate_trace(trace).is_err() {
            return;
        }
        self.tunnels.clear();
        extract_tunnels_into(trace, &mut self.tunnels);
        for t in self.tunnels.iter().filter(|t| t.is_complete() && !t.lsrs.is_empty()) {
            let (ingress, egress) = (t.ingress.expect("complete"), t.egress.expect("complete"));
            LspKey::encode(ingress, egress, t.lsrs.iter().map(|(a, s)| (*a, s)), &mut self.key);
            if !self.keys.contains(self.key.as_slice()) {
                self.keys.insert(LspKey::from_encoded(&self.key));
            }
        }
    }

    /// The key set.
    pub fn finish(self) -> BTreeSet<LspKey> {
        self.keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{LabelStack, Lse};
    use crate::tunnel::TunnelError;

    fn ip(a: u8, o: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, a, 0, o)
    }

    /// Maps 10.a.0.x -> AS(a), 192.0.2.x -> AS(100), else None.
    fn mapper(addr: Ipv4Addr) -> Option<Asn> {
        let o = addr.octets();
        match (o[0], o[1]) {
            (10, a) => Some(Asn(a as u32)),
            (192, 0) => Some(Asn(100)),
            _ => None,
        }
    }

    fn tunnel(asn: u8, labels: &[u32], dst: Ipv4Addr) -> RawTunnel {
        RawTunnel {
            ingress: Some(ip(asn, 1)),
            egress: Some(ip(asn, 9)),
            lsrs: labels
                .iter()
                .enumerate()
                .map(|(i, &l)| {
                    (ip(asn, 2 + i as u8), LabelStack::from_entries(&[Lse::transit(l, 255)]))
                })
                .collect(),
            dst,
            src: Ipv4Addr::new(203, 0, 113, 1),
            incomplete: None,
        }
    }

    #[test]
    fn incomplete_tunnels_are_dropped() {
        let mut t = tunnel(1, &[100], Ipv4Addr::new(192, 0, 2, 1));
        t.incomplete = Some(TunnelError::AnonymousLsr);
        let out = attribute_and_filter(&[t], &mapper);
        assert_eq!(out.after_incomplete, 0);
        assert!(out.lsps.is_empty());
    }

    #[test]
    fn inter_as_tunnel_fails_intra_as() {
        let mut t = tunnel(1, &[100, 200], Ipv4Addr::new(192, 0, 2, 1));
        t.lsrs[1].0 = ip(2, 3); // second LSR in another AS
        let out = attribute_and_filter(&[t], &mapper);
        assert_eq!(out.after_incomplete, 1);
        assert_eq!(out.after_intra_as, 0);
    }

    #[test]
    fn unmapped_address_fails_intra_as() {
        let mut t = tunnel(1, &[100], Ipv4Addr::new(192, 0, 2, 1));
        t.lsrs[0].0 = Ipv4Addr::new(172, 16, 0, 1);
        let out = attribute_and_filter(&[t], &mapper);
        assert_eq!(out.after_intra_as, 0);
    }

    #[test]
    fn destination_inside_tunnel_as_fails_target_as() {
        let t = tunnel(1, &[100], ip(1, 200)); // dst in AS1 itself
        let out = attribute_and_filter(&[t], &mapper);
        assert_eq!(out.after_intra_as, 1);
        assert_eq!(out.after_target_as, 0);
    }

    #[test]
    fn good_tunnel_survives_lsp_filters() {
        let t = tunnel(1, &[100, 200], Ipv4Addr::new(192, 0, 2, 1));
        let out = attribute_and_filter(&[t], &mapper);
        assert_eq!(out.after_target_as, 1);
        let l = &out.lsps[0];
        assert_eq!(l.asn, Asn(1));
        assert_eq!(l.dst_asn, Some(Asn(100)));
        assert_eq!(l.lsr_count(), 2);
    }

    fn lsp_to(asn: u8, labels: &[u32], dst_asn: u32) -> Lsp {
        Lsp {
            asn: Asn(asn as u32),
            ingress: ip(asn, 1),
            egress: ip(asn, 9),
            hops: labels
                .iter()
                .enumerate()
                .map(|(i, &l)| {
                    LspHop::new(
                        ip(asn, 2 + i as u8),
                        LabelStack::from_entries(&[Lse::transit(l, 255)]),
                    )
                })
                .collect(),
            dst_asn: Some(Asn(dst_asn)),
        }
    }

    #[test]
    fn transit_diversity_requires_two_dst_ases() {
        let single = vec![lsp_to(1, &[100], 100), lsp_to(1, &[100], 100)];
        let keep = transit_diversity_keys(&single);
        assert!(keep.is_empty());
        assert_eq!(single.iter().filter(|l| iotp_kept(&keep, l.iotp_key())).count(), 0);

        let diverse = vec![lsp_to(1, &[100], 100), lsp_to(1, &[100], 101)];
        let keep = transit_diversity_keys(&diverse);
        assert_eq!(keep.len(), 1);
        assert_eq!(diverse.iter().filter(|l| iotp_kept(&keep, l.iotp_key())).count(), 2);
    }

    #[test]
    fn transit_diversity_keys_are_sorted_for_binary_search() {
        let lsps: Vec<Lsp> = (1..=9u8)
            .rev() // arrival order must not matter
            .flat_map(|a| vec![lsp_to(a, &[100], 100), lsp_to(a, &[100], 101)])
            .collect();
        let keep = transit_diversity_keys(&lsps);
        assert_eq!(keep.len(), 9);
        assert!(keep.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
        for l in &lsps {
            assert!(iotp_kept(&keep, l.iotp_key()));
        }
        assert!(!iotp_kept(&keep, lsp_to(200, &[1], 100).iotp_key()));
    }

    #[test]
    fn persistence_keeps_reobserved_lsps() {
        let a = lsp_to(1, &[100], 100);
        let b = lsp_to(1, &[200], 101);
        let c = lsp_to(2, &[300], 100); // sole AS2 LSP, never re-seen -> reinjected
        let future: Vec<BTreeSet<LspKey>> =
            vec![[a.key()].into_iter().collect(), BTreeSet::new()];
        let out = persistence(
            vec![a.clone(), b, c.clone()],
            &future,
            &FilterConfig::default(),
        );
        assert_eq!(out.strictly_persistent, 1);
        // AS1 kept only `a` (majority survived => no reinjection);
        // AS2 lost everything => reinjected + tagged dynamic.
        assert!(out.dynamic_ases.contains(&Asn(2)));
        assert!(!out.dynamic_ases.contains(&Asn(1)));
        assert_eq!(out.lsps.len(), 2);
        assert!(out.lsps.iter().any(|l| l.key() == a.key()));
        assert!(out.lsps.iter().any(|l| l.key() == c.key()));
    }

    #[test]
    fn persistence_window_zero_is_identity() {
        let a = lsp_to(1, &[100], 100);
        let out = persistence(
            vec![a],
            &[],
            &FilterConfig { persistence_window: 0, ..Default::default() },
        );
        assert_eq!(out.lsps.len(), 1);
        assert!(out.dynamic_ases.is_empty());
    }

    #[test]
    fn persistence_respects_window_length() {
        let a = lsp_to(1, &[100], 100);
        let in_third: Vec<BTreeSet<LspKey>> = vec![
            BTreeSet::new(),
            BTreeSet::new(),
            [a.key()].into_iter().collect(),
        ];
        // j = 2 cannot see the third snapshot -> dropped (then reinjected
        // as the whole AS1 set vanished, tagging AS1 dynamic).
        let out = persistence(vec![a.clone()], &in_third, &FilterConfig::default());
        assert_eq!(out.strictly_persistent, 0);
        assert!(out.dynamic_ases.contains(&Asn(1)));
        // j = 3 sees it.
        let out = persistence(
            vec![a],
            &in_third,
            &FilterConfig { persistence_window: 3, ..Default::default() },
        );
        assert_eq!(out.strictly_persistent, 1);
    }

    #[test]
    fn build_iotps_groups_by_key() {
        let lsps = vec![lsp_to(1, &[100], 100), lsp_to(1, &[200], 101), lsp_to(2, &[1], 100)];
        let mut keep: Vec<IotpKey> = lsps.iter().map(|l| l.iotp_key()).collect();
        keep.sort();
        keep.dedup();
        let iotps = build_iotps(&lsps, &keep);
        assert_eq!(iotps.len(), 2);
        let as1 = iotps.iter().find(|i| i.key.asn == Asn(1)).unwrap();
        assert_eq!(as1.width(), 2);
    }

    #[test]
    fn filter_report_proportions() {
        let mut r = FilterReport { input: 200, remaining: BTreeMap::new() };
        r.remaining.insert(FilterStage::IncompleteLsp, 170);
        assert!((r.proportion_after(FilterStage::IncompleteLsp) - 0.85).abs() < 1e-9);
        // Unknown stage falls back to 1.0; empty input reports 1.0.
        assert_eq!(r.proportion_after(FilterStage::Persistence), 1.0);
        let empty = FilterReport::default();
        assert_eq!(empty.proportion_after(FilterStage::IntraAs), 1.0);
    }
}
