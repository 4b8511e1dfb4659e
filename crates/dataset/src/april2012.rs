//! The April 2012 daily campaign: Level3's incremental MPLS roll-out
//! (Fig. 16 of the paper).
//!
//! The paper downloads every daily Archipelago dump for the month
//! preceding cycle 29 and observes (i) MPLS appearing around April 15
//! and ramping over half a month — an incremental deployment, not a
//! flag day — and (ii) the number of *LSPs* barely affected by
//! filtering while the number of *IOTPs* is, because most LSPs are
//! shared by several IOTPs. The daily view also shows spikes/dips in
//! IOTP counts after April 25 caused by varying monitor availability.

use crate::campaign::CampaignOptions;
use crate::evolution::configs_for_cycle;
use crate::world::{World, L3};
use lpr_core::filter::FilterConfig;
use lpr_core::pipeline::Pipeline;
use netsim::internet::splitmix64;
use netsim::{Internet, MplsConfig, ProbeOptions, Prober};

/// Days rendered (the paper uses the 29 daily dumps of April 2012).
pub const DAYS: usize = 29;

/// Level3's deployed-pair fraction on a given April day (1-based):
/// zero before the 15th, then a linear ramp to full deployment at
/// month's end.
pub fn l3_ramp(day: usize) -> f64 {
    if day < 15 {
        0.0
    } else {
        ((day - 14) as f64 / 15.0).min(1.0)
    }
}

/// Monitor availability per April day: full until the 25th, then
/// fluctuating (the paper attributes the late-month spikes and drops
/// to varying vantage-point counts).
pub fn daily_vp_fraction(day: usize) -> f64 {
    if day <= 25 {
        1.0
    } else {
        let h = splitmix64(day as u64 ^ 0x0412);
        0.4 + 0.6 * (h % 1000) as f64 / 1000.0
    }
}

/// One day's counts for Fig. 16.
#[derive(Clone, Copy, Debug, Default)]
pub struct DayCounts {
    /// Level3 IOTPs before the TransitDiversity/Persistence stages
    /// (all IOTPs assembled from the day's complete intra-AS transit
    /// LSPs).
    pub iotps_before: usize,
    /// Level3 IOTPs after filtering.
    pub iotps_after: usize,
    /// Level3 LSP observations before filtering.
    pub lsps_before: usize,
    /// Level3 LSP observations after filtering.
    pub lsps_after: usize,
}

/// Renders one April day and counts Level3 tunnels before/after
/// filtering. The Persistence filter is not applied (the paper's
/// Fig. 16 does not use it: daily dumps are single snapshots).
pub fn april_day(world: &World, day: usize, opts: &CampaignOptions) -> DayCounts {
    // Start from the cycle-28 configuration and override Level3 with
    // the daily ramp.
    let mut configs = configs_for_cycle(28);
    configs.insert(
        L3,
        MplsConfig {
            deployed_pair_fraction: l3_ramp(day),
            enabled: l3_ramp(day) > 0.0,
            ecmp_fec_fraction: 0.85,
            ..MplsConfig::ldp_default()
        },
    );
    let net = Internet::new(world.topo.clone(), &configs);

    let frac = daily_vp_fraction(day);
    let all_vps = world.all_vps();
    let vps: Vec<_> = all_vps
        .iter()
        .enumerate()
        .filter(|(i, _)| ((*i as f64 + 0.5) / all_vps.len() as f64) < frac)
        .map(|(_, vp)| *vp)
        .collect();
    let dsts = world.all_destinations(opts.hosts_per_prefix);

    let prober = Prober::new(
        &net,
        ProbeOptions {
            seed: opts.seed,
            snapshot_salt: 0x0412_0000 | day as u64,
            ..ProbeOptions::default()
        },
    );
    let traces = prober.campaign(&vps, &dsts, 1, None).traces;

    // "Before filtering": every complete intra-AS transit LSP grouped
    // into IOTPs (no TransitDiversity, no Persistence).
    let before = Pipeline::new(FilterConfig { persistence_window: 0, ..Default::default() });
    let all_lsps = {
        let tunnels: Vec<_> = traces.iter().flat_map(lpr_core::tunnel::extract_tunnels).collect();
        lpr_core::filter::attribute_and_filter(&tunnels, world.rib()).lsps
    };
    let l3_lsps: Vec<_> = all_lsps.iter().filter(|l| l.asn == L3).collect();
    let iotps_before = {
        let keys: std::collections::BTreeSet<_> = l3_lsps.iter().map(|l| l.iotp_key()).collect();
        keys.len()
    };
    let lsps_before = l3_lsps.len();

    // "After filtering": the standard pipeline minus Persistence.
    let out = before.run(&traces, world.rib(), &[]);
    let iotps_after = out.iotps.iter().filter(|(i, _)| i.key.asn == L3).count();
    let lsps_after: usize = out
        .iotps
        .iter()
        .filter(|(i, _)| i.key.asn == L3)
        .map(|(i, _)| i.branches.iter().map(|b| b.observations).sum::<usize>())
        .sum();

    DayCounts { iotps_before, iotps_after, lsps_before, lsps_after }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::standard_world;

    #[test]
    fn ramp_shape() {
        assert_eq!(l3_ramp(1), 0.0);
        assert_eq!(l3_ramp(14), 0.0);
        assert!(l3_ramp(15) > 0.0);
        assert!(l3_ramp(20) < l3_ramp(25));
        assert_eq!(l3_ramp(29), 1.0);
    }

    #[test]
    fn no_mpls_before_the_15th() {
        let world = standard_world();
        let counts = april_day(&world, 5, &CampaignOptions::default());
        assert_eq!(counts.lsps_before, 0);
        assert_eq!(counts.iotps_after, 0);
    }

    #[test]
    fn deployment_grows_through_the_month() {
        let world = standard_world();
        let opts = CampaignOptions::default();
        let mid = april_day(&world, 21, &opts);
        let late = april_day(&world, 25, &opts);
        assert!(mid.lsps_before > 0, "{mid:?}");
        assert!(late.iotps_before > mid.iotps_before, "{mid:?} vs {late:?}");
        // LSP counts barely affected by filtering, IOTP counts are.
        assert!(late.lsps_after > 0);
    }
}
