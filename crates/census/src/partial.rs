//! Partial-anycast detection: the /32-granularity scan (§5.6).
//!
//! The census probes one representative per `/24`, which misclassifies
//! prefixes that mix unicast and anycast addresses (the NTT public-resolver
//! case). The paper's remedy is a dedicated GCD scan at `/32` granularity
//! from a handful of VPs — a few VPs suffice because partial anycast
//! requires a global backbone, whose sites are far apart and easy to
//! separate with GCD.
//!
//! Scanning every address of every `/24` is modelled by probing one
//! address in the prefix's anycast-capable low range and one in its high
//! range; a `/24` whose two addresses give different GCD verdicts is
//! *partial anycast*.

use std::collections::BTreeSet;
use std::net::IpAddr;
use std::sync::Arc;

use laces_core::MeasurementError;
use laces_gcd::engine::{run_campaign, GcdClass, GcdConfig};
use laces_netsim::{PlatformId, World};
use laces_packet::{Prefix24, PrefixKey, Protocol};
use serde::{Deserialize, Serialize};

/// Outcome of the /32-granularity scan.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PartialScan {
    /// `/24`s where every probed address is anycast.
    pub fully_anycast: BTreeSet<PrefixKey>,
    /// `/24`s mixing anycast and unicast addresses.
    pub partial: BTreeSet<PrefixKey>,
    /// Probes transmitted.
    pub probes_sent: u64,
}

/// Host probed inside the anycast-capable low range.
pub const LOW_HOST: u8 = 1;
/// Host probed in the ordinary range (matches the hitlist representative).
pub const HIGH_HOST: u8 = laces_netsim::targets::REPRESENTATIVE_HOST;

/// Run the scan over all `/24`s in `prefixes` using `n_vps` VPs of the
/// given platform (the paper used nine).
///
/// # Errors
///
/// [`MeasurementError::NotUnicast`] if `platform` is not a unicast VP
/// platform.
pub fn run_partial_scan(
    world: &Arc<World>,
    platform: PlatformId,
    prefixes: &[Prefix24],
    n_vps: usize,
    measurement_id: u32,
    day: u32,
) -> Result<PartialScan, MeasurementError> {
    let mut cfg = GcdConfig::daily(measurement_id, day);
    cfg.precheck = true;
    cfg.max_vps = Some(n_vps);

    let low: Vec<IpAddr> = prefixes
        .iter()
        .map(|p| IpAddr::V4(p.addr(LOW_HOST)))
        .collect();
    let high: Vec<IpAddr> = prefixes
        .iter()
        .map(|p| IpAddr::V4(p.addr(HIGH_HOST)))
        .collect();

    let low_report = run_campaign(world, platform, &low, &cfg)?;
    let mut cfg2 = cfg.clone();
    cfg2.measurement_id = measurement_id + 1;
    let high_report = run_campaign(world, platform, &high, &cfg2)?;

    let mut out = PartialScan {
        probes_sent: low_report.probes_sent + high_report.probes_sent,
        ..Default::default()
    };
    for p in prefixes {
        let k_low = PrefixKey::of(IpAddr::V4(p.addr(LOW_HOST)));
        let low_any = low_report.results.get(&k_low).map(|r| r.class) == Some(GcdClass::Anycast);
        let high_any = high_report.results.get(&k_low).map(|r| r.class) == Some(GcdClass::Anycast);
        match (low_any, high_any) {
            (true, true) => {
                out.fully_anycast.insert(k_low);
            }
            (true, false) | (false, true) => {
                out.partial.insert(k_low);
            }
            (false, false) => {}
        }
    }
    Ok(out)
}

/// Convenience: the protocol the scan uses.
pub const SCAN_PROTOCOL: Protocol = Protocol::Icmp;

#[cfg(test)]
mod tests {
    use super::*;
    use laces_netsim::{TargetKind, WorldConfig};

    #[test]
    fn scan_flags_partial_anycast_prefixes() {
        let world = Arc::new(World::generate(WorldConfig::tiny()));
        // Scan every /24 that is partial, plus controls: some fully-anycast
        // and some unicast prefixes.
        let mut prefixes: Vec<Prefix24> = Vec::new();
        let mut truth_partial: BTreeSet<PrefixKey> = BTreeSet::new();
        let mut n_full = 0;
        let mut n_uni = 0;
        for t in &world.targets[..world.n_v4] {
            let PrefixKey::V4(p) = t.prefix else {
                unreachable!()
            };
            match t.kind {
                TargetKind::PartialAnycast { .. } if t.temp.is_none() && t.resp.icmp => {
                    prefixes.push(p);
                    truth_partial.insert(t.prefix);
                }
                TargetKind::Anycast { dep }
                    if n_full < 10
                        && t.temp.is_none()
                        && t.resp.icmp
                        && world.deployment(dep).n_distinct_cities() >= 8 =>
                {
                    prefixes.push(p);
                    n_full += 1;
                }
                TargetKind::Unicast { .. } if n_uni < 20 && t.resp.icmp => {
                    prefixes.push(p);
                    n_uni += 1;
                }
                _ => {}
            }
        }
        assert!(!truth_partial.is_empty());

        let scan = run_partial_scan(&world, world.std_platforms.ark, &prefixes, 9, 700, 0)
            .expect("unicast VP platform");
        // Most true partials detected (allowing churn/loss misses).
        let hit = truth_partial.intersection(&scan.partial).count();
        assert!(
            hit * 3 >= truth_partial.len() * 2,
            "partials found {hit}/{}",
            truth_partial.len()
        );
        // No unicast control flagged.
        for t in &world.targets[..world.n_v4] {
            if matches!(t.kind, TargetKind::Unicast { .. }) {
                assert!(!scan.partial.contains(&t.prefix));
                assert!(!scan.fully_anycast.contains(&t.prefix));
            }
        }
        // Fully anycast controls land in fully_anycast, not partial.
        assert!(scan.fully_anycast.len() >= n_full / 2);
    }
}
