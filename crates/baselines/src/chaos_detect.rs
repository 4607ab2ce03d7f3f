//! CHAOS-record anycast detection (RFC 4892; Fan et al.; Appendix C).
//!
//! Query `hostname.bind TXT CH` from every vantage point; if a nameserver
//! discloses two or more distinct identities, infer replication. The
//! paper's appendix shows why this is a *weak* indicator: co-located
//! server farms answer `auth1`, `auth2`, … from a single site, and the
//! technique only works for DNS at all.

use std::collections::BTreeMap;
use std::net::IpAddr;
use std::sync::Arc;

use laces_core::classify::AnycastClassification;
use laces_core::orchestrator::run_measurement;
use laces_core::results::MeasurementOutcome;
use laces_core::spec::MeasurementSpec;
use laces_core::MeasurementError;
use laces_netsim::{PlatformId, World};
use laces_packet::{PrefixKey, Protocol};
use serde::{Deserialize, Serialize};

/// CHAOS census results for one nameserver hitlist.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosCensus {
    /// Per prefix: the distinct CHAOS identities observed.
    pub identities: BTreeMap<PrefixKey, Vec<String>>,
}

impl ChaosCensus {
    /// The CHAOS "site count" for a prefix (distinct identities).
    pub fn site_count(&self, prefix: PrefixKey) -> usize {
        self.identities.get(&prefix).map_or(0, Vec::len)
    }
}

/// Run a CHAOS measurement from an anycast platform and collect identities.
///
/// # Errors
///
/// Any [`MeasurementError`] from spec validation (wrong platform kind,
/// reserved id).
pub fn chaos_census(
    world: &Arc<World>,
    id: u32,
    platform: PlatformId,
    targets: Arc<Vec<IpAddr>>,
    day: u32,
) -> Result<(ChaosCensus, MeasurementOutcome), MeasurementError> {
    let spec = MeasurementSpec::builder(id, platform)
        .protocol(Protocol::Chaos)
        .targets(targets)
        .day(day)
        .build(world)?;
    let outcome = run_measurement(world, &spec)?;
    let class = AnycastClassification::from_outcome(&outcome);
    let identities = class
        .observations
        .iter()
        .map(|(p, o)| (*p, o.chaos_values.iter().cloned().collect()))
        .collect();
    Ok((ChaosCensus { identities }, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use laces_netsim::{ChaosProfile, TargetKind, WorldConfig};

    #[test]
    fn chaos_counts_sites_for_anycast_but_overcounts_colo() {
        let world = Arc::new(World::generate(WorldConfig::tiny()));
        let hit = laces_hitlist_like(&world);
        let (census, _) = chaos_census(&world, 90, world.std_platforms.production, hit, 0)
            .expect("valid CHAOS spec");

        let mut anycast_ns_multi = 0;
        let mut colo_multi = 0;
        for (i, t) in world.targets.iter().enumerate() {
            let _ = i;
            if !t.prefix.is_v4() || !t.resp.udp {
                continue;
            }
            match (t.ns, &t.kind) {
                (Some(ChaosProfile::PerSite), TargetKind::Anycast { dep })
                    if world.deployment(*dep).n_sites() >= 6
                        && census.site_count(t.prefix) >= 2 =>
                {
                    anycast_ns_multi += 1;
                }
                (Some(ChaosProfile::Colo(k)), TargetKind::Unicast { .. })
                    if k >= 2 && census.site_count(t.prefix) >= 2 =>
                {
                    colo_multi += 1;
                }
                _ => {}
            }
        }
        assert!(
            anycast_ns_multi > 0,
            "anycast nameservers should expose multiple identities"
        );
        // The weak-indicator finding: plenty of single-site servers also
        // show multiple CHAOS values.
        assert!(
            colo_multi > 0,
            "colo nameservers should also show multiple identities"
        );
    }

    fn laces_hitlist_like(world: &Arc<World>) -> Arc<Vec<IpAddr>> {
        Arc::new(
            world.targets[..world.n_v4]
                .iter()
                .filter(|t| t.ns.is_some())
                .map(|t| match t.prefix {
                    PrefixKey::V4(p) => IpAddr::V4(p.addr(53)),
                    PrefixKey::V6(_) => unreachable!(),
                })
                .collect(),
        )
    }
}
