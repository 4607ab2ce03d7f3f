//! Shared, lazily-computed measurement artifacts.
//!
//! Several experiments consume the same expensive inputs (the ICMPv4
//! anycast-based classification, the full-hitlist GCD_Ark reference); this
//! cache computes each once per process.

use std::collections::{BTreeMap, BTreeSet};
use std::net::IpAddr;
use std::sync::{Arc, Mutex, OnceLock};

use laces_core::classify::AnycastClassification;
use laces_core::orchestrator::run_measurement;
use laces_core::spec::MeasurementSpec;
use laces_gcd::engine::{run_campaign, GcdConfig, GcdReport};
use laces_gcd::PrefixGcd;
use laces_netsim::{PlatformId, World, WorldConfig};
use laces_packet::{IpVersion, PrefixKey, ProbeEncoding, Protocol};

/// World scale for an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale test world.
    Tiny,
    /// Tiny topology, larger population.
    Mid,
    /// The paper-calibrated world (default for `run_all`).
    Paper,
}

impl Scale {
    /// Read from `LACES_SCALE` (tiny|mid|paper) or argv; defaults to
    /// Paper.
    pub fn from_env_or_args(args: &[String]) -> Scale {
        let v = std::env::var("LACES_SCALE").ok();
        let pick = |s: &str| match s {
            "tiny" => Some(Scale::Tiny),
            "mid" => Some(Scale::Mid),
            "paper" => Some(Scale::Paper),
            _ => None,
        };
        if let Some(s) = args.iter().find_map(|a| pick(a)) {
            return s;
        }
        v.as_deref().and_then(pick).unwrap_or(Scale::Paper)
    }

    /// World configuration for this scale.
    pub fn config(self) -> WorldConfig {
        match self {
            Scale::Tiny => WorldConfig::tiny(),
            Scale::Mid => WorldConfig::paper_topology_tiny_targets(),
            Scale::Paper => WorldConfig::paper(),
        }
    }
}

/// A cached anycast-based measurement: classification plus probing cost.
pub type CachedClass = Arc<(AnycastClassification, u64)>;

/// Cache key for anycast-based measurements:
/// (measurement id, protocol, v6?, offset override, DNS hitlist?).
type ClassCacheKey = (u16, Protocol, bool, u64, bool);

/// The artifact cache.
pub struct Artifacts {
    /// The world under measurement.
    pub world: Arc<World>,
    /// The scale in use.
    pub scale: Scale,
    hit_v4: OnceLock<Arc<Vec<IpAddr>>>,
    hit_v4_dns: OnceLock<Arc<Vec<IpAddr>>>,
    hit_v6: OnceLock<Arc<Vec<IpAddr>>>,
    addr_index: OnceLock<Arc<BTreeMap<PrefixKey, IpAddr>>>,
    classes: Mutex<BTreeMap<ClassCacheKey, CachedClass>>,
    gcd_full_v4: OnceLock<Arc<GcdReport>>,
    gcd_full_v6: OnceLock<Arc<GcdReport>>,
}

impl Artifacts {
    /// Build (generates the world).
    pub fn new(scale: Scale) -> Self {
        eprintln!("[artifacts] generating {scale:?} world...");
        let world = Arc::new(World::generate(scale.config()));
        eprintln!(
            "[artifacts] world ready: {} targets, {} ASes, {} deployments",
            world.n_targets(),
            world.topo.len(),
            world.deployments.len()
        );
        Artifacts {
            world,
            scale,
            hit_v4: OnceLock::new(),
            hit_v4_dns: OnceLock::new(),
            hit_v6: OnceLock::new(),
            addr_index: OnceLock::new(),
            classes: Mutex::new(BTreeMap::new()),
            gcd_full_v4: OnceLock::new(),
            gcd_full_v6: OnceLock::new(),
        }
    }

    /// The ISI-style IPv4 hitlist addresses.
    pub fn hit_v4(&self) -> Arc<Vec<IpAddr>> {
        Arc::clone(
            self.hit_v4
                .get_or_init(|| Arc::new(laces_hitlist::build_v4(&self.world).addresses())),
        )
    }

    /// The DNS-merged IPv4 hitlist addresses.
    pub fn hit_v4_dns(&self) -> Arc<Vec<IpAddr>> {
        Arc::clone(
            self.hit_v4_dns
                .get_or_init(|| Arc::new(laces_hitlist::build_v4_dns(&self.world).addresses())),
        )
    }

    /// The IPv6 hitlist addresses.
    pub fn hit_v6(&self) -> Arc<Vec<IpAddr>> {
        Arc::clone(
            self.hit_v6
                .get_or_init(|| Arc::new(laces_hitlist::build_v6(&self.world).addresses())),
        )
    }

    /// Prefix → representative address over both hitlists.
    pub fn addr_index(&self) -> Arc<BTreeMap<PrefixKey, IpAddr>> {
        Arc::clone(self.addr_index.get_or_init(|| {
            let mut m = BTreeMap::new();
            for a in self.hit_v4().iter().chain(self.hit_v6().iter()) {
                m.insert(PrefixKey::of(*a), *a);
            }
            Arc::new(m)
        }))
    }

    /// Addresses for a prefix set (prefixes outside the hitlists are
    /// skipped, as the real pipeline must).
    pub fn addrs_for(&self, prefixes: impl IntoIterator<Item = PrefixKey>) -> Vec<IpAddr> {
        let idx = self.addr_index();
        prefixes
            .into_iter()
            .filter_map(|p| idx.get(&p).copied())
            .collect()
    }

    /// A cached anycast-based measurement.
    pub fn anycast_class(
        &self,
        platform: PlatformId,
        protocol: Protocol,
        family: IpVersion,
        offset_ms: u64,
        static_probes: bool,
    ) -> CachedClass {
        let key = (
            platform.0,
            protocol,
            matches!(family, IpVersion::V4),
            offset_ms,
            static_probes,
        );
        if let Some(c) = self.classes.lock().unwrap().get(&key) {
            return Arc::clone(c);
        }
        let targets = match (family, protocol) {
            (IpVersion::V4, Protocol::Udp | Protocol::Chaos) => self.hit_v4_dns(),
            (IpVersion::V4, _) => self.hit_v4(),
            (IpVersion::V6, _) => self.hit_v6(),
        };
        // Distinct measurement ids keep flip realisations independent.
        let id = 10_000
            + u32::from(platform.0) * 97
            + offset_ms as u32 % 7_919
            + match protocol {
                Protocol::Icmp => 1,
                Protocol::Tcp => 2,
                Protocol::Udp => 3,
                Protocol::Chaos => 4,
            } * 13
            + if matches!(family, IpVersion::V4) {
                0
            } else {
                5
            }
            + if static_probes { 1_001 } else { 0 };
        eprintln!(
            "[artifacts] anycast pass: {} {}{} offset={}ms ({} targets)...",
            self.world.platform(platform).name,
            protocol,
            family.suffix(),
            offset_ms,
            targets.len()
        );
        let spec = MeasurementSpec::builder(id, platform)
            .protocol(protocol)
            .targets(targets)
            .rate_per_s(10_000)
            .offset_ms(offset_ms)
            .encoding(if static_probes {
                ProbeEncoding::Static
            } else {
                ProbeEncoding::PerWorker
            })
            .build(&self.world)
            .expect("valid spec");
        let outcome = run_measurement(&self.world, &spec).expect("valid spec");
        let cached: CachedClass = Arc::new((
            AnycastClassification::from_outcome(&outcome),
            outcome.probes_sent,
        ));
        self.classes
            .lock()
            .unwrap()
            .insert(key, Arc::clone(&cached));
        cached
    }

    /// The GCD_Ark full-hitlist reference scan for a family (227 VPs,
    /// precheck on — §5.1.1's bi-annual measurement).
    pub fn gcd_ark_full(&self, family: IpVersion) -> Arc<GcdReport> {
        let slot = match family {
            IpVersion::V4 => &self.gcd_full_v4,
            IpVersion::V6 => &self.gcd_full_v6,
        };
        Arc::clone(slot.get_or_init(|| {
            let targets = match family {
                IpVersion::V4 => self.hit_v4(),
                IpVersion::V6 => self.hit_v6(),
            };
            eprintln!(
                "[artifacts] GCD_Ark full-hitlist scan ({}, {} targets, 227 VPs)...",
                family.suffix(),
                targets.len()
            );
            let mut cfg = GcdConfig::daily(
                20_000
                    + if matches!(family, IpVersion::V4) {
                        0
                    } else {
                        1
                    },
                0,
            );
            cfg.precheck = true;
            let t0 = std::time::Instant::now();
            let report = run_campaign(
                &self.world,
                self.world.std_platforms.ark_dev,
                &targets,
                &cfg,
            )
            .expect("unicast VP platform");
            eprintln!(
                "[artifacts] GCD_Ark{} done in {:.0?}",
                family.suffix(),
                t0.elapsed()
            );
            Arc::new(report)
        }))
    }

    /// GCD campaign from an arbitrary platform over a prefix set
    /// (uncached).
    pub fn gcd_on(
        &self,
        platform: PlatformId,
        prefixes: &BTreeSet<PrefixKey>,
        id: u32,
        min_vp_distance_km: Option<f64>,
    ) -> GcdReport {
        let addrs = self.addrs_for(prefixes.iter().copied());
        let mut cfg = GcdConfig::daily(id, 0);
        cfg.precheck = false;
        cfg.min_vp_distance_km = min_vp_distance_km;
        run_campaign(&self.world, platform, &addrs, &cfg).expect("unicast VP platform")
    }

    /// GCD-anycast verdict map of the full reference scan.
    pub fn gcd_full_map(&self, family: IpVersion) -> BTreeMap<PrefixKey, PrefixGcd> {
        self.gcd_ark_full(family).results.clone()
    }
}
