//! World generation and catchment resolution.
//!
//! A [`World`] is a complete, deterministic, synthetic Internet: topology,
//! target population with ground truth, anycast deployments, and measurement
//! platforms. All catchment questions — *which site of deployment D does a
//! probe from AS X reach?* and *which worker of platform P receives a
//! response originated by AS Y?* — are answered here, from Gao-Rexford
//! route tables that [`World::generate`] computes once, together with every
//! other table the wire reads (access delays, vantage-point distances).

use std::collections::BTreeMap;

use laces_geo::{CityDb, CityId, Coord};
use laces_packet::PrefixKey;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::deployments::{
    default_operators, Deployment, DeploymentId, OperatorSpec, RespProbs, Site, Spread, TailSpec,
    TempSchedule,
};
use crate::latency::LatencyModel;
use crate::platform::{
    subsets, Platform, PlatformId, PlatformKind, Vp, CCTLD_CITIES, PRODUCTION_CITIES,
};
use crate::rng;
use crate::routing::{self, Routes, TieSet};
use crate::targets::{addressing, ChaosProfile, Resp, Target, TargetId, TargetKind};
use crate::topology::{Tier, TopoConfig, Topology};

/// Configuration of a synthetic world.
///
/// The defaults ([`WorldConfig::paper`]) keep the paper's *absolute* counts
/// for every anycast and anomalous population and scale down only the plain
/// unicast mass (documented in `DESIGN.md` §4); [`WorldConfig::tiny`] is a
/// seconds-scale world for tests.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorldConfig {
    /// Master seed; every stochastic choice derives from it.
    pub seed: u64,
    /// Topology shape.
    pub topo: TopoConfig,
    /// Plain responsive unicast IPv4 `/24`s.
    pub unicast_24s: usize,
    /// Unresponsive IPv4 `/24`s (probing cost, no replies).
    pub unresponsive_24s: usize,
    /// Microsoft-style globally-announced unicast `/24`s.
    pub global_unicast_24s: usize,
    /// Unicast `/24`s whose reverse path re-resolves per packet (persistent
    /// 2-VP false positives).
    pub jittery_24s: usize,
    /// Stable partial-anycast `/24`s (§5.6).
    pub partial_stable_24s: usize,
    /// Partial-anycast `/24`s that revert to unicast on some days.
    pub partial_temp_24s: usize,
    /// Unicast nameservers (answer DNS and CHAOS with co-located server
    /// identities) among the unicast mass.
    pub colo_nameserver_24s: usize,
    /// Plain responsive unicast IPv6 `/48`s.
    pub unicast_48s: usize,
    /// Unresponsive IPv6 `/48`s.
    pub unresponsive_48s: usize,
    /// Microsoft-style IPv6 `/48`s.
    pub global_unicast_48s: usize,
    /// Jittery IPv6 `/48`s.
    pub jittery_48s: usize,
    /// Named operators (Table 6).
    pub operators: Vec<OperatorSpec>,
    /// Long-tail deployment generator parameters.
    pub tail: TailSpec,
    /// Responsiveness of plain unicast targets.
    pub unicast_resp: RespProbs,
    /// Ark-like platform core size (the daily GCD platform).
    pub n_ark_core: usize,
    /// Additional Ark development VPs (Appendix B).
    pub n_ark_dev_extra: usize,
    /// RIPE-Atlas-like platform size.
    pub n_atlas: usize,
    /// Per-probe loss probability on the wire.
    pub loss_rate: f64,
    /// Number of Ark VPs whose hosting AS filters specific IPv6 `/48`
    /// announcements (the Fastly backing-anycast FP mechanism, §5.8.2).
    pub n_broken_v6_vps: usize,
    /// Unicast `/24`s that suffer a one-day prefix hijack somewhere in the
    /// first [`HIJACK_WINDOW_DAYS`] days (§6: hijack detection).
    pub hijacked_24s: usize,
}

/// Days over which generated hijack events are spread.
pub const HIJACK_WINDOW_DAYS: u32 = 30;

impl WorldConfig {
    /// Paper-calibrated world (see DESIGN.md §4 for the scaling argument).
    pub fn paper() -> Self {
        WorldConfig {
            seed: 0xCA5E,
            topo: TopoConfig::default(),
            unicast_24s: 280_000,
            unresponsive_24s: 60_000,
            global_unicast_24s: 8_700,
            jittery_24s: 2_900,
            partial_stable_24s: 1_178,
            partial_temp_24s: 305,
            colo_nameserver_24s: 35_000,
            unicast_48s: 40_000,
            unresponsive_48s: 15_000,
            global_unicast_48s: 60,
            jittery_48s: 190,
            operators: default_operators(),
            tail: TailSpec::default(),
            unicast_resp: RespProbs {
                icmp: 0.94,
                tcp: 0.25,
                udp: 0.06,
            },
            n_ark_core: 163,
            n_ark_dev_extra: 64,
            n_atlas: 481,
            loss_rate: 0.004,
            n_broken_v6_vps: 2,
            hijacked_24s: 150,
        }
    }

    /// A mid-size world: tiny topology but a larger target population, for
    /// tests that need population-level statistics without paper-scale
    /// runtimes.
    pub fn paper_topology_tiny_targets() -> Self {
        let mut cfg = Self::tiny();
        cfg.unicast_24s = 20_000;
        cfg.unresponsive_24s = 4_000;
        cfg.global_unicast_24s = 600;
        cfg.jittery_24s = 160;
        cfg
    }

    /// A small world for unit and integration tests (sub-second generation).
    pub fn tiny() -> Self {
        WorldConfig {
            seed: 0x7E57,
            topo: TopoConfig::tiny(),
            unicast_24s: 1_500,
            unresponsive_24s: 300,
            global_unicast_24s: 60,
            jittery_24s: 30,
            partial_stable_24s: 12,
            partial_temp_24s: 5,
            colo_nameserver_24s: 150,
            unicast_48s: 400,
            unresponsive_48s: 100,
            global_unicast_48s: 5,
            jittery_48s: 5,
            operators: {
                let mut ops = default_operators();
                for o in &mut ops {
                    o.n_sites = (o.n_sites / 8).max(3);
                    o.v4_prefixes = (o.v4_prefixes / 100).max(1);
                    o.v6_prefixes = (o.v6_prefixes / 100).max(1);
                    o.temporary_v4 /= 100;
                    o.backing_v6 /= 20;
                }
                ops
            },
            tail: TailSpec {
                n_deployments: 40,
                total_v4: 90,
                total_v6: 30,
                regional_fraction: 0.2,
                dns_fraction: 0.45,
                n_dns_only: 4,
            },
            unicast_resp: RespProbs {
                icmp: 0.94,
                tcp: 0.25,
                udp: 0.06,
            },
            n_ark_core: 40,
            n_ark_dev_extra: 15,
            n_atlas: 80,
            loss_rate: 0.004,
            n_broken_v6_vps: 2,
            hijacked_24s: 10,
        }
    }
}

/// Handles to the standard platforms every world carries.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StandardPlatforms {
    /// The 32-site production anycast deployment.
    pub production: PlatformId,
    /// The 12-site external ccTLD deployment (§5.4).
    pub cctld: PlatformId,
    /// 2-VP subset (§5.5.1).
    pub eu_na: PlatformId,
    /// 6-VP subset.
    pub one_per_continent: PlatformId,
    /// 11-VP subset.
    pub two_per_continent: PlatformId,
    /// Ark-like platform, daily-census size.
    pub ark: PlatformId,
    /// Ark-like platform including development VPs (GCD_Ark).
    pub ark_dev: PlatformId,
    /// RIPE-Atlas-like platform.
    pub atlas: PlatformId,
}

/// Forward catchment of one deployment, restricted to registered VP ASes.
#[derive(Debug, Clone)]
pub struct DepCatchment {
    /// Per VP-AS position: tied best sites and AS-path distance.
    pub per_vp: Vec<(TieSet, u16)>,
}

/// A complete synthetic Internet.
pub struct World {
    /// Generation parameters.
    pub cfg: WorldConfig,
    /// City database.
    pub db: CityDb,
    /// AS graph (generated ASes plus shell ASes for sites and VPs).
    pub topo: Topology,
    /// Anycast deployment registry (ground truth).
    pub deployments: Vec<Deployment>,
    /// Target population; `TargetId` indexes this vector.
    pub targets: Vec<Target>,
    /// Number of IPv4 targets (they occupy ids `0..n_v4`).
    pub n_v4: usize,
    /// Measurement platforms.
    pub platforms: Vec<Platform>,
    /// Handles to the standard platforms.
    pub std_platforms: StandardPlatforms,
    /// Latency model.
    pub latency: LatencyModel,
    /// Ark VP indices (into the ark_dev platform) whose AS filters backing
    /// `/48`s.
    pub broken_v6_vps: Vec<usize>,
    vp_as_pos: BTreeMap<u32, u16>,
    vp_as_list: Vec<u32>,
    /// Forward catchment of every deployment, by `DeploymentId`.
    dep_catchments: Vec<DepCatchment>,
    /// Reply routes toward every anycast platform's sites, by `PlatformId`;
    /// `None` for unicast platforms, whose replies return to the sender.
    platform_routes: Vec<Option<Routes>>,
    /// Access delay of every target ([`LatencyModel::access_ms`] of its
    /// latency key), by `TargetId`.
    target_access: Vec<f64>,
    /// Per platform, row-major `n_vps × n_cities`: the great-circle
    /// distances `[vantage → city, city → vantage]` between each vantage
    /// point and each city centre. Each leg is computed in its own call
    /// order, so no distance assumes haversine symmetry.
    vantage_km: Vec<Vec<[f64; 2]>>,
    trace_cache: parking_lot::Mutex<crate::trace::TraceCache>,
}

impl World {
    /// Generate a world from a configuration. Deterministic in `cfg.seed`.
    pub fn generate(cfg: WorldConfig) -> World {
        let db = CityDb::embedded();
        let mut topo = Topology::generate(&cfg.topo, &db, cfg.seed);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0001_D0D0);

        let transit_range = cfg.topo.n_tier1 as u32..(cfg.topo.n_tier1 + cfg.topo.n_transit) as u32;
        let stub_range = (cfg.topo.n_tier1 + cfg.topo.n_transit) as u32
            ..(cfg.topo.n_tier1 + cfg.topo.n_transit + cfg.topo.n_stub) as u32;

        // Helper: attach a shell AS (an edge network) at a city.
        let mut next_shell_asn = 64_000u32;
        let mut shell = |topo: &mut Topology, rng: &mut StdRng, city: CityId| -> u32 {
            let home = db.get(city).coord;
            let n_prov = if rng.gen_bool(0.4) { 2 } else { 1 };
            let provs = pick_near_transit(topo, &db, rng, &home, transit_range.clone(), n_prov);
            next_shell_asn += 1;
            topo.add_as(next_shell_asn, Tier::Stub, vec![city], provs, vec![])
        };

        // --- Platforms -----------------------------------------------------
        let mut platforms: Vec<Platform> = Vec::new();

        let make_sites = |topo: &mut Topology,
                          rng: &mut StdRng,
                          shell: &mut dyn FnMut(&mut Topology, &mut StdRng, CityId) -> u32,
                          names: &[&str],
                          tag: &str|
         -> Vec<Site> {
            names
                .iter()
                .map(|name| {
                    let city = db
                        .by_name(name)
                        // laces-lint: allow(panic-path) — world *generation* config error: the site lists are compile-time constants validated by tests, and World::generate has no error channel; unreachable for library callers
                        .unwrap_or_else(|| panic!("unknown city {name}"));
                    let as_idx = shell(topo, rng, city);
                    Site {
                        as_idx,
                        city,
                        chaos_identity: format!("{tag}-{}", name.to_lowercase().replace(' ', "-")),
                    }
                })
                .collect()
        };

        let prod_sites = make_sites(
            &mut topo,
            &mut rng,
            &mut shell,
            &PRODUCTION_CITIES,
            "census",
        );
        let production = PlatformId(u16::try_from(platforms.len()).unwrap_or(u16::MAX));
        platforms.push(Platform {
            name: "production-32".into(),
            kind: PlatformKind::Anycast {
                sites: prod_sites.clone(),
            },
        });

        let cctld_sites = make_sites(&mut topo, &mut rng, &mut shell, &CCTLD_CITIES, "cctld");
        let cctld = PlatformId(u16::try_from(platforms.len()).unwrap_or(u16::MAX));
        platforms.push(Platform {
            name: "cctld-12".into(),
            kind: PlatformKind::Anycast { sites: cctld_sites },
        });

        let subset_platform = |idxs: &[usize]| -> PlatformKind {
            PlatformKind::Anycast {
                sites: idxs.iter().map(|&i| prod_sites[i].clone()).collect(),
            }
        };
        let eu_na = PlatformId(u16::try_from(platforms.len()).unwrap_or(u16::MAX));
        platforms.push(Platform {
            name: "eu-na-2".into(),
            kind: subset_platform(&subsets::EU_NA),
        });
        let one_per_continent = PlatformId(u16::try_from(platforms.len()).unwrap_or(u16::MAX));
        platforms.push(Platform {
            name: "one-per-continent-6".into(),
            kind: subset_platform(&subsets::ONE_PER_CONTINENT),
        });
        let two_per_continent = PlatformId(u16::try_from(platforms.len()).unwrap_or(u16::MAX));
        platforms.push(Platform {
            name: "two-per-continent-11".into(),
            kind: subset_platform(&subsets::TWO_PER_CONTINENT),
        });

        // Ark-like platform: VPs in distinct metros first, then doubling up.
        let all_cities: Vec<CityId> = db.iter().map(|(id, _)| id).collect();
        let mut ark_vps: Vec<Vp> = Vec::new();
        let n_ark_total = cfg.n_ark_core + cfg.n_ark_dev_extra;
        for i in 0..n_ark_total {
            let city = all_cities[if i < all_cities.len() {
                // First pass: spread across metros deterministically shuffled.
                (rng::key(cfg.seed, &[0xA2C, i as u64]) % all_cities.len() as u64) as usize
            } else {
                rng.gen_range(0..all_cities.len())
            }];
            let as_idx = shell(&mut topo, &mut rng, city);
            ark_vps.push(Vp {
                as_idx,
                coord: db.get(city).coord,
                city,
                flaky: false,
            });
        }
        let ark = PlatformId(u16::try_from(platforms.len()).unwrap_or(u16::MAX));
        platforms.push(Platform {
            name: format!("ark-{}", cfg.n_ark_core),
            kind: PlatformKind::Unicast {
                vps: ark_vps[..cfg.n_ark_core].to_vec(),
            },
        });
        let ark_dev = PlatformId(u16::try_from(platforms.len()).unwrap_or(u16::MAX));
        platforms.push(Platform {
            name: format!("ark-dev-{n_ark_total}"),
            kind: PlatformKind::Unicast {
                vps: ark_vps.clone(),
            },
        });

        // Atlas-like platform: more nodes than metros; jitter positions so
        // inter-node distance filtering (Fig. 8) is meaningful.
        let mut atlas_vps: Vec<Vp> = Vec::new();
        for _ in 0..cfg.n_atlas {
            let city = all_cities[rng.gen_range(0..all_cities.len())];
            let base = db.get(city).coord;
            let coord = Coord::normalised(
                base.lat + rng.gen_range(-1.5..1.5),
                base.lon + rng.gen_range(-1.5..1.5),
            );
            let as_idx = shell(&mut topo, &mut rng, city);
            atlas_vps.push(Vp {
                as_idx,
                coord,
                city,
                flaky: true,
            });
        }
        let atlas = PlatformId(u16::try_from(platforms.len()).unwrap_or(u16::MAX));
        platforms.push(Platform {
            name: format!("atlas-{}", cfg.n_atlas),
            kind: PlatformKind::Unicast { vps: atlas_vps },
        });

        let std_platforms = StandardPlatforms {
            production,
            cctld,
            eu_na,
            one_per_continent,
            two_per_continent,
            ark,
            ark_dev,
            atlas,
        };

        // --- Deployments ---------------------------------------------------
        let mut deployments: Vec<Deployment> = Vec::new();
        let mut dep_specs: Vec<(DeploymentId, OperatorSpec)> = Vec::new();

        let pick_global_cities = |rng: &mut StdRng, n: usize| -> Vec<CityId> {
            let mut chosen: Vec<CityId> = Vec::with_capacity(n);
            let mut pool: Vec<CityId> = all_cities.clone();
            for _ in 0..n {
                if pool.is_empty() {
                    // More sites than metros: reuse (co-located PoPs).
                    chosen.push(all_cities[rng.gen_range(0..all_cities.len())]);
                } else {
                    let i = rng.gen_range(0..pool.len());
                    chosen.push(pool.swap_remove(i));
                }
            }
            chosen
        };

        let mut build_deployment =
            |topo: &mut Topology,
             rng: &mut StdRng,
             shell: &mut dyn FnMut(&mut Topology, &mut StdRng, CityId) -> u32,
             spec: &OperatorSpec|
             -> DeploymentId {
                let cities: Vec<CityId> = match &spec.spread {
                    Spread::Global => pick_global_cities(rng, spec.n_sites),
                    Spread::Regional { anchor, radius_km } => {
                        // laces-lint: allow(panic-path) — generation-time config check on a compile-time anchor list; tests cover every entry, and World::generate has no error channel
                        let anchor_id = db.by_name(anchor).expect("unknown anchor city");
                        let anchor_coord = db.get(anchor_id).coord;
                        let nearby: Vec<CityId> = all_cities
                            .iter()
                            .copied()
                            .filter(|c| db.get(*c).coord.gcd_km(&anchor_coord) <= *radius_km)
                            .collect();
                        (0..spec.n_sites)
                            .map(|_| nearby[rng.gen_range(0..nearby.len())])
                            .collect()
                    }
                };
                let slug: String = spec
                    .name
                    .to_lowercase()
                    .chars()
                    .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
                    .collect();
                let sites: Vec<Site> = cities
                    .iter()
                    .enumerate()
                    .map(|(i, &city)| Site {
                        as_idx: shell(topo, rng, city),
                        city,
                        chaos_identity: format!(
                            "{slug}-{:03}.{}",
                            i,
                            db.get(city).name.to_lowercase().replace(' ', "-")
                        ),
                    })
                    .collect();
                let id = DeploymentId(u32::try_from(deployments.len()).unwrap_or(u32::MAX));
                deployments.push(Deployment {
                    operator: spec.name.clone(),
                    asn: spec.asn,
                    sites,
                    regional: matches!(spec.spread, Spread::Regional { .. }),
                });
                id
            };

        for spec in cfg.operators.clone() {
            let id = build_deployment(&mut topo, &mut rng, &mut shell, &spec);
            dep_specs.push((id, spec));
        }

        // Long tail of small deployments.
        let regional_anchors = [
            "Amsterdam",
            "Prague",
            "Auckland",
            "Stockholm",
            "Tokyo",
            "Santiago",
            "Johannesburg",
            "Warsaw",
            "Toronto",
            "Singapore",
        ];
        let mut tail_ids: Vec<(DeploymentId, OperatorSpec)> = Vec::new();
        {
            let t = &cfg.tail;
            // Distribute prefix counts: most deployments 1-2, few large.
            let mut v4_left = t.total_v4 as i64;
            let mut v6_left = t.total_v6 as i64;
            for d in 0..t.n_deployments {
                let n_sites = 2 + (rng.gen_range(0.0..1.0f64).powi(3) * 26.0) as usize;
                let regional = rng.gen_bool(t.regional_fraction);
                let dns = rng.gen_bool(t.dns_fraction);
                let remaining = (t.n_deployments - d) as i64;
                let mut v4 = 1 + (rng.gen_range(0.0..1.0f64).powi(4) * 12.0) as i64;
                v4 = v4.min((v4_left - (remaining - 1)).max(1));
                v4_left -= v4;
                let v6 = if rng.gen_bool(0.35) && v6_left > 0 {
                    let v = (1 + (rng.gen_range(0.0..1.0f64).powi(4) * 8.0) as i64).min(v6_left);
                    v6_left -= v;
                    v
                } else {
                    0
                };
                let spec = OperatorSpec {
                    name: format!("tail-{d:04}"),
                    asn: 30_000 + d as u32,
                    n_sites,
                    spread: if regional {
                        Spread::Regional {
                            anchor: regional_anchors[rng.gen_range(0..regional_anchors.len())]
                                .to_string(),
                            radius_km: rng.gen_range(300.0..900.0),
                        }
                    } else {
                        Spread::Global
                    },
                    v4_prefixes: v4.max(0) as usize,
                    v6_prefixes: v6.max(0) as usize,
                    resp: if dns { RespProbs::DNS } else { RespProbs::CDN },
                    nameserver_fraction: if dns { 0.9 } else { 0.0 },
                    temporary_v4: 0,
                    backing_v6: 0,
                };
                let id = build_deployment(&mut topo, &mut rng, &mut shell, &spec);
                tail_ids.push((id, spec));
            }
            // DNS-only deployments (G-root style).
            for d in 0..t.n_dns_only {
                let spec = OperatorSpec {
                    name: format!("dns-only-{d:02}"),
                    asn: 29_000 + d as u32,
                    n_sites: rng.gen_range(4..=14),
                    spread: Spread::Global,
                    v4_prefixes: 4,
                    v6_prefixes: 3,
                    resp: RespProbs::DNS_ONLY,
                    nameserver_fraction: 1.0,
                    temporary_v4: 0,
                    backing_v6: 0,
                };
                let id = build_deployment(&mut topo, &mut rng, &mut shell, &spec);
                tail_ids.push((id, spec));
            }
        }
        dep_specs.extend(tail_ids);

        // --- VP AS registry (before targets so the set is complete) --------
        let mut vp_as_list: Vec<u32> = Vec::new();
        let mut vp_as_pos: BTreeMap<u32, u16> = BTreeMap::new();
        for p in &platforms {
            for i in 0..p.n_vps() {
                let a = p.vp_as(i);
                vp_as_pos.entry(a).or_insert_with(|| {
                    vp_as_list.push(a);
                    u16::try_from(vp_as_list.len() - 1).unwrap_or(u16::MAX)
                });
            }
        }

        // --- Route tables (the topology is complete from here on) ---------
        let routes_to = |sites: &[Site]| {
            let origins: Vec<u32> = sites.iter().map(|s| s.as_idx).collect();
            routing::compute(&topo, &origins)
        };
        let platform_routes: Vec<Option<Routes>> = platforms
            .iter()
            .map(|p| p.sites().map(&routes_to))
            .collect();
        let dep_catchments: Vec<DepCatchment> = deployments
            .iter()
            .map(|d| {
                let routes = routes_to(&d.sites);
                DepCatchment {
                    per_vp: vp_as_list
                        .iter()
                        .map(|&a| (routes.origins[a as usize], routes.dist[a as usize]))
                        .collect(),
                }
            })
            .collect();

        // Jittery targets sit in stubs tied between production sites.
        let tie_stubs: Vec<u32> = match &platform_routes[production.0 as usize] {
            Some(routes) => stub_range
                .clone()
                .filter(|&a| routes.origins[a as usize].len() >= 2)
                .collect(),
            None => Vec::new(),
        };

        // --- Target population ----------------------------------------------
        let mut targets: Vec<Target> = Vec::new();
        let stub_list: Vec<u32> = stub_range.clone().collect();
        let sample_resp = |rng: &mut StdRng, p: &RespProbs| Resp {
            icmp: rng.gen_bool(p.icmp),
            tcp: rng.gen_bool(p.tcp),
            udp: rng.gen_bool(p.udp),
        };

        let push_v4 = |t: Target, targets: &mut Vec<Target>| {
            debug_assert!(matches!(t.prefix, PrefixKey::V4(_)));
            targets.push(t);
        };

        // Operator + tail anycast prefixes (v4).
        for (dep_id, spec) in &dep_specs {
            for k in 0..spec.v4_prefixes + spec.temporary_v4 {
                let prefix = PrefixKey::V4(addressing::v4(
                    u32::try_from(targets.len()).unwrap_or(u32::MAX),
                ));
                let is_ns = rng.gen_bool(spec.nameserver_fraction);
                let temp = if k >= spec.v4_prefixes {
                    Some(TempSchedule {
                        period: 6,
                        active: 2,
                        phase: rng.gen_range(0..6),
                    })
                } else {
                    None
                };
                push_v4(
                    Target {
                        prefix,
                        as_idx: u32::MAX,
                        kind: TargetKind::Anycast { dep: *dep_id },
                        resp: sample_resp(&mut rng, &spec.resp),
                        ns: is_ns.then_some(ChaosProfile::PerSite),
                        temp,
                        jittery: false,
                        hijack: None,
                    },
                    &mut targets,
                );
            }
        }

        // Partial anycast /24s: unicast representative + anycast low hosts.
        let hypergiant_deps: Vec<DeploymentId> =
            dep_specs.iter().take(5).map(|(id, _)| *id).collect();
        let imperva_dep = dep_specs
            .iter()
            .find(|(_, s)| s.name.contains("Imperva"))
            .map(|(id, _)| *id);
        for k in 0..cfg.partial_stable_24s + cfg.partial_temp_24s {
            let temp_one = k >= cfg.partial_stable_24s;
            let dep = if temp_one {
                imperva_dep.unwrap_or(hypergiant_deps[0])
            } else {
                hypergiant_deps[rng.gen_range(0..hypergiant_deps.len())]
            };
            let as_idx = stub_list[rng.gen_range(0..stub_list.len())];
            let city = topo.home_city(as_idx);
            push_v4(
                Target {
                    prefix: PrefixKey::V4(addressing::v4(
                        u32::try_from(targets.len()).unwrap_or(u32::MAX),
                    )),
                    as_idx,
                    kind: TargetKind::PartialAnycast { city, dep },
                    resp: Resp {
                        icmp: true,
                        tcp: rng.gen_bool(0.4),
                        udp: rng.gen_bool(0.1),
                    },
                    ns: None,
                    temp: temp_one.then(|| TempSchedule {
                        period: 5,
                        active: 2,
                        phase: rng.gen_range(0..5),
                    }),
                    jittery: false,
                    hijack: None,
                },
                &mut targets,
            );
        }

        // Microsoft-style global-BGP unicast.
        let transit_list: Vec<u32> = transit_range.clone().collect();
        for _ in 0..cfg.global_unicast_24s {
            let as_idx = stub_list[rng.gen_range(0..stub_list.len())];
            let city = topo.home_city(as_idx);
            // Two nearby egress networks near the destination.
            let home = db.get(city).coord;
            let e1 = nearest_of(&topo, &db, &transit_list, &home, 0);
            let e2 = nearest_of(&topo, &db, &transit_list, &home, 1);
            push_v4(
                Target {
                    prefix: PrefixKey::V4(addressing::v4(
                        u32::try_from(targets.len()).unwrap_or(u32::MAX),
                    )),
                    as_idx,
                    kind: TargetKind::GlobalUnicast {
                        city,
                        egress: [e1, e2],
                    },
                    resp: Resp {
                        icmp: true,
                        tcp: false,
                        udp: false,
                    },
                    ns: None,
                    temp: None,
                    jittery: false,
                    hijack: None,
                },
                &mut targets,
            );
        }

        // Plain + jittery unicast mass.
        let mut jittery_left = cfg.jittery_24s;
        for k in 0..cfg.unicast_24s {
            let jittery = jittery_left > 0 && !tie_stubs.is_empty() && {
                // Place remaining jittery targets early so the quota fills.
                let remaining = cfg.unicast_24s - k;
                rng.gen_bool((jittery_left as f64 / remaining as f64).min(1.0))
            };
            let as_idx = if jittery {
                jittery_left -= 1;
                tie_stubs[rng.gen_range(0..tie_stubs.len())]
            } else {
                stub_list[rng.gen_range(0..stub_list.len())]
            };
            let city = topo.home_city(as_idx);
            let is_colo_ns = k < cfg.colo_nameserver_24s;
            let mut resp = sample_resp(&mut rng, &cfg.unicast_resp);
            if is_colo_ns {
                resp.udp = true;
                resp.icmp = rng.gen_bool(0.9);
            }
            push_v4(
                Target {
                    prefix: PrefixKey::V4(addressing::v4(
                        u32::try_from(targets.len()).unwrap_or(u32::MAX),
                    )),
                    as_idx,
                    kind: TargetKind::Unicast { city },
                    resp,
                    ns: is_colo_ns.then(|| ChaosProfile::Colo(rng.gen_range(1..=4))),
                    temp: None,
                    jittery,
                    hijack: None,
                },
                &mut targets,
            );
        }

        // Unresponsive mass.
        for _ in 0..cfg.unresponsive_24s {
            let as_idx = stub_list[rng.gen_range(0..stub_list.len())];
            let city = topo.home_city(as_idx);
            push_v4(
                Target {
                    prefix: PrefixKey::V4(addressing::v4(
                        u32::try_from(targets.len()).unwrap_or(u32::MAX),
                    )),
                    as_idx,
                    kind: TargetKind::Unicast { city },
                    resp: Resp::default(),
                    ns: None,
                    temp: None,
                    jittery: false,
                    hijack: None,
                },
                &mut targets,
            );
        }

        let n_v4 = targets.len();

        // --- IPv6 targets ---------------------------------------------------
        let mut v6_count = 0u32;
        let push_v6 = |t: Target, targets: &mut Vec<Target>, v6_count: &mut u32| {
            debug_assert!(matches!(t.prefix, PrefixKey::V6(_)));
            targets.push(t);
            *v6_count += 1;
        };

        let fastly_dep = dep_specs
            .iter()
            .find(|(_, s)| s.name == "Fastly")
            .map(|(id, _)| *id);
        for (dep_id, spec) in &dep_specs {
            for _ in 0..spec.v6_prefixes {
                let is_ns = rng.gen_bool(spec.nameserver_fraction);
                // The v6 hitlist reflects active services (TUM/OpenINTEL),
                // so TCP responsiveness is much higher than for v4 (§5.3.2).
                let mut resp = sample_resp(&mut rng, &spec.resp);
                resp.tcp = resp.tcp || rng.gen_bool(0.45);
                push_v6(
                    Target {
                        prefix: PrefixKey::V6(addressing::v6(v6_count)),
                        as_idx: u32::MAX,
                        kind: TargetKind::Anycast { dep: *dep_id },
                        resp,
                        ns: is_ns.then_some(ChaosProfile::PerSite),
                        temp: None,
                        jittery: false,
                        hijack: None,
                    },
                    &mut targets,
                    &mut v6_count,
                );
            }
            for _ in 0..spec.backing_v6 {
                let as_idx = stub_list[rng.gen_range(0..stub_list.len())];
                let city = topo.home_city(as_idx);
                push_v6(
                    Target {
                        prefix: PrefixKey::V6(addressing::v6(v6_count)),
                        as_idx,
                        kind: TargetKind::BackingAnycast {
                            city,
                            dep: fastly_dep.unwrap_or(*dep_id),
                        },
                        resp: Resp {
                            icmp: true,
                            tcp: true,
                            udp: false,
                        },
                        ns: None,
                        temp: None,
                        jittery: false,
                        hijack: None,
                    },
                    &mut targets,
                    &mut v6_count,
                );
            }
        }

        for _ in 0..cfg.global_unicast_48s {
            let as_idx = stub_list[rng.gen_range(0..stub_list.len())];
            let city = topo.home_city(as_idx);
            let home = db.get(city).coord;
            let e1 = nearest_of(&topo, &db, &transit_list, &home, 0);
            let e2 = nearest_of(&topo, &db, &transit_list, &home, 1);
            push_v6(
                Target {
                    prefix: PrefixKey::V6(addressing::v6(v6_count)),
                    as_idx,
                    kind: TargetKind::GlobalUnicast {
                        city,
                        egress: [e1, e2],
                    },
                    resp: Resp {
                        icmp: true,
                        tcp: false,
                        udp: false,
                    },
                    ns: None,
                    temp: None,
                    jittery: false,
                    hijack: None,
                },
                &mut targets,
                &mut v6_count,
            );
        }

        let mut jittery6_left = cfg.jittery_48s;
        for k in 0..cfg.unicast_48s {
            let jittery = jittery6_left > 0 && !tie_stubs.is_empty() && {
                let remaining = cfg.unicast_48s - k;
                rng.gen_bool((jittery6_left as f64 / remaining as f64).min(1.0))
            };
            let as_idx = if jittery {
                jittery6_left -= 1;
                tie_stubs[rng.gen_range(0..tie_stubs.len())]
            } else {
                stub_list[rng.gen_range(0..stub_list.len())]
            };
            let city = topo.home_city(as_idx);
            let mut resp = sample_resp(&mut rng, &cfg.unicast_resp);
            resp.tcp = resp.tcp || rng.gen_bool(0.4);
            push_v6(
                Target {
                    prefix: PrefixKey::V6(addressing::v6(v6_count)),
                    as_idx,
                    kind: TargetKind::Unicast { city },
                    resp,
                    ns: None,
                    temp: None,
                    jittery,
                    hijack: None,
                },
                &mut targets,
                &mut v6_count,
            );
        }
        for _ in 0..cfg.unresponsive_48s {
            let as_idx = stub_list[rng.gen_range(0..stub_list.len())];
            let city = topo.home_city(as_idx);
            push_v6(
                Target {
                    prefix: PrefixKey::V6(addressing::v6(v6_count)),
                    as_idx,
                    kind: TargetKind::Unicast { city },
                    resp: Resp::default(),
                    ns: None,
                    temp: None,
                    jittery: false,
                    hijack: None,
                },
                &mut targets,
                &mut v6_count,
            );
        }

        // Hijack events: scattered over plain unicast targets and days.
        {
            let mut assigned = 0usize;
            let mut i = 0usize;
            while assigned < cfg.hijacked_24s && i < n_v4 {
                let pick = rng::key(cfg.seed, &[0x41AC, i as u64]).is_multiple_of(97);
                if pick {
                    if let TargetKind::Unicast { city } = targets[i].kind {
                        if targets[i].resp.icmp && !targets[i].jittery {
                            let day = (rng::key(cfg.seed, &[0x41AD, i as u64])
                                % u64::from(HIJACK_WINDOW_DAYS))
                                as u32;
                            // A bogus origin near the victim is inside the
                            // victim's own feasibility disks — GCD cannot
                            // distinguish it even in principle, so such an
                            // event models nothing detectable. Plant only
                            // intercontinental hijacks: scan the stub list
                            // from a keyed random start for an attacker far
                            // from the victim.
                            let victim_coord = db.get(city).coord;
                            let start = (rng::key(cfg.seed, &[0x41AE, i as u64])
                                % stub_list.len() as u64)
                                as usize;
                            let attacker = (0..stub_list.len())
                                .map(|k| stub_list[(start + k) % stub_list.len()])
                                .find(|&a| {
                                    db.get(topo.home_city(a)).coord.gcd_km(&victim_coord) >= 7_000.0
                                });
                            // No far-enough stub for this victim (possible
                            // in regionally clustered topologies): plant no
                            // event rather than an undetectable nearby one.
                            if let Some(attacker) = attacker {
                                targets[i].hijack = Some(crate::targets::Hijack {
                                    day,
                                    attacker_as: attacker,
                                });
                                assigned += 1;
                            }
                        }
                    }
                }
                i += 1;
            }
        }

        // Broken Ark VPs for the backing-anycast FP mechanism.
        let n_ark_total = cfg.n_ark_core + cfg.n_ark_dev_extra;
        let broken_v6_vps: Vec<usize> = (0..cfg.n_broken_v6_vps)
            .map(|i| (rng::key(cfg.seed, &[0xB20CE, i as u64]) % n_ark_total as u64) as usize)
            .collect();

        let latency = LatencyModel::new(cfg.seed);
        let target_access = (0..targets.len() as u64)
            .map(|tid| latency.access_ms(target_key(cfg.seed, tid)))
            .collect();
        let mut world = World {
            cfg,
            db,
            topo,
            deployments,
            targets,
            n_v4,
            platforms,
            std_platforms,
            latency,
            broken_v6_vps,
            vp_as_pos,
            vp_as_list,
            dep_catchments,
            platform_routes,
            target_access,
            vantage_km: Vec::new(),
            trace_cache: parking_lot::Mutex::new(crate::trace::TraceCache::default()),
        };
        world.vantage_km = (0..world.platforms.len() as u16)
            .map(PlatformId)
            .map(|pid| {
                (0..world.platform(pid).n_vps())
                    .flat_map(|i| {
                        let v = world.vantage_coord(pid, i);
                        world
                            .db
                            .iter()
                            .map(move |(_, c)| [v.gcd_km(&c.coord), c.coord.gcd_km(&v)])
                    })
                    .collect()
            })
            .collect();
        world
    }

    /// Total number of targets.
    pub fn n_targets(&self) -> usize {
        self.targets.len()
    }

    /// The target's access delay.
    pub fn target_access_ms(&self, tid: TargetId) -> f64 {
        self.target_access[tid.0 as usize]
    }

    /// Great-circle distances between vantage point `idx` of `platform`
    /// and every city centre, by `CityId`: `[vantage → city, city →
    /// vantage]`.
    pub(crate) fn vantage_km(&self, platform: PlatformId, idx: usize) -> &[[f64; 2]] {
        let n = self.db.len();
        &self.vantage_km[usize::from(platform.0)][idx * n..(idx + 1) * n]
    }

    /// Look up a target by census prefix.
    pub fn lookup(&self, key: PrefixKey) -> Option<TargetId> {
        match key {
            PrefixKey::V4(p) => {
                let i = addressing::v4_index(p)?;
                ((i as usize) < self.n_v4).then_some(TargetId(i))
            }
            PrefixKey::V6(p) => {
                let i = addressing::v6_index(p)? as usize + self.n_v4;
                (i < self.targets.len()).then_some(TargetId(u32::try_from(i).unwrap_or(u32::MAX)))
            }
        }
    }

    /// Access a target.
    pub fn target(&self, id: TargetId) -> &Target {
        &self.targets[id.0 as usize]
    }

    /// Access a platform.
    pub fn platform(&self, id: PlatformId) -> &Platform {
        &self.platforms[id.0 as usize]
    }

    /// Access a deployment.
    pub fn deployment(&self, id: DeploymentId) -> &Deployment {
        &self.deployments[id.0 as usize]
    }

    /// Routes toward an anycast platform's sites, over every AS; `None`
    /// for a unicast platform.
    pub fn platform_routes(&self, id: PlatformId) -> Option<&Routes> {
        self.platform_routes[usize::from(id.0)].as_ref()
    }

    /// Forward catchment of a target deployment, restricted to VP ASes.
    pub fn dep_catchment(&self, dep: DeploymentId) -> &DepCatchment {
        &self.dep_catchments[dep.0 as usize]
    }

    /// Which site of `dep` a probe from VP AS `src_as` reaches on `day`, and
    /// the AS-path distance. Returns `None` if `src_as` is not a registered
    /// VP AS or the deployment is unreachable from it.
    pub fn forward_site(&self, dep: DeploymentId, src_as: u32, day: u32) -> Option<(usize, u16)> {
        self.forward_site_from(self.vp_as_position(src_as)?, dep, src_as, day)
    }

    /// [`World::forward_site`] for a sender whose VP-AS position `pos`
    /// (that of `src_as`) is already resolved.
    pub(crate) fn forward_site_from(
        &self,
        pos: u16,
        dep: DeploymentId,
        src_as: u32,
        day: u32,
    ) -> Option<(usize, u16)> {
        let (ties, dist) = self.dep_catchment(dep).per_vp[usize::from(pos)];
        if ties.is_empty() {
            return None;
        }
        let pick = sticky_tie_pick(self.cfg.seed, 0xF02D, dep.0 as u64, src_as, day, ties.len());
        Some((ties.as_slice()[pick] as usize, dist))
    }

    /// Position of `src_as` in the registered VP-AS table, if registered.
    pub(crate) fn vp_as_position(&self, src_as: u32) -> Option<u16> {
        self.vp_as_pos.get(&src_as).copied()
    }

    /// Which worker (site index) of anycast platform `platform` receives a
    /// packet originated by AS `responder_as` on `day`, with the tie set and
    /// AS-path distance. `None` when the platform is unreachable from there.
    pub fn receiving_site(
        &self,
        platform: PlatformId,
        responder_as: u32,
        day: u32,
    ) -> Option<(usize, u16, TieSet)> {
        let routes = self.platform_routes(platform)?;
        let ties = routes.origins[responder_as as usize];
        if ties.is_empty() {
            return None;
        }
        let pick = sticky_tie_pick(
            self.cfg.seed,
            0x2CAE,
            platform.0 as u64,
            responder_as,
            day,
            ties.len(),
        );
        Some((
            ties.as_slice()[pick] as usize,
            routes.dist[responder_as as usize],
            ties,
        ))
    }

    /// For a flipped route: the site a responder fails over to. If the tie
    /// set has another member, that member; otherwise the platform site
    /// geographically nearest to the primary (routing shifts lands nearby).
    pub fn alternate_site(
        &self,
        platform: PlatformId,
        primary: usize,
        ties: &TieSet,
        key: u64,
    ) -> usize {
        let others: Vec<u16> = ties
            .as_slice()
            .iter()
            .copied()
            .filter(|&s| s as usize != primary)
            .collect();
        if !others.is_empty() {
            return others[rng::below(key, others.len())] as usize;
        }
        let Some(sites) = self.platform(platform).sites() else {
            return primary;
        };
        let pc = self.db.get(sites[primary].city).coord;
        let mut best = primary;
        let mut best_d = f64::INFINITY;
        for (i, s) in sites.iter().enumerate() {
            if i == primary {
                continue;
            }
            let d = self.db.get(s.city).coord.gcd_km(&pc);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    /// All registered VP ASes (union over platforms).
    pub fn vp_ases(&self) -> &[u32] {
        &self.vp_as_list
    }

    /// The traceroute destination-route cache (crate-internal).
    pub(crate) fn trace_cache(&self) -> &parking_lot::Mutex<crate::trace::TraceCache> {
        &self.trace_cache
    }
}

/// Daily probability that an AS's equal-cost tie-break re-rolls (BGP path
/// churn among equal-preference alternatives). Kept small: catchments are
/// mostly stable day over day, with a steady trickle of movement
/// (§5.1.6's longitudinal variability).
const DAILY_TIE_REROLL: f64 = 0.06;

/// The latency key of the target with id `tid`.
pub(crate) fn target_key(seed: u64, tid: u64) -> rng::Key {
    rng::key(seed, &[0x7A26, tid])
}

/// A *sticky* tie-break: the same member is chosen every day, except that
/// with probability [`DAILY_TIE_REROLL`] per day the choice re-rolls.
fn sticky_tie_pick(seed: u64, tag: u64, scope: u64, as_idx: u32, day: u32, n: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    let base = rng::key(seed, &[tag, scope, as_idx as u64]);
    let roll = rng::unit_f64(rng::key(
        seed,
        &[tag ^ 0xDA7, scope, as_idx as u64, day as u64],
    ));
    if roll < DAILY_TIE_REROLL {
        rng::below(rng::mix(base, day as u64 + 1), n)
    } else {
        rng::below(base, n)
    }
}

/// Geographically `rank`-th nearest AS from `list` to `home`.
fn nearest_of(topo: &Topology, db: &CityDb, list: &[u32], home: &Coord, rank: usize) -> u32 {
    let mut scored: Vec<(f64, u32)> = list
        .iter()
        .map(|&a| {
            let c = topo.nearest_pop(db, a, home);
            (db.get(c).coord.gcd_km(home), a)
        })
        .collect();
    scored.sort_by(|x, y| x.0.total_cmp(&y.0));
    scored[rank.min(scored.len() - 1)].1
}

/// Pick `n` transit ASes near `home` (weighted), for shell attachment.
fn pick_near_transit(
    topo: &Topology,
    db: &CityDb,
    rng: &mut StdRng,
    home: &Coord,
    range: std::ops::Range<u32>,
    n: usize,
) -> Vec<u32> {
    let candidates: Vec<u32> = range.collect();
    let mut scored: Vec<(f64, u32)> = candidates
        .iter()
        .map(|&a| {
            let c = topo.nearest_pop(db, a, home);
            let d = db.get(c).coord.gcd_km(home);
            (d + rng.gen_range(0.0..400.0), a)
        })
        .collect();
    scored.sort_by(|x, y| x.0.total_cmp(&y.0));
    scored.into_iter().take(n.max(1)).map(|(_, a)| a).collect()
}
