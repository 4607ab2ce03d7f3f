//! iGreedy-style enumeration and geolocation.
//!
//! Given RTT samples from geographically dispersed vantage points, each
//! sample defines a feasibility disk (the target must be within
//! speed-of-light range of the VP). A single host must lie in the
//! intersection of *all* disks; if any two disks are disjoint the address
//! is provably replicated. iGreedy enumerates a lower bound on the number
//! of sites by greedily picking a maximum independent set of disks
//! (smallest radius first — the tightest evidence), and geolocates each
//! picked disk to its most populous city.
//!
//! The original iGreedy implementation took hours for large campaigns; this
//! reimplementation is a single `O(n log n + n·k)` pass per target (n
//! samples, k enumerated sites), which is what makes a *daily* GCD stage
//! feasible (paper §4.1: "from hours to minutes").

use laces_geo::{CityDb, CityId, Coord, Disk};
use serde::{Deserialize, Serialize};

use crate::geometry::VpGeometry;

/// One latency observation from a vantage point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RttSample {
    /// Index of the vantage point (platform-scoped).
    pub vp: usize,
    /// Vantage-point location.
    pub vp_coord: Coord,
    /// Measured round-trip time in milliseconds.
    pub rtt_ms: f64,
}

/// An enumerated anycast site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteEstimate {
    /// The witnessing vantage point.
    pub vp: usize,
    /// The feasibility disk that witnessed the site.
    pub disk: Disk,
    /// Most populous city inside the disk, if the database has one
    /// (iGreedy's geolocation step).
    pub city: Option<CityId>,
}

/// Result of enumerating one target's samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Enumeration {
    /// Independent sites found (length ≥ 2 proves anycast).
    pub sites: Vec<SiteEstimate>,
    /// Number of samples used.
    pub n_samples: usize,
}

impl Enumeration {
    /// Whether the samples prove the target is anycast.
    pub fn is_anycast(&self) -> bool {
        self.sites.len() >= 2
    }

    /// The enumerated site count (a lower bound on the true count).
    pub fn n_sites(&self) -> usize {
        self.sites.len()
    }

    /// City names of enumerated sites (deduplicated, sorted).
    pub fn cities<'a>(&self, db: &'a CityDb) -> Vec<&'a str> {
        let mut names: Vec<&str> = self
            .sites
            .iter()
            .filter_map(|s| s.city.map(|c| db.get(c).name))
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }
}

/// Run the greedy independent-disk enumeration over one target's samples.
///
/// Samples with non-finite or absurd RTTs are discarded. An empty sample
/// set yields an empty enumeration (unresponsive).
pub fn enumerate(samples: &[RttSample], db: &CityDb) -> Enumeration {
    enumerate_counted(samples, db, &mut 0)
}

/// [`enumerate`], also accumulating the number of disk-overlap tests the
/// greedy pass performed into `overlap_tests`. The test count is the
/// algorithm's true cost driver (`O(n·k)` for k enumerated sites) and is
/// what the campaign telemetry reports, since wall-clock time is
/// nondeterministic.
pub fn enumerate_counted(
    samples: &[RttSample],
    db: &CityDb,
    overlap_tests: &mut u64,
) -> Enumeration {
    enumerate_core(
        samples,
        overlap_tests,
        |_, p, _, d| p.overlaps(d),
        |_, d| db.most_populous_in(d),
    )
}

/// [`enumerate_counted`] with both geometry queries served from a
/// campaign's [`VpGeometry`] memo: each feasibility disk is centred on its
/// witnessing VP, so `picked.overlaps(candidate)` reduces to comparing the
/// memoized VP-pair distance against the radius sum, and geolocation
/// resolves through the VP's distance-sorted prefix-argmax city row.
/// Bit-identical to [`enumerate_counted`] (`Coord::gcd_km` is exactly
/// symmetric, the overlap comparison reproduces [`Disk::overlaps`]
/// literally, and the city row reproduces the
/// [`CityDb::most_populous_in`] argmax), without a single haversine in the
/// per-target loop.
///
/// The memo must cover every `RttSample::vp` index in `samples` and must
/// have been built over the [`CityDb`] the campaign geolocates against.
pub fn enumerate_counted_memo(
    samples: &[RttSample],
    geom: &VpGeometry,
    overlap_tests: &mut u64,
) -> Enumeration {
    enumerate_core(
        samples,
        overlap_tests,
        // Disk::overlaps, with the center distance read from the memo.
        |pv, p, cv, d| geom.dist_km(pv, cv) <= p.radius_km + d.radius_km + 1e-9,
        // CityDb::most_populous_in, with the per-city legs read from the
        // VP's sorted row (the disk's centre IS the witnessing VP).
        |vp, d| geom.most_populous_within_km(vp, d.radius_km),
    )
}

/// [`enumerate_counted`] at the pre-index cost profile: per-pair
/// haversines for every overlap test and a linear scan of the city table
/// for every geolocation. Semantically identical to the other variants —
/// this is the equivalence-test oracle, not a fallback.
pub fn enumerate_counted_reference(
    samples: &[RttSample],
    db: &CityDb,
    overlap_tests: &mut u64,
) -> Enumeration {
    enumerate_core(
        samples,
        overlap_tests,
        |_, p, _, d| p.overlaps(d),
        |_, d| db.most_populous_in_linear(d),
    )
}

/// The shared greedy pass behind the `enumerate_counted*` variants.
/// `overlaps(picked_vp, picked_disk, cand_vp, cand_disk)` and
/// `geolocate(witness_vp, disk)` abstract the geometry source; every
/// variant MUST be observationally identical to [`Disk::overlaps`] /
/// [`CityDb::most_populous_in`] so the variants stay interchangeable.
fn enumerate_core(
    samples: &[RttSample],
    overlap_tests: &mut u64,
    mut overlaps: impl FnMut(usize, &Disk, usize, &Disk) -> bool,
    mut geolocate: impl FnMut(usize, &Disk) -> Option<CityId>,
) -> Enumeration {
    let mut disks: Vec<(usize, Disk)> = samples
        .iter()
        .filter(|s| s.rtt_ms.is_finite() && (0.0..10_000.0).contains(&s.rtt_ms))
        .map(|s| (s.vp, Disk::from_rtt(s.vp_coord, s.rtt_ms)))
        .collect();
    let n_samples = disks.len();
    // Smallest radius first: tight disks are the strongest localisation
    // evidence and maximise the independent-set size. `total_cmp` because
    // the RTT filter above guarantees finite radii and the measurement
    // path must not carry a panic (radii are never NaN, and a total order
    // keeps the sort deterministic even if that invariant slipped).
    disks.sort_by(|a, b| a.1.radius_km.total_cmp(&b.1.radius_km).then(a.0.cmp(&b.0)));

    let mut picked: Vec<(usize, Disk)> = Vec::new();
    for (vp, disk) in disks {
        let mut independent = true;
        for (pv, p) in &picked {
            *overlap_tests += 1;
            if overlaps(*pv, p, vp, &disk) {
                independent = false;
                break;
            }
        }
        if independent {
            picked.push((vp, disk));
        }
    }

    let sites = picked
        .into_iter()
        .map(|(vp, disk)| SiteEstimate {
            vp,
            city: geolocate(vp, &disk),
            disk,
        })
        .collect();
    Enumeration { sites, n_samples }
}

/// The pure violation test: do any two samples' disks fail to overlap?
///
/// Equivalent to `enumerate(..).is_anycast()` but exits on the first
/// violation; used where only the verdict matters.
pub fn has_violation(samples: &[RttSample]) -> bool {
    let disks: Vec<Disk> = samples
        .iter()
        .filter(|s| s.rtt_ms.is_finite() && (0.0..10_000.0).contains(&s.rtt_ms))
        .map(|s| Disk::from_rtt(s.vp_coord, s.rtt_ms))
        .collect();
    // Check against the smallest disk first for early exit.
    let Some(min_idx) = disks
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.radius_km.total_cmp(&b.1.radius_km))
        .map(|(i, _)| i)
    else {
        return false;
    };
    for (i, d) in disks.iter().enumerate() {
        if i != min_idx && !d.overlaps(&disks[min_idx]) {
            return true;
        }
    }
    // The smallest disk overlapped everything; fall back to the full
    // quadratic check (rare: requires every small disk to sit inside the
    // blur of the others).
    for i in 0..disks.len() {
        for j in i + 1..disks.len() {
            if !disks[i].overlaps(&disks[j]) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> CityDb {
        CityDb::embedded()
    }

    fn sample(db: &CityDb, city: &str, rtt: f64, vp: usize) -> RttSample {
        RttSample {
            vp,
            vp_coord: db.get(db.by_name(city).unwrap()).coord,
            rtt_ms: rtt,
        }
    }

    #[test]
    fn empty_samples_are_unresponsive() {
        let e = enumerate(&[], &db());
        assert_eq!(e.n_sites(), 0);
        assert!(!e.is_anycast());
        assert!(!has_violation(&[]));
    }

    #[test]
    fn single_sample_is_one_site() {
        let db = db();
        let e = enumerate(&[sample(&db, "Amsterdam", 5.0, 0)], &db);
        assert_eq!(e.n_sites(), 1);
        assert!(!e.is_anycast());
    }

    #[test]
    fn unicast_pattern_no_violation() {
        // VPs across the world see RTTs proportional to their distance to a
        // single host in Frankfurt: all disks include Frankfurt.
        let db = db();
        let fra = db.get(db.by_name("Frankfurt").unwrap()).coord;
        let samples: Vec<RttSample> = ["Amsterdam", "Tokyo", "Sydney", "Sao Paulo", "Seattle"]
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let c = db.get(db.by_name(name).unwrap()).coord;
                // RTT = distance-derived minimum + realistic inflation.
                let rtt = laces_geo::min_rtt_ms(c.gcd_km(&fra)) * 1.4 + 2.0;
                RttSample {
                    vp: i,
                    vp_coord: c,
                    rtt_ms: rtt,
                }
            })
            .collect();
        let e = enumerate(&samples, &db);
        assert!(
            !e.is_anycast(),
            "unicast misdetected: {} sites",
            e.n_sites()
        );
        assert!(!has_violation(&samples));
    }

    #[test]
    fn anycast_pattern_detected_and_geolocated() {
        // Three sites: VPs in Tokyo, Amsterdam and Sao Paulo all measure
        // ~4 ms — impossible for one host.
        let db = db();
        let samples = vec![
            sample(&db, "Tokyo", 4.0, 0),
            sample(&db, "Amsterdam", 4.0, 1),
            sample(&db, "Sao Paulo", 4.0, 2),
        ];
        assert!(has_violation(&samples));
        let e = enumerate(&samples, &db);
        assert_eq!(e.n_sites(), 3);
        let cities = e.cities(&db);
        // Each 400 km disk contains its own metro (the most populous nearby).
        assert!(cities.contains(&"Tokyo"), "{cities:?}");
        assert!(cities.contains(&"Sao Paulo"), "{cities:?}");
    }

    #[test]
    fn regional_anycast_blurs_into_one_site() {
        // Two sites 200 km apart (Amsterdam, Brussels) probed from nearby
        // VPs with a few ms of access latency: the disks overlap, GCD cannot
        // tell them apart (the paper's regional false negative).
        let db = db();
        let samples = vec![
            sample(&db, "Amsterdam", 4.0, 0),
            sample(&db, "Brussels", 4.0, 1),
        ];
        let e = enumerate(&samples, &db);
        assert_eq!(e.n_sites(), 1, "regional anycast should evade GCD");
    }

    #[test]
    fn enumeration_is_a_lower_bound() {
        // Five true sites, but only three VPs are close enough to witness
        // separation: enumeration must be between 2 and 5.
        let db = db();
        let samples = vec![
            sample(&db, "Tokyo", 3.0, 0),
            sample(&db, "Singapore", 3.0, 1),
            sample(&db, "Sydney", 3.0, 2),
            sample(&db, "Los Angeles", 90.0, 3), // blurred
            sample(&db, "London", 110.0, 4),     // blurred
        ];
        let e = enumerate(&samples, &db);
        assert!(e.is_anycast());
        assert!((2..=5).contains(&e.n_sites()));
        // The three tight disks are all independent.
        assert!(e.n_sites() >= 3, "tight disks must all be picked");
    }

    #[test]
    fn greedy_prefers_small_disks() {
        let db = db();
        // A huge disk overlapping everything plus two tight separated disks:
        // picking the huge disk first would hide one site.
        let samples = vec![
            sample(&db, "Frankfurt", 250.0, 9),
            sample(&db, "Tokyo", 2.0, 0),
            sample(&db, "Sao Paulo", 2.0, 1),
        ];
        let e = enumerate(&samples, &db);
        assert_eq!(e.n_sites(), 2);
        let vps: Vec<usize> = e.sites.iter().map(|s| s.vp).collect();
        assert!(
            vps.contains(&0) && vps.contains(&1),
            "tight disks picked: {vps:?}"
        );
    }

    #[test]
    fn bogus_rtts_are_discarded() {
        let db = db();
        let samples = vec![
            sample(&db, "Tokyo", f64::NAN, 0),
            sample(&db, "Amsterdam", -3.0, 1),
            sample(&db, "Sydney", 50_000.0, 2),
            sample(&db, "Paris", 5.0, 3),
        ];
        let e = enumerate(&samples, &db);
        assert_eq!(e.n_samples, 1);
        assert_eq!(e.n_sites(), 1);
    }

    #[test]
    fn violation_shortcut_agrees_with_enumeration() {
        let db = db();
        let cases = vec![
            vec![
                sample(&db, "Tokyo", 4.0, 0),
                sample(&db, "Amsterdam", 4.0, 1),
            ],
            vec![
                sample(&db, "Tokyo", 200.0, 0),
                sample(&db, "Amsterdam", 200.0, 1),
            ],
            vec![
                sample(&db, "Amsterdam", 2.0, 0),
                sample(&db, "Brussels", 2.0, 1),
            ],
            vec![],
        ];
        for samples in cases {
            assert_eq!(
                has_violation(&samples),
                enumerate(&samples, &db).is_anycast()
            );
        }
    }

    #[test]
    fn memo_and_reference_variants_agree_with_enumerate_counted() {
        let db = db();
        let cases = vec![
            vec![],
            vec![sample(&db, "Amsterdam", 5.0, 0)],
            vec![
                sample(&db, "Tokyo", 4.0, 0),
                sample(&db, "Amsterdam", 4.0, 1),
                sample(&db, "Sao Paulo", 4.0, 2),
            ],
            vec![
                sample(&db, "Frankfurt", 250.0, 3),
                sample(&db, "Tokyo", 2.0, 0),
                sample(&db, "Sao Paulo", 2.0, 1),
                sample(&db, "Amsterdam", f64::NAN, 2),
            ],
            vec![
                sample(&db, "Tokyo", 3.0, 0),
                sample(&db, "Singapore", 3.0, 1),
                sample(&db, "Sydney", 3.0, 2),
                sample(&db, "Los Angeles", 90.0, 3),
                sample(&db, "London", 110.0, 4),
            ],
        ];
        for samples in cases {
            // The memo is indexed by VP index; cover 0..=max.
            let n = samples.iter().map(|s| s.vp + 1).max().unwrap_or(0);
            let mut coords = vec![laces_geo::Coord::new(0.0, 0.0); n];
            for s in &samples {
                coords[s.vp] = s.vp_coord;
            }
            let geom = VpGeometry::new(&coords, &db);
            let (mut t0, mut t1, mut t2) = (0u64, 0u64, 0u64);
            let base = enumerate_counted(&samples, &db, &mut t0);
            let memo = enumerate_counted_memo(&samples, &geom, &mut t1);
            let refr = enumerate_counted_reference(&samples, &db, &mut t2);
            assert_eq!(base, memo);
            assert_eq!(base, refr);
            assert_eq!(t0, t1);
            assert_eq!(t0, t2);
        }
    }
}
