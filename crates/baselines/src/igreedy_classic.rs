//! The original iGreedy analysis, as a reference implementation.
//!
//! Cicalese et al.'s tool solves the same greedy maximum-independent-set
//! problem, but its published implementation recomputes pairwise disk
//! relations iteratively and re-scans the full sample set per extracted
//! site; on large campaigns the analysis phase took hours. LACeS
//! reimplements the analysis as a single sorted sweep (see
//! [`laces_gcd::enumerate`](mod@laces_gcd::enumerate)). This module preserves the *classic*
//! formulation — build the full pairwise overlap matrix, then iteratively
//! extract the smallest disk disjoint from everything selected — so the
//! equivalence can be property-tested and the speedup benchmarked.

use laces_gcd::enumerate::{Enumeration, RttSample, SiteEstimate};
use laces_geo::{CityDb, Disk};

/// Classic iGreedy enumeration: O(n²) pairwise matrix plus iterative
/// extraction. Produces the same independent set as the optimised sweep.
pub fn enumerate_classic(samples: &[RttSample], db: &CityDb) -> Enumeration {
    let disks: Vec<(usize, Disk)> = samples
        .iter()
        .filter(|s| s.rtt_ms.is_finite() && (0.0..10_000.0).contains(&s.rtt_ms))
        .map(|s| (s.vp, Disk::from_rtt(s.vp_coord, s.rtt_ms)))
        .collect();
    let n = disks.len();

    // Full pairwise overlap matrix, as the original tool materialises.
    let mut overlaps = vec![false; n * n];
    for i in 0..n {
        for j in 0..n {
            overlaps[i * n + j] = disks[i].1.overlaps(&disks[j].1);
        }
    }

    let mut available: Vec<bool> = vec![true; n];
    let mut picked: Vec<usize> = Vec::new();
    loop {
        // Re-scan everything for the smallest still-available disk.
        let mut best: Option<usize> = None;
        for i in 0..n {
            if !available[i] {
                continue;
            }
            let better = match best {
                None => true,
                Some(b) => {
                    let (ri, rb) = (disks[i].1.radius_km, disks[b].1.radius_km);
                    ri < rb || (ri == rb && disks[i].0 < disks[b].0)
                }
            };
            if better {
                best = Some(i);
            }
        }
        let Some(b) = best else { break };
        picked.push(b);
        // Discard the picked disk and everything overlapping it.
        for i in 0..n {
            if available[i] && overlaps[b * n + i] {
                available[i] = false;
            }
        }
        available[b] = false;
    }

    let sites = picked
        .into_iter()
        .map(|i| {
            let (vp, disk) = disks[i];
            SiteEstimate {
                vp,
                city: db.most_populous_in(&disk),
                disk,
            }
        })
        .collect();
    Enumeration {
        sites,
        n_samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laces_gcd::enumerate::enumerate;
    use laces_geo::Coord;
    use proptest::prelude::*;

    fn db() -> CityDb {
        CityDb::embedded()
    }

    #[test]
    fn matches_optimised_on_known_patterns() {
        let db = db();
        let mk = |name: &str, rtt: f64, vp: usize| RttSample {
            vp,
            vp_coord: db.get(db.by_name(name).unwrap()).coord,
            rtt_ms: rtt,
        };
        let cases = vec![
            vec![],
            vec![mk("Tokyo", 5.0, 0)],
            vec![
                mk("Tokyo", 4.0, 0),
                mk("Amsterdam", 4.0, 1),
                mk("Sao Paulo", 4.0, 2),
            ],
            vec![mk("Amsterdam", 4.0, 0), mk("Brussels", 4.0, 1)],
            vec![
                mk("Frankfurt", 250.0, 9),
                mk("Tokyo", 2.0, 0),
                mk("Sao Paulo", 2.0, 1),
            ],
        ];
        for samples in cases {
            let a = enumerate(&samples, &db);
            let b = enumerate_classic(&samples, &db);
            assert_eq!(a.n_sites(), b.n_sites());
            assert_eq!(a.is_anycast(), b.is_anycast());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn classic_and_optimised_agree(
            samples in proptest::collection::vec(
                ((-60.0f64..70.0), (-180.0f64..180.0), (0.5f64..300.0)),
                0..40,
            )
        ) {
            let db = db();
            let samples: Vec<RttSample> = samples
                .into_iter()
                .enumerate()
                .map(|(i, (lat, lon, rtt))| RttSample {
                    vp: i,
                    vp_coord: Coord::new(lat, lon),
                    rtt_ms: rtt,
                })
                .collect();
            let a = enumerate(&samples, &db);
            let b = enumerate_classic(&samples, &db);
            prop_assert_eq!(a.n_sites(), b.n_sites());
            prop_assert_eq!(a.is_anycast(), b.is_anycast());
            // The same witnessing VPs, too (both tie-break by VP id).
            let va: Vec<usize> = a.sites.iter().map(|s| s.vp).collect();
            let vb: Vec<usize> = b.sites.iter().map(|s| s.vp).collect();
            prop_assert_eq!(va, vb);
        }
    }
}
