//! Campaign-scoped vantage-point geometry.
//!
//! A GCD campaign compares VP-pair great-circle distances millions of
//! times — every `select_by_distance` test and every disk-overlap test in
//! the greedy enumeration reduces to "how far apart are these two VPs?",
//! because each feasibility disk is centred on its witnessing VP. The
//! distances themselves are constant across the whole campaign, so
//! [`VpGeometry`] computes each unordered pair once up front and the hot
//! paths index into the table instead of re-deriving haversines per
//! target.
//!
//! The memo is *bit-identical* to recomputation: `Coord::gcd_km` is an
//! exactly symmetric IEEE function (`sin(-x) = -sin(x)` exactly, the
//! half-angle sines are squared, and multiplication commutes), so storing
//! the `(min, max)` pair's distance loses nothing regardless of which
//! direction the caller asks for. The `gcd_invariance` suite checks the
//! memoized engine against an oracle that recomputes every distance.

use laces_geo::{CityDb, CityId, Coord};

/// Upper-triangular memo of pairwise VP great-circle distances, indexed by
/// the platform-scoped VP index (the same index [`RttSample::vp`] and
/// `select_by_distance` carry), plus a per-VP geolocation table answering
/// "most populous city within `r` km of this VP" by binary search.
///
/// [`RttSample::vp`]: crate::enumerate::RttSample
#[derive(Debug, Clone)]
pub struct VpGeometry {
    n: usize,
    /// Row-major upper triangle: `dist[tri(i) + (j - i - 1)]` holds the
    /// distance between VPs `i < j`, where `tri(i)` skips the first `i`
    /// rows.
    dist: Vec<f64>,
    n_cities: usize,
    /// Per-VP city distances, ascending: `city_dist[v * n_cities + k]` is
    /// the distance from VP `v` to its `k`-th nearest city.
    city_dist: Vec<f64>,
    /// `city_best[v * n_cities + k]` is the city maximising
    /// `(population, CityId)` among VP `v`'s `k + 1` nearest cities — the
    /// exact argmax [`CityDb::most_populous_in`] computes over a disk
    /// containing those cities and no others.
    city_best: Vec<u16>,
}

impl VpGeometry {
    /// Memoize every pairwise distance of `coords` (indexed by VP index)
    /// and each VP's distance-sorted city table.
    ///
    /// Cost is `n·(n-1)/2` VP-pair haversines plus `n·|cities|` city-leg
    /// haversines once per campaign — ~80 k for the 227-VP Ark platform —
    /// repaid on the first few targets.
    pub fn new(coords: &[Coord], db: &CityDb) -> Self {
        let n = coords.len();
        let mut dist = Vec::with_capacity(n.saturating_sub(1) * n / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                dist.push(coords[i].gcd_km(&coords[j]));
            }
        }
        let n_cities = db.len();
        let mut city_dist = Vec::with_capacity(n * n_cities);
        let mut city_best = Vec::with_capacity(n * n_cities);
        let mut row: Vec<(f64, u16)> = Vec::with_capacity(n_cities);
        for c in coords {
            row.clear();
            // The leg is computed exactly as `Disk::contains` computes it
            // for a VP-centred disk: `center.gcd_km(&city)`.
            row.extend((0..n_cities).map(|i| {
                // laces-lint: allow(as-truncation) — i < db.len(), and CityDb is u16-indexed
                let id = i as u16;
                (c.gcd_km(&db.get(CityId(id)).coord), id)
            }));
            row.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut best: Option<(u64, u16)> = None;
            for &(d, i) in row.iter() {
                let pop = db.get(CityId(i)).population;
                if best.is_none_or(|b| (pop, i) > b) {
                    best = Some((pop, i));
                }
                city_dist.push(d);
                // A non-empty prefix always has a best entry; `unwrap_or`
                // keeps the measurement path panic-free regardless.
                city_best.push(best.map(|(_, i)| i).unwrap_or(0));
            }
        }
        VpGeometry {
            n,
            dist,
            n_cities,
            city_dist,
            city_best,
        }
    }

    /// Number of VPs covered by the memo.
    pub fn n_vps(&self) -> usize {
        self.n
    }

    /// Great-circle distance between VPs `a` and `b`, in km. Returns the
    /// exact f64 `coords[a].gcd_km(&coords[b])` would produce (0.0 when
    /// `a == b`).
    pub fn dist_km(&self, a: usize, b: usize) -> f64 {
        if a == b {
            return 0.0;
        }
        let (i, j) = if a < b { (a, b) } else { (b, a) };
        // Offset of row i's first entry: i rows of lengths n-1, n-2, ...
        let row_start = i * (2 * self.n - i - 1) / 2;
        self.dist[row_start + (j - i - 1)]
    }

    /// The most populous city within `radius_km` of VP `vp` — byte-for-byte
    /// what [`CityDb::most_populous_in`] returns for a disk of that radius
    /// centred on the VP, via binary search over the memoized
    /// distance-sorted city row instead of per-city haversines.
    ///
    /// Inclusion uses the same `d <= r + 1e-9` tolerance as
    /// `Disk::contains`, and the prefix argmax reproduces the
    /// `(population, CityId)` total order of the grid and linear scans.
    pub fn most_populous_within_km(&self, vp: usize, radius_km: f64) -> Option<CityId> {
        let row = &self.city_dist[vp * self.n_cities..(vp + 1) * self.n_cities];
        let cnt = row.partition_point(|&d| d <= radius_km + 1e-9);
        (cnt > 0).then(|| CityId(self.city_best[vp * self.n_cities + cnt - 1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coords() -> Vec<Coord> {
        vec![
            Coord::new(52.37, 4.90),    // Amsterdam
            Coord::new(35.68, 139.69),  // Tokyo
            Coord::new(-23.55, -46.63), // Sao Paulo
            Coord::new(-33.87, 151.21), // Sydney
            Coord::new(47.61, -122.33), // Seattle
            Coord::new(0.0, 180.0),     // antimeridian
        ]
    }

    #[test]
    fn memo_is_bitwise_equal_to_recomputation_both_directions() {
        let cs = coords();
        let g = VpGeometry::new(&cs, &CityDb::embedded());
        assert_eq!(g.n_vps(), cs.len());
        for i in 0..cs.len() {
            for j in 0..cs.len() {
                let direct = cs[i].gcd_km(&cs[j]);
                assert_eq!(
                    g.dist_km(i, j).to_bits(),
                    direct.to_bits(),
                    "({i}, {j}) diverged"
                );
            }
        }
    }

    #[test]
    fn diagonal_is_zero() {
        let db = CityDb::embedded();
        let g = VpGeometry::new(&coords(), &db);
        for i in 0..g.n_vps() {
            assert_eq!(g.dist_km(i, i), 0.0);
        }
    }

    #[test]
    fn empty_and_singleton_platforms() {
        let db = CityDb::embedded();
        assert_eq!(VpGeometry::new(&[], &db).n_vps(), 0);
        let g = VpGeometry::new(&[Coord::new(1.0, 2.0)], &db);
        assert_eq!(g.n_vps(), 1);
        assert_eq!(g.dist_km(0, 0), 0.0);
    }

    /// Exhaustive equivalence of the per-VP prefix-argmax table against
    /// [`CityDb::most_populous_in`]: every VP, with radii swept through
    /// every city's exact distance plus boundary nudges either side of the
    /// `1e-9` inclusion tolerance.
    #[test]
    fn most_populous_within_matches_disk_query_at_every_boundary() {
        let db = CityDb::embedded();
        let cs = coords();
        let g = VpGeometry::new(&cs, &db);
        for (v, c) in cs.iter().enumerate() {
            let mut radii = vec![0.0, 1e-12, 5.0, 30_000.0];
            for (_, city) in db.iter() {
                let d = c.gcd_km(&city.coord);
                radii.extend([d, d - 2e-9, d + 2e-9, d - 1e-13, d + 1e-13]);
            }
            for r in radii {
                let disk = laces_geo::Disk::new(*c, r);
                assert_eq!(
                    g.most_populous_within_km(v, disk.radius_km),
                    db.most_populous_in(&disk),
                    "vp {v} radius {r}"
                );
            }
        }
    }
}
