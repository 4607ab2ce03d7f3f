//! The indexed query layer over real pipeline output: sidecar build →
//! reopen → every query kind answered identically to a from-scratch
//! in-memory recompute — fault-free and on a degraded day, across shard
//! counts, and regardless of cache budget or day-visit order.

use std::path::Path;
use std::sync::Arc;

use laces_census::asn_ranking::rank_census_day;
use laces_census::pipeline::{CensusPipeline, PipelineConfig};
use laces_census::record::DailyCensus;
use laces_census::store::CensusStore;
use laces_census::QueryService;
use laces_core::fault::FaultPlan;
use laces_netsim::{World, WorldConfig};
use laces_packet::{Prefix24, PrefixKey};

fn world() -> Arc<World> {
    Arc::new(World::generate(WorldConfig::tiny()))
}

fn run_days(w: &Arc<World>, cfg: PipelineConfig, days: u32) -> Vec<DailyCensus> {
    let mut pipeline = CensusPipeline::new(Arc::clone(w), cfg);
    (0..days)
        .map(|d| pipeline.run_day(d).expect("valid pipeline config").census)
        .collect()
}

fn store_with(dir: &Path, censuses: &[DailyCensus]) -> CensusStore {
    let _ = std::fs::remove_dir_all(dir);
    let store = CensusStore::open(dir).unwrap();
    for c in censuses {
        store.save(c).unwrap();
    }
    store
}

/// A prefix no tiny-world census publishes.
fn absent_prefix() -> PrefixKey {
    PrefixKey::V4(Prefix24::from_network(0xDEAD_BE00))
}

/// Every query kind against the in-memory recompute from the same days.
fn assert_indexed_matches_memory(qs: &mut QueryService, censuses: &[DailyCensus]) {
    for census in censuses {
        let day = census.day;

        // Point lookups and exact record spans, every published record.
        for r in census.records.values() {
            let p = qs
                .point(day, r.prefix)
                .unwrap()
                .expect("published record indexed");
            assert_eq!(p.day, day);
            assert_eq!(p.prefix, r.prefix);
            assert_eq!(p.anycast_based_positive, r.anycast_based_positive());
            assert_eq!(p.gcd_confirmed, r.gcd_confirmed());
            assert_eq!(p.has_gcd, r.gcd.is_some());
            assert_eq!(p.partial, r.partial);
            assert_eq!(p.max_vps, r.max_vps());
            assert_eq!(p.n_sites, r.gcd.as_ref().map_or(0, |g| g.n_sites));
            assert_eq!(p.origin_asn, r.origin_asn);
            assert_eq!(
                p.cities,
                r.gcd.as_ref().map(|g| g.cities.clone()).unwrap_or_default()
            );
            assert_eq!(
                qs.record_json(day, r.prefix).unwrap().unwrap(),
                serde_json::to_string(r).unwrap(),
                "record span diverged from the published line"
            );
        }
        assert!(qs.point(day, absent_prefix()).unwrap().is_none());

        // Table 6 ranking vs the census-side in-memory reference.
        assert_eq!(qs.asn_ranking(day).unwrap(), rank_census_day(census));

        // Day summary vs recomputed aggregates.
        let s = qs.summary(day).unwrap();
        assert_eq!(s.day, day);
        assert_eq!(s.n_records as usize, census.records.len());
        assert_eq!(
            s.n_anycast_based as usize,
            census
                .records
                .values()
                .filter(|r| r.anycast_based_positive())
                .count()
        );
        assert_eq!(s.n_gcd_confirmed as usize, census.gcd_confirmed().len());
        assert_eq!(
            s.n_partial as usize,
            census.records.values().filter(|r| r.partial).count()
        );
        assert_eq!(s.anycast_probes, census.stats.anycast_probes);
        assert_eq!(s.gcd_probes, census.stats.gcd_probes);
        assert_eq!(s.gcd_target_count as usize, census.stats.gcd_target_count);
        assert_eq!(s.degraded, census.degraded());

        // Per-site AT lists vs the in-memory recompute.
        let mut by_city: std::collections::BTreeMap<String, Vec<PrefixKey>> = Default::default();
        for r in census.records.values() {
            if let Some(g) = &r.gcd {
                for c in &g.cities {
                    by_city.entry(c.clone()).or_default().push(r.prefix);
                }
            }
        }
        let want_sites: Vec<(String, usize)> = by_city
            .iter()
            .map(|(c, ps)| (c.clone(), ps.len()))
            .collect();
        assert_eq!(qs.sites(day).unwrap(), want_sites);
        for (city, prefixes) in &by_city {
            assert_eq!(&qs.site_prefixes(day, city).unwrap(), prefixes);
        }
        assert!(qs
            .site_prefixes(day, "Nowhere-on-Earth")
            .unwrap()
            .is_empty());
    }

    // Histories over the full day range vs the records themselves.
    let mut probes: Vec<PrefixKey> = censuses
        .iter()
        .flat_map(|c| c.records.keys().copied())
        .collect();
    probes.push(absent_prefix());
    probes.sort_unstable();
    probes.dedup();
    for p in probes {
        let want: Vec<(u32, bool, bool)> = censuses
            .iter()
            .map(|c| {
                let r = c.records.get(&p);
                (
                    c.day,
                    r.is_some_and(|r| r.anycast_based_positive()),
                    r.is_some_and(|r| r.gcd_confirmed()),
                )
            })
            .collect();
        assert_eq!(qs.history(p).unwrap(), want);
        if censuses.len() >= 2 {
            let (lo, hi) = (censuses[1].day, censuses.last().unwrap().day);
            assert_eq!(
                qs.history_between(p, lo, hi).unwrap(),
                want[1..].to_vec(),
                "restricted history must be the full history's tail"
            );
        }
    }

    // Per-day confirmed counts from summaries only.
    let want_counts: std::collections::BTreeMap<u32, usize> = censuses
        .iter()
        .map(|c| (c.day, c.gcd_confirmed().len()))
        .collect();
    assert_eq!(qs.daily_confirmed_counts().unwrap(), want_counts);

    // Day-over-day diffs vs `census::diff` on the loaded days.
    for pair in censuses.windows(2) {
        assert_eq!(
            qs.diff(pair[0].day, pair[1].day).unwrap(),
            laces_census::diff(&pair[0], &pair[1])
        );
    }
}

#[test]
fn indexed_queries_match_in_memory_recompute_fault_free() {
    let w = world();
    let mut cfg = PipelineConfig::icmp_only(&w);
    cfg.protocols_v6 = vec![];
    let censuses = run_days(&w, cfg, 3);
    assert!(censuses.iter().all(|c| !c.degraded()));
    let dir = std::env::temp_dir().join(format!("laces-qsvc-clean-{}", std::process::id()));
    let store = store_with(&dir, &censuses);

    let mut qs = store.query().build().unwrap();
    assert_eq!(qs.days(), [0, 1, 2]);
    assert_indexed_matches_memory(&mut qs, &censuses);

    // The deprecated eager path agrees with the indexed one.
    #[allow(deprecated)]
    {
        let eager = laces_census::CensusQuery::new(censuses.clone());
        let p = censuses[0].records.keys().next().copied().unwrap();
        assert_eq!(qs.history(p).unwrap(), eager.prefix_history(p));
        assert_eq!(
            qs.daily_confirmed_counts().unwrap(),
            eager.daily_confirmed_counts()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn indexed_queries_match_in_memory_recompute_on_a_degraded_day() {
    let w = world();
    let mut cfg = PipelineConfig::icmp_only(&w);
    cfg.faults = FaultPlan::with_seed(0xDA7A)
        .and_crash(3, 5)
        .and_fabric(0.05, 0.03);
    let censuses = run_days(&w, cfg, 2);
    assert!(
        censuses.iter().any(|c| c.degraded()),
        "the crash plan must degrade at least one day"
    );
    let dir = std::env::temp_dir().join(format!("laces-qsvc-degraded-{}", std::process::id()));
    let store = store_with(&dir, &censuses);
    let mut qs = store.query().build().unwrap();
    assert_indexed_matches_memory(&mut qs, &censuses);
    // The degraded flag survives the sidecar round trip.
    assert!(censuses
        .iter()
        .any(|c| qs.summary(c.day).unwrap().degraded == c.degraded() && c.degraded()));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The published artifacts — day files AND index sidecars — are
/// byte-identical across streamer shard counts, so a store written by a
/// 16-shard pipeline serves the same answers as a single-shard one.
#[test]
fn published_artifacts_are_invariant_across_shard_counts() {
    let w = world();
    let mut dirs = Vec::new();
    for shards in [1usize, 16] {
        let mut cfg = PipelineConfig::icmp_only(&w);
        cfg.protocols_v6 = vec![];
        cfg.shards = Some(shards);
        let censuses = run_days(&w, cfg, 2);
        let dir =
            std::env::temp_dir().join(format!("laces-qsvc-shards{shards}-{}", std::process::id()));
        let store = store_with(&dir, &censuses);
        let mut qs = store.query().build().unwrap();
        assert_indexed_matches_memory(&mut qs, &censuses);
        dirs.push(dir);
    }
    for day in 0..2u32 {
        for ext in ["jsonl", "idx"] {
            let name = format!("census-day-{day:05}.{ext}");
            let a = std::fs::read(dirs[0].join(&name)).unwrap();
            let b = std::fs::read(dirs[1].join(&name)).unwrap();
            assert_eq!(a, b, "{name} differs between shard counts 1 and 16");
        }
    }
    for dir in dirs {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Answers are identical regardless of cache budget, open order, or
/// day-visit order — the cache is an optimisation, never a semantic —
/// and the cache holds index sections only, never day-file bytes.
#[test]
fn answers_are_invariant_under_cache_budget_and_visit_order() {
    let w = world();
    let mut cfg = PipelineConfig::icmp_only(&w);
    cfg.protocols_v6 = vec![];
    let censuses = run_days(&w, cfg, 3);
    let dir = std::env::temp_dir().join(format!("laces-qsvc-cache-{}", std::process::id()));
    let store = store_with(&dir, &censuses);

    let probes: Vec<PrefixKey> = censuses
        .iter()
        .flat_map(|c| c.records.keys().copied())
        .take(40)
        .collect();

    // Reference: default budget, days visited in ascending order.
    let mut reference = Vec::new();
    let mut qs = store.query().build().unwrap();
    for c in censuses.iter() {
        for p in &probes {
            reference.push(qs.point(c.day, *p).unwrap());
        }
        // Interleave a summary load so section eviction pressure differs
        // between the two handles.
        qs.summary(c.day).unwrap();
        reference.push(qs.point(c.day, probes[0]).unwrap());
    }

    // Day files never enter the cache: record fetches read the JSONL but
    // leave the resident bytes unchanged, which stay within the index mass.
    let resident = qs.telemetry().gauge("query.resident_bytes");
    for c in censuses.iter() {
        for p in &probes {
            qs.record_json(c.day, *p).unwrap();
        }
    }
    assert!(qs.telemetry().counter("query.record_bytes_read") > 0);
    assert_eq!(
        qs.telemetry().gauge("query.resident_bytes"),
        resident,
        "record fetches entered the cache"
    );
    let index_bytes: u64 = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "idx"))
        .map(|p| std::fs::metadata(p).unwrap().len())
        .sum();
    assert!(
        resident <= index_bytes,
        "{resident} resident bytes exceed the {index_bytes} index bytes"
    );

    // Starved budget (1 byte: every section load evicts), reverse order,
    // day selection restricted then widened via a second handle.
    let mut starved = store.query().cache_budget(1).build().unwrap();
    let mut got = Vec::new();
    for c in censuses.iter().rev() {
        let mut per_day = Vec::new();
        for p in &probes {
            per_day.push(starved.point(c.day, *p).unwrap());
        }
        starved.summary(c.day).unwrap();
        per_day.push(starved.point(c.day, probes[0]).unwrap());
        got.push((c.day, per_day));
    }
    got.sort_by_key(|(day, _)| *day);
    let flat: Vec<_> = got.into_iter().flat_map(|(_, v)| v).collect();
    assert_eq!(
        flat, reference,
        "cache budget or visit order changed answers"
    );
    assert!(
        starved.telemetry().counter("query.cache_evictions") > 0,
        "a 1-byte budget must evict"
    );

    // A handle restricted to a day subset answers that subset identically.
    let mut subset = store.query().days([1u32]).build().unwrap();
    for p in &probes {
        assert_eq!(subset.point(1, *p).unwrap(), qs.point(1, *p).unwrap());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `reindex` rebuilds a byte-identical sidecar from the published day
/// file alone — the recovery path for stores written before the index
/// format existed.
#[test]
fn reindex_recovers_a_deleted_sidecar() {
    let w = world();
    let mut cfg = PipelineConfig::icmp_only(&w);
    cfg.protocols_v6 = vec![];
    let censuses = run_days(&w, cfg, 1);
    let dir = std::env::temp_dir().join(format!("laces-qsvc-reindex-{}", std::process::id()));
    let store = store_with(&dir, &censuses);

    let idx_path = dir.join("census-day-00000.idx");
    let original = std::fs::read(&idx_path).unwrap();
    std::fs::remove_file(&idx_path).unwrap();
    assert!(
        store.query().build().is_err(),
        "a day without a sidecar must not open"
    );
    store.reindex(0).unwrap();
    assert_eq!(
        std::fs::read(&idx_path).unwrap(),
        original,
        "reindex must reproduce the sidecar byte-for-byte"
    );
    let mut qs = store.query().build().unwrap();
    assert_indexed_matches_memory(&mut qs, &censuses);
    let _ = std::fs::remove_dir_all(&dir);
}
