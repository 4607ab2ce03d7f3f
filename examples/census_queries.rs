//! Querying a published census through the indexed read path.
//!
//! Runs a few census days, publishes them through [`CensusStore`] (which
//! writes a binary index sidecar next to every day file), then opens a
//! [`QueryService`](laces_census::QueryService) handle and answers the questions a heavy-read consumer
//! asks — point lookups, longitudinal prefix histories, the Table 6 origin
//! AS ranking, day-over-day diffs and per-site prefix lists — without ever
//! deserialising a full day.
//!
//! ```text
//! cargo run --release -p laces-examples --bin census_queries -- [--mid|--paper] [--days N]
//! ```

use std::sync::Arc;

use laces_census::pipeline::{CensusPipeline, PipelineConfig};
use laces_census::store::CensusStore;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let world = laces_examples::world_from_args(&args);
    let days: u32 = args
        .iter()
        .position(|a| a == "--days")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);

    // Publish: each save writes the day file, its telemetry sidecar, and
    // the query index (census-day-NNNNN.idx).
    let dir = std::env::temp_dir().join(format!("laces-census-queries-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CensusStore::open(&dir).expect("store directory");
    let mut pipeline = CensusPipeline::new(Arc::clone(&world), PipelineConfig::icmp_only(&world));
    for day in 0..days {
        let out = pipeline.run_day(day).expect("valid pipeline config");
        store.save(&out.census).expect("day publishes");
        println!(
            "day {day}: published {} records ({} GCD-confirmed)",
            out.census.records.len(),
            out.census.gcd_confirmed().len()
        );
    }

    // Open a handle. `.days(..)` could restrict the window; the cache
    // budget bounds resident index bytes, never correctness.
    let mut q = store
        .query()
        .cache_budget(16 << 20)
        .build()
        .expect("indexed store opens");
    println!("\nopened query service over days {:?}", q.days());

    // A prefix that is anycast on day 0, for the running example.
    let subject = q
        .summary(0)
        .ok()
        .and_then(|_| {
            let ranks = q.asn_ranking(0).expect("ranking");
            let top = ranks.first()?.asn;
            println!(
                "top origin AS on day 0: AS{top} ({} v4 + {} v6 anycast prefixes)",
                ranks[0].v4, ranks[0].v6
            );
            q.sites(0)
                .expect("site list")
                .first()
                .and_then(|(city, _)| {
                    q.site_prefixes(0, city)
                        .expect("site prefixes")
                        .into_iter()
                        .next()
                })
        })
        .expect("day 0 published anycast");

    // Point lookup: one prefix, one day, from the index alone.
    let point = q.point(0, subject).expect("lookup").expect("present");
    println!(
        "\npoint lookup {subject}: anycast_based={} gcd_confirmed={} sites={} origin={:?}",
        point.anycast_based_positive, point.gcd_confirmed, point.n_sites, point.origin_asn
    );

    // The full published record, read as its exact byte span.
    let line = q.record_json(0, subject).expect("lookup").expect("present");
    println!("published record: {line}");

    // Longitudinal history over every selected day.
    println!("\nhistory of {subject}:");
    for (day, anycast_based, gcd) in q.history(subject).expect("history") {
        println!("  day {day}: anycast_based={anycast_based} gcd_confirmed={gcd}");
    }

    // Day-over-day diff (appearances, disappearances, footprint changes).
    if days >= 2 {
        let d = q.diff(0, 1).expect("diff");
        println!(
            "\ndiff day 0 → 1: +{} -{} prefixes, {} footprint changes",
            d.appeared.len(),
            d.disappeared.len(),
            d.footprint_changes.len()
        );
    }

    // Per-day confirmed counts, answered from day summaries only.
    println!(
        "\nGCD-confirmed per day: {:?}",
        q.daily_confirmed_counts().expect("counts")
    );

    // The handle's own telemetry shows how little it read.
    let t = q.telemetry();
    println!(
        "\nservice telemetry: {} point lookups, {} index bytes read, {} record bytes read, {} cache hits / {} misses",
        t.counter("query.point_lookups"),
        t.counter("query.index_bytes_read"),
        t.counter("query.record_bytes_read"),
        t.counter("query.cache_hits"),
        t.counter("query.cache_misses"),
    );

    let _ = std::fs::remove_dir_all(&dir);
}
