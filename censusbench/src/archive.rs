//! `archive-read`: the store's read path.
//!
//! Set-up builds a 28-day archive of real pipeline days (`run_day` +
//! `save`, Mid scale by default). Then one client runs a closed loop — the
//! next query is sent only after the previous one returns — over a seeded
//! mix of [`QueryService`] and [`HealthService`] calls. The query service
//! gets a cache budget of 9/10 of the archive's index bytes: the hot
//! working set fits, and the loop pays section loads and evictions in its
//! tail rather than at its median. The health service keeps its default
//! budget. The anycast and GCD layers are idle while the loop
//! runs.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use laces_census::health::{DetectorConfig, HealthService};
use laces_census::pipeline::{CensusPipeline, PipelineConfig};
use laces_census::query::QueryService;
use laces_census::store::CensusStore;
use laces_netsim::World;
use laces_packet::PrefixKey;

use crate::fingerprint::{fnv1a, Fingerprint, Fnv};
use crate::replay::{day_bytes, replay_day};
use crate::spans::{SpanId, Spans, LANE_MEASURED};
use crate::{layer_table, median, percentile, ratio, Checker, Layers, Options, WorkloadRun};

/// Days in the archive.
const DAYS: u32 = 28;
/// Queries answered (and hashed into the fingerprint) before timing.
const VERIFY_OPS: usize = 3_000;
/// Query spans kept for the Chrome trace (every query is still timed).
const MAX_QUERY_SPANS: usize = 5_000;

/// The query kinds of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Point,
    RecordJson,
    History,
    AsnRanking,
    Diff,
    Sites,
    MetricHistory,
    Findings,
}

/// The mix: each kind's share in thousandths. The shares are assumed, not
/// measured: no access log of a census archive is available. They keep
/// the shape of `laces-bench`'s query benchmark, whose loop is Zipf-hot
/// point lookups on uniform days, and give the analytic and health calls
/// a small share so that they make the tail. Each kind's own median is a
/// per-layer metric, so a change to one call shows whatever its share.
const MIX: [(Kind, u64); 8] = [
    (Kind::Point, 850),
    (Kind::RecordJson, 60),
    (Kind::History, 40),
    (Kind::Sites, 15),
    (Kind::AsnRanking, 10),
    (Kind::Diff, 10),
    (Kind::MetricHistory, 10),
    (Kind::Findings, 5),
];

/// Health metrics `metric_history` asks for.
const METRICS: [&str; 6] = [
    "published",
    "probes_sent",
    "replies",
    "candidates",
    "anycast_confirmed",
    "loss_permille",
];

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Point => "query.point",
            Kind::RecordJson => "query.record_json",
            Kind::History => "query.history",
            Kind::AsnRanking => "query.asn_ranking",
            Kind::Diff => "query.diff",
            Kind::Sites => "query.sites",
            Kind::MetricHistory => "health.metric_history",
            Kind::Findings => "health.findings",
        }
    }

    /// Answered by the health service (else by the query service).
    fn is_health(self) -> bool {
        matches!(self, Kind::MetricHistory | Kind::Findings)
    }
}

/// The service counters the per-layer metrics are taken from.
const COUNTERS: [&str; 8] = [
    "query.cache_hits",
    "query.cache_misses",
    "query.cache_evictions",
    "query.index_bytes_read",
    "query.record_bytes_read",
    "health.cache_hits",
    "health.cache_misses",
    "health.series_bytes_read",
];

/// The current value of every [`COUNTERS`] name.
fn counters(c: &Client) -> BTreeMap<&'static str, u64> {
    COUNTERS
        .iter()
        .map(|&name| {
            let report = if name.starts_with("health.") {
                c.hs.telemetry()
            } else {
                c.qs.telemetry()
            };
            (name, report.counter(name))
        })
        .collect()
}

/// Seeded xorshift64* stream: the query mix's only source of variety.
struct Stream(u64);

impl Stream {
    fn new(seed: u64) -> Self {
        Stream(fnv1a(&seed.to_le_bytes()) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Log-uniform rank in `[0, n)`: a Zipf(≈1)-shaped hot head.
    fn zipf(&mut self, n: usize) -> usize {
        let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        let r = (u * (n as f64).ln()).exp().floor() as usize;
        r.clamp(1, n.max(1)) - 1
    }
}

/// One drawn query.
#[derive(Debug, Clone, Copy)]
struct Query {
    kind: Kind,
    day: u32,
    prefix: PrefixKey,
    metric: &'static str,
}

/// The client: the two services, the hot prefix order and the stream.
struct Client {
    qs: QueryService,
    hs: HealthService,
    hot: Vec<PrefixKey>,
    stream: Stream,
    detectors: DetectorConfig,
}

impl Client {
    fn draw(&mut self) -> Query {
        let mut pick = self.stream.below(1000);
        let mut kind = Kind::Point;
        for (k, share) in MIX {
            if pick < share {
                kind = k;
                break;
            }
            pick -= share;
        }
        let day = self.stream.below(u64::from(DAYS)) as u32;
        let prefix = self.hot[self.stream.zipf(self.hot.len())];
        let metric = METRICS[self.stream.below(METRICS.len() as u64) as usize];
        Query {
            kind,
            day,
            prefix,
            metric,
        }
    }

    /// Answer `q`; with `hash`, return the FNV-1a of the answer's debug
    /// form (untimed verification), else 0.
    fn answer(&mut self, q: Query, hash: bool) -> Result<u64, String> {
        fn done<T: Debug>(ans: T, hash: bool) -> u64 {
            if hash {
                fnv1a(format!("{ans:?}").as_bytes())
            } else {
                black_box(&ans);
                0
            }
        }
        let e = |e: &dyn std::fmt::Display| format!("{}: {e}", q.kind.name());
        Ok(match q.kind {
            Kind::Point => done(self.qs.point(q.day, q.prefix).map_err(|x| e(&x))?, hash),
            Kind::RecordJson => done(
                self.qs.record_json(q.day, q.prefix).map_err(|x| e(&x))?,
                hash,
            ),
            Kind::History => done(self.qs.history(q.prefix).map_err(|x| e(&x))?, hash),
            Kind::AsnRanking => done(self.qs.asn_ranking(q.day).map_err(|x| e(&x))?, hash),
            Kind::Diff => {
                let before = q.day.min(DAYS - 2);
                done(self.qs.diff(before, before + 1).map_err(|x| e(&x))?, hash)
            }
            Kind::Sites => done(self.qs.sites(q.day).map_err(|x| e(&x))?, hash),
            Kind::MetricHistory => done(self.hs.metric_history(q.metric).map_err(|x| e(&x))?, hash),
            Kind::Findings => done(self.hs.findings(&self.detectors).map_err(|x| e(&x))?, hash),
        })
    }
}

/// Wall time of one block of the closed loop: the end-to-end metrics are
/// taken over the quarter of the blocks with the highest throughput, the
/// seconds the host's other tenants slowed least.
const BLOCK_S: f64 = 1.0;
/// Untimed closed loop before the timed one, so that the query cache has
/// settled into its evictions before the first block.
const WARMUP_S: f64 = 1.0;

/// Per-kind latencies of a timed loop, microseconds.
#[derive(Default)]
struct Block {
    all: Vec<f64>,
    by_kind: Vec<(Kind, Vec<f64>)>,
    /// Where each [`BLOCK_S`] block of `all` ends.
    ends: Vec<usize>,
}

impl Block {
    fn push(&mut self, kind: Kind, us: f64) {
        self.all.push(us);
        match self.by_kind.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, v)) => v.push(us),
            None => self.by_kind.push((kind, vec![us])),
        }
    }

    fn p50(&self, kind: Kind) -> f64 {
        let mut v = self
            .by_kind
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, v)| v.clone())
            .unwrap_or_default();
        median(&mut v)
    }

    fn mean(&self) -> f64 {
        ratio(self.all.iter().sum(), self.all.len() as f64)
    }
}

/// Run the closed loop for `seconds`; with `spans`, record a span per
/// query (the first [`MAX_QUERY_SPANS`]) under `root`.
fn closed_loop(
    client: &mut Client,
    checker: &mut Checker,
    seconds: f64,
    mut spans: Option<(&mut Spans, SpanId)>,
) -> Block {
    let mut block = Block::default();
    let start = Instant::now();
    let mut block_start = Instant::now();
    while block.all.is_empty() || start.elapsed().as_secs_f64() < seconds {
        if block_start.elapsed().as_secs_f64() >= BLOCK_S {
            block.ends.push(block.all.len());
            block_start = Instant::now();
        }
        let q = client.draw();
        let keep_span = block.all.len() < MAX_QUERY_SPANS;
        let span = match &mut spans {
            Some((s, root)) if keep_span => Some(s.open(q.kind.name(), Some(*root), LANE_MEASURED)),
            _ => None,
        };
        let t = Instant::now();
        let r = client.answer(q, false);
        let us = t.elapsed().as_secs_f64() * 1e6;
        if let (Some((s, _)), Some(id)) = (&mut spans, span) {
            s.close(id);
        }
        block.push(q.kind, us);
        checker.count(q.kind.name(), r.map(|_| ()));
    }
    if block.ends.last() != Some(&block.all.len()) {
        block.ends.push(block.all.len());
    }
    block
}

pub(crate) fn run(
    opts: &Options,
    checker: &mut Checker,
    spans: &mut Spans,
) -> Result<WorkloadRun, String> {
    let store_dir = opts
        .out_dir
        .join(format!("store-archive-read-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = CensusStore::open(&store_dir).map_err(|e| e.to_string())?;

    // Set-up: the archive, built through the real pipeline.
    let t0 = Instant::now();
    let world = Arc::new(World::generate(opts.scale.world_config(opts.seed)));
    let generate_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut pipeline = CensusPipeline::new(Arc::clone(&world), PipelineConfig::standard(&world));
    let mut universe: BTreeSet<PrefixKey> = BTreeSet::new();
    let mut fp = Fingerprint::new();
    let (mut days_h, mut telemetry_h) = (Fnv::default(), Fnv::default());
    let (mut published, mut anycast_probes, mut gcd_probes) = (0, 0, 0);
    let mut last_feedback = None;
    let mut save_ms = Vec::new();
    for day in 0..DAYS {
        if day == DAYS - 1 {
            last_feedback = Some(pipeline.feedback.clone());
        }
        let out = pipeline
            .run_day(day)
            .map_err(|e| format!("set-up run_day({day}): {e}"))?;
        let t = Instant::now();
        store.save(&out.census).map_err(|e| e.to_string())?;
        save_ms.push(t.elapsed().as_secs_f64() * 1e3);
        checker.count(
            "archive day",
            if out.degraded() {
                Err(format!("day {day} degraded on a fault-free config"))
            } else {
                Ok(())
            },
        );
        universe.extend(out.census.records.keys().copied());
        published += out.census.records.len() as u64;
        anycast_probes += out.census.stats.anycast_probes;
        gcd_probes += out.census.stats.gcd_probes;
        days_h.add(out.census.to_jsonl().as_bytes());
        telemetry_h.add(out.census.stats.telemetry.to_jsonl().as_bytes());
    }
    let (mut index_mass, mut series_mass) = (0u64, 0u64);
    for e in std::fs::read_dir(&store_dir)
        .map_err(|e| e.to_string())?
        .flatten()
    {
        let name = e.file_name().to_string_lossy().into_owned();
        let len = e.metadata().map_or(0, |m| m.len());
        if name.ends_with(".idx") {
            index_mass += len;
        } else if name.ends_with(".health.series") {
            series_mass += len;
        }
    }
    let query_budget = index_mass / 10 * 9;
    let qs = store
        .query()
        .cache_budget(query_budget)
        .build()
        .map_err(|e| e.to_string())?;
    let hs = store.health().build().map_err(|e| e.to_string())?;
    let mut stream = Stream::new(opts.seed);
    let mut hot: Vec<PrefixKey> = universe.into_iter().collect();
    for i in (1..hot.len()).rev() {
        hot.swap(i, stream.below(i as u64 + 1) as usize);
    }
    let mut client = Client {
        qs,
        hs,
        hot,
        stream,
        detectors: DetectorConfig::standard(opts.seed),
    };
    let setup_s = t0.elapsed().as_secs_f64();

    // Verification pass: the first queries of the stream, answers hashed.
    let mut answers = Fnv::default();
    for _ in 0..VERIFY_OPS {
        let q = client.draw();
        let r = client.answer(q, true);
        if let Ok(h) = &r {
            answers.add(&h.to_le_bytes());
        }
        checker.count(q.kind.name(), r.map(|_| ()));
    }
    fp.insert("archive_records", published);
    fp.insert("anycast_probes", anycast_probes);
    fp.insert("gcd_probes", gcd_probes);
    fp.insert("h_days_jsonl", days_h.finish());
    fp.insert("h_telemetry", telemetry_h.finish());
    fp.insert("h_answers", answers.finish());
    checker.check("archive fingerprint", Ok(fp));

    // Traced runs replay the archive's last day through the layers
    // (re-run and re-saved: identical bytes) before the query loops, while
    // the pipeline's caches are still warm from the archive build.
    const DAY_ROOT: &str = "archive-read.build_day";
    let mut l = Layers::new();
    if opts.trace {
        l.set("netsim.generate_ms", generate_ms);
        pipeline.feedback = last_feedback.unwrap_or_default();
        let day_root = spans.open(DAY_ROOT, None, LANE_MEASURED);
        let out = replay_day(
            &world,
            &mut pipeline,
            DAYS - 1,
            &store,
            spans,
            Some(day_root),
            &mut l,
        );
        spans.close(day_root);
        checker.count("archive day (traced)", out.map(|_| ()));
    }

    let mut layers = Vec::new();
    let mut table = String::new();
    let untraced_s = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    closed_loop(&mut client, checker, WARMUP_S.min(opts.seconds), None);
    // Before the timed loop, whose sample buffers grow with the host's
    // speed.
    let peak_rss_mb = crate::peak_rss_mb();
    let before = counters(&client);
    let untraced = closed_loop(&mut client, checker, untraced_s, None);
    if opts.trace {
        const ROOT: &str = "archive-read.loop";
        let root = spans.open(ROOT, None, LANE_MEASURED);
        let traced = closed_loop(
            &mut client,
            checker,
            opts.seconds / 2.0,
            Some((spans, root)),
        );
        spans.close(root);
        let overhead = traced.mean() / untraced.mean() - 1.0;
        l.set("query.mix.p50_us", median(&mut traced.all.clone()));
        for (kind, _) in MIX {
            let name = kind.name();
            l.set(&format!("{name}.p50_us"), traced.p50(kind));
        }
        // Counter changes over both timed loops, per call of the service
        // that counts them: a faster read path answers more calls in its
        // seconds, and must not read as more bytes or evictions.
        let after = counters(&client);
        let d = |name: &str| after[name].saturating_sub(before[name]) as f64;
        let calls = |health: bool| -> f64 {
            [&untraced, &traced]
                .iter()
                .flat_map(|b| &b.by_kind)
                .filter(|(k, _)| k.is_health() == health)
                .map(|(_, v)| v.len() as f64)
                .sum()
        };
        let (query_calls, health_calls) = (calls(false), calls(true));
        let hit_ratio = |service: &str| {
            let hits = d(&format!("{service}.cache_hits"));
            ratio(hits, hits + d(&format!("{service}.cache_misses")))
        };
        l.set("query.cache_hit_ratio", hit_ratio("query"));
        l.set(
            "query.cache_evictions_per_query",
            ratio(d("query.cache_evictions"), query_calls),
        );
        l.set(
            "query.index_bytes_per_query",
            ratio(d("query.index_bytes_read"), query_calls),
        );
        l.set(
            "query.record_bytes_per_query",
            ratio(d("query.record_bytes_read"), query_calls),
        );
        l.set("health.cache_hit_ratio", hit_ratio("health"));
        l.set(
            "health.series_bytes_per_call",
            ratio(d("health.series_bytes_read"), health_calls),
        );
        l.set("trace.overhead", overhead);
        table = query_table(&traced, overhead);

        table.push_str(&layer_table(spans, DAY_ROOT, "archive day", overhead));
        layers.push(l);
    }
    let (rec, idx, side) = day_bytes(&store, DAYS - 1);
    drop(client);
    let _ = std::fs::remove_dir_all(&store_dir);

    let op_ms = untraced.all.iter().map(|us| us / 1e3).collect();
    Ok(WorkloadRun {
        setup_s,
        block_ends: untraced.ends.clone(),
        op_ms,
        peak_rss_mb,
        layers,
        table,
        context: vec![
            ("archive_days", DAYS.to_string()),
            ("archive_index_bytes", index_mass.to_string()),
            ("archive_series_bytes", series_mass.to_string()),
            ("query_cache_budget", query_budget.to_string()),
            (
                "health_cache_budget",
                laces_census::health::DEFAULT_CACHE_BUDGET.to_string(),
            ),
            ("save_ms_median", format!("{:.3}", median(&mut save_ms))),
            // Stated, not a bounded metric: see "End-to-end metrics" in
            // README.md for why.
            (
                "query_p50_us",
                format!("{:.4}", median(&mut untraced.all.clone())),
            ),
            ("last_day_bytes", format!("{rec}/{idx}/{side}")),
            (
                "load_generator",
                "closed loop, 1 client, 1 thread".to_string(),
            ),
        ],
    })
}

/// The traced block's per-kind table: count, p50, p99 and share of the
/// client's time.
fn query_table(b: &Block, overhead: f64) -> String {
    use std::fmt::Write as _;
    let total: f64 = b.all.iter().sum();
    let mut t = String::new();
    let _ = writeln!(
        t,
        "query loop (traced) = {:.1} ms over {} queries; trace.overhead = {overhead:+.4}",
        total / 1e3,
        b.all.len()
    );
    let _ = writeln!(
        t,
        "{:<28} {:>8} {:>10} {:>10} {:>8}",
        "call", "count", "p50_us", "p99_us", "share"
    );
    for (kind, v) in &b.by_kind {
        let mut v = v.clone();
        let sum: f64 = v.iter().sum();
        let _ = writeln!(
            t,
            "{:<28} {:>8} {:>10.2} {:>10.2} {:>7.1}%",
            kind.name(),
            v.len(),
            median(&mut v),
            percentile(&mut v, 0.99),
            100.0 * sum / total.max(f64::MIN_POSITIVE)
        );
    }
    t
}
