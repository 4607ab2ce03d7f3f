//! The LACeS census benchmark.
//!
//! Three workloads, each run in a fresh process and seeded by `--seed`
//! (the seed is folded into `WorldConfig::seed` and into the query mix):
//!
//! - `census-day`: one paper-scale census day, `run_day` + `save`;
//! - `gcd-full-scan`: the bi-annual GCD_Ark scan over both full hitlists;
//! - `archive-read`: a closed loop of queries over a 28-day archive.
//!
//! With tracing off a run reports the end-to-end metrics ([`END_TO_END`]);
//! a separate traced run records spans around the calls into each layer
//! and reports the per-layer metrics ([`PER_LAYER`]). See `README.md` in
//! this package for why each workload exists and what each metric means.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use laces_netsim::WorldConfig;

mod archive;
mod census_day;
pub mod fingerprint;
mod gcd_scan;
mod replay;
pub mod spans;

use fingerprint::{Expected, Fingerprint};
use spans::Spans;

/// End-to-end metrics `(name, unit)`, reported with tracing off. An
/// "operation" is a census day (`run_day` + `save`) on `census-day`, a
/// v4 + v6 scan on `gcd-full-scan` and one query on `archive-read`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_mean_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced run. A layer
/// a workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netsim.generate_ms", "ms"),
    ("hitlist.build_ms", "ms"),
    ("hitlist.targets", "count"),
    ("core.pass.icmp_v4.ms", "ms"),
    ("core.pass.tcp_v4.ms", "ms"),
    ("core.pass.udp_v4.ms", "ms"),
    ("core.pass.icmp_v6.ms", "ms"),
    ("core.pass.tcp_v6.ms", "ms"),
    ("core.pass.udp_v6.ms", "ms"),
    ("core.probes_sent", "count"),
    ("core.replies_delivered", "count"),
    ("core.records", "count"),
    ("core.probes_per_s", "1/s"),
    ("core.records_per_probe", "ratio"),
    ("classify.ms", "ms"),
    ("classify.records_per_s", "1/s"),
    ("classify.anycast_targets", "count"),
    ("gcd.campaign.ms", "ms"),
    ("gcd.tcp_retry.ms", "ms"),
    ("gcd.scan_v4.ms", "ms"),
    ("gcd.scan_v6.ms", "ms"),
    ("gcd.probes_sent", "count"),
    ("gcd.replies", "count"),
    ("gcd.overlap_tests", "count"),
    ("gcd.probes_per_s", "1/s"),
    ("gcd.reply_ratio", "ratio"),
    ("census.run_day.ms", "ms"),
    ("census.self_ms", "ms"),
    ("census.published", "count"),
    ("store.save.ms", "ms"),
    ("store.record_bytes", "bytes"),
    ("store.index_bytes", "bytes"),
    ("store.sidecar_bytes", "bytes"),
    ("query.mix.p50_us", "us"),
    ("query.point.p50_us", "us"),
    ("query.record_json.p50_us", "us"),
    ("query.history.p50_us", "us"),
    ("query.asn_ranking.p50_us", "us"),
    ("query.diff.p50_us", "us"),
    ("query.sites.p50_us", "us"),
    ("query.cache_hit_ratio", "ratio"),
    ("query.cache_evictions_per_query", "count/query"),
    ("query.index_bytes_per_query", "bytes/query"),
    ("query.record_bytes_per_query", "bytes/query"),
    ("health.metric_history.p50_us", "us"),
    ("health.findings.p50_us", "us"),
    ("health.series_bytes_per_call", "bytes/call"),
    ("health.cache_hit_ratio", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One paper-scale census day: `run_day` + `save`.
    CensusDay,
    /// The §5.1.1 GCD_Ark scan over the full v4 and v6 hitlists.
    GcdFullScan,
    /// Seeded query mix over a 28-day archive.
    ArchiveRead,
}

impl Workload {
    /// Every workload, in presentation order.
    pub const ALL: [Workload; 3] = [
        Workload::CensusDay,
        Workload::GcdFullScan,
        Workload::ArchiveRead,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CensusDay => "census-day",
            Workload::GcdFullScan => "gcd-full-scan",
            Workload::ArchiveRead => "archive-read",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The scale the workload runs at unless `--scale` overrides it.
    pub fn default_scale(self) -> Scale {
        match self {
            Workload::CensusDay | Workload::GcdFullScan => Scale::Paper,
            Workload::ArchiveRead => Scale::Mid,
        }
    }
}

/// World scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `WorldConfig::tiny()`: milliseconds, for the self-test.
    Tiny,
    /// `WorldConfig::paper_topology_tiny_targets()`.
    Mid,
    /// `WorldConfig::paper()`: 364 k v4 + 59 k v6 targets.
    Paper,
}

impl Scale {
    /// The name `--scale` takes.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Mid => "mid",
            Scale::Paper => "paper",
        }
    }

    /// Parse a `--scale` value.
    pub fn parse(s: &str) -> Option<Scale> {
        [Scale::Tiny, Scale::Mid, Scale::Paper]
            .into_iter()
            .find(|x| x.name() == s)
    }

    /// The world for this scale and benchmark seed. Seed 0 is the
    /// scale's own default world.
    pub fn world_config(self, seed: u64) -> WorldConfig {
        let mut cfg = match self {
            Scale::Tiny => WorldConfig::tiny(),
            Scale::Mid => WorldConfig::paper_topology_tiny_targets(),
            Scale::Paper => WorldConfig::paper(),
        };
        cfg.seed = cfg
            .seed
            .wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        cfg
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Wall seconds the measured loop runs (at least one operation).
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// World scale.
    pub scale: Scale,
    /// Directory for the store, the result file and the Chrome trace.
    pub out_dir: PathBuf,
    /// Committed fingerprints to check against.
    pub expected: Expected,
}

/// The outcome of one run.
#[derive(Debug)]
pub struct RunResult {
    /// Operations attempted (measured ones plus verification ones).
    pub attempted: u64,
    /// Operations that returned `Err`, came back degraded, or failed the
    /// fingerprint check.
    pub failed: u64,
    /// Why each failed operation failed.
    pub problems: Vec<String>,
    /// Reported metrics: `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Host and run context.
    pub context: Vec<(&'static str, String)>,
    /// The run's first operation's fingerprint.
    pub fingerprint: Fingerprint,
    /// Human-readable report (the per-layer table on traced runs).
    pub report: String,
    /// The traced run's spans.
    pub spans: Option<Spans>,
}

impl RunResult {
    /// Every operation succeeded and matched.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Counts operations and checks each one's fingerprint against the run's
/// first and against the committed values.
pub(crate) struct Checker<'a> {
    opts: &'a Options,
    first: Option<Fingerprint>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl<'a> Checker<'a> {
    fn new(opts: &'a Options) -> Self {
        Checker {
            opts,
            first: None,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Record one operation that carries no fingerprint of its own.
    pub(crate) fn count(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(format!("{what}: {e}"));
        }
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        // A run that fails every query must not grow without bound.
        if self.problems.len() < 100 {
            self.problems.push(problem);
        }
    }

    /// Record one operation's outcome.
    pub(crate) fn check(&mut self, what: &str, outcome: Result<Fingerprint, String>) {
        self.attempted += 1;
        let mut bad = Vec::new();
        match outcome {
            Err(e) => bad.push(e),
            Ok(fp) => {
                let o = self.opts;
                for m in o
                    .expected
                    .mismatches(o.workload.name(), o.scale.name(), o.seed, &fp)
                {
                    bad.push(format!("fingerprint {m}"));
                }
                match &self.first {
                    None => self.first = Some(fp),
                    Some(first) if *first != fp => bad.push(format!(
                        "fingerprint differs from the run's first: {}",
                        fingerprint::render(&fp)
                    )),
                    Some(_) => {}
                }
            }
        }
        if !bad.is_empty() {
            self.fail(format!("{what}: {}", bad.join("; ")));
        }
    }
}

/// Per-layer values, every [`PER_LAYER`] name present (idle layers 0).
#[derive(Debug, Clone)]
pub(crate) struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Self {
        Layers(PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect())
    }

    /// Set a metric. Panics on a name missing from [`PER_LAYER`]: that is
    /// a bug in this benchmark, not in the program.
    pub(crate) fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(k, _)| **k == name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name}"));
        *slot.1 = value;
    }

    pub(crate) fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The per-metric median over several traced operations.
    fn median_of(all: &[Layers]) -> Layers {
        let mut out = Layers::new();
        for (name, _) in PER_LAYER {
            let mut v: Vec<f64> = all.iter().map(|l| l.get(name)).collect();
            out.set(name, median(&mut v));
        }
        out
    }
}

/// Median (mean of the middle pair for even counts); 0 when empty.
pub(crate) fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `count` per second of `ms` (0 when no time passed).
pub(crate) fn rate(count: f64, ms: f64) -> f64 {
    if ms > 0.0 {
        count / (ms / 1e3)
    } else {
        0.0
    }
}

/// `a / b`, 0 when `b` is 0.
pub(crate) fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Nearest-rank percentile `p` in (0, 1]; with fewer than `1 / (1 - p)`
/// samples this is the maximum. 0 when empty.
pub(crate) fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the checkout was made from, when it is a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// What a workload hands back to [`run`].
pub(crate) struct WorkloadRun {
    /// Set-up wall seconds.
    pub setup_s: f64,
    /// Untraced operation wall times, milliseconds.
    pub op_ms: Vec<f64>,
    /// Where each block of `op_ms` ends (exclusive, ascending, the last
    /// is `op_ms.len()`). The reported mean, p99 and rate are the means of
    /// the blocks' own values over the fastest quarter of the blocks.
    pub block_ends: Vec<usize>,
    /// [`peak_rss_mb`] once set-up and the first operation are done, so
    /// that it does not depend on how many operations fit in the run.
    pub peak_rss_mb: f64,
    /// Per-layer values of each traced operation (traced runs only).
    pub layers: Vec<Layers>,
    /// The traced run's per-layer table.
    pub table: String,
    /// Workload-specific context.
    pub context: Vec<(&'static str, String)>,
}

/// Call `op` until `seconds` of wall clock have passed, at least once.
/// `op` returns the wall milliseconds of the part it measures (checking
/// the result, outside that part, is not timed). Returns those times and
/// [`peak_rss_mb`] after the first call.
pub(crate) fn measure_loop(seconds: f64, mut op: impl FnMut() -> f64) -> (Vec<f64>, f64) {
    let start = Instant::now();
    let mut op_ms = vec![op()];
    let rss_mb = peak_rss_mb();
    while start.elapsed().as_secs_f64() < seconds {
        op_ms.push(op());
    }
    (op_ms, rss_mb)
}

/// The per-layer table of the last traced operation under a root span
/// named `root`: each layer's wall and self time and its share of the
/// operation's measured time (`e2e`, the sum of the root's measured-lane
/// children), with the tracing overhead stated.
pub(crate) fn layer_table(spans: &Spans, root: &str, e2e: &str, overhead: f64) -> String {
    use std::fmt::Write as _;
    let all = spans.all();
    let Some(r) = all.iter().rposition(|s| s.name == root) else {
        return String::new();
    };
    let under_root = |mut i: usize| loop {
        if i == r {
            return true;
        }
        match all[i].parent {
            Some(p) => i = p,
            None => return false,
        }
    };
    let ids: Vec<usize> = (r + 1..all.len()).filter(|&i| under_root(i)).collect();
    let measured: f64 = ids
        .iter()
        .filter(|&&i| all[i].parent == Some(r) && all[i].lane == spans::LANE_MEASURED)
        .map(|&i| spans.ms(i))
        .sum();
    let mut rows: Vec<(String, usize, f64, f64)> = Vec::new();
    for &i in &ids {
        let (ms, self_ms) = (spans.ms(i), spans.self_ms(i));
        match rows.iter_mut().find(|row| row.0 == all[i].name) {
            Some(row) => {
                row.1 += 1;
                row.2 += ms;
                row.3 += self_ms;
            }
            None => rows.push((all[i].name.clone(), 1, ms, self_ms)),
        }
    }
    let mut t = String::new();
    let _ = writeln!(
        t,
        "{e2e} (traced) = {measured:.1} ms; trace.overhead = {overhead:+.4}"
    );
    let _ = writeln!(
        t,
        "{:<28} {:>6} {:>12} {:>12} {:>8}",
        "layer", "calls", "wall_ms", "self_ms", "share"
    );
    for (name, calls, ms, self_ms) in rows {
        let _ = writeln!(
            t,
            "{name:<28} {calls:>6} {ms:>12.1} {self_ms:>12.1} {:>7.1}%",
            100.0 * self_ms / measured.max(f64::MIN_POSITIVE)
        );
    }
    t
}

/// Run one workload.
pub fn run(opts: &Options) -> Result<RunResult, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("create {}: {e}", opts.out_dir.display()))?;
    let mut checker = Checker::new(opts);
    let mut spans = Spans::default();
    let wr = match opts.workload {
        Workload::CensusDay => census_day::run(opts, &mut checker, &mut spans)?,
        Workload::GcdFullScan => gcd_scan::run(opts, &mut checker, &mut spans)?,
        Workload::ArchiveRead => archive::run(opts, &mut checker, &mut spans)?,
    };

    let metrics = if opts.trace {
        let layers = Layers::median_of(&wr.layers);
        PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), layers.get(n), *u))
            .collect()
    } else {
        let mut blocks = Vec::new();
        let mut start = 0;
        for &end in &wr.block_ends {
            blocks.push(&wr.op_ms[start..end]);
            start = end;
        }
        // The quarter of the blocks (at least one) that answered fastest:
        // the seconds of the query loop, or the single days or scans, that
        // the host's other tenants slowed least.
        let block_rate = |b: &[f64]| rate(b.len() as f64, b.iter().sum());
        blocks.sort_by(|a, b| block_rate(b).total_cmp(&block_rate(a)));
        blocks.truncate((blocks.len() / 4).max(1));
        let over_blocks = |stat: &dyn Fn(&mut Vec<f64>) -> f64| {
            let v: Vec<f64> = blocks.iter().map(|b| stat(&mut b.to_vec())).collect();
            ratio(v.iter().sum(), v.len() as f64)
        };
        vec![
            ("setup_s".to_string(), wr.setup_s, "s"),
            (
                "op_mean_ms".to_string(),
                over_blocks(&|b| ratio(b.iter().sum(), b.len() as f64)),
                "ms",
            ),
            (
                "op_p99_ms".to_string(),
                over_blocks(&|b| percentile(b, 0.99)),
                "ms",
            ),
            ("ops_per_s".to_string(), over_blocks(&|b| block_rate(b)), "1/s"),
            ("peak_rss_mb".to_string(), wr.peak_rss_mb, "MB"),
        ]
    };

    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut context = vec![
        ("workload", opts.workload.name().to_string()),
        ("scale", opts.scale.name().to_string()),
        ("seed", opts.seed.to_string()),
        (
            "world_seed",
            format!("{:#x}", opts.scale.world_config(opts.seed).seed),
        ),
        ("seconds", opts.seconds.to_string()),
        ("trace", opts.trace.to_string()),
        ("available_parallelism", parallelism.to_string()),
        ("shards", laces_core::spec::default_shards().to_string()),
        (
            "gcd_chunks",
            laces_gcd::engine::DEFAULT_GCD_CHUNKS.to_string(),
        ),
        ("commit", commit()),
        ("ops_measured", wr.op_ms.len().to_string()),
        ("blocks", wr.block_ends.len().to_string()),
        (
            "first_op_ms",
            wr.op_ms
                .iter()
                .take(5)
                .map(|ms| format!("{ms:.3}"))
                .collect::<Vec<_>>()
                .join(" "),
        ),
    ];
    context.extend(wr.context);

    Ok(RunResult {
        attempted: checker.attempted,
        failed: checker.failed,
        problems: checker.problems,
        metrics,
        context,
        fingerprint: checker.first.unwrap_or_default(),
        report: wr.table,
        spans: opts.trace.then_some(spans),
    })
}
