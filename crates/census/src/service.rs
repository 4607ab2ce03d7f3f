//! The health service, re-exported as [`crate::health::HealthService`]:
//! a view over a store's `health.series` sidecars through the same
//! [`Archive`] as `laces_query::QueryService`, so it shares the archive's
//! strict day discovery and byte-budgeted LRU (a 5-year archive fits a
//! bounded-memory process) and records its behaviour under the
//! registered `health.*` metric names.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use laces_health::detect::{self, DetectorConfig, HealthFinding};
use laces_health::DaySeries;
use laces_obs::names::health as names;
use laces_obs::{Degraded, ReportDiff, RunReport};
use laces_query::{Archive, Artifact, CacheNames, QueryError};

/// Default cache budget: health sidecars are small, so 16 MiB holds
/// years of days; tests shrink it to force eviction.
pub const DEFAULT_CACHE_BUDGET: u64 = 16 << 20;

/// A failure on the health read path.
#[derive(Debug)]
pub enum HealthError {
    /// The OS-level operation failed.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The day involved, when day-scoped.
        day: Option<u32>,
        /// Underlying error.
        source: std::io::Error,
    },
    /// A sidecar failed to decode.
    Parse {
        /// The file involved.
        path: PathBuf,
        /// The day involved.
        day: u32,
        /// What was wrong.
        detail: String,
    },
    /// The directory holds no health sidecars.
    NoDays,
    /// A requested day has no sidecar.
    UnknownDay(u32),
}

impl std::fmt::Display for HealthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthError::Io { path, day, source } => match day {
                Some(day) => write!(f, "day {day}: i/o error on {}: {source}", path.display()),
                None => write!(f, "i/o error on {}: {source}", path.display()),
            },
            HealthError::Parse { path, day, detail } => {
                write!(f, "day {day}: cannot parse {}: {detail}", path.display())
            }
            HealthError::NoDays => write!(f, "no health.series sidecars found"),
            HealthError::UnknownDay(day) => write!(f, "no health.series sidecar for day {day}"),
        }
    }
}

impl std::error::Error for HealthError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HealthError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Builder for a [`HealthService`].
#[derive(Debug)]
pub struct HealthServiceBuilder {
    dir: PathBuf,
    days: Option<Vec<u32>>,
    cache_budget: u64,
}

impl HealthServiceBuilder {
    /// Restrict the service to these days (each must have a sidecar).
    pub fn days(mut self, days: impl IntoIterator<Item = u32>) -> Self {
        self.days = Some(days.into_iter().collect());
        self
    }

    /// Cap resident series bytes (decoded sidecar text length).
    pub fn cache_budget(mut self, bytes: u64) -> Self {
        self.cache_budget = bytes;
        self
    }

    /// Discover the sidecars and build the service. Nothing is loaded
    /// yet — series load lazily on first query.
    pub fn build(self) -> Result<HealthService, HealthError> {
        let archive = Archive::open(
            self.dir,
            Artifact::HealthSeries,
            self.days,
            self.cache_budget,
            CACHE_NAMES,
        )
        .map_err(|e| match e {
            QueryError::MissingIndex { day, .. } => HealthError::UnknownDay(day),
            QueryError::Io { path, source } => HealthError::Io {
                path,
                day: None,
                source,
            },
            // `Archive::open` fails only with the two errors above or this.
            _ => HealthError::NoDays,
        })?;
        Ok(HealthService { archive })
    }
}

/// The health view's cache metrics.
const CACHE_NAMES: CacheNames = CacheNames {
    hits: names::CACHE_HITS,
    misses: names::CACHE_MISSES,
    evictions: names::CACHE_EVICTIONS,
    days_opened: names::DAYS_OPENED,
    resident_bytes: names::RESIDENT_BYTES,
    resident_days: names::RESIDENT_DAYS,
};

/// The archive slot of a day's series, its only section.
const SERIES_SLOT: usize = 0;

/// Lazy, budget-capped handle over a store's health sidecars.
#[derive(Debug)]
pub struct HealthService {
    archive: Archive,
}

impl HealthService {
    /// Start building a service over `dir`:
    /// `HealthService::open(dir).days(..).cache_budget(..).build()?`.
    pub fn open(dir: impl AsRef<Path>) -> HealthServiceBuilder {
        HealthServiceBuilder {
            dir: dir.as_ref().to_path_buf(),
            days: None,
            cache_budget: DEFAULT_CACHE_BUDGET,
        }
    }

    /// The days this service answers for, ascending.
    pub fn days(&self) -> &[u32] {
        self.archive.days()
    }

    /// The service's own behaviour counters (`health.*`).
    pub fn telemetry(&self) -> &RunReport {
        self.archive.telemetry()
    }

    /// The day's health point (loaded lazily, cached under the budget).
    pub fn series(&mut self, day: u32) -> Result<Arc<DaySeries>, HealthError> {
        let pos = self
            .archive
            .position(day)
            .ok_or(HealthError::UnknownDay(day))?;
        self.archive.get(pos, SERIES_SLOT, |archive| {
            let path = archive.file(Artifact::HealthSeries, day);
            let text = std::fs::read_to_string(&path).map_err(|source| HealthError::Io {
                path: path.clone(),
                day: Some(day),
                source,
            })?;
            let series = DaySeries::decode(&text).map_err(|detail| HealthError::Parse {
                path: path.clone(),
                day,
                detail,
            })?;
            if series.day != day {
                return Err(HealthError::Parse {
                    path,
                    day,
                    detail: format!("sidecar says day {}, file name says {day}", series.day),
                });
            }
            let bytes = text.len() as u64;
            archive.inc(names::SERIES_BYTES_READ, bytes);
            Ok((series, bytes))
        })
    }

    /// Resolve one metric on one (already-loaded) series. Names cover
    /// the headline fields (`"probes_sent"`, `"replies"`, ...), the
    /// drill-down maps (`"loss.<cause>"`, `"stage_ms.<stage>"`,
    /// `"trace_dropped.<scope>"`), the derived rates
    /// (`"loss_permille"`, `"throughput_per_sim_s"`) and finally the
    /// day telemetry's raw counters and gauges by their registered
    /// names.
    fn resolve(series: &DaySeries, metric: &str) -> Option<u64> {
        match metric {
            "probes_sent" => return Some(series.probes_sent),
            "replies" => return Some(series.replies),
            "unanswered" => return Some(series.unanswered),
            "day_sim_ms" => return Some(series.day_sim_ms),
            "gcd_target_count" => return Some(series.gcd_target_count),
            "sites_enumerated" => return Some(series.sites_enumerated),
            "anycast_confirmed" => return Some(series.anycast_confirmed),
            "published" => return Some(series.published),
            "candidates" => return Some(series.candidates),
            "degraded_events" => return Some(series.degraded_reasons().len() as u64),
            "attributed_loss" => return Some(series.attributed_loss()),
            "loss_permille" => return Some(series.loss_permille()),
            "throughput_per_sim_s" => return Some(series.throughput_per_sim_s()),
            _ => {}
        }
        if let Some(cause) = metric.strip_prefix("loss.") {
            return series.loss_by_cause.get(cause).copied();
        }
        if let Some(stage) = metric.strip_prefix("stage_ms.") {
            return series.stage_sim_ms.get(stage).copied();
        }
        if let Some(scope) = metric.strip_prefix("trace_dropped.") {
            return series.trace_dropped.get(scope).copied();
        }
        series
            .counters
            .get(metric)
            .or_else(|| series.gauges.get(metric))
            .copied()
    }

    /// The metric's value for every service day, in day order. `None`
    /// marks a day where the metric is absent (absences on degraded
    /// days are not withdrawals — check the day's degraded reasons).
    pub fn metric_history(&mut self, metric: &str) -> Result<Vec<(u32, Option<u64>)>, HealthError> {
        self.archive.inc(names::QUERIES_SERVED, 1);
        let days = self.archive.days().to_vec();
        let mut out = Vec::with_capacity(days.len());
        for day in days {
            let series = self.series(day)?;
            out.push((day, Self::resolve(&series, metric)));
        }
        Ok(out)
    }

    /// The trailing-`window` rolling median of a metric: for each day
    /// with at least `window` preceding days, the lower-median of the
    /// metric over those days (absent values skipped). Days without a
    /// full window map to `None`.
    pub fn rolling_baseline(
        &mut self,
        metric: &str,
        window: usize,
    ) -> Result<Vec<(u32, Option<u64>)>, HealthError> {
        let history = self.metric_history(metric)?;
        let values: Vec<Option<u64>> = history.iter().map(|(_, v)| *v).collect();
        let mut out = Vec::with_capacity(history.len());
        for (i, (day, _)) in history.iter().enumerate() {
            if window == 0 || i < window {
                out.push((*day, None));
                continue;
            }
            let mut trailing: Vec<u64> = values[i - window..i].iter().filter_map(|v| *v).collect();
            if trailing.is_empty() {
                out.push((*day, None));
            } else {
                trailing.sort_unstable();
                out.push((*day, Some(trailing[(trailing.len() - 1) / 2])));
            }
        }
        Ok(out)
    }

    /// The day-over-day [`RunReport::diff`] between two days' metric
    /// surfaces (counters, gauges, degradation events — stages and
    /// histograms are not carried by the series).
    pub fn diff(&mut self, older_day: u32, newer_day: u32) -> Result<ReportDiff, HealthError> {
        self.archive.inc(names::QUERIES_SERVED, 1);
        let older = self.series(older_day)?.as_report();
        let newer = self.series(newer_day)?.as_report();
        Ok(older.diff(&newer))
    }

    /// Every service day's series, in day order (for the detectors).
    pub fn all_series(&mut self) -> Result<Vec<DaySeries>, HealthError> {
        let days = self.archive.days().to_vec();
        let mut out = Vec::with_capacity(days.len());
        for day in days {
            out.push((*self.series(day)?).clone());
        }
        Ok(out)
    }

    /// Run the anomaly-detector suite over the whole archive.
    pub fn findings(&mut self, cfg: &DetectorConfig) -> Result<Vec<HealthFinding>, HealthError> {
        self.archive.inc(names::QUERIES_SERVED, 1);
        let series = self.all_series()?;
        Ok(detect::run_all(&series, cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laces_health::series::{SeriesInput, SERIES_VERSION};
    use laces_trace::TraceReport;
    use std::collections::BTreeMap;

    type AnyError = Box<dyn std::error::Error>;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "laces-health-{tag}-{}-{}",
            std::process::id(),
            std::thread::current()
                .name()
                .unwrap_or("t")
                .replace("::", "-"),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    fn day_series(day: u32, dropped: u64) -> DaySeries {
        let mut t = laces_obs::RunReport::new();
        t.inc("ICMPv4.fabric.replies_delivered", 900);
        t.inc("ICMPv4.fabric.unanswered", 40);
        if dropped > 0 {
            t.inc("ICMPv4.fabric.dropped", dropped);
            t.add_degraded(laces_obs::DegradedReason::WorkerCrashed { worker: 1 });
        }
        t.set_gauge(laces_obs::names::census::DAY_SIM_MS, 90_000);
        DaySeries::derive(
            day,
            &t,
            &TraceReport::default(),
            &SeriesInput {
                anycast_probes: 1_000,
                gcd_probes: 0,
                ats_per_protocol: BTreeMap::new(),
                gcd_target_count: 10,
                published: 9,
            },
        )
    }

    fn write_sidecar(dir: &Path, series: &DaySeries) {
        std::fs::write(
            dir.join(Artifact::HealthSeries.file_name(series.day)),
            series.encode(),
        )
        .expect("write sidecar");
    }

    fn seeded_dir(tag: &str, days: &[(u32, u64)]) -> PathBuf {
        let dir = tmpdir(tag);
        for (day, dropped) in days {
            write_sidecar(&dir, &day_series(*day, *dropped));
        }
        dir
    }

    #[test]
    fn discovery_is_strict_and_sorted() -> Result<(), AnyError> {
        let dir = seeded_dir("discover", &[(3, 0), (1, 0), (7, 5)]);
        // Distractors that must not be discovered.
        std::fs::write(dir.join("census-day-0001.jsonl"), "{}\n")?;
        std::fs::write(dir.join("census-day-12.health.series"), "short digits")?;
        std::fs::write(dir.join("census-day-0001x.health.series"), "junk")?;
        std::fs::write(dir.join("notes.health.series"), "junk")?;
        std::fs::write(dir.join("census-day-00002.health.series.tmp"), "torn")?;
        std::fs::create_dir_all(dir.join("census-day-00006.health.series"))?;
        let mut svc = HealthService::open(&dir).build()?;
        assert_eq!(svc.days(), &[1, 3, 7]);
        assert_eq!(svc.metric_history("probes_sent")?.len(), 3);
        Ok(())
    }

    #[test]
    fn build_errors_are_typed() {
        let dir = tmpdir("empty");
        match HealthService::open(&dir).build() {
            Err(HealthError::NoDays) => {}
            other => panic!("expected NoDays, got {other:?}"),
        }
        let dir = seeded_dir("days-subset", &[(1, 0)]);
        match HealthService::open(&dir).days(vec![1, 9]).build() {
            Err(HealthError::UnknownDay(9)) => {}
            other => panic!("expected UnknownDay(9), got {other:?}"),
        }
    }

    #[test]
    fn series_loads_lazily_and_validates_day() -> Result<(), AnyError> {
        let dir = seeded_dir("lazy", &[(1, 0), (2, 8)]);
        // A sidecar whose body disagrees with its file name.
        write_sidecar(&dir, &{
            let mut s = day_series(5, 0);
            s.day = 6;
            std::fs::write(dir.join(Artifact::HealthSeries.file_name(5)), s.encode())?;
            day_series(9, 0)
        });
        let mut svc = HealthService::open(&dir).days(vec![1, 2]).build()?;
        assert_eq!(svc.telemetry().counter(names::DAYS_OPENED), 0);
        assert_eq!(svc.series(2)?.loss_by_cause.get("fabric.dropped"), Some(&8));
        assert_eq!(svc.telemetry().counter(names::DAYS_OPENED), 1);
        // Second access is a cache hit.
        let _ = svc.series(2)?;
        assert_eq!(svc.telemetry().counter(names::CACHE_HITS), 1);
        match svc.series(4) {
            Err(HealthError::UnknownDay(4)) => {}
            other => panic!("expected UnknownDay, got {other:?}"),
        }
        let mut svc5 = HealthService::open(&dir).days(vec![5]).build()?;
        match svc5.series(5) {
            Err(HealthError::Parse { detail, .. }) => {
                assert!(detail.contains("sidecar says day 6"), "{detail}")
            }
            other => panic!("expected Parse, got {other:?}"),
        }
        Ok(())
    }

    #[test]
    fn lru_budget_evicts_and_answers_stay_invariant() -> Result<(), AnyError> {
        let days: Vec<(u32, u64)> = (0..10).map(|d| (d, if d == 7 { 50 } else { 0 })).collect();
        let dir = seeded_dir("lru", &days);
        type History = Vec<(u32, Option<u64>)>;
        let answer = |budget: u64| -> Result<(History, u64), AnyError> {
            let mut svc = HealthService::open(&dir).cache_budget(budget).build()?;
            let history = svc.metric_history("attributed_loss")?;
            let _ = svc.metric_history("probes_sent")?;
            Ok((history, svc.telemetry().counter(names::CACHE_EVICTIONS)))
        };
        let (big, big_evictions) = answer(DEFAULT_CACHE_BUDGET)?;
        // A budget smaller than one sidecar forces constant eviction.
        let (tiny, tiny_evictions) = answer(1)?;
        assert_eq!(big, tiny, "answers are budget-invariant");
        assert_eq!(big_evictions, 0);
        assert!(tiny_evictions > 0, "tiny budget must evict");
        assert_eq!(big[7].1, Some(50));
        Ok(())
    }

    #[test]
    fn metric_history_resolves_all_name_spaces() -> Result<(), AnyError> {
        let dir = seeded_dir("resolve", &[(1, 4)]);
        let mut svc = HealthService::open(&dir).build()?;
        assert_eq!(svc.metric_history("probes_sent")?, vec![(1, Some(1_000))]);
        assert_eq!(
            svc.metric_history("loss.fabric.dropped")?,
            vec![(1, Some(4))]
        );
        assert_eq!(
            svc.metric_history("ICMPv4.fabric.replies_delivered")?,
            vec![(1, Some(900))]
        );
        assert_eq!(
            svc.metric_history(laces_obs::names::census::DAY_SIM_MS)?,
            vec![(1, Some(90_000))]
        );
        assert_eq!(svc.metric_history("no_such_metric")?, vec![(1, None)]);
        Ok(())
    }

    #[test]
    fn rolling_baseline_is_trailing_median() -> Result<(), AnyError> {
        let days: Vec<(u32, u64)> = vec![(0, 10), (1, 20), (2, 30), (3, 0), (4, 40)];
        let dir = seeded_dir("baseline", &days);
        let mut svc = HealthService::open(&dir).build()?;
        let base = svc.rolling_baseline("attributed_loss", 3)?;
        assert_eq!(base[0], (0, None));
        assert_eq!(base[2], (2, None));
        // Day 3: trailing {10,20,30} -> lower median 20.
        assert_eq!(base[3], (3, Some(20)));
        // Day 4: trailing {20,30,0} -> sorted {0,20,30} -> 20.
        assert_eq!(base[4], (4, Some(20)));
        Ok(())
    }

    #[test]
    fn diff_and_findings_run_over_the_archive() -> Result<(), AnyError> {
        let days: Vec<(u32, u64)> = (0..9).map(|d| (d, 0)).chain([(9u32, 60u64)]).collect();
        let dir = seeded_dir("findings", &days);
        let mut svc = HealthService::open(&dir).build()?;
        let diff = svc.diff(8, 9)?;
        assert_eq!(diff.counters.get("ICMPv4.fabric.dropped"), Some(&60));
        assert!(!diff.degraded_added.is_empty());
        let findings = svc.findings(&DetectorConfig::standard(7))?;
        assert!(findings
            .iter()
            .any(|f| f.detector == "attributed-loss" && f.day == 9));
        // A clean archive yields zero findings.
        let clean: Vec<(u32, u64)> = (0..10).map(|d| (d, 0)).collect();
        let clean_dir = seeded_dir("clean", &clean);
        let mut clean_svc = HealthService::open(&clean_dir).build()?;
        assert!(clean_svc.findings(&DetectorConfig::standard(7))?.is_empty());
        Ok(())
    }

    #[test]
    fn sidecar_version_gate_reports_parse_error() -> Result<(), AnyError> {
        let dir = tmpdir("version");
        let mut s = day_series(1, 0);
        s.version = SERIES_VERSION + 9;
        std::fs::write(dir.join(Artifact::HealthSeries.file_name(1)), s.encode())?;
        let mut svc = HealthService::open(&dir).build()?;
        match svc.series(1) {
            Err(HealthError::Parse { detail, .. }) => {
                assert!(detail.contains("unsupported series version"), "{detail}")
            }
            other => panic!("expected Parse, got {other:?}"),
        }
        Ok(())
    }
}
