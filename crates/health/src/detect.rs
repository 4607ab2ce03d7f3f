//! Seeded, pure anomaly detectors over the longitudinal series.
//!
//! Every detector is a pure function of `(&[DaySeries], &DetectorConfig)`
//! — no clocks, no RNG draws, no I/O — so the findings (and their
//! fingerprint) are bit-identical across reruns and shard counts. The
//! `seed` in the config does not randomize anything at detection time;
//! it names the configuration generation and is folded into
//! [`findings_fingerprint`] so two operators comparing finding sets can
//! tell config drift from data drift.
//!
//! Detectors:
//!
//! * **attributed-loss** — any day whose attributed-loss map is
//!   non-empty (fabric drops, seal rejections, lost GCD chunks, shard
//!   failures, aborts) above a configurable permille floor. Ambient
//!   `unanswered` never fires this: an unresponsive target is the
//!   internet's doing.
//! * **loss-spike** — robust z-score (median/MAD over a trailing
//!   window) on the attributed-loss permille.
//! * **throughput-regression** — simulated-clock probing throughput
//!   below a tolerance band under the trailing-window median.
//! * **degraded-streak** — `streak` consecutive degraded days.
//! * **site-churn** — day-over-day site-count movement, discriminated
//!   into *catchment-rebalance* (sites moved, anycast target count
//!   stable — the deployment changed, cf. the CDN load-management
//!   literature) vs *site-churn* (both moved — the measurement is
//!   suspect).

use laces_obs::{Degraded, DegradedReason, Fnv, RunReport};
use serde::{Deserialize, Serialize};

use crate::series::DaySeries;

/// Finding severity, ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Expected-change signal (e.g. a deliberate catchment rebalance).
    Info,
    /// The system degraded; the day is usable with care.
    Warning,
    /// The day's data should not be trusted without investigation.
    Critical,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        })
    }
}

/// A typed detector verdict about one census day.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthFinding {
    /// The day the finding is about.
    pub day: u32,
    /// Detector id (`"attributed-loss"`, `"loss-spike"`, ...).
    pub detector: String,
    /// How bad.
    pub severity: Severity,
    /// The metric the detector judged (`"loss.fabric.dropped"`,
    /// `"throughput_per_sim_s"`, `"sites_enumerated"`, ...).
    pub metric: String,
    /// The day's value of that metric.
    pub value: u64,
    /// The reference the value was judged against (baseline median,
    /// floor, previous day — detector-specific).
    pub baseline: u64,
    /// The attributed loss cause, when the finding is about loss.
    pub cause: Option<String>,
    /// The `laces-trace` scope prefix to drill into
    /// (`TraceReport::events_for(prefix)`), when one is attributable.
    pub trace_prefix: Option<String>,
    /// Human-readable one-line diagnosis.
    pub detail: String,
}

impl HealthFinding {
    /// The operator-facing explanation: severity, day, diagnosis, the
    /// attributed cause by name, and the `laces-trace` prefix to pull
    /// per-probe evidence from.
    pub fn explain(&self) -> String {
        let mut s = format!(
            "[{}] day {} {}: {}",
            self.severity, self.day, self.detector, self.detail
        );
        if let Some(cause) = &self.cause {
            s.push_str(&format!("; attributed cause: {cause}"));
        }
        if let Some(prefix) = &self.trace_prefix {
            s.push_str(&format!(
                "; inspect laces-trace prefix `{prefix}` (TraceReport::events_for)"
            ));
        }
        s
    }

    /// The finding as a degradation event, ready for
    /// [`RunReport::add_degraded`] — this is how findings feed
    /// [`laces_obs::Degraded::degraded_reasons`].
    pub fn degraded_reason(&self) -> DegradedReason {
        DegradedReason::Stage {
            stage: format!("health.{}", self.detector),
            detail: self.explain(),
        }
    }
}

/// Record every finding of [`Severity::Warning`] or above as a
/// degradation event on `report`.
pub fn apply_findings(report: &mut RunReport, findings: &[HealthFinding]) {
    for finding in findings {
        if finding.severity >= Severity::Warning {
            report.add_degraded(finding.degraded_reason());
        }
    }
}

/// Detector thresholds. All integer math (permille / milli units) so
/// detection is exact and platform-independent.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Configuration-generation seed, folded into the findings
    /// fingerprint (it does not randomize detection).
    pub seed: u64,
    /// Minimum attributed-loss permille for `attributed-loss` to fire;
    /// 0 means any non-zero attributed loss fires.
    pub loss_floor_permille: u64,
    /// Attributed-loss permille at which `attributed-loss` escalates to
    /// [`Severity::Critical`].
    pub loss_critical_permille: u64,
    /// Robust z-score threshold for `loss-spike`, in milli units
    /// (3500 = 3.5 sigma-equivalents).
    pub z_threshold_milli: u64,
    /// Trailing-window length for `loss-spike` and
    /// `throughput-regression`.
    pub window: usize,
    /// `throughput-regression` fires when throughput falls below
    /// `(1000 - tolerance) / 1000` of the trailing median.
    pub regression_tolerance_permille: u64,
    /// Consecutive degraded days for `degraded-streak`.
    pub streak: usize,
    /// Day-over-day site-count movement (permille of the previous day)
    /// for `site-churn` to engage.
    pub churn_permille: u64,
    /// Anycast-target-count movement at or below this permille counts
    /// as "stable" in the churn-vs-rebalance discrimination.
    pub stable_permille: u64,
}

impl DetectorConfig {
    /// The standard detector suite for `seed`.
    pub fn standard(seed: u64) -> Self {
        DetectorConfig {
            seed,
            loss_floor_permille: 0,
            loss_critical_permille: 100,
            z_threshold_milli: 3_500,
            window: 7,
            regression_tolerance_permille: 200,
            streak: 3,
            churn_permille: 300,
            stable_permille: 50,
        }
    }
}

/// Lower-median of a slice (deterministic; no float averaging).
fn median(values: &mut [u64]) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    values[(values.len() - 1) / 2]
}

/// Median absolute deviation around `med`.
fn mad(values: &[u64], med: u64) -> u64 {
    let mut devs: Vec<u64> = values.iter().map(|v| v.abs_diff(med)).collect();
    median(&mut devs)
}

/// The dominant cause in a day's loss map (largest value; ties break to
/// the lexicographically first name) and the stage prefix contributing
/// most to it, recovered from the loss detail.
fn dominant_cause(day: &DaySeries) -> Option<(String, u64, Option<String>)> {
    let (cause, total) = day
        .loss_by_cause
        .iter()
        .max_by(|(ka, va), (kb, vb)| va.cmp(vb).then(kb.cmp(ka)))?;
    let prefix = day
        .loss_detail
        .iter()
        .filter(|(key, _)| key.as_str() != cause && crate::series::names_cause(key, cause))
        .max_by(|(ka, va), (kb, vb)| va.cmp(vb).then(kb.cmp(ka)))
        .map(|(key, _)| key[..key.len() - cause.len() - 1].to_string());
    Some((cause.clone(), *total, prefix))
}

fn detect_attributed_loss(
    series: &[DaySeries],
    cfg: &DetectorConfig,
    out: &mut Vec<HealthFinding>,
) {
    for day in series {
        let total = day.attributed_loss();
        if total == 0 {
            continue;
        }
        let permille = day.loss_permille();
        if permille < cfg.loss_floor_permille {
            continue;
        }
        // laces-lint: allow(panic-path) — total > 0 implies the loss map is non-empty
        let (cause, cause_total, prefix) = dominant_cause(day).expect("non-empty loss map");
        let severity = if permille >= cfg.loss_critical_permille {
            Severity::Critical
        } else {
            Severity::Warning
        };
        out.push(HealthFinding {
            day: day.day,
            detector: "attributed-loss".to_string(),
            severity,
            metric: format!("loss.{cause}"),
            value: cause_total,
            baseline: cfg.loss_floor_permille,
            cause: Some(cause),
            trace_prefix: prefix,
            detail: format!(
                "{total} of {} probes ({permille}\u{2030}) lost to attributed causes",
                day.probes_sent
            ),
        });
    }
}

fn detect_loss_spike(series: &[DaySeries], cfg: &DetectorConfig, out: &mut Vec<HealthFinding>) {
    if cfg.window == 0 {
        return;
    }
    for i in cfg.window..series.len() {
        let day = &series[i];
        let x = day.loss_permille();
        let mut trailing: Vec<u64> = series[i - cfg.window..i]
            .iter()
            .map(DaySeries::loss_permille)
            .collect();
        let med = median(&mut trailing);
        if x <= med {
            continue;
        }
        let spread = mad(&trailing, med).max(1);
        let z_milli = (x - med).saturating_mul(1000) / spread;
        if z_milli >= cfg.z_threshold_milli {
            let (cause, _, prefix) = dominant_cause(day)
                .map(|(c, t, p)| (Some(c), t, p))
                .unwrap_or((None, 0, None));
            out.push(HealthFinding {
                day: day.day,
                detector: "loss-spike".to_string(),
                severity: Severity::Warning,
                metric: "loss_permille".to_string(),
                value: x,
                baseline: med,
                cause,
                trace_prefix: prefix,
                detail: format!(
                    "attributed loss {x}\u{2030} vs trailing {}-day median {med}\u{2030} (robust z \u{00d7}1000 = {z_milli})",
                    cfg.window
                ),
            });
        }
    }
}

fn detect_throughput_regression(
    series: &[DaySeries],
    cfg: &DetectorConfig,
    out: &mut Vec<HealthFinding>,
) {
    if cfg.window == 0 {
        return;
    }
    for i in cfg.window..series.len() {
        let day = &series[i];
        let x = day.throughput_per_sim_s();
        let mut trailing: Vec<u64> = series[i - cfg.window..i]
            .iter()
            .map(DaySeries::throughput_per_sim_s)
            .collect();
        let med = median(&mut trailing);
        if med == 0 {
            continue;
        }
        // Fires when x < med * (1000 - tolerance) / 1000, in u128 to
        // dodge overflow on large rates.
        let lhs = u128::from(x) * 1000;
        let rhs =
            u128::from(med) * u128::from(1000u64.saturating_sub(cfg.regression_tolerance_permille));
        if lhs < rhs {
            out.push(HealthFinding {
                day: day.day,
                detector: "throughput-regression".to_string(),
                severity: Severity::Warning,
                metric: "throughput_per_sim_s".to_string(),
                value: x,
                baseline: med,
                cause: None,
                trace_prefix: None,
                detail: format!(
                    "throughput {x}/sim-s fell below {}\u{2030} of the trailing {}-day median {med}/sim-s",
                    1000 - cfg.regression_tolerance_permille,
                    cfg.window
                ),
            });
        }
    }
}

fn detect_degraded_streak(
    series: &[DaySeries],
    cfg: &DetectorConfig,
    out: &mut Vec<HealthFinding>,
) {
    if cfg.streak == 0 {
        return;
    }
    let mut run = 0usize;
    for day in series {
        if day.is_degraded() {
            run += 1;
            if run == cfg.streak {
                out.push(HealthFinding {
                    day: day.day,
                    detector: "degraded-streak".to_string(),
                    severity: Severity::Warning,
                    metric: "degraded_days".to_string(),
                    value: run as u64,
                    baseline: cfg.streak as u64,
                    cause: day.degraded_reasons().first().map(|r| r.to_string()),
                    trace_prefix: None,
                    detail: format!("{run} consecutive degraded days"),
                });
            }
        } else {
            run = 0;
        }
    }
}

fn detect_site_churn(series: &[DaySeries], cfg: &DetectorConfig, out: &mut Vec<HealthFinding>) {
    for pair in series.windows(2) {
        let (prev, day) = (&pair[0], &pair[1]);
        if prev.sites_enumerated == 0 {
            continue;
        }
        let site_delta = day.sites_enumerated.abs_diff(prev.sites_enumerated);
        let site_permille = site_delta.saturating_mul(1000) / prev.sites_enumerated;
        if site_permille < cfg.churn_permille {
            continue;
        }
        let at_delta = day.anycast_confirmed.abs_diff(prev.anycast_confirmed);
        let at_permille = at_delta.saturating_mul(1000) / prev.anycast_confirmed.max(1);
        if at_permille <= cfg.stable_permille {
            out.push(HealthFinding {
                day: day.day,
                detector: "site-churn".to_string(),
                severity: Severity::Info,
                metric: "sites_enumerated".to_string(),
                value: day.sites_enumerated,
                baseline: prev.sites_enumerated,
                cause: None,
                trace_prefix: None,
                detail: format!(
                    "site count moved {site_permille}\u{2030} while anycast target count held ({at_permille}\u{2030}) \u{2014} consistent with a deliberate catchment rebalance, not measurement decay"
                ),
            });
        } else {
            out.push(HealthFinding {
                day: day.day,
                detector: "site-churn".to_string(),
                severity: Severity::Warning,
                metric: "sites_enumerated".to_string(),
                value: day.sites_enumerated,
                baseline: prev.sites_enumerated,
                cause: None,
                trace_prefix: None,
                detail: format!(
                    "site count moved {site_permille}\u{2030} and anycast target count moved {at_permille}\u{2030} \u{2014} measurement-side churn suspected"
                ),
            });
        }
    }
}

/// Run the full detector suite over `series` (must be sorted by day —
/// `laces_census::health::HealthService` guarantees this). Findings come
/// back sorted by `(day, detector, metric)` and deduplicated.
pub fn run_all(series: &[DaySeries], cfg: &DetectorConfig) -> Vec<HealthFinding> {
    let mut out = Vec::new();
    detect_attributed_loss(series, cfg, &mut out);
    detect_loss_spike(series, cfg, &mut out);
    detect_throughput_regression(series, cfg, &mut out);
    detect_degraded_streak(series, cfg, &mut out);
    detect_site_churn(series, cfg, &mut out);
    out.sort_by(|a, b| (a.day, &a.detector, &a.metric).cmp(&(b.day, &b.detector, &b.metric)));
    out.dedup();
    out
}

/// FNV-1a over every finding's explanation plus the config seed: the
/// determinism fingerprint tests assert on. Two runs with
/// the same series and config produce the same fingerprint; a config
/// change moves it even when the finding set happens to match.
pub fn findings_fingerprint(findings: &[HealthFinding], cfg: &DetectorConfig) -> u64 {
    let mut h = Fnv::new();
    h.update(&cfg.seed.to_le_bytes());
    for f in findings {
        h.update(f.explain().as_bytes());
        h.update(&[0]);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::SERIES_VERSION;

    fn clean_day(day: u32) -> DaySeries {
        DaySeries {
            version: SERIES_VERSION,
            day,
            probes_sent: 10_000,
            replies: 9_000,
            unanswered: 1_000,
            day_sim_ms: 100_000,
            sites_enumerated: 40,
            anycast_confirmed: 100,
            published: 100,
            ..DaySeries::default()
        }
    }

    fn faulted_day(day: u32) -> DaySeries {
        let mut d = clean_day(day);
        d.loss_by_cause = [
            ("fabric.dropped".to_string(), 500u64),
            ("gcd.targets_lost".to_string(), 20u64),
        ]
        .into();
        d.loss_detail = [
            ("ICMPv4.fabric.dropped".to_string(), 450u64),
            ("TCPv4.fabric.dropped".to_string(), 50u64),
            ("gcd.targets_lost".to_string(), 20u64),
        ]
        .into();
        d.degraded = vec![laces_obs::DegradedReason::WorkerCrashed { worker: 2 }];
        d
    }

    #[test]
    fn clean_history_yields_zero_findings() {
        let series: Vec<DaySeries> = (0..14).map(clean_day).collect();
        let cfg = DetectorConfig::standard(7);
        assert!(run_all(&series, &cfg).is_empty());
    }

    #[test]
    fn faulted_day_names_cause_and_trace_prefix() {
        let mut series: Vec<DaySeries> = (0..9).map(clean_day).collect();
        series.push(faulted_day(9));
        let cfg = DetectorConfig::standard(7);
        let findings = run_all(&series, &cfg);
        assert!(!findings.is_empty());
        let loss = findings
            .iter()
            .find(|f| f.detector == "attributed-loss")
            .expect("attributed-loss fires");
        assert_eq!(loss.day, 9);
        assert_eq!(loss.cause.as_deref(), Some("fabric.dropped"));
        assert_eq!(loss.trace_prefix.as_deref(), Some("ICMPv4"));
        let explanation = loss.explain();
        assert!(explanation.contains("fabric.dropped"), "{explanation}");
        assert!(explanation.contains("laces-trace"), "{explanation}");
        // 520 lost of 10_000 = 52 permille -> Warning, not Critical.
        assert_eq!(loss.severity, Severity::Warning);
        // The spike detector also sees the jump over a flat history.
        assert!(findings.iter().any(|f| f.detector == "loss-spike"));
    }

    #[test]
    fn loss_escalates_to_critical_over_the_floor() {
        let mut d = faulted_day(0);
        d.loss_by_cause.insert("fabric.dropped".to_string(), 2_000);
        let cfg = DetectorConfig::standard(7);
        let findings = run_all(&[d], &cfg);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].severity, Severity::Critical);
    }

    #[test]
    fn throughput_regression_fires_below_tolerance() {
        let mut series: Vec<DaySeries> = (0..8).map(clean_day).collect();
        // Day 8: same probes over 2x the simulated time = half throughput.
        let mut slow = clean_day(8);
        slow.day_sim_ms = 200_000;
        series.push(slow);
        let cfg = DetectorConfig::standard(7);
        let findings = run_all(&series, &cfg);
        let reg = findings
            .iter()
            .find(|f| f.detector == "throughput-regression")
            .expect("regression fires");
        assert_eq!(reg.day, 8);
        assert_eq!(reg.value, 50);
        assert_eq!(reg.baseline, 100);
    }

    #[test]
    fn degraded_streak_fires_once_at_threshold() {
        let mut series: Vec<DaySeries> = Vec::new();
        for day in 0..6 {
            let mut d = clean_day(day);
            if day >= 2 {
                d.degraded = vec![laces_obs::DegradedReason::Aborted];
            }
            series.push(d);
        }
        let cfg = DetectorConfig::standard(7);
        let findings = run_all(&series, &cfg);
        let streaks: Vec<&HealthFinding> = findings
            .iter()
            .filter(|f| f.detector == "degraded-streak")
            .collect();
        assert_eq!(streaks.len(), 1, "{streaks:?}");
        assert_eq!(streaks[0].day, 4, "fires on the day completing the streak");
        assert_eq!(streaks[0].value, 3);
    }

    #[test]
    fn site_churn_discriminates_rebalance_from_decay() {
        let mut series: Vec<DaySeries> = vec![clean_day(0)];
        // Day 1: sites collapse 40 -> 20 but anycast count holds.
        let mut rebalance = clean_day(1);
        rebalance.sites_enumerated = 20;
        series.push(rebalance);
        // Day 2: sites jump back AND anycast count collapses too.
        let mut decay = clean_day(2);
        decay.sites_enumerated = 40;
        decay.anycast_confirmed = 10;
        series.push(decay);
        let cfg = DetectorConfig::standard(7);
        let findings = run_all(&series, &cfg);
        let churn: Vec<&HealthFinding> = findings
            .iter()
            .filter(|f| f.detector == "site-churn")
            .collect();
        assert_eq!(churn.len(), 2, "{churn:?}");
        assert_eq!(churn[0].severity, Severity::Info, "rebalance is info");
        assert!(churn[0].detail.contains("catchment rebalance"));
        assert_eq!(churn[1].severity, Severity::Warning, "decay is warning");
    }

    #[test]
    fn findings_feed_degraded_reasons() {
        let cfg = DetectorConfig::standard(7);
        let findings = run_all(&[faulted_day(3)], &cfg);
        let mut report = RunReport::new();
        apply_findings(&mut report, &findings);
        assert!(report.is_degraded());
        let reason = &report.degraded_reasons()[0];
        match reason {
            DegradedReason::Stage { stage, detail } => {
                assert_eq!(stage, "health.attributed-loss");
                assert!(detail.contains("fabric.dropped"), "{detail}");
            }
            other => panic!("unexpected reason {other:?}"),
        }
    }

    #[test]
    fn detection_and_fingerprint_are_deterministic() {
        let mut series: Vec<DaySeries> = (0..9).map(clean_day).collect();
        series.push(faulted_day(9));
        let cfg = DetectorConfig::standard(7);
        let a = run_all(&series, &cfg);
        let b = run_all(&series, &cfg);
        assert_eq!(a, b);
        assert_eq!(
            findings_fingerprint(&a, &cfg),
            findings_fingerprint(&b, &cfg)
        );
        // A different seed moves the fingerprint even on equal findings.
        let cfg2 = DetectorConfig {
            seed: 8,
            ..DetectorConfig::standard(7)
        };
        assert_ne!(
            findings_fingerprint(&a, &cfg),
            findings_fingerprint(&a, &cfg2)
        );
        // Serde round-trip for the finding type.
        let text = serde_json::to_string(&a).expect("findings serialise");
        let back: Vec<HealthFinding> = serde_json::from_str(&text).expect("findings parse");
        assert_eq!(back, a);
    }
}
