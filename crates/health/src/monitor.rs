//! The deterministic live-run monitor.
//!
//! A real operator watches a census day as it runs: how far along, how
//! fast, when it will finish, which workers have died. In this
//! reproduction runs execute on a simulated clock, so the monitor does
//! not poll threads — it evaluates the *dispatch schedule*, which is a
//! closed form of the spec: worker `w` sends target `i` at
//! `w * offset_ms + window_start_ms(i, rate_per_s)` (see
//! `laces_core::rate`). Every tick is therefore a pure function of
//! `(spec, n_workers, fault plan)`: bit-identical across reruns *and*
//! across shard counts, because sharding repartitions work without
//! changing the schedule.
//!
//! The one shard-shaped section is [`MonitorLog::worker_skew`], derived
//! from the outcome's per-worker health. Like
//! `MeasurementOutcome::shard_report` it is rerun-deterministic at a
//! fixed configuration but excluded from the cross-shard-count
//! invariance contract, and the Prometheus exporter never renders it.
//!
//! Disabled monitoring ([`MonitorConfig::disabled`]) costs one branch:
//! no ticks are planned and the log is empty.

use laces_core::rate::window_start_ms;
use laces_core::{MeasurementError, MeasurementOutcome, MeasurementSpec};
use serde::{Serialize, Value};

/// Monitor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorConfig {
    /// Master switch; when false no ticks are planned.
    pub enabled: bool,
    /// Simulated-clock interval between snapshots.
    pub tick_interval_ms: u64,
}

impl MonitorConfig {
    /// No monitoring: one branch, empty log.
    pub fn disabled() -> Self {
        MonitorConfig {
            enabled: false,
            tick_interval_ms: 0,
        }
    }

    /// Snapshot every `interval_ms` simulated milliseconds (min 1).
    pub fn every_ms(interval_ms: u64) -> Self {
        MonitorConfig {
            enabled: true,
            tick_interval_ms: interval_ms.max(1),
        }
    }
}

/// One deterministic snapshot of run progress at simulated time `t_ms`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TickSnapshot {
    /// Simulated time of the snapshot.
    pub t_ms: u64,
    /// Scheduled progress in permille (1000 = every probe dispatched).
    pub progress_permille: u64,
    /// Probes the schedule has dispatched by `t_ms`.
    pub probes_scheduled: u64,
    /// Cumulative scheduled rate, probes per simulated second.
    pub probes_per_s: u64,
    /// Simulated milliseconds until the last scheduled dispatch.
    pub eta_ms: u64,
    /// Workers the fault plan has crashed by `t_ms` (in-flight fault
    /// count, derived from each crash's order index on the schedule).
    pub workers_crashed: u64,
}

/// Per-worker layout diagnostics (see module docs: excluded from the
/// cross-shard-count invariance contract).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct WorkerSkew {
    /// Worker id.
    pub worker: u16,
    /// Probes this worker transmitted.
    pub probes_sent: u64,
    /// Deviation from the mean per-worker volume, permille (negative =
    /// under-delivered).
    pub skew_permille: i64,
}

/// Outcome-level roll-up appended after the run completes.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct MonitorSummary {
    /// Probes actually transmitted.
    pub probes_sent: u64,
    /// Records collected.
    pub records: u64,
    /// Workers that failed.
    pub failed_workers: u64,
    /// Degradation events on the run's telemetry.
    pub degraded_events: u64,
    /// Actual completion in permille of the scheduled probe budget.
    pub progress_permille: u64,
}

/// The monitor's full output for one run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct MonitorLog {
    /// Whether monitoring was enabled.
    pub enabled: bool,
    /// The spec's measurement id.
    pub spec_id: u32,
    /// Tick interval used (0 when disabled).
    pub tick_interval_ms: u64,
    /// Simulated time of the last scheduled dispatch.
    pub span_ms: u64,
    /// Scheduled probe budget.
    pub total_probes: u64,
    /// The deterministic progress snapshots (empty when disabled).
    pub ticks: Vec<TickSnapshot>,
    /// Outcome roll-up.
    pub summary: MonitorSummary,
    /// Per-worker layout diagnostics (shard-shaped; never exported to
    /// Prometheus).
    pub worker_skew: Vec<WorkerSkew>,
}

/// Number of targets whose dispatch window opens at or before `rel_ms`
/// — exact, by binary search over the (monotone) window schedule.
fn dispatched_by(rel_ms: u64, n_targets: usize, rate_per_s: u32) -> u64 {
    let (mut lo, mut hi) = (0usize, n_targets);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if window_start_ms(mid, rate_per_s) <= rel_ms {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo as u64
}

/// The schedule evaluated at `t_ms`: probes dispatched across all
/// sending workers (worker `w` starts at `w * offset_ms`). Non-senders
/// are skipped, as in [`MeasurementSpec::probe_budget`].
fn scheduled_by(spec: &MeasurementSpec, n_workers: usize, t_ms: u64) -> u64 {
    (0..n_workers)
        .filter(|&w| u16::try_from(w).is_ok_and(|w| spec.is_sender(w)))
        .map(|w| {
            let start = spec.offset_ms * w as u64;
            if t_ms < start {
                0
            } else {
                dispatched_by(t_ms - start, spec.targets.len(), spec.rate_per_s)
            }
        })
        .sum()
}

/// Simulated time each planned crash lands, on the schedule: worker `w`
/// crashing after `k` orders falls at `w * offset_ms +
/// window_start_ms(k, rate)`. Crashes scheduled past the worker's last
/// order never land. Sorted ascending.
fn crash_times(spec: &MeasurementSpec, n_workers: usize) -> Vec<u64> {
    let faults = &spec.faults;
    let mut times: Vec<u64> = (0..n_workers)
        .filter_map(|w| {
            let after = faults.crash_after(w as u16)?;
            if after >= spec.targets.len() {
                return None;
            }
            Some(spec.offset_ms * w as u64 + window_start_ms(after, spec.rate_per_s))
        })
        .collect();
    times.sort_unstable();
    times
}

/// A live-run progress handle wrapping `run_*`.
///
/// ```ignore
/// let monitor = Monitor::new(MonitorConfig::every_ms(500));
/// let (outcome, log) = monitor.run(&spec, || run_measurement(&world, &spec))?;
/// println!("{}", log.to_jsonl());
/// ```
#[derive(Debug, Clone)]
pub struct Monitor {
    cfg: MonitorConfig,
}

impl Monitor {
    /// A monitor with the given configuration.
    pub fn new(cfg: MonitorConfig) -> Self {
        Monitor { cfg }
    }

    /// A monitor that records nothing.
    pub fn disabled() -> Self {
        Monitor::new(MonitorConfig::disabled())
    }

    /// Run a measurement under this monitor: execute `run` (any of the
    /// `run_*` entry points closed over its world), then derive the tick
    /// log from the spec's schedule and the outcome's roll-up.
    pub fn run<F>(
        &self,
        spec: &MeasurementSpec,
        run: F,
    ) -> Result<(MeasurementOutcome, MonitorLog), MeasurementError>
    where
        F: FnOnce() -> Result<MeasurementOutcome, MeasurementError>,
    {
        let outcome = run()?;
        let log = self.observe(spec, &outcome);
        Ok((outcome, log))
    }

    /// Derive the monitor log for a completed run. Pure: ticks come from
    /// the schedule (spec + fault plan + worker count), the summary and
    /// skew from the outcome.
    pub fn observe(&self, spec: &MeasurementSpec, outcome: &MeasurementOutcome) -> MonitorLog {
        let n_workers = outcome.n_workers.max(1);
        let total = spec.probe_budget(n_workers);
        let span = spec.span_ms(n_workers)
            + window_start_ms(spec.targets.len().saturating_sub(1), spec.rate_per_s);
        let mut ticks = Vec::new();
        if self.cfg.enabled {
            let crashes = crash_times(spec, n_workers);
            let interval = self.cfg.tick_interval_ms.max(1);
            let mut t = 0u64;
            loop {
                let scheduled = scheduled_by(spec, n_workers, t);
                ticks.push(TickSnapshot {
                    t_ms: t,
                    progress_permille: scheduled.saturating_mul(1000) / total.max(1),
                    probes_scheduled: scheduled,
                    probes_per_s: scheduled.saturating_mul(1000).checked_div(t).unwrap_or(0),
                    eta_ms: span.saturating_sub(t),
                    workers_crashed: crashes.iter().take_while(|c| **c <= t).count() as u64,
                });
                if t >= span {
                    break;
                }
                t = (t + interval).min(span);
            }
        }
        let probes_by_worker: Vec<(u16, u64)> = outcome
            // laces-lint: allow(degraded-bypass) — reading per-worker probe layout for skew diagnostics, not degradation state (that stays behind the Degraded trait)
            .worker_health
            .iter()
            .map(|h| (h.worker, h.probes_sent))
            .collect();
        let mean = probes_by_worker
            .iter()
            .map(|(_, p)| *p)
            .sum::<u64>()
            .checked_div(probes_by_worker.len() as u64)
            .unwrap_or(0);
        let worker_skew = probes_by_worker
            .into_iter()
            .map(|(worker, probes_sent)| WorkerSkew {
                worker,
                probes_sent,
                skew_permille: probes_sent
                    .saturating_mul(1000)
                    .checked_div(mean)
                    .map_or(0, |r| r as i64 - 1000),
            })
            .collect();
        MonitorLog {
            enabled: self.cfg.enabled,
            spec_id: spec.id,
            tick_interval_ms: if self.cfg.enabled {
                self.cfg.tick_interval_ms.max(1)
            } else {
                0
            },
            span_ms: span,
            total_probes: total,
            ticks,
            summary: MonitorSummary {
                probes_sent: outcome.probes_sent,
                records: outcome.records.len() as u64,
                failed_workers: outcome.failed_workers.len() as u64,
                degraded_events: outcome.telemetry.degraded_reasons().len() as u64,
                progress_permille: outcome.probes_sent.saturating_mul(1000) / total.max(1),
            },
            worker_skew,
        }
    }
}

impl MonitorLog {
    /// Record the monitor's roll-up onto a [`laces_obs::RunReport`]
    /// under the registered `monitor.*` names.
    pub fn record(&self, report: &mut laces_obs::RunReport) {
        use laces_obs::names::monitor;
        report.inc(monitor::TICKS, self.ticks.len() as u64);
        report.set_gauge(monitor::TICK_INTERVAL_MS, self.tick_interval_ms);
        report.set_gauge(monitor::PROGRESS_PERMILLE, self.summary.progress_permille);
    }

    /// Encode as JSON Lines: one `monitor` header, one line per tick,
    /// one per worker-skew row, then the summary. Deterministic: every
    /// field is already ordered.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut push = |kind: &str, fields: Vec<(String, Value)>| {
            let mut pairs = vec![("kind".to_string(), Value::Str(kind.to_string()))];
            pairs.extend(fields);
            let line = Value::Obj(pairs);
            // laces-lint: allow(panic-path) — the line is an already-built Value tree; rendering it cannot fail
            out.push_str(&serde_json::to_string(&line).expect("monitor line serialises"));
            out.push('\n');
        };
        push(
            "monitor",
            vec![
                ("spec_id".to_string(), Value::UInt(u128::from(self.spec_id))),
                ("enabled".to_string(), Value::Bool(self.enabled)),
                (
                    "tick_interval_ms".to_string(),
                    Value::UInt(u128::from(self.tick_interval_ms)),
                ),
                ("span_ms".to_string(), Value::UInt(u128::from(self.span_ms))),
                (
                    "total_probes".to_string(),
                    Value::UInt(u128::from(self.total_probes)),
                ),
            ],
        );
        for tick in &self.ticks {
            push(
                "tick",
                vec![
                    ("t_ms".to_string(), Value::UInt(u128::from(tick.t_ms))),
                    (
                        "progress_permille".to_string(),
                        Value::UInt(u128::from(tick.progress_permille)),
                    ),
                    (
                        "probes_scheduled".to_string(),
                        Value::UInt(u128::from(tick.probes_scheduled)),
                    ),
                    (
                        "probes_per_s".to_string(),
                        Value::UInt(u128::from(tick.probes_per_s)),
                    ),
                    ("eta_ms".to_string(), Value::UInt(u128::from(tick.eta_ms))),
                    (
                        "workers_crashed".to_string(),
                        Value::UInt(u128::from(tick.workers_crashed)),
                    ),
                ],
            );
        }
        for skew in &self.worker_skew {
            push(
                "skew",
                vec![
                    ("worker".to_string(), Value::UInt(u128::from(skew.worker))),
                    (
                        "probes_sent".to_string(),
                        Value::UInt(u128::from(skew.probes_sent)),
                    ),
                    ("skew_permille".to_string(), Value::Int(skew.skew_permille)),
                ],
            );
        }
        push(
            "summary",
            vec![
                (
                    "probes_sent".to_string(),
                    Value::UInt(u128::from(self.summary.probes_sent)),
                ),
                (
                    "records".to_string(),
                    Value::UInt(u128::from(self.summary.records)),
                ),
                (
                    "failed_workers".to_string(),
                    Value::UInt(u128::from(self.summary.failed_workers)),
                ),
                (
                    "degraded_events".to_string(),
                    Value::UInt(u128::from(self.summary.degraded_events)),
                ),
                (
                    "progress_permille".to_string(),
                    Value::UInt(u128::from(self.summary.progress_permille)),
                ),
            ],
        );
        out
    }

    /// The shard-count-invariant projection of this log: everything
    /// except [`MonitorLog::worker_skew`], as the JSONL bytes. This is
    /// the surface the byte-identity tests compare across shard counts.
    pub fn invariant_jsonl(&self) -> String {
        let mut stripped = self.clone();
        stripped.worker_skew.clear();
        stripped.to_jsonl()
    }
}
