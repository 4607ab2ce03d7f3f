//! Longitudinal census health monitoring.
//!
//! A daily census is only trustworthy if operators can see, day over
//! day, whether the *system* (not the internet) changed: probe-loss
//! spikes, throughput regressions, degraded-day streaks, site-count
//! collapses. Per-run telemetry ([`laces_obs::RunReport`]) and per-probe
//! tracing ([`laces_trace::TraceReport`]) exist, but neither aggregates
//! across runs nor watches a run in flight. This crate is that layer,
//! and it does no file I/O: the census store writes the series, and
//! `laces_census::health::HealthService` reads them back through the
//! store's archive.
//!
//! * [`series`] — the compact, versioned per-day [`DaySeries`] health
//!   point, derived at publish time from the day's telemetry, trace
//!   `dropped` maps and census stats, and written by `CensusStore::save`
//!   as a `census-day-NNNNN.health.series` sidecar;
//! * [`detect`] — seeded, pure anomaly detectors over the series
//!   (robust z-score loss spike, throughput regression vs a
//!   trailing-window median, degraded-streak, site-churn vs
//!   catchment-rebalance discriminator) emitting typed
//!   [`HealthFinding`]s whose [`HealthFinding::explain`] links into
//!   `laces-trace` prefixes and whose
//!   [`HealthFinding::degraded_reason`] feeds
//!   [`laces_obs::Degraded::degraded_reasons`];
//! * [`monitor`] — [`Monitor`], a deterministic live-run progress
//!   handle snapshotting the *schedule* (progress, probes/s, ETA,
//!   in-flight fault counts) on simulated-clock ticks;
//! * [`prometheus`] — a Prometheus text-format exporter (and parser,
//!   for round-trip tests) over both day summaries and monitor
//!   snapshots, plus JSONL via [`MonitorLog::to_jsonl`].
//!
//! # Determinism contract
//!
//! Everything this crate serializes is a pure function of the run's
//! inputs (world seed, spec, fault plan): the sidecar bytes, the
//! findings, and the Prometheus exports are bit-identical across reruns
//! and across shard counts. The single exception is
//! [`MonitorLog::worker_skew`] — per-worker layout diagnostics that,
//! like `MeasurementOutcome::shard_report`, are rerun-deterministic at a
//! fixed configuration but excluded from the cross-shard-count
//! invariance contract (and therefore never rendered into the
//! Prometheus export).

#![forbid(unsafe_code)]

pub mod detect;
pub mod monitor;
pub mod prometheus;
pub mod series;

pub use detect::{DetectorConfig, HealthFinding, Severity};
pub use monitor::{Monitor, MonitorConfig, MonitorLog, MonitorSummary, TickSnapshot, WorkerSkew};
pub use series::{DaySeries, SeriesInput, SERIES_VERSION};
