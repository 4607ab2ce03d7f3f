//! Deterministic operational telemetry for the LACeS census path.
//!
//! Real measurement platforms live on their own operational metrics (cf.
//! RIPE Atlas's platform telemetry, per-site volume accounting in CDN
//! studies); this crate is the reproduction's equivalent. It provides:
//!
//! * [`Counter`] — a lock-free monotonic counter (atomic; sums are
//!   order-independent, so concurrent increments stay deterministic);
//! * [`Histogram`] — a fixed-bucket histogram whose snapshot depends only
//!   on the multiset of observations, never on their arrival order;
//! * [`SimClock`] / [`StageTimer`] — hierarchical stage timing driven by a
//!   *simulated* clock, the same discipline as `FaultPlan`: reruns of the
//!   same schedule produce bit-identical timings;
//! * [`RunReport`] — the serializable snapshot every measurement surface
//!   (`MeasurementOutcome`, `GcdReport`, `CensusStats`) carries, with a
//!   JSONL encoding for publication alongside the census store;
//! * [`Degraded`] / [`DegradedReason`] — the unified degraded surface: not
//!   a bare bool but the list of telemetry events that degraded the run;
//! * [`fnv1a`] / [`Fnv`] — the workspace's one fingerprint hash.
//!
//! # Determinism rules
//!
//! Everything serialized in a [`RunReport`] must be a pure function of the
//! run's inputs (world seed, spec, fault plan):
//!
//! 1. counters only ever *sum* contributions, so thread interleaving
//!    cannot change a final value;
//! 2. histograms bucket values; bucket counts are order-independent;
//! 3. stage durations come from [`SimClock`], never from the wall clock —
//!    wall-clock numbers belong in the census benchmark (`censusbench/`),
//!    not in a `RunReport`;
//! 4. maps are `BTreeMap`s, so serialization order is the key order.
//!
//! Under these rules `serde_json::to_string(&report)` is bit-identical
//! across reruns of any abort-free plan — and that property is tested in
//! `crates/core/tests/fault_matrix.rs`.

#![forbid(unsafe_code)]

pub mod degraded;
pub mod fnv;
pub mod metrics;
pub mod names;
pub mod report;
pub mod stage;

pub use degraded::{Degraded, DegradedReason};
pub use fnv::{fnv1a, Fnv};
pub use metrics::{Counter, Histogram, HistogramSnapshot};
pub use report::{GaugeMerge, ReportDiff, RunReport};
pub use stage::{ShardStages, SimClock, StageReport, StageTimer};
