//! Longitudinal health monitoring: `laces-health` (the `health.series`
//! codec, seeded detectors, live-run [`Monitor`], exporters) plus
//! [`HealthService`], the read view over a store's series sidecars.

pub use laces_health::*;

pub use crate::service::{HealthError, HealthService, HealthServiceBuilder, DEFAULT_CACHE_BUDGET};
