//! The LACeS measurement tool, rebuilt from the paper's design (§4).
//!
//! Three components cooperate to run a measurement:
//!
//! * the **CLI** ([`cli`]) turns a command line into a [`MeasurementSpec`]
//!   and sinks the result stream;
//! * the **Orchestrator** ([`orchestrator`]) seals start orders, streams
//!   the hitlist to the workers at the configured rate, and aggregates
//!   results, surviving worker failures;
//! * the **Workers** ([`worker`]) probe and capture at each anycast site,
//!   validating every captured reply against the probe metadata echoed by
//!   the target and streaming records back immediately.
//!
//! Classification ([`classify`]) turns an aggregated outcome into the
//! anycast-based verdict per prefix (unicast / anycast / unresponsive plus
//! the receiving-VP count, the methodology's confidence signal). The
//! census classifies at capture instead ([`run_classified`]), with the
//! same result and no per-reply records.
//!
//! # Example: a synchronized ICMP measurement
//!
//! ```
//! use std::sync::Arc;
//! use laces_core::{classify::AnycastClassification, orchestrator, spec::MeasurementSpec};
//! use laces_netsim::{World, WorldConfig};
//! use laces_packet::{PrefixKey, Protocol};
//!
//! let world = Arc::new(World::generate(WorldConfig::tiny()));
//! // Probe the first 100 IPv4 targets' representative addresses.
//! let targets: Vec<std::net::IpAddr> = world.targets[..100]
//!     .iter()
//!     .filter_map(|t| match t.prefix {
//!         PrefixKey::V4(p) => Some(std::net::IpAddr::V4(p.addr(77))),
//!         _ => None,
//!     })
//!     .collect();
//! let spec = MeasurementSpec::census(
//!     1,
//!     world.std_platforms.production,
//!     Protocol::Icmp,
//!     Arc::new(targets),
//!     0,
//! );
//! let outcome = orchestrator::run_measurement(&world, &spec).expect("anycast platform");
//! let class = AnycastClassification::from_outcome(&outcome);
//! println!("{} anycast candidates", class.anycast_targets().len());
//! ```

#![forbid(unsafe_code)]

pub mod auth;
pub mod catchment;
pub mod classify;
pub mod cli;
pub mod error;
pub mod fault;
pub mod orchestrator;
pub mod rate;
pub mod results;
pub mod spec;
pub mod worker;

pub use catchment::{shift, CatchmentMap, CatchmentShift};
pub use classify::{AnycastClassification, Class};
pub use error::MeasurementError;
pub use fault::{FaultPlan, OrderChannelFault, WorkerCrash};
pub use laces_obs::{Degraded, DegradedReason, RunReport};
pub use orchestrator::{
    run_classified, run_measurement, run_measurement_abortable, run_with_precheck, AbortHandle,
    PRECHECK_ID_BIT,
};
pub use results::{
    ClassifiedOutcome, MeasurementOutcome, ProbeRecord, WorkerHealth, WorkerStatus, WorkerTelemetry,
};
pub use spec::{MeasurementSpec, MeasurementSpecBuilder};
