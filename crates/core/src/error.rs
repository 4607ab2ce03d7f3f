//! Typed errors for the measurement API.
//!
//! PR 1's entry points panicked on misuse (`assert!(platform.is_anycast())`)
//! — acceptable for a prototype, wrong for a library the census pipeline
//! and external callers build on. Every `run_*` entry point now returns
//! `Result<_, MeasurementError>`, and
//! [`MeasurementSpec::builder`](crate::spec::MeasurementSpec::builder)
//! surfaces the same variants at construction time, before any thread is
//! spawned.

use laces_netsim::PlatformId;

/// Why a measurement could not run (or a spec could not be built). These
/// are *caller* errors: the measurement path itself degrades gracefully
/// (R5) rather than erroring.
#[derive(Debug, Clone, PartialEq)]
pub enum MeasurementError {
    /// The spec's platform is a unicast VP platform; measurements probe
    /// from an anycast platform (unicast platforms belong to GCD).
    NotAnycast {
        /// The offending platform.
        platform: PlatformId,
    },
    /// The platform handed to a GCD campaign is an anycast platform; GCD
    /// probes from geographically dispersed *unicast* vantage points (the
    /// mirror image of [`NotAnycast`](MeasurementError::NotAnycast)).
    NotUnicast {
        /// The offending platform.
        platform: PlatformId,
    },
    /// The platform handed to a GCD campaign has more vantage points than
    /// the probe wire format can attribute: the witnessing VP travels as a
    /// u16 worker id, so indices above `u16::MAX` would silently alias
    /// distinct VPs in records and traces. Rejected up front instead.
    PlatformTooLarge {
        /// The offending platform.
        platform: PlatformId,
        /// Its vantage-point count.
        n_vps: usize,
    },
    /// The platform's worker count cannot be attributed by the probe
    /// encodings (valid range: 1..=64).
    WorkerCount {
        /// The offending worker count.
        n_workers: usize,
    },
    /// The measurement id lies in the id space reserved for precheck
    /// passes ([`PRECHECK_ID_BIT`](crate::orchestrator::PRECHECK_ID_BIT)
    /// set): its derived precheck id would collide with another
    /// measurement's, and two measurements sharing an id would accept each
    /// other's replies.
    ReservedId {
        /// The offending measurement id.
        id: u32,
    },
    /// A sender restriction names a worker the platform does not have.
    SenderOutOfRange {
        /// The out-of-range worker.
        worker: u16,
        /// The platform's worker count.
        n_workers: usize,
    },
    /// The fault plan is internally inconsistent (a rate outside [0, 1], a
    /// fault scheduled on a worker the platform does not have).
    InvalidFaultPlan {
        /// What is wrong with the plan.
        detail: String,
    },
    /// The spec's probe rate is zero: a zero rate admits no schedule
    /// window, so no target could ever be dispatched. Historically this
    /// was silently clamped to 1 probe/s inside the schedule — a 10 000×
    /// slowdown the caller never asked for — and is now rejected here.
    InvalidRate,
    /// The spec's shard count is zero: the hitlist stream is partitioned
    /// across `shards` contiguous slices, and zero slices cover nothing.
    InvalidShardCount,
}

impl std::fmt::Display for MeasurementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeasurementError::NotAnycast { platform } => {
                write!(
                    f,
                    "platform {platform:?} is not an anycast platform; measurements \
                     probe from anycast platforms"
                )
            }
            MeasurementError::NotUnicast { platform } => {
                write!(
                    f,
                    "platform {platform:?} is not a unicast VP platform; GCD campaigns \
                     probe from unicast vantage points"
                )
            }
            MeasurementError::PlatformTooLarge { platform, n_vps } => {
                write!(
                    f,
                    "platform {platform:?} has {n_vps} vantage points, more than the \
                     probe format's u16 VP-id space ({} max)",
                    u16::MAX
                )
            }
            MeasurementError::WorkerCount { n_workers } => {
                write!(
                    f,
                    "worker count {n_workers} outside the attributable range 1..=64"
                )
            }
            MeasurementError::ReservedId { id } => {
                write!(
                    f,
                    "measurement id {id:#010x} lies in the reserved precheck id space \
                     (ids must be below {:#010x})",
                    crate::orchestrator::PRECHECK_ID_BIT
                )
            }
            MeasurementError::SenderOutOfRange { worker, n_workers } => {
                write!(
                    f,
                    "sender restriction names worker {worker}, but the platform has \
                     only workers 0..{n_workers}"
                )
            }
            MeasurementError::InvalidFaultPlan { detail } => {
                write!(f, "invalid fault plan: {detail}")
            }
            MeasurementError::InvalidRate => {
                write!(
                    f,
                    "invalid probe rate 0; the schedule needs at least 1 probe/s"
                )
            }
            MeasurementError::InvalidShardCount => {
                write!(
                    f,
                    "invalid shard count 0; the stream needs at least 1 shard"
                )
            }
        }
    }
}

impl std::error::Error for MeasurementError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_problem() {
        let e = MeasurementError::ReservedId { id: 0x8000_0001 };
        assert!(e.to_string().contains("0x80000001"));
        assert!(e.to_string().contains("reserved"));
        let e = MeasurementError::WorkerCount { n_workers: 65 };
        assert!(e.to_string().contains("65"));
        let e = MeasurementError::PlatformTooLarge {
            platform: PlatformId(3),
            n_vps: 70_000,
        };
        assert!(e.to_string().contains("70000"));
        let e = MeasurementError::SenderOutOfRange {
            worker: 9,
            n_workers: 4,
        };
        assert!(e.to_string().contains("worker 9"));
    }
}
