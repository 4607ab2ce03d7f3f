//! Measurement definitions.
//!
//! A [`MeasurementSpec`] is what the CLI hands to the Orchestrator: which
//! platform probes, what protocol, which targets, how fast, and with what
//! inter-worker offset. The paper's two probing disciplines are both
//! expressed through `offset_ms`: LACeS's synchronized probing uses 0–1 s
//! offsets, while the MAnycast² baseline's sequential per-VP sweeps
//! correspond to offsets of minutes (§5.1.5).

use std::net::IpAddr;
use std::sync::Arc;

use laces_netsim::{PlatformId, World};
use laces_packet::{ProbeEncoding, Protocol};
use laces_trace::TraceConfig;

use crate::error::MeasurementError;
use crate::fault::FaultPlan;
use crate::orchestrator::PRECHECK_ID_BIT;

/// Cap on the default shard count: beyond ~16 shards the per-shard slices
/// of realistic hitlists drop below the size where per-shard session setup
/// amortizes, and the merge fan-in starts to show.
pub const MAX_DEFAULT_SHARDS: usize = 16;

/// The default shard count: the machine's available parallelism, capped at
/// [`MAX_DEFAULT_SHARDS`] and floored at 1. Outputs are invariant in the
/// shard count (see `shard_invariance.rs`), so a machine-dependent default
/// never leaks into records, classification or telemetry.
pub fn default_shards() -> usize {
    // laces-lint: allow(determinism-taint) — shard count never reaches artifact bytes: records, classification, telemetry and traces are pinned shard-invariant by core/tests/shard_invariance.rs
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .clamp(1, MAX_DEFAULT_SHARDS)
}

/// A complete measurement definition.
#[derive(Debug, Clone)]
pub struct MeasurementSpec {
    /// Measurement identifier, embedded in every probe and used to filter
    /// captured replies.
    pub id: u32,
    /// The anycast platform whose workers probe.
    pub platform: PlatformId,
    /// Probing protocol.
    pub protocol: Protocol,
    /// Target addresses (one representative per census prefix).
    pub targets: Arc<Vec<IpAddr>>,
    /// Hitlist streaming rate, in targets per second (R3: the probe load a
    /// target sees is `n_workers` packets per target regardless of rate;
    /// the rate bounds the *platform's* egress).
    pub rate_per_s: u32,
    /// Offset between consecutive workers' probes to the same target, in
    /// milliseconds. The target sees a ping train with this period.
    pub offset_ms: u64,
    /// Probe encoding (per-worker attribution or the §5.1.4 static mode).
    pub encoding: ProbeEncoding,
    /// Simulated day of the measurement.
    pub day: u32,
    /// Deliberate fault schedule for robustness tests (R5); the default
    /// plan is fault-free.
    pub faults: FaultPlan,
    /// Restrict probing to these workers (all workers still capture).
    /// `None` means every worker probes. Used by the single-VP
    /// responsiveness precheck (paper §6 future work).
    pub senders: Option<Vec<u16>>,
    /// Shard count for the hitlist stream: the Orchestrator splits the
    /// hitlist into this many contiguous slices, each streamed by its own
    /// shard with its own per-worker probe sessions and capture accumulator.
    /// Purely a throughput knob — shard assignment is a pure function of
    /// the global target index, fault plans count orders in canonical
    /// (global-index) order, and records are merged into one canonical
    /// multiset, so outputs are bit-identical across shard counts.
    /// Defaults to [`default_shards`].
    pub shards: usize,
    /// Flight-recorder configuration. Disabled by default: the probing hot
    /// path then pays one branch per hook and allocates nothing. When
    /// enabled, targets are sampled by a seeded, prefix-keyed hash, so the
    /// same targets are traced on every rerun and at every shard count.
    pub trace: TraceConfig,
}

impl MeasurementSpec {
    /// A spec with the daily-census defaults: 1 s offsets, per-worker
    /// encoding, 10 k targets/s.
    pub fn census(
        id: u32,
        platform: PlatformId,
        protocol: Protocol,
        targets: Arc<Vec<IpAddr>>,
        day: u32,
    ) -> Self {
        MeasurementSpec {
            id,
            platform,
            protocol,
            targets,
            rate_per_s: 10_000,
            offset_ms: 1_000,
            encoding: ProbeEncoding::PerWorker,
            day,
            faults: FaultPlan::default(),
            senders: None,
            shards: default_shards(),
            trace: TraceConfig::default(),
        }
    }

    /// Start building a spec with the daily-census defaults, validating
    /// the whole definition against a world at
    /// [`build`](MeasurementSpecBuilder::build). Misuse that previously
    /// panicked deep inside the orchestrator (unicast platform,
    /// unattributable worker count) is rejected here, before any thread is
    /// spawned.
    pub fn builder(id: u32, platform: PlatformId) -> MeasurementSpecBuilder {
        MeasurementSpecBuilder {
            spec: MeasurementSpec::census(id, platform, Protocol::Icmp, Arc::new(Vec::new()), 0),
        }
    }

    /// Whether `worker` transmits probes under this spec.
    pub fn is_sender(&self, worker: u16) -> bool {
        self.senders.as_ref().is_none_or(|s| s.contains(&worker))
    }

    /// Window span between the first and last probe a target receives.
    pub fn span_ms(&self, n_workers: usize) -> u64 {
        self.offset_ms * (n_workers.saturating_sub(1)) as u64
    }

    /// Total probes this measurement will send: targets × the workers
    /// `w < n_workers` that transmit. A sender restriction that names a
    /// worker twice still counts it once.
    pub fn probe_budget(&self, n_workers: usize) -> u64 {
        let senders = (0..n_workers)
            .filter(|&w| u16::try_from(w).is_ok_and(|w| self.is_sender(w)))
            .count();
        self.targets.len() as u64 * senders as u64
    }
}

/// Builder for a [`MeasurementSpec`], created by
/// [`MeasurementSpec::builder`]. Starts from the daily-census defaults
/// (ICMP, 10 k targets/s, 1 s offsets, per-worker encoding, no faults) and
/// validates the complete definition at [`build`](Self::build).
#[derive(Debug, Clone)]
pub struct MeasurementSpecBuilder {
    spec: MeasurementSpec,
}

impl MeasurementSpecBuilder {
    /// Set the probing protocol.
    pub fn protocol(mut self, protocol: Protocol) -> Self {
        self.spec.protocol = protocol;
        self
    }

    /// Set the target addresses.
    pub fn targets(mut self, targets: Arc<Vec<IpAddr>>) -> Self {
        self.spec.targets = targets;
        self
    }

    /// Set the hitlist streaming rate (targets per second).
    pub fn rate_per_s(mut self, rate: u32) -> Self {
        self.spec.rate_per_s = rate;
        self
    }

    /// Set the inter-worker probe offset in milliseconds.
    pub fn offset_ms(mut self, offset: u64) -> Self {
        self.spec.offset_ms = offset;
        self
    }

    /// Set the probe encoding.
    pub fn encoding(mut self, encoding: ProbeEncoding) -> Self {
        self.spec.encoding = encoding;
        self
    }

    /// Set the simulated day.
    pub fn day(mut self, day: u32) -> Self {
        self.spec.day = day;
        self
    }

    /// Set the fault schedule.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.spec.faults = faults;
        self
    }

    /// Restrict probing to these workers (all workers still capture).
    pub fn senders(mut self, senders: Vec<u16>) -> Self {
        self.spec.senders = Some(senders);
        self
    }

    /// Set the shard count for the hitlist stream (default:
    /// [`default_shards`]). Outputs are invariant in this knob; it only
    /// sets how many slices of the hitlist stream in parallel.
    pub fn shards(mut self, shards: usize) -> Self {
        self.spec.shards = shards;
        self
    }

    /// Set the flight-recorder configuration (default: disabled).
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.spec.trace = trace;
        self
    }

    /// Validate the definition against `world` and produce the spec.
    ///
    /// # Errors
    ///
    /// * [`MeasurementError::NotAnycast`] — the platform is a unicast VP
    ///   platform;
    /// * [`MeasurementError::WorkerCount`] — worker count outside 1..=64;
    /// * [`MeasurementError::ReservedId`] — the id lies in the precheck id
    ///   space ([`PRECHECK_ID_BIT`]);
    /// * [`MeasurementError::SenderOutOfRange`] — a sender restriction
    ///   names a worker the platform does not have;
    /// * [`MeasurementError::InvalidFaultPlan`] — a fabric rate outside
    ///   [0, 1] or a fault scheduled on a nonexistent worker;
    /// * [`MeasurementError::InvalidRate`] — a probe rate of zero (no
    ///   schedule window could ever open);
    /// * [`MeasurementError::InvalidShardCount`] — a shard count of zero
    ///   (zero slices cover no hitlist).
    pub fn build(self, world: &World) -> Result<MeasurementSpec, MeasurementError> {
        let spec = self.spec;
        if spec.rate_per_s == 0 {
            return Err(MeasurementError::InvalidRate);
        }
        if spec.shards == 0 {
            return Err(MeasurementError::InvalidShardCount);
        }
        let platform = world.platform(spec.platform);
        if !platform.is_anycast() {
            return Err(MeasurementError::NotAnycast {
                platform: spec.platform,
            });
        }
        let n_workers = platform.n_vps();
        if !(1..=64).contains(&n_workers) {
            return Err(MeasurementError::WorkerCount { n_workers });
        }
        if spec.id & PRECHECK_ID_BIT != 0 {
            return Err(MeasurementError::ReservedId { id: spec.id });
        }
        if let Some(senders) = &spec.senders {
            if let Some(&worker) = senders.iter().find(|&&w| usize::from(w) >= n_workers) {
                return Err(MeasurementError::SenderOutOfRange { worker, n_workers });
            }
        }
        if let Some(fabric) = &spec.faults.fabric {
            for (name, rate) in [
                ("drop_rate", fabric.drop_rate),
                ("dup_rate", fabric.dup_rate),
            ] {
                if !(0.0..=1.0).contains(&rate) || !rate.is_finite() {
                    return Err(MeasurementError::InvalidFaultPlan {
                        detail: format!("fabric {name} {rate} outside [0, 1]"),
                    });
                }
            }
        }
        let fault_workers = spec
            .faults
            .crashes
            .iter()
            .map(|c| c.worker)
            .chain(spec.faults.reject_seal.iter().copied())
            .chain(spec.faults.order_faults.iter().map(|f| f.worker));
        for worker in fault_workers {
            if usize::from(worker) >= n_workers {
                return Err(MeasurementError::InvalidFaultPlan {
                    detail: format!(
                        "fault scheduled on worker {worker}, but the platform has only \
                         workers 0..{n_workers}"
                    ),
                });
            }
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(offset: u64) -> MeasurementSpec {
        let mut s = MeasurementSpec::census(
            1,
            PlatformId(0),
            Protocol::Icmp,
            Arc::new(vec!["10.0.0.1".parse().unwrap(); 10]),
            0,
        );
        s.offset_ms = offset;
        s
    }

    #[test]
    fn span_is_offset_times_gaps() {
        assert_eq!(spec(1_000).span_ms(32), 31_000);
        assert_eq!(spec(0).span_ms(32), 0);
        assert_eq!(spec(780_000).span_ms(32), 24_180_000); // the 13-minute baseline
        assert_eq!(spec(1_000).span_ms(1), 0);
        assert_eq!(spec(1_000).span_ms(0), 0);
    }

    #[test]
    fn probe_budget_counts_workers() {
        assert_eq!(spec(1_000).probe_budget(32), 320);
        // Only senders count, each once, and only on the platform.
        let mut s = spec(1_000);
        s.senders = Some(vec![3]);
        assert_eq!(s.probe_budget(32), 10);
        s.senders = Some(vec![3, 3]);
        assert_eq!(s.probe_budget(32), 10);
        s.senders = Some(vec![0, 5]);
        assert_eq!(s.probe_budget(4), 10, "worker 5 is off the platform");
    }
}
