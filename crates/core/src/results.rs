//! Measurement results: the records workers stream back and their
//! aggregation at the CLI.

use std::sync::Arc;

use laces_netsim::PlatformId;
use laces_obs::{Degraded, DegradedReason, RunReport};
use laces_packet::{PrefixKey, Protocol};
use serde::{Deserialize, Serialize};

use crate::classify::AnycastClassification;

/// One captured, validated reply.
///
/// This is what a Worker streams to the Orchestrator the moment a reply is
/// captured (R5: workers hold no state; R10: results leave the worker
/// immediately).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeRecord {
    /// Census prefix of the responding address.
    pub prefix: PrefixKey,
    /// Protocol of the reply.
    pub protocol: Protocol,
    /// Worker that captured the reply.
    pub rx_worker: u16,
    /// Worker that sent the eliciting probe (decoded from the echoed
    /// metadata; `None` under static encoding).
    pub tx_worker: Option<u16>,
    /// Probe transmit time (echoed), if recoverable.
    pub tx_time_ms: Option<u64>,
    /// Capture time.
    pub rx_time_ms: u64,
    /// CHAOS identity disclosed by the responder, if any. `Arc<str>` so
    /// fabric duplicates and classification share one allocation.
    pub chaos_identity: Option<Arc<str>>,
}

impl ProbeRecord {
    /// Round-trip time computed from echoed transmit time, as the real tool
    /// does (`None` when attribution is unavailable).
    pub fn rtt_ms(&self) -> Option<u64> {
        self.tx_time_ms.map(|tx| self.rx_time_ms.saturating_sub(tx))
    }
}

/// Where the sharded stream's capture step folds each validated reply.
///
/// Every shard owns one accumulator for its hitlist slice and pushes into
/// it without locks; the Orchestrator combines the shards' accumulators
/// once at seal time. The record path keeps each reply ([`RecordArena`]);
/// the census path folds it into a per-target table
/// (`classify::ClassTable`) and never builds a record vector.
pub(crate) trait Accumulate: Send {
    /// Fold the reply `record` from the target at hitlist position `pos`.
    fn fold(&mut self, pos: usize, record: ProbeRecord);
}

/// Shard-local accumulation of in-flight [`ProbeRecord`]s: the record
/// path's accumulator, for consumers that need every reply (catchment
/// mapping, canaries, baselines, the live monitor, tests and the
/// benchmark's replay). The census day does not use it: its passes
/// classify at capture instead (`orchestrator::run_classified`).
///
/// Each shard of the sharded stream pushes the records its deliveries
/// produce into its own arena — no locks, no per-record channel sends, no
/// cross-shard sharing — and the Orchestrator merges all arenas exactly
/// once at seal time into the canonical record vector. The merge
/// pre-reserves the exact total, so a run costs one allocation per arena
/// growth plus one final buffer instead of per-record channel traffic.
///
/// The canonical output is a *sorted multiset*, so neither the shard
/// order of the merge nor the within-arena order can show in the outcome.
#[derive(Debug, Default)]
pub struct RecordArena {
    records: Vec<ProbeRecord>,
}

impl Accumulate for RecordArena {
    #[inline]
    fn fold(&mut self, _pos: usize, record: ProbeRecord) {
        self.records.push(record);
    }
}

impl RecordArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records accumulated so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Merge shard arenas into one record vector (a multiset — the caller
    /// applies the canonical sort). The largest arena donates its buffer,
    /// so the merge moves only the smaller shards' records.
    pub fn merge(arenas: Vec<RecordArena>) -> Vec<ProbeRecord> {
        let total: usize = arenas.iter().map(RecordArena::len).sum();
        let base_at = arenas
            .iter()
            .enumerate()
            .max_by_key(|(_, a)| a.len())
            .map(|(i, _)| i);
        let mut base = Vec::new();
        let mut rest = Vec::with_capacity(arenas.len());
        for (i, arena) in arenas.into_iter().enumerate() {
            if Some(i) == base_at {
                base = arena.records;
            } else {
                rest.push(arena.records);
            }
        }
        base.reserve_exact(total.saturating_sub(base.len()));
        for records in rest {
            base.extend(records);
        }
        base
    }
}

/// What one worker observed about its own run, summed over the shards
/// that carried its orders. Every field is a sum of per-probe /
/// per-capture contributions, so the totals are independent of shard
/// layout and thread scheduling (the obs determinism rules).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerTelemetry {
    /// Probes the worker transmitted.
    pub probes_sent: u64,
    /// Replies the wire delivered back to the worker's sends.
    pub replies_delivered: u64,
    /// Sends that elicited no delivery (dead target, loss, unroutable).
    pub unanswered: u64,
    /// Deliveries the capture fabric dropped at this worker's send side.
    pub fabric_dropped: u64,
    /// Deliveries the capture fabric duplicated at this worker's send side.
    pub fabric_duplicated: u64,
    /// Validated captures the worker streamed out as records.
    pub records_streamed: u64,
    /// Captures rejected by the filter (other measurements, backscatter).
    pub captures_rejected: u64,
}

/// Terminal state of one worker within a measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkerStatus {
    /// The worker processed its whole order stream and drained captures.
    Completed,
    /// The worker disconnected mid-measurement or rejected its start
    /// order; its remaining probes and its captures are lost.
    Failed,
}

/// Per-worker health entry in a [`MeasurementOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerHealth {
    /// Worker id.
    pub worker: u16,
    /// How the worker ended.
    pub status: WorkerStatus,
    /// Probes the worker transmitted.
    pub probes_sent: u64,
}

/// Aggregated outcome of one measurement, as assembled at the CLI.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeasurementOutcome {
    /// Measurement id.
    pub measurement_id: u32,
    /// Probing platform.
    pub platform: PlatformId,
    /// Protocol probed.
    pub protocol: Protocol,
    /// Number of workers that started.
    pub n_workers: usize,
    /// Total probes transmitted across workers.
    pub probes_sent: u64,
    /// Number of targets in the hitlist.
    pub n_targets: usize,
    /// Every captured reply, in canonical order (sorted, so equal runs
    /// serialise identically).
    pub records: Vec<ProbeRecord>,
    /// Workers that failed mid-measurement.
    pub failed_workers: Vec<u16>,
    /// Terminal state of every worker, sorted by worker id.
    pub worker_health: Vec<WorkerHealth>,
    /// Everything the run observed about itself: per-worker and aggregate
    /// counters, the RTT distribution, stage timing on the simulated
    /// clock, and the typed degradation events (worker failures, seal
    /// rejections, mid-stream aborts). Replaces PR 1's `degraded: bool`;
    /// the bool is now derived via [`MeasurementOutcome::is_degraded`].
    /// Consumers (the census pipeline) publish degraded runs anyway but
    /// must carry the reasons forward.
    pub telemetry: RunReport,
    /// Shard-layout diagnostics: per-shard stage timings (slice bounds,
    /// probe counts, sim-clock spans) for the sharded hitlist stream.
    /// Unlike [`telemetry`](MeasurementOutcome::telemetry), this report
    /// depends on `spec.shards` — one child stage per shard — so it is
    /// excluded from the cross-shard-count invariance contract (and from
    /// it alone; it is still bit-identical across reruns at a fixed shard
    /// count).
    pub shard_report: RunReport,
    /// The flight recorder's causal event log for this measurement
    /// (empty and disabled unless the spec enabled tracing). Feed it to
    /// [`laces_trace::TraceReport::explain`] to justify a verdict.
    pub trace_report: laces_trace::TraceReport,
}

impl MeasurementOutcome {
    /// Whether the measurement ran degraded: at least one worker failed,
    /// or an abort was requested mid-run (even one that landed after the
    /// hitlist had fully streamed — a disconnected CLI makes the run
    /// suspect regardless of how much survived).
    pub fn is_degraded(&self) -> bool {
        self.telemetry.is_degraded()
    }

    /// The typed events that degraded this measurement.
    pub fn degraded_reasons(&self) -> &[DegradedReason] {
        self.telemetry.degraded_reasons()
    }
}

impl Degraded for MeasurementOutcome {
    fn degraded_reasons(&self) -> &[DegradedReason] {
        self.telemetry.degraded_reasons()
    }
}

/// A measurement classified at capture
/// ([`run_classified`](crate::orchestrator::run_classified)): the
/// per-prefix verdicts plus what a [`MeasurementOutcome`] reports about
/// the run itself. There are no per-reply records; this path never builds
/// them.
#[derive(Debug, Clone)]
pub struct ClassifiedOutcome {
    /// Equal to [`AnycastClassification::from_outcome`] of the same spec's
    /// [`run_measurement`](crate::orchestrator::run_measurement) outcome.
    pub classification: AnycastClassification,
    /// Total probes transmitted across workers.
    pub probes_sent: u64,
    /// Terminal state of every worker, sorted by worker id.
    pub worker_health: Vec<WorkerHealth>,
    /// Byte-identical to the record path's
    /// [`MeasurementOutcome::telemetry`].
    pub telemetry: RunReport,
    /// Byte-identical to the record path's
    /// [`MeasurementOutcome::trace_report`]. Classification events go to
    /// the classify tracer the caller passed in.
    pub trace_report: laces_trace::TraceReport,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_merge_preserves_the_multiset() {
        let rec = |rx: u16, t: u64| ProbeRecord {
            prefix: PrefixKey::of("10.0.0.1".parse().unwrap()),
            protocol: Protocol::Icmp,
            rx_worker: rx,
            tx_worker: Some(0),
            tx_time_ms: Some(0),
            rx_time_ms: t,
            chaos_identity: None,
        };
        let mut a = RecordArena::new();
        let mut b = RecordArena::new();
        let c = RecordArena::new();
        a.fold(0, rec(0, 1));
        b.fold(0, rec(1, 2));
        b.fold(0, rec(1, 2)); // fabric duplicate: multiset keeps both
        b.fold(1, rec(2, 3));
        assert_eq!(a.len(), 1);
        assert!(!b.is_empty());
        assert!(c.is_empty());
        let mut merged = RecordArena::merge(vec![a, b, c]);
        assert_eq!(merged.len(), 4);
        merged.sort_unstable_by_key(|r| (r.rx_worker, r.rx_time_ms));
        let keys: Vec<(u16, u64)> = merged.iter().map(|r| (r.rx_worker, r.rx_time_ms)).collect();
        assert_eq!(keys, vec![(0, 1), (1, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn rtt_from_echoed_time() {
        let r = ProbeRecord {
            prefix: PrefixKey::of("10.0.0.1".parse().unwrap()),
            protocol: Protocol::Icmp,
            rx_worker: 3,
            tx_worker: Some(1),
            tx_time_ms: Some(100),
            rx_time_ms: 142,
            chaos_identity: None,
        };
        assert_eq!(r.rtt_ms(), Some(42));
    }

    #[test]
    fn rtt_unavailable_without_attribution() {
        let r = ProbeRecord {
            prefix: PrefixKey::of("10.0.0.1".parse().unwrap()),
            protocol: Protocol::Icmp,
            rx_worker: 3,
            tx_worker: None,
            tx_time_ms: None,
            rx_time_ms: 142,
            chaos_identity: None,
        };
        assert_eq!(r.rtt_ms(), None);
    }

    #[test]
    fn rtt_saturates_on_clock_skew() {
        let r = ProbeRecord {
            prefix: PrefixKey::of("10.0.0.1".parse().unwrap()),
            protocol: Protocol::Tcp,
            rx_worker: 0,
            tx_worker: Some(0),
            tx_time_ms: Some(500),
            rx_time_ms: 400,
            chaos_identity: None,
        };
        assert_eq!(r.rtt_ms(), Some(0));
    }
}
