//! The flight-recorder event model.
//!
//! Events are plain data keyed on *per-probe coordinates* (target prefix,
//! worker index, SimClock times) — never on arrival order, batch framing
//! or thread ids — so the recorded multiset is identical across reruns and
//! shard counts. Variants are declared in lifecycle order and every field
//! type is totally ordered, so the derived `Ord` is the canonical sort the
//! buffers and exporters rely on.

use laces_packet::PrefixKey;
use serde::{Deserialize, Serialize};

/// Why an order-channel fault consumed a probe order before it reached the
/// worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OrderFaultCause {
    /// The fault plan delayed (and thereby dropped) the order.
    Delayed,
    /// The order channel was closed by the fault plan before this order.
    ChannelClosed,
}

/// How the wire resolved a transmitted probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum WireFate {
    /// A site answered; the reply lands at `rx_worker` at `rx_time_ms`.
    Delivered {
        /// Worker co-located with the site that captured the reply.
        rx_worker: u16,
        /// SimClock capture time.
        rx_time_ms: u64,
    },
    /// No reply, with the attributed cause.
    Unanswered {
        /// Why the probe went unanswered.
        cause: UnansweredCause,
    },
}

/// The attributed cause of an unanswered probe, mirroring the wire's
/// resolution steps in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum UnansweredCause {
    /// The destination is not a simulated target.
    UnknownTarget,
    /// The target is down on this day.
    TargetDown,
    /// The target does not answer this protocol.
    ProtocolClosed,
    /// Path loss ate the probe or its reply.
    ProbeLost,
    /// No forward route from the probing site to the target.
    NoForwardRoute,
    /// A temporary-anycast deployment was inactive on this day.
    InactiveAnycast,
    /// The reply found no route back to the platform.
    NoReverseRoute,
}

/// A capture-fabric fault verdict. Only faults are recorded — a reply with
/// no `FabricFault` event passed through the fabric untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FabricFaultKind {
    /// The reply was dropped between capture and the worker.
    Dropped,
    /// The reply was duplicated; the worker captures it twice.
    Duplicated,
}

/// One flight-recorder event. Variant order is lifecycle order; the
/// derived `Ord` is the canonical event order used everywhere.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TraceEvent {
    /// The Orchestrator issued a probe order for `prefix` toward `worker`.
    OrderIssued {
        /// Target prefix.
        prefix: PrefixKey,
        /// Destination worker.
        worker: u16,
        /// The order's rate-window start on the SimClock.
        window_start_ms: u64,
    },
    /// An order-channel fault consumed the order; the worker never saw it.
    OrderFault {
        /// Target prefix.
        prefix: PrefixKey,
        /// The worker whose channel faulted.
        worker: u16,
        /// What the fault plan did to the order.
        cause: OrderFaultCause,
    },
    /// The worker built and transmitted the probe.
    ProbeSent {
        /// Target prefix.
        prefix: PrefixKey,
        /// Transmitting worker.
        worker: u16,
        /// SimClock transmit time.
        tx_time_ms: u64,
    },
    /// The wire resolved the probe: delivered to a capturing worker, or
    /// lost with an attributed cause.
    WireOutcome {
        /// Target prefix.
        prefix: PrefixKey,
        /// Transmitting worker.
        worker: u16,
        /// SimClock transmit time.
        tx_time_ms: u64,
        /// Resolution.
        fate: WireFate,
    },
    /// The capture fabric dropped or duplicated a delivered reply.
    FabricFault {
        /// Target prefix.
        prefix: PrefixKey,
        /// Worker that transmitted the probe.
        tx_worker: u16,
        /// Worker the reply was addressed to.
        rx_worker: u16,
        /// SimClock capture time.
        rx_time_ms: u64,
        /// Drop or duplicate.
        kind: FabricFaultKind,
    },
    /// A worker parsed (or rejected) a captured reply.
    Captured {
        /// Target prefix (from the reply's source address).
        prefix: PrefixKey,
        /// Capturing worker.
        rx_worker: u16,
        /// SimClock capture time.
        rx_time_ms: u64,
        /// Whether the reply parsed and matched the measurement id.
        accepted: bool,
        /// CHAOS identity carried by the reply, if any.
        chaos_identity: Option<String>,
    },
    /// A worker failed; probes it had not yet sent and captures it had
    /// pending are lost. Emitted once per failed worker, unsampled.
    WorkerFault {
        /// The failed worker.
        worker: u16,
        /// Failure cause (e.g. "crash", "seal rejected").
        cause: String,
        /// Probes the worker had sent before failing.
        after_probes: u64,
    },
    /// A probe record for this prefix contributed to classification.
    ClassContribution {
        /// Target prefix.
        prefix: PrefixKey,
        /// Worker whose capture produced the record.
        rx_worker: u16,
    },
    /// The classification verdict for this prefix.
    ClassVerdict {
        /// Target prefix.
        prefix: PrefixKey,
        /// Distinct workers that captured replies.
        n_vps: usize,
        /// Verdict string ("anycast" / "unicast" / "unresponsive").
        verdict: String,
    },
    /// A GCD campaign chunk was spawned (unsampled).
    GcdChunk {
        /// Chunk index within the campaign.
        chunk_index: usize,
        /// Targets in the chunk.
        n_targets: usize,
    },
    /// A GCD probe attempt resolved.
    GcdProbe {
        /// Target prefix.
        prefix: PrefixKey,
        /// Probing vantage point.
        vp: u16,
        /// RTT in integer micro-milliseconds, `None` when unanswered.
        rtt_micro_ms: Option<u64>,
    },
    /// GCD enumeration ran its speed-of-light overlap tests.
    GcdOverlap {
        /// Target prefix.
        prefix: PrefixKey,
        /// RTT samples fed to enumeration.
        n_samples: usize,
        /// Pairwise overlap tests performed.
        overlap_tests: u64,
        /// Sites the greedy enumeration kept.
        n_sites: usize,
    },
    /// The GCD verdict for this prefix.
    GcdVerdict {
        /// Target prefix.
        prefix: PrefixKey,
        /// Verdict string (the `GcdClass`).
        class: String,
    },
    /// A measurement / census stage span on the SimClock (unsampled).
    StageSpan {
        /// Stage name, slash-scoped by the pipeline.
        name: String,
        /// SimClock start.
        start_ms: u64,
        /// Simulated duration.
        sim_ms: u64,
    },
    /// One shard of the sharded hitlist stream: the contiguous schedule
    /// slice it owns, on the SimClock (unsampled). Off by default — the
    /// shard layout depends on `spec.shards`, so these spans are opt-in
    /// via `TraceConfig::shard_spans` and excluded from the cross-
    /// shard-count trace invariance.
    ShardSpan {
        /// Shard index.
        shard: u16,
        /// First global hitlist index of the shard's slice.
        start_index: u64,
        /// Targets in the slice.
        n_targets: u64,
        /// SimClock start of the slice's rate window.
        start_ms: u64,
        /// Simulated span of the slice (stream windows plus probe tail).
        sim_ms: u64,
    },
}

impl TraceEvent {
    /// The target prefix this event is keyed on, if it is target-scoped.
    pub fn prefix(&self) -> Option<PrefixKey> {
        match self {
            TraceEvent::OrderIssued { prefix, .. }
            | TraceEvent::OrderFault { prefix, .. }
            | TraceEvent::ProbeSent { prefix, .. }
            | TraceEvent::WireOutcome { prefix, .. }
            | TraceEvent::FabricFault { prefix, .. }
            | TraceEvent::Captured { prefix, .. }
            | TraceEvent::ClassContribution { prefix, .. }
            | TraceEvent::ClassVerdict { prefix, .. }
            | TraceEvent::GcdProbe { prefix, .. }
            | TraceEvent::GcdOverlap { prefix, .. }
            | TraceEvent::GcdVerdict { prefix, .. } => Some(*prefix),
            TraceEvent::WorkerFault { .. }
            | TraceEvent::GcdChunk { .. }
            | TraceEvent::StageSpan { .. }
            | TraceEvent::ShardSpan { .. } => None,
        }
    }
}

impl UnansweredCause {
    /// Human-readable cause for explain output.
    pub fn describe(self) -> &'static str {
        match self {
            UnansweredCause::UnknownTarget => "destination is not a known target",
            UnansweredCause::TargetDown => "target was down",
            UnansweredCause::ProtocolClosed => "target does not answer this protocol",
            UnansweredCause::ProbeLost => "lost to path loss",
            UnansweredCause::NoForwardRoute => "no forward route to the target",
            UnansweredCause::InactiveAnycast => "temporary anycast deployment inactive",
            UnansweredCause::NoReverseRoute => "no reverse route back to the platform",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laces_packet::Prefix24;

    #[test]
    fn canonical_order_follows_the_lifecycle() {
        let prefix = PrefixKey::V4(Prefix24::from_network(0x0A00_0100));
        let mut events = [
            TraceEvent::Captured {
                prefix,
                rx_worker: 0,
                rx_time_ms: 5,
                accepted: true,
                chaos_identity: None,
            },
            TraceEvent::ProbeSent {
                prefix,
                worker: 0,
                tx_time_ms: 0,
            },
            TraceEvent::OrderIssued {
                prefix,
                worker: 0,
                window_start_ms: 0,
            },
        ];
        events.sort_unstable();
        assert!(matches!(events[0], TraceEvent::OrderIssued { .. }));
        assert!(matches!(events[1], TraceEvent::ProbeSent { .. }));
        assert!(matches!(events[2], TraceEvent::Captured { .. }));
    }

    /// `ShardSpan` was appended after `StageSpan`, preserving the derived
    /// `Ord` of every pre-existing variant: shard spans sort last.
    #[test]
    fn shard_spans_sort_after_stage_spans() {
        let mut events = [
            TraceEvent::ShardSpan {
                shard: 0,
                start_index: 0,
                n_targets: 100,
                start_ms: 0,
                sim_ms: 1_000,
            },
            TraceEvent::StageSpan {
                name: "measurement:Icmp".into(),
                start_ms: 0,
                sim_ms: 1_000,
            },
        ];
        events.sort_unstable();
        assert!(matches!(events[0], TraceEvent::StageSpan { .. }));
        assert!(matches!(events[1], TraceEvent::ShardSpan { .. }));
        assert_eq!(events[1].prefix(), None);
    }

    #[test]
    fn events_roundtrip_through_the_value_model() {
        let prefix = PrefixKey::V4(Prefix24::from_network(0x0A00_0100));
        let events = vec![
            TraceEvent::WireOutcome {
                prefix,
                worker: 3,
                tx_time_ms: 12,
                fate: WireFate::Unanswered {
                    cause: UnansweredCause::ProbeLost,
                },
            },
            TraceEvent::WorkerFault {
                worker: 3,
                cause: "crash".into(),
                after_probes: 37,
            },
            TraceEvent::GcdProbe {
                prefix,
                vp: 1,
                rtt_micro_ms: Some(23_500),
            },
        ];
        for e in events {
            let json = serde_json::to_string(&e).expect("serialize");
            let back: TraceEvent = serde_json::from_str(&json).expect("parse");
            assert_eq!(back, e);
        }
    }
}
