//! The Worker component.
//!
//! A Worker runs at one site of the anycast measurement platform. It
//! receives a sealed [`StartOrder`], then a stream of [`ProbeOrder`]s from
//! the Orchestrator; for each order it transmits one probe at its
//! scheduled offset. Replies captured at its site (which may answer
//! *other* workers' probes — that is the whole point of the methodology)
//! are validated against the measurement id and kept as records, so a
//! worker holds neither the hitlist nor results (R10) and its loss costs
//! only its own captures (R5).
//!
//! The Orchestrator runs every worker's part inline, inside the shard that
//! streams each slice of the hitlist: a worker is one
//! [`ProbeSession`](laces_netsim::ProbeSession) per shard plus the plan the
//! Orchestrator derived from its opened start order. A start order sealed
//! under the wrong key does not open, and that worker never probes or
//! captures (R8).

use std::net::IpAddr;

use laces_netsim::wire::CaptureFaults;
use laces_netsim::PlatformId;
use laces_packet::{ProbeEncoding, Protocol};
use serde::{Deserialize, Serialize};

/// The sealed instruction that starts a worker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StartOrder {
    /// Measurement id to embed and filter on.
    pub measurement_id: u32,
    /// Platform this worker belongs to.
    pub platform: PlatformId,
    /// This worker's site index.
    pub worker_id: u16,
    /// Protocol to probe.
    pub protocol: Protocol,
    /// Probe encoding.
    pub encoding: ProbeEncoding,
    /// Inter-worker offset in milliseconds.
    pub offset_ms: u64,
    /// Window span (`(n_workers-1) * offset`).
    pub span_ms: u64,
    /// Simulated day.
    pub day: u32,
    /// Source address this worker probes from (the platform's anycast
    /// address for the target family).
    pub src_addr: IpAddr,
    /// Fault injection: stop after this many orders.
    pub fail_after: Option<usize>,
    /// Fault injection: capture-fabric drop/duplication model applied when
    /// this worker forwards deliveries into the fabric.
    pub fabric_faults: Option<CaptureFaults>,
}

/// One probe order: a target and the window start assigned by the
/// Orchestrator's rate-controlled schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeOrder {
    /// Target address.
    pub target: IpAddr,
    /// Virtual time at which worker 0 probes this target.
    pub window_start_ms: u64,
}
