//! The Worker component.
//!
//! A Worker runs at one site of the anycast measurement platform. It
//! receives a sealed start order, then a stream of probe batches from the
//! Orchestrator; for each order it transmits one probe at its scheduled
//! offset. Replies captured at its site (which may answer *other* workers'
//! probes — that is the whole point of the methodology) are validated
//! against the measurement id and streamed back as [`ProbeRecord`]s in
//! small batches, so a worker holds neither the hitlist nor results (R10)
//! and its loss costs only its own captures (R5).
//!
//! The hot path is allocation-lean: the worker resolves its route handles
//! once into a [`ProbeSession`](laces_netsim::ProbeSession), builds probe
//! bytes into a reused buffer pool, and hands whole batches to
//! [`World::send_probe_batch`] — no lock acquisition and no fresh
//! allocation per probe in steady state. Batching is purely framing: the
//! Orchestrator cuts the stream into frames of its fixed `BATCH_SIZE`
//! orders, while the probe schedule, every RNG draw and all telemetry
//! totals are keyed on per-order coordinates.

use std::net::IpAddr;
use std::sync::Arc;

use crossbeam::channel::{Receiver, Sender, TrySendError};
use laces_netsim::wire::{
    BatchProbe, CaptureFaults, FabricStats, FabricVerdict, MeasurementCtx, ProbeSource,
};
use laces_netsim::{Delivery, PlatformId, WireStats, World};
use laces_obs::Counter;
use laces_packet::probe::{build_probe_into, parse_reply, ProbeMeta};
use laces_packet::{PacketError, PrefixKey, ProbeEncoding, Protocol};
use laces_trace::{Component, FabricFaultKind, TraceEvent, Tracer};
use serde::{Deserialize, Serialize};

use crate::auth::{AuthKey, Sealed};
use crate::results::{ProbeRecord, WorkerEvent, WorkerFailure, WorkerTelemetry};

/// How many validated records a worker accumulates before flushing a
/// [`WorkerOut::Records`] batch to the Orchestrator. Purely a transport
/// knob (the aggregate record multiset is batch-independent); kept
/// internal because nothing observable depends on it.
const RECORD_FLUSH: usize = 256;

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

/// A batch of probe orders: one channel send from the Orchestrator carries
/// up to its fixed `BATCH_SIZE` (256) orders, so streaming a hitlist of
/// `n` targets costs `ceil(n / 256)` sends per worker instead of `n`.
///
/// Fault semantics stay per-*order*: a crash scheduled after N orders fires
/// mid-batch exactly where it would have fired in an unbatched stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeBatch {
    /// The orders, in schedule order.
    pub orders: Vec<ProbeOrder>,
}

/// Messages a worker emits toward the Orchestrator/CLI.
#[derive(Debug, Clone)]
pub enum WorkerOut {
    /// A batch of validated captures. The Orchestrator merges batches
    /// order-independently (records are canonically re-sorted), so the
    /// flush granularity never shows in the outcome.
    Records(Vec<ProbeRecord>),
    /// Lifecycle event.
    Event(WorkerEvent),
}

/// Errors that prevent a worker from starting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerError {
    /// The start order's authentication tag did not verify (R8).
    BadAuth,
    /// The wire rejected a probe batch as malformed. Structurally
    /// unreachable for probes built by `build_probe_into`, but the error
    /// is propagated rather than discarded: a worker that somehow hands
    /// the wire garbage fails loudly and the platform degrades, instead
    /// of silently losing its probes.
    Wire(PacketError),
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::BadAuth => write!(f, "start order failed authentication"),
            WorkerError::Wire(e) => write!(f, "wire rejected a probe batch: {e}"),
        }
    }
}

impl std::error::Error for WorkerError {}

/// Validate one capture and buffer the record (flushed in batches by the
/// caller). Anything that is not a reply to this measurement (other
/// measurements, backscatter) is dropped exactly as the real capture
/// filter drops it.
fn process_capture(
    d: &Delivery,
    measurement_id: u32,
    rx_worker: u16,
    records: &mut Vec<ProbeRecord>,
    records_streamed: &Counter,
    captures_rejected: &Counter,
    tracer: &Tracer,
) {
    let prefix = PrefixKey::of(d.packet.src);
    if let Ok(info) = parse_reply(&d.packet, measurement_id, d.rx_time_ms) {
        tracer.record_for(Component::Capture, prefix, || TraceEvent::Captured {
            prefix,
            rx_worker,
            rx_time_ms: d.rx_time_ms,
            accepted: true,
            chaos_identity: info.chaos_identity.as_deref().map(str::to_string),
        });
        records.push(ProbeRecord {
            prefix,
            protocol: info.protocol,
            rx_worker,
            tx_worker: info.tx_worker,
            tx_time_ms: info.tx_time_ms,
            rx_time_ms: d.rx_time_ms,
            chaos_identity: info.chaos_identity,
        });
        records_streamed.inc();
    } else {
        tracer.record_for(Component::Capture, prefix, || TraceEvent::Captured {
            prefix,
            rx_worker,
            rx_time_ms: d.rx_time_ms,
            accepted: false,
            chaos_identity: None,
        });
        captures_rejected.inc();
    }
}

/// Flush buffered records as one [`WorkerOut::Records`] batch.
fn flush_records(records: &mut Vec<ProbeRecord>, out: &Sender<WorkerOut>) {
    if !records.is_empty() {
        // laces-lint: allow(discarded-fallibility) — send fails only when the CLI aborted and closed the out channel; dropping the batch is the designed wind-down (R3: no work after abort)
        let _ = out.send(WorkerOut::Records(std::mem::take(records)));
    }
}

/// Run a worker to completion.
///
/// * `orders` — probe-order batches from the Orchestrator; channel close
///   ends the probing phase.
/// * `captures` — reply batches the wire delivers to this site (fed by all
///   workers' sends); channel close (every peer finished) ends the capture
///   phase.
/// * `fabric` — capture senders toward every worker, indexed by site.
/// * `out` — stream of record batches and lifecycle events toward the CLI.
/// * `tracer` — flight recorder for probe-lifecycle events; pass
///   [`Tracer::disabled`] to record nothing (one branch per hook).
#[allow(clippy::too_many_arguments)]
pub fn run_worker(
    world: &Arc<World>,
    key: AuthKey,
    start: Sealed<StartOrder>,
    orders: Receiver<ProbeBatch>,
    captures: Receiver<Vec<Delivery>>,
    fabric: Vec<Sender<Vec<Delivery>>>,
    out: Sender<WorkerOut>,
    tracer: Tracer,
) -> Result<(), WorkerError> {
    let start = start.open(key).ok_or(WorkerError::BadAuth)?;
    let ctx = MeasurementCtx {
        id: start.measurement_id,
        day: start.day,
        span_ms: start.span_ms,
    };
    let source = ProbeSource::Worker {
        platform: start.platform,
        site: start.worker_id as usize,
    };
    // Open the worker's probe session once, at start-order time: its
    // sender state and scratch buffers serve every batch below.
    let mut session = world.probe_session(source);
    session.attach_tracer(tracer.clone());

    // Worker-local telemetry: the wire and fabric stats observe sends, the
    // capture counters observe the filter. All are order-independent sums,
    // so the totals carried back to the Orchestrator are deterministic.
    let wire_stats = WireStats::new();
    let fabric_stats = FabricStats::new();
    let records_streamed = Counter::new();
    let captures_rejected = Counter::new();

    let mut failed = false;
    // A worker scheduled to crash defers all capture draining: which
    // captures a dying worker managed to flush before the crash is a
    // thread-scheduling race in the real system, and modelling it as "none"
    // is the only choice that keeps outcomes bit-identical across reruns of
    // the same fault plan. If the order stream ends before the crash point
    // is reached, the worker survives and drains everything in the final
    // phase (the capture channel is unbounded, so nothing was lost).
    let doomed = start.fail_after.is_some();

    // Reused across batches: probe byte buffers (one per order slot),
    // the wire's per-probe delivery slots, per-site fabric accumulators,
    // and the outgoing record buffer. Steady state allocates nothing per
    // probe.
    let mut pool: Vec<Vec<u8>> = Vec::new();
    let mut slots: Vec<Option<Delivery>> = Vec::new();
    let mut pending: Vec<Vec<Delivery>> = fabric.iter().map(|_| Vec::new()).collect();
    let mut records: Vec<ProbeRecord> = Vec::new();

    // Probing phase: interleave batch processing with opportunistic capture
    // draining (results stream out while probing is still under way).
    let mut processed_orders = 0usize;
    for batch in orders.iter() {
        // "Crash after N orders" counts *orders*, not batches: truncate the
        // batch at the crash point so the worker dies exactly where it
        // would have in an unbatched stream.
        let take = match start.fail_after {
            Some(limit) => {
                let remaining = limit.saturating_sub(processed_orders);
                if remaining < batch.orders.len() {
                    failed = true;
                }
                remaining.min(batch.orders.len())
            }
            None => batch.orders.len(),
        };

        if take > 0 {
            if pool.len() < take {
                pool.resize_with(take, Vec::new);
            }
            let tx_offset = start.offset_ms * u64::from(start.worker_id);
            for (order, buf) in batch.orders[..take].iter().zip(pool.iter_mut()) {
                let prefix = PrefixKey::of(order.target);
                tracer.record_for(Component::Worker, prefix, || TraceEvent::ProbeSent {
                    prefix,
                    worker: start.worker_id,
                    tx_time_ms: order.window_start_ms + tx_offset,
                });
                let meta = ProbeMeta {
                    measurement_id: start.measurement_id,
                    worker_id: start.worker_id,
                    tx_time_ms: order.window_start_ms + tx_offset,
                };
                build_probe_into(
                    start.src_addr,
                    order.target,
                    start.protocol,
                    &meta,
                    start.encoding,
                    buf,
                );
            }
            let probes: Vec<BatchProbe<'_>> = batch.orders[..take]
                .iter()
                .zip(pool.iter())
                .map(|(order, bytes)| BatchProbe {
                    dst: order.target,
                    bytes,
                    tx_time_ms: order.window_start_ms + tx_offset,
                    window_start_ms: order.window_start_ms,
                    // The threaded pipeline keeps the full byte round-trip:
                    // it is the process-shaped reference the zero-copy
                    // sharded path is validated against.
                    meta: None,
                })
                .collect();
            world
                .send_probe_batch(
                    &mut session,
                    start.src_addr,
                    start.protocol,
                    &probes,
                    &ctx,
                    &wire_stats,
                    &mut slots,
                )
                .map_err(WorkerError::Wire)?;
            processed_orders += take;

            for delivery in slots.drain(..).flatten() {
                let verdict = start.fabric_faults.map_or(FabricVerdict::Deliver, |f| {
                    f.verdict_observed(&delivery, &fabric_stats)
                });
                if verdict != FabricVerdict::Deliver {
                    // Only faults are recorded: a reply with no FabricFault
                    // event passed through the fabric untouched.
                    let prefix = PrefixKey::of(delivery.packet.src);
                    tracer.record_for(Component::Fabric, prefix, || TraceEvent::FabricFault {
                        prefix,
                        tx_worker: start.worker_id,
                        rx_worker: u16::try_from(delivery.rx_index).unwrap_or(u16::MAX),
                        rx_time_ms: delivery.rx_time_ms,
                        kind: if verdict == FabricVerdict::Drop {
                            FabricFaultKind::Dropped
                        } else {
                            FabricFaultKind::Duplicated
                        },
                    });
                }
                if verdict == FabricVerdict::Drop {
                    continue;
                }
                let rx = delivery.rx_index;
                if rx == usize::from(start.worker_id) && rx < fabric.len() && !doomed {
                    // Self-delivery: this worker is its own capture site, so
                    // skip the fabric round-trip and validate in place.
                    if verdict == FabricVerdict::Duplicate {
                        process_capture(
                            &delivery,
                            start.measurement_id,
                            start.worker_id,
                            &mut records,
                            &records_streamed,
                            &captures_rejected,
                            &tracer,
                        );
                    }
                    process_capture(
                        &delivery,
                        start.measurement_id,
                        start.worker_id,
                        &mut records,
                        &records_streamed,
                        &captures_rejected,
                        &tracer,
                    );
                } else if let Some(p) = pending.get_mut(rx) {
                    if verdict == FabricVerdict::Duplicate {
                        p.push(delivery.clone());
                    }
                    p.push(delivery);
                }
            }
            // One fabric send per (batch, receiving site) with captures.
            for (p, s) in pending.iter_mut().zip(&fabric) {
                if !p.is_empty() {
                    forward(s, std::mem::take(p));
                }
            }
        }

        if failed {
            break;
        }
        if !doomed {
            while let Ok(caps) = captures.try_recv() {
                for d in &caps {
                    process_capture(
                        d,
                        start.measurement_id,
                        start.worker_id,
                        &mut records,
                        &records_streamed,
                        &captures_rejected,
                        &tracer,
                    );
                }
            }
        }
        if records.len() >= RECORD_FLUSH {
            flush_records(&mut records, &out);
        }
    }

    // "Crash after N orders" fires once the worker has processed N orders,
    // even when the stream closed right at that point rather than
    // delivering an N+1-th order (otherwise a crash scheduled exactly at
    // the end of the hitlist would silently never happen).
    if !failed
        && start
            .fail_after
            .is_some_and(|limit| processed_orders >= limit)
    {
        failed = true;
    }

    // A failed worker vanishes: it neither probes nor captures further.
    drop(fabric);
    let telemetry = |records_streamed: u64, captures_rejected: u64| WorkerTelemetry {
        probes_sent: wire_stats.probes.get(),
        replies_delivered: wire_stats.deliveries.get(),
        unanswered: wire_stats.unanswered.get(),
        fabric_dropped: fabric_stats.dropped.get(),
        fabric_duplicated: fabric_stats.duplicated.get(),
        records_streamed,
        captures_rejected,
    };
    if failed {
        flush_records(&mut records, &out);
        // laces-lint: allow(discarded-fallibility) — lifecycle event on a channel the aborting CLI may already have closed; the failure is also visible through the worker's silence
        let _ = out.send(WorkerOut::Event(WorkerEvent::Failed {
            worker: start.worker_id,
            telemetry: telemetry(records_streamed.get(), captures_rejected.get()),
            cause: WorkerFailure::Crash,
        }));
        return Ok(());
    }

    // Capture phase: drain until every worker has dropped its senders.
    for caps in captures.iter() {
        for d in &caps {
            process_capture(
                d,
                start.measurement_id,
                start.worker_id,
                &mut records,
                &records_streamed,
                &captures_rejected,
                &tracer,
            );
        }
        if records.len() >= RECORD_FLUSH {
            flush_records(&mut records, &out);
        }
    }
    flush_records(&mut records, &out);
    // laces-lint: allow(discarded-fallibility) — lifecycle event on a channel the aborting CLI may already have closed; a lost Done only matters to a consumer that chose to stop listening
    let _ = out.send(WorkerOut::Event(WorkerEvent::Done {
        worker: start.worker_id,
        telemetry: telemetry(records_streamed.get(), captures_rejected.get()),
    }));
    Ok(())
}

/// Forward a capture batch into a site's queue. A send can only fail if
/// the receiving worker crashed; the replies are then lost with it, like
/// packets to a dead site.
fn forward(s: &Sender<Vec<Delivery>>, d: Vec<Delivery>) {
    match s.try_send(d) {
        Ok(()) | Err(TrySendError::Disconnected(_)) => {}
        Err(TrySendError::Full(d)) => {
            // laces-lint: allow(discarded-fallibility) — a failed send means the receiving worker crashed between try_send and send; its replies are lost with it, like packets to a dead site
            let _ = s.send(d);
        }
    }
}
