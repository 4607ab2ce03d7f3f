//! The Orchestrator component.
//!
//! The Orchestrator is the central controller: it seals start orders for
//! every Worker, streams the hitlist to them at the configured rate
//! (buffering it so workers never hold it, R10), collects the result
//! stream, and survives worker failures by completing the measurement with
//! the remaining workers (R5).
//!
//! Two pipelines implement the same contract:
//!
//! * **Sharded** ([`run_measurement`]) — the default. The hitlist is split
//!   into `spec.shards` deterministic contiguous slices; each shard runs
//!   the stream → probe → capture chain *inline* with its own per-worker
//!   [`ProbeSession`]s, batch accumulators and capture accumulator, and
//!   the accumulators are combined exactly once at seal time. No
//!   channels, no cross-shard locks on the hot path. The capture step
//!   folds each validated reply into the accumulator the entry point
//!   chose: [`run_measurement`] keeps every record in a [`RecordArena`];
//!   [`run_classified`] (the census day's passes) folds them into a
//!   per-target table and returns the classification without ever
//!   building, sorting or re-reading a record vector.
//! * **Threaded** ([`run_measurement_threaded`]) — the process-shaped
//!   reference: each Worker is an OS thread and the streams are
//!   `crossbeam` channels, which mirrors the real system's concurrency
//!   structure (streaming, backpressure, failure isolation).
//!
//! Both produce bit-identical outcomes for abort-free fault plans, and the
//! sharded pipeline additionally produces byte-identical records,
//! classification inputs, telemetry and trace exports across shard counts:
//! every per-order decision (rate window, fault cutoffs, RNG draws, trace
//! sampling) is a pure function of the order's *global hitlist index* and
//! per-probe coordinates, never of shard layout or thread interleaving,
//! and records are canonically re-sorted at seal time. The only
//! shard-dependent outputs are quarantined in
//! [`MeasurementOutcome::shard_report`] and the opt-in
//! [`TraceEvent::ShardSpan`] events.
//!
//! Every run assembles a [`RunReport`]: aggregate and per-worker counters,
//! the RTT distribution, a stage timing on the simulated clock, and the
//! typed degradation events. For abort-free fault plans the report is
//! bit-identical across reruns (see `laces-obs` for the rules that make
//! that hold).

use std::net::IpAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam::channel;
use laces_netsim::wire::{BatchProbe, FabricVerdict, MeasurementCtx, ProbeSource};
use laces_netsim::{platform as plat, Delivery, FabricStats, ProbeSession, WireStats, World};
use laces_obs::{
    metrics, names, Counter, DegradedReason, Histogram, RunReport, ShardStages, SimClock,
    StageTimer,
};
use laces_packet::probe::{attribute_prepared, parse_reply, ProbeMeta};
use laces_packet::{IpVersion, PrefixKey};
use laces_trace::{Component, FabricFaultKind, OrderFaultCause, TraceEvent, TraceReport, Tracer};

use crate::auth::{AuthKey, Sealed};
use crate::classify::{AnycastClassification, ClassTable};
use crate::error::MeasurementError;
use crate::rate::window_start_ms;
use crate::results::{
    Accumulate, ClassifiedOutcome, MeasurementOutcome, ProbeRecord, RecordArena, WorkerEvent,
    WorkerFailure, WorkerHealth, WorkerStatus, WorkerTelemetry,
};
use crate::spec::MeasurementSpec;
use crate::worker::{run_worker, ProbeBatch, ProbeOrder, StartOrder, WorkerOut};

/// How many orders may queue per worker before the hitlist stream blocks
/// (the paper's Orchestrator buffers the hitlist and streams it; workers
/// keep only a small in-flight window). Threaded pipeline only.
const ORDER_QUEUE: usize = 4_096;

/// Probe-batch size: how many orders the Orchestrator groups into one
/// frame per worker — one channel send on the threaded pipeline, one
/// `World::send_probe_batch` call on either. Tuned when batching landed:
/// 256 amortizes channel wakeups and fabric flushes into large frames
/// while the in-flight window per worker stays modest; larger sizes
/// measured flat to slightly worse. Framing only: every per-order
/// decision is keyed on the order's global hitlist index, never on the
/// frame it travels in.
const BATCH_SIZE: usize = 256;

/// Measurement ids with this bit set are reserved for the internal
/// precheck pass of [`run_with_precheck`]; user measurements must stay
/// below it. The explicit partition guarantees a precheck can never share
/// an id with any user measurement (two measurements sharing an id would
/// accept each other's replies).
pub const PRECHECK_ID_BIT: u32 = 0x8000_0000;

/// Worker index → wire id. Worker counts are validated to `1..=64` before
/// any conversion, so this can never truncate; the fallback value only
/// satisfies the type without an `as`-cast on an identifier (laces-lint
/// R7 keeps id conversions checked).
fn worker_wire_id(w: usize) -> u16 {
    u16::try_from(w).unwrap_or(u16::MAX)
}

/// Run a measurement to completion and aggregate the result stream.
///
/// # Errors
///
/// [`MeasurementError::NotAnycast`] when the spec's platform is a unicast
/// VP platform, [`MeasurementError::WorkerCount`] when the platform's
/// worker count cannot be attributed by the probe encodings (1..=64),
/// [`MeasurementError::InvalidRate`] / [`MeasurementError::InvalidShardCount`]
/// when a hand-built spec bypassed the builder with a zero rate or zero
/// shard count.
pub fn run_measurement(
    world: &Arc<World>,
    spec: &MeasurementSpec,
) -> Result<MeasurementOutcome, MeasurementError> {
    run_measurement_abortable(world, spec, &AbortHandle::new())
}

/// Run a measurement and classify its replies as they are captured: the
/// census day's entry point. Each shard folds its validated replies into
/// a table indexed by hitlist position (receiving-worker mask, response
/// count, CHAOS identities when present); the tables are folded by prefix
/// once at seal. No per-reply records are built, so none are merged,
/// sorted or re-read.
///
/// The result equals [`AnycastClassification::from_outcome_traced`] of
/// [`run_measurement`]'s outcome for the same spec, with the same
/// classification events in `classify_tracer`, and the telemetry and
/// measurement trace are byte-identical to that outcome's.
///
/// # Errors
///
/// As [`run_measurement`].
pub fn run_classified(
    world: &Arc<World>,
    spec: &MeasurementSpec,
    classify_tracer: &Tracer,
) -> Result<ClassifiedOutcome, MeasurementError> {
    let (tables, report) = run_sharded(world, spec, &AbortHandle::new(), |lo, hi| {
        ClassTable::new(lo, hi, classify_tracer.clone())
    })?;
    let PassReport {
        probes_sent,
        worker_health,
        telemetry,
        trace_report,
        ..
    } = report;
    Ok(ClassifiedOutcome {
        classification: AnycastClassification::from_tables(&tables, &spec.targets, classify_tracer),
        probes_sent,
        worker_health,
        telemetry,
        trace_report,
    })
}

/// A cancellation handle for a running measurement (R5: "Disconnecting the
/// CLI can be used to cancel incorrect measurements"). Cloneable; setting
/// it stops the Orchestrator's hitlist stream, after which workers finish
/// their in-flight probes, drain captures, and report normally — no
/// unnecessary probes are sent (R3).
#[derive(Debug, Clone, Default)]
pub struct AbortHandle(Arc<std::sync::atomic::AtomicBool>);

impl AbortHandle {
    /// A fresh, un-triggered handle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cancel the measurement (idempotent).
    pub fn abort(&self) {
        self.0.store(true, std::sync::atomic::Ordering::Release);
    }

    /// Whether cancellation was requested.
    pub fn is_aborted(&self) -> bool {
        self.0.load(std::sync::atomic::Ordering::Acquire)
    }
}

/// Merge one worker's telemetry into the run report under the per-worker
/// namespace and the aggregate counters.
fn merge_worker_telemetry(report: &mut RunReport, worker: u16, t: &WorkerTelemetry) {
    let w = usize::from(worker);
    report.inc(
        &names::per_worker(names::worker::PROBES_SENT, w),
        t.probes_sent,
    );
    report.inc(
        &names::per_worker(names::worker::RECORDS_STREAMED, w),
        t.records_streamed,
    );
    report.inc(
        &names::per_worker(names::worker::CAPTURES_REJECTED, w),
        t.captures_rejected,
    );
    report.inc(names::worker::PROBES_SENT, t.probes_sent);
    report.inc(names::worker::RECORDS_STREAMED, t.records_streamed);
    report.inc(names::worker::CAPTURES_REJECTED, t.captures_rejected);
    report.inc(names::fabric::REPLIES_DELIVERED, t.replies_delivered);
    report.inc(names::fabric::UNANSWERED, t.unanswered);
    report.inc(names::fabric::DROPPED, t.fabric_dropped);
    report.inc(names::fabric::DUPLICATED, t.fabric_duplicated);
}

/// Validate the spec against the platform and return the worker count.
fn validated_workers(world: &World, spec: &MeasurementSpec) -> Result<usize, MeasurementError> {
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
    // The builder rejects these up front; hand-built specs that bypassed it
    // are rejected here rather than silently repaired (the old 0 → 1
    // rate clamp turned misconfigured censuses into 10 000× slower ones).
    if spec.rate_per_s == 0 {
        return Err(MeasurementError::InvalidRate);
    }
    if spec.shards == 0 {
        return Err(MeasurementError::InvalidShardCount);
    }
    Ok(n_workers)
}

/// The run-level gauges every pipeline records before streaming.
fn base_telemetry(spec: &MeasurementSpec, n_workers: usize, span_ms: u64) -> RunReport {
    let mut telemetry = RunReport::new();
    telemetry.set_gauge(names::orchestrator::N_WORKERS, n_workers as u64);
    telemetry.set_gauge(names::orchestrator::N_TARGETS, spec.targets.len() as u64);
    telemetry.set_gauge(names::orchestrator::SPAN_MS, span_ms);
    telemetry.set_gauge(names::orchestrator::RATE_PER_S, u64::from(spec.rate_per_s));
    telemetry.set_gauge(
        names::orchestrator::PROBE_BUDGET,
        spec.probe_budget(n_workers),
    );
    if let Some(fabric) = &spec.faults.fabric {
        // Planned fabric fault rates, in permille, next to the observed
        // fabric.dropped / fabric.duplicated counters.
        telemetry.set_gauge(
            names::fabric::PLANNED_DROP_PERMILLE,
            (fabric.drop_rate * 1000.0) as u64,
        );
        telemetry.set_gauge(
            names::fabric::PLANNED_DUP_PERMILLE,
            (fabric.dup_rate * 1000.0) as u64,
        );
    }
    telemetry
}

/// The complete (and cheap) measurement over an empty hitlist: spawning a
/// platform of workers — or shards — to stream zero orders would only burn
/// threads. Prechecks over fully-unresponsive target sets hit this path.
/// The fault plan still applies where it would with real workers: start
/// orders are authenticated before any probing, so seal rejections fail
/// their workers even here, and a crash scheduled after zero orders fires
/// with zero orders delivered; later crashes and order-channel faults need
/// deliveries that never happen.
fn empty_hitlist_report(
    spec: &MeasurementSpec,
    n_workers: usize,
    mut telemetry: RunReport,
    tracer: &Tracer,
) -> PassReport {
    let worker_health: Vec<WorkerHealth> = (0..n_workers)
        .map(|w| {
            let w = worker_wire_id(w);
            let status = if spec.faults.rejects_seal(w) {
                telemetry.inc(names::orchestrator::SEAL_REJECTIONS, 1);
                telemetry.add_degraded(DegradedReason::SealRejected { worker: w });
                tracer.record(Component::Control, || TraceEvent::WorkerFault {
                    worker: w,
                    cause: "seal rejected".into(),
                    after_probes: 0,
                });
                WorkerStatus::Failed
            } else if spec.faults.crash_after(w) == Some(0) {
                telemetry.add_degraded(DegradedReason::WorkerCrashed { worker: w });
                tracer.record(Component::Control, || TraceEvent::WorkerFault {
                    worker: w,
                    cause: "crash".into(),
                    after_probes: 0,
                });
                WorkerStatus::Failed
            } else {
                WorkerStatus::Completed
            };
            WorkerHealth {
                worker: w,
                status,
                probes_sent: 0,
            }
        })
        .collect();
    let failed_workers: Vec<u16> = worker_health
        .iter()
        .filter(|h| h.status == WorkerStatus::Failed)
        .map(|h| h.worker)
        .collect();
    PassReport {
        n_workers,
        probes_sent: 0,
        failed_workers,
        worker_health,
        telemetry,
        shard_report: RunReport::new(),
        trace_report: tracer.snapshot(""),
    }
}

/// The anycast source address for the spec's target family. The family of
/// the measurement follows the first target (hitlists are single-family);
/// the platform announces both an IPv4 and IPv6 prefix.
fn platform_src_addr(spec: &MeasurementSpec) -> IpAddr {
    let family = spec
        .targets
        .first()
        .map(|a| IpVersion::of(*a))
        .unwrap_or(IpVersion::V4);
    match family {
        IpVersion::V4 => plat::anycast_src_v4(spec.platform),
        IpVersion::V6 => plat::anycast_src_v6(spec.platform),
    }
}

/// Everything a pipeline hands to the shared epilogue.
struct RunTotals {
    probes_sent: u64,
    failed_workers: Vec<u16>,
    worker_health: Vec<WorkerHealth>,
    telemetry: RunReport,
    shard_report: RunReport,
    orders_streamed: u64,
    rate_limiter_stalls: u64,
    /// Validated captures kept (the record path's record count).
    records_collected: u64,
    /// RTTs of the kept captures, observed as they were captured.
    rtts: Histogram,
}

/// What a finished pass reports about itself, whichever accumulator its
/// captures went to.
struct PassReport {
    n_workers: usize,
    probes_sent: u64,
    failed_workers: Vec<u16>,
    worker_health: Vec<WorkerHealth>,
    telemetry: RunReport,
    shard_report: RunReport,
    trace_report: TraceReport,
}

impl PassReport {
    /// The record path's outcome: `records` (a multiset) in canonical
    /// order. Shards (or worker threads) race to the result stream, so the
    /// arrival order is scheduler noise; sorting makes equal runs
    /// serialise identically (fault plans are replayable bit-for-bit).
    fn into_outcome(
        self,
        spec: &MeasurementSpec,
        mut records: Vec<ProbeRecord>,
    ) -> MeasurementOutcome {
        sort_canonical(&mut records);
        let PassReport {
            n_workers,
            probes_sent,
            failed_workers,
            worker_health,
            telemetry,
            shard_report,
            trace_report,
        } = self;
        MeasurementOutcome {
            measurement_id: spec.id,
            platform: spec.platform,
            protocol: spec.protocol,
            n_workers,
            probes_sent,
            n_targets: spec.targets.len(),
            records,
            failed_workers,
            worker_health,
            telemetry,
            shard_report,
            trace_report,
        }
    }
}

/// The shared measurement epilogue: stream counters, abort accounting,
/// the RTT distribution and the stage span — identical for every pipeline
/// and accumulator so their reports stay comparable field by field.
fn seal_report(
    spec: &MeasurementSpec,
    n_workers: usize,
    span_ms: u64,
    abort: &AbortHandle,
    tracer: &Tracer,
    totals: RunTotals,
) -> PassReport {
    let RunTotals {
        probes_sent,
        mut failed_workers,
        worker_health: mut health,
        mut telemetry,
        shard_report,
        orders_streamed,
        rate_limiter_stalls,
        records_collected,
        rtts,
    } = totals;
    failed_workers.sort_unstable();
    health.sort_unstable_by_key(|h| h.worker);

    telemetry.inc(names::orchestrator::ORDERS_STREAMED, orders_streamed);
    telemetry.inc(
        names::orchestrator::RATE_LIMITER_STALLS,
        rate_limiter_stalls,
    );
    telemetry.inc(names::orchestrator::RECORDS_COLLECTED, records_collected);
    if abort.is_aborted() {
        telemetry.inc(names::orchestrator::ABORTS, 1);
        telemetry.add_degraded(DegradedReason::Aborted);
    }
    // The RTT distribution of the kept captures: a multiset, so the
    // capture order cannot show.
    telemetry.record_histogram(names::worker::RTT_MS, rtts.snapshot());
    // Stage timing on the simulated clock: the probing phase spans the
    // rate-limited hitlist stream plus the last worker's offset window
    // (R6's quantity, per measurement).
    let mut clock = SimClock::new();
    let mut stage = StageTimer::start(format!("measurement:{:?}", spec.protocol), &clock);
    stage.count("targets", spec.targets.len() as u64);
    stage.count("probes_sent", probes_sent);
    let sim_ms = window_start_ms(spec.targets.len().saturating_sub(1), spec.rate_per_s) + span_ms;
    clock.advance(sim_ms);
    telemetry.push_stage(stage.finish(&clock));
    tracer.record(Component::Control, || TraceEvent::StageSpan {
        name: format!("measurement:{:?}", spec.protocol),
        start_ms: 0,
        sim_ms,
    });

    PassReport {
        n_workers,
        probes_sent,
        failed_workers,
        worker_health: health,
        telemetry,
        shard_report,
        trace_report: tracer.snapshot(""),
    }
}

/// The canonical record sort shared by both pipelines.
pub(crate) fn sort_canonical(records: &mut [ProbeRecord]) {
    records.sort_unstable_by(|a, b| {
        (
            a.prefix,
            a.tx_worker,
            a.rx_worker,
            a.tx_time_ms,
            a.rx_time_ms,
        )
            .cmp(&(
                b.prefix,
                b.tx_worker,
                b.rx_worker,
                b.tx_time_ms,
                b.rx_time_ms,
            ))
    });
}

// ---------------------------------------------------------------------------
// Sharded pipeline
// ---------------------------------------------------------------------------

/// How a shard disposes of a delivery addressed to worker `rx`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CaptureMode {
    /// The worker cannot fail: validate the capture inline.
    Live,
    /// The worker is scheduled to crash: whether its captures survive
    /// depends on whether the crash point is actually reached, which is
    /// only known once the stream ends. Buffer them; a surviving worker
    /// drains the buffer in the final phase, a crashed one loses it —
    /// exactly the threaded pipeline's deferred-drain semantics.
    Deferred,
    /// The worker's start order failed authentication: it never runs, and
    /// deliveries to it vanish like packets to a dead site.
    Lost,
}

/// Per-worker fault cutoffs, precomputed on *global hitlist indices* so
/// every shard applies identical per-order semantics to its slice. The
/// k-th order a worker receives is always the k-th index of its eligible
/// range, so "delay N", "close after N" and "crash after N orders" are all
/// pure index arithmetic — canonical order, not per-shard arrival order.
#[derive(Debug, Clone)]
struct WorkerPlan {
    /// Whether the worker transmits probes (sender restriction).
    sender: bool,
    /// The worker's start order failed authentication (R8).
    seal_rejected: bool,
    /// Crash-after-N-orders limit, if scheduled.
    crash_limit: Option<usize>,
    /// Global indices `i < delay` are delay-faulted (order lost).
    delay: usize,
    /// Global indices `i >= close_at` are closed-channel-faulted.
    close_at: usize,
    /// Global indices `i >= probe_end` are issued but never probed (the
    /// worker is past its crash point or never started).
    probe_end: usize,
    /// Capture disposition for deliveries addressed to this worker.
    capture: CaptureMode,
}

impl WorkerPlan {
    fn of(spec: &MeasurementSpec, world: &World, wid: u16, src_addr: IpAddr, span_ms: u64) -> Self {
        let sender = spec.is_sender(wid);
        // Authentication is exercised for real, exactly as the threaded
        // pipeline does: seal a start order (under a corrupted key when the
        // fault plan says so) and try to open it with the worker's key.
        let key = AuthKey::derive(world.cfg.seed ^ u64::from(spec.id));
        let seal_key = if spec.faults.rejects_seal(wid) {
            AuthKey::derive(world.cfg.seed ^ u64::from(spec.id) ^ 0x0BAD_5EA1)
        } else {
            key
        };
        let start = StartOrder {
            measurement_id: spec.id,
            platform: spec.platform,
            worker_id: wid,
            protocol: spec.protocol,
            encoding: spec.encoding,
            offset_ms: spec.offset_ms,
            span_ms,
            day: spec.day,
            src_addr,
            fail_after: spec.faults.crash_after(wid),
            fabric_faults: spec.faults.fabric,
        };
        let seal_rejected = Sealed::seal(seal_key, start).open(key).is_none();
        let crash_limit = if seal_rejected {
            None
        } else {
            spec.faults.crash_after(wid)
        };
        let (delay, close_after) = match spec.faults.order_fault(wid) {
            Some(f) => (f.delay_orders, f.close_after),
            None => (0, None),
        };
        let close_at = close_after.map_or(usize::MAX, |c| delay.saturating_add(c));
        let probe_end = if seal_rejected || !sender {
            0
        } else {
            crash_limit.map_or(usize::MAX, |l| delay.saturating_add(l))
        };
        let capture = if seal_rejected {
            CaptureMode::Lost
        } else if spec.faults.crash_after(wid).is_some() {
            CaptureMode::Deferred
        } else {
            CaptureMode::Live
        };
        WorkerPlan {
            sender,
            seal_rejected,
            crash_limit,
            delay,
            close_at,
            probe_end,
            capture,
        }
    }
}

/// Everything a shard borrows from the run, shared read-only across
/// shards.
struct ShardCtx<'a> {
    world: &'a World,
    spec: &'a MeasurementSpec,
    plans: &'a [WorkerPlan],
    src_addr: IpAddr,
    ctx: MeasurementCtx,
    tracer: &'a Tracer,
    abort: &'a AbortHandle,
    accepted: &'a AtomicUsize,
}

/// The capture step: validates each delivery, folds the accepted ones
/// into the shard's accumulator and keeps the per-worker rx-side counters
/// and the RTT distribution, wired to the shared abort trigger.
struct CaptureSink<'a, A> {
    measurement_id: u32,
    acc: A,
    records_streamed: Vec<u64>,
    captures_rejected: Vec<u64>,
    rtts: Histogram,
    abort_after: Option<usize>,
    accepted: &'a AtomicUsize,
    abort: &'a AbortHandle,
    tracer: &'a Tracer,
}

impl<'a, A: Accumulate> CaptureSink<'a, A> {
    fn new(cx: &ShardCtx<'a>, n_workers: usize, acc: A) -> Self {
        CaptureSink {
            measurement_id: cx.spec.id,
            acc,
            records_streamed: vec![0; n_workers],
            captures_rejected: vec![0; n_workers],
            rtts: Histogram::new(&metrics::RTT_BUCKETS_MS),
            abort_after: cx.spec.faults.abort_after_records,
            accepted: cx.accepted,
            abort: cx.abort,
            tracer: cx.tracer,
        }
    }

    /// Validate one capture at worker `rx` of the reply from the target at
    /// hitlist position `pos`, and fold it into the accumulator — the
    /// inline analogue of the threaded worker's capture filter.
    fn capture(&mut self, d: &Delivery, rx: usize, pos: usize) {
        let rx_worker = worker_wire_id(rx);
        let prefix = PrefixKey::of(d.packet.src);
        // Fast-path deliveries carry pre-parsed attribution; resolving it
        // is bit-identical to parsing the reply bytes (see
        // `attribute_prepared`), so both arms validate the same way.
        let parsed = match &d.reply {
            Some(p) => attribute_prepared(d.packet.protocol, p, self.measurement_id, d.rx_time_ms),
            None => parse_reply(&d.packet, self.measurement_id, d.rx_time_ms),
        };
        if let Ok(info) = parsed {
            self.tracer
                .record_for(Component::Capture, prefix, || TraceEvent::Captured {
                    prefix,
                    rx_worker,
                    rx_time_ms: d.rx_time_ms,
                    accepted: true,
                    chaos_identity: info.chaos_identity.as_deref().map(str::to_string),
                });
            let record = ProbeRecord {
                prefix,
                protocol: info.protocol,
                rx_worker,
                tx_worker: info.tx_worker,
                tx_time_ms: info.tx_time_ms,
                rx_time_ms: d.rx_time_ms,
                chaos_identity: info.chaos_identity,
            };
            if let Some(rtt) = record.rtt_ms() {
                self.rtts.observe(rtt);
            }
            self.acc.fold(pos, record);
            self.records_streamed[rx] += 1;
            if let Some(limit) = self.abort_after {
                // Mid-stream abort fault: the CLI disconnects once `limit`
                // records were accepted run-wide, but everything collected
                // so far is kept.
                if self.accepted.fetch_add(1, Ordering::AcqRel) + 1 >= limit {
                    self.abort.abort();
                }
            }
        } else {
            self.tracer
                .record_for(Component::Capture, prefix, || TraceEvent::Captured {
                    prefix,
                    rx_worker,
                    rx_time_ms: d.rx_time_ms,
                    accepted: false,
                    chaos_identity: None,
                });
            self.captures_rejected[rx] += 1;
        }
    }
}

/// Per-(shard, worker) transmit state: the resolved route session, wire
/// and fabric stats, and the batch accumulator of `(hitlist position,
/// order)` pairs. `batch[..probed]` is the prefix that is actually
/// transmitted (orders past the worker's crash point are issued and
/// counted but never probed — matching a worker that died with orders
/// still queued).
struct ShardWorker {
    wid: u16,
    session: Option<ProbeSession>,
    wire: WireStats,
    fabric: FabricStats,
    batch: Vec<(usize, ProbeOrder)>,
    probed: usize,
}

/// What one shard reports back to the merge.
struct ShardOutput<'a, A> {
    index: usize,
    lo: usize,
    hi: usize,
    /// The shard's capture step, holding its accumulator and rx-side
    /// counters; deferred captures are drained into it at seal.
    sink: CaptureSink<'a, A>,
    /// Per-worker tx-side telemetry (rx-side fields zero).
    tx: Vec<WorkerTelemetry>,
    /// Deliveries buffered for crash-scheduled workers, per worker, with
    /// the hitlist position of the probed target.
    deferred: Vec<Vec<(usize, Delivery)>>,
    /// Eligible orders issued per worker (the crash-limit denominator).
    issued: Vec<u64>,
    orders_streamed: u64,
    rate_limiter_stalls: u64,
    probes_sent: u64,
}

/// The contiguous slice of shard `s` out of `shards` over `n` targets:
/// sizes differ by at most one, earlier shards take the remainder.
fn shard_bounds(n: usize, shards: usize, s: usize) -> (usize, usize) {
    let base = n / shards;
    let rem = n % shards;
    let lo = s * base + s.min(rem);
    let hi = lo + base + usize::from(s < rem);
    (lo, hi)
}

/// Run one shard of the hitlist stream inline: per-order fault semantics,
/// batch accumulation, wire transmission, fabric verdicts and capture
/// validation, all against the shard's own sessions and accumulator `acc`.
fn run_shard<'a, A: Accumulate>(
    cx: &ShardCtx<'a>,
    index: usize,
    lo: usize,
    hi: usize,
    acc: A,
) -> ShardOutput<'a, A> {
    let spec = cx.spec;
    let n_workers = cx.plans.len();
    let mut workers: Vec<ShardWorker> = (0..n_workers)
        .map(|w| {
            let plan = &cx.plans[w];
            let session = if plan.sender && !plan.seal_rejected {
                let mut s = cx.world.probe_session(ProbeSource::Worker {
                    platform: spec.platform,
                    site: w,
                });
                s.attach_tracer(cx.tracer.clone());
                Some(s)
            } else {
                None
            };
            ShardWorker {
                wid: worker_wire_id(w),
                session,
                wire: WireStats::new(),
                fabric: FabricStats::new(),
                batch: Vec::new(),
                probed: 0,
            }
        })
        .collect();
    let mut sink = CaptureSink::new(cx, n_workers, acc);
    let mut deferred: Vec<Vec<(usize, Delivery)>> = (0..n_workers).map(|_| Vec::new()).collect();
    let mut issued = vec![0u64; n_workers];
    let mut orders_streamed = 0u64;
    let mut slots: Vec<Option<Delivery>> = Vec::new();

    // One closure-free flush path, shared by the batch-boundary and tail
    // flushes: count the whole batch as issued (orders past a crash point
    // were still streamed), transmit the probed prefix, apply fabric
    // verdicts and dispose of the deliveries per the rx worker's capture
    // mode. The wire returns one slot per probe, which pairs each
    // delivery with its order's hitlist position.
    macro_rules! flush {
        ($w:expr) => {{
            let w: usize = $w;
            let ws = &mut workers[w];
            if !ws.batch.is_empty() {
                orders_streamed += ws.batch.len() as u64;
                issued[w] += ws.batch.len() as u64;
                let take = ws.probed;
                if take > 0 {
                    let tx_offset = spec.offset_ms * u64::from(ws.wid);
                    for (_, order) in &ws.batch[..take] {
                        let prefix = PrefixKey::of(order.target);
                        let wid = ws.wid;
                        cx.tracer
                            .record_for(Component::Worker, prefix, || TraceEvent::ProbeSent {
                                prefix,
                                worker: wid,
                                tx_time_ms: order.window_start_ms + tx_offset,
                            });
                    }
                    // Zero-copy fast path: the probe's metadata rides the
                    // batch instead of serialized bytes, so neither probe
                    // nor reply packets are materialized — the wire hands
                    // back pre-attributed deliveries with the identical
                    // record outcome.
                    let probes: Vec<BatchProbe<'_>> = ws.batch[..take]
                        .iter()
                        .map(|(_, order)| BatchProbe {
                            dst: order.target,
                            bytes: &[],
                            tx_time_ms: order.window_start_ms + tx_offset,
                            window_start_ms: order.window_start_ms,
                            meta: Some((
                                ProbeMeta {
                                    measurement_id: spec.id,
                                    worker_id: ws.wid,
                                    tx_time_ms: order.window_start_ms + tx_offset,
                                },
                                spec.encoding,
                            )),
                        })
                        .collect();
                    if let Some(session) = ws.session.as_mut() {
                        // laces-lint: allow(discarded-fallibility) — the zero-copy path sends metadata with empty byte slices; the wire's only error source is parsing probe bytes, which this path never does
                        let _ = cx.world.send_probe_batch(
                            session,
                            cx.src_addr,
                            spec.protocol,
                            &probes,
                            &cx.ctx,
                            &ws.wire,
                            &mut slots,
                        );
                    }
                    for (&(pos, _), d) in ws.batch[..take].iter().zip(slots.drain(..)) {
                        let Some(d) = d else { continue };
                        let verdict = spec.faults.fabric.map_or(FabricVerdict::Deliver, |f| {
                            f.verdict_observed(&d, &ws.fabric)
                        });
                        if verdict != FabricVerdict::Deliver {
                            // Only faults are recorded: a reply with no
                            // FabricFault event passed through untouched.
                            let prefix = PrefixKey::of(d.packet.src);
                            let tx_worker = ws.wid;
                            cx.tracer.record_for(Component::Fabric, prefix, || {
                                TraceEvent::FabricFault {
                                    prefix,
                                    tx_worker,
                                    rx_worker: worker_wire_id(d.rx_index),
                                    rx_time_ms: d.rx_time_ms,
                                    kind: if verdict == FabricVerdict::Drop {
                                        FabricFaultKind::Dropped
                                    } else {
                                        FabricFaultKind::Duplicated
                                    },
                                }
                            });
                        }
                        if verdict == FabricVerdict::Drop {
                            continue;
                        }
                        let rx = d.rx_index;
                        match cx.plans.get(rx).map(|p| p.capture) {
                            Some(CaptureMode::Live) => {
                                if verdict == FabricVerdict::Duplicate {
                                    sink.capture(&d, rx, pos);
                                }
                                sink.capture(&d, rx, pos);
                            }
                            Some(CaptureMode::Deferred) => {
                                if verdict == FabricVerdict::Duplicate {
                                    deferred[rx].push((pos, d.clone()));
                                }
                                deferred[rx].push((pos, d));
                            }
                            Some(CaptureMode::Lost) | None => {}
                        }
                    }
                }
                workers[w].batch.clear();
                workers[w].probed = 0;
            }
        }};
    }

    // Stream the shard's slice at the schedule's global rate windows.
    let mut aborted = false;
    for i in lo..hi {
        if cx.abort.is_aborted() {
            // CLI disconnected: stop streaming; accumulated but unsent
            // batches are dropped — the abort cuts the stream at a batch
            // boundary (R3: no unnecessary probes).
            aborted = true;
            break;
        }
        let target = spec.targets[i];
        let window = window_start_ms(i, spec.rate_per_s);
        let prefix = PrefixKey::of(target);
        for w in 0..n_workers {
            let plan = &cx.plans[w];
            // Non-sender workers (single-VP precheck mode) receive no
            // orders but still capture replies.
            if !plan.sender {
                continue;
            }
            let wid = workers[w].wid;
            if i < plan.delay {
                // The channel came up late; early orders are lost in the
                // disconnected stream.
                cx.tracer
                    .record_for(Component::Orchestrator, prefix, || TraceEvent::OrderFault {
                        prefix,
                        worker: wid,
                        cause: OrderFaultCause::Delayed,
                    });
                continue;
            }
            if i >= plan.close_at {
                // Channel closed by the fault plan; the worker completes
                // with what it received.
                cx.tracer
                    .record_for(Component::Orchestrator, prefix, || TraceEvent::OrderFault {
                        prefix,
                        worker: wid,
                        cause: OrderFaultCause::ChannelClosed,
                    });
                continue;
            }
            cx.tracer.record_for(Component::Orchestrator, prefix, || {
                TraceEvent::OrderIssued {
                    prefix,
                    worker: wid,
                    window_start_ms: window,
                }
            });
            let ws = &mut workers[w];
            ws.batch.push((
                i,
                ProbeOrder {
                    target,
                    window_start_ms: window,
                },
            ));
            if i < plan.probe_end {
                ws.probed += 1;
            }
            if ws.batch.len() >= BATCH_SIZE {
                flush!(w);
            }
        }
    }
    // End of slice: flush the partial tail batches (unless aborted — the
    // threaded streamer drops accumulated batches on abort too).
    if !aborted {
        for w in 0..n_workers {
            flush!(w);
        }
    }

    // Stall counting is a pure function of the slice bounds: the number of
    // indices in [lo, hi) whose window opens strictly later than their
    // predecessor's, seeded from the last index *before* the slice so the
    // per-shard counts sum to the single-streamer count. Counting here
    // (rather than inside the loop) keeps the count exact even when an
    // abort cut the loop short — the threaded pipeline's count under abort
    // is scheduler noise anyway, and fault-free runs are what the
    // invariance contract pins.
    let mut rate_limiter_stalls = 0u64;
    let mut prev = if lo == 0 {
        0
    } else {
        window_start_ms(lo - 1, spec.rate_per_s)
    };
    let streamed_hi = if aborted { lo } else { hi };
    for i in lo..streamed_hi {
        let w = window_start_ms(i, spec.rate_per_s);
        if w > prev {
            rate_limiter_stalls += 1;
            prev = w;
        }
    }

    let tx: Vec<WorkerTelemetry> = workers
        .iter()
        .map(|ws| WorkerTelemetry {
            probes_sent: ws.wire.probes.get(),
            replies_delivered: ws.wire.deliveries.get(),
            unanswered: ws.wire.unanswered.get(),
            fabric_dropped: ws.fabric.dropped.get(),
            fabric_duplicated: ws.fabric.duplicated.get(),
            records_streamed: 0,
            captures_rejected: 0,
        })
        .collect();
    let probes_sent = tx.iter().map(|t| t.probes_sent).sum();
    ShardOutput {
        index,
        lo,
        hi,
        sink,
        tx,
        deferred,
        issued,
        orders_streamed,
        rate_limiter_stalls,
        probes_sent,
    }
}

/// [`run_measurement`] with a cancellation handle — the sharded inline
/// pipeline.
///
/// # Errors
///
/// As [`run_measurement`].
pub fn run_measurement_abortable(
    world: &Arc<World>,
    spec: &MeasurementSpec,
    abort: &AbortHandle,
) -> Result<MeasurementOutcome, MeasurementError> {
    let (arenas, report) = run_sharded(world, spec, abort, |_, _| RecordArena::new())?;
    Ok(report.into_outcome(spec, RecordArena::merge(arenas)))
}

/// The sharded pipeline with the caller's capture accumulator: shard `s`
/// folds its validated captures into `new_acc(lo, hi)` for its slice
/// `[lo, hi)`. Returns every shard's accumulator (deferred captures of
/// surviving workers included) and the pass's report.
fn run_sharded<A: Accumulate>(
    world: &Arc<World>,
    spec: &MeasurementSpec,
    abort: &AbortHandle,
    new_acc: impl Fn(usize, usize) -> A + Sync,
) -> Result<(Vec<A>, PassReport), MeasurementError> {
    let n_workers = validated_workers(world, spec)?;
    let span_ms = spec.span_ms(n_workers);
    let tracer = Tracer::new(spec.trace);
    let mut telemetry = base_telemetry(spec, n_workers, span_ms);

    if spec.targets.is_empty() {
        let report = empty_hitlist_report(spec, n_workers, telemetry, &tracer);
        return Ok((Vec::new(), report));
    }

    let src_addr = platform_src_addr(spec);
    let plans: Vec<WorkerPlan> = (0..n_workers)
        .map(|w| WorkerPlan::of(spec, world, worker_wire_id(w), src_addr, span_ms))
        .collect();
    let n = spec.targets.len();
    let shards = spec.shards.min(n).max(1);
    let accepted = AtomicUsize::new(0);
    let cx = ShardCtx {
        world,
        spec,
        plans: &plans,
        src_addr,
        ctx: MeasurementCtx {
            id: spec.id,
            day: spec.day,
            span_ms,
        },
        tracer: &tracer,
        abort,
        accepted: &accepted,
    };

    let mut outs: Vec<ShardOutput<'_, A>> = Vec::with_capacity(shards);
    let mut lost_shards = 0u64;
    if shards == 1 {
        // The single-shard census runs entirely on the calling thread: no
        // spawn, no join, no synchronisation at all.
        outs.push(run_shard(&cx, 0, 0, n, new_acc(0, n)));
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shards)
                .map(|s| {
                    let cx = &cx;
                    let new_acc = &new_acc;
                    let (lo, hi) = shard_bounds(n, shards, s);
                    scope.spawn(move || run_shard(cx, s, lo, hi, new_acc(lo, hi)))
                })
                .collect();
            for (s, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(o) => outs.push(o),
                    Err(_) => {
                        // A panicked shard is a bug, not a modelled fault;
                        // degrade loudly instead of poisoning the scope.
                        lost_shards += 1;
                        telemetry.add_degraded(DegradedReason::Stage {
                            stage: format!("shard.{s:03}"),
                            detail: "shard thread panicked; its slice is missing".into(),
                        });
                    }
                }
            }
        });
    }
    if lost_shards > 0 {
        telemetry.inc(names::orchestrator::SHARD_FAILURES, lost_shards);
    }

    // Crash determination in canonical order: "crash after N orders"
    // counts the orders actually issued to the worker across all shards —
    // global eligible-index arithmetic, not per-shard arrival order.
    let mut delivered = vec![0u64; n_workers];
    for o in &outs {
        for (w, n) in o.issued.iter().enumerate() {
            delivered[w] += n;
        }
    }
    let crash_fires: Vec<bool> = plans
        .iter()
        .enumerate()
        .map(|(w, p)| {
            p.crash_limit
                .is_some_and(|l| delivered[w] >= u64::try_from(l).unwrap_or(u64::MAX))
        })
        .collect();

    // Deferred-capture resolution: a crash-scheduled worker that survived
    // (the stream ended before its crash point) drains its buffered
    // deliveries now, exactly like the threaded worker's final capture
    // phase; a crashed worker loses them with its site. Each shard's
    // deliveries lie in its own slice, so they drain into its own sink.
    for o in &mut outs {
        for (rx, &crashed) in crash_fires.iter().enumerate() {
            let dels = std::mem::take(&mut o.deferred[rx]);
            if crashed {
                continue;
            }
            for (pos, d) in &dels {
                o.sink.capture(d, rx, *pos);
            }
        }
    }

    // Per-worker terminal accounting, in worker order. (The threaded
    // pipeline merges in arrival order; every merge operation is
    // order-independent, so the reports agree.)
    let mut probes_sent = 0u64;
    let mut records_collected = 0u64;
    let mut failed_workers: Vec<u16> = Vec::new();
    let mut worker_health: Vec<WorkerHealth> = Vec::with_capacity(n_workers);
    for (w, plan) in plans.iter().enumerate() {
        let wid = worker_wire_id(w);
        let mut t = WorkerTelemetry::default();
        for o in &outs {
            t.probes_sent += o.tx[w].probes_sent;
            t.replies_delivered += o.tx[w].replies_delivered;
            t.unanswered += o.tx[w].unanswered;
            t.fabric_dropped += o.tx[w].fabric_dropped;
            t.fabric_duplicated += o.tx[w].fabric_duplicated;
            t.records_streamed += o.sink.records_streamed[w];
            t.captures_rejected += o.sink.captures_rejected[w];
        }
        probes_sent += t.probes_sent;
        records_collected += t.records_streamed;
        merge_worker_telemetry(&mut telemetry, wid, &t);
        if plan.seal_rejected {
            tracer.record(Component::Control, || TraceEvent::WorkerFault {
                worker: wid,
                cause: "seal rejected".into(),
                after_probes: t.probes_sent,
            });
            telemetry.inc(names::orchestrator::SEAL_REJECTIONS, 1);
            telemetry.add_degraded(DegradedReason::SealRejected { worker: wid });
            failed_workers.push(wid);
            worker_health.push(WorkerHealth {
                worker: wid,
                status: WorkerStatus::Failed,
                probes_sent: t.probes_sent,
            });
        } else if crash_fires[w] {
            tracer.record(Component::Control, || TraceEvent::WorkerFault {
                worker: wid,
                cause: "crash".into(),
                after_probes: t.probes_sent,
            });
            telemetry.add_degraded(DegradedReason::WorkerCrashed { worker: wid });
            failed_workers.push(wid);
            worker_health.push(WorkerHealth {
                worker: wid,
                status: WorkerStatus::Failed,
                probes_sent: t.probes_sent,
            });
        } else {
            worker_health.push(WorkerHealth {
                worker: wid,
                status: WorkerStatus::Completed,
                probes_sent: t.probes_sent,
            });
        }
    }

    // Shard-layout diagnostics live in their own report: per-shard stage
    // timers plus the shard count, quarantined from the canonical
    // telemetry so the invariance contract stays byte-exact.
    let mut shard_report = RunReport::new();
    shard_report.set_gauge(names::orchestrator::SHARDS, shards as u64);
    let mut stages = ShardStages::new();
    for o in &outs {
        if o.hi == o.lo {
            continue;
        }
        let start_ms = window_start_ms(o.lo, spec.rate_per_s);
        let end_ms = window_start_ms(o.hi - 1, spec.rate_per_s).saturating_add(span_ms);
        stages.record(
            o.index,
            start_ms,
            end_ms.saturating_sub(start_ms),
            &[
                ("targets", (o.hi - o.lo) as u64),
                ("orders_streamed", o.orders_streamed),
                ("probes_sent", o.probes_sent),
            ],
        );
        if spec.trace.shard_spans {
            let shard = worker_wire_id(o.index);
            let (lo64, n64) = (o.lo as u64, (o.hi - o.lo) as u64);
            tracer.record(Component::Control, || TraceEvent::ShardSpan {
                shard,
                start_index: lo64,
                n_targets: n64,
                start_ms,
                sim_ms: end_ms.saturating_sub(start_ms),
            });
        }
    }
    shard_report.push_stage(stages.finish("stream:sharded"));

    let orders_streamed: u64 = outs.iter().map(|o| o.orders_streamed).sum();
    let rate_limiter_stalls: u64 = outs.iter().map(|o| o.rate_limiter_stalls).sum();
    let mut rtts = Histogram::new(&metrics::RTT_BUCKETS_MS);
    let mut accs = Vec::with_capacity(outs.len());
    for o in outs {
        rtts.merge(&o.sink.rtts);
        accs.push(o.sink.acc);
    }

    let report = seal_report(
        spec,
        n_workers,
        span_ms,
        abort,
        &tracer,
        RunTotals {
            probes_sent,
            failed_workers,
            worker_health,
            telemetry,
            shard_report,
            orders_streamed,
            rate_limiter_stalls,
            records_collected,
            rtts,
        },
    );
    Ok((accs, report))
}

// ---------------------------------------------------------------------------
// Threaded pipeline (reference)
// ---------------------------------------------------------------------------

/// Run a measurement on the threaded reference pipeline: one OS thread per
/// worker, `crossbeam` channels for the order stream, capture fabric and
/// result stream — the process-shaped concurrency structure of the real
/// system. Produces outcomes bit-identical to [`run_measurement`] for
/// abort-free fault plans (modulo [`MeasurementOutcome::shard_report`],
/// which it leaves empty); kept as the semantic reference the sharded
/// pipeline is tested against.
///
/// # Errors
///
/// As [`run_measurement`].
pub fn run_measurement_threaded(
    world: &Arc<World>,
    spec: &MeasurementSpec,
) -> Result<MeasurementOutcome, MeasurementError> {
    let abort = &AbortHandle::new();
    let n_workers = validated_workers(world, spec)?;
    let span_ms = spec.span_ms(n_workers);
    let tracer = Tracer::new(spec.trace);
    let mut telemetry = base_telemetry(spec, n_workers, span_ms);

    if spec.targets.is_empty() {
        let report = empty_hitlist_report(spec, n_workers, telemetry, &tracer);
        return Ok(report.into_outcome(spec, Vec::new()));
    }

    let key = AuthKey::derive(world.cfg.seed ^ u64::from(spec.id));
    let src_addr = platform_src_addr(spec);

    // Channels: per-worker bounded order queues; unbounded capture fabric
    // (replies in flight; unbounded rules out cyclic backpressure deadlock);
    // one shared result stream.
    let mut order_txs = Vec::with_capacity(n_workers);
    let mut order_rxs = Vec::with_capacity(n_workers);
    let mut cap_txs = Vec::with_capacity(n_workers);
    let mut cap_rxs = Vec::with_capacity(n_workers);
    // The queue bound is denominated in *orders*: batching the stream must
    // not multiply the per-worker in-flight window by the batch size.
    for _ in 0..n_workers {
        let (ot, or) = channel::bounded::<ProbeBatch>(ORDER_QUEUE / BATCH_SIZE);
        order_txs.push(ot);
        order_rxs.push(or);
        let (ct, cr) = channel::unbounded();
        cap_txs.push(ct);
        cap_rxs.push(cr);
    }
    let (out_tx, out_rx) = channel::unbounded::<WorkerOut>();

    let mut records = Vec::new();
    let mut rtts = Histogram::new(&metrics::RTT_BUCKETS_MS);
    let mut probes_sent = 0u64;
    let mut failed_workers = Vec::new();
    let mut worker_health: Vec<WorkerHealth> = Vec::with_capacity(n_workers);

    // Streamer-side counters, shared by reference with the stream thread
    // inside the scope. Orders-streamed is a plain sum; stalls count the
    // schedule's rate-limiter waits (the points where the next target's
    // window opens strictly later than the previous one's) — derived from
    // the deterministic schedule, not from channel backpressure, which is
    // scheduler noise.
    let orders_streamed = Counter::new();
    let order_stalls = Counter::new();

    std::thread::scope(|scope| {
        for (w, (orders, captures)) in order_rxs.into_iter().zip(cap_rxs).enumerate() {
            let wid = worker_wire_id(w);
            let start = StartOrder {
                measurement_id: spec.id,
                platform: spec.platform,
                worker_id: wid,
                protocol: spec.protocol,
                encoding: spec.encoding,
                offset_ms: spec.offset_ms,
                span_ms,
                day: spec.day,
                src_addr,
                fail_after: spec.faults.crash_after(wid),
                fabric_faults: spec.faults.fabric,
            };
            // A seal-rejection fault seals this worker's order under a key
            // derived from a corrupted seed, so the worker's own key (R8)
            // refuses it.
            let seal_key = if spec.faults.rejects_seal(wid) {
                AuthKey::derive(world.cfg.seed ^ u64::from(spec.id) ^ 0x0BAD_5EA1)
            } else {
                key
            };
            let sealed = Sealed::seal(seal_key, start);
            let fabric = cap_txs.clone();
            let out = out_tx.clone();
            let out_err = out_tx.clone();
            let world = Arc::clone(world);
            let worker_tracer = tracer.clone();
            scope.spawn(move || {
                // A worker whose start order fails authentication never
                // starts; the platform degrades to the remaining workers
                // instead of poisoning the thread scope (R5).
                if run_worker(
                    &world,
                    key,
                    sealed,
                    orders,
                    captures,
                    fabric,
                    out,
                    worker_tracer,
                )
                .is_err()
                {
                    // laces-lint: allow(discarded-fallibility) — failure event on a channel the aborting CLI may already have closed; the degradation is also recorded by the collector's own accounting
                    let _ = out_err.send(WorkerOut::Event(WorkerEvent::Failed {
                        worker: wid,
                        telemetry: WorkerTelemetry::default(),
                        cause: WorkerFailure::SealRejected,
                    }));
                }
            });
        }
        // The orchestrator keeps no capture senders or result senders.
        drop(cap_txs);
        drop(out_tx);

        // Stream the hitlist at the configured rate. Each target is ordered
        // to every worker; a worker that died has a closed queue and is
        // skipped (R5: measurement continues with the remaining workers).
        let stream_abort = abort.clone();
        let orders_streamed = &orders_streamed;
        let order_stalls = &order_stalls;
        let stream_tracer = tracer.clone();
        scope.spawn(move || {
            let mut txs: Vec<Option<_>> = order_txs.into_iter().map(Some).collect();
            let mut sent = vec![0usize; txs.len()];
            // Per-worker batch accumulators: one channel send per
            // `BATCH_SIZE` orders instead of one per target. Fault
            // semantics stay per-order — delays and closes are applied to
            // individual orders before they enter a batch.
            let mut pending: Vec<Vec<ProbeOrder>> = txs.iter().map(|_| Vec::new()).collect();
            let flush =
                |w: usize, pending: &mut Vec<Vec<ProbeOrder>>, tx: &channel::Sender<ProbeBatch>| {
                    if pending[w].is_empty() {
                        return;
                    }
                    let orders = std::mem::take(&mut pending[w]);
                    orders_streamed.add(orders.len() as u64);
                    // laces-lint: allow(discarded-fallibility) — a closed order queue means the worker died; skipping it is R5 graceful degradation (the measurement continues with the remaining workers)
                    let _ = tx.send(ProbeBatch { orders });
                };
            let mut aborted = false;
            let mut last_window = 0u64;
            for (i, &target) in spec.targets.iter().enumerate() {
                if stream_abort.is_aborted() {
                    // CLI disconnected: stop streaming; workers wind down.
                    // Accumulated but unsent batches are dropped — the
                    // abort cuts the stream at a batch boundary (R3: no
                    // unnecessary probes).
                    aborted = true;
                    break;
                }
                let window = window_start_ms(i, spec.rate_per_s);
                if window > last_window {
                    order_stalls.inc();
                    last_window = window;
                }
                let order = ProbeOrder {
                    target,
                    window_start_ms: window,
                };
                let prefix = PrefixKey::of(target);
                for w in 0..txs.len() {
                    let wid = worker_wire_id(w);
                    // Non-sender workers (single-VP precheck mode) receive
                    // no orders but still capture replies.
                    if !spec.is_sender(wid) {
                        continue;
                    }
                    if let Some(f) = spec.faults.order_fault(wid) {
                        if i < f.delay_orders {
                            // The channel came up late; early orders are
                            // lost in the disconnected stream.
                            stream_tracer.record_for(Component::Orchestrator, prefix, || {
                                TraceEvent::OrderFault {
                                    prefix,
                                    worker: wid,
                                    cause: OrderFaultCause::Delayed,
                                }
                            });
                            continue;
                        }
                        if f.close_after.is_some_and(|c| sent[w] >= c) {
                            // Dropping the sender closes the worker's order
                            // stream; it completes with what it received —
                            // including a final partial batch.
                            if let Some(tx) = txs[w].take() {
                                flush(w, &mut pending, &tx);
                            }
                            stream_tracer.record_for(Component::Orchestrator, prefix, || {
                                TraceEvent::OrderFault {
                                    prefix,
                                    worker: wid,
                                    cause: OrderFaultCause::ChannelClosed,
                                }
                            });
                            continue;
                        }
                    }
                    if let Some(tx) = &txs[w] {
                        stream_tracer.record_for(Component::Orchestrator, prefix, || {
                            TraceEvent::OrderIssued {
                                prefix,
                                worker: wid,
                                window_start_ms: window,
                            }
                        });
                        pending[w].push(order);
                        sent[w] += 1;
                        if pending[w].len() >= BATCH_SIZE {
                            flush(w, &mut pending, tx);
                        }
                    }
                }
            }
            // End of hitlist: flush the partial tail batches.
            if !aborted {
                for (w, tx) in txs.iter().enumerate() {
                    if let Some(tx) = tx {
                        flush(w, &mut pending, tx);
                    }
                }
            }
            // Dropping the senders closes every worker's order stream.
        });

        // Aggregate the live result stream (this is the CLI's sink file).
        for msg in out_rx.iter() {
            match msg {
                WorkerOut::Records(batch) => {
                    for rtt in batch.iter().filter_map(ProbeRecord::rtt_ms) {
                        rtts.observe(rtt);
                    }
                    records.extend(batch);
                    if spec
                        .faults
                        .abort_after_records
                        .is_some_and(|n| records.len() >= n)
                    {
                        // Mid-stream abort fault: the CLI disconnects, but
                        // everything collected so far is kept.
                        abort.abort();
                    }
                }
                WorkerOut::Event(WorkerEvent::Done {
                    worker,
                    telemetry: t,
                }) => {
                    probes_sent += t.probes_sent;
                    merge_worker_telemetry(&mut telemetry, worker, &t);
                    worker_health.push(WorkerHealth {
                        worker,
                        status: WorkerStatus::Completed,
                        probes_sent: t.probes_sent,
                    });
                }
                WorkerOut::Event(WorkerEvent::Failed {
                    worker,
                    telemetry: t,
                    cause,
                }) => {
                    probes_sent += t.probes_sent;
                    merge_worker_telemetry(&mut telemetry, worker, &t);
                    // One unsampled fault event per failed worker: probes it
                    // had not sent and captures it held are attributed to it
                    // by `TraceReport::explain`.
                    tracer.record(Component::Control, || TraceEvent::WorkerFault {
                        worker,
                        cause: match cause {
                            WorkerFailure::Crash => "crash".into(),
                            WorkerFailure::SealRejected => "seal rejected".into(),
                        },
                        after_probes: t.probes_sent,
                    });
                    match cause {
                        WorkerFailure::Crash => {
                            telemetry.add_degraded(DegradedReason::WorkerCrashed { worker });
                        }
                        WorkerFailure::SealRejected => {
                            telemetry.inc(names::orchestrator::SEAL_REJECTIONS, 1);
                            telemetry.add_degraded(DegradedReason::SealRejected { worker });
                        }
                    }
                    failed_workers.push(worker);
                    worker_health.push(WorkerHealth {
                        worker,
                        status: WorkerStatus::Failed,
                        probes_sent: t.probes_sent,
                    });
                }
            }
        }
    });

    let report = seal_report(
        spec,
        n_workers,
        span_ms,
        abort,
        &tracer,
        RunTotals {
            probes_sent,
            failed_workers,
            worker_health,
            telemetry,
            shard_report: RunReport::new(),
            orders_streamed: orders_streamed.get(),
            rate_limiter_stalls: order_stalls.get(),
            records_collected: records.len() as u64,
            rtts,
        },
    );
    Ok(report.into_outcome(spec, records))
}

/// Result of a prechecked measurement (§6 future work: "check
/// responsiveness from a single VP before probing from all VPs").
#[derive(Debug, Clone)]
pub struct PrecheckedOutcome {
    /// The full measurement over responsive targets only.
    pub outcome: MeasurementOutcome,
    /// Probes spent by the single-worker precheck pass.
    pub precheck_probes: u64,
    /// Targets that answered the precheck and were probed fully.
    pub responsive_targets: usize,
    /// Targets skipped as unresponsive.
    pub skipped_targets: usize,
}

impl PrecheckedOutcome {
    /// Total probes across both phases.
    pub fn total_probes(&self) -> u64 {
        self.precheck_probes + self.outcome.probes_sent
    }
}

/// Run a measurement with a single-worker responsiveness precheck: worker
/// `precheck_worker` probes the full hitlist alone (all workers capture);
/// only targets that answered are then probed by the full platform.
///
/// On a hitlist with unresponsive share `u`, this saves roughly
/// `u × (n_workers - 1) / n_workers` of the probe budget at the cost of
/// missing targets that lose the single precheck probe.
///
/// # Errors
///
/// [`MeasurementError::ReservedId`] when `spec.id` has [`PRECHECK_ID_BIT`]
/// set: the precheck pass needs its own measurement id (replies to the
/// precheck must not validate against the full pass), and ids with that
/// bit are reserved for it. Platform errors as [`run_measurement`].
pub fn run_with_precheck(
    world: &Arc<World>,
    spec: &MeasurementSpec,
    precheck_worker: u16,
) -> Result<PrecheckedOutcome, MeasurementError> {
    if spec.id & PRECHECK_ID_BIT != 0 {
        return Err(MeasurementError::ReservedId { id: spec.id });
    }
    let mut pre = spec.clone();
    pre.id = spec.id | PRECHECK_ID_BIT;
    pre.senders = Some(vec![precheck_worker]);
    let pre_outcome = run_measurement(world, &pre)?;

    let responsive: std::collections::BTreeSet<laces_packet::PrefixKey> =
        pre_outcome.records.iter().map(|r| r.prefix).collect();
    let filtered: Vec<std::net::IpAddr> = spec
        .targets
        .iter()
        .copied()
        .filter(|a| responsive.contains(&laces_packet::PrefixKey::of(*a)))
        .collect();
    let skipped = spec.targets.len() - filtered.len();

    let mut full = spec.clone();
    full.targets = Arc::new(filtered);
    let outcome = run_measurement(world, &full)?;
    Ok(PrecheckedOutcome {
        responsive_targets: outcome.n_targets,
        skipped_targets: skipped,
        precheck_probes: pre_outcome.probes_sent,
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_bounds_partition_contiguously() {
        for (n, shards) in [(10, 3), (7, 7), (25_419, 16), (5, 1), (3, 16)] {
            let shards = shards.min(n).max(1);
            let mut next = 0;
            for s in 0..shards {
                let (lo, hi) = shard_bounds(n, shards, s);
                assert_eq!(lo, next, "n={n} shards={shards} s={s}");
                assert!(hi >= lo);
                next = hi;
            }
            assert_eq!(next, n, "slices must cover the hitlist exactly");
            // Balanced: sizes differ by at most one.
            let sizes: Vec<usize> = (0..shards)
                .map(|s| {
                    let (lo, hi) = shard_bounds(n, shards, s);
                    hi - lo
                })
                .collect();
            let min = sizes.iter().min().copied().unwrap_or(0);
            let max = sizes.iter().max().copied().unwrap_or(0);
            assert!(max - min <= 1, "n={n} shards={shards} sizes={sizes:?}");
        }
    }

    #[test]
    fn worker_wire_ids_are_exact_in_range() {
        assert_eq!(worker_wire_id(0), 0);
        assert_eq!(worker_wire_id(63), 63);
    }
}
