//! Fault-injection matrix: crash k of n workers at varying points, break
//! order channels, corrupt seals, fault the capture fabric, and abort
//! mid-stream — the measurement must complete, report exactly the injected
//! faults (as typed degradation events in its telemetry), and reproduce
//! bit-identically from the same fault seed, run report included.

use std::collections::BTreeSet;
use std::net::IpAddr;
use std::sync::Arc;

use laces_core::error::MeasurementError;
use laces_core::fault::FaultPlan;
use laces_core::orchestrator::{run_measurement, run_with_precheck};
use laces_core::results::WorkerStatus;
use laces_core::spec::MeasurementSpec;
use laces_core::DegradedReason;
use laces_netsim::{World, WorldConfig};
use laces_packet::Protocol;

fn world() -> Arc<World> {
    Arc::new(World::generate(WorldConfig::tiny()))
}

fn v4_hitlist(world: &World) -> Arc<Vec<IpAddr>> {
    Arc::new(laces_hitlist::build_v4(world).addresses())
}

fn census_spec(world: &World, id: u32, faults: FaultPlan) -> MeasurementSpec {
    let mut spec = MeasurementSpec::census(
        id,
        world.std_platforms.production,
        Protocol::Icmp,
        v4_hitlist(world),
        0,
    );
    spec.faults = faults;
    spec
}

#[test]
fn fault_matrix_reports_exactly_the_crashed_workers() {
    let w = world();
    let n_workers = 32u16;
    // Crash k of 32 at varying fail_after, including immediate (0) crashes.
    for (case, k) in [1usize, 3, 8].into_iter().enumerate() {
        let plan = FaultPlan::seeded(9_000 + case as u64, n_workers, k, 60);
        let expected = plan.doomed_workers();
        let expected_fail_sum: u64 = plan.crashes.iter().map(|c| c.after_orders as u64).sum();
        let spec = census_spec(&w, 900 + case as u32, plan);
        let outcome = run_measurement(&w, &spec).expect("valid spec");

        // Exactly the planned workers are reported failed, no more.
        assert_eq!(outcome.failed_workers, expected, "case {case}");
        assert!(
            outcome.is_degraded(),
            "case {case}: a crashed worker degrades"
        );
        // Every failure surfaces as a typed degradation event.
        let crashed: Vec<u16> = outcome
            .degraded_reasons()
            .iter()
            .filter_map(|r| match r {
                DegradedReason::WorkerCrashed { worker } => Some(*worker),
                _ => None,
            })
            .collect();
        assert_eq!(crashed, expected, "case {case}: reasons name the workers");

        // Health covers the whole platform and matches the plan.
        assert_eq!(outcome.worker_health.len(), usize::from(n_workers));
        let failed_by_health: Vec<u16> = outcome
            .worker_health
            .iter()
            .filter(|h| h.status == WorkerStatus::Failed)
            .map(|h| h.worker)
            .collect();
        assert_eq!(failed_by_health, expected, "case {case}");

        // Survivors completed the full hitlist; crashed workers stopped at
        // their planned order counts.
        let survivors = u64::from(n_workers) - expected.len() as u64;
        assert_eq!(
            outcome.probes_sent,
            survivors * spec.targets.len() as u64 + expected_fail_sum,
            "case {case}: survivor probing must be complete"
        );
        // The aggregate probe counter agrees with the outcome field.
        assert_eq!(
            outcome.telemetry.counter("worker.probes_sent"),
            outcome.probes_sent,
            "case {case}: telemetry probe total matches"
        );

        // A crashed worker's captures are lost with it: no record claims a
        // dead worker as its receiver.
        let dead: BTreeSet<u16> = expected.iter().copied().collect();
        assert!(
            outcome.records.iter().all(|r| !dead.contains(&r.rx_worker)),
            "case {case}: dead workers must not contribute captures"
        );
    }
}

#[test]
fn same_fault_seed_reruns_are_bit_identical() {
    let w = world();
    let plan = FaultPlan::seeded(77, 32, 4, 40).and_fabric(0.05, 0.02);
    let spec = census_spec(&w, 910, plan);
    let a = run_measurement(&w, &spec).expect("valid spec");
    let b = run_measurement(&w, &spec).expect("valid spec");
    let ja = serde_json::to_string(&a).expect("outcome serialises");
    let jb = serde_json::to_string(&b).expect("outcome serialises");
    assert_eq!(ja, jb, "same fault seed must reproduce byte-identically");

    // And a different fault seed produces a different outcome.
    let other = census_spec(
        &w,
        910,
        FaultPlan::seeded(78, 32, 4, 40).and_fabric(0.05, 0.02),
    );
    let c = run_measurement(&w, &other).expect("valid spec");
    assert_ne!(
        ja,
        serde_json::to_string(&c).expect("outcome serialises"),
        "different fault seeds must differ"
    );
}

#[test]
fn run_report_is_bit_identical_across_reruns() {
    // The tentpole acceptance criterion: for any abort-free plan the whole
    // serialized RunReport — counters, gauges, histograms, stages, typed
    // degradation events — is a pure function of (world seed, spec, fault
    // plan). Thread scheduling must not leak into a single byte.
    let w = world();
    for (case, plan) in [
        FaultPlan::none(),
        FaultPlan::seeded(41, 32, 5, 30),
        FaultPlan::seeded(42, 32, 2, 50)
            .and_fabric(0.10, 0.03)
            .and_reject_seal(11)
            .and_order_fault(3, 5, Some(40)),
    ]
    .into_iter()
    .enumerate()
    {
        let spec = census_spec(&w, 980 + case as u32, plan);
        let a = run_measurement(&w, &spec).expect("valid spec");
        let b = run_measurement(&w, &spec).expect("valid spec");
        assert_eq!(
            serde_json::to_string(&a.telemetry).expect("report serialises"),
            serde_json::to_string(&b.telemetry).expect("report serialises"),
            "case {case}: run reports must be bit-identical across reruns"
        );
        assert_eq!(
            a.telemetry.to_jsonl(),
            b.telemetry.to_jsonl(),
            "case {case}: the JSONL encoding must be bit-identical too"
        );
    }
}

#[test]
fn telemetry_counts_the_schedule_and_the_wire() {
    let w = world();
    let spec = census_spec(&w, 985, FaultPlan::none());
    let outcome = run_measurement(&w, &spec).expect("valid spec");
    let t = &outcome.telemetry;
    // Every (target, worker) pair was ordered exactly once.
    assert_eq!(
        t.counter("orchestrator.orders_streamed"),
        spec.targets.len() as u64 * 32
    );
    // The schedule stalls whenever the next window opens later; at 10 k
    // targets/s the integer-ms schedule has one stall every 10 targets.
    assert_eq!(
        t.counter("orchestrator.rate_limiter_stalls"),
        (spec.targets.len() as u64 - 1) / 10
    );
    assert_eq!(
        t.counter("orchestrator.records_collected"),
        outcome.records.len() as u64
    );
    // The wire accounted for every probe: delivered + unanswered = sent.
    assert_eq!(
        t.counter("fabric.replies_delivered") + t.counter("fabric.unanswered"),
        t.counter("worker.probes_sent")
    );
    // Per-worker counters sum to the aggregate.
    let per_worker: u64 = (0..32)
        .map(|w| t.counter(&format!("worker.{w:03}.probes_sent")))
        .sum();
    assert_eq!(per_worker, t.counter("worker.probes_sent"));
    // The RTT histogram observed every attributable record.
    let rtts = t.histograms.get("worker.rtt_ms").expect("rtt histogram");
    assert_eq!(
        rtts.count,
        outcome
            .records
            .iter()
            .filter(|r| r.rtt_ms().is_some())
            .count() as u64
    );
    // One stage, spanning the simulated probing window.
    assert_eq!(t.stages.len(), 1);
    assert_eq!(t.stages[0].counter("probes_sent"), outcome.probes_sent);
    assert!(t.stages[0].sim_ms >= spec.span_ms(32));
}

#[test]
fn abort_mid_stream_keeps_every_collected_record() {
    let w = world();
    let full = run_measurement(&w, &census_spec(&w, 920, FaultPlan::none())).expect("valid spec");
    assert!(full.records.len() > 200, "world too small for this test");

    let aborted = run_measurement(
        &w,
        &census_spec(&w, 920, FaultPlan::none().and_abort_after(50)),
    )
    .expect("valid spec");
    // Nothing collected before the abort is lost; in-flight probes may add
    // records beyond the trigger point.
    assert!(
        aborted.records.len() >= 50,
        "only {} records survived the abort",
        aborted.records.len()
    );
    assert!(aborted.is_degraded(), "an aborted measurement is degraded");
    assert!(
        aborted
            .degraded_reasons()
            .contains(&DegradedReason::Aborted),
        "the abort surfaces as a typed reason"
    );
    // Where the abort cuts the stream is scheduling-dependent (see the
    // fault module docs); on a hitlist smaller than the order queues the
    // streamer may even finish before the flag is observed, so only the
    // upper bound is guaranteed.
    assert!(
        aborted.probes_sent <= full.probes_sent,
        "an aborted run can never probe more than a full one"
    );
    // Every surviving record is one the full run also observed (the abort
    // truncates, it does not corrupt).
    let full_set: BTreeSet<String> = full
        .records
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect();
    assert!(aborted
        .records
        .iter()
        .all(|r| full_set.contains(&serde_json::to_string(r).unwrap())));
}

#[test]
fn seal_rejection_degrades_instead_of_panicking() {
    let w = world();
    let outcome = run_measurement(
        &w,
        &census_spec(&w, 930, FaultPlan::none().and_reject_seal(4)),
    )
    .expect("valid spec");
    assert_eq!(outcome.failed_workers, vec![4]);
    let h = outcome
        .worker_health
        .iter()
        .find(|h| h.worker == 4)
        .unwrap();
    assert_eq!(h.status, WorkerStatus::Failed);
    assert_eq!(h.probes_sent, 0, "a rejected worker never probes");
    // The rejection is distinguishable from a crash in the telemetry.
    assert_eq!(
        outcome.degraded_reasons(),
        &[DegradedReason::SealRejected { worker: 4 }]
    );
    assert_eq!(outcome.telemetry.counter("orchestrator.seal_rejections"), 1);
    // The other 31 workers completed the measurement.
    assert_eq!(
        outcome.probes_sent,
        31 * outcome.n_targets as u64,
        "platform degrades to the surviving workers"
    );
    // A refused worker emits nothing: it keeps and rejects no captures,
    // and no record names it as sender or receiver.
    assert_eq!(outcome.telemetry.counter("worker.004.records_streamed"), 0);
    assert_eq!(outcome.telemetry.counter("worker.004.captures_rejected"), 0);
    assert!(outcome
        .records
        .iter()
        .all(|r| r.rx_worker != 4 && r.tx_worker != Some(4)));
    // Non-vacuity: without the fault, worker 4 both sends and receives.
    let clean = run_measurement(&w, &census_spec(&w, 930, FaultPlan::none())).expect("valid spec");
    assert!(clean.records.iter().any(|r| r.rx_worker == 4));
    assert!(clean.records.iter().any(|r| r.tx_worker == Some(4)));
}

#[test]
fn order_channel_faults_shrink_but_complete_the_worker() {
    let w = world();
    let plan = FaultPlan::none().and_order_fault(6, 10, Some(25));
    let outcome = run_measurement(&w, &census_spec(&w, 940, plan)).expect("valid spec");
    // The worker is healthy — a broken control channel is not a crash.
    assert!(outcome.failed_workers.is_empty());
    assert!(!outcome.is_degraded());
    let h = outcome
        .worker_health
        .iter()
        .find(|h| h.worker == 6)
        .unwrap();
    assert_eq!(h.status, WorkerStatus::Completed);
    assert_eq!(
        h.probes_sent, 25,
        "10 orders lost to the late channel, closed after 25 delivered"
    );
    // Everyone else got the full hitlist.
    assert!(outcome
        .worker_health
        .iter()
        .filter(|h| h.worker != 6)
        .all(|h| h.probes_sent == outcome.n_targets as u64));
}

#[test]
fn fabric_drop_loses_captures_silently_and_dup_doubles_them() {
    let w = world();
    let baseline =
        run_measurement(&w, &census_spec(&w, 950, FaultPlan::none())).expect("valid spec");

    // Total fabric loss: the platform probes normally but records nothing.
    let dark = run_measurement(
        &w,
        &census_spec(&w, 950, FaultPlan::with_seed(5).and_fabric(1.0, 0.0)),
    )
    .expect("valid spec");
    assert!(dark.records.is_empty());
    assert_eq!(dark.probes_sent, baseline.probes_sent);
    assert!(
        !dark.is_degraded(),
        "fabric loss is invisible to the tool; workers all completed"
    );
    // ... but the telemetry shows what the fabric did: everything the wire
    // delivered was dropped, exactly as the planned rate promised.
    assert_eq!(
        dark.telemetry.counter("fabric.dropped"),
        dark.telemetry.counter("fabric.replies_delivered")
    );
    assert_eq!(dark.telemetry.gauge("fabric.planned_drop_permille"), 1000);

    // Total duplication: exactly every record twice.
    let doubled = run_measurement(
        &w,
        &census_spec(&w, 950, FaultPlan::with_seed(5).and_fabric(0.0, 1.0)),
    )
    .expect("valid spec");
    assert_eq!(doubled.records.len(), 2 * baseline.records.len());
    // Canonical ordering puts each duplicate next to its original.
    for pair in doubled.records.chunks(2) {
        assert_eq!(pair[0], pair[1]);
    }
    assert_eq!(
        doubled.telemetry.counter("fabric.duplicated"),
        doubled.telemetry.counter("fabric.replies_delivered")
    );
}

#[test]
fn empty_hitlist_short_circuits() {
    let w = world();
    let spec = MeasurementSpec::census(
        960,
        w.std_platforms.production,
        Protocol::Icmp,
        Arc::new(Vec::new()),
        0,
    );
    let outcome = run_measurement(&w, &spec).expect("valid spec");
    assert_eq!(outcome.probes_sent, 0);
    assert_eq!(outcome.n_targets, 0);
    assert!(outcome.records.is_empty());
    assert!(outcome.failed_workers.is_empty());
    assert!(!outcome.is_degraded());
    assert_eq!(outcome.worker_health.len(), outcome.n_workers);
    assert!(outcome
        .worker_health
        .iter()
        .all(|h| h.status == WorkerStatus::Completed && h.probes_sent == 0));
}

#[test]
fn precheck_rejects_ids_in_the_reserved_space() {
    let w = world();
    let spec = MeasurementSpec::census(
        0x8000_0001,
        w.std_platforms.production,
        Protocol::Icmp,
        v4_hitlist(&w),
        0,
    );
    let err = run_with_precheck(&w, &spec, 0).expect_err("reserved id must be rejected");
    assert_eq!(err, MeasurementError::ReservedId { id: 0x8000_0001 });
    assert!(err.to_string().contains("reserved precheck id space"));
    // Ids outside the reserved space are accepted unchanged.
    let ok = MeasurementSpec::census(
        0x7FFF_FFFF,
        w.std_platforms.production,
        Protocol::Icmp,
        Arc::new(Vec::new()),
        0,
    );
    assert!(run_with_precheck(&w, &ok, 0).is_ok());
}

/// A sender the platform does not have is rejected at run time too, not
/// only by the builder: the precheck sets its single sender after the
/// builder ran, and an out-of-range one used to skip every target.
#[test]
fn out_of_range_sender_is_a_typed_error_at_run_time() {
    let w = world();
    let targets: Vec<IpAddr> = v4_hitlist(&w).iter().take(200).copied().collect();
    let spec = MeasurementSpec::builder(967, w.std_platforms.production)
        .targets(Arc::new(targets))
        .build(&w)
        .expect("valid spec");
    let err = run_with_precheck(&w, &spec, 32).expect_err("worker 32 does not exist");
    assert_eq!(
        err,
        MeasurementError::SenderOutOfRange {
            worker: 32,
            n_workers: 32
        }
    );
    let mut edited = spec.clone();
    edited.senders = Some(vec![40]);
    let err = run_measurement(&w, &edited).expect_err("worker 40 does not exist");
    assert_eq!(
        err,
        MeasurementError::SenderOutOfRange {
            worker: 40,
            n_workers: 32
        }
    );
    // The last worker is in range.
    let pre = run_with_precheck(&w, &spec, 31).expect("worker 31 exists");
    assert!(pre.responsive_targets > 0 && pre.precheck_probes == 200);
}

#[test]
fn unicast_platform_is_a_typed_error_not_a_panic() {
    let w = world();
    let spec = MeasurementSpec::census(
        965,
        w.std_platforms.ark, // a unicast VP platform — GCD territory
        Protocol::Icmp,
        v4_hitlist(&w),
        0,
    );
    let err = run_measurement(&w, &spec).expect_err("unicast platform must be rejected");
    assert_eq!(
        err,
        MeasurementError::NotAnycast {
            platform: w.std_platforms.ark
        }
    );
    assert!(err.to_string().contains("not an anycast platform"));
    // The abortable and precheck entry points reject it identically.
    let err2 = run_with_precheck(&w, &spec, 0).expect_err("precheck validates the platform too");
    assert_eq!(err, err2);
}

#[test]
fn empty_hitlist_still_fails_doomed_workers() {
    // The early return must agree with what the full machinery would do:
    // start-order authentication precedes any probing, so a corrupted seal
    // fails its worker even when there is nothing to probe, and a crash
    // after zero orders fires with zero orders delivered. A crash deeper
    // into the stream needs deliveries that never happen, so that worker
    // completes.
    let w = world();
    let mut spec = MeasurementSpec::census(
        961,
        w.std_platforms.production,
        Protocol::Icmp,
        Arc::new(Vec::new()),
        0,
    );
    spec.faults = FaultPlan::none()
        .and_reject_seal(4)
        .and_crash(7, 0)
        .and_crash(9, 100);
    let outcome = run_measurement(&w, &spec).expect("valid spec");
    assert_eq!(outcome.probes_sent, 0);
    assert_eq!(outcome.failed_workers, vec![4, 7]);
    assert!(outcome.is_degraded());
    assert_eq!(
        outcome.degraded_reasons(),
        &[
            DegradedReason::WorkerCrashed { worker: 7 },
            DegradedReason::SealRejected { worker: 4 },
        ],
        "the early return reports the same typed reasons as the full path"
    );
    for h in &outcome.worker_health {
        let expect = if h.worker == 4 || h.worker == 7 {
            WorkerStatus::Failed
        } else {
            WorkerStatus::Completed
        };
        assert_eq!(h.status, expect, "worker {}", h.worker);
    }
}

#[test]
fn crash_scheduled_at_end_of_stream_still_fires() {
    // "Crash after N orders" must fire once N orders were processed even
    // when the hitlist ends exactly there — a crash at the stream's edge
    // must not silently turn into a healthy completion.
    let w = world();
    let targets = v4_hitlist(&w);
    let n = targets.len();
    let plan = FaultPlan::none().and_crash(2, n);
    let spec = census_spec(&w, 970, plan);
    let outcome = run_measurement(&w, &spec).expect("valid spec");
    assert_eq!(outcome.failed_workers, vec![2]);
    let h = outcome
        .worker_health
        .iter()
        .find(|h| h.worker == 2)
        .unwrap();
    assert_eq!(h.status, WorkerStatus::Failed);
    assert_eq!(
        h.probes_sent, n as u64,
        "the worker probes its whole stream before the edge crash"
    );
    // A crash scheduled beyond the stream never fires: the measurement
    // ended before the worker reached its crash point.
    let survivor = census_spec(&w, 971, FaultPlan::none().and_crash(2, n + 1));
    let outcome = run_measurement(&w, &survivor).expect("valid spec");
    assert!(outcome.failed_workers.is_empty());
    assert!(!outcome.is_degraded());
}
