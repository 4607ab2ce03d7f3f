//! Batch-size invariance: batching is pure transport framing.
//!
//! The tentpole claim of the batched probing pipeline is that
//! `spec.batch_size` changes *only* how orders travel — every record, the
//! classification built from them, and the serialized run report are
//! bit-identical for any batch size, with and without an active fault
//! plan. These tests pin that claim on the paper-topology world across
//! batch sizes {1, 16, 256} (partial tail batches, single-order batches,
//! and batches larger than the per-worker record-flush threshold). Every
//! spec also runs through the census's classify-at-capture entry, which
//! must report the same pass (`common::run_both`), on the v4 hitlist, a
//! CHAOS hitlist and a hitlist that repeats prefixes.

mod common;

use std::net::IpAddr;
use std::sync::{Arc, OnceLock};

use common::{chaos_hitlist, repeated_prefix_hitlist, run_both};
use laces_core::classify::AnycastClassification;
use laces_core::error::MeasurementError;
use laces_core::fault::FaultPlan;
use laces_core::results::MeasurementOutcome;
use laces_core::spec::MeasurementSpec;
use laces_netsim::{World, WorldConfig};
use laces_packet::{PrefixKey, Protocol};
use laces_trace::TraceConfig;

/// Shared paper-topology world (32-site production platform, reduced
/// target mass) — generated once for the whole test binary.
fn world() -> &'static Arc<World> {
    static WORLD: OnceLock<Arc<World>> = OnceLock::new();
    WORLD.get_or_init(|| Arc::new(World::generate(WorldConfig::paper_topology_tiny_targets())))
}

/// A v4 hitlist slice small enough that no worker crosses the internal
/// record-flush threshold mid-probing (checked by `assert_outputs_equal`);
/// that keeps even the mid-stream-abort runs fully deterministic.
fn hitlist(world: &World, n: usize) -> Arc<Vec<IpAddr>> {
    Arc::new(
        world.targets[..world.n_v4]
            .iter()
            .take(n)
            .map(|t| match t.prefix {
                PrefixKey::V4(p) => IpAddr::V4(p.addr(laces_netsim::targets::REPRESENTATIVE_HOST)),
                PrefixKey::V6(_) => unreachable!(),
            })
            .collect(),
    )
}

fn spec_with(
    world: &World,
    id: u32,
    targets: Arc<Vec<IpAddr>>,
    faults: FaultPlan,
    batch_size: usize,
) -> MeasurementSpec {
    spec_for(world, id, Protocol::Icmp, targets, faults, batch_size)
}

/// Traced, so the fused entry's trace sections are compared too; tracing
/// observes the run and changes none of its outputs.
fn spec_for(
    world: &World,
    id: u32,
    protocol: Protocol,
    targets: Arc<Vec<IpAddr>>,
    faults: FaultPlan,
    batch_size: usize,
) -> MeasurementSpec {
    MeasurementSpec::builder(id, world.std_platforms.production)
        .protocol(protocol)
        .targets(targets)
        .faults(faults)
        .batch_size(batch_size)
        .trace(TraceConfig::all(0xBA7C))
        .build(world)
        .expect("valid spec")
}

/// Assert two outcomes are observably identical: records, classification,
/// and the full serialized run report.
fn assert_outputs_equal(a: &MeasurementOutcome, b: &MeasurementOutcome, label: &str) {
    assert_eq!(a.records, b.records, "{label}: records diverge");
    assert_eq!(
        a.probes_sent, b.probes_sent,
        "{label}: probes_sent diverges"
    );
    assert_eq!(
        a.failed_workers, b.failed_workers,
        "{label}: failed workers diverge"
    );
    assert_eq!(
        a.worker_health, b.worker_health,
        "{label}: worker health diverges"
    );
    let class_a = format!("{:?}", AnycastClassification::from_outcome(a));
    let class_b = format!("{:?}", AnycastClassification::from_outcome(b));
    assert_eq!(class_a, class_b, "{label}: classification diverges");
    assert_eq!(
        a.telemetry.to_jsonl(),
        b.telemetry.to_jsonl(),
        "{label}: serialized run report diverges"
    );
}

/// Guard for the determinism argument of the abort test: a worker that
/// never crosses the record-flush threshold during probing emits all its
/// records after the whole order stream closed, so an abort triggered by
/// the final record count cannot race the streamer.
fn assert_no_midstream_flush(outcome: &MeasurementOutcome) {
    for h in &outcome.worker_health {
        let streamed = outcome
            .telemetry
            .counter(&format!("worker.{:03}.records_streamed", h.worker));
        assert!(
            streamed < 256,
            "worker {} streamed {streamed} records; shrink the hitlist so the \
             abort-invariance argument holds",
            h.worker
        );
    }
}

#[test]
fn outputs_are_bit_identical_across_batch_sizes() {
    let w = world();
    let targets = hitlist(w, 120);
    let baseline = run_both(
        w,
        &spec_with(w, 41_001, Arc::clone(&targets), FaultPlan::none(), 1),
    );
    assert!(!baseline.records.is_empty(), "workload must be non-trivial");
    for batch_size in [16usize, 256] {
        let outcome = run_both(
            w,
            &spec_with(
                w,
                41_001,
                Arc::clone(&targets),
                FaultPlan::none(),
                batch_size,
            ),
        );
        assert_outputs_equal(&baseline, &outcome, &format!("batch_size={batch_size}"));
    }
}

#[test]
fn faulted_outputs_are_bit_identical_across_batch_sizes() {
    let w = world();
    let targets = hitlist(w, 120);
    // A crash point that is not a multiple of any tested batch size, so the
    // crash fires mid-batch, plus lossy/duplicating capture fabric.
    let plan = || {
        FaultPlan::with_seed(0xBA7C)
            .and_crash(3, 37)
            .and_fabric(0.05, 0.03)
    };
    let baseline = run_both(w, &spec_with(w, 41_002, Arc::clone(&targets), plan(), 1));
    assert_eq!(baseline.failed_workers, vec![3], "crash plan must fire");
    assert!(
        baseline.telemetry.counter("fabric.dropped") > 0,
        "fabric drop must fire"
    );
    for batch_size in [16usize, 256] {
        let outcome = run_both(
            w,
            &spec_with(w, 41_002, Arc::clone(&targets), plan(), batch_size),
        );
        assert_outputs_equal(
            &baseline,
            &outcome,
            &format!("faulted batch_size={batch_size}"),
        );
    }
}

#[test]
fn midstream_abort_is_bit_identical_across_batch_sizes() {
    let w = world();
    // Smaller than the other tests: the receiving side is skewed by the
    // anycast catchments, and `assert_no_midstream_flush` needs the
    // busiest worker to stay under the flush threshold.
    let targets = hitlist(w, 50);
    let plan = || FaultPlan::with_seed(0xAB07).and_fabric(0.02, 0.01);
    // Learn the run's total record count, then schedule the abort exactly
    // on the final record: the abort path executes (counter + degraded
    // reason) but deterministically cuts nothing.
    let reference = run_both(w, &spec_with(w, 41_003, Arc::clone(&targets), plan(), 1));
    assert_no_midstream_flush(&reference);
    let total = reference.records.len();
    assert!(total > 0, "workload must be non-trivial");

    let abort_plan = || plan().and_abort_after(total);
    let baseline = run_both(
        w,
        &spec_with(w, 41_003, Arc::clone(&targets), abort_plan(), 1),
    );
    assert_eq!(baseline.telemetry.counter("orchestrator.aborts"), 1);
    assert!(baseline.is_degraded(), "abort must degrade the run");
    assert_eq!(
        baseline.records, reference.records,
        "abort on the final record must cut nothing"
    );
    for batch_size in [16usize, 256] {
        let outcome = run_both(
            w,
            &spec_with(w, 41_003, Arc::clone(&targets), abort_plan(), batch_size),
        );
        assert_outputs_equal(
            &baseline,
            &outcome,
            &format!("aborted batch_size={batch_size}"),
        );
    }
}

#[test]
fn seal_rejection_is_bit_identical_across_batch_sizes() {
    let w = world();
    let targets = hitlist(w, 120);
    let plan = || FaultPlan::with_seed(0x5EA1).and_reject_seal(5);
    let baseline = run_both(w, &spec_with(w, 41_005, Arc::clone(&targets), plan(), 1));
    assert_eq!(baseline.failed_workers, vec![5], "seal rejection must fire");
    for batch_size in [16usize, 256] {
        let outcome = run_both(
            w,
            &spec_with(w, 41_005, Arc::clone(&targets), plan(), batch_size),
        );
        assert_outputs_equal(
            &baseline,
            &outcome,
            &format!("sealed batch_size={batch_size}"),
        );
    }
}

#[test]
fn surviving_crash_schedule_is_bit_identical_across_batch_sizes() {
    let w = world();
    let targets = hitlist(w, 120);
    // Worker 7 is crash-scheduled past the end of the stream: its captures
    // are deferred during streaming and drained at seal.
    let plan = || {
        FaultPlan::with_seed(0xD1A5)
            .and_crash(7, 10_000)
            .and_fabric(0.05, 0.03)
    };
    let baseline = run_both(w, &spec_with(w, 41_006, Arc::clone(&targets), plan(), 1));
    assert!(baseline.failed_workers.is_empty(), "worker 7 must survive");
    assert!(
        baseline.telemetry.counter("worker.007.records_streamed") > 0,
        "the surviving worker's deferred captures must be drained"
    );
    for batch_size in [16usize, 256] {
        let outcome = run_both(
            w,
            &spec_with(w, 41_006, Arc::clone(&targets), plan(), batch_size),
        );
        assert_outputs_equal(
            &baseline,
            &outcome,
            &format!("survivor batch_size={batch_size}"),
        );
    }
}

#[test]
fn chaos_and_repeated_prefix_hitlists_are_bit_identical_across_batch_sizes() {
    let w = world();
    let v4 = hitlist(w, 80);
    let inputs = [
        ("chaos", Protocol::Chaos, chaos_hitlist(w, 60)),
        ("repeated", Protocol::Icmp, repeated_prefix_hitlist(&v4, 40)),
    ];
    for (id, (name, protocol, targets)) in (41_007..).zip(inputs) {
        let plan = || FaultPlan::with_seed(0xC4A0).and_fabric(0.05, 0.03);
        let spec = |batch| spec_for(w, id, protocol, Arc::clone(&targets), plan(), batch);
        let baseline = run_both(w, &spec(1));
        let class = AnycastClassification::from_outcome(&baseline);
        match protocol {
            Protocol::Chaos => assert!(
                class
                    .observations
                    .values()
                    .any(|o| !o.chaos_values.is_empty()),
                "{name}: some reply must disclose a CHAOS identity"
            ),
            _ => assert!(
                class.observations.values().any(|o| o.n_responses > 48),
                "{name}: some prefix must answer at more than one position"
            ),
        }
        for batch_size in [16usize, 256] {
            let outcome = run_both(w, &spec(batch_size));
            assert_outputs_equal(
                &baseline,
                &outcome,
                &format!("{name} batch_size={batch_size}"),
            );
        }
    }
}

#[test]
fn builder_rejects_zero_batch_size() {
    let w = world();
    let err = MeasurementSpec::builder(41_004, w.std_platforms.production)
        .targets(hitlist(w, 4))
        .batch_size(0)
        .build(w)
        .unwrap_err();
    assert_eq!(err, MeasurementError::InvalidBatchSize { batch_size: 0 });
    assert!(err.to_string().contains("batch size"));
}
