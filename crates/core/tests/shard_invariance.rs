//! Shard-count invariance: sharding is pure execution layout.
//!
//! The tentpole claim of the sharded probing pipeline is that
//! `spec.shards` changes *only* which thread streams which contiguous
//! slice of the hitlist — every record, the classification built from
//! them, the serialized run report, and the flight-recorder export are
//! byte-identical for any shard count, with and without an active fault
//! plan, and under a mid-stream abort. These tests pin that claim on the
//! paper-topology world across shard counts {1, 4, 16} (single inline
//! shard, even split, and more shards than some slices have targets).
//! Frames are a fixed 256 orders per worker, so the shard count also
//! decides where full frames are flushed: the faulted case includes a
//! hitlist long enough for one shard to flush a full frame before a
//! crash. Every spec also runs through the census's classify-at-capture
//! entry, which must report the same pass (`common::run_both`), on the v4
//! hitlist, a CHAOS hitlist and a hitlist that repeats prefixes. Two
//! references anchor the sharded pipeline: the live threaded
//! orchestrator, and the frozen answer of the pre-batching scalar
//! pipeline on the full v4 hitlist.

mod common;

use std::net::IpAddr;
use std::sync::{Arc, OnceLock};

use common::{chaos_hitlist, repeated_prefix_hitlist, run_both};
use laces_core::classify::AnycastClassification;
use laces_core::error::MeasurementError;
use laces_core::fault::FaultPlan;
use laces_core::orchestrator::{run_measurement, run_measurement_threaded};
use laces_core::results::MeasurementOutcome;
use laces_core::spec::MeasurementSpec;
use laces_netsim::{World, WorldConfig};
use laces_obs::Fnv;
use laces_packet::{PrefixKey, Protocol};
use laces_trace::TraceConfig;

/// Shared paper-topology world (32-site production platform, reduced
/// target mass) — generated once for the whole test binary.
fn world() -> &'static Arc<World> {
    static WORLD: OnceLock<Arc<World>> = OnceLock::new();
    WORLD.get_or_init(|| Arc::new(World::generate(WorldConfig::paper_topology_tiny_targets())))
}

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
    shards: usize,
) -> MeasurementSpec {
    spec_for(world, id, Protocol::Icmp, targets, faults, shards)
}

fn spec_for(
    world: &World,
    id: u32,
    protocol: Protocol,
    targets: Arc<Vec<IpAddr>>,
    faults: FaultPlan,
    shards: usize,
) -> MeasurementSpec {
    MeasurementSpec::builder(id, world.std_platforms.production)
        .protocol(protocol)
        .targets(targets)
        .faults(faults)
        .trace(TraceConfig::all(0x5A17))
        .shards(shards)
        .build(world)
        .expect("valid spec")
}

/// Assert two outcomes are observably identical: records, classification,
/// the full serialized run report, and the trace export. `shard_report`
/// is deliberately NOT compared — it is the one field documented to
/// depend on `spec.shards`.
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
    assert_eq!(
        a.trace_report.to_jsonl(),
        b.trace_report.to_jsonl(),
        "{label}: trace export diverges"
    );
}

#[test]
fn outputs_are_byte_identical_across_shard_counts() {
    let w = world();
    let targets = hitlist(w, 120);
    let baseline = run_both(
        w,
        &spec_with(w, 42_001, Arc::clone(&targets), FaultPlan::none(), 1),
    );
    assert!(!baseline.records.is_empty(), "workload must be non-trivial");
    assert!(
        !baseline.trace_report.to_jsonl().is_empty(),
        "tracing must be live or the trace comparison is vacuous"
    );
    for shards in [4usize, 16] {
        let outcome = run_both(
            w,
            &spec_with(w, 42_001, Arc::clone(&targets), FaultPlan::none(), shards),
        );
        assert_outputs_equal(&baseline, &outcome, &format!("shards={shards}"));
    }
}

#[test]
fn sharded_pipeline_matches_the_threaded_reference() {
    let w = world();
    let targets = hitlist(w, 120);
    let spec = spec_with(w, 42_001, Arc::clone(&targets), FaultPlan::none(), 4);
    let sharded = run_both(w, &spec);
    let threaded = run_measurement_threaded(w, &spec).expect("valid spec");
    assert_outputs_equal(&threaded, &sharded, "threaded-vs-sharded");
}

/// FNV-1a over a run's deterministic outputs: probes sent, replies
/// delivered, the record count, then one formatted line per record in
/// canonical order.
fn pipeline_fingerprint(outcome: &MeasurementOutcome) -> u64 {
    let mut h = Fnv::new();
    h.update(&outcome.probes_sent.to_le_bytes());
    h.update(
        &outcome
            .telemetry
            .counter("fabric.replies_delivered")
            .to_le_bytes(),
    );
    h.update(&(outcome.records.len() as u64).to_le_bytes());
    for r in &outcome.records {
        let line = format!(
            "{:?}|{:?}|{}|{:?}|{:?}|{}|{:?}",
            r.prefix,
            r.protocol,
            r.rx_worker,
            r.tx_worker,
            r.tx_time_ms,
            r.rx_time_ms,
            r.chaos_identity
        );
        h.update(line.as_bytes());
    }
    h.finish()
}

/// The pre-batching scalar pipeline (one `send_probe_observed` and one
/// channel send per probe, one result send per record), frozen as its
/// answer on the v4 hitlist: it sent these probes, kept these records and
/// fingerprinted to this value. The batched, sharded pipeline must
/// reproduce all three.
#[test]
fn pipeline_reproduces_the_frozen_scalar_pipeline_answer() {
    let w = world();
    let targets = laces_hitlist::build_v4(w).addresses();
    assert_eq!(targets.len(), 24_818, "the frozen workload's hitlist");
    let spec = MeasurementSpec::builder(30_001, w.std_platforms.production)
        .targets(Arc::new(targets))
        .rate_per_s(10_000)
        .build(w)
        .expect("valid spec");
    let outcome = run_measurement(w, &spec).expect("valid spec");
    assert_eq!(outcome.probes_sent, 794_176, "probes sent");
    assert_eq!(outcome.records.len(), 598_101, "records");
    assert_eq!(
        pipeline_fingerprint(&outcome),
        0x876e_c704_5331_516b,
        "the output fingerprint moved off the scalar pipeline's"
    );
}

#[test]
fn faulted_outputs_are_byte_identical_across_shard_counts() {
    let w = world();
    // A crash point that lands mid-slice for every tested shard count,
    // plus lossy/duplicating capture fabric — the fault surface crossing
    // shard boundaries. The 120-target input fits in one tail frame per
    // worker at every shard count. On the 700-target input one shard
    // flushes worker 3's first full 256-order frame and crashes inside
    // the next, while 4 and 16 shards only ever flush tail frames.
    for (id, n, crash_after) in [(42_002, 120, 37), (42_011, 700, 300)] {
        let targets = hitlist(w, n);
        assert_eq!(targets.len(), n, "the world must hold {n} v4 targets");
        let plan = || {
            FaultPlan::with_seed(0xBA7C)
                .and_crash(3, crash_after)
                .and_fabric(0.05, 0.03)
        };
        let baseline = run_both(w, &spec_with(w, id, Arc::clone(&targets), plan(), 1));
        assert_eq!(
            baseline.failed_workers,
            vec![3],
            "n={n}: crash plan must fire"
        );
        assert!(
            baseline.telemetry.counter("fabric.dropped") > 0,
            "n={n}: fabric drop must fire"
        );
        for shards in [4usize, 16] {
            let outcome = run_both(w, &spec_with(w, id, Arc::clone(&targets), plan(), shards));
            assert_outputs_equal(
                &baseline,
                &outcome,
                &format!("faulted n={n} shards={shards}"),
            );
        }
    }
}

#[test]
fn midstream_abort_is_byte_identical_across_shard_counts() {
    let w = world();
    let targets = hitlist(w, 50);
    let plan = || FaultPlan::with_seed(0xAB07).and_fabric(0.02, 0.01);
    // Learn the run's total record count, then schedule the abort exactly
    // on the final record: the abort path executes (counter + degraded
    // reason) but deterministically cuts nothing, so the outcome stays
    // comparable across shard counts.
    let reference = run_both(w, &spec_with(w, 42_003, Arc::clone(&targets), plan(), 1));
    let total = reference.records.len();
    assert!(total > 0, "workload must be non-trivial");

    let abort_plan = || plan().and_abort_after(total);
    let baseline = run_both(
        w,
        &spec_with(w, 42_003, Arc::clone(&targets), abort_plan(), 1),
    );
    assert_eq!(baseline.telemetry.counter("orchestrator.aborts"), 1);
    assert!(baseline.is_degraded(), "abort must degrade the run");
    assert_eq!(
        baseline.records, reference.records,
        "abort on the final record must cut nothing"
    );
    for shards in [4usize, 16] {
        let outcome = run_both(
            w,
            &spec_with(w, 42_003, Arc::clone(&targets), abort_plan(), shards),
        );
        assert_outputs_equal(&baseline, &outcome, &format!("aborted shards={shards}"));
    }
}

#[test]
fn seal_rejection_is_byte_identical_across_shard_counts() {
    let w = world();
    let targets = hitlist(w, 120);
    let plan = || FaultPlan::with_seed(0x5EA1).and_reject_seal(5);
    let baseline = run_both(w, &spec_with(w, 42_007, Arc::clone(&targets), plan(), 1));
    assert_eq!(baseline.failed_workers, vec![5], "seal rejection must fire");
    for shards in [4usize, 16] {
        let outcome = run_both(
            w,
            &spec_with(w, 42_007, Arc::clone(&targets), plan(), shards),
        );
        assert_outputs_equal(&baseline, &outcome, &format!("sealed shards={shards}"));
    }
}

#[test]
fn surviving_crash_schedule_is_byte_identical_across_shard_counts() {
    let w = world();
    let targets = hitlist(w, 120);
    // Worker 7 is crash-scheduled past the end of the stream: its captures
    // are deferred during streaming and drained at seal.
    let plan = || {
        FaultPlan::with_seed(0xD1A5)
            .and_crash(7, 10_000)
            .and_fabric(0.05, 0.03)
    };
    let baseline = run_both(w, &spec_with(w, 42_008, Arc::clone(&targets), plan(), 1));
    assert!(baseline.failed_workers.is_empty(), "worker 7 must survive");
    assert!(
        baseline.telemetry.counter("worker.007.records_streamed") > 0,
        "the surviving worker's deferred captures must be drained"
    );
    for shards in [4usize, 16] {
        let outcome = run_both(
            w,
            &spec_with(w, 42_008, Arc::clone(&targets), plan(), shards),
        );
        assert_outputs_equal(&baseline, &outcome, &format!("survivor shards={shards}"));
    }
}

#[test]
fn chaos_and_repeated_prefix_hitlists_are_byte_identical_across_shard_counts() {
    let w = world();
    let v4 = hitlist(w, 80);
    let inputs = [
        ("chaos", Protocol::Chaos, chaos_hitlist(w, 60)),
        ("repeated", Protocol::Icmp, repeated_prefix_hitlist(&v4, 40)),
    ];
    for (id, (name, protocol, targets)) in (42_009..).zip(inputs) {
        let plan = || FaultPlan::with_seed(0xC4A0).and_fabric(0.05, 0.03);
        let spec = |shards| spec_for(w, id, protocol, Arc::clone(&targets), plan(), shards);
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
        for shards in [4usize, 16] {
            let outcome = run_both(w, &spec(shards));
            assert_outputs_equal(&baseline, &outcome, &format!("{name} shards={shards}"));
        }
    }
}

#[test]
fn shard_report_reflects_the_layout_without_leaking_into_telemetry() {
    let w = world();
    let targets = hitlist(w, 120);
    let outcome = run_both(
        w,
        &spec_with(w, 42_004, Arc::clone(&targets), FaultPlan::none(), 4),
    );
    assert_eq!(outcome.shard_report.gauge("orchestrator.shards"), 4);
    let stages = &outcome.shard_report.stages;
    assert_eq!(stages.len(), 1, "one parent stage for the sharded stream");
    assert_eq!(stages[0].name, "stream:sharded");
    assert_eq!(stages[0].children.len(), 4, "one child stage per shard");
    let targets_covered: u64 = stages[0]
        .children
        .iter()
        .map(|c| c.counter("targets"))
        .sum();
    assert_eq!(targets_covered, 120, "shard slices must cover the hitlist");
    // The canonical telemetry must not mention shard layout at all.
    assert!(
        !outcome.telemetry.to_jsonl().contains("shard"),
        "shard-dependent keys leaked into the invariant run report"
    );
}

#[test]
fn builder_rejects_zero_shards() {
    let w = world();
    let err = MeasurementSpec::builder(42_005, w.std_platforms.production)
        .targets(hitlist(w, 4))
        .shards(0)
        .build(w)
        .unwrap_err();
    assert_eq!(err, MeasurementError::InvalidShardCount);
    assert!(err.to_string().contains("shard count"));
}

#[test]
fn builder_rejects_zero_rate() {
    let w = world();
    let err = MeasurementSpec::builder(42_006, w.std_platforms.production)
        .targets(hitlist(w, 4))
        .rate_per_s(0)
        .build(w)
        .unwrap_err();
    assert_eq!(err, MeasurementError::InvalidRate);
    assert!(err.to_string().contains("rate"));
}
