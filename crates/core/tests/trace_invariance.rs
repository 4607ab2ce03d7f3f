//! Flight-recorder determinism: tracing observes, it never perturbs.
//!
//! The tentpole claim of `laces-trace` is that the recorded event stream
//! is part of the deterministic output surface: both exporters (JSONL and
//! Chrome trace-event) are bit-identical across reruns and across shard
//! counts, fault-free and under crash+fabric fault plans, and the seeded
//! target-keyed sample traces the *same* targets on every rerun. These
//! are the only tests that compare the Chrome export across layouts;
//! `shard_invariance.rs` covers the JSONL trace together with records,
//! classification and telemetry.

use std::net::IpAddr;
use std::sync::{Arc, OnceLock};

use laces_core::fault::FaultPlan;
use laces_core::orchestrator::run_measurement;
use laces_core::results::MeasurementOutcome;
use laces_core::spec::MeasurementSpec;
use laces_netsim::{World, WorldConfig};
use laces_packet::PrefixKey;
use laces_trace::explain::ProbeFate;
use laces_trace::{prefix_sampled, TraceConfig};

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
    trace: TraceConfig,
) -> MeasurementSpec {
    MeasurementSpec::builder(id, world.std_platforms.production)
        .targets(targets)
        .faults(faults)
        .shards(shards)
        .trace(trace)
        .build(world)
        .expect("valid spec")
}

/// A crash+fabric plan: worker 3 crashes after 37 of its 120 orders, and
/// the capture fabric drops 5% and duplicates 3% of deliveries.
fn faulted_plan() -> FaultPlan {
    FaultPlan::with_seed(0xBA7C)
        .and_crash(3, 37)
        .and_fabric(0.05, 0.03)
}

/// Both exporters, as the byte strings the invariance claims are over.
fn exports(outcome: &MeasurementOutcome) -> (String, String) {
    (
        outcome.trace_report.to_jsonl(),
        outcome.trace_report.to_chrome_json(),
    )
}

#[test]
fn trace_exports_are_bit_identical_across_shard_counts() {
    let w = world();
    let targets = hitlist(w, 120);
    let trace = TraceConfig::all(0x7ACE);
    let run = |shards: usize| {
        run_measurement(
            w,
            &spec_with(
                w,
                42_001,
                Arc::clone(&targets),
                FaultPlan::none(),
                shards,
                trace,
            ),
        )
        .expect("valid spec")
    };
    let baseline = run(1);
    assert!(
        baseline.trace_report.n_events() > 0,
        "tracing must record a non-trivial stream"
    );
    let (jsonl, chrome) = exports(&baseline);
    // Rerun at the same shard count: bit-identical.
    assert_eq!(exports(&run(1)), (jsonl.clone(), chrome.clone()));
    // The shard layout is a throughput knob: exports do not move.
    for shards in [4usize, 16] {
        let outcome = run(shards);
        assert_eq!(
            exports(&outcome),
            (jsonl.clone(), chrome.clone()),
            "trace exports diverge at shards={shards}"
        );
    }
}

#[test]
fn faulted_trace_exports_are_bit_identical_across_shard_counts() {
    let w = world();
    let targets = hitlist(w, 120);
    let trace = TraceConfig::all(0x7ACE);
    let run = |shards: usize| {
        run_measurement(
            w,
            &spec_with(
                w,
                42_002,
                Arc::clone(&targets),
                faulted_plan(),
                shards,
                trace,
            ),
        )
        .expect("valid spec")
    };
    let baseline = run(1);
    assert_eq!(baseline.failed_workers, vec![3], "crash plan must fire");
    let (jsonl, chrome) = exports(&baseline);
    assert!(
        jsonl.contains("WorkerFault") || jsonl.contains("worker_fault") || jsonl.contains("crash"),
        "the crash must be on the record"
    );
    assert_eq!(exports(&run(1)), (jsonl.clone(), chrome.clone()));
    for shards in [4usize, 16] {
        let outcome = run(shards);
        assert_eq!(
            exports(&outcome),
            (jsonl.clone(), chrome.clone()),
            "faulted trace exports diverge at shards={shards}"
        );
    }
}

#[test]
fn sampling_is_seeded_and_target_keyed() {
    let w = world();
    let targets = hitlist(w, 120);
    let trace = TraceConfig::sampled(0x5EED, 250);
    let run = |shards: usize| {
        run_measurement(
            w,
            &spec_with(
                w,
                42_003,
                Arc::clone(&targets),
                FaultPlan::none(),
                shards,
                trace,
            ),
        )
        .expect("valid spec")
    };
    let baseline = run(1);
    let traced = baseline.trace_report.traced_prefixes();
    assert!(
        !traced.is_empty() && traced.len() < targets.len(),
        "250‰ over 120 targets must be a strict, non-empty subset \
         (got {} of {})",
        traced.len(),
        targets.len()
    );
    // The sample is the predicate, not an artifact of scheduling: every
    // traced prefix satisfies prefix_sampled and every sampled target in
    // the hitlist is traced.
    for prefix in &traced {
        assert!(prefix_sampled(0x5EED, 250, *prefix));
    }
    for addr in targets.iter() {
        let prefix = PrefixKey::of(*addr);
        assert_eq!(
            prefix_sampled(0x5EED, 250, prefix),
            traced.contains(&prefix),
            "{prefix} sampling must be target-keyed"
        );
    }
    // Reruns and every shard layout trace the same targets, byte for byte.
    let (jsonl, chrome) = exports(&baseline);
    for shards in [1usize, 4, 16] {
        let outcome = run(shards);
        assert_eq!(outcome.trace_report.traced_prefixes(), traced);
        assert_eq!(exports(&outcome), (jsonl.clone(), chrome.clone()));
    }
}

#[test]
fn explain_is_complete_for_every_sampled_target_under_faults() {
    let w = world();
    let targets = hitlist(w, 120);
    let outcome = run_measurement(
        w,
        &spec_with(
            w,
            42_004,
            Arc::clone(&targets),
            faulted_plan(),
            16,
            TraceConfig::all(0x7ACE),
        ),
    )
    .expect("valid spec");
    let mut fabric_losses = 0usize;
    let mut worker_fault_losses = 0usize;
    for addr in targets.iter() {
        let prefix = PrefixKey::of(*addr);
        let ex = outcome.trace_report.explain(prefix);
        assert!(ex.sampled, "{prefix}: TraceConfig::all samples everything");
        assert!(
            ex.complete,
            "{prefix}: chain incomplete under faults\nsteps: {:#?}\nprobes: {:#?}",
            ex.steps, ex.probes
        );
        assert!(!ex.probes.is_empty(), "{prefix}: no probe orders resolved");
        for probe in &ex.probes {
            match probe.fate {
                ProbeFate::DroppedByFabric { .. } => fabric_losses += 1,
                ProbeFate::LostToWorkerFault { .. }
                | ProbeFate::CaptureLostToWorkerFault { .. } => worker_fault_losses += 1,
                _ => {}
            }
        }
    }
    assert!(
        fabric_losses > 0,
        "the fabric drop fault must be attributed somewhere"
    );
    assert!(
        worker_fault_losses > 0,
        "the worker crash must be attributed somewhere"
    );
}

#[test]
fn tracing_is_disabled_by_default_and_off_means_empty() {
    let w = world();
    let targets = hitlist(w, 16);
    let spec = MeasurementSpec::builder(42_005, w.std_platforms.production)
        .targets(Arc::clone(&targets))
        .build(w)
        .expect("valid spec");
    assert!(!spec.trace.enabled, "tracing must be opt-in");
    let outcome = run_measurement(w, &spec).expect("valid spec");
    assert!(!outcome.trace_report.enabled);
    assert_eq!(outcome.trace_report.n_events(), 0);
    let ex = outcome.trace_report.explain(PrefixKey::of(targets[0]));
    assert!(!ex.complete);
    assert!(ex.steps[0].contains("disabled"));

    // Turning tracing on never changes the work: sampled and full traces
    // send the same probes and collect the same records and telemetry as
    // the untraced run, fault-free and under crash+fabric faults.
    let targets = hitlist(w, 120);
    for (id, faults) in [(42_006, FaultPlan::none()), (42_007, faulted_plan())] {
        let run = |trace: TraceConfig| {
            run_measurement(
                w,
                &spec_with(w, id, Arc::clone(&targets), faults.clone(), 4, trace),
            )
            .expect("valid spec")
        };
        let untraced = run(TraceConfig::default());
        for trace in [TraceConfig::sampled(0x7ACE, 125), TraceConfig::all(0x7ACE)] {
            let traced = run(trace);
            let label = format!("id={id} per_mille={}", trace.sample_per_mille);
            assert!(
                traced.trace_report.n_events() > 0,
                "{label}: traced nothing"
            );
            assert_eq!(traced.records, untraced.records, "{label}: records");
            assert_eq!(traced.probes_sent, untraced.probes_sent, "{label}: probes");
            assert_eq!(
                traced.telemetry.to_jsonl(),
                untraced.telemetry.to_jsonl(),
                "{label}: run report"
            );
        }
    }
}
