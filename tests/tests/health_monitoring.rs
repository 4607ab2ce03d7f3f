//! End-to-end health monitoring over real pipeline output: a faulted
//! census day must produce at least one `HealthFinding` whose
//! `explain()` names the attributed loss cause while an identical
//! fault-free rerun produces none; the `health.series` sidecars and
//! Prometheus exports must be byte-identical across reruns and shard
//! counts; and the query layer's per-day artifact listing must agree
//! with the telemetry it summarizes.

use std::net::IpAddr;
use std::path::Path;
use std::sync::Arc;

use laces_census::health::detect::DetectorConfig;
use laces_census::health::{prometheus, Monitor, MonitorConfig};
use laces_census::pipeline::{CensusPipeline, PipelineConfig};
use laces_census::record::DailyCensus;
use laces_census::store::CensusStore;
use laces_census::QueryService;
use laces_core::fault::FaultPlan;
use laces_core::orchestrator::run_measurement;
use laces_core::spec::MeasurementSpec;
use laces_netsim::{World, WorldConfig};
use laces_packet::Protocol;

fn world() -> Arc<World> {
    Arc::new(World::generate(WorldConfig::tiny()))
}

/// A crash-plus-fabric fault plan: worker 3 dies after 5 orders, worker
/// 9 after 40, and the capture fabric drops 5% / duplicates 2%.
fn crash_and_fabric() -> FaultPlan {
    FaultPlan::with_seed(7_010)
        .and_crash(3, 5)
        .and_crash(9, 40)
        .and_fabric(0.05, 0.02)
}

fn run_day_with(w: &Arc<World>, cfg: PipelineConfig, day: u32) -> DailyCensus {
    let mut pipeline = CensusPipeline::new(Arc::clone(w), cfg);
    pipeline.run_day(day).expect("valid pipeline config").census
}

/// `n_clean` fault-free days followed by one faulted day, saved in
/// order into a fresh store at `dir`.
fn archive_with_faulted_tail(w: &Arc<World>, dir: &Path, n_clean: u32) -> CensusStore {
    let _ = std::fs::remove_dir_all(dir);
    let store = CensusStore::open(dir).unwrap();
    for day in 0..n_clean {
        store
            .save(&run_day_with(w, PipelineConfig::icmp_only(w), day))
            .unwrap();
    }
    let mut cfg = PipelineConfig::icmp_only(w);
    cfg.faults = crash_and_fabric();
    store.save(&run_day_with(w, cfg, n_clean)).unwrap();
    store
}

fn clean_archive(w: &Arc<World>, dir: &Path, n_days: u32) -> CensusStore {
    let _ = std::fs::remove_dir_all(dir);
    let store = CensusStore::open(dir).unwrap();
    for day in 0..n_days {
        store
            .save(&run_day_with(w, PipelineConfig::icmp_only(w), day))
            .unwrap();
    }
    store
}

/// The acceptance scenario: a crash+fabric day in an otherwise clean
/// archive yields at least one finding whose explanation names the
/// attributed loss cause; the identical fault-free archive yields zero.
#[test]
fn faulted_day_yields_explained_findings_and_clean_rerun_yields_none() {
    let w = world();
    let dir = std::env::temp_dir().join("laces-health-e2e-faulted");
    let store = archive_with_faulted_tail(&w, &dir, 8);

    let mut health = store.health().build().unwrap();
    let cfg = DetectorConfig::standard(7_010);
    let findings = health.findings(&cfg).unwrap();
    assert!(
        !findings.is_empty(),
        "crash+fabric day must surface at least one finding"
    );
    // The faulted day attributes its loss; the explanation must name
    // the cause (fabric drops dominate this plan) and the day.
    let attributed = findings
        .iter()
        .find(|f| f.detector == "attributed-loss")
        .expect("attributed-loss detector fires on the faulted day");
    assert_eq!(attributed.day, 8);
    let explain = attributed.explain();
    assert!(
        explain.contains("fabric.dropped"),
        "explain() must name the dominant loss cause, got: {explain}"
    );
    assert!(
        attributed.trace_prefix.is_some(),
        "finding links into the trace namespace"
    );

    // Identical world, identical spec, no fault plan: zero findings.
    let clean_dir = std::env::temp_dir().join("laces-health-e2e-clean");
    let clean = clean_archive(&w, &clean_dir, 9);
    let mut clean_health = clean.health().build().unwrap();
    assert_eq!(
        clean_health.findings(&cfg).unwrap(),
        vec![],
        "a fault-free rerun must produce zero findings"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&clean_dir);
}

/// The sidecar bytes and the Prometheus export are bit-identical
/// across shard counts {1, 4, 16} and across a rerun — under a
/// crash+fabric fault plan, where shard layout differs most.
#[test]
fn health_sidecar_and_prometheus_are_invariant_across_shards_and_reruns() {
    let w = world();
    let mut outputs: Vec<(String, Vec<u8>, String)> = Vec::new();
    for (label, shards) in [
        ("shards=1", Some(1)),
        ("shards=4", Some(4)),
        ("shards=16", Some(16)),
        ("shards=4 rerun", Some(4)),
        ("unsharded", None),
    ] {
        let dir = std::env::temp_dir().join(format!(
            "laces-health-shards-{}",
            label.replace(['=', ' '], "-")
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CensusStore::open(&dir).unwrap();
        let mut cfg = PipelineConfig::icmp_only(&w);
        cfg.faults = crash_and_fabric();
        cfg.shards = shards;
        store.save(&run_day_with(&w, cfg, 3)).unwrap();

        let sidecar = dir.join("census-day-00003.health.series");
        let bytes = std::fs::read(&sidecar).expect("save writes the health sidecar");
        let prom = prometheus::render_day(&store.load_health(3).unwrap());
        outputs.push((label.to_string(), bytes, prom));
        let _ = std::fs::remove_dir_all(&dir);
    }
    let (_, first_bytes, first_prom) = &outputs[0];
    for (label, bytes, prom) in &outputs[1..] {
        assert_eq!(bytes, first_bytes, "sidecar bytes differ for {label}");
        assert_eq!(prom, first_prom, "prometheus export differs for {label}");
    }
}

/// Satellite 3: the query layer's per-day artifact listing reports the
/// same degraded flag as the telemetry sidecar read through the
/// `Degraded` trait, and lists the health sidecar the store wrote.
#[test]
fn day_artifacts_agree_with_telemetry_and_list_the_health_sidecar() {
    let w = world();
    let dir = std::env::temp_dir().join("laces-health-artifacts");
    let store = archive_with_faulted_tail(&w, &dir, 2);

    let mut qs = QueryService::open(&dir).build().unwrap();
    for day in 0..=2u32 {
        let artifacts = qs.day_artifacts(day).unwrap();
        assert_eq!(artifacts.day, day);
        assert_eq!(
            artifacts.degraded,
            store.load_telemetry(day).unwrap().is_degraded(),
            "day {day}: artifact flag must equal the telemetry's Degraded view"
        );
        assert!(artifacts.records.exists());
        assert!(artifacts.index.exists());
        let health_series = artifacts
            .health_series
            .expect("every saved day has a health sidecar");
        assert!(health_series.exists());
        assert_eq!(
            store.load_health(day).unwrap().day,
            day,
            "the listed sidecar decodes to the same day"
        );
    }
    assert!(qs.day_artifacts(2).unwrap().degraded, "faulted tail day");
    assert!(!qs.day_artifacts(0).unwrap().degraded, "clean day");

    let _ = std::fs::remove_dir_all(&dir);
}

fn census_spec(world: &World, faults: FaultPlan) -> MeasurementSpec {
    let targets: Arc<Vec<IpAddr>> = Arc::new(laces_hitlist::build_v4(world).addresses());
    let mut spec = MeasurementSpec::census(
        41_000,
        world.std_platforms.production,
        Protocol::Icmp,
        targets,
        0,
    );
    spec.faults = faults;
    spec
}

/// The monitor's tick log is a pure function of the schedule: reruns
/// are byte-identical, the invariant JSONL view drops the (layout
/// dependent) per-worker skew, progress reaches 100%, and the
/// schedule sees the fault plan's crashes.
#[test]
fn monitor_log_is_deterministic_and_sees_scheduled_crashes() {
    let w = world();
    let spec = census_spec(
        &w,
        FaultPlan::with_seed(41).and_crash(2, 10).and_crash(5, 25),
    );
    let monitor = Monitor::new(MonitorConfig::every_ms(5_000));

    let (outcome, log) = monitor
        .run(&spec, || run_measurement(&w, &spec))
        .expect("measurement completes under crashes");
    let (_, rerun_log) = monitor
        .run(&spec, || run_measurement(&w, &spec))
        .expect("rerun completes");

    assert_eq!(
        log.to_jsonl(),
        rerun_log.to_jsonl(),
        "monitor log is rerun-deterministic"
    );
    assert!(!log.ticks.is_empty());
    let last = log.ticks.last().unwrap();
    assert_eq!(
        last.progress_permille, 1000,
        "final tick covers the full schedule"
    );
    assert_eq!(last.eta_ms, 0);
    assert_eq!(
        last.workers_crashed, 2,
        "both planned crashes are visible on the schedule"
    );
    assert!(log.summary.failed_workers >= 2);
    assert_eq!(log.summary.records, outcome.records.len() as u64);

    // worker_skew is quarantined: present in the full JSONL, absent
    // from the invariant view and the Prometheus export.
    assert!(log.to_jsonl().contains("\"kind\":\"skew\""));
    assert!(!log.invariant_jsonl().contains("\"kind\":\"skew\""));
    assert!(!prometheus::render_monitor(&log).contains("skew"));

    // Disabled monitor: no ticks, no overhead surface.
    let disabled = Monitor::disabled().observe(&spec, &outcome);
    assert!(!disabled.enabled);
    assert!(disabled.ticks.is_empty());
    assert_eq!(disabled.summary.probes_sent, log.summary.probes_sent);
}

/// A sender-restricted run: the budget and the schedule both skip the
/// workers that do not transmit, so progress ends at exactly 1000‰ with
/// the whole budget scheduled — and the budget is what was sent.
#[test]
fn monitor_progress_on_a_sender_restricted_run_ends_at_the_budget() {
    let w = world();
    let mut spec = census_spec(&w, FaultPlan::none());
    spec.senders = Some(vec![3]);
    let (outcome, log) = Monitor::new(MonitorConfig::every_ms(5_000))
        .run(&spec, || run_measurement(&w, &spec))
        .expect("measurement completes");
    assert_eq!(log.total_probes, outcome.probes_sent);
    assert!(log.ticks.iter().all(|t| t.progress_permille <= 1000));
    let last = log.ticks.last().unwrap();
    assert_eq!(
        last.progress_permille, 1000,
        "final tick covers the schedule"
    );
    assert_eq!(last.probes_scheduled, log.total_probes);
}

/// Prometheus text round-trips: `parse(render(samples)) == samples`
/// for both export surfaces, on real pipeline output.
#[test]
fn prometheus_exports_round_trip_on_real_output() {
    let w = world();
    let dir = std::env::temp_dir().join("laces-health-prom-roundtrip");
    let store = archive_with_faulted_tail(&w, &dir, 1);

    for day in 0..=1u32 {
        let series = store.load_health(day).unwrap();
        let samples = prometheus::day_samples(&series);
        assert!(!samples.is_empty());
        let parsed = prometheus::parse(&prometheus::render_day(&series)).unwrap();
        assert_eq!(parsed, samples, "day {day} export round-trips");
    }

    let spec = census_spec(&w, FaultPlan::with_seed(9).and_fabric(0.03, 0.01));
    let outcome = run_measurement(&w, &spec).unwrap();
    let log = Monitor::new(MonitorConfig::every_ms(10_000)).observe(&spec, &outcome);
    let samples = prometheus::monitor_samples(&log);
    let parsed = prometheus::parse(&prometheus::render_monitor(&log)).unwrap();
    assert_eq!(parsed, samples, "monitor export round-trips");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Longitudinal queries over a real archive: every day answers the
/// headline metric, and the rolling baseline warms up only after its
/// window has history.
#[test]
fn metric_history_and_rolling_baseline_cover_the_archive() {
    let w = world();
    let dir = std::env::temp_dir().join("laces-health-history");
    let store = archive_with_faulted_tail(&w, &dir, 4);

    let mut health = store.health().build().unwrap();
    assert_eq!(health.days(), &[0, 1, 2, 3, 4]);

    let history = health.metric_history("probes_sent").unwrap();
    assert_eq!(history.len(), 5);
    assert!(history.iter().all(|(_, v)| v.is_some_and(|p| p > 0)));

    let baseline = health.rolling_baseline("probes_sent", 3).unwrap();
    assert_eq!(baseline.len(), 5);
    assert!(
        baseline[..3].iter().all(|(_, v)| v.is_none()),
        "window warms up"
    );
    assert!(baseline[3..].iter().all(|(_, v)| v.is_some()));

    // The faulted tail shows up day-over-day: probes were lost, so the
    // diff of day 3 → day 4 is non-empty.
    let diff = health.diff(3, 4).unwrap();
    assert!(!diff.is_empty(), "crash+fabric day changes the run report");

    let _ = std::fs::remove_dir_all(&dir);
}
