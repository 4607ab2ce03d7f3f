//! Helpers shared by the shard-invariance suite: the record path and the
//! census's classify-at-capture path must agree on every spec it runs.

use std::net::IpAddr;
use std::sync::Arc;

use laces_core::classify::AnycastClassification;
use laces_core::orchestrator::{run_classified, run_measurement};
use laces_core::results::MeasurementOutcome;
use laces_core::spec::MeasurementSpec;
use laces_hitlist::Source;
use laces_netsim::World;
use laces_trace::Tracer;

/// `run_measurement(spec)`, after checking that `run_classified(spec)`
/// reports the same pass: the classification `from_outcome` builds from
/// the records (`Debug` form), the telemetry JSONL (`worker.rtt_ms` and
/// `orchestrator.records_collected` included), the measurement trace and
/// the classify trace section, probe count and worker health.
pub fn run_both(world: &Arc<World>, spec: &MeasurementSpec) -> MeasurementOutcome {
    let label = format!("id={} shards={}", spec.id, spec.shards);
    let outcome = run_measurement(world, spec).expect("valid spec");
    let record_tracer = Tracer::new(spec.trace);
    let from_records = AnycastClassification::from_outcome_traced(&outcome, &record_tracer);
    let fused_tracer = Tracer::new(spec.trace);
    let fused = run_classified(world, spec, &fused_tracer).expect("valid spec");

    assert_eq!(
        format!("{:?}", fused.classification),
        format!("{from_records:?}"),
        "{label}: fused classification diverges"
    );
    assert_eq!(
        fused.telemetry.counter("orchestrator.records_collected"),
        outcome.records.len() as u64,
        "{label}: records_collected must count the record path's records"
    );
    assert_eq!(
        fused.telemetry.to_jsonl(),
        outcome.telemetry.to_jsonl(),
        "{label}: fused run report diverges"
    );
    assert_eq!(
        fused.trace_report.to_jsonl(),
        outcome.trace_report.to_jsonl(),
        "{label}: fused measurement trace diverges"
    );
    assert_eq!(
        fused_tracer.snapshot("classify").to_jsonl(),
        record_tracer.snapshot("classify").to_jsonl(),
        "{label}: fused classify trace diverges"
    );
    assert_eq!(
        fused.probes_sent, outcome.probes_sent,
        "{label}: fused probes_sent diverges"
    );
    assert_eq!(
        fused.worker_health, outcome.worker_health,
        "{label}: fused worker health diverges"
    );
    outcome
}

/// A v4 CHAOS hitlist: up to `n` nameservers (which disclose identities)
/// followed by `n` plain ping-scan addresses.
pub fn chaos_hitlist(world: &World, n: usize) -> Arc<Vec<IpAddr>> {
    let dns = laces_hitlist::build_v4_dns(world);
    let of = |source: Source| {
        dns.entries
            .iter()
            .filter(move |e| e.source == source)
            .take(n)
            .map(|e| e.addr)
    };
    Arc::new(of(Source::Nameserver).chain(of(Source::PingScan)).collect())
}

/// `base` followed by its first `k` addresses again: a hitlist whose
/// prefixes repeat at several positions, so a per-position table must
/// fold by prefix.
pub fn repeated_prefix_hitlist(base: &[IpAddr], k: usize) -> Arc<Vec<IpAddr>> {
    Arc::new(base.iter().chain(&base[..k]).copied().collect())
}
