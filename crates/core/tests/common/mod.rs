//! Helpers shared by the shard-invariance suite: the record path and the
//! census's classify-at-capture path must agree on every spec it runs,
//! and both must agree with the byte-path [`oracle`].

use std::net::IpAddr;
use std::sync::Arc;

use laces_core::classify::AnycastClassification;
use laces_core::orchestrator::{run_classified, run_measurement};
use laces_core::rate::window_start_ms;
use laces_core::results::{MeasurementOutcome, ProbeRecord};
use laces_core::spec::MeasurementSpec;
use laces_hitlist::Source;
use laces_netsim::wire::{MeasurementCtx, ProbeSource};
use laces_netsim::{platform as plat, World};
use laces_packet::probe::{build_probe, parse_reply, ProbeMeta};
use laces_packet::PrefixKey;
use laces_trace::Tracer;

/// What one worker did in an [`oracle`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleWorker {
    /// Probes the worker sent.
    pub probes_sent: u64,
    /// Its probes that drew a reply.
    pub replies_delivered: u64,
    /// Its probes that drew none.
    pub unanswered: u64,
    /// Replies captured at its site that `parse_reply` accepted.
    pub records: u64,
    /// Replies captured at its site that `parse_reply` rejected.
    pub captures_rejected: u64,
}

/// The [`oracle`]'s answer for one spec.
#[derive(Debug)]
pub struct Oracle {
    /// Probes sent by every worker.
    pub probes_sent: u64,
    /// Every accepted reply, in the pipeline's canonical record order.
    pub records: Vec<ProbeRecord>,
    /// Per-worker counts, indexed by worker.
    pub workers: Vec<OracleWorker>,
}

/// The paper's byte-level prober as one loop, for a fault-free spec. For
/// each target in hitlist order, every sending worker builds the probe
/// bytes with the spec's encoding, stamped `offset_ms × worker` after the
/// target's rate window opens, and sends them through
/// `World::send_probe`. The worker whose site the reply reaches keeps it
/// when `parse_reply` accepts it. No threads, shards, frames, sessions or
/// prepared replies.
pub fn oracle(world: &World, spec: &MeasurementSpec) -> Oracle {
    assert!(spec.faults.is_none(), "the oracle models no faults");
    let n_workers = world.platform(spec.platform).n_vps();
    let src = match spec.targets.first() {
        Some(IpAddr::V6(_)) => plat::anycast_src_v6(spec.platform),
        _ => plat::anycast_src_v4(spec.platform),
    };
    let ctx = MeasurementCtx {
        id: spec.id,
        day: spec.day,
        span_ms: spec.span_ms(n_workers),
    };
    let mut out = Oracle {
        probes_sent: 0,
        records: Vec::new(),
        workers: vec![OracleWorker::default(); n_workers],
    };
    for (i, &target) in spec.targets.iter().enumerate() {
        let window = window_start_ms(i, spec.rate_per_s);
        for w in 0..n_workers {
            let worker_id = u16::try_from(w).expect("at most 64 workers");
            if !spec.is_sender(worker_id) {
                continue;
            }
            let tx_time_ms = window + spec.offset_ms * u64::from(worker_id);
            let meta = ProbeMeta {
                measurement_id: spec.id,
                worker_id,
                tx_time_ms,
            };
            let probe = build_probe(src, target, spec.protocol, &meta, spec.encoding);
            let source = ProbeSource::Worker {
                platform: spec.platform,
                site: w,
            };
            let reply = world
                .send_probe(source, &probe, tx_time_ms, window, &ctx)
                .expect("built probes are well-formed");
            out.probes_sent += 1;
            out.workers[w].probes_sent += 1;
            let Some(d) = reply else {
                out.workers[w].unanswered += 1;
                continue;
            };
            out.workers[w].replies_delivered += 1;
            let rx = &mut out.workers[d.rx_index];
            match parse_reply(&d.packet, spec.id, d.rx_time_ms) {
                Ok(info) => {
                    rx.records += 1;
                    out.records.push(ProbeRecord {
                        prefix: PrefixKey::of(d.packet.src),
                        protocol: info.protocol,
                        rx_worker: u16::try_from(d.rx_index).expect("at most 64 workers"),
                        tx_worker: info.tx_worker,
                        tx_time_ms: info.tx_time_ms,
                        rx_time_ms: d.rx_time_ms,
                        chaos_identity: info.chaos_identity,
                    });
                }
                Err(_) => rx.captures_rejected += 1,
            }
        }
    }
    out.records.sort_unstable_by_key(|r| {
        (
            r.prefix,
            r.tx_worker,
            r.rx_worker,
            r.tx_time_ms,
            r.rx_time_ms,
        )
    });
    out
}

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
