//! Worker-level security behaviour (R8): a worker must refuse a start
//! order that does not authenticate, must ignore captured packets from
//! other measurements, and must keep the replies to its own measurement's
//! probes, each probe sent at the window its order scheduled.

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::Arc;

use laces_core::auth::{AuthKey, Sealed};
use laces_core::fault::FaultPlan;
use laces_core::orchestrator::run_measurement;
use laces_core::rate::window_start_ms;
use laces_core::results::WorkerStatus;
use laces_core::spec::MeasurementSpec;
use laces_core::worker::StartOrder;
use laces_core::DegradedReason;
use laces_netsim::wire::{MeasurementCtx, ProbeSource};
use laces_netsim::{platform as plat, World, WorldConfig};
use laces_packet::probe::{attribute_prepared, build_probe, parse_reply, PreparedReply};
use laces_packet::{PacketError, PrefixKey, ProbeEncoding, ProbeMeta, Protocol};

fn world() -> Arc<World> {
    Arc::new(World::generate(WorldConfig::tiny()))
}

/// The representative addresses of the first `n` ICMP-responsive IPv4
/// targets.
fn responsive_v4(world: &World, n: usize) -> Arc<Vec<IpAddr>> {
    Arc::new(
        world
            .targets
            .iter()
            .filter_map(|t| match t.prefix {
                PrefixKey::V4(p) if t.resp.icmp => Some(IpAddr::V4(p.addr(77))),
                _ => None,
            })
            .take(n)
            .collect(),
    )
}

/// Worker 0 as the only sender, on 20 responsive targets.
fn sole_sender_spec(world: &World, id: u32, faults: FaultPlan, shards: usize) -> MeasurementSpec {
    MeasurementSpec::builder(id, world.std_platforms.production)
        .targets(responsive_v4(world, 20))
        .rate_per_s(10)
        .senders(vec![0])
        .shards(shards)
        .faults(faults)
        .build(world)
        .expect("valid spec")
}

#[test]
fn worker_refuses_unauthenticated_start_order() {
    let w = world();
    let good_key = AuthKey::derive(1);
    let bad_key = AuthKey::derive(2);
    let order = StartOrder {
        measurement_id: 900,
        platform: w.std_platforms.production,
        worker_id: 0,
        protocol: Protocol::Icmp,
        encoding: ProbeEncoding::PerWorker,
        offset_ms: 1_000,
        span_ms: 31_000,
        day: 0,
        src_addr: plat::anycast_src_v4(w.std_platforms.production),
        fail_after: None,
        fabric_faults: None,
    };
    // A start order sealed under another key does not open under the
    // worker's; one sealed under its own key opens intact.
    assert_eq!(Sealed::seal(bad_key, order.clone()).open(good_key), None);
    assert_eq!(
        Sealed::seal(good_key, order.clone()).open(good_key),
        Some(order)
    );

    // In a run, the refused worker is the only sender: nothing is probed,
    // and a refused worker emits nothing.
    let outcome = run_measurement(
        &w,
        &sole_sender_spec(&w, 900, FaultPlan::none().and_reject_seal(0), 4),
    )
    .expect("valid spec");
    assert_eq!(outcome.failed_workers, vec![0]);
    assert_eq!(
        outcome.degraded_reasons(),
        &[DegradedReason::SealRejected { worker: 0 }]
    );
    assert_eq!(outcome.worker_health[0].status, WorkerStatus::Failed);
    assert_eq!(outcome.probes_sent, 0);
    assert!(outcome.records.is_empty());
    assert_eq!(outcome.telemetry.counter("worker.000.records_streamed"), 0);
    assert_eq!(outcome.telemetry.counter("worker.captures_rejected"), 0);

    // Non-vacuity: with its seal intact, the same worker probes every
    // target and keeps replies.
    let clean =
        run_measurement(&w, &sole_sender_spec(&w, 900, FaultPlan::none(), 4)).expect("valid spec");
    assert!(clean.failed_workers.is_empty());
    assert_eq!(clean.probes_sent, 20);
    assert!(!clean.records.is_empty());
}

#[test]
fn worker_discards_captures_from_other_measurements() {
    let w = world();
    // A reply to a *foreign* probe (another measurement id), captured at
    // a site of the platform.
    const FOREIGN: u32 = 999_999;
    let target = responsive_v4(&w, 1)[0];
    let foreign = ProbeMeta {
        measurement_id: FOREIGN,
        worker_id: 0,
        tx_time_ms: 0,
    };
    let probe = build_probe(
        plat::anycast_src_v4(w.std_platforms.production),
        target,
        Protocol::Icmp,
        &foreign,
        ProbeEncoding::PerWorker,
    );
    let ctx = MeasurementCtx {
        id: FOREIGN,
        day: 0,
        span_ms: 0,
    };
    let source = ProbeSource::Worker {
        platform: w.std_platforms.production,
        site: 0,
    };
    let d = w
        .send_probe(source, &probe, 0, 0, &ctx)
        .expect("built probes are well-formed")
        .expect("target responds");
    let prepared = PreparedReply {
        meta: foreign,
        encoding: ProbeEncoding::PerWorker,
        chaos_identity: None,
    };
    // Both capture paths: the reply bytes and the prepared attribution.
    let verdicts = |id| {
        (
            parse_reply(&d.packet, id, d.rx_time_ms),
            attribute_prepared(Protocol::Icmp, &prepared, id, d.rx_time_ms),
        )
    };

    // A worker of measurement 901 rejects it on both paths.
    let not_ours = Err(PacketError::NotOurs);
    assert_eq!(verdicts(901), (not_ours.clone(), not_ours));
    // Non-vacuity: the foreign measurement's own worker keeps it, and
    // both paths attribute it alike.
    let (via_bytes, via_meta) = verdicts(FOREIGN);
    assert_eq!(via_meta, via_bytes);
    assert_eq!(via_bytes.map(|r| r.tx_worker), Ok(Some(0)));
}

#[test]
fn worker_processes_orders_and_validates_own_captures() {
    let w = world();
    let spec = sole_sender_spec(&w, 902, FaultPlan::none(), 3);
    let outcome = run_measurement(&w, &spec).expect("valid spec");

    // One probe per order.
    assert_eq!(outcome.probes_sent, 20);
    assert_eq!(outcome.worker_health[0].status, WorkerStatus::Completed);
    assert_eq!(outcome.worker_health[0].probes_sent, 20);
    assert_eq!(outcome.telemetry.counter("worker.000.probes_sent"), 20);

    // Every kept capture answers worker 0's probe, sent at the window its
    // order scheduled (worker 0 has no inter-worker offset).
    let window: HashMap<PrefixKey, u64> = spec
        .targets
        .iter()
        .enumerate()
        .map(|(i, &t)| (PrefixKey::of(t), window_start_ms(i, spec.rate_per_s)))
        .collect();
    for r in &outcome.records {
        assert_eq!(r.tx_worker, Some(0), "{r:?}");
        assert_eq!(r.tx_time_ms, Some(window[&r.prefix]), "{r:?}");
        assert!(r.rx_time_ms >= window[&r.prefix], "{r:?}");
    }
    // Each delivered reply validated into exactly one record.
    assert_eq!(outcome.telemetry.counter("worker.captures_rejected"), 0);
    assert_eq!(
        outcome.records.len() as u64,
        outcome.telemetry.counter("fabric.replies_delivered")
    );
    assert!(
        outcome.records.len() > 10,
        "expected most probes to yield validated records, got {}",
        outcome.records.len()
    );

    // The uneven 7/7/6 shard split is framing only.
    let single =
        run_measurement(&w, &sole_sender_spec(&w, 902, FaultPlan::none(), 1)).expect("valid spec");
    assert_eq!(single.records, outcome.records);
}
