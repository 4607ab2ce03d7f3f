//! Tests for the precheck measurement mode (§6 future work) and catchment
//! mapping over the simulated wire.

use std::sync::Arc;

use laces_core::catchment::{shift, CatchmentMap};
use laces_core::classify::AnycastClassification;
use laces_core::orchestrator::{run_measurement, run_with_precheck};
use laces_core::spec::MeasurementSpec;
use laces_netsim::{World, WorldConfig};
use laces_packet::{PrefixKey, Protocol};

fn world() -> Arc<World> {
    Arc::new(World::generate(WorldConfig::tiny()))
}

fn hitlist(world: &World) -> Arc<Vec<std::net::IpAddr>> {
    Arc::new(laces_hitlist::build_v4(world).addresses())
}

#[test]
fn precheck_saves_probes_and_keeps_detections() {
    let w = world();
    let spec = MeasurementSpec::census(
        800,
        w.std_platforms.production,
        Protocol::Icmp,
        hitlist(&w),
        0,
    );

    let full = run_measurement(&w, &spec).expect("valid spec");
    let pre = run_with_precheck(&w, &spec, 0).expect("id 800 is outside the reserved space");

    // The world has a sizeable unresponsive mass, so the precheck must pay.
    assert!(
        pre.skipped_targets > 100,
        "skipped only {}",
        pre.skipped_targets
    );
    assert!(
        pre.total_probes() < full.probes_sent,
        "precheck cost {} >= full cost {}",
        pre.total_probes(),
        full.probes_sent
    );

    // Detections survive: ATs of the prechecked run are a near-complete
    // subset of the full run's (losses only from the single precheck probe
    // being dropped).
    let ats_full: std::collections::BTreeSet<PrefixKey> =
        AnycastClassification::from_outcome(&full)
            .anycast_targets()
            .into_iter()
            .collect();
    let ats_pre: std::collections::BTreeSet<PrefixKey> =
        AnycastClassification::from_outcome(&pre.outcome)
            .anycast_targets()
            .into_iter()
            .collect();
    let recovered = ats_full.intersection(&ats_pre).count();
    assert!(
        recovered * 100 >= ats_full.len() * 90,
        "precheck lost too many ATs: {recovered}/{}",
        ats_full.len()
    );
}

#[test]
fn single_sender_measurement_still_captures_at_other_workers() {
    let w = world();
    // A sender named twice is still one sender.
    for senders in [vec![3], vec![3, 3]] {
        let mut spec = MeasurementSpec::census(
            801,
            w.std_platforms.production,
            Protocol::Icmp,
            hitlist(&w),
            0,
        );
        spec.senders = Some(senders.clone());
        let outcome = run_measurement(&w, &spec).expect("valid spec");
        // Only worker 3 transmitted, and the budget gauge says so.
        assert_eq!(outcome.probes_sent, spec.targets.len() as u64);
        assert_eq!(
            outcome.telemetry.gauge("orchestrator.probe_budget"),
            outcome.probes_sent,
            "senders {senders:?}: the budget counts each sender once"
        );
        assert!(outcome.records.iter().all(|r| r.tx_worker == Some(3)));
        // But replies were captured at many workers (anycast source routing).
        let receivers: std::collections::BTreeSet<u16> =
            outcome.records.iter().map(|r| r.rx_worker).collect();
        assert!(
            receivers.len() > 3,
            "captures concentrated at {receivers:?}"
        );
    }
}

#[test]
fn catchment_map_matches_ground_truth_for_stable_unicast() {
    let w = world();
    let spec = MeasurementSpec::census(
        802,
        w.std_platforms.production,
        Protocol::Icmp,
        hitlist(&w),
        0,
    );
    let outcome = run_measurement(&w, &spec).expect("valid spec");
    let map = CatchmentMap::from_outcome(&outcome);

    assert!(!map.assignments.is_empty());
    // Single-site assignments must match the routing-derived primary
    // catchment for non-jittery unicast targets.
    let mut checked = 0;
    for (p, &site) in &map.assignments {
        let Some(tid) = w.lookup(*p) else { continue };
        let t = w.target(tid);
        if let laces_netsim::TargetKind::Unicast { .. } = t.kind {
            if t.jittery {
                continue;
            }
            let expected = w.receiving_site(w.std_platforms.production, t.as_idx, 0);
            if let Some((primary, _, ties)) = expected {
                if ties.len() == 1 {
                    assert_eq!(usize::from(site), primary, "catchment mismatch for {p}");
                    checked += 1;
                }
            }
        }
        if checked > 200 {
            break;
        }
    }
    assert!(checked > 100, "too few assignments verified: {checked}");
}

#[test]
fn catchment_shift_between_days_is_small_but_nonzero() {
    let w = world();
    let mk = |day: u32| {
        let spec = MeasurementSpec::census(
            803,
            w.std_platforms.production,
            Protocol::Icmp,
            hitlist(&w),
            day,
        );
        CatchmentMap::from_outcome(&run_measurement(&w, &spec).expect("valid spec"))
    };
    let d0 = mk(0);
    let d1 = mk(1);
    let s = shift(&d0, &d1);
    assert!(s.stable > 0);
    // Daily catchments are mostly stable (tie-breaks re-rolled per day only
    // where equal-cost alternatives exist).
    assert!(s.churn() < 0.25, "daily churn too high: {:.2}", s.churn());
    // Same day is perfectly stable.
    let again = mk(0);
    let s0 = shift(&d0, &again);
    assert_eq!(s0.moved, 0);
    assert_eq!(s0.churn(), 0.0);
}

#[test]
fn aborted_measurement_sends_no_further_probes() {
    use laces_core::orchestrator::{run_measurement_abortable, AbortHandle};
    let w = world();
    let spec = MeasurementSpec::census(
        804,
        w.std_platforms.production,
        Protocol::Icmp,
        hitlist(&w),
        0,
    );

    // Abort before the stream starts: nothing is probed, workers exit
    // cleanly, the outcome is coherent.
    let handle = AbortHandle::new();
    handle.abort();
    assert!(handle.is_aborted());
    let outcome = run_measurement_abortable(&w, &spec, &handle).expect("valid spec");
    assert_eq!(outcome.probes_sent, 0);
    assert!(outcome.records.is_empty());
    assert!(outcome.failed_workers.is_empty());

    // Abort fired from another thread mid-measurement: the run ends early.
    // The kill is asynchronous, so it races the run itself (the batched
    // pipeline can finish the tiny hitlist before a sleeping killer wakes);
    // retry until the abort lands mid-stream.
    let mut stopped_early = false;
    for _ in 0..20 {
        let handle = AbortHandle::new();
        let h2 = handle.clone();
        let killer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            h2.abort();
        });
        let outcome = run_measurement_abortable(&w, &spec, &handle).expect("valid spec");
        killer.join().unwrap();
        if outcome.probes_sent < spec.probe_budget(32) {
            stopped_early = true;
            break;
        }
    }
    assert!(
        stopped_early,
        "abort never stopped the stream in 20 attempts"
    );
}
