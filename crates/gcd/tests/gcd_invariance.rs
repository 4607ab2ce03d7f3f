//! GCD engine invariance: the fast path is pure execution layout.
//!
//! The campaign's cost profile — the [`VpGeometry`] memo behind every
//! selection and overlap test, the grid-indexed city geolocation,
//! per-chunk probe sessions with reusable buffers on the prepared wire
//! path, VP-major batches, and the chunk fan-out itself — changes *only*
//! throughput. Every per-prefix result, the serialized telemetry, and the
//! flight-recorder export must be byte-identical across chunk counts
//! {1, 4, 16}, fault-free and with a panicking chunk plan, mirroring the
//! probing pipeline's `shard_invariance.rs`. The results and the probe,
//! reply and overlap-test counts must also equal those of a single-loop
//! [`oracle`] that walks targets and VPs one probe at a time through real
//! probe bytes and the plain `enumerate_counted`.
//!
//! [`VpGeometry`]: laces_gcd::VpGeometry

use std::collections::BTreeMap;
use std::net::IpAddr;
use std::sync::{Arc, OnceLock};

use laces_gcd::engine::{
    participating_vps, run_campaign, GcdClass, GcdConfig, GcdReport, PrefixGcd,
};
use laces_gcd::enumerate::{enumerate_counted, RttSample};
use laces_netsim::wire::{MeasurementCtx, ProbeSource};
use laces_netsim::{platform as plat, PlatformId, World, WorldConfig};
use laces_obs::{names, DegradedReason};
use laces_packet::probe::{build_probe, ProbeEncoding, ProbeMeta};
use laces_packet::PrefixKey;
use laces_trace::TraceConfig;

/// Shared tiny world — generated once for the whole test binary.
fn world() -> &'static Arc<World> {
    static WORLD: OnceLock<Arc<World>> = OnceLock::new();
    WORLD.get_or_init(|| Arc::new(World::generate(WorldConfig::tiny())))
}

/// `n` v4 targets spread evenly over the world's v4 range, so a campaign
/// meets anycast, unicast and unresponsive prefixes.
fn targets(world: &World, n: usize) -> Vec<IpAddr> {
    world.targets[..world.n_v4]
        .iter()
        .step_by((world.n_v4 / n).max(1))
        .take(n)
        .map(|t| match t.prefix {
            PrefixKey::V4(p) => IpAddr::V4(p.addr(laces_netsim::targets::REPRESENTATIVE_HOST)),
            PrefixKey::V6(_) => unreachable!(),
        })
        .collect()
}

/// A traced campaign config, so the trace comparison is never vacuous.
fn cfg_with(id: u32, threads: usize) -> GcdConfig {
    let mut cfg = GcdConfig::daily(id, 0);
    cfg.attempts = 2;
    cfg.threads = threads;
    cfg.trace = TraceConfig::all(0x9C0D);
    cfg
}

/// Assert two campaign reports are observably identical: every per-prefix
/// result, the probe count, the serialized run report, and the trace
/// export. `chunk_report` is deliberately NOT compared — it is the one
/// field documented to depend on the chunk layout.
fn assert_reports_equal(a: &GcdReport, b: &GcdReport, label: &str) {
    assert_eq!(a.results, b.results, "{label}: results diverge");
    assert_eq!(
        a.probes_sent, b.probes_sent,
        "{label}: probes_sent diverges"
    );
    assert_eq!(a.n_vps, b.n_vps, "{label}: n_vps diverges");
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

/// The [`oracle`]'s answer for one campaign.
#[derive(Debug, Default)]
struct OracleCampaign {
    results: BTreeMap<PrefixKey, PrefixGcd>,
    probes_sent: u64,
    replies: u64,
    unanswered: u64,
    overlap_tests: u64,
}

/// A GCD campaign as one loop. For each target and each VP of
/// [`participating_vps`], send every attempt as real probe bytes built at
/// `measurement_id × 1000 + 50 × attempt` through `World::send_probe`, one
/// at a time, and keep the minimum RTT. Under precheck a target the first
/// VP hears nothing from is probed no further. Then enumerate with the
/// plain [`enumerate_counted`] on the world's city table. No chunks,
/// threads, sessions, batches or geometry memo.
fn oracle(
    world: &World,
    platform: PlatformId,
    targets: &[IpAddr],
    cfg: &GcdConfig,
) -> OracleCampaign {
    let vps = participating_vps(world, platform, cfg);
    let ctx = MeasurementCtx {
        id: cfg.measurement_id,
        day: cfg.day,
        span_ms: 0,
    };
    let window_start = u64::from(cfg.measurement_id) * 1000;
    let mut out = OracleCampaign::default();
    for &target in targets {
        let mut samples = Vec::new();
        for (pos, &(vp, vp_coord)) in vps.iter().enumerate() {
            let src = match target {
                IpAddr::V4(_) => plat::vp_src_v4(platform, vp),
                IpAddr::V6(_) => plat::vp_src_v6(platform, vp),
            };
            let mut best: Option<f64> = None;
            for attempt in 0..u64::from(cfg.attempts.max(1)) {
                let tx = window_start + 50 * attempt;
                let meta = ProbeMeta {
                    measurement_id: cfg.measurement_id,
                    worker_id: u16::try_from(vp).expect("VP ids fit the wire's u16"),
                    tx_time_ms: tx,
                };
                let probe = build_probe(src, target, cfg.protocol, &meta, ProbeEncoding::PerWorker);
                let reply = world
                    .send_probe(
                        ProbeSource::Vp { platform, vp },
                        &probe,
                        tx,
                        window_start,
                        &ctx,
                    )
                    .expect("built probes are well-formed");
                out.probes_sent += 1;
                match reply {
                    Some(d) => {
                        out.replies += 1;
                        best = Some(best.map_or(d.rtt_ms, |b| b.min(d.rtt_ms)));
                    }
                    None => out.unanswered += 1,
                }
            }
            match best {
                Some(rtt_ms) => samples.push(RttSample {
                    vp,
                    vp_coord,
                    rtt_ms,
                }),
                None if cfg.precheck && pos == 0 => break,
                None => {}
            }
        }
        let enumeration = enumerate_counted(&samples, &world.db, &mut out.overlap_tests);
        let class = if enumeration.n_samples == 0 {
            GcdClass::Unresponsive
        } else if enumeration.is_anycast() {
            GcdClass::Anycast
        } else {
            GcdClass::Unicast
        };
        out.results
            .insert(PrefixKey::of(target), PrefixGcd { class, enumeration });
    }
    out
}

/// Assert a campaign report agrees with the oracle: every per-prefix
/// result, the probe count, and the probe, reply and overlap-test
/// counters of the telemetry.
fn assert_matches_oracle(report: &GcdReport, want: &OracleCampaign, label: &str) {
    assert_eq!(report.results, want.results, "{label}: results diverge");
    assert_eq!(
        report.probes_sent, want.probes_sent,
        "{label}: probes_sent diverges"
    );
    for (key, value) in [
        (names::gcd::PROBES_SENT, want.probes_sent),
        (names::gcd::REPLIES, want.replies),
        (names::gcd::UNANSWERED, want.unanswered),
        (names::gcd::ENUMERATION_OVERLAP_TESTS, want.overlap_tests),
    ] {
        assert_eq!(
            report.telemetry.counter(key),
            value,
            "{label}: {key} diverges"
        );
    }
}

/// The daily configuration (ark_dev, precheck on) against the oracle.
#[test]
fn fast_engine_matches_the_reference_byte_for_byte() {
    let w = world();
    let t = targets(w, 80);
    let cfg = cfg_with(47_001, 4);
    let fast = run_campaign(w, w.std_platforms.ark_dev, &t, &cfg).expect("unicast platform");
    let want = oracle(w, w.std_platforms.ark_dev, &t, &cfg);
    for class in [GcdClass::Anycast, GcdClass::Unicast, GcdClass::Unresponsive] {
        assert!(
            fast.count(class) > 0,
            "workload must hold {class:?} targets"
        );
    }
    assert_matches_oracle(&fast, &want, "fast-vs-oracle");
}

#[test]
fn fast_engine_matches_the_reference_under_vp_selection() {
    // The Atlas-style config exercises every memoized geometry consumer:
    // the flaky-VP filter, the min-distance selection, the max-VP stride,
    // and a no-precheck campaign (all VPs probe every target).
    let w = world();
    let t = targets(w, 50);
    let mut cfg = cfg_with(47_002, 3);
    cfg.precheck = false;
    cfg.min_vp_distance_km = Some(400.0);
    cfg.max_vps = Some(9);
    let fast = run_campaign(w, w.std_platforms.atlas, &t, &cfg).expect("unicast platform");
    let want = oracle(w, w.std_platforms.atlas, &t, &cfg);
    assert!(fast.n_vps <= 9, "max_vps must have engaged");
    assert_matches_oracle(&fast, &want, "atlas fast-vs-oracle");
}

#[test]
fn outputs_are_byte_identical_across_chunk_counts() {
    let w = world();
    let t = targets(w, 80);
    let baseline = run_campaign(w, w.std_platforms.ark_dev, &t, &cfg_with(47_003, 1))
        .expect("unicast platform");
    assert!(
        !baseline.trace_report.to_jsonl().is_empty(),
        "tracing must be live or the trace comparison is vacuous"
    );
    for threads in [4usize, 16] {
        let outcome = run_campaign(w, w.std_platforms.ark_dev, &t, &cfg_with(47_003, threads))
            .expect("unicast platform");
        assert_reports_equal(&baseline, &outcome, &format!("threads={threads}"));
        assert_eq!(
            outcome.chunk_report.gauge("gcd.threads"),
            threads as u64,
            "chunk layout must land in chunk_report"
        );
    }
    // A single chunk answers as the oracle does.
    let want = oracle(w, w.std_platforms.ark_dev, &t, &cfg_with(47_003, 1));
    assert_matches_oracle(&baseline, &want, "fast-vs-oracle threads=1");
}

#[test]
fn faulted_chunk_quarantines_its_targets() {
    let w = world();
    let t = targets(w, 80);
    let clean = run_campaign(w, w.std_platforms.ark_dev, &t, &cfg_with(47_004, 4))
        .expect("unicast platform");

    let mut cfg = cfg_with(47_004, 4);
    cfg.fault_chunk = Some(1);
    let fast = run_campaign(w, w.std_platforms.ark_dev, &t, &cfg).expect("unicast platform");
    assert!(fast.is_degraded(), "lost chunk must degrade the campaign");
    assert_eq!(
        fast.degraded_reasons(),
        &[DegradedReason::GcdChunkLost { targets: 20 }],
        "chunk 1 of 4 holds a quarter of the 80 targets"
    );
    assert_eq!(fast.telemetry.counter("gcd.targets_lost"), 20);
    assert_eq!(fast.results.len(), 60, "surviving chunks all publish");
    // Surviving results are exactly the clean run's (per-chunk probing is
    // independent, so a lost sibling changes nothing).
    for (prefix, result) in &fast.results {
        assert_eq!(
            Some(result),
            clean.results.get(prefix),
            "surviving result for {prefix} diverges from the clean run"
        );
    }
    // And the fault plan is chunk-layout-stable in what it loses: the same
    // plan at chunk count 4 always loses the same 20 targets.
    let again = run_campaign(w, w.std_platforms.ark_dev, &t, &cfg).expect("unicast platform");
    assert_reports_equal(&fast, &again, "faulted rerun");
}

#[test]
fn chunk_markers_are_opt_in_and_quarantined() {
    let w = world();
    let t = targets(w, 40);

    // TraceConfig::all leaves chunk markers off: the canonical trace and
    // telemetry never mention the chunk layout.
    let outcome = run_campaign(w, w.std_platforms.ark_dev, &t, &cfg_with(47_005, 4))
        .expect("unicast platform");
    assert!(
        !outcome.trace_report.to_jsonl().contains("GcdChunk"),
        "chunk markers leaked into the invariant trace"
    );
    assert!(
        !outcome.telemetry.to_jsonl().contains("gcd.threads")
            && !outcome.telemetry.to_jsonl().contains("gcd.chunks"),
        "chunk-layout gauges leaked into the invariant run report"
    );
    assert_eq!(outcome.chunk_report.gauge("gcd.threads"), 4);
    assert_eq!(outcome.chunk_report.gauge("gcd.chunks"), 4);

    // Opting in surfaces one marker per chunk.
    let mut cfg = cfg_with(47_005, 4);
    cfg.trace = TraceConfig::all(0x9C0D).with_shard_spans();
    let traced = run_campaign(w, w.std_platforms.ark_dev, &t, &cfg).expect("unicast platform");
    assert_eq!(
        traced.trace_report.to_jsonl().matches("GcdChunk").count(),
        4,
        "one chunk marker per spawned chunk"
    );
}

#[test]
fn oversized_platform_is_rejected_up_front() {
    // The probe wire format carries the witnessing VP in a u16; a platform
    // with more VPs than that id space must be rejected before any probing
    // (previously the id silently saturated, aliasing every VP >= 65535).
    // The guard fires before the campaign resolves routes or builds its
    // geometry memo, so a synthetic VP list on a generated world — far
    // cheaper than generating 65 536 routed VPs — exercises it fully.
    let mut w = World::generate(WorldConfig::tiny());
    let template = w
        .platform(w.std_platforms.atlas)
        .vps()
        .expect("unicast platform")[0]
        .clone();
    let huge = laces_netsim::PlatformId(
        u16::try_from(w.platforms.len()).expect("platform registry fits u16"),
    );
    w.platforms.push(laces_netsim::Platform {
        name: "synthetic-huge".into(),
        kind: laces_netsim::PlatformKind::Unicast {
            vps: vec![template; usize::from(u16::MAX) + 1],
        },
    });
    let w = Arc::new(w);
    let t = targets(&w, 4);
    let err = run_campaign(&w, huge, &t, &cfg_with(47_006, 1))
        .expect_err("oversized platform must be rejected");
    assert_eq!(
        err,
        laces_core::MeasurementError::PlatformTooLarge {
            platform: huge,
            n_vps: usize::from(u16::MAX) + 1,
        }
    );
    assert!(err.to_string().contains("65536"));
}
