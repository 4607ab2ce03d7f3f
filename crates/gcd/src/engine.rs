//! GCD measurement campaigns: latency probing from a unicast VP platform
//! followed by iGreedy analysis, per target.
//!
//! The campaign runs at the probing pipeline's per-probe cost profile:
//! per-chunk [`ProbeSession`]s, the prepared batch wire path
//! (`World::send_probe_batch` with attached metadata and no probe bytes,
//! skipping reply-byte synthesis), a campaign-scoped [`VpGeometry`] memo
//! replacing per-target haversines, and the grid-indexed city
//! geolocation. The original scalar engine survives as
//! [`run_campaign_reference`], and the `gcd_invariance` suite pins both
//! engines — and every chunk count — byte-identical.

use std::collections::BTreeMap;
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use laces_core::MeasurementError;
use laces_geo::Coord;
use laces_netsim::wire::{
    BatchProbe, Delivery, MeasurementCtx, ProbeSession, ProbeSource, WireStats,
};
use laces_netsim::{platform as plat, PlatformId, World};
use laces_obs::{names, Degraded, DegradedReason, RunReport, SimClock, StageTimer};
use laces_packet::probe::{build_probe, ProbeEncoding, ProbeMeta};
use laces_packet::{PrefixKey, Protocol};
use laces_trace::{Component, TraceConfig, TraceEvent, TraceReport, Tracer};
use serde::{Deserialize, Serialize};

use crate::enumerate::{
    enumerate_counted_memo, enumerate_counted_reference, Enumeration, RttSample,
};
use crate::geometry::VpGeometry;
use crate::vp_selection::{select_by_distance, select_by_distance_with};

/// Chunk fan-out when [`GcdConfig::threads`] is 0 ("auto"). A fixed count
/// — deliberately not `available_parallelism` — so the campaign's chunk
/// geometry is identical on every machine. Each chunk gets an OS thread
/// in the enumeration scope; 16 saturates the simulated wire well before
/// it saturates real cores, and hosts with fewer cores just time-slice.
/// Chunk-layout telemetry (`gcd.threads` / `gcd.chunks`) lives in
/// [`GcdReport::chunk_report`], quarantined from the canonical telemetry
/// so the latter stays byte-identical across chunk counts.
pub const DEFAULT_GCD_CHUNKS: usize = 16;

/// Configuration of a GCD campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GcdConfig {
    /// Probing protocol (the pipeline uses ICMP and TCP; DNS is excluded
    /// because request processing adds jitter, §4.2.2).
    pub protocol: Protocol,
    /// Probes per (VP, target); the minimum RTT is kept, as scamper does.
    pub attempts: u8,
    /// Probe responsiveness from a single VP before engaging the full
    /// platform (the paper's future-work optimisation; saves ~⅓ of probes
    /// on full-hitlist scans).
    pub precheck: bool,
    /// Keep only VPs at least this far apart (RIPE Atlas selection, §5.2).
    pub min_vp_distance_km: Option<f64>,
    /// Cap the number of participating VPs (evenly strided over the
    /// platform); the §5.6 partial-anycast scan uses nine.
    pub max_vps: Option<usize>,
    /// Measurement identifier.
    pub measurement_id: u32,
    /// Simulated day.
    pub day: u32,
    /// Worker threads for the campaign (0 = [`DEFAULT_GCD_CHUNKS`], a
    /// fixed fan-out so chunk geometry never depends on the host).
    pub threads: usize,
    /// Flight-recorder configuration (default: disabled).
    pub trace: TraceConfig,
    /// Fault injection: panic the chunk with this index before it probes,
    /// exercising the campaign's graceful degradation (the chunk's targets
    /// are reported as [`DegradedReason::GcdChunkLost`], the rest of the
    /// campaign publishes). Test-only; `None` in production.
    pub fault_chunk: Option<usize>,
}

impl GcdConfig {
    /// Daily-pipeline defaults: ICMP, one attempt, precheck on.
    pub fn daily(measurement_id: u32, day: u32) -> Self {
        GcdConfig {
            protocol: Protocol::Icmp,
            attempts: 1,
            precheck: true,
            min_vp_distance_km: None,
            max_vps: None,
            measurement_id,
            day,
            threads: 0,
            trace: TraceConfig::default(),
            fault_chunk: None,
        }
    }

    /// The campaign's effective thread/chunk fan-out.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            DEFAULT_GCD_CHUNKS
        } else {
            self.threads
        }
    }
}

/// GCD verdict for one prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GcdClass {
    /// Speed-of-light violation: provably replicated.
    Anycast,
    /// Responsive, all disks mutually consistent with one host.
    Unicast,
    /// No responses.
    Unresponsive,
}

/// Per-prefix GCD result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrefixGcd {
    /// Verdict.
    pub class: GcdClass,
    /// iGreedy enumeration (empty for unresponsive prefixes).
    pub enumeration: Enumeration,
}

impl PrefixGcd {
    /// Enumerated site count (0 when unresponsive).
    pub fn n_sites(&self) -> usize {
        self.enumeration.n_sites()
    }
}

/// Outcome of a GCD campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GcdReport {
    /// Per-prefix results (every probed target appears).
    pub results: BTreeMap<PrefixKey, PrefixGcd>,
    /// Total probes transmitted.
    pub probes_sent: u64,
    /// Number of VPs that participated.
    pub n_vps: usize,
    /// Deterministic campaign telemetry. Lost chunks (a measurement thread
    /// panicked) appear as [`DegradedReason::GcdChunkLost`] entries: the
    /// report covers only the surviving chunks and the consumer must carry
    /// the reasons forward instead of trusting absences. Byte-identical
    /// across chunk counts; chunk-layout gauges live in
    /// [`chunk_report`](Self::chunk_report).
    pub telemetry: RunReport,
    /// The flight recorder's event log for the campaign (empty and
    /// disabled unless [`GcdConfig::trace`] enabled tracing).
    pub trace_report: TraceReport,
    /// Chunk-layout telemetry (`gcd.threads`, `gcd.chunks` gauges):
    /// genuinely a function of the fan-out, so it is quarantined here —
    /// mirroring `MeasurementOutcome::shard_report` — and never absorbed
    /// into the canonical [`telemetry`](Self::telemetry).
    pub chunk_report: RunReport,
}

impl GcdReport {
    /// Count per class.
    pub fn count(&self, class: GcdClass) -> usize {
        self.results.values().filter(|r| r.class == class).count()
    }

    /// Whether part of the campaign was lost.
    pub fn is_degraded(&self) -> bool {
        self.telemetry.is_degraded()
    }

    /// Why the campaign degraded (empty when it ran clean).
    pub fn degraded_reasons(&self) -> &[DegradedReason] {
        self.telemetry.degraded_reasons()
    }
}

impl Degraded for GcdReport {
    fn degraded_reasons(&self) -> &[DegradedReason] {
        self.telemetry.degraded_reasons()
    }
}

/// The VPs participating in one campaign: flaky platforms (RIPE Atlas)
/// contribute a per-measurement random subset; a minimum-distance filter
/// thins the rest.
pub fn participating_vps(
    world: &World,
    platform: PlatformId,
    cfg: &GcdConfig,
) -> Vec<(usize, Coord)> {
    participating_vps_inner(world, platform, cfg, None)
}

/// [`participating_vps`], with the min-distance filter optionally served
/// from a [`VpGeometry`] memo (bit-identical selection either way).
fn participating_vps_inner(
    world: &World,
    platform: PlatformId,
    cfg: &GcdConfig,
    geom: Option<&VpGeometry>,
) -> Vec<(usize, Coord)> {
    let Some(vps) = world.platform(platform).vps() else {
        return Vec::new();
    };
    let mut active: Vec<(usize, Coord)> = vps
        .iter()
        .enumerate()
        .filter(|(i, v)| {
            !v.flaky
                || laces_netsim::rng::unit_f64(laces_netsim::rng::key(
                    world.cfg.seed,
                    &[
                        0xA7A1,
                        platform.0 as u64,
                        *i as u64,
                        cfg.measurement_id as u64,
                    ],
                )) < 0.9
        })
        .map(|(i, v)| (i, v.coord))
        .collect();
    if let Some(min_km) = cfg.min_vp_distance_km {
        active = match geom {
            Some(g) => select_by_distance_with(g, &active, min_km),
            None => select_by_distance(&active, min_km),
        };
    }
    if let Some(max) = cfg.max_vps {
        if max > 0 && active.len() > max {
            let step = active.len() as f64 / max as f64;
            active = (0..max)
                .map(|i| active[(i as f64 * step) as usize])
                .collect();
        }
    }
    active
}

/// Wire identifier of a VP index. [`run_campaign`] rejects platforms with
/// more than `u16::MAX` VPs up front ([`MeasurementError::PlatformTooLarge`]),
/// so the conversion never actually collapses; `u16::MAX` stays free as
/// the "unknown" sentinel rather than silently aliasing real VPs.
fn vp_wire_id(vp: usize) -> u16 {
    u16::try_from(vp).unwrap_or(u16::MAX)
}

/// Run a GCD campaign from `platform` toward `targets`.
///
/// # Errors
///
/// [`MeasurementError::NotUnicast`] if `platform` is an anycast platform:
/// GCD needs geographically dispersed unicast vantage points, each with
/// its own return path. [`MeasurementError::PlatformTooLarge`] if the
/// platform has more than `u16::MAX` VPs — the probe wire format carries
/// the witnessing VP in a u16, and a silently wrapped id would alias
/// distinct VPs in records and traces.
pub fn run_campaign(
    world: &Arc<World>,
    platform: PlatformId,
    targets: &[IpAddr],
    cfg: &GcdConfig,
) -> Result<GcdReport, MeasurementError> {
    run_campaign_inner(world, platform, targets, cfg, true)
}

/// [`run_campaign`] at the pre-PR9 per-probe cost profile: an allocating
/// `build_probe` through the scalar `send_probe_observed` path (per-call
/// source/route resolution and reply-byte synthesis), per-pair haversines
/// for every selection and overlap test, and linear city-table scans for
/// geolocation. Byte-identical output — this is the invariance oracle,
/// not a fallback.
///
/// # Errors
///
/// As [`run_campaign`].
pub fn run_campaign_reference(
    world: &Arc<World>,
    platform: PlatformId,
    targets: &[IpAddr],
    cfg: &GcdConfig,
) -> Result<GcdReport, MeasurementError> {
    run_campaign_inner(world, platform, targets, cfg, false)
}

fn run_campaign_inner(
    world: &Arc<World>,
    platform: PlatformId,
    targets: &[IpAddr],
    cfg: &GcdConfig,
    fast: bool,
) -> Result<GcdReport, MeasurementError> {
    if world.platform(platform).is_anycast() {
        return Err(MeasurementError::NotUnicast { platform });
    }
    let platform_vps = world.platform(platform).vps().map_or(0, |v| v.len());
    if platform_vps > usize::from(u16::MAX) {
        return Err(MeasurementError::PlatformTooLarge {
            platform,
            n_vps: platform_vps,
        });
    }
    // The campaign-scoped geometry memo covers the *whole* platform by VP
    // index, so selection and enumeration share one table.
    let geom: Option<VpGeometry> = fast.then(|| {
        let coords: Vec<Coord> = world
            .platform(platform)
            .vps()
            .map(|vps| vps.iter().map(|v| v.coord).collect())
            .unwrap_or_default();
        VpGeometry::new(&coords, &world.db)
    });
    let vps = participating_vps_inner(world, platform, cfg, geom.as_ref());
    let tracer = Tracer::new(cfg.trace);
    let wire = WireStats::new();
    let overlap_tests = AtomicU64::new(0);
    let threads = cfg.effective_threads();
    let chunk = targets.len().div_ceil(threads.max(1)).max(1);

    let mut report = RunReport::new();
    let mut results: BTreeMap<PrefixKey, PrefixGcd> = BTreeMap::new();
    let mut chunks_spawned = 0u64;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (chunk_index, part) in targets.chunks(chunk).enumerate() {
            let vps = &vps;
            let wire = &wire;
            let overlap_tests = &overlap_tests;
            let tracer = &tracer;
            let geom = geom.as_ref();
            chunks_spawned += 1;
            // Chunk markers are a function of the fan-out, so — like the
            // orchestrator's ShardSpan events — they are opt-in and
            // excluded from the cross-chunk-count trace invariance.
            if cfg.trace.shard_spans {
                tracer.record(Component::Control, || TraceEvent::GcdChunk {
                    chunk_index,
                    n_targets: part.len(),
                });
            }
            handles.push((
                part.len(),
                scope.spawn(move || {
                    if cfg.fault_chunk == Some(chunk_index) {
                        // laces-lint: allow(panic-path) — deliberate fault injection; the join handler below converts the panic into GcdChunkLost degradation
                        panic!("injected GCD chunk fault (chunk {chunk_index})");
                    }
                    let mut local: Vec<(PrefixKey, PrefixGcd)> = Vec::with_capacity(part.len());
                    let mut tests = 0u64;
                    match geom {
                        Some(g) => {
                            // Resolved once per (chunk, VP): the probe
                            // session (sender state, latency key, scratch
                            // buffers) and both family source addresses.
                            let mut sessions: Vec<ProbeSession> = vps
                                .iter()
                                .map(|&(vp, _)| {
                                    world.probe_session(ProbeSource::Vp { platform, vp })
                                })
                                .collect();
                            let srcs: Vec<(IpAddr, IpAddr)> = vps
                                .iter()
                                .map(|&(vp, _)| {
                                    (plat::vp_src_v4(platform, vp), plat::vp_src_v6(platform, vp))
                                })
                                .collect();
                            let ctx = MeasurementCtx {
                                id: cfg.measurement_id,
                                day: cfg.day,
                                span_ms: 0,
                            };
                            let window_start = u64::from(cfg.measurement_id) * 1000;
                            // Probing first (VP-major batches), analysis
                            // second (target-major, as the trace demands).
                            let rtts = probe_chunk_fast(
                                world,
                                vps,
                                &mut sessions,
                                &srcs,
                                part,
                                cfg,
                                &ctx,
                                window_start,
                                wire,
                            );
                            for (ti, &target) in part.iter().enumerate() {
                                let r = analyze_target_fast(
                                    vps,
                                    g,
                                    &rtts,
                                    ti,
                                    part.len(),
                                    target,
                                    cfg,
                                    &mut tests,
                                    tracer,
                                );
                                local.push((PrefixKey::of(target), r));
                            }
                        }
                        None => {
                            for &target in part {
                                let r = measure_target_reference(
                                    world, platform, vps, target, cfg, wire, &mut tests, tracer,
                                );
                                local.push((PrefixKey::of(target), r));
                            }
                        }
                    }
                    // laces-lint: allow(atomic-ordering) — per-chunk test counts commute under addition; into_inner() after the scope join reads the order-independent sum
                    overlap_tests.fetch_add(tests, Ordering::Relaxed);
                    local
                }),
            ));
        }
        for (n_targets, h) in handles {
            match h.join() {
                Ok(local) => results.extend(local),
                // A panicked chunk loses its targets, not the campaign:
                // the report is published degraded (graceful degradation,
                // mirroring the Orchestrator's R5 behaviour).
                Err(_) => {
                    report.add_degraded(DegradedReason::GcdChunkLost { targets: n_targets });
                    report.inc(names::gcd::TARGETS_LOST, n_targets as u64);
                }
            }
        }
    });

    let probes_sent = wire.probes.get();
    report.set_gauge(names::gcd::N_VPS, vps.len() as u64);
    report.set_gauge(names::gcd::N_TARGETS, targets.len() as u64);
    report.set_gauge(names::gcd::ATTEMPTS, u64::from(cfg.attempts.max(1)));
    report.set_gauge(names::gcd::PRECHECK, u64::from(cfg.precheck));
    report.inc(names::gcd::PROBES_SENT, probes_sent);
    report.inc(names::gcd::REPLIES, wire.deliveries.get());
    report.inc(names::gcd::UNANSWERED, wire.unanswered.get());
    report.inc(
        names::gcd::ENUMERATION_OVERLAP_TESTS,
        overlap_tests.into_inner(),
    );
    // Single pass over the results for the class/site tallies; `inc`
    // creates a key even at 0, so the telemetry schema is load-independent.
    let (mut anycast, mut unicast, mut unresponsive, mut sites) = (0u64, 0u64, 0u64, 0u64);
    for r in results.values() {
        match r.class {
            GcdClass::Anycast => anycast += 1,
            GcdClass::Unicast => unicast += 1,
            GcdClass::Unresponsive => unresponsive += 1,
        }
        sites += r.n_sites() as u64;
    }
    report.inc(names::gcd::CLASS_ANYCAST, anycast);
    report.inc(names::gcd::CLASS_UNICAST, unicast);
    report.inc(names::gcd::CLASS_UNRESPONSIVE, unresponsive);
    report.inc(names::gcd::SITES_ENUMERATED, sites);

    // Chunk layout is a throughput knob, not an observation: quarantine
    // its gauges so `telemetry` is byte-identical across chunk counts.
    let mut chunk_report = RunReport::new();
    chunk_report.set_gauge(names::gcd::THREADS, threads as u64);
    chunk_report.set_gauge(names::gcd::CHUNKS, chunks_spawned);

    // One stage spanning the campaign's probing schedule: every attempt is
    // offset 50 ms from the previous one inside the target's window, and
    // targets are probed concurrently, so the simulated span is the
    // per-target attempt train.
    let mut clock = SimClock::new();
    let mut stage = StageTimer::start(format!("gcd:{:?}", cfg.protocol), &clock);
    stage.count("targets", targets.len() as u64);
    stage.count("probes_sent", probes_sent);
    let sim_ms = u64::from(cfg.attempts.max(1)) * 50;
    clock.advance(sim_ms);
    report.push_stage(stage.finish(&clock));
    tracer.record(Component::Control, || TraceEvent::StageSpan {
        name: format!("gcd:{:?}", cfg.protocol),
        start_ms: 0,
        sim_ms,
    });

    Ok(GcdReport {
        results,
        probes_sent,
        n_vps: vps.len(),
        telemetry: report,
        trace_report: tracer.snapshot(""),
        chunk_report,
    })
}

/// Record one VP's (traced) probe outcome. RTTs are deterministic f64s on
/// the SimClock; events carry them as integer micro-milliseconds so the
/// trace stays float-free.
fn trace_probe(tracer: &Tracer, prefix: PrefixKey, vp: usize, best: Option<f64>) {
    tracer.record_for(Component::Gcd, prefix, || TraceEvent::GcdProbe {
        prefix,
        vp: vp_wire_id(vp),
        rtt_micro_ms: best.map(|r| (r * 1000.0).round() as u64),
    });
}

/// Record the per-prefix verdict.
fn trace_verdict(tracer: &Tracer, prefix: PrefixKey, class: GcdClass) {
    tracer.record_for(Component::Gcd, prefix, || TraceEvent::GcdVerdict {
        prefix,
        class: match class {
            GcdClass::Anycast => "anycast",
            GcdClass::Unicast => "unicast",
            GcdClass::Unresponsive => "unresponsive",
        }
        .to_string(),
    });
}

/// Classify an enumeration and emit the overlap + verdict trace events.
fn classify_and_trace(
    tracer: &Tracer,
    prefix: PrefixKey,
    enumeration: Enumeration,
    tests_here: u64,
) -> PrefixGcd {
    tracer.record_for(Component::Gcd, prefix, || TraceEvent::GcdOverlap {
        prefix,
        n_samples: enumeration.n_samples,
        overlap_tests: tests_here,
        n_sites: enumeration.n_sites(),
    });
    let class = if enumeration.n_samples == 0 {
        GcdClass::Unresponsive
    } else if enumeration.is_anycast() {
        GcdClass::Anycast
    } else {
        GcdClass::Unicast
    };
    trace_verdict(tracer, prefix, class);
    PrefixGcd { class, enumeration }
}

/// Probe one chunk on the prepared batched wire path, VP-major: each
/// (VP, address family) sends one batch covering the chunk's whole
/// target slice (full attempt trains), so the per-probe wire statistics,
/// the session destructure and the flip-probability hoist amortize over
/// the chunk instead of recurring per probe. Returns the per-(VP, target)
/// minimum RTT — `rtts[pos * part.len() + ti]`, NaN when no reply — the
/// same min-fold scamper applies.
///
/// Per-probe wire draws are keyed on (target, schedule offset, VP,
/// measurement id), never on transmission order, so the VP-major order
/// is invisible in every outcome; `gcd_invariance` pins this against the
/// target-major reference engine.
#[allow(clippy::too_many_arguments)]
fn probe_chunk_fast(
    world: &World,
    vps: &[(usize, Coord)],
    sessions: &mut [ProbeSession],
    srcs: &[(IpAddr, IpAddr)],
    part: &[IpAddr],
    cfg: &GcdConfig,
    ctx: &MeasurementCtx,
    window_start: u64,
    wire: &WireStats,
) -> Vec<f64> {
    let n = part.len();
    let attempts = usize::from(cfg.attempts.max(1));
    let mut rtts = vec![f64::NAN; vps.len() * n];
    if vps.is_empty() {
        return rtts;
    }
    // A batch shares one source address, so targets split by family.
    let v4: Vec<usize> = (0..n).filter(|&i| part[i].is_ipv4()).collect();
    let v6: Vec<usize> = (0..n).filter(|&i| part[i].is_ipv6()).collect();
    // Delivery slots, reused across every batch.
    let mut slots: Vec<Option<Delivery>> = Vec::new();

    // Cap each wire batch so its delivery slots stay cache-resident: a
    // whole chunk's worth of `Option<Delivery>` runs to megabytes at
    // census scale, and the fold would stream it back out of DRAM. Wire
    // draws are keyed per probe, never per batch, so the split is
    // invisible in every outcome (`gcd_invariance` pins chunk and batch
    // geometry out of the results).
    const BATCH_BLOCK: usize = 512;
    let mut probe_vp = |pos: usize,
                        sessions: &mut [ProbeSession],
                        tis_v4: &[usize],
                        tis_v6: &[usize],
                        rtts: &mut [f64]| {
        let (vp, _) = vps[pos];
        for (tis, src) in [(tis_v4, srcs[pos].0), (tis_v6, srcs[pos].1)] {
            for block in tis.chunks(BATCH_BLOCK) {
                send_vp_batch(
                    world,
                    &mut sessions[pos],
                    src,
                    vp,
                    block,
                    part,
                    cfg,
                    ctx,
                    window_start,
                    wire,
                    &mut slots,
                );
                for (j, &ti) in block.iter().enumerate() {
                    let mut best = f64::NAN;
                    for d in slots[j * attempts..(j + 1) * attempts].iter().flatten() {
                        best = if best.is_nan() {
                            d.rtt_ms
                        } else {
                            best.min(d.rtt_ms)
                        };
                    }
                    rtts[pos * n + ti] = best;
                }
            }
        }
    };

    if cfg.precheck {
        // Responsiveness gate from the first participating VP: probe the
        // whole slice from vps[0], then engage the rest of the platform
        // only for the targets that answered — the probe set the
        // target-major reference sends, reordered.
        probe_vp(0, sessions, &v4, &v6, &mut rtts);
        let resp = |tis: &[usize]| -> Vec<usize> {
            tis.iter()
                .copied()
                .filter(|&ti| !rtts[ti].is_nan())
                .collect()
        };
        let (resp_v4, resp_v6) = (resp(&v4), resp(&v6));
        for pos in 1..vps.len() {
            probe_vp(pos, sessions, &resp_v4, &resp_v6, &mut rtts);
        }
    } else {
        for pos in 0..vps.len() {
            probe_vp(pos, sessions, &v4, &v6, &mut rtts);
        }
    }
    rtts
}

/// One (VP, family) batch: every target's attempt train as prepared
/// probes — metadata attached and no bytes, since the prepared wire path
/// never parses probe bytes. `slots` comes back with one entry per probe
/// in probe order — positional, so a repeated destination in `part`
/// cannot misattribute replies.
#[allow(clippy::too_many_arguments)]
fn send_vp_batch(
    world: &World,
    session: &mut ProbeSession,
    src: IpAddr,
    vp: usize,
    tis: &[usize],
    part: &[IpAddr],
    cfg: &GcdConfig,
    ctx: &MeasurementCtx,
    window_start: u64,
    wire: &WireStats,
    slots: &mut Vec<Option<Delivery>>,
) {
    let attempts = usize::from(cfg.attempts.max(1));
    let total = tis.len() * attempts;
    // The wire keys per-probe draws on the offset inside the target's
    // window (rate invariance, §5.5.2), so attempts must occupy distinct
    // schedule offsets under a *fixed* window start — passing each
    // attempt's tx as its own window start would zero the offset and
    // give every retry the identical loss/jitter draw.
    let meta_at = |attempt: usize| -> (u64, ProbeMeta) {
        let tx = window_start + attempt as u64 * 50;
        (
            tx,
            ProbeMeta {
                measurement_id: cfg.measurement_id,
                worker_id: vp_wire_id(vp),
                tx_time_ms: tx,
            },
        )
    };
    let mut probes: Vec<BatchProbe<'_>> = Vec::with_capacity(total);
    for &ti in tis {
        for attempt in 0..attempts {
            let (tx, meta) = meta_at(attempt);
            probes.push(BatchProbe {
                dst: part[ti],
                bytes: &[],
                tx_time_ms: tx,
                window_start_ms: window_start,
                meta: Some((meta, ProbeEncoding::PerWorker)),
            });
        }
    }
    if let Err(e) = world.send_probe_batch(session, src, cfg.protocol, &probes, ctx, wire, slots) {
        // laces-lint: allow(panic-path) — with `meta` attached the wire never parses probe bytes, so a malformed-probe error here means the engine itself built a bad prepared probe: a bug worth failing loudly on
        unreachable!("prepared GCD probes cannot be malformed: {e}");
    }
}

/// Assemble one target's verdict from the chunk's RTT matrix: trace the
/// per-VP probes in platform order, run the memoized enumeration, and
/// classify — the same per-target walk as the reference engine, with the
/// wire work already done.
#[allow(clippy::too_many_arguments)]
fn analyze_target_fast(
    vps: &[(usize, Coord)],
    geom: &VpGeometry,
    rtts: &[f64],
    ti: usize,
    n: usize,
    target: IpAddr,
    cfg: &GcdConfig,
    overlap_tests: &mut u64,
    tracer: &Tracer,
) -> PrefixGcd {
    let prefix = PrefixKey::of(target);
    let mut samples: Vec<RttSample> = Vec::with_capacity(vps.len());
    let best_of = |pos: usize| -> Option<f64> {
        let r = rtts[pos * n + ti];
        (!r.is_nan()).then_some(r)
    };

    let mut start = 0usize;
    if cfg.precheck {
        // Responsiveness gate from the first participating VP.
        let Some(&(vp0, c0)) = vps.first() else {
            trace_verdict(tracer, prefix, GcdClass::Unresponsive);
            return PrefixGcd {
                class: GcdClass::Unresponsive,
                enumeration: enumerate_counted_memo(&[], geom, overlap_tests),
            };
        };
        let best = best_of(0);
        trace_probe(tracer, prefix, vp0, best);
        match best {
            Some(rtt) => samples.push(RttSample {
                vp: vp0,
                vp_coord: c0,
                rtt_ms: rtt,
            }),
            None => {
                trace_verdict(tracer, prefix, GcdClass::Unresponsive);
                return PrefixGcd {
                    class: GcdClass::Unresponsive,
                    enumeration: enumerate_counted_memo(&[], geom, overlap_tests),
                };
            }
        }
        start = 1;
    }
    for (pos, &(vp, coord)) in vps.iter().enumerate().skip(start) {
        let best = best_of(pos);
        trace_probe(tracer, prefix, vp, best);
        if let Some(rtt) = best {
            samples.push(RttSample {
                vp,
                vp_coord: coord,
                rtt_ms: rtt,
            });
        }
    }

    let tests_before = *overlap_tests;
    let enumeration = enumerate_counted_memo(&samples, geom, overlap_tests);
    let tests_here = *overlap_tests - tests_before;
    classify_and_trace(tracer, prefix, enumeration, tests_here)
}

/// Measure one target at the pre-PR9 cost profile (see
/// [`run_campaign_reference`]): allocating probe construction, the scalar
/// observed wire path, recomputed haversines, linear geolocation scans.
#[allow(clippy::too_many_arguments)]
fn measure_target_reference(
    world: &Arc<World>,
    platform: PlatformId,
    vps: &[(usize, Coord)],
    target: IpAddr,
    cfg: &GcdConfig,
    wire: &WireStats,
    overlap_tests: &mut u64,
    tracer: &Tracer,
) -> PrefixGcd {
    let ctx = MeasurementCtx {
        id: cfg.measurement_id,
        day: cfg.day,
        span_ms: 0,
    };
    let prefix = PrefixKey::of(target);
    let mut samples: Vec<RttSample> = Vec::with_capacity(vps.len());

    let probe_from = |vp: usize| -> Option<f64> {
        let src = match target {
            IpAddr::V4(_) => plat::vp_src_v4(platform, vp),
            IpAddr::V6(_) => plat::vp_src_v6(platform, vp),
        };
        let mut best: Option<f64> = None;
        // Fixed window start for rate invariance; see `probe_target_fast`.
        let window_start = u64::from(cfg.measurement_id) * 1000;
        for attempt in 0..cfg.attempts.max(1) {
            let tx = window_start + u64::from(attempt) * 50;
            let meta = ProbeMeta {
                measurement_id: cfg.measurement_id,
                worker_id: vp_wire_id(vp),
                tx_time_ms: tx,
            };
            let pkt = build_probe(src, target, cfg.protocol, &meta, ProbeEncoding::PerWorker);
            if let Ok(Some(d)) = world.send_probe_observed(
                ProbeSource::Vp { platform, vp },
                &pkt,
                tx,
                window_start,
                &ctx,
                wire,
            ) {
                best = Some(best.map_or(d.rtt_ms, |b: f64| b.min(d.rtt_ms)));
            }
        }
        best
    };

    let mut start = 0usize;
    if cfg.precheck {
        // Responsiveness gate from the first participating VP.
        let Some((vp0, c0)) = vps.first().copied() else {
            trace_verdict(tracer, prefix, GcdClass::Unresponsive);
            return PrefixGcd {
                class: GcdClass::Unresponsive,
                enumeration: enumerate_counted_reference(&[], &world.db, overlap_tests),
            };
        };
        let best = probe_from(vp0);
        trace_probe(tracer, prefix, vp0, best);
        match best {
            Some(rtt) => samples.push(RttSample {
                vp: vp0,
                vp_coord: c0,
                rtt_ms: rtt,
            }),
            None => {
                trace_verdict(tracer, prefix, GcdClass::Unresponsive);
                return PrefixGcd {
                    class: GcdClass::Unresponsive,
                    enumeration: enumerate_counted_reference(&[], &world.db, overlap_tests),
                };
            }
        }
        start = 1;
    }
    for &(vp, coord) in &vps[start..] {
        let best = probe_from(vp);
        trace_probe(tracer, prefix, vp, best);
        if let Some(rtt) = best {
            samples.push(RttSample {
                vp,
                vp_coord: coord,
                rtt_ms: rtt,
            });
        }
    }

    let tests_before = *overlap_tests;
    let enumeration = enumerate_counted_reference(&samples, &world.db, overlap_tests);
    let tests_here = *overlap_tests - tests_before;
    classify_and_trace(tracer, prefix, enumeration, tests_here)
}
