//! The simulated wire: probe in, attributed reply out.
//!
//! [`World::send_probe`] is the single point where measurement tools touch
//! the simulated Internet. It accepts real probe *bytes* (built by
//! `laces-packet`), decides whether and where the target responds — anycast
//! catchments, partial anycast, temporary anycast, backing-anycast
//! fallbacks, global-BGP unicast egress, reverse-path instability, route
//! flips, loss — synthesizes the reply bytes a real host would emit, and
//! delivers them to the vantage point that BGP would deliver them to, with
//! an RTT from the latency model.

use bytes::Bytes;
use laces_geo::Coord;
use laces_obs::Counter;
use laces_packet::probe::{Packet, PacketView, PreparedReply, ProbeMeta};
use laces_packet::{PacketError, PrefixKey, ProbeEncoding, Protocol};
use laces_trace::{Component, TraceEvent, Tracer, UnansweredCause, WireFate};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::net::IpAddr;
use std::sync::Arc;

use crate::deployments::DeploymentId;
use crate::platform::{PlatformId, PlatformKind};
use crate::rng;
use crate::routing::{Routes, TieSet};
use crate::targets::{ChaosProfile, TargetKind};
use crate::world::{forward_site_in, receiving_site_in, DepCatchment, World};

/// Where a probe is being sent from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeSource {
    /// A worker at site `site` of an anycast measurement platform: replies
    /// are routed by BGP to whichever site's catchment the responder is in.
    Worker {
        /// The anycast platform.
        platform: PlatformId,
        /// Sending site index.
        site: usize,
    },
    /// A node of a unicast VP platform: replies come back to the same node.
    Vp {
        /// The unicast platform.
        platform: PlatformId,
        /// Node index.
        vp: usize,
    },
}

/// Measurement-scope context the wire needs for route dynamics.
#[derive(Debug, Clone, Copy)]
pub struct MeasurementCtx {
    /// Measurement identifier (scopes the flip realisations).
    pub id: u32,
    /// Simulated day (scopes daily catchment tie-breaks, churn, schedules).
    pub day: u32,
    /// Time between the first and last probe a single target receives
    /// (`(n_workers - 1) × inter-probe offset`); drives the route-flip
    /// probability (§5.1.5).
    pub span_ms: u64,
}

/// A reply delivered back to the measurement infrastructure.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// The reply packet (parse with `laces_packet::probe::parse_reply`).
    /// On the zero-copy fast path (`reply` is `Some`) the addresses and
    /// protocol are populated but `bytes` is empty — attribution comes
    /// from `reply` instead.
    pub packet: Packet,
    /// Pre-parsed attribution, present when the wire skipped materializing
    /// reply bytes (batched probes that carried their [`ProbeMeta`]).
    /// Resolve with `laces_packet::probe::attribute_prepared`, which is
    /// bit-identical to parsing the bytes.
    pub reply: Option<PreparedReply>,
    /// Receiving vantage point: the worker site index for probes sent from
    /// an anycast platform, or the VP index for unicast platforms.
    pub rx_index: usize,
    /// Capture timestamp in virtual milliseconds.
    pub rx_time_ms: u64,
    /// The round-trip time as a float (what scamper would log).
    pub rtt_ms: f64,
}

/// Deterministic fault model for the capture fabric: the path a captured
/// reply takes from a site's capture filter back to the worker process.
/// Real deployments lose and occasionally duplicate captures here (pcap
/// buffer overruns, mirrored spans); the model makes both injectable.
///
/// The verdict for a delivery is a pure function of `seed` and the
/// delivery's coordinates (receiving site, capture time, responder), so a
/// rerun under the same fault plan reproduces the identical record stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CaptureFaults {
    /// Fault-plan seed the verdicts are keyed on.
    pub seed: u64,
    /// Probability a capture is silently dropped before reaching the worker.
    pub drop_rate: f64,
    /// Probability a capture is delivered twice (checked only if not
    /// dropped).
    pub dup_rate: f64,
}

/// What the capture fabric does with one delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricVerdict {
    /// Delivered once (the non-faulty path).
    Deliver,
    /// Lost in the fabric; the worker never sees it.
    Drop,
    /// Delivered twice; the worker records it twice.
    Duplicate,
}

/// Telemetry for one sender's view of the wire: probes handed in, replies
/// delivered back, probes that elicited nothing (dead target, loss,
/// unroutable reply). Counters are atomic sums, so the totals are
/// order-independent and a shared instance across worker threads stays
/// deterministic.
#[derive(Debug, Default)]
pub struct WireStats {
    /// Probes handed to the wire.
    pub probes: Counter,
    /// Replies the wire delivered back.
    pub deliveries: Counter,
    /// Probes that elicited no delivery.
    pub unanswered: Counter,
}

impl WireStats {
    /// Zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Telemetry for the capture fabric: what the planned fault model
/// *actually did* to this run's deliveries, to compare against the
/// configured `drop_rate` / `dup_rate` (planned vs. observed).
#[derive(Debug, Default)]
pub struct FabricStats {
    /// Deliveries that reached the worker once.
    pub delivered: Counter,
    /// Deliveries lost in the fabric.
    pub dropped: Counter,
    /// Deliveries duplicated by the fabric.
    pub duplicated: Counter,
}

impl FabricStats {
    /// Zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one verdict.
    pub fn record(&self, verdict: FabricVerdict) {
        match verdict {
            FabricVerdict::Deliver => self.delivered.inc(),
            FabricVerdict::Drop => self.dropped.inc(),
            FabricVerdict::Duplicate => self.duplicated.inc(),
        }
    }
}

impl CaptureFaults {
    /// Decide the fate of `d`, deterministically in `(seed, d)`.
    pub fn verdict(&self, d: &Delivery) -> FabricVerdict {
        let src = match d.packet.src {
            IpAddr::V4(a) => u64::from(u32::from(a)),
            IpAddr::V6(a) => {
                let o = a.octets();
                o.iter()
                    .fold(0u64, |acc, &b| acc.rotate_left(8) ^ u64::from(b))
            }
        };
        let k = rng::key(self.seed, &[0xFAB1C, d.rx_index as u64, d.rx_time_ms, src]);
        if rng::unit_f64(rng::mix(k, 1)) < self.drop_rate {
            FabricVerdict::Drop
        } else if rng::unit_f64(rng::mix(k, 2)) < self.dup_rate {
            FabricVerdict::Duplicate
        } else {
            FabricVerdict::Deliver
        }
    }

    /// [`CaptureFaults::verdict`], recording the outcome into `stats`.
    pub fn verdict_observed(&self, d: &Delivery, stats: &FabricStats) -> FabricVerdict {
        let v = self.verdict(d);
        stats.record(v);
        v
    }
}

/// Probability that a target's reverse route flips at least once within a
/// window of `span_s` seconds (§5.1.5 calibration; see DESIGN.md §4).
///
/// Two regimes: a small unstable population flipping on a ~2-minute
/// timescale, and bulk BGP path churn that makes most paths see a change
/// within several hours. Reproduces the paper's Fig. 4 progression
/// (13-minute probing intervals are catastrophic; 1-second intervals cost
/// almost nothing).
pub fn flip_probability(span_s: f64) -> f64 {
    if span_s <= 0.0 {
        return 0.0;
    }
    let fast = 0.02 * (1.0 - (-span_s / 128.0).exp());
    let slow = 0.685 * (1.0 - (-(span_s / 11_000.0).powi(3)).exp());
    fast + slow
}

/// The host octet (v4) / low interface-id byte (v6) of an address, used for
/// partial-anycast resolution.
fn host_of(addr: IpAddr) -> u8 {
    match addr {
        IpAddr::V4(a) => a.octets()[3],
        IpAddr::V6(a) => a.octets()[15],
    }
}

/// Pre-resolved per-worker probing state: the route handles
/// (`Arc<Routes>`, `Arc<DepCatchment>`) a sender needs are fetched from the
/// `World` caches once at start-order time, and the reply/chaos scratch
/// buffers are owned here, so [`World::send_probe_batch`] never touches the
/// cache `RwLock` and allocates nothing per probe in its steady state.
#[derive(Debug)]
pub struct ProbeSession {
    src: ProbeSource,
    src_platform: PlatformId,
    src_as: u32,
    /// Position of `src_as` in the VP-AS table, resolved once.
    src_vp_pos: Option<u16>,
    src_coord: Coord,
    /// City of the sending site (workers sit at city centres; unicast VP
    /// nodes are jittered off them, so they stay coordinate-based).
    src_city: Option<laces_geo::CityId>,
    /// The sender's latency key, resolved once.
    src_key: rng::Key,
    /// The sender's access delay, resolved once.
    src_access: f64,
    /// Reply routing toward the sender's own platform (workers only).
    routes: Option<Arc<Routes>>,
    /// Forward catchment of every deployment, indexed by `DeploymentId`.
    catchments: Vec<Arc<DepCatchment>>,
    /// Great-circle distances from this VP's jittered coordinate to each
    /// city centre, filled on first use (NaN = unset). Two slots per city
    /// — the forward (VP → city) and return (city → VP) legs are cached
    /// separately so the memo never assumes haversine symmetry. Workers
    /// sit at city centres and resolve through the world's city-pair memo
    /// instead, so this stays empty for them.
    vp_city_km: Vec<f64>,
    chaos_buf: String,
    reply_buf: Vec<u8>,
    /// Flight recorder for per-probe wire fates; the default is the
    /// disabled tracer, which costs one branch per probe.
    tracer: Tracer,
}

impl ProbeSession {
    /// The source this session probes from.
    pub fn source(&self) -> ProbeSource {
        self.src
    }

    /// Attach a flight recorder; the wire emits a `WireOutcome` event for
    /// every sampled probe this session sends.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }
}

/// One pre-built probe inside a batch handed to [`World::send_probe_batch`].
/// The transport bytes are borrowed (typically from a worker-owned buffer
/// pool filled by `build_probe_into`).
#[derive(Debug, Clone, Copy)]
pub struct BatchProbe<'a> {
    /// Destination address.
    pub dst: IpAddr,
    /// Pre-serialized transport bytes. Ignored — and may be empty — when
    /// `meta` is set: the prepared path never parses probe bytes.
    pub bytes: &'a [u8],
    /// Virtual transmit time of this probe.
    pub tx_time_ms: u64,
    /// Virtual time the *first* worker probes this target.
    pub window_start_ms: u64,
    /// Probe metadata, when the sender wants the zero-copy fast path: the
    /// wire then skips reply-byte synthesis and attaches a
    /// [`PreparedReply`] to the delivery instead (bit-identical outcome,
    /// no per-delivery allocation). `None` keeps the byte path.
    pub meta: Option<(ProbeMeta, ProbeEncoding)>,
}

impl World {
    /// Resolve everything a sender needs for a measurement's probing loop —
    /// done once at start-order time, so the per-probe path is lock-free.
    pub fn probe_session(&self, src: ProbeSource) -> ProbeSession {
        let (src_platform, src_idx) = match src {
            ProbeSource::Worker { platform, site } => (platform, site),
            ProbeSource::Vp { platform, vp } => (platform, vp),
        };
        let src_as = self.platform(src_platform).vp_as(src_idx);
        let src_key = rng::key(
            self.cfg.seed,
            &[0x52C, src_platform.0 as u64, src_idx as u64],
        );
        ProbeSession {
            src,
            src_platform,
            src_as,
            src_vp_pos: self.vp_as_position(src_as),
            src_coord: self.vantage_coord(src_platform, src_idx),
            src_city: match src {
                ProbeSource::Worker { platform, site } => self
                    .platform(platform)
                    .sites()
                    .map(|sites| sites[site].city),
                ProbeSource::Vp { .. } => None,
            },
            src_key,
            src_access: self.latency.access_ms(src_key),
            routes: match src {
                ProbeSource::Worker { platform, .. } => Some(self.platform_routes(platform)),
                ProbeSource::Vp { .. } => None,
            },
            catchments: (0..self.deployments.len() as u32)
                .map(|d| self.dep_catchment(DeploymentId(d)))
                .collect(),
            vp_city_km: match src {
                ProbeSource::Vp { .. } => vec![f64::NAN; self.db.len() * 2],
                ProbeSource::Worker { .. } => Vec::new(),
            },
            chaos_buf: String::new(),
            reply_buf: Vec::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Deliver a probe; returns the reply delivery, or `None` when the
    /// target does not exist, is down or unresponsive on this protocol, the
    /// probe is lost, or the reply cannot route back.
    ///
    /// `window_start_ms` is the virtual time at which the *first* worker
    /// probes this target (the orchestrator schedules the rest within
    /// `ctx.span_ms` after it); route flips are placed inside that window.
    ///
    /// # Errors
    ///
    /// Returns `Err` only when the probe bytes themselves are malformed —
    /// a real host would silently drop them, but a malformed probe is a
    /// caller bug worth surfacing.
    pub fn send_probe(
        &self,
        src: ProbeSource,
        packet: &Packet,
        tx_time_ms: u64,
        window_start_ms: u64,
        ctx: &MeasurementCtx,
    ) -> Result<Option<Delivery>, PacketError> {
        let (src_platform, src_idx) = match src {
            ProbeSource::Worker { platform, site } => (platform, site),
            ProbeSource::Vp { platform, vp } => (platform, vp),
        };
        let src_as = self.platform(src_platform).vp_as(src_idx);
        let src_key = rng::key(
            self.cfg.seed,
            &[0x52C, src_platform.0 as u64, src_idx as u64],
        );
        let src_city = match src {
            ProbeSource::Worker { platform, site } => self
                .platform(platform)
                .sites()
                .map(|sites| sites[site].city),
            ProbeSource::Vp { .. } => None,
        };
        let mut chaos_buf = String::new();
        let mut reply_buf = Vec::new();
        self.send_probe_core(
            src,
            src_platform,
            self.vantage_coord(src_platform, src_idx),
            src_city,
            src_key,
            self.latency.access_ms(src_key),
            flip_probability(ctx.span_ms as f64 / 1000.0),
            None,
            None,
            &packet.view(),
            tx_time_ms,
            window_start_ms,
            ctx,
            |dep| self.forward_site(dep, src_as, ctx.day),
            |responder_as| self.receiving_site(src_platform, responder_as, ctx.day),
            &mut chaos_buf,
            &mut reply_buf,
            &Tracer::disabled(),
        )
    }

    /// The lock-free batched sending path: every probe of `probes` goes
    /// through the same decision pipeline as [`World::send_probe`], but
    /// route lookups resolve against the session's pre-fetched handles and
    /// reply synthesis reuses the session's buffers. Wire statistics are
    /// accumulated locally and added to `stats` once per batch (the sums
    /// are identical to per-probe increments).
    ///
    /// Results are *positional*: `out` (cleared first) gets exactly one
    /// slot per probe, in probe order — `None` for unanswered or malformed
    /// probes — so callers map deliveries back to probes without matching
    /// addresses, which is ambiguous when a batch legitimately repeats a
    /// destination (retry trains, duplicate hitlist rows).
    ///
    /// # Errors
    ///
    /// Malformed probe bytes surface as `Err` after the whole batch has
    /// been processed (the malformed probe itself elicits nothing, exactly
    /// as on the scalar path); the first error wins. A probe with `meta`
    /// attached never has its bytes parsed, so it cannot error.
    #[allow(clippy::too_many_arguments)]
    pub fn send_probe_batch(
        &self,
        session: &mut ProbeSession,
        src_addr: IpAddr,
        protocol: Protocol,
        probes: &[BatchProbe<'_>],
        ctx: &MeasurementCtx,
        stats: &WireStats,
        out: &mut Vec<Option<Delivery>>,
    ) -> Result<(), PacketError> {
        out.clear();
        let ProbeSession {
            src,
            src_platform,
            src_as,
            src_vp_pos,
            src_coord,
            src_city,
            src_key,
            src_access,
            routes,
            catchments,
            vp_city_km,
            chaos_buf,
            reply_buf,
            tracer,
        } = session;
        let tracer = &*tracer;
        let (src, src_platform, src_as, src_vp_pos, src_coord) =
            (*src, *src_platform, *src_as, *src_vp_pos, *src_coord);
        let (src_city, src_key, src_access) = (*src_city, *src_key, *src_access);
        let routes = routes.as_deref();
        let catchments: &[Arc<DepCatchment>] = catchments;
        let seed = self.cfg.seed;
        let day = ctx.day;
        // The flip probability depends only on the measurement span: hoist
        // its two exponentials out of the per-probe path.
        let flip_p = flip_probability(ctx.span_ms as f64 / 1000.0);
        let mut delivered: u64 = 0;
        let mut unanswered: u64 = 0;
        let mut first_err: Option<PacketError> = None;
        for p in probes {
            let view = PacketView {
                src: src_addr,
                dst: p.dst,
                protocol,
                bytes: p.bytes,
            };
            let sent = self.send_probe_core(
                src,
                src_platform,
                src_coord,
                src_city,
                src_key,
                src_access,
                flip_p,
                (!vp_city_km.is_empty()).then_some(vp_city_km.as_mut_slice()),
                p.meta,
                &view,
                p.tx_time_ms,
                p.window_start_ms,
                ctx,
                |dep| {
                    let pos = src_vp_pos?;
                    forward_site_in(seed, &catchments[dep.0 as usize], pos, dep, src_as, day)
                },
                |responder_as| receiving_site_in(seed, routes?, src_platform, responder_as, day),
                chaos_buf,
                reply_buf,
                tracer,
            );
            out.push(match sent {
                Ok(Some(d)) => {
                    delivered += 1;
                    Some(d)
                }
                Ok(None) => {
                    unanswered += 1;
                    None
                }
                // A malformed probe is counted as a probe but elicits
                // nothing — same accounting as the scalar observed path.
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                    None
                }
            });
        }
        stats.probes.add(probes.len() as u64);
        stats.deliveries.add(delivered);
        stats.unanswered.add(unanswered);
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// The shared decision pipeline behind [`World::send_probe`] and
    /// [`World::send_probe_batch`]. `forward` and `receiving` abstract the
    /// route-table access (locked caches on the scalar path, pre-resolved
    /// session handles on the batched path) and MUST be backed by
    /// [`forward_site_in`] / [`receiving_site_in`] so the RNG draws are
    /// bit-identical between paths.
    #[allow(clippy::too_many_arguments)]
    fn send_probe_core(
        &self,
        src: ProbeSource,
        src_platform: PlatformId,
        src_coord: Coord,
        src_city: Option<laces_geo::CityId>,
        src_key: rng::Key,
        src_access: f64,
        flip_p: f64,
        vp_city_km: Option<&mut [f64]>,
        prepared: Option<(ProbeMeta, ProbeEncoding)>,
        packet: &PacketView<'_>,
        tx_time_ms: u64,
        window_start_ms: u64,
        ctx: &MeasurementCtx,
        mut forward: impl FnMut(DeploymentId) -> Option<(usize, u16)>,
        mut receiving: impl FnMut(u32) -> Option<(usize, u16, TieSet)>,
        chaos_buf: &mut String,
        reply_buf: &mut Vec<u8>,
        tracer: &Tracer,
    ) -> Result<Option<Delivery>, PacketError> {
        let src_idx = match src {
            ProbeSource::Worker { site, .. } => site,
            ProbeSource::Vp { vp, .. } => vp,
        };
        // Per-probe flight-recorder hook: a single branch when tracing is
        // disabled, and the event closure only runs for sampled targets.
        // Every fate is keyed on per-probe coordinates (prefix, sender,
        // schedule time), so the recorded multiset is batch-invariant.
        let prefix = PrefixKey::of(packet.dst);
        let unanswered = |cause: UnansweredCause| {
            tracer.record_for(Component::Wire, prefix, || TraceEvent::WireOutcome {
                prefix,
                worker: u16::try_from(src_idx).unwrap_or(u16::MAX),
                tx_time_ms,
                fate: WireFate::Unanswered { cause },
            });
        };
        let Some(tid) = self.lookup(prefix) else {
            unanswered(UnansweredCause::UnknownTarget);
            return Ok(None);
        };
        let target = self.target(tid);
        if !target.alive_on(self.cfg.seed, tid, ctx.day) {
            unanswered(UnansweredCause::TargetDown);
            return Ok(None);
        }
        if !target.resp.to(packet.protocol) {
            unanswered(UnansweredCause::ProtocolClosed);
            return Ok(None);
        }
        // Per-probe draws are keyed by the probe's position in the
        // measurement schedule (offset inside the target's window), not by
        // absolute transmit time: pacing the same schedule slower or faster
        // must redraw nothing, or the census would not be rate-invariant
        // (§5.5.2). Within one measurement every probe still gets a unique
        // key via (target, source, window offset).
        let sched_offset_ms = tx_time_ms.saturating_sub(window_start_ms);
        let probe_key = rng::key(
            self.cfg.seed,
            &[
                0x920BE,
                tid.0 as u64,
                sched_offset_ms,
                src_idx as u64,
                ctx.id as u64,
            ],
        );
        if rng::unit_f64(rng::mix(probe_key, 0x1055)) < self.cfg.loss_rate {
            unanswered(UnansweredCause::ProbeLost);
            return Ok(None);
        }

        // --- Who responds, and from where? ---------------------------------
        let host = host_of(packet.dst);
        let acts_anycast = target.is_anycast_at(host, ctx.day)
            || (matches!(target.kind, TargetKind::BackingAnycast { .. })
                && matches!(src, ProbeSource::Vp { .. })
                && self.is_broken_v6_vp(src_platform, src_idx));

        // Every responder sits at a city centre, so the forward leg's
        // great-circle distance resolves through the world's city-pair memo
        // when the sender does too (workers); jittered unicast VP senders
        // resolve through their session's per-city memo when one is
        // attached, and fall back to the bare haversine otherwise.
        let mut vp_city_km = vp_city_km;
        let mut dist_from_src = |city: laces_geo::CityId, coord: &Coord| -> f64 {
            match src_city {
                Some(sc) => self.city_gcd_km(sc, city),
                None => match vp_city_km.as_deref_mut() {
                    Some(memo) => {
                        let slot = &mut memo[usize::from(city.0) * 2];
                        if slot.is_nan() {
                            *slot = src_coord.gcd_km(coord);
                        }
                        *slot
                    }
                    None => src_coord.gcd_km(coord),
                },
            }
        };
        let (responder_as, responder_city, responder_coord, site_idx, hops_fwd, d_fwd) =
            if acts_anycast {
                let dep = match target.kind {
                    TargetKind::Anycast { dep }
                    | TargetKind::PartialAnycast { dep, .. }
                    | TargetKind::BackingAnycast { dep, .. } => dep,
                    _ => unreachable!("acts_anycast implies a deployment"),
                };
                let Some((site, dist)) = forward(dep) else {
                    unanswered(UnansweredCause::NoForwardRoute);
                    return Ok(None);
                };
                let s = &self.deployment(dep).sites[site];
                let coord = self.db.get(s.city).coord;
                let d = dist_from_src(s.city, &coord);
                (s.as_idx, s.city, coord, Some((dep, site)), dist, d)
            } else {
                match target.kind {
                    TargetKind::GlobalUnicast { city, egress } => {
                        // Egress network is stable per (target, probing VP):
                        // different workers' replies leave via different PoPs.
                        let e = egress[rng::below(
                            rng::key(self.cfg.seed, &[0xE62E, tid.0 as u64, src_idx as u64]),
                            2,
                        )];
                        let coord = self.db.get(city).coord;
                        let d = dist_from_src(city, &coord);
                        let hops = self.latency.estimate_hops_km(d, rng::mix(probe_key, 7));
                        (e, city, coord, None, hops, d)
                    }
                    TargetKind::Unicast { city }
                    | TargetKind::PartialAnycast { city, .. }
                    | TargetKind::BackingAnycast { city, .. } => {
                        // A live hijack splits traffic: roughly half the
                        // Internet's catchments route to the bogus origin.
                        if let Some(h) = target.hijack.filter(|h| h.day == ctx.day) {
                            if rng::unit_f64(rng::key(
                                self.cfg.seed,
                                &[0x41AF, tid.0 as u64, src_idx as u64],
                            )) < 0.5
                            {
                                let a_city = self.topo.home_city(h.attacker_as);
                                let coord = self.db.get(a_city).coord;
                                let d = dist_from_src(a_city, &coord);
                                let hops = self.latency.estimate_hops_km(d, rng::mix(probe_key, 9));
                                (h.attacker_as, a_city, coord, None, hops, d)
                            } else {
                                let coord = self.db.get(city).coord;
                                let d = dist_from_src(city, &coord);
                                let hops = self.latency.estimate_hops_km(d, rng::mix(probe_key, 7));
                                (target.as_idx, city, coord, None, hops, d)
                            }
                        } else {
                            let coord = self.db.get(city).coord;
                            let d = dist_from_src(city, &coord);
                            let hops = self.latency.estimate_hops_km(d, rng::mix(probe_key, 7));
                            (target.as_idx, city, coord, None, hops, d)
                        }
                    }
                    TargetKind::Anycast { .. } => {
                        // Inactive temporary anycast.
                        unanswered(UnansweredCause::InactiveAnycast);
                        return Ok(None);
                    }
                }
            };

        // --- Synthesize the reply bytes -------------------------------------
        // The identity is borrowed, not cloned: per-site identities point
        // into the deployment table, colo identities are formatted into the
        // reusable scratch buffer.
        let chaos_identity: Option<&str> = if packet.protocol == Protocol::Chaos {
            match (target.ns, site_idx) {
                (Some(ChaosProfile::PerSite), Some((dep, site))) => {
                    Some(self.deployment(dep).sites[site].chaos_identity.as_str())
                }
                (Some(ChaosProfile::PerSite), None) => Some("ns-single-site"),
                (Some(ChaosProfile::Colo(k)), _) => {
                    chaos_buf.clear();
                    // laces-lint: allow(discarded-fallibility) — fmt::Write into the reusable String scratch buffer is infallible
                    let _ = write!(
                        chaos_buf,
                        "auth{}",
                        1 + rng::below(rng::mix(probe_key, 0xC010), k.max(1) as usize)
                    );
                    Some(chaos_buf.as_str())
                }
                (None, _) => None,
            }
        } else {
            None
        };
        // Zero-copy fast path: when the sender handed us the probe's own
        // metadata, the reply's attribution is a pure function of it — no
        // reply bytes are synthesized, and the delivery carries a
        // `PreparedReply` instead (allocation only for CHAOS identities).
        let reply: Option<PreparedReply> = match prepared {
            Some((meta, encoding)) => Some(PreparedReply {
                meta,
                encoding,
                chaos_identity: chaos_identity.map(Arc::from),
            }),
            None => {
                laces_packet::probe::build_reply_into(packet, chaos_identity, reply_buf)?;
                None
            }
        };

        // --- Route the reply back -------------------------------------------
        let (rx_index, hops_back, d_back) = match src {
            ProbeSource::Vp { .. } => {
                let d = match vp_city_km {
                    Some(memo) => {
                        let slot = &mut memo[usize::from(responder_city.0) * 2 + 1];
                        if slot.is_nan() {
                            *slot = responder_coord.gcd_km(&src_coord);
                        }
                        *slot
                    }
                    None => responder_coord.gcd_km(&src_coord),
                };
                (src_idx, hops_fwd, d)
            }
            ProbeSource::Worker { platform, .. } => {
                let Some((primary, dist_back, ties)) = receiving(responder_as) else {
                    unanswered(UnansweredCause::NoReverseRoute);
                    return Ok(None);
                };
                let mut site = primary;
                // Per-packet reverse-path instability. The intensity is a
                // stable per-target property drawn from a wide range, so on
                // any given day only a varying subset of unstable targets
                // actually materialises as a multi-VP observation — the
                // anycast-based candidate set is far less stable over time
                // than the GCD set (§5.1.6).
                if target.jittery && ties.len() >= 2 {
                    let p_flip = 0.03
                        + 0.57 * rng::unit_f64(rng::key(self.cfg.seed, &[0x71F0, tid.0 as u64]));
                    if rng::unit_f64(rng::mix(probe_key, 0x71BB)) < p_flip {
                        site = ties.as_slice()[rng::below(rng::mix(probe_key, 0x71BC), ties.len())]
                            as usize;
                    }
                }
                // Route flips within the probing window: the longer the
                // window, the likelier a flip lands inside it (Fig. 4).
                if !acts_anycast && !matches!(target.kind, TargetKind::GlobalUnicast { .. }) {
                    let fk = rng::key(self.cfg.seed, &[0xF11B, tid.0 as u64, ctx.id as u64]);
                    if rng::unit_f64(fk) < flip_p {
                        let flip_at = window_start_ms
                            + (rng::unit_f64(rng::mix(fk, 1)) * ctx.span_ms as f64) as u64;
                        if tx_time_ms >= flip_at {
                            site = self.alternate_site(platform, primary, &ties, rng::mix(fk, 2));
                        }
                    }
                }
                let Some(sites) = self.platform(platform).sites() else {
                    unanswered(UnansweredCause::NoReverseRoute);
                    return Ok(None);
                };
                (
                    site,
                    dist_back,
                    self.city_gcd_km(responder_city, sites[site].city),
                )
            }
        };

        let target_key = rng::key(self.cfg.seed, &[0x7A26, tid.0 as u64]);
        let mut rtt = self.latency.rtt_ms_km(
            d_fwd,
            d_back,
            hops_fwd,
            hops_back,
            src_key,
            target_key,
            probe_key,
            src_access,
            self.target_access_ms(tid, target_key),
        );
        // DNS answers come from a resolver process, not the kernel: request
        // processing adds milliseconds of heavy-tailed delay. This is why
        // the paper's pipeline performs GCD with ICMP and TCP but not DNS
        // (§4.2.2) — the extra delay inflates feasibility disks.
        if matches!(packet.protocol, Protocol::Udp | Protocol::Chaos) {
            let u = rng::unit_f64(rng::mix(probe_key, 0xD25));
            rtt += (1.0 / (1.0 - 0.92 * u) - 1.0).min(40.0) + 0.5;
        }
        let rx_time_ms = tx_time_ms + (rtt.ceil() as u64).max(1);
        tracer.record_for(Component::Wire, prefix, || TraceEvent::WireOutcome {
            prefix,
            worker: u16::try_from(src_idx).unwrap_or(u16::MAX),
            tx_time_ms,
            fate: WireFate::Delivered {
                rx_worker: u16::try_from(rx_index).unwrap_or(u16::MAX),
                rx_time_ms,
            },
        });
        Ok(Some(Delivery {
            packet: Packet {
                src: packet.dst,
                dst: packet.src,
                protocol: packet.protocol,
                // `Bytes::new` is allocation-free; the fast path never
                // materializes reply bytes.
                bytes: if reply.is_some() {
                    Bytes::new()
                } else {
                    Bytes::copy_from_slice(reply_buf)
                },
            },
            reply,
            rx_index,
            rx_time_ms,
            rtt_ms: rtt,
        }))
    }

    /// [`World::send_probe`], recording the probe and its outcome into
    /// `stats`. This is the entry point the measurement path uses, so every
    /// probe a worker transmits is accounted for in the run's telemetry.
    pub fn send_probe_observed(
        &self,
        src: ProbeSource,
        packet: &Packet,
        tx_time_ms: u64,
        window_start_ms: u64,
        ctx: &MeasurementCtx,
        stats: &WireStats,
    ) -> Result<Option<Delivery>, PacketError> {
        stats.probes.inc();
        let result = self.send_probe(src, packet, tx_time_ms, window_start_ms, ctx)?;
        match result {
            Some(_) => stats.deliveries.inc(),
            None => stats.unanswered.inc(),
        }
        Ok(result)
    }

    /// Coordinate of a vantage point on any platform.
    pub fn vantage_coord(&self, platform: PlatformId, idx: usize) -> laces_geo::Coord {
        match &self.platform(platform).kind {
            PlatformKind::Anycast { sites } => self.db.get(sites[idx].city).coord,
            PlatformKind::Unicast { vps } => vps[idx].coord,
        }
    }

    /// Whether VP `idx` of `platform` sits in an AS that filters backing
    /// `/48` announcements.
    pub fn is_broken_v6_vp(&self, platform: PlatformId, idx: usize) -> bool {
        (platform == self.std_platforms.ark || platform == self.std_platforms.ark_dev)
            && self.broken_v6_vps.contains(&idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_probability_is_monotone_and_bounded() {
        let mut prev = 0.0;
        for s in [0.0, 1.0, 31.0, 300.0, 1860.0, 24_180.0, 1e6] {
            let p = flip_probability(s);
            assert!((0.0..=1.0).contains(&p), "p({s}) = {p}");
            assert!(p >= prev, "not monotone at {s}");
            prev = p;
        }
    }

    #[test]
    fn flip_probability_matches_fig4_calibration() {
        // Span for a 32-worker measurement = 31 × interval.
        let p_1s = flip_probability(31.0);
        let p_1m = flip_probability(31.0 * 60.0);
        let p_13m = flip_probability(31.0 * 780.0);
        // Paper (Fig. 4): extra FPs over the 0 s baseline out of ~280 k
        // unicast: ~1.2 k (1 s), ~6.5 k (1 m), ~185 k (13 m).
        assert!((0.003..0.006).contains(&p_1s), "p_1s = {p_1s}");
        assert!((0.015..0.035).contains(&p_1m), "p_1m = {p_1m}");
        assert!((0.55..0.80).contains(&p_13m), "p_13m = {p_13m}");
    }

    #[test]
    fn zero_span_never_flips() {
        assert_eq!(flip_probability(0.0), 0.0);
        assert_eq!(flip_probability(-5.0), 0.0);
    }

    #[test]
    fn host_extraction() {
        assert_eq!(host_of("10.0.0.77".parse().unwrap()), 77);
        assert_eq!(host_of("2001:db8::5".parse().unwrap()), 5);
    }
}
