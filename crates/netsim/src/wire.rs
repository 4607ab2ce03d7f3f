//! The simulated wire: probe in, attributed reply out.
//!
//! Measurement tools touch the simulated Internet through two entry points
//! that share one decision pipeline: [`World::send_probe`] sends one probe
//! as real *bytes* (built by `laces-packet`), and [`World::send_probe_batch`]
//! sends a batch through a sender's [`ProbeSession`], with or without bytes.
//! The pipeline decides whether and where the target responds — anycast
//! catchments, partial anycast, temporary anycast, backing-anycast
//! fallbacks, global-BGP unicast egress, reverse-path instability, route
//! flips, loss — synthesizes the reply a real host would emit, and delivers
//! it to the vantage point that BGP would deliver it to, with an RTT from
//! the latency model. Every route and distance it reads is a table the
//! [`World`] built when it was generated.

use bytes::Bytes;
use laces_obs::Counter;
use laces_packet::probe::{Packet, PacketView, PreparedReply, ProbeMeta};
use laces_packet::{PacketError, PrefixKey, ProbeEncoding, Protocol};
use laces_trace::{Component, TraceEvent, Tracer, UnansweredCause, WireFate};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::net::IpAddr;
use std::sync::Arc;

use crate::platform::{PlatformId, PlatformKind};
use crate::rng;
use crate::targets::{ChaosProfile, TargetKind};
use crate::world::{target_key, World};

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

impl ProbeSource {
    /// The platform and the sender's vantage index on it.
    fn vantage(self) -> (PlatformId, usize) {
        match self {
            ProbeSource::Worker { platform, site } => (platform, site),
            ProbeSource::Vp { platform, vp } => (platform, vp),
        }
    }
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

/// One sender's own probing state: its source, resolved once when the
/// session opens, plus the reply and CHAOS scratch buffers, so
/// [`World::send_probe_batch`] allocates nothing per probe in its steady
/// state. Every route and distance table belongs to the [`World`], so a
/// session is the same size, and as cheap to open, at any world size.
#[derive(Debug)]
pub struct ProbeSession {
    src: ProbeSource,
    src_as: u32,
    /// Position of `src_as` in the VP-AS table.
    src_vp_pos: Option<u16>,
    /// The sender's latency key.
    src_key: rng::Key,
    /// The sender's access delay.
    src_access: f64,
    chaos_buf: String,
    reply_buf: Vec<u8>,
    /// Flight recorder for per-probe wire fates; the default is the
    /// disabled tracer, which costs one branch per probe.
    tracer: Tracer,
}

impl ProbeSession {
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
    /// Open a probing session for `src`: resolve the sender's AS, VP-AS
    /// position, latency key and access delay once.
    pub fn probe_session(&self, src: ProbeSource) -> ProbeSession {
        let (platform, idx) = src.vantage();
        let src_as = self.platform(platform).vp_as(idx);
        let src_key = rng::key(self.cfg.seed, &[0x52C, platform.0 as u64, idx as u64]);
        ProbeSession {
            src,
            src_as,
            src_vp_pos: self.vp_as_position(src_as),
            src_key,
            src_access: self.latency.access_ms(src_key),
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
        let probe = BatchProbe {
            dst: packet.dst,
            bytes: &packet.bytes,
            tx_time_ms,
            window_start_ms,
            meta: None,
        };
        self.send_probe_core(
            &mut self.probe_session(src),
            flip_probability(ctx.span_ms as f64 / 1000.0),
            packet.src,
            packet.protocol,
            &probe,
            ctx,
        )
    }

    /// The batched sending path: every probe of `probes` goes through the
    /// same decision pipeline as [`World::send_probe`], with reply
    /// synthesis reusing the session's buffers. Wire statistics are
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
        // The flip probability depends only on the measurement span: hoist
        // its two exponentials out of the per-probe path.
        let flip_p = flip_probability(ctx.span_ms as f64 / 1000.0);
        let mut delivered: u64 = 0;
        let mut unanswered: u64 = 0;
        let mut first_err: Option<PacketError> = None;
        for p in probes {
            let sent = self.send_probe_core(session, flip_p, src_addr, protocol, p, ctx);
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
    /// [`World::send_probe_batch`]: one probe from `session`'s sender at
    /// `src_addr`, with `flip_p` the measurement's route-flip probability.
    fn send_probe_core(
        &self,
        session: &mut ProbeSession,
        flip_p: f64,
        src_addr: IpAddr,
        protocol: Protocol,
        probe: &BatchProbe<'_>,
        ctx: &MeasurementCtx,
    ) -> Result<Option<Delivery>, PacketError> {
        let ProbeSession {
            src,
            src_as,
            src_vp_pos,
            src_key,
            src_access,
            ref mut chaos_buf,
            ref mut reply_buf,
            ref tracer,
        } = *session;
        let BatchProbe {
            dst,
            bytes,
            tx_time_ms,
            window_start_ms,
            meta: prepared,
        } = *probe;
        let packet = PacketView {
            src: src_addr,
            dst,
            protocol,
            bytes,
        };
        let (src_platform, src_idx) = src.vantage();
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

        // Every responder sits at a city centre: both distance legs are
        // rows of the world's vantage table.
        let src_km = self.vantage_km(src_platform, src_idx);
        let km_from_src = |city: laces_geo::CityId| src_km[usize::from(city.0)][0];
        let (responder_as, responder_city, site_idx, hops_fwd, d_fwd) = if acts_anycast {
            let dep = match target.kind {
                TargetKind::Anycast { dep }
                | TargetKind::PartialAnycast { dep, .. }
                | TargetKind::BackingAnycast { dep, .. } => dep,
                _ => unreachable!("acts_anycast implies a deployment"),
            };
            let forward =
                src_vp_pos.and_then(|pos| self.forward_site_from(pos, dep, src_as, ctx.day));
            let Some((site, dist)) = forward else {
                unanswered(UnansweredCause::NoForwardRoute);
                return Ok(None);
            };
            let s = &self.deployment(dep).sites[site];
            (
                s.as_idx,
                s.city,
                Some((dep, site)),
                dist,
                km_from_src(s.city),
            )
        } else {
            match target.kind {
                TargetKind::GlobalUnicast { city, egress } => {
                    // Egress network is stable per (target, probing VP):
                    // different workers' replies leave via different PoPs.
                    let e = egress[rng::below(
                        rng::key(self.cfg.seed, &[0xE62E, tid.0 as u64, src_idx as u64]),
                        2,
                    )];
                    let d = km_from_src(city);
                    let hops = self.latency.estimate_hops_km(d, rng::mix(probe_key, 7));
                    (e, city, None, hops, d)
                }
                TargetKind::Unicast { city }
                | TargetKind::PartialAnycast { city, .. }
                | TargetKind::BackingAnycast { city, .. } => {
                    // A live hijack splits traffic: roughly half the
                    // Internet's catchments route to the bogus origin.
                    let hijacker = target.hijack.filter(|h| {
                        h.day == ctx.day
                            && rng::unit_f64(rng::key(
                                self.cfg.seed,
                                &[0x41AF, tid.0 as u64, src_idx as u64],
                            )) < 0.5
                    });
                    let (responder, city, salt) = match hijacker {
                        Some(h) => (h.attacker_as, self.topo.home_city(h.attacker_as), 9),
                        None => (target.as_idx, city, 7),
                    };
                    let d = km_from_src(city);
                    let hops = self.latency.estimate_hops_km(d, rng::mix(probe_key, salt));
                    (responder, city, None, hops, d)
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
                laces_packet::probe::build_reply_into(&packet, chaos_identity, reply_buf)?;
                None
            }
        };

        // --- Route the reply back -------------------------------------------
        let (rx_index, hops_back, d_back) = match src {
            ProbeSource::Vp { .. } => (src_idx, hops_fwd, src_km[usize::from(responder_city.0)][1]),
            ProbeSource::Worker { platform, .. } => {
                let Some((primary, dist_back, ties)) =
                    self.receiving_site(platform, responder_as, ctx.day)
                else {
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
                (
                    site,
                    dist_back,
                    self.vantage_km(platform, site)[usize::from(responder_city.0)][1],
                )
            }
        };

        let mut rtt = self.latency.rtt_ms_km(
            d_fwd,
            d_back,
            hops_fwd,
            hops_back,
            src_key,
            target_key(self.cfg.seed, u64::from(tid.0)),
            probe_key,
            src_access,
            self.target_access_ms(tid),
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
