//! The daily census pipeline (paper Fig. 3).
//!
//! One census day runs:
//!
//! 1. the **anycast-based stage**: synchronized measurements from the
//!    anycast platform over the full hitlists, once per protocol and
//!    family, yielding per-protocol candidate sets;
//! 2. **AT assembly**: today's candidates united with the feedback list
//!    (GCD-confirmed prefixes from previous days, bi-annual full scans and
//!    operator ground truth) — this covers the anycast-based stage's false
//!    negatives;
//! 3. the **GCD stage**: an Ark-style latency campaign over the ATs only —
//!    two orders of magnitude cheaper than a full-hitlist GCD — with a TCP
//!    retry for ICMP-dark targets;
//! 4. **publication**: a [`DailyCensus`] with both verdicts per prefix and
//!    feedback of today's GCD confirmations into tomorrow's AT list.

use std::collections::{BTreeMap, BTreeSet};
use std::net::IpAddr;
use std::sync::Arc;

use laces_core::classify::AnycastClassification;
use laces_core::fault::FaultPlan;
use laces_core::orchestrator::run_classified;
use laces_core::spec::MeasurementSpec;
use laces_core::MeasurementError;
use laces_gcd::engine::{run_campaign, GcdClass, GcdConfig};
use laces_hitlist::Hitlist;
use laces_netsim::bgp::BgpTable;
use laces_netsim::{bgp_table, PlatformId, TargetKind, World};
use laces_obs::{names, RunReport, SimClock, StageTimer};
use laces_packet::{IpVersion, PrefixKey, Protocol};
use laces_trace::{Component, TraceConfig, TraceEvent, Tracer};
use serde::{Deserialize, Serialize};

use crate::atlist::{AtList, AtSource};
use crate::record::{CensusRecord, CensusStats, DailyCensus, GcdSummary};

/// Pipeline configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// The probing anycast platform.
    pub anycast_platform: PlatformId,
    /// The GCD latency platform.
    pub gcd_platform: PlatformId,
    /// Protocols measured for IPv4.
    pub protocols_v4: Vec<Protocol>,
    /// Protocols measured for IPv6.
    pub protocols_v6: Vec<Protocol>,
    /// Hitlist streaming rate.
    pub rate_per_s: u32,
    /// Inter-worker offset (1 s in production: a polite ping train).
    pub offset_ms: u64,
    /// Base measurement id; each stage derives a unique id from it.
    pub base_measurement_id: u32,
    /// Fault schedule applied to every anycast-based stage (robustness
    /// tests; the default plan is fault-free).
    pub faults: FaultPlan,
    /// Shard count for the anycast-based stages' streamer (`None` lets the
    /// spec builder pick its default). The published census — records,
    /// sidecars, query index — is invariant under this knob.
    pub shards: Option<usize>,
    /// Flight-recorder configuration, applied to every stage of every day
    /// (default: disabled). Sections land in
    /// [`CensusStats::trace_report`] under per-stage labels.
    pub trace: TraceConfig,
}

impl PipelineConfig {
    /// The production configuration: all protocols, both families.
    pub fn standard(world: &World) -> Self {
        PipelineConfig {
            anycast_platform: world.std_platforms.production,
            gcd_platform: world.std_platforms.ark,
            protocols_v4: vec![Protocol::Icmp, Protocol::Tcp, Protocol::Udp],
            protocols_v6: vec![Protocol::Icmp, Protocol::Tcp, Protocol::Udp],
            rate_per_s: 10_000,
            offset_ms: 1_000,
            base_measurement_id: 1_000,
            faults: FaultPlan::default(),
            shards: None,
            trace: TraceConfig::default(),
        }
    }

    /// A lighter configuration (ICMP only) for longitudinal studies.
    pub fn icmp_only(world: &World) -> Self {
        let mut cfg = Self::standard(world);
        cfg.protocols_v4 = vec![Protocol::Icmp];
        cfg.protocols_v6 = vec![Protocol::Icmp];
        cfg
    }
}

/// The stateful census pipeline: owns the feedback AT list and partial
/// flags across days.
pub struct CensusPipeline {
    world: Arc<World>,
    cfg: PipelineConfig,
    /// GCD-confirmed prefixes fed back into subsequent AT sets.
    pub feedback: AtList,
    /// Prefixes flagged partial-anycast by the /32-granularity scan.
    pub partial_flags: BTreeSet<PrefixKey>,
    /// Origin tables for record publication, built once on first use: the
    /// v4 pfx2as announcement table plus the v6 deployment registry.
    origins: Option<OriginTables>,
}

/// Announcement-derived origin lookup for published records.
struct OriginTables {
    v4: BgpTable,
    v6: BTreeMap<PrefixKey, u32>,
}

impl OriginTables {
    fn build(world: &World) -> Self {
        let v4 = bgp_table(world);
        let mut v6 = BTreeMap::new();
        for t in &world.targets {
            if t.prefix.is_v4() {
                continue;
            }
            // The simulator's v6 "table" is the deployment registry:
            // deployment-backed prefixes originate from the deployment's
            // AS; plain unicast v6 space carries no origin here.
            let dep = match t.kind {
                TargetKind::Anycast { dep }
                | TargetKind::PartialAnycast { dep, .. }
                | TargetKind::BackingAnycast { dep, .. } => dep,
                TargetKind::Unicast { .. } | TargetKind::GlobalUnicast { .. } => continue,
            };
            v6.insert(t.prefix, world.deployment(dep).asn);
        }
        OriginTables { v4, v6 }
    }

    fn origin_of(&self, prefix: PrefixKey) -> Option<u32> {
        match prefix {
            PrefixKey::V4(p24) => self.v4.covering(p24).map(|a| a.asn),
            PrefixKey::V6(_) => self.v6.get(&prefix).copied(),
        }
    }
}

/// Everything one census day produced, including intermediate artifacts
/// the analyses need.
pub struct DayOutput {
    /// The published census.
    pub census: DailyCensus,
    /// Per-protocol-label anycast-based classifications ("ICMPv4", ...).
    pub classifications: BTreeMap<String, AnycastClassification>,
    /// The GCD stage's report over the AT set, keyed by prefix.
    pub gcd: BTreeMap<PrefixKey, laces_gcd::PrefixGcd>,
}

impl DayOutput {
    /// Whether any stage of the day ran degraded (see
    /// [`DailyCensus::degraded`]).
    pub fn degraded(&self) -> bool {
        self.census.degraded()
    }

    /// The day's telemetry (see [`CensusStats::telemetry`]).
    pub fn telemetry(&self) -> &RunReport {
        &self.census.stats.telemetry
    }
}

impl CensusPipeline {
    /// Create a pipeline.
    pub fn new(world: Arc<World>, cfg: PipelineConfig) -> Self {
        CensusPipeline {
            world,
            cfg,
            feedback: AtList::new(),
            partial_flags: BTreeSet::new(),
            origins: None,
        }
    }

    /// Access the configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// Run one census day.
    ///
    /// # Errors
    ///
    /// Any [`MeasurementError`] from spec validation or a measurement
    /// entry point — a *configuration* problem (wrong platform kind, bad
    /// fault plan). Runtime failures never error: they degrade the day and
    /// are reported in [`CensusStats::telemetry`].
    pub fn run_day(&mut self, day: u32) -> Result<DayOutput, MeasurementError> {
        if self.origins.is_none() {
            self.origins = Some(OriginTables::build(&self.world));
        }
        let world = &self.world;
        let mut stats = CensusStats::default();
        let mut clock = SimClock::new();
        let mut classifications: BTreeMap<(IpVersion, Protocol), AnycastClassification> =
            BTreeMap::new();
        let mut addr_of: BTreeMap<PrefixKey, IpAddr> = BTreeMap::new();

        // --- Stage 1: anycast-based measurements ------------------------
        let hit_v4 = laces_hitlist::build_v4(world);
        let hit_v4_dns = laces_hitlist::build_v4_dns(world);
        let hit_v6 = laces_hitlist::build_v6(world);
        for h in [&hit_v4, &hit_v6] {
            for e in &h.entries {
                addr_of.insert(e.prefix, e.addr);
            }
        }

        let mut stage_idx = 0u32;
        let mut run_stage = |hitlist: &Hitlist,
                             protocol: Protocol,
                             stats: &mut CensusStats,
                             clock: &mut SimClock|
         -> Result<(), MeasurementError> {
            let label = pass_label(protocol, hitlist.family);
            let targets = Arc::new(hitlist.addresses());
            let mut builder = MeasurementSpec::builder(
                self.cfg.base_measurement_id + day * 32 + stage_idx,
                self.cfg.anycast_platform,
            )
            .protocol(protocol)
            .targets(targets)
            .rate_per_s(self.cfg.rate_per_s)
            .offset_ms(self.cfg.offset_ms)
            .day(day)
            .faults(self.cfg.faults.clone())
            .trace(self.cfg.trace);
            if let Some(shards) = self.cfg.shards {
                builder = builder.shards(shards);
            }
            let spec = builder.build(world)?;
            stage_idx += 1;
            let mut stage = StageTimer::start(format!("anycast:{label}"), &*clock);
            let stage_start = clock.now_ms();
            // The classify pass gets its own tracer so its contribution
            // and verdict events land in a "<label>/classify" section.
            let classify_tracer = Tracer::new(self.cfg.trace);
            let outcome = run_classified(world, &spec, &classify_tracer)?;
            stats.anycast_probes += outcome.probes_sent;
            stage.count("targets", spec.targets.len() as u64);
            stage.count("probes_sent", outcome.probes_sent);
            let mut inner_ms = 0u64;
            for s in &outcome.telemetry.stages {
                inner_ms = inner_ms.max(s.end_ms());
                stage.child(s.clone().rebased(stage_start));
            }
            clock.advance(inner_ms);
            // A stage that lost workers degrades the whole day's census:
            // published, but flagged with the stage's typed reasons.
            stats.telemetry.absorb(&label, &outcome.telemetry);
            stats.telemetry.push_stage(stage.finish(&*clock));
            stats.trace_report.absorb(&label, outcome.trace_report);
            stats
                .trace_report
                .absorb(&label, classify_tracer.snapshot("classify"));
            let class = outcome.classification;
            stats
                .ats_per_protocol
                .insert(label, class.anycast_targets().len());
            classifications.insert((hitlist.family, protocol), class);
            Ok(())
        };

        for &p in &self.cfg.protocols_v4 {
            let h = if p == Protocol::Udp {
                &hit_v4_dns
            } else {
                &hit_v4
            };
            run_stage(h, p, &mut stats, &mut clock)?;
        }
        for &p in &self.cfg.protocols_v6 {
            run_stage(&hit_v6, p, &mut stats, &mut clock)?;
        }

        // --- Stage 2: AT assembly ---------------------------------------
        let mut candidates: BTreeSet<PrefixKey> = BTreeSet::new();
        for class in classifications.values() {
            candidates.extend(class.anycast_targets());
        }
        let mut gcd_targets: BTreeSet<PrefixKey> = candidates.clone();
        gcd_targets.extend(self.feedback.prefixes());
        // Only prefixes with a known representative address can be probed.
        gcd_targets.retain(|p| addr_of.contains_key(p));
        stats.gcd_target_count = gcd_targets.len();

        // --- Stage 3: GCD over the ATs (ICMP, TCP retry for dark ones) ---
        let at_addrs: Vec<IpAddr> = gcd_targets.iter().map(|p| addr_of[p]).collect();
        let mut gcd_cfg = GcdConfig::daily(self.cfg.base_measurement_id + day * 32 + 20, day);
        gcd_cfg.precheck = false; // ATs are known-responsive; probe fully
        gcd_cfg.trace = self.cfg.trace;
        let mut gcd_stage = StageTimer::start("gcd", &clock);
        let gcd_start = clock.now_ms();
        let mut report = run_campaign(world, self.cfg.gcd_platform, &at_addrs, &gcd_cfg)?;
        stats.gcd_probes += report.probes_sent;
        let mut gcd_ms = 0u64;
        for s in &report.telemetry.stages {
            gcd_ms = gcd_ms.max(s.end_ms());
            gcd_stage.child(s.clone().rebased(gcd_start));
        }
        stats.telemetry.absorb("gcd", &report.telemetry);
        stats
            .trace_report
            .absorb("gcd", report.trace_report.clone());

        let dark: Vec<IpAddr> = report
            .results
            .iter()
            .filter(|(_, r)| r.class == GcdClass::Unresponsive)
            .map(|(p, _)| addr_of[p])
            .collect();
        if !dark.is_empty() {
            let mut tcp_cfg = GcdConfig::daily(self.cfg.base_measurement_id + day * 32 + 21, day);
            tcp_cfg.protocol = Protocol::Tcp;
            tcp_cfg.precheck = true;
            tcp_cfg.trace = self.cfg.trace;
            let tcp_report = run_campaign(world, self.cfg.gcd_platform, &dark, &tcp_cfg)?;
            stats.gcd_probes += tcp_report.probes_sent;
            for s in &tcp_report.telemetry.stages {
                gcd_ms = gcd_ms.max(s.end_ms());
                gcd_stage.child(s.clone().rebased(gcd_start));
            }
            stats
                .telemetry
                .absorb("gcd_tcp_retry", &tcp_report.telemetry);
            stats
                .trace_report
                .absorb("gcd_tcp_retry", tcp_report.trace_report.clone());
            for (p, r) in tcp_report.results {
                if r.class != GcdClass::Unresponsive {
                    report.results.insert(p, r);
                }
            }
        }
        clock.advance(gcd_ms);
        gcd_stage.count("targets", at_addrs.len() as u64);
        gcd_stage.count("probes_sent", stats.gcd_probes);
        stats.telemetry.push_stage(gcd_stage.finish(&clock));

        // --- Stage 4: publish + feedback ---------------------------------
        let mut records: BTreeMap<PrefixKey, CensusRecord> = BTreeMap::new();
        let mut publish: BTreeSet<PrefixKey> = candidates.clone();
        publish.extend(
            report
                .results
                .iter()
                .filter(|(_, r)| r.class == GcdClass::Anycast)
                .map(|(p, _)| *p),
        );
        for prefix in publish {
            let family = if prefix.is_v4() {
                IpVersion::V4
            } else {
                IpVersion::V6
            };
            // Only record verdicts of the prefix's own family.
            let anycast_based = classifications
                .iter()
                .filter(|((f, _), _)| *f == family)
                .map(|((_, proto), class)| (*proto, class.class_of(prefix)))
                .collect();
            let gcd = report.results.get(&prefix).map(|r| GcdSummary {
                class: r.class,
                n_sites: r.n_sites(),
                cities: r
                    .enumeration
                    .cities(&world.db)
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            });
            records.insert(
                prefix,
                CensusRecord {
                    prefix,
                    anycast_based,
                    gcd,
                    partial: self.partial_flags.contains(&prefix),
                    origin_asn: self.origins.as_ref().and_then(|o| o.origin_of(prefix)),
                },
            );
        }

        // Feedback today's confirmations into tomorrow's AT list.
        let confirmed: Vec<PrefixKey> = report
            .results
            .iter()
            .filter(|(_, r)| r.class == GcdClass::Anycast)
            .map(|(p, _)| *p)
            .collect();
        self.feedback.merge(confirmed, AtSource::DailyGcdFeedback);

        stats
            .telemetry
            .set_gauge(names::census::DAY, u64::from(day));
        stats
            .telemetry
            .set_gauge(names::census::CANDIDATES, candidates.len() as u64);
        stats
            .telemetry
            .set_gauge(names::census::GCD_TARGETS, stats.gcd_target_count as u64);
        stats
            .telemetry
            .set_gauge(names::census::PUBLISHED, records.len() as u64);
        stats
            .telemetry
            .set_gauge(names::census::FEEDBACK_SIZE, self.feedback.len() as u64);
        stats
            .telemetry
            .set_gauge(names::census::DAY_SIM_MS, clock.now_ms());

        // Day-level stage spans for the flight recorder: the census's
        // top-level stage tree, mirrored as unsampled `StageSpan` events so
        // the Chrome export shows the day's timeline next to the per-probe
        // flights.
        let day_tracer = Tracer::new(self.cfg.trace);
        for s in &stats.telemetry.stages {
            day_tracer.record(Component::Census, || TraceEvent::StageSpan {
                name: s.name.clone(),
                start_ms: s.start_ms,
                sim_ms: s.sim_ms,
            });
        }
        stats.trace_report.absorb("census", day_tracer.snapshot(""));

        Ok(DayOutput {
            census: DailyCensus {
                day,
                records,
                stats,
            },
            classifications: classifications
                .into_iter()
                .map(|((family, protocol), class)| (pass_label(protocol, family), class))
                .collect(),
            gcd: report.results,
        })
    }
}

/// A pass's label in published stats and trace sections ("ICMPv4", ...).
fn pass_label(protocol: Protocol, family: IpVersion) -> String {
    format!("{}{}", protocol.name(), family.suffix())
}
