//! The traced census day: the day's work replayed through the layers'
//! public entry points in pipeline order, each call in its own span, then
//! `run_day` itself as their parent span, then `save`.
//!
//! The replay builds exactly the specs `run_day` builds, so it sends the
//! same probes; it checks that its per-pass probe counts, per-pass AT
//! counts and GCD probe count equal the day's telemetry, so the layer
//! numbers describe the same work as the measured day.

use std::collections::{BTreeMap, BTreeSet};
use std::net::IpAddr;
use std::sync::Arc;

use laces_census::pipeline::{CensusPipeline, DayOutput};
use laces_census::store::CensusStore;
use laces_core::classify::AnycastClassification;
use laces_core::orchestrator::run_measurement;
use laces_core::spec::MeasurementSpec;
use laces_gcd::engine::{run_campaign, GcdClass, GcdConfig};
use laces_hitlist::Hitlist;
use laces_netsim::World;
use laces_packet::{PrefixKey, Protocol};

use crate::spans::{SpanId, Spans, LANE_MEASURED, LANE_REPLAY};
use crate::{rate, ratio, Layers};

/// Replay `day` on `pipeline` (whose feedback list must be the state the
/// day starts from), then run and save it. Fills the hitlist, core,
/// classify, gcd, census and store layers and `trace.coverage`.
pub(crate) fn replay_day(
    world: &Arc<World>,
    pipeline: &mut CensusPipeline,
    day: u32,
    store: &CensusStore,
    spans: &mut Spans,
    root: Option<SpanId>,
    layers: &mut Layers,
) -> Result<DayOutput, String> {
    let cfg = pipeline.config().clone();
    let day_span = spans.open("census.run_day", root, LANE_MEASURED);
    let parent = Some(day_span);

    // Hitlists.
    let (hit_v4, s1) = spans.time("hitlist.build_v4", parent, LANE_REPLAY, || {
        laces_hitlist::build_v4(world)
    });
    let (hit_v4_dns, s2) = spans.time("hitlist.build_v4_dns", parent, LANE_REPLAY, || {
        laces_hitlist::build_v4_dns(world)
    });
    let (hit_v6, s3) = spans.time("hitlist.build_v6", parent, LANE_REPLAY, || {
        laces_hitlist::build_v6(world)
    });
    layers.set(
        "hitlist.build_ms",
        spans.ms(s1) + spans.ms(s2) + spans.ms(s3),
    );
    layers.set(
        "hitlist.targets",
        (hit_v4.len() + hit_v4_dns.len() + hit_v6.len()) as f64,
    );
    let mut addr_of: BTreeMap<PrefixKey, IpAddr> = BTreeMap::new();
    for h in [&hit_v4, &hit_v6] {
        for e in &h.entries {
            addr_of.insert(e.prefix, e.addr);
        }
    }

    // Anycast passes, each followed by its classification.
    let mut passes: Vec<(&Hitlist, Protocol)> = Vec::new();
    for &p in &cfg.protocols_v4 {
        passes.push((
            if p == Protocol::Udp {
                &hit_v4_dns
            } else {
                &hit_v4
            },
            p,
        ));
    }
    for &p in &cfg.protocols_v6 {
        passes.push((&hit_v6, p));
    }
    let mut pass_probes: BTreeMap<String, u64> = BTreeMap::new();
    let mut pass_ats: BTreeMap<String, usize> = BTreeMap::new();
    let mut candidates: BTreeSet<PrefixKey> = BTreeSet::new();
    let (mut probes, mut replies, mut records) = (0u64, 0u64, 0u64);
    let (mut core_ms, mut classify_ms) = (0.0, 0.0);
    for (stage_idx, (hitlist, protocol)) in (0u32..).zip(passes) {
        let label = format!("{}{}", protocol.name(), hitlist.family.suffix());
        let key = format!(
            "{}_{}",
            protocol.name().to_lowercase(),
            hitlist.family.suffix()
        );
        let mut builder = MeasurementSpec::builder(
            cfg.base_measurement_id + day * 32 + stage_idx,
            cfg.anycast_platform,
        )
        .protocol(protocol)
        .targets(Arc::new(hitlist.addresses()))
        .rate_per_s(cfg.rate_per_s)
        .offset_ms(cfg.offset_ms)
        .day(day)
        .faults(cfg.faults.clone())
        .trace(cfg.trace);
        if let Some(shards) = cfg.shards {
            builder = builder.shards(shards);
        }
        let spec = builder
            .build(world)
            .map_err(|e| format!("{label} spec: {e}"))?;
        let (outcome, ps) = spans.time(&format!("core.pass.{key}"), parent, LANE_REPLAY, || {
            run_measurement(world, &spec)
        });
        let outcome = outcome.map_err(|e| format!("{label} pass: {e}"))?;
        let (class, cs) = spans.time(&format!("classify.{key}"), parent, LANE_REPLAY, || {
            AnycastClassification::from_outcome(&outcome)
        });
        layers.set(&format!("core.pass.{key}.ms"), spans.ms(ps));
        core_ms += spans.ms(ps);
        classify_ms += spans.ms(cs);
        probes += outcome.probes_sent;
        replies += outcome.telemetry.counter("fabric.replies_delivered");
        records += outcome.records.len() as u64;
        let ats = class.anycast_targets();
        pass_probes.insert(label.clone(), outcome.probes_sent);
        pass_ats.insert(label, ats.len());
        candidates.extend(ats);
    }
    layers.set("core.probes_sent", probes as f64);
    layers.set("core.replies_delivered", replies as f64);
    layers.set("core.records", records as f64);
    layers.set("core.probes_per_s", rate(probes as f64, core_ms));
    layers.set(
        "core.records_per_probe",
        ratio(records as f64, probes as f64),
    );
    layers.set("classify.ms", classify_ms);
    layers.set("classify.records_per_s", rate(records as f64, classify_ms));
    layers.set(
        "classify.anycast_targets",
        pass_ats.values().sum::<usize>() as f64,
    );

    // AT assembly (today's candidates ∪ the feedback list), then GCD with
    // a TCP retry for the ICMP-dark ATs.
    let mut gcd_targets = candidates;
    gcd_targets.extend(pipeline.feedback.prefixes());
    gcd_targets.retain(|p| addr_of.contains_key(p));
    let at_addrs: Vec<IpAddr> = gcd_targets.iter().map(|p| addr_of[p]).collect();
    let mut gcd_cfg = GcdConfig::daily(cfg.base_measurement_id + day * 32 + 20, day);
    gcd_cfg.precheck = false;
    gcd_cfg.trace = cfg.trace;
    let (report, gs) = spans.time("gcd.campaign", parent, LANE_REPLAY, || {
        run_campaign(world, cfg.gcd_platform, &at_addrs, &gcd_cfg)
    });
    let report = report.map_err(|e| format!("gcd campaign: {e}"))?;
    let mut gcd_probes = report.probes_sent;
    let mut gcd_replies = report.telemetry.counter("gcd.replies");
    let mut overlap = report.telemetry.counter("gcd.enumeration.overlap_tests");
    let dark: Vec<IpAddr> = report
        .results
        .iter()
        .filter(|(_, r)| r.class == GcdClass::Unresponsive)
        .map(|(p, _)| addr_of[p])
        .collect();
    let mut retry_ms = 0.0;
    if !dark.is_empty() {
        let mut tcp_cfg = GcdConfig::daily(cfg.base_measurement_id + day * 32 + 21, day);
        tcp_cfg.protocol = Protocol::Tcp;
        tcp_cfg.precheck = true;
        tcp_cfg.trace = cfg.trace;
        let (tcp, ts) = spans.time("gcd.tcp_retry", parent, LANE_REPLAY, || {
            run_campaign(world, cfg.gcd_platform, &dark, &tcp_cfg)
        });
        let tcp = tcp.map_err(|e| format!("gcd tcp retry: {e}"))?;
        retry_ms = spans.ms(ts);
        gcd_probes += tcp.probes_sent;
        gcd_replies += tcp.telemetry.counter("gcd.replies");
        overlap += tcp.telemetry.counter("gcd.enumeration.overlap_tests");
    }
    let gcd_ms = spans.ms(gs) + retry_ms;
    layers.set("gcd.campaign.ms", spans.ms(gs));
    layers.set("gcd.tcp_retry.ms", retry_ms);
    layers.set("gcd.probes_sent", gcd_probes as f64);
    layers.set("gcd.replies", gcd_replies as f64);
    layers.set("gcd.overlap_tests", overlap as f64);
    layers.set("gcd.probes_per_s", rate(gcd_probes as f64, gcd_ms));
    layers.set(
        "gcd.reply_ratio",
        ratio(gcd_replies as f64, gcd_probes as f64),
    );

    // The day itself, as the replayed calls' parent.
    spans.restart(day_span);
    let out = pipeline.run_day(day);
    spans.close(day_span);
    let out = out.map_err(|e| format!("run_day({day}): {e}"))?;
    let run_day_ms = spans.ms(day_span);
    layers.set("census.run_day.ms", run_day_ms);
    layers.set("census.self_ms", spans.self_ms(day_span));
    layers.set("census.published", out.census.records.len() as f64);
    layers.set(
        "trace.coverage",
        ratio(spans.children_ms(day_span), run_day_ms),
    );

    let (saved, ss) = spans.time("store.save", root, LANE_MEASURED, || {
        store.save(&out.census)
    });
    saved.map_err(|e| format!("save({day}): {e}"))?;
    layers.set("store.save.ms", spans.ms(ss));
    let (rec, idx, side) = day_bytes(store, day);
    layers.set("store.record_bytes", rec as f64);
    layers.set("store.index_bytes", idx as f64);
    layers.set("store.sidecar_bytes", side as f64);

    // The replay must have done the day's work, no more and no less.
    let stats = &out.census.stats;
    let mut diffs = Vec::new();
    for (label, n) in &pass_probes {
        let day_n = stats
            .telemetry
            .counter(&format!("{label}.worker.probes_sent"));
        if day_n != *n {
            diffs.push(format!("{label} probes: replay {n}, day {day_n}"));
        }
        let day_ats = stats.ats_per_protocol.get(label).copied().unwrap_or(0);
        if day_ats != pass_ats[label] {
            diffs.push(format!(
                "{label} ATs: replay {}, day {day_ats}",
                pass_ats[label]
            ));
        }
    }
    if stats.anycast_probes != probes {
        diffs.push(format!(
            "anycast probes: replay {probes}, day {}",
            stats.anycast_probes
        ));
    }
    if stats.gcd_probes != gcd_probes {
        diffs.push(format!(
            "gcd probes: replay {gcd_probes}, day {}",
            stats.gcd_probes
        ));
    }
    if stats.gcd_target_count != at_addrs.len() {
        diffs.push(format!(
            "gcd targets: replay {}, day {}",
            at_addrs.len(),
            stats.gcd_target_count
        ));
    }
    if !diffs.is_empty() {
        return Err(format!(
            "replay diverged from day {day}: {}",
            diffs.join("; ")
        ));
    }
    Ok(out)
}

/// Bytes one stored day occupies: `(records, index, other sidecars)`.
pub(crate) fn day_bytes(store: &CensusStore, day: u32) -> (u64, u64, u64) {
    let stem = format!("census-day-{day:05}.");
    let (mut rec, mut idx, mut side) = (0, 0, 0);
    let Ok(entries) = std::fs::read_dir(store.path()) else {
        return (0, 0, 0);
    };
    for e in entries.flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        let Some(ext) = name.strip_prefix(&stem) else {
            continue;
        };
        let len = e.metadata().map_or(0, |m| m.len());
        match ext {
            "jsonl" => rec += len,
            "idx" => idx += len,
            _ => side += len,
        }
    }
    (rec, idx, side)
}
