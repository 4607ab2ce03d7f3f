//! `census-day`: the paper's daily product at paper scale.
//!
//! Set-up generates the world and runs day 0 (warming the world's caches
//! and the pipeline's origin tables, seeding the feedback AT list) and
//! saves it. The operation is day 1: `run_day(1)` + `save`, repeated from
//! the same feedback state, so every repetition does identical work and
//! must produce an identical fingerprint.

use std::sync::Arc;
use std::time::Instant;

use laces_census::atlist::AtList;
use laces_census::pipeline::{CensusPipeline, DayOutput, PipelineConfig};
use laces_census::store::CensusStore;
use laces_netsim::World;

use crate::fingerprint::{fnv1a, Fingerprint};
use crate::replay::replay_day;
use crate::spans::{Spans, LANE_MEASURED};
use crate::{layer_table, measure_loop, median, Checker, Layers, Options, WorkloadRun};

/// The timed day (day 0 is set-up).
const DAY: u32 = 1;

/// Root span of one traced operation.
const ROOT: &str = "census-day.op";

/// A day as a checked operation: degraded on this fault-free config is a
/// failure; otherwise its deterministic counts and artifact hashes.
fn day_outcome(out: &DayOutput) -> Result<Fingerprint, String> {
    if out.degraded() {
        return Err(format!(
            "day {} degraded on a fault-free config: {:?}",
            out.census.day,
            out.telemetry().degraded_reasons()
        ));
    }
    let stats = &out.census.stats;
    let replies: u64 = stats
        .telemetry
        .counters
        .iter()
        .filter(|(k, _)| k.ends_with("fabric.replies_delivered") || k.ends_with("gcd.replies"))
        .map(|(_, v)| *v)
        .sum();
    let mut fp = Fingerprint::new();
    fp.insert("anycast_probes", stats.anycast_probes);
    fp.insert("gcd_probes", stats.gcd_probes);
    fp.insert("replies", replies);
    fp.insert("ats", stats.gcd_target_count as u64);
    fp.insert("published", out.census.records.len() as u64);
    fp.insert("h_day_jsonl", fnv1a(out.census.to_jsonl().as_bytes()));
    fp.insert("h_telemetry", fnv1a(stats.telemetry.to_jsonl().as_bytes()));
    fp.insert("h_gcd", fnv1a(format!("{:?}", out.gcd).as_bytes()));
    Ok(fp)
}

/// One untraced operation: `run_day` + `save` from the day-0 feedback
/// state. Returns the timed wall milliseconds and the checked outcome.
fn timed_day(
    pipeline: &mut CensusPipeline,
    feedback: &AtList,
    store: &CensusStore,
) -> (f64, Result<Fingerprint, String>) {
    pipeline.feedback = feedback.clone();
    let t = Instant::now();
    let out = pipeline.run_day(DAY).map_err(|e| e.to_string());
    let saved = match &out {
        Ok(o) => store.save(&o.census).map_err(|e| e.to_string()),
        Err(_) => Ok(()),
    };
    let ms = t.elapsed().as_secs_f64() * 1e3;
    (ms, out.and_then(|o| saved.and_then(|()| day_outcome(&o))))
}

pub(crate) fn run(
    opts: &Options,
    checker: &mut Checker,
    spans: &mut Spans,
) -> Result<WorkloadRun, String> {
    let store_dir = opts
        .out_dir
        .join(format!("store-census-day-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = CensusStore::open(&store_dir).map_err(|e| e.to_string())?;

    let t0 = Instant::now();
    let world = Arc::new(World::generate(opts.scale.world_config(opts.seed)));
    let generate_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut pipeline = CensusPipeline::new(Arc::clone(&world), PipelineConfig::standard(&world));
    let day0 = pipeline
        .run_day(0)
        .map_err(|e| format!("set-up run_day(0): {e}"))?;
    store.save(&day0.census).map_err(|e| e.to_string())?;
    drop(day0);
    let feedback = pipeline.feedback.clone();
    let setup_s = t0.elapsed().as_secs_f64();

    let mut layers = Vec::new();
    let mut traced_ms = Vec::new();
    let (op_ms, peak_rss_mb) = measure_loop(opts.seconds, || {
        let (ms, outcome) = timed_day(&mut pipeline, &feedback, &store);
        checker.check("day", outcome);
        if opts.trace {
            // A traced day follows each untraced one; its run_day + save
            // spans time the same calls the untraced day makes.
            pipeline.feedback = feedback.clone();
            let mut l = Layers::new();
            l.set("netsim.generate_ms", generate_ms);
            let root = spans.open(ROOT, None, LANE_MEASURED);
            let out = replay_day(
                &world,
                &mut pipeline,
                DAY,
                &store,
                spans,
                Some(root),
                &mut l,
            );
            spans.close(root);
            traced_ms.push(l.get("census.run_day.ms") + l.get("store.save.ms"));
            checker.check("day (traced)", out.and_then(|o| day_outcome(&o)));
            layers.push(l);
        }
        ms
    });
    let _ = std::fs::remove_dir_all(&store_dir);

    let mut table = String::new();
    if opts.trace {
        let overhead = median(&mut traced_ms) / median(&mut op_ms.clone()) - 1.0;
        for l in &mut layers {
            l.set("trace.overhead", overhead);
        }
        table = layer_table(spans, ROOT, "day_s", overhead);
    }
    Ok(WorkloadRun {
        setup_s,
        block_ends: (1..=op_ms.len()).collect(),
        op_ms,
        peak_rss_mb,
        layers,
        table,
        context: vec![
            ("timed_day", DAY.to_string()),
            ("targets", world.n_targets().to_string()),
        ],
    })
}
