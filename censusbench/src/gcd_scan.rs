//! `gcd-full-scan`: the bi-annual §5.1.1 GCD_Ark scan at paper scale —
//! `run_campaign` from all 227 `ark_dev` VPs, precheck on, over the full
//! v4 and then the full v6 hitlist. Only the GCD engine and the netsim
//! wire work here; the anycast orchestrator, classification and the store
//! are idle. Set-up (world and hitlists) runs [`SETUP_REPS`] times.

use std::net::IpAddr;
use std::sync::Arc;
use std::time::Instant;

use laces_gcd::engine::{run_campaign, GcdClass, GcdConfig, GcdReport};
use laces_netsim::World;

use crate::fingerprint::{Fingerprint, Fnv};
use crate::spans::{Spans, LANE_MEASURED};
use crate::{
    layer_table, measure_loop, median, rate, ratio, Checker, Layers, Options, WorkloadRun,
};

/// Root span of one traced operation.
const ROOT: &str = "gcd-full-scan.op";

/// Measurement ids of the v4 and v6 campaigns (those `laces-bench` uses
/// for its GCD_Ark reference scan).
const ID_V4: u32 = 20_000;
const ID_V6: u32 = 20_001;

/// Set-ups per run; `setup_s` is their median and the last one's world
/// and hitlists are measured. A single five-second set-up swung by a
/// third between runs on a shared host.
const SETUP_REPS: usize = 3;

/// One set-up: the world and its full v4 and v6 hitlists. Pushes
/// `[setup_s, generate_ms, hitlist_ms]` onto `times`.
fn set_up(opts: &Options, times: &mut Vec<[f64; 3]>) -> (Arc<World>, Vec<IpAddr>, Vec<IpAddr>) {
    let t0 = Instant::now();
    let world = Arc::new(World::generate(opts.scale.world_config(opts.seed)));
    let generate_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let v4 = laces_hitlist::build_v4(&world).addresses();
    let v6 = laces_hitlist::build_v6(&world).addresses();
    let hitlist_ms = t.elapsed().as_secs_f64() * 1e3;
    times.push([t0.elapsed().as_secs_f64(), generate_ms, hitlist_ms]);
    (world, v4, v6)
}

fn scan(world: &Arc<World>, targets: &[IpAddr], id: u32) -> Result<GcdReport, String> {
    let mut cfg = GcdConfig::daily(id, 0);
    cfg.precheck = true;
    run_campaign(world, world.std_platforms.ark_dev, targets, &cfg).map_err(|e| e.to_string())
}

/// The deterministic counts and result hashes of a v4 + v6 scan.
fn scan_outcome(reports: &[Result<GcdReport, String>]) -> Result<Fingerprint, String> {
    let mut fp = Fingerprint::new();
    let (mut results, mut telemetry) = (Fnv::default(), Fnv::default());
    let (mut probes, mut replies, mut anycast) = (0, 0, 0);
    for r in reports {
        let r = r.as_ref().map_err(Clone::clone)?;
        if r.telemetry.is_degraded() {
            return Err(format!(
                "campaign degraded on a fault-free config: {:?}",
                r.telemetry.degraded_reasons()
            ));
        }
        probes += r.probes_sent;
        replies += r.telemetry.counter("gcd.replies");
        for (p, g) in &r.results {
            anycast += u64::from(g.class == GcdClass::Anycast);
            results.add(format!("{p:?} {g:?}").as_bytes());
        }
        telemetry.add(r.telemetry.to_jsonl().as_bytes());
    }
    fp.insert("gcd_probes", probes);
    fp.insert("replies", replies);
    fp.insert("anycast", anycast);
    fp.insert("h_gcd", results.finish());
    fp.insert("h_telemetry", telemetry.finish());
    Ok(fp)
}

pub(crate) fn run(
    opts: &Options,
    checker: &mut Checker,
    spans: &mut Spans,
) -> Result<WorkloadRun, String> {
    let mut times = Vec::new();
    let (mut world, mut v4, mut v6) = set_up(opts, &mut times);
    for _ in 1..SETUP_REPS {
        // Free the kept world first, so the process never holds two.
        drop((world, v4, v6));
        (world, v4, v6) = set_up(opts, &mut times);
    }
    let med = |i: usize| median(&mut times.iter().map(|t| t[i]).collect::<Vec<_>>());
    let (setup_s, generate_ms, hitlist_ms) = (med(0), med(1), med(2));

    let mut layers = Vec::new();
    let mut traced_ms = Vec::new();
    let (op_ms, peak_rss_mb) = measure_loop(opts.seconds, || {
        let t = Instant::now();
        let reports = [scan(&world, &v4, ID_V4), scan(&world, &v6, ID_V6)];
        let ms = t.elapsed().as_secs_f64() * 1e3;
        checker.check("scan", scan_outcome(&reports));
        drop(reports);
        if opts.trace {
            let root = spans.open(ROOT, None, LANE_MEASURED);
            let (r4, s4) = spans.time("gcd.scan_v4", Some(root), LANE_MEASURED, || {
                scan(&world, &v4, ID_V4)
            });
            let (r6, s6) = spans.time("gcd.scan_v6", Some(root), LANE_MEASURED, || {
                scan(&world, &v6, ID_V6)
            });
            spans.close(root);
            let (ms4, ms6) = (spans.ms(s4), spans.ms(s6));
            traced_ms.push(ms4 + ms6);
            let mut l = Layers::new();
            l.set("netsim.generate_ms", generate_ms);
            l.set("hitlist.build_ms", hitlist_ms);
            l.set("hitlist.targets", (v4.len() + v6.len()) as f64);
            l.set("gcd.scan_v4.ms", ms4);
            l.set("gcd.scan_v6.ms", ms6);
            l.set("gcd.campaign.ms", ms4 + ms6);
            let (mut probes, mut replies, mut overlap) = (0, 0, 0);
            for r in [&r4, &r6].into_iter().flatten() {
                probes += r.probes_sent;
                replies += r.telemetry.counter("gcd.replies");
                overlap += r.telemetry.counter("gcd.enumeration.overlap_tests");
            }
            l.set("gcd.probes_sent", probes as f64);
            l.set("gcd.replies", replies as f64);
            l.set("gcd.overlap_tests", overlap as f64);
            l.set("gcd.probes_per_s", rate(probes as f64, ms4 + ms6));
            l.set("gcd.reply_ratio", ratio(replies as f64, probes as f64));
            l.set(
                "trace.coverage",
                ratio(spans.children_ms(root), spans.ms(root)),
            );
            layers.push(l);
            checker.check("scan (traced)", scan_outcome(&[r4, r6]));
        }
        ms
    });

    let mut table = String::new();
    if opts.trace {
        let overhead = median(&mut traced_ms) / median(&mut op_ms.clone()) - 1.0;
        for l in &mut layers {
            l.set("trace.overhead", overhead);
        }
        table = layer_table(spans, ROOT, "scan_s", overhead);
    }
    Ok(WorkloadRun {
        setup_s,
        block_ends: (1..=op_ms.len()).collect(),
        op_ms,
        peak_rss_mb,
        layers,
        table,
        context: vec![
            (
                "gcd_vps",
                world
                    .platform(world.std_platforms.ark_dev)
                    .n_vps()
                    .to_string(),
            ),
            ("targets_v4", v4.len().to_string()),
            ("targets_v6", v6.len().to_string()),
            (
                "setup_s_each",
                times
                    .iter()
                    .map(|t| format!("{:.3}", t[0]))
                    .collect::<Vec<_>>()
                    .join(" "),
            ),
        ],
    })
}
