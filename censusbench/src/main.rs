//! Command line of the census benchmark.
//!
//! ```text
//! censusbench --workload <census-day|gcd-full-scan|archive-read|all>
//!             [--seed N] [--seconds S] [--trace 0|1] [--scale tiny|mid|paper]
//!             [--out DIR]
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}`. `--workload all` runs
//! each workload in a fresh process of its own and prints the end-to-end
//! metrics under their per-workload names (`day_s`, `scan_s`,
//! `query_mean_us`, ...).

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use censusbench::fingerprint::{render, value_str, Expected};
use censusbench::{run, Options, Scale, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Option<Scale>,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 30.0,
        trace: false,
        scale: None,
        out: PathBuf::from(".bench_out"),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"want 0 or 1")),
                }
            }
            "--scale" => a.scale = Some(Scale::parse(value).ok_or_else(|| bad(&"unknown scale"))?),
            "--out" => a.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(a.seconds.is_finite() && a.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("censusbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!(
            "censusbench: --workload must be one of census-day, gcd-full-scan, archive-read, all"
        );
        return ExitCode::from(2);
    };
    let opts = Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: args.scale.unwrap_or(workload.default_scale()),
        out_dir: args.out.clone(),
        expected: Expected::committed(),
    };
    let result = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("censusbench: {} failed: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };

    let mut text = String::new();
    for (k, v) in &result.context {
        text.push_str(&format!("# {k} = {v}\n"));
    }
    text.push_str(&format!("# fingerprint: {}\n", render(&result.fingerprint)));
    for p in &result.problems {
        text.push_str(&format!("# FAILED {p}\n"));
    }
    text.push_str(&result.report);
    for (name, value, unit) in &result.metrics {
        text.push_str(&format!("{name:<32} {value:>16.6} {unit}\n"));
    }
    text.push_str(&format!(
        "error_rate = {}/{}\n",
        result.failed, result.attempted
    ));
    let stem = format!(
        "{}-seed{}-trace{}",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let _ = std::fs::write(args.out.join(format!("{stem}.txt")), &text);
    if let Some(spans) = &result.spans {
        let _ = std::fs::write(
            args.out.join(format!("{stem}.trace.json")),
            spans.to_chrome_json(workload.name()),
        );
    }
    // The committed-fingerprint lines for this run, in expected.txt form.
    for (k, v) in &result.fingerprint {
        eprintln!(
            "expected: {} {} {} {k} {}",
            workload.name(),
            opts.scale.name(),
            opts.seed,
            value_str(k, *v)
        );
    }
    print!("{text}");
    println!("{}", result.json_line());
    ExitCode::SUCCESS
}

/// The value of metric `name` in a result line.
fn metric(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    line.find(&key)
        .map(|i| &line[i + key.len()..])
        .and_then(|rest| rest.split(',').next())
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(f64::NAN)
}

/// The integer field `name` of a result line.
fn field(line: &str, name: &str) -> u64 {
    let key = format!("\"{name}\": ");
    line.find(&key)
        .map(|i| &line[i + key.len()..])
        .and_then(|rest| rest.split(',').next())
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Run every workload, each in a fresh process (so each peak RSS is its
/// own), and print the end-to-end metrics under per-workload names.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("censusbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut rows: Vec<(String, f64, &str)> = Vec::new();
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out)
            .stdout(Stdio::piped());
        if let Some(s) = args.scale {
            cmd.args(["--scale", s.name()]);
        }
        let out = match cmd.output() {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprintln!("censusbench: {} exited with {}", w.name(), o.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("censusbench: cannot run {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        println!("== {}", w.name());
        print!("{stdout}");
        let line = stdout.lines().last().unwrap_or_default();
        attempted += field(line, "attempted");
        failed += field(line, "failed");
        correct &= line.contains("\"correct\": true");
        if args.trace {
            continue;
        }
        let mean = metric(line, "op_mean_ms");
        match w {
            Workload::CensusDay => rows.push(("day_s".into(), mean / 1e3, "s")),
            Workload::GcdFullScan => rows.push(("scan_s".into(), mean / 1e3, "s")),
            Workload::ArchiveRead => {
                rows.push(("query_mean_us".into(), mean * 1e3, "us"));
                rows.push(("query_p99_us".into(), metric(line, "op_p99_ms") * 1e3, "us"));
                rows.push(("queries_per_s".into(), metric(line, "ops_per_s"), "1/s"));
            }
        }
        rows.push((
            format!("setup_s.{}", w.name()),
            metric(line, "setup_s"),
            "s",
        ));
        rows.push((
            format!("peak_rss_mb.{}", w.name()),
            metric(line, "peak_rss_mb"),
            "MB",
        ));
    }
    rows.push((
        "error_rate".into(),
        failed as f64 / (attempted.max(1)) as f64,
        "ratio",
    ));
    println!("== all");
    for (name, value, unit) in &rows {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    let metrics: Vec<String> = rows
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        correct && failed == 0,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
