//! Self-test of the benchmark at Tiny scale: every workload runs, emits
//! every metric `BENCHMARK.json` declares (with its unit and a valid
//! name), matches its committed fingerprint, fails on a tampered one, and
//! takes its inputs from the seed.

use std::path::PathBuf;

use censusbench::fingerprint::Expected;
use censusbench::{run, Options, RunResult, Scale, Workload, END_TO_END, PER_LAYER};
use serde::Value;

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{tag}"))
}

fn run_tiny(workload: Workload, seed: u64, trace: bool, expected: Expected) -> RunResult {
    let opts = Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
        out_dir: out_dir(&format!("{}-{seed}-{trace}", workload.name())),
        expected,
    };
    run(&opts).expect("tiny run completes")
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
    let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let str_of = |m: &Value, key: &str| match m.get(key) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("{list} entry {key}: {other:?}"),
    };
    v.get(list)
        .and_then(Value::as_arr)
        .expect("metric list present")
        .iter()
        .map(|m| (str_of(m, "name"), str_of(m, "unit")))
        .collect()
}

fn valid_name(n: &str) -> bool {
    n.len() <= 64
        && n.starts_with(|c: char| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn declared_metrics_match_the_code() {
    let pairs = |l: &[(&str, &str)]| -> Vec<(String, String)> {
        l.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), pairs(END_TO_END));
    assert_eq!(declared("per_layer"), pairs(PER_LAYER));
}

#[test]
fn every_workload_emits_every_metric_and_matches_its_fingerprint() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let r = run_tiny(workload, 0, trace, Expected::committed());
            assert!(
                r.correct(),
                "{} trace={trace}: {:?}",
                workload.name(),
                r.problems
            );
            let want = if trace { PER_LAYER } else { END_TO_END };
            let got: Vec<(&str, &str)> =
                r.metrics.iter().map(|(n, _, u)| (n.as_str(), *u)).collect();
            assert_eq!(got, want.to_vec(), "{} trace={trace}", workload.name());
            for (name, value, unit) in &r.metrics {
                assert!(valid_name(name), "bad metric name {name}");
                assert!(
                    !unit.is_empty() && value.is_finite(),
                    "{name} = {value} {unit}"
                );
            }
            if !trace {
                for (name, value, _) in &r.metrics {
                    assert!(*value > 0.0, "{} {name} is {value}", workload.name());
                }
            }

            // The result line is one JSON object with exactly four keys.
            let v: Value = serde_json::from_str(&r.json_line()).expect("result line parses");
            let keys: Vec<&str> = v
                .as_obj()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
    }
}

#[test]
fn tampered_expected_fingerprint_fails_the_run() {
    let mut expected = Expected::committed();
    assert!(
        expected.has("census-day", "tiny", 0),
        "expected.txt must commit the tiny default-seed fingerprint"
    );
    expected.set("census-day", "tiny", 0, "published", 1);
    let r = run_tiny(Workload::CensusDay, 0, false, expected);
    assert!(!r.correct());
    assert_eq!(r.failed, r.attempted, "every day must fail the check");
    assert!(r.problems[0].contains("published"), "{:?}", r.problems);
}

#[test]
fn seeds_change_inputs_and_a_seed_repeats_exactly() {
    for workload in Workload::ALL {
        let a = run_tiny(workload, 7, false, Expected::default());
        let b = run_tiny(workload, 7, false, Expected::default());
        let c = run_tiny(workload, 8, false, Expected::default());
        assert!(
            a.correct() && b.correct() && c.correct(),
            "{}",
            workload.name()
        );
        assert_eq!(
            a.fingerprint,
            b.fingerprint,
            "{}: same seed",
            workload.name()
        );
        assert_ne!(
            a.fingerprint,
            c.fingerprint,
            "{}: other seed",
            workload.name()
        );
    }
}
