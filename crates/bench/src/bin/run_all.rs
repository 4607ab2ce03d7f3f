//! Run the full experiment suite and write `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run --release -p laces-bench --bin run_all [-- tiny|mid|paper] [--out PATH]
//! ```

use std::fmt::Write as _;

use laces_bench::{all_experiments, Artifacts, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_env_or_args(&args);
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "EXPERIMENTS.md".to_string());

    let artifacts = Artifacts::new(scale);
    let suite_start = std::time::Instant::now();

    let mut md = String::new();
    let _ = writeln!(md, "# LACeS — Experiment Results\n");
    let _ = writeln!(
        md,
        "Generated by `cargo run --release -p laces-bench --bin run_all` at scale `{scale:?}`."
    );
    let _ = writeln!(
        md,
        "World: {} targets, {} ASes, {} deployments, seed {:#x}.\n",
        artifacts.world.n_targets(),
        artifacts.world.topo.len(),
        artifacts.world.deployments.len(),
        artifacts.world.cfg.seed
    );
    let _ = writeln!(
        md,
        "Absolute numbers are expected to match the paper only for the anycast-side\n\
         populations (kept at paper scale); unicast-mass-dependent columns scale with\n\
         the configured hitlist size — see DESIGN.md §4. The *shape* claims noted under\n\
         each artifact are the reproduction targets.\n"
    );

    for (id, title, f) in all_experiments() {
        eprintln!("\n========== {id}: {title} ==========");
        let t0 = std::time::Instant::now();
        let report = f(&artifacts);
        let dt = t0.elapsed();
        eprintln!("{}", report.body);
        eprintln!("[{id}] done in {dt:.1?}");
        md.push_str(&report.to_markdown());
        let _ = writeln!(md, "_Runtime: {dt:.1?}._\n");
    }

    let _ = writeln!(
        md,
        "---\nTotal suite runtime: {:.1?}.",
        suite_start.elapsed()
    );
    std::fs::write(&out_path, &md).expect("write experiments file");
    eprintln!(
        "\nwrote {out_path} ({} bytes) in {:.1?}",
        md.len(),
        suite_start.elapsed()
    );
}
