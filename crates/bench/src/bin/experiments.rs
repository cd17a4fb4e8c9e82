//! Runs the paper-reproduction experiments and writes their reports to
//! `results/<id>.md`.
//!
//! Usage:
//! ```text
//! cargo run --release -p samoyeds-bench --bin experiments            # all
//! cargo run --release -p samoyeds-bench --bin experiments fig12_kernel_perf table3_max_batch
//! ```

use samoyeds_bench::{all_experiments, run_experiment};
use std::fs;
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected = all_experiments()
        .into_iter()
        .filter(|e| args.is_empty() || args.iter().any(|a| a == e.id()))
        .collect::<Vec<_>>();
    if selected.is_empty() {
        eprintln!("no experiment matched; known ids:");
        for e in all_experiments() {
            eprintln!("  {}", e.id());
        }
        std::process::exit(1);
    }
    let out_dir = Path::new("results");
    fs::create_dir_all(out_dir).expect("create results directory");
    for exp in selected {
        #[allow(
            clippy::disallowed_methods,
            reason = "progress timing for the console only; no result depends on it"
        )]
        let started = std::time::Instant::now();
        let rows = run_experiment(exp);
        let report = rows.join("\n");
        println!(
            "\n=== {} ({:.1}s) ===\n{report}",
            exp.id(),
            started.elapsed().as_secs_f64()
        );
        fs::write(out_dir.join(format!("{}.md", exp.id())), report + "\n")
            .expect("write experiment report");
    }
}
