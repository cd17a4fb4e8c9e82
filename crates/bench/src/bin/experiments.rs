//! Runs the paper-reproduction experiments and writes their reports to
//! `results/<id>.md`.
//!
//! Usage:
//! ```text
//! cargo run --release -p samoyeds-bench --bin experiments            # all
//! cargo run --release -p samoyeds-bench --bin experiments fig12_kernel_perf table3_max_batch
//! ```
//!
//! An unknown id fails the whole run before any experiment starts: the
//! binary exits 1 and lists the known ids.

use samoyeds_bench::EXPERIMENTS;
use std::fs;
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let unknown: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|arg| !EXPERIMENTS.iter().any(|(id, _)| id == arg))
        .collect();
    if !unknown.is_empty() {
        eprintln!("unknown experiment id: {}; known ids:", unknown.join(", "));
        for (id, _) in EXPERIMENTS {
            eprintln!("  {id}");
        }
        std::process::exit(1);
    }
    let out_dir = Path::new("results");
    fs::create_dir_all(out_dir).expect("create results directory");
    for (id, run) in EXPERIMENTS
        .iter()
        .filter(|(id, _)| args.is_empty() || args.iter().any(|a| a == id))
    {
        #[allow(
            clippy::disallowed_methods,
            reason = "progress timing for the console only; no result depends on it"
        )]
        let started = std::time::Instant::now();
        let report = run().join("\n");
        println!(
            "\n=== {id} ({:.1}s) ===\n{report}",
            started.elapsed().as_secs_f64()
        );
        fs::write(out_dir.join(format!("{id}.md")), report + "\n")
            .expect("write experiment report");
    }
}
