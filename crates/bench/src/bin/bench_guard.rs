//! CI perf gate: compare freshly generated `BENCH_*.json` runs against the
//! committed baseline and exit non-zero if any matched benchmark regressed
//! past the allowed ratio.
//!
//! ```text
//! bench_guard --current <fresh.json> [--current <fresh.json> ...] \
//!             --baseline <committed.json> \
//!             [--key <name-substring>] [--max-ratio 1.2]
//! ```
//!
//! Given several `--current` runs, the gate reads each cell's fastest
//! timing among them, so one run slowed by a busy machine does not fail it.
//! `--key` restricts the gate to benches whose full name contains the given
//! substring (default: all benches present in both files). The gate also
//! fails if `--key` matches nothing in the current run — a silently missing
//! headline cell must not pass CI — and warns (both directions) about cells
//! present on only one side, which the ratio gate cannot compare.

use samoyeds_bench::perf::{fastest, missing_cells, parse_bench_json, regressions};
use std::process::ExitCode;

struct Args {
    current: Vec<String>,
    baseline: String,
    key: String,
    max_ratio: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut current = Vec::new();
    let mut baseline = None;
    let mut key = String::new();
    let mut max_ratio = 1.2;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--current" => current.push(value("--current")?),
            "--baseline" => baseline = Some(value("--baseline")?),
            "--key" => key = value("--key")?,
            "--max-ratio" => {
                max_ratio = value("--max-ratio")?
                    .parse()
                    .map_err(|e| format!("--max-ratio: {e}"))?
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if current.is_empty() {
        return Err("--current <path> is required".to_string());
    }
    Ok(Args {
        current,
        baseline: baseline.ok_or("--baseline <path> is required")?,
        key,
        max_ratio,
    })
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))
    };
    let runs = args
        .current
        .iter()
        .map(|path| read(path).map(|doc| parse_bench_json(&doc)))
        .collect::<Result<Vec<_>, _>>()?;
    let current = fastest(&runs);
    let current_label = args.current.join(", ");
    let baseline = parse_bench_json(&read(&args.baseline)?);

    let matched: Vec<&String> = current
        .keys()
        .filter(|name| name.contains(&args.key))
        .collect();
    if matched.is_empty() {
        return Err(format!(
            "no benchmark in {current_label} matches key {:?}",
            args.key
        ));
    }
    println!(
        "bench_guard: {} bench(es) match key {:?}; fastest of {} run(s); gate ratio {:.2}",
        matched.len(),
        args.key,
        runs.len(),
        args.max_ratio
    );
    for name in &matched {
        match baseline.get(*name) {
            Some(base) => println!(
                "  {name}: {:.3} ms vs baseline {:.3} ms ({:.2}x)",
                current[*name] / 1e6,
                base / 1e6,
                current[*name] / base
            ),
            None => println!(
                "  {name}: {:.3} ms (no baseline — skipped)",
                current[*name] / 1e6
            ),
        }
    }

    // Cells the ratio gate cannot see: new benches with no baseline, and
    // baseline cells the current run no longer produces (a renamed or
    // dropped headline cell would otherwise pass CI silently forever).
    for name in missing_cells(&current, &baseline, &args.key) {
        eprintln!("WARNING {name}: in current run but not in baseline — ungated until the baseline is regenerated");
    }
    for name in missing_cells(&baseline, &current, &args.key) {
        eprintln!(
            "WARNING {name}: in baseline but missing from current run — its gate no longer runs"
        );
    }

    let hits = regressions(&current, &baseline, &args.key, args.max_ratio);
    for r in &hits {
        eprintln!(
            "REGRESSION {}: {:.3} ms vs baseline {:.3} ms ({:.2}x > {:.2}x)",
            r.name,
            r.current_ns / 1e6,
            r.baseline_ns / 1e6,
            r.ratio,
            args.max_ratio
        );
    }
    Ok(hits.is_empty())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => {
            println!("bench_guard: OK");
            ExitCode::SUCCESS
        }
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("bench_guard: {msg}");
            ExitCode::FAILURE
        }
    }
}
