//! `fleetbench` — host cost of the fleet simulator.
//!
//! ```sh
//! cargo run --release --offline --manifest-path fleetbench/Cargo.toml -- \
//!     --workload fleet_poisson --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--workload` takes a workload name or `all`. With `--trace 0` the
//! end-to-end metrics are measured with tracing off; with `--trace 1` untraced
//! and traced runs alternate and the per-layer metrics are reported, with the
//! last traced run's spans written under `fleetbench/out/`. The last line of
//! standard output is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. The exit code is non-zero when any output check fails.

use fleetbench::measure::{measure, Metric, Outcome};
use fleetbench::stats::median;
use fleetbench::workloads::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: fleetbench --workload <fleet_poisson|fleet_decode_autoscale|pods_disagg_faults|all> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?]
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

fn print_outcome(outcome: &Outcome, seed: u64, trace: bool) {
    println!(
        "# {} seed {seed} ({}): {} runs, {} failed",
        outcome.workload.name(),
        if trace { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failed
    );
    for problem in &outcome.problems {
        println!("FAILED: {problem}");
    }
    let times = &outcome.run_times;
    if !times.is_empty() {
        let max = times.iter().copied().fold(0.0, f64::max);
        println!(
            "untraced run_s over {} repetitions: median {:.6} s, max {max:.6} s",
            times.len(),
            median(times)
        );
    }
    for m in &outcome.metrics {
        println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(sim) = &outcome.sim {
        let o = &sim.outputs;
        let rows: [(&str, String); 14] = [
            ("sim.offered", o.offered.to_string()),
            ("sim.completed", o.completed.to_string()),
            ("sim.rejected", o.rejected.to_string()),
            ("sim.failed", o.failed.to_string()),
            ("sim.makespan_ms", format!("{:?}", o.makespan_ms)),
            ("sim.ttft_p50_ms", format!("{:?}", o.ttft_p50_ms)),
            ("sim.ttft_p99_ms", format!("{:?}", o.ttft_p99_ms)),
            ("sim.tpot_p50_ms", format!("{:?}", o.tpot_p50_ms)),
            (
                "sim.output_tokens_per_s",
                format!("{:?}", o.output_tokens_per_s),
            ),
            ("sim.steps", sim.steps.to_string()),
            ("sim.kv_transfers", sim.kv_transfers.to_string()),
            ("sim.faults", o.faults.to_string()),
            (
                "sim.scale_outs_ins",
                format!("{}/{}", o.scale_outs, o.scale_ins),
            ),
            ("sim.metrics_digest", format!("{:016x}", o.digest)),
        ];
        for (name, value) in rows {
            println!("{name:<44} {value}");
        }
    }
}

fn json_metrics(metrics: &[(String, &Metric)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let single = args.workloads.len() == 1;
    let outcomes: Vec<Outcome> = args
        .workloads
        .iter()
        .map(|&w| {
            let spans = args
                .trace
                .then(|| out_dir.join(format!("spans-{}.tsv", w.name())));
            let outcome = measure(w, args.seed, args.seconds, args.trace, spans.as_deref());
            print_outcome(&outcome, args.seed, args.trace);
            outcome
        })
        .collect();

    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    // One workload reports its metrics by name; `all` prefixes each with its
    // workload.
    let metrics: Vec<(String, &Metric)> = outcomes
        .iter()
        .flat_map(|o| {
            o.metrics.iter().map(move |m| {
                let name = if single {
                    m.name.clone()
                } else {
                    format!("{}/{}", o.workload.name(), m.name)
                };
                (name, m)
            })
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        json_metrics(&metrics)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
