//! Prefill/decode disaggregation with topology-priced KV-cache handoffs.
//!
//! The sweep serves the bursty autoscale demo trace with a four-pod fleet
//! split into prefill pods (A100 singles) and decode pods (RTX 4070 Super
//! singles), pods pinned to the GPUs of a 2×2 two-island topology. Requests
//! prefill on one side, then their prompt KV cache is handed off to the
//! decode pod with the most free KV budget — a transfer priced by the link
//! the pair actually shares: NVLink 3 inside an island, the InfiniBand NDR
//! spine across. The prefill:decode split sweeps 1:3 / 2:2 / 3:1 under
//! dense, VENOM and Samoyeds weights.
//!
//! The dense cells demonstrate the paper's memory lever: Qwen2-MoE's bf16
//! weights do not fit a 12 GiB decode pod, so dense serving cannot
//! disaggregate on this hardware at all — every dense split is rejected by
//! validation — while the compressed representations fit with KV headroom
//! to spare. The example prints the cell table, the best-split contrast,
//! and writes `fleet_disagg.json` — a Chrome trace-event file whose
//! instants mark every KV handoff start and landing (load it in
//! `chrome://tracing` or <https://ui.perfetto.dev>).
//!
//! Run with `cargo run --release --example fleet_disagg`.

use samoyeds::dist::DisaggSweepReport;
use samoyeds::moe::config::MoeModelConfig;
use samoyeds::serve::SchedulerConfig;

fn main() {
    let model = MoeModelConfig::qwen2_moe();
    let report = DisaggSweepReport::sweep(&model, &SchedulerConfig::default());

    for line in report.render_markdown() {
        println!("{line}");
    }

    let json = report.chrome_trace();
    let path = "fleet_disagg.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!(
            "wrote {path} ({} bytes, {} events) — KV handoff instants included; \
             load it in chrome://tracing or https://ui.perfetto.dev",
            json.len(),
            report.events.len()
        ),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
