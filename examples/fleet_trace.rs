//! Observability for the fleet control plane: re-run the mixed-fleet
//! autoscale demo with a recording telemetry sink and look at everything the
//! sink saw.
//!
//! The run itself is bit-identical to the sink-free one (the root golden
//! harness `tests/goldens.rs` pins this); on top of it the example prints
//! the lifecycle counters from the metrics registry, the per-request latency
//! attribution table (queue wait / prefill / decode telescoping exactly to
//! end-to-end latency), a few control-tick snapshots, and writes
//! `fleet_trace.json` — a Chrome trace-event file with one track per replica
//! you can load in `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! Run with `cargo run --release --example fleet_trace`.

use samoyeds::dist::FleetTraceReport;
use samoyeds::moe::config::MoeModelConfig;
use samoyeds::serve::SchedulerConfig;

fn main() {
    let model = MoeModelConfig::qwen2_moe();
    let report = FleetTraceReport::demo(&model, &SchedulerConfig::default());

    for line in report.render_markdown() {
        println!("{line}");
    }

    println!("\nslowest requests by end-to-end latency:");
    let mut slowest = report.timelines.clone();
    slowest.sort_by(|a, b| b.latency_ms().total_cmp(&a.latency_ms()));
    for t in slowest.iter().take(5) {
        println!(
            "- request {:>3} on replica {} · queued {:>6.1} ms · prefill {:>6.1} ms · \
             decode {:>6.1} ms · {:>4} output tokens{}",
            t.id,
            t.replica,
            t.queue_ms(),
            t.prefill_ms(),
            t.decode_ms(),
            t.output_len,
            t.tpot_ms()
                .map_or_else(String::new, |ms| format!(" · {ms:.1} ms/token")),
        );
    }

    println!("\ncontrol-tick time series (every 5th tick):");
    for snap in report.registry.snapshots.iter().step_by(5) {
        println!(
            "- t={:>6.1} s · {} routable / {} warming · utilization {:>5.1}% · \
             {} queued · p95 TTFT {}",
            snap.at_ms / 1e3,
            snap.routable,
            snap.warming,
            snap.utilization * 100.0,
            snap.queued,
            snap.p95_ttft_ms
                .map_or_else(|| "n/a".to_string(), |ms| format!("{ms:.0} ms")),
        );
    }

    let json = report.chrome_trace();
    let path = "fleet_trace.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!(
            "\nwrote {path} ({} bytes, {} events) — load it in chrome://tracing \
             or https://ui.perfetto.dev",
            json.len(),
            report.events.len()
        ),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}
