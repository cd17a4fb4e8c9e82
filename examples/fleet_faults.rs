//! Chaos engineering for the fleet control plane: crash a replica mid-spike
//! and compare what each recovery policy salvages.
//!
//! The sweep runs the bursty autoscale demo trace three times over the same
//! three-replica fleet, injecting an identical fault script into each run —
//! a replica crash right as the spike's requests are in flight, then a
//! transient link degradation — and varies only the [`RecoveryPolicy`]:
//! fail-fast (in-flight requests on the dead replica are failed),
//! re-admission (they re-queue on survivors after a weight transfer priced
//! over the cluster topology), and re-admission plus commissioning a cold
//! replacement through the warm-up path. It prints the policy table, the
//! fault/recovery timeline of the re-admission run, SLO attainment before /
//! during / after the fault window, and writes `fleet_faults.json` — a
//! Chrome trace-event file whose instants mark every crash, degradation and
//! recovery (load it in `chrome://tracing` or <https://ui.perfetto.dev>).
//!
//! Run with `cargo run --release --example fleet_faults`.
//!
//! [`RecoveryPolicy`]: samoyeds::serve::RecoveryPolicy

use samoyeds::dist::FaultSweepReport;
use samoyeds::moe::config::MoeModelConfig;
use samoyeds::serve::SchedulerConfig;

fn main() {
    let model = MoeModelConfig::qwen2_moe();
    let report = FaultSweepReport::sweep(&model, &SchedulerConfig::default());

    for line in report.render_markdown() {
        println!("{line}");
    }

    let json = report.chrome_trace();
    let path = "fleet_faults.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!(
            "wrote {path} ({} bytes, {} events) — fault and recovery instants \
             included; load it in chrome://tracing or https://ui.perfetto.dev",
            json.len(),
            report.events.len()
        ),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
