//! Cluster-aware continuous batching: the serving scheduler drives a whole
//! expert-parallel pod through the `ExecutionBackend` trait. One shared
//! Poisson request trace is served on 1/2/4/8-GPU pods over NVLink and PCIe
//! fabrics under dense, VENOM and Samoyeds weights; admission control runs
//! against the straggler GPU's memory budget and every step pays the
//! dispatch/combine all-to-all collectives.
//!
//! Run with `cargo run --release --example cluster_serving [model]` where
//! `model` is one of `qwen2` (default), `deepseek`, `mixtral`.

use samoyeds::dist::{ClusterBackend, ClusterConfig, ClusterEngine, ClusterServingReport};
use samoyeds::gpu_sim::DeviceSpec;
use samoyeds::moe::config::MoeModelConfig;
use samoyeds::serve::{ExecutionBackend, Scheduler, SchedulerConfig, TraceConfig};

fn main() {
    let model = match std::env::args().nth(1).as_deref() {
        Some("deepseek") => MoeModelConfig::deepseek_moe(),
        Some("mixtral") => MoeModelConfig::mixtral_8x7b(),
        _ => MoeModelConfig::qwen2_moe(),
    };
    let trace = TraceConfig {
        num_requests: 24,
        arrival_rate_rps: 8.0,
        prompt_len_range: (64, 256),
        output_len_range: (8, 32),
        seed: 42,
    };
    let scfg = SchedulerConfig::default();

    // The full sweep: fabrics x engines x pod sizes, one shared trace,
    // closed by the cell where compression turns a rejected trace into a
    // served one.
    for line in ClusterServingReport::sweep(&model, &trace, &scfg).render_markdown() {
        println!("{line}");
    }
    println!();

    // One pod in detail, driven through the same generic scheduler that
    // serves a single GPU.
    let backend = ClusterBackend::new(
        ClusterConfig::new(DeviceSpec::a100_40g(), 4, ClusterEngine::Samoyeds),
        model.clone(),
        &scfg,
    );
    println!("backend: {}", backend.describe());
    let result = Scheduler::from_backend(backend, scfg).run(&trace.generate());
    let step_ms: f64 = result.steps.iter().map(|s| s.time_ms).sum();
    println!(
        "served {} requests in {:.0} ms across {} steps; {:.1}% of step time in all-to-all",
        result.completed.len(),
        result.makespan_ms,
        result.steps.len(),
        if step_ms > 0.0 {
            result.collective_ms() / step_ms * 100.0
        } else {
            0.0
        },
    );
}
