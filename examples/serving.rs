//! Continuous-batching serving walkthrough: every execution engine serves
//! the same Poisson request trace through the continuous-batching scheduler,
//! and the report compares throughput (tokens/s) and request-latency
//! percentiles (p50/p95/p99) per engine.
//!
//! Run with `cargo run --release --example serving [model]` where `model` is
//! one of `qwen2` (default), `deepseek`, `minicpm`.

use samoyeds::gpu_sim::DeviceSpec;
use samoyeds::moe::config::MoeModelConfig;
use samoyeds::moe::engines::EngineKind;
use samoyeds::serve::{
    compare_engines, render_markdown, ExecutionBackend, SchedulerConfig, SingleGpuBackend,
    TraceConfig,
};

fn main() {
    let model = match std::env::args().nth(1).as_deref() {
        Some("deepseek") => MoeModelConfig::deepseek_moe(),
        Some("minicpm") => MoeModelConfig::minicpm_moe(),
        _ => MoeModelConfig::qwen2_moe(),
    };
    let trace = TraceConfig {
        num_requests: 64,
        arrival_rate_rps: 8.0,
        prompt_len_range: (64, 512),
        output_len_range: (16, 64),
        seed: 42,
    };
    println!(
        "trace: {} requests, ~{} req/s, prompts {}..={} tokens, outputs {}..={} tokens\n",
        trace.num_requests,
        trace.arrival_rate_rps,
        trace.prompt_len_range.0,
        trace.prompt_len_range.1,
        trace.output_len_range.0,
        trace.output_len_range.1,
    );

    // On the A100-40G every engine holds the full model, so the comparison
    // isolates execution speed under continuous batching.
    let engines = EngineKind::all();
    let scfg = SchedulerConfig::default();
    for device in [DeviceSpec::a100_40g(), DeviceSpec::rtx4070_super()] {
        // Every engine here is a SingleGpuBackend behind the scheduler's
        // ExecutionBackend trait; swap in dist::ClusterBackend for a pod.
        let backend = SingleGpuBackend::new(device.clone(), &model, EngineKind::Samoyeds, &scfg);
        println!("backend: {}", backend.describe());
        let metrics = compare_engines(&device, &model, &trace, &scfg, &engines);
        for line in render_markdown(&model.name, &device.name, &metrics) {
            println!("{line}");
        }

        let by_kind = |k: EngineKind| metrics.iter().find(|m| m.engine == k).unwrap();
        let samoyeds = by_kind(EngineKind::Samoyeds);
        let transformers = by_kind(EngineKind::Transformers);
        if samoyeds.servable && transformers.servable {
            println!(
                "-> Samoyeds vs Transformers: {:.2}x throughput, {:.2}x lower p95 latency\n",
                samoyeds.output_tokens_per_s / transformers.output_tokens_per_s,
                transformers.request_latency.p95_ms / samoyeds.request_latency.p95_ms,
            );
        } else if samoyeds.servable {
            println!(
                "-> only Samoyeds holds the full model in {} GiB; dense engines OOM\n",
                device.mem_capacity_gib,
            );
        }
    }
}
