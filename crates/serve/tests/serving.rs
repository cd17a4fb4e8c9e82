//! Serving-simulator invariants: memory-budget safety, request conservation
//! and the Samoyeds-vs-Transformers serving ordering on a shared trace.

use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::engines::EngineKind;
use samoyeds_serve::{
    compare_engines, BatchLimits, Scheduler, SchedulerConfig, SimulationResult, TraceConfig,
};

fn small_trace() -> TraceConfig {
    TraceConfig {
        num_requests: 16,
        arrival_rate_rps: 8.0,
        prompt_len_range: (32, 128),
        output_len_range: (4, 16),
        seed: 7,
    }
}

/// One engine serving the small trace on an A100 with the default scheduler.
fn simulate(engine: EngineKind) -> SimulationResult {
    Scheduler::new(
        DeviceSpec::a100_40g(),
        MoeModelConfig::qwen2_moe(),
        engine,
        SchedulerConfig::default(),
    )
    .run(&small_trace().generate())
}

#[test]
fn scheduler_never_exceeds_the_memory_budget() {
    for engine in [EngineKind::Samoyeds, EngineKind::Transformers] {
        let result = simulate(engine);
        assert!(!result.steps.is_empty(), "{engine:?} executed no steps");
        for step in &result.steps {
            assert!(
                step.memory_bytes <= result.budget_bytes,
                "{engine:?}: step at {:.1}ms used {:.2} GiB of {:.2} GiB",
                step.start_ms,
                step.memory_bytes / (1 << 30) as f64,
                result.budget_bytes / (1 << 30) as f64,
            );
        }
        assert!(result.peak_memory_bytes <= result.budget_bytes);
    }
}

#[test]
fn requests_are_conserved() {
    let trace = small_trace().generate();
    let result = simulate(EngineKind::Samoyeds);
    // Every trace request is either completed or rejected once the run
    // drains; nothing is lost or duplicated.
    assert_eq!(result.completed.len() + result.rejected.len(), trace.len());
    assert_eq!(result.admitted, result.completed.len());
    let mut ids: Vec<u64> = result
        .completed
        .iter()
        .map(|c| c.request.id)
        .chain(result.rejected.iter().map(|r| r.id))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), trace.len());
    // Timing sanity: arrival <= admission <= first token <= completion.
    for c in &result.completed {
        assert!(c.admitted_ms >= c.request.arrival_ms);
        assert!(c.first_token_ms >= c.admitted_ms);
        assert!(c.finished_ms >= c.first_token_ms);
        assert!(c.latency_ms() > 0.0);
    }
}

#[test]
fn samoyeds_sustains_at_least_transformers_throughput_on_the_same_trace() {
    let metrics = compare_engines(
        &DeviceSpec::a100_40g(),
        &MoeModelConfig::qwen2_moe(),
        &small_trace(),
        &SchedulerConfig::default(),
        &[EngineKind::Samoyeds, EngineKind::Transformers],
    );
    let samoyeds = &metrics[0];
    let transformers = &metrics[1];
    assert!(samoyeds.servable && transformers.servable);
    assert_eq!(samoyeds.completed, transformers.completed);
    assert!(
        samoyeds.output_tokens_per_s >= transformers.output_tokens_per_s,
        "samoyeds {:.0} tok/s vs transformers {:.0} tok/s",
        samoyeds.output_tokens_per_s,
        transformers.output_tokens_per_s,
    );
    assert!(
        samoyeds.request_latency.p95_ms <= transformers.request_latency.p95_ms,
        "samoyeds p95 {:.0}ms vs transformers p95 {:.0}ms",
        samoyeds.request_latency.p95_ms,
        transformers.request_latency.p95_ms,
    );
}

#[test]
fn tighter_token_budgets_do_not_break_invariants() {
    let scheduler_config = SchedulerConfig {
        limits: BatchLimits {
            max_batched_tokens: 64,
            max_running: 4,
            prefill_chunk: 32,
        },
        ..SchedulerConfig::default()
    };
    let scheduler = Scheduler::new(
        DeviceSpec::a100_40g(),
        MoeModelConfig::qwen2_moe(),
        EngineKind::Samoyeds,
        scheduler_config,
    );
    let trace = small_trace().generate();
    let result = scheduler.run(&trace);
    assert_eq!(result.completed.len() + result.rejected.len(), trace.len());
    for step in &result.steps {
        assert!(step.prefill_tokens + step.decode_tokens <= 64);
        assert!(step.running <= 4);
        assert!(step.memory_bytes <= result.budget_bytes);
    }
    // Requests finish in nondecreasing completion-time order.
    for pair in result.completed.windows(2) {
        assert!(pair[0].finished_ms <= pair[1].finished_ms);
    }
}
