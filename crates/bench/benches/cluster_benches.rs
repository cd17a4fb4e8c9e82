//! Criterion benches over the cluster scheduler step loop: placement,
//! count-based dispatch and all-to-all accounting at increasing GPU counts,
//! plus the whole per-step price a serving pod pays,
//! `ClusterBackend::step_cost` (routing to per-(expert, source rank)
//! counts, placement and the cluster step), at increasing prefill sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use samoyeds_dist::{
    ClusterBackend, ClusterConfig, ClusterEngine, ClusterSimulator, ClusterTopology, LinkSpec,
    PlacementStrategy,
};
use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::router::TopKRouter;
use samoyeds_serve::backend::StepWorkload;
use samoyeds_serve::batch::StepBatch;
use samoyeds_serve::{ExecutionBackend, Request, RunningRequest, SchedulerConfig};

fn bench_cluster_step(c: &mut Criterion) {
    let model = MoeModelConfig::qwen2_moe();
    let plan = TopKRouter::for_config(&model, 42).route(4096);
    let mut group = c.benchmark_group("cluster_step_qwen2_4096");
    for gpus in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("gpus", gpus), &gpus, |b, &g| {
            let sim = ClusterSimulator::new(
                ClusterConfig::new(DeviceSpec::a100_40g(), g, ClusterEngine::Samoyeds),
                model.clone(),
            );
            b.iter(|| sim.step(&plan).unwrap())
        });
    }
    group.finish();
}

fn bench_placement_strategies(c: &mut Criterion) {
    let model = MoeModelConfig::qwen2_moe();
    let plan = TopKRouter::for_config(&model, 9).with_skew(1.5).route(4096);
    let mut group = c.benchmark_group("cluster_placement_skewed");
    for strategy in [
        PlacementStrategy::RoundRobin,
        PlacementStrategy::CapacityGreedy,
        PlacementStrategy::ReplicateHot { hot: 2 },
    ] {
        group.bench_with_input(
            BenchmarkId::new("strategy", strategy.name()),
            &strategy,
            |b, &s| {
                let sim = ClusterSimulator::new(
                    ClusterConfig::new(DeviceSpec::a100_40g(), 8, ClusterEngine::Samoyeds)
                        .with_strategy(s),
                    model.clone(),
                );
                b.iter(|| sim.placement_for(&plan).unwrap())
            },
        );
    }
    group.finish();
}

fn bench_hierarchical_step(c: &mut Criterion) {
    let model = MoeModelConfig::qwen2_moe();
    let plan = TopKRouter::for_config(&model, 42)
        .with_skew(1.5)
        .route(4096);
    let mut group = c.benchmark_group("cluster_step_topologies");
    for (label, islands, per_island) in [("1x8", 1usize, 8usize), ("2x4", 2, 4), ("4x2", 4, 2)] {
        group.bench_with_input(BenchmarkId::new("layout", label), &label, |b, _| {
            let topology = ClusterTopology::symmetric(
                islands,
                per_island,
                LinkSpec::nvlink3(),
                LinkSpec::infiniband_ndr(),
            )
            .expect("valid layout");
            let sim = ClusterSimulator::new(
                ClusterConfig::new(DeviceSpec::a100_40g(), 8, ClusterEngine::Samoyeds)
                    .with_topology(topology),
                model.clone(),
            );
            b.iter(|| sim.step(&plan).unwrap())
        });
    }
    group.finish();
}

fn bench_cluster_backend_step_cost(c: &mut Criterion) {
    // The prefill pod of fleetbench's `pods_disagg_faults` workload: 4
    // A100s in 2×2 NVLink 3 islands over an InfiniBand NDR spine.
    let topology =
        ClusterTopology::symmetric(2, 2, LinkSpec::nvlink3(), LinkSpec::infiniband_ndr())
            .expect("valid layout");
    let backend = ClusterBackend::new(
        ClusterConfig::new(DeviceSpec::a100_40g(), 4, ClusterEngine::Samoyeds)
            .with_topology(topology),
        MoeModelConfig::qwen2_moe(),
        &SchedulerConfig::default(),
    );
    let mut group = c.benchmark_group("cluster_backend_step_cost");
    for tokens in [64usize, 512, 2048] {
        // One request prefilling its whole `tokens`-token prompt.
        let running = vec![RunningRequest::new(
            Request {
                id: 0,
                arrival_ms: 0.0,
                prompt_len: tokens,
                output_len: 16,
            },
            0.0,
        )];
        let batch = StepBatch {
            prefill: vec![(0, tokens)],
            decode: Vec::new(),
        };
        group.bench_with_input(
            BenchmarkId::new("prefill_tokens", tokens),
            &tokens,
            |b, _| {
                // A fresh routing seed every iteration, as in a serving run.
                let mut step_index = 0u64;
                b.iter(|| {
                    step_index += 1;
                    backend.step_cost(&StepWorkload {
                        batch: &batch,
                        running: &running,
                        step_index,
                    })
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cluster_step,
    bench_placement_strategies,
    bench_hierarchical_step,
    bench_cluster_backend_step_cost
);
criterion_main!(benches);
