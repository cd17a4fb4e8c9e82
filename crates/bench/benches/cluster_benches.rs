//! Criterion benches over the cluster scheduler step loop: placement,
//! count-based dispatch and all-to-all accounting at increasing GPU counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use samoyeds_dist::{
    ClusterConfig, ClusterEngine, ClusterSimulator, ClusterTopology, LinkSpec, PlacementStrategy,
};
use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::router::TopKRouter;

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

criterion_group!(
    benches,
    bench_cluster_step,
    bench_placement_strategies,
    bench_hierarchical_step
);
criterion_main!(benches);
