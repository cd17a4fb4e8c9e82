//! Criterion benches over the cluster scheduler step loop: placement,
//! count-based dispatch and all-to-all accounting at increasing GPU counts,
//! plus the whole per-step price a serving pod pays,
//! `ClusterBackend::step_cost`, at increasing prefill sizes, and that
//! price's fixed part without the routing on a 512-token prefill.
//!
//! What each serving cell times:
//!
//! * `cluster_backend_step_cost/prefill_tokens/<n>` — one `step_cost`
//!   call at a fresh step index: routing to per-(expert, source rank)
//!   counts in one routing scratch kept across iterations, as a fleet
//!   keeps it, then placement, dispatch and pricing in the buffers the
//!   backend keeps from step to step, plus attention and the auxiliaries;
//! * `pod_fixed_cost/place_on/prefill_tokens_512` — one `place_on` call:
//!   the placement core in fresh buffers, two of which the returned
//!   placement keeps;
//! * `pod_fixed_cost/step_with_rank_loads/prefill_tokens_512` — a clone of
//!   the placement (the call takes it by value), the step core in fresh
//!   buffers, and the `ClusterStepReport` built around them.
//!
//! Both `pod_fixed_cost` cells go through public entry points that
//! allocate what the backend reuses, so they read above the backend's own
//! share of a step.

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
use std::cell::RefCell;

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

/// The prefill pod of fleetbench's `pods_disagg_faults` workload: 4 A100s
/// in 2×2 NVLink 3 islands over an InfiniBand NDR spine.
fn prefill_pod() -> ClusterConfig {
    let topology =
        ClusterTopology::symmetric(2, 2, LinkSpec::nvlink3(), LinkSpec::infiniband_ndr())
            .expect("valid layout");
    ClusterConfig::new(DeviceSpec::a100_40g(), 4, ClusterEngine::Samoyeds).with_topology(topology)
}

fn bench_cluster_backend_step_cost(c: &mut Criterion) {
    let backend = ClusterBackend::new(
        prefill_pod(),
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
                let route = RefCell::default();
                b.iter(|| {
                    step_index += 1;
                    backend.step_cost(&StepWorkload {
                        batch: &batch,
                        running: &running,
                        step_index,
                        route: &route,
                    })
                })
            },
        );
    }
    group.finish();
}

fn bench_pod_fixed_cost(c: &mut Criterion) {
    // What `ClusterBackend::step_cost` pays per 512-token prefill on the
    // prefill pod besides routing: the router's counts for a ring of step
    // seeds are drawn before timing.
    let sim = ClusterSimulator::new(prefill_pod(), MoeModelConfig::qwen2_moe());
    let seed = SchedulerConfig::default().routing_seed;
    let router = TopKRouter::for_config(sim.model(), seed);
    let (tokens, gpus) = (512usize, sim.cluster().num_gpus);
    // A lone fresh prefill holds no KV yet and puts a quarter of its
    // tokens on each GPU.
    let (kv_local, step_local) = (0, tokens.div_ceil(gpus));
    let steps: Vec<(Vec<usize>, Vec<usize>)> = (1..=64u64)
        .map(|step_index| {
            let rank_loads = router.route_loads_seeded(seed ^ step_index, tokens, gpus);
            let loads = rank_loads
                .chunks_exact(gpus)
                .map(|row| row.iter().sum())
                .collect();
            (rank_loads, loads)
        })
        .collect();
    let place = |loads: &[usize]| {
        sim.cluster()
            .strategy
            .place_on(loads, sim.topology(), sim.memory(), kv_local, step_local)
            .expect("the prefill pod places a 512-token step")
    };
    let mut group = c.benchmark_group("pod_fixed_cost");
    group.bench_function("place_on/prefill_tokens_512", |b| {
        let mut ring = steps.iter().cycle();
        b.iter(|| place(&ring.next().expect("a non-empty ring").1))
    });
    let placed: Vec<_> = steps
        .iter()
        .map(|(rank_loads, loads)| (rank_loads, place(loads)))
        .collect();
    group.bench_function("step_with_rank_loads/prefill_tokens_512", |b| {
        let mut ring = placed.iter().cycle();
        b.iter(|| {
            let (rank_loads, placement) = ring.next().expect("a non-empty ring");
            // The step takes its placement by value, so every iteration
            // also times a clone of it: two allocations.
            sim.step_with_rank_loads(tokens, rank_loads, placement.clone())
                .expect("the placement serves its own counts")
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cluster_step,
    bench_placement_strategies,
    bench_hierarchical_step,
    bench_cluster_backend_step_cost,
    bench_pod_fixed_cost
);
criterion_main!(benches);
