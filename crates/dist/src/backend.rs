//! The cluster execution backend: expert-parallel serving behind the
//! `samoyeds-serve` [`ExecutionBackend`] trait.
//!
//! This is the piece that turns the PR-2 cluster simulator from a
//! standalone step-pricing tool into a *serving* substrate: the
//! continuous-batching scheduler drives a whole expert-parallel pod exactly
//! the way it drives one GPU. Two things change relative to
//! [`SingleGpuBackend`](samoyeds_serve::SingleGpuBackend):
//!
//! * **Step cost** — each step routes its batch to token counts per
//!   (expert, source rank), never to a full routing plan: the kernels
//!   price an expert by its token count alone, and dispatch needs only how
//!   many of each expert's tokens start on each rank. It then places the
//!   experts for those counts, dispatches each expert's tokens to its
//!   replicas across the pod and pays the *straggler* GPU's MoE compute
//!   plus the α-β dispatch/combine collectives per layer. The three stages
//!   are the same cores the public entry points run
//!   (`TopKRouter::route_loads_seeded`, `PlacementStrategy::place_on`,
//!   `ClusterSimulator::step_with_rank_loads`), writing into buffers the
//!   backend keeps from step to step, so a step allocates nothing and
//!   builds no report.
//!   Attention and the norm/router auxiliaries are data-parallel across
//!   the pod (each rank hosts its share of the batch), so they divide by
//!   the GPU count.
//! * **Admission** — the budget is the straggler GPU under a balanced
//!   placement: `ceil(E/g)` routed experts (plus any replicated hot
//!   experts), a `ceil/g` share of the KV cache and of the step's
//!   activation workspace, against *per-GPU* usable memory. A model whose
//!   dense weights overflow every rank rejects the whole trace; the
//!   compressed formats admit it — the fleet-sizing lever, now visible as
//!   served-vs-rejected traces rather than a static table.

use crate::cluster::{ClusterConfig, ClusterSimulator, StepScratch};
use crate::placement::{PlacementScratch, PlacementStrategy};
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::engines::EngineKind;
use samoyeds_moe::router::{RouteScratch, TopKRouter};
use samoyeds_serve::backend::{
    auxiliary_step_ms, ExecutionBackend, MemoryBudget, OverlapModel, ScratchLock, StepAttention,
    StepCost, StepWorkload,
};
use samoyeds_serve::SchedulerConfig;

/// An expert-parallel cluster as a serving execution backend.
///
/// The backend is its own admission budget ([`MemoryBudget`]): the
/// footprint is the straggler GPU's under the simulator's per-GPU
/// [`ClusterMemoryModel`](crate::ClusterMemoryModel), the rank holding the
/// strategy's largest expert share, with the ceiling share of the KV cache
/// and of the step's workspace. Every executed step re-validates its
/// placement against the same KV-aware residency, and a round-robin
/// placement (balanced `ceil(E/g)` expert counts) always fits once
/// admission has passed, so an admitted trace never strands a step.
#[derive(Debug, Clone)]
pub struct ClusterBackend {
    sim: ClusterSimulator,
    /// Routed experts resident on the straggler GPU.
    straggler_experts: usize,
    router: TopKRouter,
    attention: StepAttention,
    routing_seed: u64,
    step_overhead_ms: f64,
    scratch: ScratchLock<PodScratch>,
}

/// The buffers one pod step fills and the next reuses: the router's counts,
/// their per-expert sums, the placement and the dispatch. Every step
/// overwrites whatever it reads, so nothing carries from one step to the
/// next but the allocations.
#[derive(Debug, Default)]
struct PodScratch {
    route: RouteScratch,
    loads: Vec<usize>,
    place: PlacementScratch,
    step: StepScratch,
}

const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<ClusterBackend>();
};

impl ClusterBackend {
    /// Build the backend for one (cluster, model) pair, taking the
    /// cost-model knobs (attention kind, routing seed, step overhead) from
    /// the scheduler configuration — the same contract as
    /// [`SingleGpuBackend::new`](samoyeds_serve::SingleGpuBackend::new).
    ///
    /// Panics if the cluster's topology is invalid or spans a different
    /// number of GPUs than the cluster: a broken topology is a
    /// configuration bug, and failing here beats a misleading
    /// admission-vs-placement panic in the middle of a running trace.
    pub fn new(cluster: ClusterConfig, model: MoeModelConfig, scfg: &SchedulerConfig) -> Self {
        let straggler_experts = cluster.strategy.straggler_experts(
            model.num_experts,
            cluster.num_gpus.max(1),
            cluster.topology.num_islands(),
        );
        let router = TopKRouter::for_config(&model, scfg.routing_seed);
        let sim = ClusterSimulator::new(cluster, model);
        assert_eq!(
            sim.topology().num_gpus(),
            sim.cluster().num_gpus,
            "cluster topology spans {} GPUs but the cluster has {}",
            sim.topology().num_gpus(),
            sim.cluster().num_gpus,
        );
        sim.topology().validate().expect("invalid cluster topology");
        Self {
            straggler_experts,
            router,
            sim,
            attention: StepAttention::new(scfg.attention),
            routing_seed: scfg.routing_seed,
            step_overhead_ms: scfg.step_overhead_ms,
            scratch: ScratchLock::default(),
        }
    }

    /// Always [`OverlapModel::Serial`]: a pod's step pays its compute and
    /// its all-to-all in sequence. Kept only for fleetbench's `probe.rs`,
    /// which builds its replayed [`StepCost`] from it (see
    /// [`OverlapModel`]).
    pub fn overlap(&self) -> OverlapModel {
        OverlapModel::Serial
    }

    /// The cluster simulator pricing the MoE steps.
    pub fn simulator(&self) -> &ClusterSimulator {
        &self.sim
    }
}

impl MemoryBudget for ClusterBackend {
    fn budget_bytes(&self) -> f64 {
        self.sim.memory().budget_bytes()
    }

    fn footprint_bytes(&self, kv_tokens: usize, step_tokens: usize) -> f64 {
        // Tokens live interleaved across ranks (token `t` on GPU `t mod g`),
        // so the straggler hosts the ceiling share of both the resident KV
        // and the in-flight step.
        let gpus = self.sim.cluster().num_gpus.max(1);
        self.sim.memory().gpu_bytes(
            self.straggler_experts,
            kv_tokens.div_ceil(gpus),
            step_tokens.div_ceil(gpus),
        )
    }
}

impl ExecutionBackend for ClusterBackend {
    fn engine_kind(&self) -> EngineKind {
        self.sim.engine().kind()
    }

    fn model(&self) -> &MoeModelConfig {
        self.sim.model()
    }

    fn supports(&self, config: &MoeModelConfig) -> bool {
        self.sim.engine().kind().supports(config)
    }

    fn memory(&self) -> &dyn MemoryBudget {
        self
    }

    fn step_cost(&self, workload: &StepWorkload<'_>) -> StepCost {
        let cluster = self.sim.cluster();
        let model = self.sim.model();
        let step_tokens = workload.step_tokens();
        let gpus = cluster.num_gpus.max(1);
        let kv_tokens: usize = workload.running.iter().map(|r| r.context_tokens()).sum();
        let kv_local = kv_tokens.div_ceil(gpus);
        let step_local = step_tokens.div_ceil(gpus);
        let moe = {
            let mut scratch = self.scratch.lock();
            let PodScratch {
                route,
                loads,
                place,
                step,
            } = &mut *scratch;
            // The cluster step needs only how many of each expert's tokens
            // start on each rank, so the step routes to those counts, never
            // to a plan's token ids and weights.
            let rank_loads = self.router.route_loads_into(
                self.routing_seed ^ workload.step_index,
                step_tokens,
                gpus,
                route,
            );

            // Serving-path placement: balance the per-expert token counts,
            // the rows of `rank_loads` summed (free to compute, unlike the
            // per-expert engine cost profile the static sweeps use — this
            // runs every step), and validate against the rank's *actual*
            // residency: its ceiling share of the running set's KV cache,
            // not just the step's tokens. If the configured strategy cannot
            // place under that (e.g. hot-expert replication without
            // headroom, or a skew-packed rank), fall back to round-robin,
            // whose balanced `ceil(E/g)` expert counts the admission budget
            // guarantees to fit.
            loads.clear();
            loads.extend(
                rank_loads
                    .chunks_exact(gpus)
                    .map(|row| row.iter().sum::<usize>()),
            );
            let island_of = self.sim.topology().island_lookup();
            let memory = self.sim.memory();
            cluster
                .strategy
                .place_into(loads, island_of, memory, kv_local, step_local, place)
                .or_else(|_| {
                    // Round-robin reads only the GPU count off `island_of`.
                    PlacementStrategy::RoundRobin
                        .place_into(loads, island_of, memory, kv_local, step_local, place)
                })
                .and_then(|()| {
                    self.sim
                        .price_step(step_tokens, rank_loads, place.placement(), step)
                })
                .expect(
                    "admission admitted a step the cluster cannot place \
                     (straggler budget and balanced placement disagree)",
                )
        };

        // Attention and the norm/router auxiliaries are data-parallel: each
        // rank hosts its interleaved share of the requests, so the per-layer
        // cost divides across the pod.
        let g = gpus as f64;
        let device = &cluster.device;
        let attention_ms = self
            .attention
            .step_ms(device, model, workload.batch, workload.running)
            / g;
        let other_ms = auxiliary_step_ms(device, model, step_tokens) / g;

        let layers = model.num_layers as f64;
        StepCost {
            compute_ms: (moe.straggler_ms + attention_ms + other_ms) * layers
                + self.step_overhead_ms,
            collective_ms: moe.all_to_all_ms * layers,
            // Attribution for telemetry: where the collective time went,
            // the intra-island and spine legs of the same all-to-all.
            intra_island_ms: moe.intra_island_ms * layers,
            spine_ms: moe.spine_ms * layers,
            overlap: OverlapModel::Serial,
        }
    }

    fn describe(&self) -> String {
        let cluster = self.sim.cluster();
        format!(
            "cluster {}x {} ({}) · {} · {} · {}",
            cluster.num_gpus,
            cluster.device.name,
            self.sim.topology().name(),
            cluster.engine.name(),
            cluster.strategy.name(),
            self.sim.model().name,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::ClusterEngine;
    use samoyeds_gpu_sim::DeviceSpec;
    use samoyeds_serve::{Scheduler, TraceConfig};

    fn backend(device: DeviceSpec, gpus: usize, engine: ClusterEngine) -> ClusterBackend {
        ClusterBackend::new(
            ClusterConfig::new(device, gpus, engine),
            MoeModelConfig::qwen2_moe(),
            &SchedulerConfig::default(),
        )
    }

    fn small_trace() -> TraceConfig {
        TraceConfig {
            num_requests: 12,
            arrival_rate_rps: 8.0,
            prompt_len_range: (32, 128),
            output_len_range: (4, 12),
            seed: 5,
        }
    }

    #[test]
    fn cluster_backend_serves_a_trace_with_collective_time() {
        let backend = backend(DeviceSpec::a100_40g(), 4, ClusterEngine::Samoyeds);
        assert!(backend.describe().contains("4x"));
        let scheduler = Scheduler::from_backend(backend, SchedulerConfig::default());
        let result = scheduler.run(&small_trace().generate());
        assert!(result.supported);
        assert!(!result.completed.is_empty());
        assert!(result.rejected.is_empty());
        // Every multi-GPU step pays a nonzero collective share.
        assert!(!result.steps.is_empty());
        for step in &result.steps {
            assert!(step.collective_ms > 0.0, "step without all-to-all");
            assert!(step.collective_ms < step.time_ms);
            assert!(step.memory_bytes <= result.budget_bytes);
        }
        assert!(result.collective_ms() > 0.0);
    }

    #[test]
    fn one_gpu_cluster_pays_no_collectives() {
        let backend = backend(DeviceSpec::a100_40g(), 1, ClusterEngine::Samoyeds);
        let scheduler = Scheduler::from_backend(backend, SchedulerConfig::default());
        let result = scheduler.run(&small_trace().generate());
        assert!(!result.completed.is_empty());
        for step in &result.steps {
            assert_eq!(step.collective_ms, 0.0);
        }
    }

    #[test]
    fn dense_weights_reject_on_the_consumer_pod_where_samoyeds_serves() {
        // The acceptance-criterion cell in backend form: on 1x RTX 4070
        // Super, dense Qwen2 weights overflow the per-GPU budget (trace
        // rejected for memory) while the Samoyeds compressed weights admit
        // and serve the same trace.
        let trace = small_trace().generate();
        let run = |engine| {
            let backend = backend(DeviceSpec::rtx4070_super(), 1, engine);
            Scheduler::from_backend(backend, SchedulerConfig::default()).run(&trace)
        };
        let dense = run(ClusterEngine::Dense);
        assert!(dense.supported, "dense rejects for memory, not kernels");
        assert!(dense.completed.is_empty());
        assert_eq!(dense.rejected.len(), trace.len());
        let samoyeds = run(ClusterEngine::Samoyeds);
        assert_eq!(samoyeds.completed.len(), trace.len());
        assert!(samoyeds.rejected.is_empty());
    }

    #[test]
    fn a_pcie_pod_step_pays_compute_then_collectives() {
        use samoyeds_serve::backend::StepWorkload;
        use samoyeds_serve::batch::{build_step, BatchLimits};
        use samoyeds_serve::request::{Request, RunningRequest};

        // A PCIe pod makes the collective share substantial.
        let cluster = ClusterConfig::new(DeviceSpec::a100_40g(), 4, ClusterEngine::Samoyeds)
            .with_link(crate::link::LinkSpec::pcie_gen4());
        let backend = ClusterBackend::new(
            cluster,
            MoeModelConfig::qwen2_moe(),
            &SchedulerConfig::default(),
        );

        let running = vec![RunningRequest::new(
            Request {
                id: 0,
                arrival_ms: 0.0,
                prompt_len: 512,
                output_len: 8,
            },
            0.0,
        )];
        let batch = build_step(&running, &BatchLimits::default());
        let workload = StepWorkload {
            batch: &batch,
            running: &running,
            step_index: 0,
        };
        let cost = backend.step_cost(&workload);
        assert!(cost.collective_ms > 0.0);
        assert_eq!(cost.total_ms(), cost.compute_ms + cost.collective_ms);
    }

    #[test]
    fn admission_budget_is_per_gpu_and_shrinks_with_more_gpus() {
        let one = backend(DeviceSpec::a100_40g(), 1, ClusterEngine::Dense);
        let four = backend(DeviceSpec::a100_40g(), 4, ClusterEngine::Dense);
        // Same per-GPU budget, smaller per-GPU footprint at 4 GPUs.
        assert_eq!(one.memory().budget_bytes(), four.memory().budget_bytes());
        assert!(four.memory().footprint_bytes(4096, 512) < one.memory().footprint_bytes(4096, 512));
        // Qwen2-MoE has 60 routed experts: ceil(60 / 4) = 15 per rank, and
        // the footprint is that straggler's under the pod's one memory model,
        // with the ceiling shares of the KV cache and of the step.
        assert_eq!(four.straggler_experts, 15);
        assert_eq!(
            four.memory().footprint_bytes(4097, 513),
            four.simulator().memory().gpu_bytes(15, 1025, 129)
        );
    }

    #[test]
    fn pod_footprint_is_nondecreasing_in_kv_and_step_tokens() {
        use crate::link::LinkSpec;
        use crate::topology::ClusterTopology;
        // What makes a cached per-slot admission ceiling exact. The
        // straggler holds the ceiling share of both token counts, so the
        // footprint steps at multiples of the GPU count: sample either side.
        let topologies = [1usize, 2, 4, 8]
            .map(|gpus| ClusterTopology::flat(gpus, LinkSpec::nvlink3()))
            .into_iter()
            .chain([ClusterTopology::symmetric(
                2,
                2,
                LinkSpec::nvlink3(),
                LinkSpec::infiniband_ndr(),
            )
            .expect("2×2 is a valid layout")]);
        let strategies = [
            PlacementStrategy::RoundRobin,
            PlacementStrategy::CapacityGreedy,
            PlacementStrategy::ReplicateHot { hot: 2 },
            PlacementStrategy::ReplicateHotPerIsland { hot: 2 },
        ];
        for topology in topologies {
            let gpus = topology.num_gpus();
            let mut tokens = vec![0usize];
            for k in [1usize, 2, 3, 64, 1_000, 100_000] {
                tokens.extend([k * gpus - 1, k * gpus, k * gpus + 1]);
            }
            tokens.sort_unstable();
            tokens.dedup();
            for strategy in strategies {
                for engine in ClusterEngine::all() {
                    for model in MoeModelConfig::table2() {
                        let at = format!(
                            "{} {} {engine:?} {}",
                            topology.name(),
                            strategy.name(),
                            model.name
                        );
                        let pod = ClusterBackend::new(
                            ClusterConfig::new(DeviceSpec::a100_40g(), gpus, engine)
                                .with_topology(topology.clone())
                                .with_strategy(strategy),
                            model,
                            &SchedulerConfig::default(),
                        );
                        let memory = pod.memory();
                        for &t in &tokens {
                            for pair in tokens.windows(2) {
                                let (lo, hi) = (pair[0], pair[1]);
                                assert!(
                                    memory.footprint_bytes(lo, t) <= memory.footprint_bytes(hi, t),
                                    "{at}: kv {lo} -> {hi} at step {t}"
                                );
                                assert!(
                                    memory.footprint_bytes(t, lo) <= memory.footprint_bytes(t, hi),
                                    "{at}: step {lo} -> {hi} at kv {t}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "topology spans")]
    fn backend_rejects_a_mismatched_topology_at_construction() {
        use crate::link::LinkSpec;
        use crate::topology::ClusterTopology;
        // A topology over the wrong GPU count must fail while building the
        // backend, not as a misleading admission panic mid-trace.
        let _ = ClusterBackend::new(
            ClusterConfig::new(DeviceSpec::a100_40g(), 4, ClusterEngine::Samoyeds)
                .with_topology(ClusterTopology::flat(8, LinkSpec::nvlink3())),
            MoeModelConfig::qwen2_moe(),
            &SchedulerConfig::default(),
        );
    }

    #[test]
    fn per_island_replication_budget_accounts_for_cold_packing() {
        use crate::link::LinkSpec;
        use crate::topology::ClusterTopology;
        // Regression: a skewed hot load can repel the greedy cold pass
        // entirely onto the non-replica ranks, so the straggler owns more
        // than the balanced `hot + ceil(cold/g)` share.
        let model = MoeModelConfig::qwen2_moe(); // 60 routed experts
        let topology =
            ClusterTopology::symmetric(4, 2, LinkSpec::pcie_gen4(), LinkSpec::infiniband_ndr())
                .unwrap();
        let flat = ClusterConfig::new(DeviceSpec::a100_40g(), 8, ClusterEngine::Samoyeds)
            .with_strategy(PlacementStrategy::ReplicateHotPerIsland { hot: 1 });
        let islands = flat.clone().with_topology(topology);
        let straggler = |cluster: ClusterConfig| {
            ClusterBackend::new(cluster, model.clone(), &SchedulerConfig::default())
                .straggler_experts
        };
        // hot=1 over 4 islands leaves 4 non-replica ranks: the cold pass
        // can pack ceil(59/4) = 15 experts on one of them — more than the
        // balanced 1 + ceil(59/8) = 9.
        assert_eq!(straggler(islands), 15);
        // On a flat topology the strategy degenerates to hot-first greedy
        // and the bound tightens accordingly.
        assert_eq!(straggler(flat), 9);
    }

    #[test]
    fn replicate_hot_budget_accounts_for_the_replicas() {
        let base = ClusterConfig::new(DeviceSpec::a100_40g(), 4, ClusterEngine::Samoyeds);
        let pod = |cluster: ClusterConfig| {
            ClusterBackend::new(
                cluster,
                MoeModelConfig::qwen2_moe(),
                &SchedulerConfig::default(),
            )
        };
        let plain = pod(base.clone());
        let replicated = pod(base.with_strategy(PlacementStrategy::ReplicateHot { hot: 2 }));
        assert!(replicated.straggler_experts > plain.straggler_experts);
        assert!(
            replicated.memory().footprint_bytes(1024, 128)
                > plain.memory().footprint_bytes(1024, 128)
        );
    }
}
