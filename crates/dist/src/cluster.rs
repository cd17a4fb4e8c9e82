//! The cluster scheduler: shard a routing plan across expert-parallel GPUs,
//! charge per-GPU compute through the existing engine cost model plus the
//! all-to-all transfer time, and report utilization and straggler effects.
//!
//! One cluster step is one forward pass of the model's MoE layers over a
//! token batch: tokens live interleaved across GPUs (token `t` on GPU
//! `t mod g`), every layer dispatches them to their experts' owners
//! (all-to-all), each GPU runs its expert shard plus the replicated shared
//! experts over its local tokens, and the outputs return (second
//! all-to-all). The step time of a layer is the *slowest* GPU's compute —
//! the collectives synchronise the cluster, so load imbalance turns directly
//! into idle time everywhere else — plus both collectives.

use crate::link::LinkSpec;
use crate::placement::{ClusterEngine, ClusterMemoryModel, ExpertPlacement, PlacementStrategy};
use crate::topology::{ClusterTopology, FlowMatrix};
use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::engines::Engine;
use samoyeds_moe::router::RoutingPlan;
use samoyeds_sparse::{Result, SparseError};
use serde::{Deserialize, Serialize};

/// A homogeneous expert-parallel cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// The GPU model every rank runs.
    pub device: DeviceSpec,
    /// Number of GPUs.
    pub num_gpus: usize,
    /// Weight representation / execution engine.
    pub engine: ClusterEngine,
    /// Expert placement strategy.
    pub strategy: PlacementStrategy,
    /// The fabric binding the ranks together when no explicit topology is
    /// set (a single flat island over this link).
    pub link: LinkSpec,
    /// Optional hierarchical interconnect. `None` means one flat island
    /// over [`ClusterConfig::link`], which reproduces the single-level α-β
    /// collective cost exactly (pinned by `topology_equivalence`).
    pub topology: Option<ClusterTopology>,
}

impl ClusterConfig {
    /// A cluster of `num_gpus` × `device` running `engine`, with the
    /// device's native interconnect (one flat island) and capacity-greedy
    /// placement.
    pub fn new(device: DeviceSpec, num_gpus: usize, engine: ClusterEngine) -> Self {
        Self {
            link: LinkSpec::for_device(&device),
            device,
            num_gpus,
            engine,
            strategy: PlacementStrategy::CapacityGreedy,
            topology: None,
        }
    }

    /// Replace the placement strategy.
    pub fn with_strategy(mut self, strategy: PlacementStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Replace the flat interconnect (ignored once
    /// [`ClusterConfig::with_topology`] sets an explicit topology).
    pub fn with_link(mut self, link: LinkSpec) -> Self {
        self.link = link;
        self
    }

    /// Set an explicit hierarchical topology (NVLink islands + spine). Its
    /// GPU count must match `num_gpus`: a mismatch surfaces as a step
    /// error from [`ClusterSimulator::step`] and as a construction panic
    /// from `ClusterBackend::new`.
    pub fn with_topology(mut self, topology: ClusterTopology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Deploy the cluster in its device's natural multi-node form factor:
    /// islands of [`DeviceSpec::gpus_per_node`](samoyeds_gpu_sim::DeviceSpec::gpus_per_node)
    /// on the native fabric, stitched by an InfiniBand NDR spine once the
    /// fleet outgrows one node (see [`ClusterTopology::for_device`]).
    pub fn with_node_topology(mut self) -> Self {
        self.topology = Some(ClusterTopology::for_device(&self.device, self.num_gpus));
        self
    }

    /// The effective topology: the explicit one, or a single flat island
    /// over [`ClusterConfig::link`].
    pub fn resolved_topology(&self) -> ClusterTopology {
        self.topology
            .clone()
            .unwrap_or_else(|| ClusterTopology::flat(self.num_gpus, self.link.clone()))
    }
}

/// The outcome of one cluster step over a routing plan.
#[derive(Debug, Clone)]
pub struct ClusterStepReport {
    /// GPUs in the cluster.
    pub num_gpus: usize,
    /// Tokens in the batch.
    pub tokens: usize,
    /// The placement used.
    pub placement: ExpertPlacement,
    /// Per-GPU MoE compute time of one layer (expert shard + shared
    /// experts over local tokens), milliseconds.
    pub per_gpu_compute_ms: Vec<f64>,
    /// Dispatch + combine all-to-all time of one layer, milliseconds.
    pub all_to_all_ms: f64,
    /// Intra-island share of the collectives (dispatch + combine),
    /// milliseconds. Equals `all_to_all_ms` on a flat topology without
    /// pair overrides.
    pub intra_island_ms: f64,
    /// Spine (inter-island leader exchange) share of the collectives
    /// (dispatch + combine), milliseconds. Exactly 0 on a flat topology or
    /// when no token crosses an island boundary.
    pub spine_ms: f64,
    /// Dedicated pair-override link share of the collectives (dispatch +
    /// combine), milliseconds; runs concurrently with the phases, so
    /// `all_to_all_ms = max(intra_island_ms + spine_ms, override_ms)`.
    pub override_ms: f64,
    /// Bytes crossing island boundaries in one layer (dispatch + combine).
    pub cross_island_bytes: f64,
    /// One layer's step time: slowest GPU + both collectives.
    pub layer_time_ms: f64,
    /// Full-model step time (`layer_time_ms` × layers).
    pub model_time_ms: f64,
    /// Token-expert assignments actually executed across all shards
    /// (equals the plan's `total_assignments`; the conservation invariant).
    pub sharded_assignments: usize,
}

impl ClusterStepReport {
    /// Compute time of the slowest GPU (the straggler) for one layer.
    pub fn straggler_ms(&self) -> f64 {
        self.per_gpu_compute_ms
            .iter()
            .fold(0.0f64, |m, &t| m.max(t))
    }

    /// Mean per-GPU compute time for one layer.
    pub fn mean_compute_ms(&self) -> f64 {
        self.per_gpu_compute_ms.iter().sum::<f64>() / self.num_gpus.max(1) as f64
    }

    /// Per-GPU utilization: own compute over the layer step time.
    pub fn utilization(&self) -> Vec<f64> {
        self.per_gpu_compute_ms
            .iter()
            .map(|&t| {
                if self.layer_time_ms > 0.0 {
                    t / self.layer_time_ms
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Fraction of the layer step spent in the collectives.
    pub fn all_to_all_fraction(&self) -> f64 {
        if self.layer_time_ms > 0.0 {
            self.all_to_all_ms / self.layer_time_ms
        } else {
            0.0
        }
    }

    /// Fraction of the layer step spent on the inter-island spine — the
    /// "spine-bound" diagnostic of the topology sweep.
    pub fn spine_fraction(&self) -> f64 {
        if self.layer_time_ms > 0.0 {
            self.spine_ms / self.layer_time_ms
        } else {
            0.0
        }
    }

    /// Batch tokens per second through the full model's MoE stack.
    pub fn tokens_per_s(&self) -> f64 {
        if self.model_time_ms > 0.0 {
            self.tokens as f64 / (self.model_time_ms / 1e3)
        } else {
            0.0
        }
    }
}

/// Deterministic expert-parallel cluster simulator for one (cluster, model)
/// pair.
#[derive(Debug, Clone)]
pub struct ClusterSimulator {
    cluster: ClusterConfig,
    model: MoeModelConfig,
    /// `model` without its shared experts: what each rank's routed shard
    /// is priced as (the replicated shared experts are priced separately,
    /// over the rank's local tokens).
    routed_model: MoeModelConfig,
    engine: Engine,
    memory: ClusterMemoryModel,
    topology: ClusterTopology,
}

impl ClusterSimulator {
    /// Build the simulator.
    pub fn new(cluster: ClusterConfig, model: MoeModelConfig) -> Self {
        let routed_model = MoeModelConfig {
            num_shared_experts: 0,
            ..model.clone()
        };
        Self {
            memory: ClusterMemoryModel::new(&cluster.device, cluster.engine, &model),
            topology: cluster.resolved_topology(),
            engine: cluster.engine.engine(&cluster.device),
            routed_model,
            cluster,
            model,
        }
    }

    /// The cluster description.
    pub fn cluster(&self) -> &ClusterConfig {
        &self.cluster
    }

    /// The interconnect topology collectives are priced over.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topology
    }

    /// The model being served.
    pub fn model(&self) -> &MoeModelConfig {
        &self.model
    }

    /// The engine every rank's compute is priced with.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The per-GPU memory model placements are validated against.
    pub fn memory(&self) -> &ClusterMemoryModel {
        &self.memory
    }

    /// Tokens resident on each GPU for a batch of `tokens` (interleaved
    /// residency: token `t` on GPU `t mod g`).
    fn local_tokens(&self, tokens: usize) -> Vec<usize> {
        let g = self.cluster.num_gpus;
        (0..g)
            .map(|gpu| tokens / g + usize::from(gpu < tokens % g))
            .collect()
    }

    /// Predicted per-expert cost profile (nanoseconds) under this cluster's
    /// engine — what a load-aware placement actually needs to balance. Raw
    /// token counts are a poor proxy: the SEL-driven kernels pay a
    /// near-fixed cost per expert for indexing the full batch, so an
    /// expert's cost is its fixed share plus its token-dependent share.
    pub fn expert_cost_profile(&self, plan: &RoutingPlan) -> Vec<usize> {
        (0..plan.num_experts())
            .map(|e| {
                let ms = self
                    .engine
                    .moe_layer_cost_for_loads(
                        &self.routed_model,
                        plan.num_tokens,
                        &[plan.tokens_for(e)],
                    )
                    .time_ms;
                (ms * 1e6) as usize
            })
            .collect()
    }

    /// Place the plan's experts under the configured strategy and budget,
    /// balancing the predicted per-expert cost profile (topology-aware:
    /// island-replicating strategies see the island structure).
    pub fn placement_for(&self, plan: &RoutingPlan) -> Result<ExpertPlacement> {
        let per_gpu = plan.num_tokens.div_ceil(self.cluster.num_gpus.max(1));
        self.cluster.strategy.place_on(
            &self.expert_cost_profile(plan),
            &self.topology,
            &self.memory,
            per_gpu,
            per_gpu,
        )
    }

    /// Whether the model fits this cluster at all for a batch of `tokens`
    /// (a uniform-load capacity-greedy placement succeeds).
    pub fn fits(&self, tokens: usize) -> bool {
        let per_gpu = tokens.div_ceil(self.cluster.num_gpus.max(1));
        PlacementStrategy::CapacityGreedy
            .place(
                &vec![1usize; self.model.num_experts],
                self.cluster.num_gpus,
                &self.memory,
                per_gpu,
                per_gpu,
            )
            .is_ok()
    }

    /// Execute one cluster step over `plan` with the configured strategy's
    /// placement.
    pub fn step(&self, plan: &RoutingPlan) -> Result<ClusterStepReport> {
        let placement = self.placement_for(plan)?;
        self.step_with_placement(plan, placement)
    }

    /// Execute one cluster step over `plan` under an explicit `placement`
    /// (the serving backend supplies its own, with fallback, so a transient
    /// placement failure never aborts a running trace).
    pub fn step_with_placement(
        &self,
        plan: &RoutingPlan,
        placement: ExpertPlacement,
    ) -> Result<ClusterStepReport> {
        let g = self.cluster.num_gpus;
        if self.topology.num_gpus() != g {
            return Err(SparseError::config(format!(
                "topology spans {} GPUs but the cluster has {g}",
                self.topology.num_gpus()
            )));
        }
        self.topology.validate()?;
        // On a hierarchical topology a replicated expert's tokens dispatch
        // to a replica inside their own island (zero spine bytes for that
        // expert), round-robin across the island's replicas so a strategy
        // like ReplicateHot keeps splitting the hot load within each
        // island; the flat path keeps the legacy round-robin split so a
        // single-island topology reproduces today's numbers exactly.
        let shards = if self.topology.num_islands() > 1 {
            let island_of = self.topology.island_lookup();
            let islands = self.topology.num_islands();
            // Per (expert, island): the indices (into the expert's owner
            // list, assignment-iteration order — the order `shard_with`
            // presents) of the replicas living in that island, precomputed
            // once so the per-token pick is a table lookup.
            let mut island_replicas: Vec<Vec<Vec<usize>>> =
                vec![vec![Vec::new(); islands]; plan.num_experts()];
            let mut seen = vec![0usize; plan.num_experts()];
            for (rank, owned) in placement.assignments().iter().enumerate() {
                // Out-of-range ids fall through to shard_with's validation.
                for &e in owned.iter().filter(|&&e| e < plan.num_experts()) {
                    island_replicas[e][island_of[rank]].push(seen[e]);
                    seen[e] += 1;
                }
            }
            plan.shard_with(placement.assignments(), |e, t, owners| {
                let same = &island_replicas[e][island_of[t as usize % g]];
                if same.is_empty() {
                    t as usize % owners.len()
                } else {
                    same[t as usize % same.len()]
                }
            })?
        } else {
            plan.shard(placement.assignments())?
        };
        let locals = self.local_tokens(plan.num_tokens);

        // Routed experts: each GPU runs its shard; the SEL arrays index the
        // global token batch, so `num_tokens` stays the full batch. Shared
        // experts are replicated and run over the GPU's local tokens only.
        let mut per_gpu_compute_ms = Vec::with_capacity(g);
        let mut sharded_assignments = 0usize;
        for (gpu, shard) in shards.iter().enumerate() {
            sharded_assignments += shard.total_assignments();
            let mut ms = self
                .engine
                .moe_layer_cost(&self.routed_model, plan.num_tokens, shard)
                .time_ms;
            if self.model.num_shared_experts > 0 && locals[gpu] > 0 {
                ms += self
                    .engine
                    .moe_layer_cost_for_loads(&self.model, locals[gpu], &[])
                    .time_ms;
            }
            per_gpu_compute_ms.push(ms);
        }

        // All-to-all: a token routed to an expert on another GPU crosses
        // the fabric on dispatch and its expert output crosses back on
        // combine. Exact per-pair byte flows from the shard map, priced by
        // the topology (intra-island phase + spine leader exchange; a flat
        // topology degenerates to the single-level α-β cost over the
        // per-GPU totals — every accumulated value is an exact integer in
        // f64, so the row sums match the legacy per-GPU accumulation bit
        // for bit).
        let token_bytes = self.model.hidden_size as f64 * 2.0;
        let mut flows = FlowMatrix::new(g);
        for (gpu, shard) in shards.iter().enumerate() {
            for tokens in &shard.expert_tokens {
                for &t in tokens {
                    flows.add(t as usize % g, gpu, token_bytes);
                }
            }
        }
        // Combine moves the same bytes in reverse, and both phase costs are
        // symmetric in their endpoints, so the step pays the dispatch
        // collective twice.
        let cost = self.topology.all_to_all_ms(&flows);
        let all_to_all_ms = 2.0 * cost.total_ms();

        let straggler = per_gpu_compute_ms.iter().fold(0.0f64, |m, &t| m.max(t));
        let layer_time_ms = straggler + all_to_all_ms;
        Ok(ClusterStepReport {
            num_gpus: g,
            tokens: plan.num_tokens,
            placement,
            per_gpu_compute_ms,
            all_to_all_ms,
            intra_island_ms: 2.0 * cost.intra_ms,
            spine_ms: 2.0 * cost.spine_ms,
            override_ms: 2.0 * cost.override_ms,
            cross_island_bytes: 2.0 * cost.cross_island_bytes,
            layer_time_ms,
            model_time_ms: layer_time_ms * self.model.num_layers as f64,
            sharded_assignments,
        })
    }
}

/// The smallest cluster of `device` (up to `max_gpus`) that holds `model`
/// under `engine` with a batch of `tokens`. `None` if even `max_gpus` GPUs
/// cannot hold it — the fleet-sizing question the compressed format answers
/// with fewer GPUs (the multi-GPU analogue of Table 3).
pub fn min_gpus_to_fit(
    device: &DeviceSpec,
    engine: ClusterEngine,
    model: &MoeModelConfig,
    tokens: usize,
    max_gpus: usize,
) -> Option<usize> {
    (1..=max_gpus).find(|&g| {
        ClusterSimulator::new(ClusterConfig::new(device.clone(), g, engine), model.clone())
            .fits(tokens)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use samoyeds_moe::router::TopKRouter;

    fn plan(config: &MoeModelConfig, tokens: usize) -> RoutingPlan {
        TopKRouter::for_config(config, 42).route(tokens)
    }

    #[test]
    fn step_includes_nonzero_all_to_all_and_conserves_assignments() {
        let config = MoeModelConfig::qwen2_moe();
        let plan = plan(&config, 1024);
        let sim = ClusterSimulator::new(
            ClusterConfig::new(DeviceSpec::a100_40g(), 4, ClusterEngine::Samoyeds),
            config,
        );
        let report = sim.step(&plan).unwrap();
        assert_eq!(report.num_gpus, 4);
        assert!(report.all_to_all_ms > 0.0);
        assert_eq!(report.sharded_assignments, plan.total_assignments());
        assert!(report.layer_time_ms >= report.straggler_ms());
        assert!(report.model_time_ms > report.layer_time_ms);
        assert!(report.tokens_per_s() > 0.0);
        let util = report.utilization();
        assert_eq!(util.len(), 4);
        assert!(util.iter().all(|&u| (0.0..=1.0).contains(&u)));
    }

    #[test]
    fn zero_duration_steps_report_zero_not_nan() {
        // Regression: a degenerate (empty) routing plan must price to a
        // well-defined zero-ish step — tokens_per_s, utilization and the
        // all-to-all fraction all return 0 rather than NaN/inf when the
        // step has no duration.
        let config = MoeModelConfig::qwen2_moe();
        let empty = TopKRouter::for_config(&config, 42).route(0);
        assert_eq!(empty.num_tokens, 0);
        for engine in ClusterEngine::all() {
            let sim = ClusterSimulator::new(
                ClusterConfig::new(DeviceSpec::a100_40g(), 4, engine),
                config.clone(),
            );
            let report = sim.step(&empty).unwrap();
            assert_eq!(report.tokens, 0);
            assert_eq!(report.all_to_all_ms, 0.0);
            let tps = report.tokens_per_s();
            assert!(tps.is_finite(), "{engine:?} tokens_per_s {tps}");
            assert_eq!(tps, 0.0);
            assert!(report.all_to_all_fraction().is_finite());
            for u in report.utilization() {
                assert!(u.is_finite(), "{engine:?} utilization {u}");
                assert!((0.0..=1.0).contains(&u));
            }
            assert!(report.mean_compute_ms().is_finite());
            assert!(report.straggler_ms().is_finite());
        }
    }

    #[test]
    fn empty_steps_under_a_hierarchical_topology_stay_zero_and_finite() {
        // Regression: the degenerate shapes of the topology model — an
        // empty routing plan over a 2x4 island layout, and a 1-island-of-1
        // topology on a single GPU — price to well-defined zeros, never
        // NaN, and the spine phase of a traffic-free step costs exactly 0.
        let config = MoeModelConfig::qwen2_moe();
        let empty = TopKRouter::for_config(&config, 42).route(0);
        let topology =
            ClusterTopology::symmetric(2, 4, LinkSpec::nvlink3(), LinkSpec::infiniband_ndr())
                .unwrap();
        for engine in ClusterEngine::all() {
            let sim = ClusterSimulator::new(
                ClusterConfig::new(DeviceSpec::a100_40g(), 8, engine)
                    .with_topology(topology.clone()),
                config.clone(),
            );
            let report = sim.step(&empty).unwrap();
            assert_eq!(report.all_to_all_ms, 0.0);
            assert_eq!(report.intra_island_ms, 0.0);
            assert_eq!(report.spine_ms, 0.0);
            assert_eq!(report.cross_island_bytes, 0.0);
            assert_eq!(report.tokens_per_s(), 0.0);
            assert!(report.spine_fraction().is_finite());
            assert!(report.all_to_all_fraction().is_finite());
            for u in report.utilization() {
                assert!(u.is_finite() && (0.0..=1.0).contains(&u));
            }
        }
        // 1 island of 1 GPU: no peers, no phases, but real compute.
        let single = ClusterSimulator::new(
            ClusterConfig::new(DeviceSpec::a100_40g(), 1, ClusterEngine::Samoyeds).with_topology(
                ClusterTopology::symmetric(1, 1, LinkSpec::nvlink3(), LinkSpec::infiniband_ndr())
                    .unwrap(),
            ),
            config.clone(),
        );
        let report = single
            .step(&TopKRouter::for_config(&config, 42).route(512))
            .unwrap();
        assert_eq!(report.all_to_all_ms, 0.0);
        assert_eq!(report.spine_ms, 0.0);
        assert_eq!(report.cross_island_bytes, 0.0);
        assert!(report.straggler_ms() > 0.0);
    }

    #[test]
    fn hand_built_zero_time_report_is_guarded() {
        // The guards themselves, independent of the simulator: a report with
        // literally zero step time must not divide by zero.
        let report = ClusterStepReport {
            num_gpus: 2,
            tokens: 0,
            placement: ExpertPlacement {
                strategy: PlacementStrategy::RoundRobin,
                gpu_experts: vec![Vec::new(), Vec::new()],
            },
            per_gpu_compute_ms: vec![0.0, 0.0],
            all_to_all_ms: 0.0,
            intra_island_ms: 0.0,
            spine_ms: 0.0,
            override_ms: 0.0,
            cross_island_bytes: 0.0,
            layer_time_ms: 0.0,
            model_time_ms: 0.0,
            sharded_assignments: 0,
        };
        assert_eq!(report.tokens_per_s(), 0.0);
        assert_eq!(report.all_to_all_fraction(), 0.0);
        assert_eq!(report.spine_fraction(), 0.0);
        assert_eq!(report.utilization(), vec![0.0, 0.0]);
        assert_eq!(report.mean_compute_ms(), 0.0);
    }

    #[test]
    fn step_with_placement_matches_step_for_the_default_strategy() {
        let config = MoeModelConfig::qwen2_moe();
        let plan = plan(&config, 1024);
        let sim = ClusterSimulator::new(
            ClusterConfig::new(DeviceSpec::a100_40g(), 4, ClusterEngine::Samoyeds),
            config,
        );
        let placement = sim.placement_for(&plan).unwrap();
        let via_step = sim.step(&plan).unwrap();
        let via_explicit = sim.step_with_placement(&plan, placement).unwrap();
        assert_eq!(via_step.layer_time_ms, via_explicit.layer_time_ms);
        assert_eq!(via_step.all_to_all_ms, via_explicit.all_to_all_ms);
        assert_eq!(via_step.per_gpu_compute_ms, via_explicit.per_gpu_compute_ms);
    }

    #[test]
    fn single_gpu_pays_no_interconnect() {
        let config = MoeModelConfig::qwen2_moe();
        let plan = plan(&config, 512);
        let sim = ClusterSimulator::new(
            ClusterConfig::new(DeviceSpec::a100_40g(), 1, ClusterEngine::Samoyeds),
            config,
        );
        let report = sim.step(&plan).unwrap();
        assert_eq!(report.all_to_all_ms, 0.0);
        assert_eq!(report.per_gpu_compute_ms.len(), 1);
    }

    #[test]
    fn pcie_clusters_pay_more_for_dispatch_than_nvlink() {
        let config = MoeModelConfig::qwen2_moe();
        let plan = plan(&config, 2048);
        let base = ClusterConfig::new(DeviceSpec::a100_40g(), 4, ClusterEngine::Samoyeds);
        let nvlink = ClusterSimulator::new(base.clone(), config.clone());
        let pcie = ClusterSimulator::new(base.with_link(LinkSpec::pcie_gen4()), config);
        let t_nv = nvlink.step(&plan).unwrap().all_to_all_ms;
        let t_pcie = pcie.step(&plan).unwrap().all_to_all_ms;
        assert!(t_pcie > 3.0 * t_nv, "pcie {t_pcie} nvlink {t_nv}");
    }

    #[test]
    fn samoyeds_fits_on_fewer_gpus_than_dense() {
        let config = MoeModelConfig::qwen2_moe();
        let device = DeviceSpec::rtx4070_super();
        let dense = min_gpus_to_fit(&device, ClusterEngine::Dense, &config, 1024, 16).unwrap();
        let samoyeds =
            min_gpus_to_fit(&device, ClusterEngine::Samoyeds, &config, 1024, 16).unwrap();
        assert!(
            samoyeds < dense,
            "samoyeds needs {samoyeds} GPUs, dense {dense}"
        );
        assert_eq!(samoyeds, 1);
    }

    #[test]
    fn capacity_greedy_beats_round_robin_on_straggler_time_for_skewed_plans() {
        let config = MoeModelConfig::qwen2_moe();
        let skewed = TopKRouter::for_config(&config, 9)
            .with_skew(1.5)
            .route(2048);
        let base = ClusterConfig::new(DeviceSpec::a100_40g(), 8, ClusterEngine::Samoyeds);
        let rr = ClusterSimulator::new(
            base.clone().with_strategy(PlacementStrategy::RoundRobin),
            config.clone(),
        );
        let greedy = ClusterSimulator::new(
            base.with_strategy(PlacementStrategy::CapacityGreedy),
            config,
        );
        let t_rr = rr.step(&skewed).unwrap();
        let t_greedy = greedy.step(&skewed).unwrap();
        assert!(
            t_greedy.straggler_ms() < t_rr.straggler_ms(),
            "greedy {} vs round-robin {}",
            t_greedy.straggler_ms(),
            t_rr.straggler_ms()
        );
    }

    #[test]
    fn hierarchical_topology_splits_collectives_into_intra_and_spine() {
        let config = MoeModelConfig::qwen2_moe();
        let plan = plan(&config, 2048);
        let base = ClusterConfig::new(DeviceSpec::a100_40g(), 8, ClusterEngine::Samoyeds);
        let flat = ClusterSimulator::new(base.clone(), config.clone());
        let hier = ClusterSimulator::new(
            base.with_topology(
                ClusterTopology::symmetric(2, 4, LinkSpec::nvlink3(), LinkSpec::infiniband_ndr())
                    .unwrap(),
            ),
            config,
        );
        let f = flat.step(&plan).unwrap();
        let h = hier.step(&plan).unwrap();
        // Flat: everything is intra-island, the spine never fires.
        assert_eq!(f.spine_ms, 0.0);
        assert_eq!(f.cross_island_bytes, 0.0);
        assert_eq!(f.intra_island_ms, f.all_to_all_ms);
        // Hierarchical: the interleaved token residency pushes roughly half
        // the dispatch across the 50 GB/s spine, which dominates the step.
        assert!(h.spine_ms > 0.0);
        assert!(h.cross_island_bytes > 0.0);
        assert!(h.spine_fraction() > 0.0);
        assert!(
            h.all_to_all_ms > f.all_to_all_ms,
            "spine-bound {} vs flat {}",
            h.all_to_all_ms,
            f.all_to_all_ms
        );
        // Both paths execute the same token-expert assignments.
        assert_eq!(h.sharded_assignments, f.sharded_assignments);
    }

    #[test]
    fn per_island_replication_cuts_spine_traffic_on_skewed_plans() {
        let config = MoeModelConfig::qwen2_moe();
        let skewed = TopKRouter::for_config(&config, 9)
            .with_skew(1.5)
            .route(2048);
        let topology =
            ClusterTopology::symmetric(2, 4, LinkSpec::nvlink3(), LinkSpec::infiniband_ndr())
                .unwrap();
        let base = ClusterConfig::new(DeviceSpec::a100_40g(), 8, ClusterEngine::Samoyeds)
            .with_topology(topology);
        let greedy = ClusterSimulator::new(base.clone(), config.clone());
        let island = ClusterSimulator::new(
            base.with_strategy(PlacementStrategy::ReplicateHotPerIsland { hot: 4 }),
            config,
        );
        let t_greedy = greedy.step(&skewed).unwrap();
        let t_island = island.step(&skewed).unwrap();
        // The hot experts' tokens now dispatch to the replica inside their
        // own island, so fewer bytes cross the spine.
        assert!(
            t_island.cross_island_bytes < t_greedy.cross_island_bytes,
            "island {} vs greedy {}",
            t_island.cross_island_bytes,
            t_greedy.cross_island_bytes
        );
        assert!(
            t_island.spine_ms < t_greedy.spine_ms,
            "island {} vs greedy {}",
            t_island.spine_ms,
            t_greedy.spine_ms
        );
        // Conservation still holds through the affinity-aware sharding.
        assert_eq!(t_island.sharded_assignments, skewed.total_assignments());
    }

    #[test]
    fn replicated_experts_split_their_load_within_each_island() {
        // Regression: the island-affinity shard must round-robin an
        // island's tokens across ALL of the island's replicas, not pile
        // them on the first one — otherwise ReplicateHot degenerates to
        // one loaded rank per island on hierarchical topologies.
        let mut config = MoeModelConfig::qwen2_moe();
        config.num_shared_experts = 0;
        // Degenerate plan: every token routed to expert 0 only.
        let hot_tokens: Vec<u32> = (0..256).collect();
        let mut expert_tokens = vec![Vec::new(); config.num_experts];
        let mut expert_weights = vec![Vec::new(); config.num_experts];
        expert_weights[0] = vec![1.0; hot_tokens.len()];
        expert_tokens[0] = hot_tokens;
        let plan = RoutingPlan {
            num_tokens: 256,
            top_k: 1,
            expert_tokens,
            expert_weights,
        };
        let sim = ClusterSimulator::new(
            ClusterConfig::new(DeviceSpec::a100_40g(), 4, ClusterEngine::Samoyeds)
                .with_topology(
                    ClusterTopology::symmetric(
                        2,
                        2,
                        LinkSpec::nvlink3(),
                        LinkSpec::infiniband_ndr(),
                    )
                    .unwrap(),
                )
                .with_strategy(PlacementStrategy::ReplicateHot { hot: 1 }),
            config,
        );
        let report = sim.step(&plan).unwrap();
        assert_eq!(report.sharded_assignments, plan.total_assignments());
        // Every rank holds a replica and serves a quarter of the batch.
        let min = report
            .per_gpu_compute_ms
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(min > 0.0);
        assert!(
            report.straggler_ms() < 1.5 * min,
            "per-GPU compute spread too wide: {:?}",
            report.per_gpu_compute_ms
        );
    }

    #[test]
    fn pair_override_time_is_surfaced_on_the_step_report() {
        // A 2-GPU PCIe host with a dedicated NVLink bridge: the whole
        // collective rides the bridge, and the report attributes that time
        // instead of leaving it as phantom all-to-all ms.
        let config = MoeModelConfig::qwen2_moe();
        let plan = plan(&config, 512);
        let sim = ClusterSimulator::new(
            ClusterConfig::new(DeviceSpec::a100_40g(), 2, ClusterEngine::Samoyeds).with_topology(
                ClusterTopology::flat(2, LinkSpec::pcie_gen4()).with_pair_override(
                    0,
                    1,
                    LinkSpec::nvlink3(),
                ),
            ),
            config,
        );
        let report = sim.step(&plan).unwrap();
        assert!(report.override_ms > 0.0);
        assert_eq!(report.intra_island_ms, 0.0);
        assert_eq!(report.spine_ms, 0.0);
        assert_eq!(
            report.all_to_all_ms,
            (report.intra_island_ms + report.spine_ms).max(report.override_ms)
        );
    }

    #[test]
    fn node_topology_deploys_the_device_form_factor() {
        let config = MoeModelConfig::qwen2_moe();
        // Eight consumer cards live in four 2-card PCIe hosts on a spine.
        let consumer = ClusterSimulator::new(
            ClusterConfig::new(DeviceSpec::rtx4070_super(), 8, ClusterEngine::Samoyeds)
                .with_node_topology(),
            config.clone(),
        );
        assert_eq!(consumer.topology().num_islands(), 4);
        assert_eq!(consumer.topology().spine, LinkSpec::infiniband_ndr());
        // An 8-GPU A100 pod stays inside one HGX node: flat NVLink.
        let a100 = ClusterSimulator::new(
            ClusterConfig::new(DeviceSpec::a100_40g(), 8, ClusterEngine::Samoyeds)
                .with_node_topology(),
            config,
        );
        assert!(a100.topology().is_flat());
    }

    #[test]
    fn mismatched_topology_is_a_step_error_not_a_panic() {
        let config = MoeModelConfig::qwen2_moe();
        let plan = plan(&config, 256);
        let sim = ClusterSimulator::new(
            ClusterConfig::new(DeviceSpec::a100_40g(), 4, ClusterEngine::Samoyeds)
                .with_topology(ClusterTopology::flat(8, LinkSpec::nvlink3())),
            config,
        );
        assert!(sim.step(&plan).is_err());
    }

    #[test]
    fn more_gpus_cut_compute_but_not_below_the_interconnect_floor() {
        let config = MoeModelConfig::qwen2_moe();
        let plan = plan(&config, 4096);
        let step = |g: usize| {
            ClusterSimulator::new(
                ClusterConfig::new(DeviceSpec::a100_40g(), g, ClusterEngine::Samoyeds),
                config.clone(),
            )
            .step(&plan)
            .unwrap()
        };
        let two = step(2);
        let eight = step(8);
        // Scaling out shrinks the straggler's compute...
        assert!(eight.straggler_ms() < two.straggler_ms());
        // ...while the collective share of the step grows.
        assert!(eight.all_to_all_fraction() > two.all_to_all_fraction());
    }
}
