//! The cluster scheduler: dispatch a routing plan's per-expert token counts
//! to expert-parallel GPUs, charge per-GPU compute through the existing
//! engine cost model plus the all-to-all transfer time, and report
//! utilization and straggler effects.
//!
//! One cluster step is one forward pass of the model's MoE layers over a
//! token batch: tokens live interleaved across GPUs (token `t` on GPU
//! `t mod g`), every layer dispatches them to their experts' owners
//! (all-to-all; a replicated expert's tokens go to its nearest replicas),
//! each GPU runs its expert shard plus the replicated shared experts over
//! its local tokens, and the outputs return (second all-to-all). The step
//! time of a layer is the *slowest* GPU's compute — the collectives
//! synchronise the cluster, so load imbalance turns directly into idle
//! time everywhere else — plus both collectives.

use crate::link::LinkSpec;
use crate::placement::{ClusterEngine, ClusterMemoryModel, ExpertPlacement, PlacementStrategy};
use crate::topology::{ClusterTopology, FlowMatrix};
use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::engines::Engine;
use samoyeds_moe::router::RoutingPlan;
use samoyeds_sparse::{Result, SparseError};

/// A homogeneous expert-parallel cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// The GPU model every rank runs.
    pub device: DeviceSpec,
    /// Number of GPUs.
    pub num_gpus: usize,
    /// Weight representation / execution engine.
    pub engine: ClusterEngine,
    /// Expert placement strategy.
    pub strategy: PlacementStrategy,
    /// The interconnect collectives are priced over: one flat island over
    /// the device's native link unless set otherwise.
    pub topology: ClusterTopology,
}

impl ClusterConfig {
    /// A cluster of `num_gpus` × `device` running `engine`, with the
    /// device's native interconnect (one flat island) and capacity-greedy
    /// placement.
    pub fn new(device: DeviceSpec, num_gpus: usize, engine: ClusterEngine) -> Self {
        Self {
            topology: ClusterTopology::flat(num_gpus, LinkSpec::for_device(&device)),
            device,
            num_gpus,
            engine,
            strategy: PlacementStrategy::CapacityGreedy,
        }
    }

    /// Replace the placement strategy.
    pub fn with_strategy(mut self, strategy: PlacementStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Bind every GPU into one flat island over `link`, replacing any
    /// topology set before.
    pub fn with_link(mut self, link: LinkSpec) -> Self {
        self.topology = ClusterTopology::flat(self.num_gpus, link);
        self
    }

    /// Set an explicit hierarchical topology (NVLink islands + spine). Its
    /// GPU count must match `num_gpus`: a mismatch surfaces as a step
    /// error from [`ClusterSimulator::step`] and as a construction panic
    /// from `ClusterBackend::new`.
    pub fn with_topology(mut self, topology: ClusterTopology) -> Self {
        self.topology = topology;
        self
    }

    /// Deploy the cluster in its device's natural multi-node form factor:
    /// islands of [`DeviceSpec::gpus_per_node`](samoyeds_gpu_sim::DeviceSpec::gpus_per_node)
    /// on the native fabric, stitched by an InfiniBand NDR spine once the
    /// fleet outgrows one node (see [`ClusterTopology::for_device`]).
    pub fn with_node_topology(mut self) -> Self {
        self.topology = ClusterTopology::for_device(&self.device, self.num_gpus);
        self
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
    /// milliseconds. Equals `all_to_all_ms` on a flat topology.
    pub intra_island_ms: f64,
    /// Spine (inter-island leader exchange) share of the collectives
    /// (dispatch + combine), milliseconds. Exactly 0 on a flat topology or
    /// when no token crosses an island boundary.
    pub spine_ms: f64,
    /// Bytes crossing island boundaries in one layer (dispatch + combine).
    pub cross_island_bytes: f64,
    /// One layer's step time: slowest GPU + both collectives.
    pub layer_time_ms: f64,
    /// Full-model step time (`layer_time_ms` × layers).
    pub model_time_ms: f64,
    /// Token-expert assignments dispatched across all replicas (equals the
    /// plan's `total_assignments`; the conservation invariant).
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
        &self.cluster.topology
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
            &self.cluster.topology,
            &self.memory,
            per_gpu,
            per_gpu,
        )
    }

    /// Whether the model fits this cluster at all for a batch of `tokens`:
    /// whether a uniform-load capacity-greedy placement succeeds. Under
    /// uniform loads that placement deals the experts out evenly, so it
    /// succeeds exactly when the balanced `ceil(E/g)` share is within the
    /// per-GPU expert capacity and a GPU holding that share fits its budget.
    pub fn fits(&self, tokens: usize) -> bool {
        let gpus = self.cluster.num_gpus;
        if gpus == 0 {
            return false;
        }
        let per_gpu = tokens.div_ceil(gpus);
        let share = self.model.num_experts.div_ceil(gpus);
        share <= self.memory.max_experts_per_gpu(per_gpu, per_gpu)
            && self.memory.fits(share, per_gpu, per_gpu)
    }

    /// Execute one cluster step over `plan` with the configured strategy's
    /// placement.
    pub fn step(&self, plan: &RoutingPlan) -> Result<ClusterStepReport> {
        let placement = self.placement_for(plan)?;
        self.step_with_placement(plan, placement)
    }

    /// Execute one cluster step over `plan` under an explicit `placement`:
    /// an adapter that counts the plan per (expert, source rank) with
    /// [`RoutingPlan::rank_loads`] and prices those counts with
    /// [`Self::step_with_rank_loads`].
    pub fn step_with_placement(
        &self,
        plan: &RoutingPlan,
        placement: ExpertPlacement,
    ) -> Result<ClusterStepReport> {
        // `rank_loads` cannot count into 0 ranks. A 0-GPU cluster fails the
        // topology check of `step_with_rank_loads` before the matrix is
        // read, so one rank stands in for it.
        let ranks = self.cluster.num_gpus.max(1);
        self.step_with_rank_loads(plan.num_tokens, &plan.rank_loads(ranks), placement)
    }

    /// Execute one cluster step over a batch of `num_tokens` tokens under
    /// an explicit `placement` (the serving backend supplies its own, with
    /// fallback, so a transient placement failure never aborts a running
    /// trace). `rank_loads` is the batch's routing counted per (expert,
    /// source rank) on this cluster's `g` GPUs, in the layout of
    /// [`TopKRouter::route_loads_seeded`](samoyeds_moe::router::TopKRouter::route_loads_seeded):
    /// entry `e * g + r` counts expert `e`'s tokens that start on rank `r`.
    ///
    /// A fresh-buffer form of the step core the serving backend prices
    /// through. Each expert's tokens from a source rank go to its nearest
    /// replicas (the one on that rank, else those in its island, else all
    /// of them, split evenly), and each GPU's compute is its replicas'
    /// token counts priced as one routed shard over the full batch, plus
    /// the replicated shared experts over the GPU's local tokens. Local
    /// shares differ by at most one token, so the shared experts are priced
    /// once per distinct share (at most twice a step), not once per GPU.
    ///
    /// Errors if the topology or the placement spans a different number
    /// of GPUs than the cluster, if the topology is invalid, if the
    /// matrix's length is not a multiple of `g`, or if the placement
    /// cannot serve the counts.
    pub fn step_with_rank_loads(
        &self,
        num_tokens: usize,
        rank_loads: &[usize],
        placement: ExpertPlacement,
    ) -> Result<ClusterStepReport> {
        let mut scratch = StepScratch::default();
        let price = self.price_step(num_tokens, rank_loads, &placement, &mut scratch)?;
        let layer_time_ms = price.straggler_ms + price.all_to_all_ms;
        Ok(ClusterStepReport {
            num_gpus: self.cluster.num_gpus,
            tokens: num_tokens,
            placement,
            all_to_all_ms: price.all_to_all_ms,
            intra_island_ms: price.intra_island_ms,
            spine_ms: price.spine_ms,
            cross_island_bytes: price.cross_island_bytes,
            layer_time_ms,
            model_time_ms: layer_time_ms * self.model.num_layers as f64,
            sharded_assignments: scratch.slot_loads.iter().sum(),
            per_gpu_compute_ms: scratch.per_gpu_ms,
        })
    }

    /// The step core behind [`Self::step_with_rank_loads`] and the serving
    /// backend: dispatch `rank_loads` over `placement` into `scratch`
    /// ([`Self::dispatch`]), price each GPU's compute (kept in `scratch`)
    /// and both collectives, and return what a step pays per layer.
    pub(crate) fn price_step(
        &self,
        num_tokens: usize,
        rank_loads: &[usize],
        placement: &ExpertPlacement,
        scratch: &mut StepScratch,
    ) -> Result<StepPrice> {
        let g = self.cluster.num_gpus;
        for (what, gpus) in [
            ("topology", self.cluster.topology.num_gpus()),
            ("placement", placement.num_gpus()),
        ] {
            if gpus != g {
                return Err(SparseError::config(format!(
                    "{what} spans {gpus} GPUs but the cluster has {g}"
                )));
            }
        }
        // A valid topology has at least one GPU, so `g > 0` from here on.
        self.cluster.topology.validate()?;
        if !rank_loads.len().is_multiple_of(g) {
            return Err(SparseError::config(format!(
                "{} routing counts do not split into rows of {g} ranks",
                rank_loads.len()
            )));
        }
        self.dispatch(rank_loads, placement, scratch)?;
        let token_bytes = self.model.hidden_size as f64 * 2.0;
        scratch
            .flows
            .set_tokens(g, &scratch.pair_tokens, token_bytes);

        // Routed experts: each GPU prices its replicas' token counts; the SEL
        // arrays index the global token batch, so `num_tokens` stays the
        // full batch. Shared experts are replicated and run over the GPU's
        // local tokens only: with token `t` on GPU `t mod g`, GPU `r` hosts
        // `base` tokens, plus one if `r < extra`.
        let shared_ms = |local: usize| {
            (self.model.num_shared_experts > 0 && local > 0).then(|| {
                self.engine
                    .moe_layer_cost_for_loads(&self.model, local, &[])
                    .time_ms
            })
        };
        let (base, extra) = (num_tokens / g, num_tokens % g);
        let shared_short = shared_ms(base);
        let shared_long = if extra > 0 { shared_ms(base + 1) } else { None };
        scratch.per_gpu_ms.clear();
        for gpu in 0..g {
            let mut ms = self
                .engine
                .moe_layer_cost_for_loads(
                    &self.routed_model,
                    num_tokens,
                    &scratch.slot_loads[placement.slots(gpu)],
                )
                .time_ms;
            let shared = if gpu < extra {
                shared_long
            } else {
                shared_short
            };
            if let Some(shared) = shared {
                ms += shared;
            }
            scratch.per_gpu_ms.push(ms);
        }

        // Combine moves the same bytes in reverse, and both phase costs are
        // symmetric in their endpoints, so the step pays the dispatch
        // collective twice.
        let cost = self.cluster.topology.all_to_all_ms(&scratch.flows);
        Ok(StepPrice {
            straggler_ms: scratch.per_gpu_ms.iter().fold(0.0f64, |m, &t| m.max(t)),
            all_to_all_ms: 2.0 * cost.total_ms(),
            intra_island_ms: 2.0 * cost.intra_ms,
            spine_ms: 2.0 * cost.spine_ms,
            cross_island_bytes: 2.0 * cost.cross_island_bytes,
        })
    }

    /// Dispatch the per-(expert, source rank) counts `rank_loads` (one row
    /// of `g` ranks per expert) over `placement`, into `scratch`: the token
    /// count of each of the placement's positions (each GPU's replicas in
    /// owned order) and the tokens each (source, destination) rank pair
    /// exchanges.
    ///
    /// The kernels price an expert by its token count alone, so all that
    /// matters is how many of each expert's tokens start on each rank
    /// (token `t` lives on rank `t mod g`). The `n` tokens of an expert
    /// from source rank `r` go to its nearest replicas: those on `r`
    /// itself, else those in `r`'s island, else all of them. Each of these
    /// `k` replicas, in assignment order, takes `⌊n/k⌋`; the `n mod k`
    /// leftovers go one each to the replicas from index `r mod k` on,
    /// wrapping around. At `k = 1` the rule gives the one nearest replica
    /// all `n` tokens, so that case skips the division. Under the shipped
    /// [`PlacementStrategy`]s it covers every cell of a placement that
    /// replicates nothing, and every cell a replicated expert serves from
    /// `r` itself or from `r`'s island; an expert with one replica skips
    /// the search for the nearest tier too. The pair counts are integers;
    /// the caller turns each into bytes once.
    ///
    /// The expert → replica index is one flat expert-major array of
    /// (rank, position) pairs, rebuilt into the same buffer every step by
    /// counting each expert's replicas and then filling them in assignment
    /// order.
    fn dispatch(
        &self,
        rank_loads: &[usize],
        placement: &ExpertPlacement,
        scratch: &mut StepScratch,
    ) -> Result<()> {
        let g = self.cluster.num_gpus;
        let experts = rank_loads.len() / g;
        let StepScratch {
            starts,
            replicas,
            slot_loads,
            pair_tokens,
            ..
        } = scratch;
        let owned = placement.experts();
        // Expert `e`'s replicas, in assignment order, are
        // `replicas[starts[e]..starts[e + 1]]`.
        starts.clear();
        starts.resize(experts + 1, 0);
        for &e in owned {
            if e >= experts {
                return Err(SparseError::config(format!(
                    "expert {e} out of range (plan has {experts})"
                )));
            }
            starts[e + 1] += 1;
        }
        for e in 0..experts {
            starts[e + 1] += starts[e];
        }
        replicas.clear();
        replicas.resize(owned.len(), (0, 0));
        for rank in 0..g {
            for slot in placement.slots(rank) {
                let e = owned[slot];
                replicas[starts[e]] = (rank, slot);
                starts[e] += 1;
            }
        }
        // The fill advanced each start to its expert's end, which is the
        // next expert's start: shift them back by one.
        starts.rotate_right(1);
        starts[0] = 0;

        let island_of = self.cluster.topology.island_lookup();
        slot_loads.clear();
        slot_loads.resize(owned.len(), 0);
        pair_tokens.clear();
        pair_tokens.resize(g * g, 0);
        for (e, from) in rank_loads.chunks_exact(g).enumerate() {
            let replicas = &replicas[starts[e]..starts[e + 1]];
            match *replicas {
                // A sole replica is every source's nearest: it takes all
                // of each source's tokens, and an idle cell adds nothing.
                [(rank, slot)] => {
                    slot_loads[slot] += from.iter().sum::<usize>();
                    for (src, &n) in from.iter().enumerate() {
                        pair_tokens[src * g + rank] += n;
                    }
                    continue;
                }
                [] => {
                    let routed: usize = from.iter().sum();
                    if routed > 0 {
                        return Err(SparseError::config(format!(
                            "expert {e} has {routed} routed tokens but no rank owns it"
                        )));
                    }
                    continue;
                }
                _ => {}
            }
            for (src, &n) in from.iter().enumerate().filter(|&(_, &n)| n > 0) {
                // 0: the source rank itself, 1: its island, 2: elsewhere.
                let distance = |rank: usize| {
                    usize::from(rank != src) + usize::from(island_of[rank] != island_of[src])
                };
                // The nearest tier, its first replica and its size `k`.
                let (mut nearest, mut first, mut k) = (usize::MAX, replicas[0], 0);
                for &(rank, slot) in replicas {
                    let d = distance(rank);
                    if d < nearest {
                        (nearest, first, k) = (d, (rank, slot), 1);
                    } else if d == nearest {
                        k += 1;
                    }
                }
                if k == 1 {
                    let (rank, slot) = first;
                    slot_loads[slot] += n;
                    pair_tokens[src * g + rank] += n;
                    continue;
                }
                let near = replicas
                    .iter()
                    .filter(|&&(rank, _)| distance(rank) == nearest);
                for (i, &(rank, slot)) in near.enumerate() {
                    let share = n / k + usize::from((i + k - src % k) % k < n % k);
                    slot_loads[slot] += share;
                    pair_tokens[src * g + rank] += share;
                }
            }
        }
        Ok(())
    }
}

/// What one priced step pays per layer, for the serving backend and
/// [`ClusterSimulator::step_with_rank_loads`] alike.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StepPrice {
    /// The slowest GPU's MoE compute, milliseconds.
    pub(crate) straggler_ms: f64,
    /// Dispatch + combine collectives, milliseconds.
    pub(crate) all_to_all_ms: f64,
    /// Their intra-island share, milliseconds.
    pub(crate) intra_island_ms: f64,
    /// Their spine share, milliseconds.
    pub(crate) spine_ms: f64,
    /// Bytes crossing island boundaries (dispatch + combine).
    pub(crate) cross_island_bytes: f64,
}

/// The reusable buffers of [`ClusterSimulator::price_step`]: the expert →
/// replica index, the token count of every placement position, the tokens
/// and bytes each rank pair exchanges and each GPU's compute. A new one
/// allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct StepScratch {
    starts: Vec<usize>,
    replicas: Vec<(usize, usize)>,
    slot_loads: Vec<usize>,
    pair_tokens: Vec<usize>,
    flows: FlowMatrix,
    per_gpu_ms: Vec<f64>,
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
            placement: ExpertPlacement::new(
                PlacementStrategy::RoundRobin,
                &[Vec::new(), Vec::new()],
            ),
            per_gpu_compute_ms: vec![0.0, 0.0],
            all_to_all_ms: 0.0,
            intra_island_ms: 0.0,
            spine_ms: 0.0,
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
    fn fits_answers_like_a_uniform_capacity_greedy_placement() {
        // `fits` reads the balanced share off the memory model: it must
        // agree with the placement it stands for on every cell, both
        // answers included.
        let (mut fit, mut oom) = (0, 0);
        for device in [DeviceSpec::rtx4070_super(), DeviceSpec::a100_40g()] {
            for engine in ClusterEngine::all() {
                for model in MoeModelConfig::table2() {
                    for tokens in [1usize, 1_024, 32_768, 1 << 20] {
                        for gpus in 0..=16 {
                            let sim = ClusterSimulator::new(
                                ClusterConfig::new(device.clone(), gpus, engine),
                                model.clone(),
                            );
                            let per_gpu = tokens.div_ceil(gpus.max(1));
                            let placed = PlacementStrategy::CapacityGreedy
                                .place(
                                    &vec![1; model.num_experts],
                                    gpus,
                                    sim.memory(),
                                    per_gpu,
                                    per_gpu,
                                )
                                .is_ok();
                            assert_eq!(
                                sim.fits(tokens),
                                placed,
                                "{} {engine:?} {} {tokens} tokens on {gpus} GPUs",
                                device.name,
                                model.name
                            );
                            if placed {
                                fit += 1;
                            } else {
                                oom += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(fit + oom, 2_448);
        assert!(fit > 0 && oom > 0, "{fit} fit, {oom} do not");
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
        // Conservation still holds through the island-affinity dispatch.
        assert_eq!(t_island.sharded_assignments, skewed.total_assignments());
    }

    /// A top-1 plan over `num_tokens` tokens that routes `routed[e]` to
    /// expert `e` and nothing to the rest of `config`'s experts.
    fn hand_plan(config: &MoeModelConfig, num_tokens: usize, routed: Vec<Vec<u32>>) -> RoutingPlan {
        let mut expert_tokens = routed;
        expert_tokens.resize(config.num_experts, Vec::new());
        RoutingPlan {
            num_tokens,
            top_k: 1,
            expert_weights: expert_tokens.iter().map(|t| vec![1.0; t.len()]).collect(),
            expert_tokens,
        }
    }

    /// An explicit placement; a step reads only its shard map.
    fn hand_placement(gpu_experts: Vec<Vec<usize>>) -> ExpertPlacement {
        ExpertPlacement::new(PlacementStrategy::ReplicateHot { hot: 1 }, &gpu_experts)
    }

    #[test]
    fn replicated_experts_split_their_load_within_each_island() {
        // Regression: an island's tokens must split across ALL of the
        // island's replicas, not pile onto the first one — otherwise
        // ReplicateHot degenerates to one loaded rank per island on
        // hierarchical topologies.
        let mut config = MoeModelConfig::qwen2_moe();
        config.num_shared_experts = 0;
        // Degenerate plan: every token routed to expert 0 only.
        let plan = hand_plan(&config, 256, vec![(0..256).collect()]);
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
            config.clone(),
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

        // Flat pod, experts 0 and 1 on every rank: 0 takes the even token
        // ids and 1 the odd ones, so a token's position in its expert's list
        // is not its id. Every token stays on its own rank's replica.
        let flat = ClusterSimulator::new(
            ClusterConfig::new(DeviceSpec::a100_40g(), 4, ClusterEngine::Samoyeds),
            config.clone(),
        );
        let plan = hand_plan(
            &config,
            600,
            vec![(0..600).step_by(2).collect(), (1..600).step_by(2).collect()],
        );
        let report = flat
            .step_with_placement(&plan, hand_placement(vec![vec![0, 1]; 4]))
            .unwrap();
        assert_eq!(report.all_to_all_ms, 0.0);
        assert_eq!(report.sharded_assignments, 600);

        // 2x3 islands, expert 0 on ranks 0 and 1 only: island 0's tokens
        // stay inside it, and each of island 1's 300 tokens crosses the
        // spine once per direction.
        let sim = ClusterSimulator::new(
            ClusterConfig::new(DeviceSpec::a100_40g(), 6, ClusterEngine::Samoyeds).with_topology(
                ClusterTopology::symmetric(2, 3, LinkSpec::nvlink3(), LinkSpec::infiniband_ndr())
                    .unwrap(),
            ),
            config.clone(),
        );
        let placement = hand_placement(vec![vec![0], vec![0], vec![], vec![], vec![], vec![]]);
        let report = sim
            .step_with_placement(
                &hand_plan(&config, 600, vec![(0..600).collect()]),
                placement,
            )
            .unwrap();
        assert_eq!(report.sharded_assignments, 600);
        let token_bytes = config.hidden_size as f64 * 2.0;
        assert_eq!(report.cross_island_bytes, 2.0 * 300.0 * token_bytes);
        assert_eq!(report.cross_island_bytes, 1_689_600.0);

        // The leftover rotation, at the count level: expert 0 on ranks 1
        // and 2 of island 0. Rank 0 sends 3 tokens to its island's two
        // replicas; the leftover goes to index 0 mod 2, rank 1. Island 1
        // holds no replica, so rank 3's 5 tokens split across both; the
        // leftover goes to index 3 mod 2, rank 2.
        let plan = hand_plan(&config, 30, vec![vec![0, 3, 6, 9, 12, 15, 21, 27]]);
        let placement = hand_placement(vec![vec![], vec![0], vec![0], vec![], vec![], vec![]]);
        let mut scratch = StepScratch::default();
        sim.price_step(30, &plan.rank_loads(6), &placement, &mut scratch)
            .unwrap();
        assert_eq!(scratch.slot_loads[placement.slots(1)], [2 + 2]);
        assert_eq!(scratch.slot_loads[placement.slots(2)], [1 + 3]);
        let flows = &scratch.flows;
        assert_eq!(flows.get(0, 1), 2.0 * token_bytes);
        assert_eq!(flows.get(0, 2), token_bytes);
        assert_eq!(flows.get(3, 1), 2.0 * token_bytes);
        assert_eq!(flows.get(3, 2), 3.0 * token_bytes);
    }

    #[test]
    fn placements_that_cannot_serve_the_plan_are_step_errors() {
        // Regression: a 3-GPU placement on a 2-GPU cluster indexed past the
        // per-GPU tables and panicked, and a 1-GPU one priced a single GPU,
        // halving the mean compute.
        let config = MoeModelConfig::qwen2_moe();
        let plan = plan(&config, 64);
        let sim = ClusterSimulator::new(
            ClusterConfig::new(DeviceSpec::a100_40g(), 2, ClusterEngine::Samoyeds),
            config,
        );
        let error = |gpu_experts: Vec<Vec<usize>>| {
            sim.step_with_placement(&plan, hand_placement(gpu_experts))
                .unwrap_err()
                .to_string()
        };
        let round_robin =
            |gpus: usize| (0..gpus).map(|g| (g..60).step_by(gpus).collect()).collect();
        for gpus in [3, 1] {
            assert!(error(round_robin(gpus)).contains(&format!(
                "placement spans {gpus} GPUs but the cluster has 2"
            )));
        }
        let mut out_of_range: Vec<Vec<usize>> = round_robin(2);
        out_of_range[1].push(60);
        assert!(error(out_of_range).contains("expert 60 out of range (plan has 60)"));
        let mut unowned: Vec<Vec<usize>> = round_robin(2);
        unowned[0].retain(|&e| e != 0);
        let stranded = format!(
            "expert 0 has {} routed tokens but no rank owns it",
            plan.tokens_for(0)
        );
        assert!(error(unowned).contains(&stranded));

        // A count matrix must hold one column per rank.
        let mut ragged = plan.rank_loads(2);
        ragged.pop();
        let ragged = sim
            .step_with_rank_loads(64, &ragged, hand_placement(round_robin(2)))
            .unwrap_err()
            .to_string();
        assert!(ragged.contains("119 routing counts do not split into rows of 2 ranks"));

        // A 0-GPU cluster is an error on both entry points, never a
        // division by zero.
        let empty = ClusterSimulator::new(
            ClusterConfig::new(DeviceSpec::a100_40g(), 0, ClusterEngine::Samoyeds),
            MoeModelConfig::qwen2_moe(),
        );
        assert!(empty.step(&plan).is_err());
        let no_gpus = empty
            .step_with_placement(&plan, hand_placement(Vec::new()))
            .unwrap_err()
            .to_string();
        assert!(no_gpus.contains("topology needs at least one island of at least one GPU"));
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
        assert_eq!(*consumer.topology().spine(), LinkSpec::infiniband_ndr());
        // An 8-GPU A100 pod stays inside one HGX node: flat NVLink.
        let a100 = ClusterSimulator::new(
            ClusterConfig::new(DeviceSpec::a100_40g(), 8, ClusterEngine::Samoyeds)
                .with_node_topology(),
            config,
        );
        assert!(a100.topology().is_flat());
        // Without a node layout a cluster is one flat island over the
        // device's native link, and `with_link` rebinds it flat over
        // another link, replacing any topology set before.
        let islands =
            ClusterTopology::symmetric(4, 2, LinkSpec::nvlink3(), LinkSpec::infiniband_ndr())
                .unwrap();
        for device in [DeviceSpec::a100_40g(), DeviceSpec::rtx4070_super()] {
            let base = ClusterConfig::new(device.clone(), 8, ClusterEngine::Samoyeds);
            assert_eq!(
                base.topology,
                ClusterTopology::flat(8, LinkSpec::for_device(&device))
            );
            for config in [base.clone(), base.with_topology(islands.clone())] {
                assert_eq!(
                    config.with_link(LinkSpec::nvlink4()).topology,
                    ClusterTopology::flat(8, LinkSpec::nvlink4())
                );
            }
        }
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
