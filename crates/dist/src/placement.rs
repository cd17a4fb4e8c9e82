//! Expert placement: which GPU owns which expert, under per-GPU memory
//! budgets.
//!
//! Expert parallelism shards the routed experts of every MoE layer across
//! the cluster while the attention blocks, the router and any shared experts
//! stay replicated on every GPU (the DeepSpeed-MoE / GShard deployment
//! shape). Placement decides the shard map. Three strategies are modeled:
//!
//! * **round-robin** — expert `e` to GPU `e mod g`; oblivious to load;
//! * **capacity-aware greedy** — experts in descending load order, each to
//!   the least-loaded GPU with memory headroom (LPT scheduling);
//! * **replicated hot experts** — the hottest experts are replicated on
//!   every GPU (splitting their traffic) and the rest placed greedily;
//! * **replicated hot experts per island** — topology-aware: one replica of
//!   each hot expert in every NVLink island (via
//!   [`PlacementStrategy::place_on`]), so their dispatch traffic stays off
//!   the inter-island spine.
//!
//! Every strategy validates the result against the per-GPU memory budget
//! built from the engine's weight representation — the cluster-level analogue
//! of the admission control in `samoyeds_serve::memory` (and the reason the
//! Samoyeds compressed format needs fewer GPUs than dense weights, the
//! fleet-sizing version of Table 3).

use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_kernels::samoyeds_kernel::SamoyedsOptions;
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::engines::{Engine, EngineKind};
use samoyeds_serve::MemoryModel as ServeMemoryModel;
use samoyeds_serve::{Diagnostic, ValidationReport};
use samoyeds_sparse::venom::VenomConfig;
use samoyeds_sparse::{Result, SparseError};
use serde::{Deserialize, Serialize};

/// The weight representations compared at the cluster level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ClusterEngine {
    /// Dense bf16 weights, Transformers-style execution.
    Dense,
    /// VENOM V:N:M weight sparsity (75%, V64:4:8): compressed weights but
    /// no input-side sparsity — the expert kernels still run on gathered
    /// dense inputs (the "+W" data flow of Figure 17).
    Venom,
    /// Samoyeds dual-side structured sparsity (SEL-driven kernels).
    Samoyeds,
}

impl ClusterEngine {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ClusterEngine::Dense => "Dense",
            ClusterEngine::Venom => "VENOM",
            ClusterEngine::Samoyeds => "Samoyeds",
        }
    }

    /// All cluster engines in presentation order.
    pub fn all() -> [ClusterEngine; 3] {
        [
            ClusterEngine::Dense,
            ClusterEngine::Venom,
            ClusterEngine::Samoyeds,
        ]
    }

    /// The execution engine that prices this representation's compute.
    pub fn engine(&self, device: &DeviceSpec) -> Engine {
        match self {
            ClusterEngine::Dense => Engine::new(EngineKind::Transformers, device.clone()),
            // VENOM-style weight-only sparsity maps onto the Samoyeds
            // engine's "+W" configuration: sparse weight kernels, dense
            // inputs, permute/un-permute round trips.
            ClusterEngine::Venom => Engine::new(EngineKind::Samoyeds, device.clone())
                .with_samoyeds_options(SamoyedsOptions::WEIGHT_ONLY),
            ClusterEngine::Samoyeds => Engine::new(EngineKind::Samoyeds, device.clone()),
        }
    }

    /// Resident MoE weight bytes of one decoder layer under this
    /// representation.
    pub fn moe_weight_bytes_per_layer(&self, device: &DeviceSpec, config: &MoeModelConfig) -> f64 {
        match self {
            // Dense and Samoyeds reuse the engine memory model directly.
            ClusterEngine::Dense | ClusterEngine::Samoyeds => {
                self.engine(device).weight_bytes(config)
            }
            // VENOM stores compressed values + 2:4 metadata (1.125x the
            // kept values) + per-panel column indices (n u16 ids per V x M
            // cell).
            ClusterEngine::Venom => {
                let venom = VenomConfig { v: 64, n: 4, m: 8 };
                let params = config.params_per_moe_layer() as f64;
                let dense = params * 2.0;
                let index_bytes = params * venom.n as f64 / (venom.v * venom.m) as f64 * 2.0;
                dense * (1.0 - venom.sparsity()) * 1.125 + index_bytes
            }
        }
    }
}

/// Per-GPU memory accounting of an expert-parallel deployment.
///
/// Resident on every GPU: the attention projections, the router and the
/// shared experts of every layer (replicated), plus the KV cache of the
/// tokens the GPU hosts and one layer's activation workspace. Resident only
/// on the owning GPU: each routed expert's weights across all layers.
#[derive(Debug, Clone)]
pub struct ClusterMemoryModel {
    engine: Engine,
    config: MoeModelConfig,
    budget_bytes: f64,
    base_bytes: f64,
    expert_bytes: f64,
    kv_bytes_per_token: f64,
}

impl ClusterMemoryModel {
    /// Build the per-GPU memory model.
    pub fn new(device: &DeviceSpec, engine: ClusterEngine, config: &MoeModelConfig) -> Self {
        let compute_engine = engine.engine(device);
        // Budget and KV-cache accounting are shared with the single-GPU
        // serving admission control (both are engine-independent) so the
        // two layers can never disagree about what fits a device.
        let serve_memory = ServeMemoryModel::new(device, compute_engine.kind(), config);
        let layers = config.num_layers as f64;
        let moe_layer = engine.moe_weight_bytes_per_layer(device, config);
        let expert_fraction =
            config.params_per_expert() as f64 / config.params_per_moe_layer() as f64;
        let expert_layer = moe_layer * expert_fraction;
        // Router + shared experts are whatever is left of the MoE layer once
        // the routed experts are taken out; attention weights ride along.
        let base_layer = moe_layer - config.num_experts as f64 * expert_layer
            + config.params_per_attention() as f64 * 2.0;
        Self {
            engine: compute_engine,
            config: config.clone(),
            budget_bytes: serve_memory.budget_bytes(),
            base_bytes: base_layer * layers,
            expert_bytes: expert_layer * layers,
            kv_bytes_per_token: serve_memory.kv_bytes(1),
        }
    }

    /// Usable bytes per GPU.
    pub fn budget_bytes(&self) -> f64 {
        self.budget_bytes
    }

    /// Bytes of one routed expert across all layers.
    pub fn expert_bytes(&self) -> f64 {
        self.expert_bytes
    }

    /// KV-cache bytes for `tokens` resident tokens.
    pub fn kv_bytes(&self, tokens: usize) -> f64 {
        tokens as f64 * self.kv_bytes_per_token
    }

    /// Total bytes on a GPU owning `experts` routed experts, hosting
    /// `resident_tokens` KV tokens and running a step over `step_tokens`.
    pub fn gpu_bytes(&self, experts: usize, resident_tokens: usize, step_tokens: usize) -> f64 {
        self.base_bytes
            + experts as f64 * self.expert_bytes
            + self.kv_bytes(resident_tokens)
            + self.engine.activation_bytes(&self.config, step_tokens)
    }

    /// Whether that GPU fits its budget.
    pub fn fits(&self, experts: usize, resident_tokens: usize, step_tokens: usize) -> bool {
        self.gpu_bytes(experts, resident_tokens, step_tokens) <= self.budget_bytes
    }

    /// The largest number of routed experts one GPU can own alongside
    /// `resident_tokens` KV tokens and `step_tokens` in flight (0 when even
    /// the replicated base does not fit).
    pub fn max_experts_per_gpu(&self, resident_tokens: usize, step_tokens: usize) -> usize {
        if !self.fits(0, resident_tokens, step_tokens) {
            return 0;
        }
        let free = self.budget_bytes - self.gpu_bytes(0, resident_tokens, step_tokens);
        (free / self.expert_bytes).floor() as usize
    }
}

/// Expert placement strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementStrategy {
    /// Expert `e` on GPU `e mod g`, oblivious to load.
    RoundRobin,
    /// Experts in descending load order, each to the least-loaded GPU with
    /// memory headroom (LPT scheduling).
    CapacityGreedy,
    /// The `hot` highest-load experts replicated on every GPU (their
    /// traffic splits evenly); the rest placed capacity-greedily.
    ReplicateHot {
        /// How many of the hottest experts to replicate.
        hot: usize,
    },
    /// Topology-aware: the `hot` highest-load experts get one replica in
    /// *every island* of the cluster topology (tokens then dispatch to the
    /// co-located replica, so the hot experts' traffic never crosses the
    /// spine), the rest placed capacity-greedily. On a flat topology this
    /// degenerates to placing the hot experts greedily first — one island
    /// means one replica.
    ReplicateHotPerIsland {
        /// How many of the hottest experts to replicate per island.
        hot: usize,
    },
}

impl PlacementStrategy {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            PlacementStrategy::RoundRobin => "round-robin",
            PlacementStrategy::CapacityGreedy => "capacity-greedy",
            PlacementStrategy::ReplicateHot { .. } => "replicate-hot",
            PlacementStrategy::ReplicateHotPerIsland { .. } => "replicate-hot-island",
        }
    }

    /// Place `loads.len()` experts on `num_gpus` GPUs with no topology
    /// information (every GPU in one island). `loads` is the per-expert
    /// load profile the strategy balances against — token counts or,
    /// better, a predicted per-expert cost profile (see
    /// `ClusterSimulator::expert_cost_profile`);
    /// `resident_tokens` / `step_tokens` parameterise the per-GPU memory
    /// headroom check (KV cache + activation workspace alongside weights).
    ///
    /// Errors when any GPU would exceed its memory budget — the caller
    /// decides whether to add GPUs or shrink the model.
    pub fn place(
        &self,
        loads: &[usize],
        num_gpus: usize,
        memory: &ClusterMemoryModel,
        resident_tokens: usize,
        step_tokens: usize,
    ) -> Result<ExpertPlacement> {
        self.place_islands(
            loads,
            &vec![0usize; num_gpus],
            memory,
            resident_tokens,
            step_tokens,
        )
    }

    /// Place experts over the islands of `topology` (the topology-aware
    /// entry point): [`PlacementStrategy::ReplicateHotPerIsland`] puts one
    /// replica of each hot expert in every island; the other strategies
    /// ignore the island structure and behave exactly like
    /// [`PlacementStrategy::place`] over `topology.num_gpus()` GPUs.
    pub fn place_on(
        &self,
        loads: &[usize],
        topology: &crate::topology::ClusterTopology,
        memory: &ClusterMemoryModel,
        resident_tokens: usize,
        step_tokens: usize,
    ) -> Result<ExpertPlacement> {
        self.place_islands(
            loads,
            &topology.island_lookup(),
            memory,
            resident_tokens,
            step_tokens,
        )
    }

    /// Shared core: place over `island_of.len()` GPUs where `island_of[g]`
    /// names GPU `g`'s island.
    fn place_islands(
        &self,
        loads: &[usize],
        island_of: &[usize],
        memory: &ClusterMemoryModel,
        resident_tokens: usize,
        step_tokens: usize,
    ) -> Result<ExpertPlacement> {
        let num_gpus = island_of.len();
        if num_gpus == 0 {
            return Err(SparseError::config("cluster needs at least one GPU"));
        }
        let num_experts = loads.len();
        let capacity = memory.max_experts_per_gpu(resident_tokens, step_tokens);
        let mut gpu_experts: Vec<Vec<usize>> = (0..num_gpus)
            .map(|_| Vec::with_capacity(num_experts.min(capacity)))
            .collect();
        // Experts in descending load order, ties by id. The key is unique,
        // so an unstable sort gives the one order.
        let by_load = || {
            let mut order: Vec<usize> = (0..num_experts).collect();
            order.sort_unstable_by_key(|&e| (std::cmp::Reverse(loads[e]), e));
            order
        };

        // The one tie-breaking rule every pass uses: least effective load,
        // then fewest owned experts, then lowest GPU id.
        fn least_loaded(
            candidates: impl Iterator<Item = usize>,
            effective: &[f64],
            gpu_experts: &[Vec<usize>],
        ) -> Option<usize> {
            candidates.min_by(|&a, &b| {
                effective[a]
                    .partial_cmp(&effective[b])
                    .expect("finite loads")
                    .then(gpu_experts[a].len().cmp(&gpu_experts[b].len()))
                    .then(a.cmp(&b))
            })
        }

        // Shared greedy core: experts in descending load order, least
        // effective load first, bounded by the per-GPU expert capacity.
        let greedy = |experts: &mut dyn Iterator<Item = usize>,
                      gpu_experts: &mut Vec<Vec<usize>>,
                      effective: &mut Vec<f64>|
         -> Result<()> {
            for e in experts {
                let candidate = least_loaded(
                    (0..num_gpus).filter(|&g| gpu_experts[g].len() < capacity),
                    effective,
                    gpu_experts,
                );
                match candidate {
                    Some(g) => {
                        gpu_experts[g].push(e);
                        effective[g] += loads[e] as f64;
                    }
                    None => {
                        return Err(SparseError::config(format!(
                            "no GPU has memory headroom for expert {e} \
                             (capacity {capacity} experts/GPU over {num_gpus} GPUs)"
                        )))
                    }
                }
            }
            Ok(())
        };

        match self {
            PlacementStrategy::RoundRobin => {
                for e in 0..num_experts {
                    gpu_experts[e % num_gpus].push(e);
                }
            }
            PlacementStrategy::CapacityGreedy => {
                let mut effective = vec![0.0f64; num_gpus];
                greedy(&mut by_load().into_iter(), &mut gpu_experts, &mut effective)?;
            }
            PlacementStrategy::ReplicateHot { hot } => {
                let order = by_load();
                let (hot_set, cold) = order.split_at((*hot).min(num_experts));
                let mut effective = vec![0.0f64; num_gpus];
                for &e in hot_set {
                    // A replica on every GPU; the traffic splits g ways.
                    for (g, owned) in gpu_experts.iter_mut().enumerate() {
                        owned.push(e);
                        effective[g] += loads[e] as f64 / num_gpus as f64;
                    }
                }
                greedy(&mut cold.iter().copied(), &mut gpu_experts, &mut effective)?;
            }
            PlacementStrategy::ReplicateHotPerIsland { hot } => {
                let num_islands = island_of.iter().copied().max().unwrap_or(0) + 1;
                let order = by_load();
                let (hot_set, cold) = order.split_at((*hot).min(num_experts));
                let mut effective = vec![0.0f64; num_gpus];
                for &e in hot_set {
                    // One replica per island, on the island's least-loaded
                    // GPU with headroom; intra-island dispatch splits the
                    // expert's traffic across the islands.
                    for island in 0..num_islands {
                        let candidate = least_loaded(
                            (0..num_gpus).filter(|&g| {
                                island_of[g] == island && gpu_experts[g].len() < capacity
                            }),
                            &effective,
                            &gpu_experts,
                        );
                        match candidate {
                            Some(g) => {
                                gpu_experts[g].push(e);
                                effective[g] += loads[e] as f64 / num_islands as f64;
                            }
                            None => {
                                return Err(SparseError::config(format!(
                                    "island {island} has no memory headroom for a replica of \
                                     hot expert {e} (capacity {capacity} experts/GPU)"
                                )))
                            }
                        }
                    }
                }
                greedy(&mut cold.iter().copied(), &mut gpu_experts, &mut effective)?;
            }
        }

        let placement = ExpertPlacement {
            strategy: *self,
            gpu_experts,
        };
        placement.validate(memory, resident_tokens, step_tokens)?;
        Ok(placement)
    }
}

/// A concrete expert-to-GPU shard map.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpertPlacement {
    /// The strategy that produced the map.
    pub strategy: PlacementStrategy,
    /// For each GPU, the global expert ids it owns (an expert on several
    /// GPUs is a replicated hot expert).
    pub gpu_experts: Vec<Vec<usize>>,
}

impl ExpertPlacement {
    /// Number of GPUs.
    pub fn num_gpus(&self) -> usize {
        self.gpu_experts.len()
    }

    /// The shard map: for each GPU, the global expert ids it owns, in the
    /// order [`ClusterSimulator::step_with_placement`](crate::ClusterSimulator::step_with_placement)
    /// prices them.
    pub fn assignments(&self) -> &[Vec<usize>] {
        &self.gpu_experts
    }

    /// How many replicas each of `num_experts` experts has.
    ///
    /// Panics if some GPU owns an expert id `>= num_experts`.
    pub fn replica_counts(&self, num_experts: usize) -> Vec<usize> {
        let mut counts = vec![0usize; num_experts];
        for owned in &self.gpu_experts {
            for &e in owned {
                counts[e] += 1;
            }
        }
        counts
    }

    /// Per-GPU effective token load under `loads` (a replicated expert's
    /// load splits evenly across its replicas).
    ///
    /// Panics if some GPU owns an expert id `>= loads.len()`.
    pub fn effective_gpu_loads(&self, loads: &[usize]) -> Vec<f64> {
        let replicas = self.replica_counts(loads.len());
        self.gpu_experts
            .iter()
            .map(|owned| {
                owned
                    .iter()
                    .map(|&e| loads[e] as f64 / replicas[e].max(1) as f64)
                    .sum()
            })
            .collect()
    }

    /// Load imbalance across GPUs: max effective load over the mean.
    ///
    /// Panics if some GPU owns an expert id `>= loads.len()`.
    pub fn imbalance(&self, loads: &[usize]) -> f64 {
        let effective = self.effective_gpu_loads(loads);
        let total: f64 = effective.iter().sum();
        // Division guard: a sum of non-negative loads is exactly 0.0 only
        // when every load is zero.
        if total == 0.0 {
            return 1.0;
        }
        let mean = total / effective.len() as f64;
        effective.iter().fold(0.0f64, |m, &l| m.max(l)) / mean
    }

    /// Check every GPU against its memory budget, reporting *every*
    /// over-budget GPU (code `placement::over-budget`) instead of stopping
    /// at the first — the diagnostic form of [`Self::validate`].
    pub fn validate_diagnostics(
        &self,
        memory: &ClusterMemoryModel,
        resident_tokens: usize,
        step_tokens: usize,
    ) -> ValidationReport {
        let mut report = ValidationReport::new();
        for (g, owned) in self.gpu_experts.iter().enumerate() {
            if !memory.fits(owned.len(), resident_tokens, step_tokens) {
                report.push(Diagnostic::deny(
                    "placement::over-budget",
                    format!("ExpertPlacement gpu[{g}]"),
                    format!(
                        "GPU {g} exceeds its memory budget: {} experts need {:.2} GiB of {:.2} GiB",
                        owned.len(),
                        memory.gpu_bytes(owned.len(), resident_tokens, step_tokens)
                            / (1u64 << 30) as f64,
                        memory.budget_bytes() / (1u64 << 30) as f64,
                    ),
                    "spread experts across more GPUs, compress the weights, or shrink the \
                     resident token pool",
                ));
            }
        }
        report
    }

    /// Check every GPU against its memory budget, failing on the first
    /// over-budget GPU. Use [`Self::validate_diagnostics`] to see them all.
    pub fn validate(
        &self,
        memory: &ClusterMemoryModel,
        resident_tokens: usize,
        step_tokens: usize,
    ) -> Result<()> {
        match self
            .validate_diagnostics(memory, resident_tokens, step_tokens)
            .diagnostics()
            .first()
        {
            Some(d) => Err(SparseError::config(d.message.clone())),
            None => Ok(()),
        }
    }
}

/// One expert weight transfer in a [`RecoveryPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExpertMove {
    /// The expert being re-placed.
    pub expert: usize,
    /// The GPU the weights stream from (a surviving replica, or the
    /// checkpoint-staging GPU for sole-copy experts).
    pub from: usize,
    /// The surviving GPU that takes the new copy.
    pub to: usize,
}

/// The re-placement a crashed GPU's experts get, with the weight-transfer
/// bill priced over the cluster topology.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPlan {
    /// The post-recovery shard map: the crashed GPU's slot is kept (empty)
    /// so GPU ids stay stable; every lost expert has a new home among the
    /// survivors.
    pub placement: ExpertPlacement,
    /// One entry per re-placed expert copy.
    pub moves: Vec<ExpertMove>,
    /// Total weight bytes transferred.
    pub transfer_bytes: f64,
    /// The transfer priced as one all-to-all over the topology: intra-island
    /// moves ride the island fabric, cross-island moves pay the spine.
    pub cost: crate::topology::HierarchicalCost,
}

impl RecoveryPlan {
    /// Wall-clock of the weight transfer.
    pub fn transfer_ms(&self) -> f64 {
        self.cost.total_ms()
    }
}

/// Re-place the experts lost when `crashed_gpu` dies, from surviving
/// replicas where they exist.
///
/// Every expert copy the crashed GPU owned gets a new home on a surviving
/// GPU with memory headroom that does not already own it — least effective
/// load first, then fewest owned experts, then lowest GPU id (the same
/// tie-break as the greedy placement core), taking the hottest experts
/// first. A copy that every survivor already holds (a hot expert replicated
/// on every GPU) is not moved: its tokens split over the survivors' copies.
/// The weights stream from a surviving replica of the same expert
/// (preferring one in the destination's island, so the copy stays off the
/// spine); a *sole-copy* expert has no survivor, so its weights stream from
/// `checkpoint_gpu` — the GPU staging host checkpoints — and the call fails
/// if none is given. The resulting transfer is priced as one all-to-all
/// over `topology`, honoring dedicated pair links.
///
/// Errors if `crashed_gpu` or `checkpoint_gpu` is out of range, if
/// `checkpoint_gpu` is the crashed GPU, if no survivor remains, if `loads`
/// does not cover every expert the placement owns, if a sole-copy expert is
/// lost without a `checkpoint_gpu`, or if no survivor that lacks a lost
/// expert has the memory headroom to absorb it.
#[allow(
    clippy::too_many_arguments,
    reason = "the crash, its loads, the topology and the memory budget are independent inputs"
)]
pub fn replan_after_crash(
    placement: &ExpertPlacement,
    crashed_gpu: usize,
    loads: &[usize],
    topology: &crate::topology::ClusterTopology,
    memory: &ClusterMemoryModel,
    resident_tokens: usize,
    step_tokens: usize,
    checkpoint_gpu: Option<usize>,
) -> Result<RecoveryPlan> {
    let num_gpus = placement.num_gpus();
    if crashed_gpu >= num_gpus {
        return Err(SparseError::config(format!(
            "crashed GPU {crashed_gpu} out of range for a {num_gpus}-GPU placement"
        )));
    }
    if let Some(checkpoint) = checkpoint_gpu.filter(|&g| g >= num_gpus) {
        return Err(SparseError::config(format!(
            "checkpoint GPU {checkpoint} out of range for a {num_gpus}-GPU placement"
        )));
    }
    if checkpoint_gpu == Some(crashed_gpu) {
        return Err(SparseError::config(format!(
            "checkpoint GPU {crashed_gpu} is the crashed GPU"
        )));
    }
    if num_gpus < 2 {
        return Err(SparseError::config(
            "recovery needs at least one surviving GPU",
        ));
    }
    if topology.num_gpus() != num_gpus {
        return Err(SparseError::config(format!(
            "topology covers {} GPUs but the placement has {num_gpus}",
            topology.num_gpus()
        )));
    }
    if let Some((gpu, e)) = placement
        .gpu_experts
        .iter()
        .enumerate()
        .find_map(|(g, owned)| owned.iter().find(|&&e| e >= loads.len()).map(|&e| (g, e)))
    {
        return Err(SparseError::config(format!(
            "loads cover {} experts but GPU {gpu} owns expert {e}",
            loads.len()
        )));
    }
    let capacity = memory.max_experts_per_gpu(resident_tokens, step_tokens);
    let island_of = topology.island_lookup();

    let mut gpu_experts = placement.gpu_experts.clone();
    let mut lost: Vec<usize> = std::mem::take(&mut gpu_experts[crashed_gpu]);
    // Hottest first, ties by id: the order the greedy core would use.
    lost.sort_by_key(|&e| (std::cmp::Reverse(loads[e]), e));

    // Effective load per survivor under the post-crash replica counts.
    let interim = ExpertPlacement {
        strategy: placement.strategy,
        gpu_experts: gpu_experts.clone(),
    };
    let mut effective = interim.effective_gpu_loads(loads);

    let mut moves = Vec::with_capacity(lost.len());
    let mut flows = crate::topology::FlowMatrix::new(num_gpus);
    let expert_bytes = memory.expert_bytes();
    for e in lost {
        // A copy every survivor already holds needs no new home.
        if (0..num_gpus).all(|g| g == crashed_gpu || gpu_experts[g].contains(&e)) {
            continue;
        }
        let load = loads[e] as f64;
        let dest = (0..num_gpus)
            .filter(|&g| {
                g != crashed_gpu && gpu_experts[g].len() < capacity && !gpu_experts[g].contains(&e)
            })
            .min_by(|&a, &b| {
                effective[a]
                    .partial_cmp(&effective[b])
                    .expect("finite loads")
                    .then(gpu_experts[a].len().cmp(&gpu_experts[b].len()))
                    .then(a.cmp(&b))
            })
            .ok_or_else(|| {
                SparseError::config(format!(
                    "no surviving GPU has memory headroom for expert {e} \
                     (capacity {capacity} experts/GPU)"
                ))
            })?;
        // Source: a surviving replica, same island as the destination if one
        // exists; otherwise the checkpoint-staging GPU.
        let survivors: Vec<usize> = (0..num_gpus)
            .filter(|&g| g != crashed_gpu && gpu_experts[g].contains(&e))
            .collect();
        let source = survivors
            .iter()
            .copied()
            .find(|&g| island_of[g] == island_of[dest])
            .or_else(|| survivors.first().copied())
            .or(checkpoint_gpu)
            .ok_or_else(|| {
                SparseError::config(format!(
                    "expert {e} lost its only replica and no checkpoint GPU is staged"
                ))
            })?;
        gpu_experts[dest].push(e);
        effective[dest] += load;
        if source != dest {
            flows.add(source, dest, expert_bytes);
        }
        moves.push(ExpertMove {
            expert: e,
            from: source,
            to: dest,
        });
    }

    let placement = ExpertPlacement {
        strategy: placement.strategy,
        gpu_experts,
    };
    placement.validate(memory, resident_tokens, step_tokens)?;
    let cost = topology.all_to_all_ms(&flows);
    Ok(RecoveryPlan {
        placement,
        transfer_bytes: moves.len() as f64 * expert_bytes,
        moves,
        cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qwen_on_a100() -> (ClusterMemoryModel, MoeModelConfig) {
        let config = MoeModelConfig::qwen2_moe();
        (
            ClusterMemoryModel::new(&DeviceSpec::a100_40g(), ClusterEngine::Samoyeds, &config),
            config,
        )
    }

    #[test]
    fn memory_model_orders_representations() {
        let device = DeviceSpec::a100_40g();
        let config = MoeModelConfig::qwen2_moe();
        let dense = ClusterMemoryModel::new(&device, ClusterEngine::Dense, &config);
        let venom = ClusterMemoryModel::new(&device, ClusterEngine::Venom, &config);
        let samoyeds = ClusterMemoryModel::new(&device, ClusterEngine::Samoyeds, &config);
        // Compressed experts are a fraction of dense; VENOM and Samoyeds
        // land in the same ballpark (both keep 25% of values + metadata).
        assert!(samoyeds.expert_bytes() < dense.expert_bytes() * 0.4);
        assert!(venom.expert_bytes() < dense.expert_bytes() * 0.4);
        let ratio = venom.expert_bytes() / samoyeds.expert_bytes();
        assert!((0.8..1.2).contains(&ratio), "venom/samoyeds ratio {ratio}");
        // More compression -> more experts per GPU.
        assert!(samoyeds.max_experts_per_gpu(4096, 4096) > dense.max_experts_per_gpu(4096, 4096));
    }

    #[test]
    fn round_robin_and_greedy_place_every_expert_exactly_once() {
        let (memory, config) = qwen_on_a100();
        let loads = vec![100usize; config.num_experts];
        for strategy in [
            PlacementStrategy::RoundRobin,
            PlacementStrategy::CapacityGreedy,
        ] {
            let placement = strategy.place(&loads, 4, &memory, 1024, 1024).unwrap();
            assert_eq!(placement.num_gpus(), 4);
            let replicas = placement.replica_counts(config.num_experts);
            assert!(
                replicas.iter().all(|&c| c == 1),
                "{strategy:?} {replicas:?}"
            );
            placement.validate(&memory, 1024, 1024).unwrap();
        }
    }

    #[test]
    fn greedy_balances_skewed_loads_better_than_round_robin() {
        let (memory, config) = qwen_on_a100();
        // Zipf-ish load profile: expert 0 is hot.
        let loads: Vec<usize> = (0..config.num_experts)
            .map(|e| (4096.0 / ((e + 1) as f64).powf(1.3)) as usize)
            .collect();
        let rr = PlacementStrategy::RoundRobin
            .place(&loads, 8, &memory, 1024, 1024)
            .unwrap();
        let greedy = PlacementStrategy::CapacityGreedy
            .place(&loads, 8, &memory, 1024, 1024)
            .unwrap();
        assert!(
            greedy.imbalance(&loads) < rr.imbalance(&loads),
            "greedy {} vs rr {}",
            greedy.imbalance(&loads),
            rr.imbalance(&loads)
        );
    }

    #[test]
    fn replicating_the_hot_expert_cuts_the_straggler_load() {
        let (memory, config) = qwen_on_a100();
        let loads: Vec<usize> = (0..config.num_experts)
            .map(|e| if e == 0 { 4096 } else { 32 })
            .collect();
        let greedy = PlacementStrategy::CapacityGreedy
            .place(&loads, 8, &memory, 1024, 1024)
            .unwrap();
        let replicated = PlacementStrategy::ReplicateHot { hot: 1 }
            .place(&loads, 8, &memory, 1024, 1024)
            .unwrap();
        let max = |p: &ExpertPlacement| {
            p.effective_gpu_loads(&loads)
                .into_iter()
                .fold(0.0f64, f64::max)
        };
        // Greedy cannot split expert 0; replication divides it by 8.
        assert!(max(&replicated) < max(&greedy) * 0.5);
        assert_eq!(replicated.replica_counts(config.num_experts)[0], 8);
    }

    #[test]
    fn per_island_replication_puts_one_replica_in_every_island() {
        use crate::link::LinkSpec;
        use crate::topology::ClusterTopology;
        let (memory, config) = qwen_on_a100();
        let loads: Vec<usize> = (0..config.num_experts)
            .map(|e| if e < 2 { 4096 } else { 32 })
            .collect();
        let topology =
            ClusterTopology::symmetric(2, 4, LinkSpec::nvlink3(), LinkSpec::infiniband_ndr())
                .unwrap();
        let placement = PlacementStrategy::ReplicateHotPerIsland { hot: 2 }
            .place_on(&loads, &topology, &memory, 1024, 1024)
            .unwrap();
        let replicas = placement.replica_counts(config.num_experts);
        assert_eq!(&replicas[..2], &[2, 2], "one replica per island");
        assert!(replicas[2..].iter().all(|&c| c == 1));
        for island in 0..2 {
            for e in 0..2 {
                let members = topology.island_members(island);
                let owners = members
                    .filter(|&g| placement.gpu_experts[g].contains(&e))
                    .count();
                assert_eq!(owners, 1, "island {island} expert {e}");
            }
        }
        placement.validate(&memory, 1024, 1024).unwrap();
        // Without topology information there is one island, hence one
        // replica: the strategy degenerates to hot-first greedy.
        let flat = PlacementStrategy::ReplicateHotPerIsland { hot: 2 }
            .place(&loads, 8, &memory, 1024, 1024)
            .unwrap();
        assert!(flat
            .replica_counts(config.num_experts)
            .iter()
            .all(|&c| c == 1));
    }

    #[test]
    fn replan_after_crash_rehomes_every_lost_expert_within_budget() {
        use crate::link::LinkSpec;
        use crate::topology::ClusterTopology;
        let (memory, config) = qwen_on_a100();
        let loads: Vec<usize> = (0..config.num_experts)
            .map(|e| (4096.0 / ((e + 1) as f64).powf(1.3)) as usize)
            .collect();
        let topology =
            ClusterTopology::symmetric(2, 4, LinkSpec::nvlink3(), LinkSpec::infiniband_ndr())
                .unwrap();
        let placement = PlacementStrategy::CapacityGreedy
            .place_on(&loads, &topology, &memory, 1024, 1024)
            .unwrap();
        // Sole-copy experts everywhere: recovery needs the checkpoint GPU.
        assert!(
            replan_after_crash(&placement, 0, &loads, &topology, &memory, 1024, 1024, None)
                .is_err()
        );
        let plan = replan_after_crash(
            &placement,
            0,
            &loads,
            &topology,
            &memory,
            1024,
            1024,
            Some(7),
        )
        .unwrap();
        // The crashed slot is kept but empty; every expert still has a copy.
        assert!(plan.placement.gpu_experts[0].is_empty());
        let replicas = plan.placement.replica_counts(config.num_experts);
        assert!(replicas.iter().all(|&c| c >= 1), "{replicas:?}");
        assert_eq!(plan.moves.len(), placement.gpu_experts[0].len());
        assert!(plan.moves.iter().all(|m| m.from == 7 && m.to != 0));
        assert!(plan.transfer_bytes > 0.0);
        assert!(plan.transfer_ms() > 0.0 && plan.transfer_ms().is_finite());
        plan.placement.validate(&memory, 1024, 1024).unwrap();
        // A checkpoint GPU outside the placement is an error up front, not
        // an out-of-bounds transfer.
        for checkpoint in [8, 99] {
            let err = replan_after_crash(
                &placement,
                0,
                &loads,
                &topology,
                &memory,
                1024,
                1024,
                Some(checkpoint),
            )
            .unwrap_err();
            assert!(err.to_string().contains("out of range"), "{err}");
        }
    }

    #[test]
    fn replan_rejects_the_crashed_gpu_as_its_checkpoint() {
        use crate::link::LinkSpec;
        use crate::topology::ClusterTopology;
        // The fault sweep's recovery: 2×4 capacity-greedy Qwen2-MoE on
        // A100, uniform loads, GPU 0 crashed. A checkpoint staged behind
        // the dead GPU cannot stream the sole-copy experts it lost.
        let (memory, config) = qwen_on_a100();
        let loads = vec![1_024usize; config.num_experts];
        let topology =
            ClusterTopology::symmetric(2, 4, LinkSpec::nvlink3(), LinkSpec::infiniband_ndr())
                .unwrap();
        let placement = PlacementStrategy::CapacityGreedy
            .place_on(&loads, &topology, &memory, 1_024, 1_024)
            .unwrap();
        let replan = |checkpoint| {
            replan_after_crash(
                &placement,
                0,
                &loads,
                &topology,
                &memory,
                1_024,
                1_024,
                Some(checkpoint),
            )
        };
        let err = replan(0).unwrap_err();
        assert!(err.to_string().contains("crashed GPU"), "{err}");
        assert!(replan(4).is_ok());
    }

    #[test]
    fn replan_rejects_loads_that_miss_an_owned_expert() {
        use crate::link::LinkSpec;
        use crate::topology::ClusterTopology;
        // Regression: the fault sweep's 2×4 capacity-greedy recovery with
        // loads for only the first 10 experts panicked with an out-of-bounds
        // index while counting replicas.
        let (memory, config) = qwen_on_a100();
        let topology =
            ClusterTopology::symmetric(2, 4, LinkSpec::nvlink3(), LinkSpec::infiniband_ndr())
                .unwrap();
        let loads = vec![1_024usize; config.num_experts];
        let placement = PlacementStrategy::CapacityGreedy
            .place_on(&loads, &topology, &memory, 1_024, 1_024)
            .unwrap();
        let first_uncovered = placement.gpu_experts[0]
            .iter()
            .copied()
            .find(|&e| e >= 10)
            .unwrap();
        let err = replan_after_crash(
            &placement,
            0,
            &loads[..10],
            &topology,
            &memory,
            1_024,
            1_024,
            Some(4),
        )
        .unwrap_err();
        assert!(
            err.to_string().contains(&format!(
                "loads cover 10 experts but GPU 0 owns expert {first_uncovered}"
            )),
            "{err}"
        );
    }

    #[test]
    fn replan_prefers_surviving_replicas_in_the_destination_island() {
        use crate::link::LinkSpec;
        use crate::topology::ClusterTopology;
        let (memory, config) = qwen_on_a100();
        let loads: Vec<usize> = (0..config.num_experts)
            .map(|e| if e < 2 { 4096 } else { 32 })
            .collect();
        let topology =
            ClusterTopology::symmetric(2, 4, LinkSpec::nvlink3(), LinkSpec::infiniband_ndr())
                .unwrap();
        // Hot experts have a replica in each island, so a crash can always
        // re-clone them from a survivor without touching the checkpoint.
        let placement = PlacementStrategy::ReplicateHotPerIsland { hot: 2 }
            .place_on(&loads, &topology, &memory, 1024, 1024)
            .unwrap();
        let plan = replan_after_crash(
            &placement,
            0,
            &loads,
            &topology,
            &memory,
            1024,
            1024,
            Some(4),
        )
        .unwrap();
        for m in &plan.moves {
            if m.expert < 2 {
                // A replicated expert streams from a surviving replica, and
                // the survivor chosen shares the destination's island when
                // one exists there.
                assert!(placement.gpu_experts[m.from].contains(&m.expert));
            }
        }
        // Nothing exceeds budget and the crashed GPU stays empty.
        plan.placement.validate(&memory, 1024, 1024).unwrap();
        assert!(plan.placement.gpu_experts[0].is_empty());
        // Degenerate calls fail loudly.
        assert!(
            replan_after_crash(&placement, 99, &loads, &topology, &memory, 1024, 1024, None)
                .is_err()
        );
        let one_gpu = ExpertPlacement {
            strategy: PlacementStrategy::RoundRobin,
            gpu_experts: vec![vec![0]],
        };
        let flat = ClusterTopology::flat(1, LinkSpec::nvlink3());
        assert!(
            replan_after_crash(&one_gpu, 0, &[1], &flat, &memory, 1024, 1024, Some(0)).is_err()
        );
    }

    #[test]
    fn replan_keeps_hot_copies_every_survivor_already_holds() {
        use crate::link::LinkSpec;
        use crate::topology::ClusterTopology;
        // Regression: on a flat hot-replicated pod every survivor already
        // owns GPU 0's hot copies, and the replan failed for want of a GPU
        // to take them.
        let (memory, config) = qwen_on_a100();
        let loads: Vec<usize> = (0..config.num_experts)
            .map(|e| (4096.0 / ((e + 1) as f64).powf(1.3)) as usize)
            .collect();
        let placement = PlacementStrategy::ReplicateHot { hot: 2 }
            .place(&loads, 4, &memory, 1024, 1024)
            .unwrap();
        let replicas = placement.replica_counts(config.num_experts);
        let hot: Vec<usize> = (0..config.num_experts)
            .filter(|&e| replicas[e] == 4)
            .collect();
        assert_eq!(hot.len(), 2);
        let topology = ClusterTopology::flat(4, LinkSpec::nvlink3());
        let plan = replan_after_crash(
            &placement,
            0,
            &loads,
            &topology,
            &memory,
            1024,
            1024,
            Some(1),
        )
        .unwrap();
        assert!(plan.moves.iter().all(|m| !hot.contains(&m.expert)));
        let counts = plan.placement.replica_counts(config.num_experts);
        assert!(hot.iter().all(|&e| counts[e] == 3), "{counts:?}");
        for &e in placement.gpu_experts[0].iter().filter(|e| !hot.contains(e)) {
            assert_eq!(plan.moves.iter().filter(|m| m.expert == e).count(), 1);
        }
        assert!(plan.placement.gpu_experts[0].is_empty());
    }

    #[test]
    fn placement_errors_when_the_cluster_is_too_small() {
        let config = MoeModelConfig::qwen2_moe();
        let memory =
            ClusterMemoryModel::new(&DeviceSpec::rtx4070_super(), ClusterEngine::Dense, &config);
        let loads = vec![100usize; config.num_experts];
        // Dense Qwen2 cannot fit a 12 GiB card with one GPU.
        assert!(PlacementStrategy::CapacityGreedy
            .place(&loads, 1, &memory, 1024, 1024)
            .is_err());
        assert!(PlacementStrategy::RoundRobin
            .place(&loads, 1, &memory, 1024, 1024)
            .is_err());
    }
}
