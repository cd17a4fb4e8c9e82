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
use samoyeds_moe::memory::{kv_bytes_per_token, usable_bytes};
use samoyeds_serve::{Diagnostic, ValidationReport};
use samoyeds_sparse::venom::VenomConfig;
use samoyeds_sparse::{Result, SparseError};

/// The weight representations compared at the cluster level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

    /// The engine kind this representation runs on, which sets its kernel
    /// support and its activation workspace. VENOM's "+W" configuration
    /// runs on the Samoyeds engine; its weights still follow
    /// [`Self::moe_weight_bytes_per_layer`].
    pub fn kind(&self) -> EngineKind {
        match self {
            ClusterEngine::Dense => EngineKind::Transformers,
            ClusterEngine::Venom | ClusterEngine::Samoyeds => EngineKind::Samoyeds,
        }
    }

    /// The execution engine that prices this representation's compute.
    pub fn engine(&self, device: &DeviceSpec) -> Engine {
        let engine = Engine::new(self.kind(), device.clone());
        match self {
            // VENOM-style weight-only sparsity maps onto the Samoyeds
            // engine's "+W" configuration: sparse weight kernels, dense
            // inputs, permute/un-permute round trips.
            ClusterEngine::Venom => engine.with_samoyeds_options(SamoyedsOptions::WEIGHT_ONLY),
            ClusterEngine::Dense | ClusterEngine::Samoyeds => engine,
        }
    }

    /// Resident MoE weight bytes of one decoder layer under this
    /// representation.
    pub fn moe_weight_bytes_per_layer(&self, config: &MoeModelConfig) -> f64 {
        match self {
            // Dense and Samoyeds reuse the engine memory model directly.
            ClusterEngine::Dense | ClusterEngine::Samoyeds => self.kind().weight_bytes(config),
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
/// on the owning GPU: each routed expert's weights across all layers. All
/// of it is read off the device and the representation's formulas at
/// construction, so the model is five numbers.
#[derive(Debug, Clone)]
pub struct ClusterMemoryModel {
    budget_bytes: f64,
    base_bytes: f64,
    expert_bytes: f64,
    kv_bytes_per_token: f64,
    activation_bytes_per_token: f64,
}

impl ClusterMemoryModel {
    /// Build the per-GPU memory model.
    pub fn new(device: &DeviceSpec, engine: ClusterEngine, config: &MoeModelConfig) -> Self {
        let layers = config.num_layers as f64;
        let moe_layer = engine.moe_weight_bytes_per_layer(config);
        let expert_fraction =
            config.params_per_expert() as f64 / config.params_per_moe_layer() as f64;
        let expert_layer = moe_layer * expert_fraction;
        // Router + shared experts are whatever is left of the MoE layer once
        // the routed experts are taken out; attention weights ride along.
        let base_layer = moe_layer - config.num_experts as f64 * expert_layer
            + config.params_per_attention() as f64 * 2.0;
        Self {
            // The budget and the KV cache price exactly as the single-GPU
            // serving memory model's do, so the two layers can never
            // disagree about what fits a device.
            budget_bytes: usable_bytes(device),
            base_bytes: base_layer * layers,
            expert_bytes: expert_layer * layers,
            kv_bytes_per_token: kv_bytes_per_token(config) * layers,
            // Exact: see `EngineKind::activation_bytes`.
            activation_bytes_per_token: engine.kind().activation_bytes(config, 1),
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

    /// Transient activation workspace for a step over `step_tokens` tokens
    /// (one layer live at a time).
    fn activation_bytes(&self, step_tokens: usize) -> f64 {
        step_tokens as f64 * self.activation_bytes_per_token
    }

    /// Total bytes on a GPU owning `experts` routed experts, hosting
    /// `resident_tokens` KV tokens and running a step over `step_tokens`.
    pub fn gpu_bytes(&self, experts: usize, resident_tokens: usize, step_tokens: usize) -> f64 {
        self.base_bytes
            + experts as f64 * self.expert_bytes
            + self.kv_bytes(resident_tokens)
            + self.activation_bytes(step_tokens)
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
        let mut scratch = PlacementScratch::default();
        self.place_into(
            loads,
            &vec![0usize; num_gpus],
            memory,
            resident_tokens,
            step_tokens,
            &mut scratch,
        )?;
        Ok(scratch.placement)
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
        let mut scratch = PlacementScratch::default();
        self.place_into(
            loads,
            topology.island_lookup(),
            memory,
            resident_tokens,
            step_tokens,
            &mut scratch,
        )?;
        Ok(scratch.placement)
    }

    /// Routed experts on the straggler GPU when this strategy places
    /// `num_experts` experts on `num_gpus >= 1` GPUs in `num_islands`
    /// islands: the expert count a serving pod admits against, so that
    /// every placement its steps make fits once admission has passed.
    ///
    /// Balanced shares for the non-replicating strategies, plus a full copy
    /// of every replicated hot expert otherwise.
    pub(crate) fn straggler_experts(
        &self,
        num_experts: usize,
        num_gpus: usize,
        num_islands: usize,
    ) -> usize {
        match *self {
            PlacementStrategy::RoundRobin | PlacementStrategy::CapacityGreedy => {
                num_experts.div_ceil(num_gpus)
            }
            PlacementStrategy::ReplicateHot { hot } => {
                let hot = hot.min(num_experts);
                hot + (num_experts - hot).div_ceil(num_gpus)
            }
            // Per-island replication concentrates the hot replicas on at
            // most `islands * hot` ranks; a skewed hot load can then repel
            // the greedy cold pass entirely onto the remaining ranks, so the
            // straggler is either a replica host (≤ hot replicas plus a
            // balanced cold share) or a cold-packed non-replica rank (ceil
            // share over the ranks the cold pass is left with).
            PlacementStrategy::ReplicateHotPerIsland { hot } => {
                let hot = hot.min(num_experts);
                let cold = num_experts - hot;
                let replica_hosts = (num_islands.min(num_gpus) * hot).min(num_gpus);
                let balanced = hot + cold.div_ceil(num_gpus);
                if replica_hosts < num_gpus {
                    balanced.max(cold.div_ceil(num_gpus - replica_hosts))
                } else {
                    balanced
                }
            }
        }
    }

    /// The one placement core behind [`Self::place`], [`Self::place_on`]
    /// and the serving backend: place over `island_of.len()` GPUs, where
    /// `island_of[g]` names GPU `g`'s island, into `scratch`, whose buffers
    /// are reused from call to call. On success the placement is
    /// [`PlacementScratch::placement`] until the next call.
    ///
    /// Every strategy but round-robin takes the experts in descending load
    /// order, ties by id (one sort of packed `(load, id)` keys), and every
    /// choice of GPU takes the least effective load, then the fewest owned
    /// experts, then the lowest id. Each expert placed is noted with its
    /// GPU; the notes are then grouped by GPU, in the order they were made,
    /// into the placement's one flat expert list.
    pub(crate) fn place_into(
        &self,
        loads: &[usize],
        island_of: &[usize],
        memory: &ClusterMemoryModel,
        resident_tokens: usize,
        step_tokens: usize,
        scratch: &mut PlacementScratch,
    ) -> Result<()> {
        let num_gpus = island_of.len();
        if num_gpus == 0 {
            return Err(SparseError::config("cluster needs at least one GPU"));
        }
        let num_experts = loads.len();
        let capacity = memory.max_experts_per_gpu(resident_tokens, step_tokens);
        let PlacementScratch {
            order,
            effective,
            owned,
            picks,
            placement,
        } = scratch;
        effective.clear();
        effective.resize(num_gpus, 0.0);
        owned.clear();
        owned.resize(num_gpus, 0);
        picks.clear();
        picks.reserve(num_experts);
        match *self {
            PlacementStrategy::RoundRobin => {
                for e in 0..num_experts {
                    picks.push((e % num_gpus, e));
                    owned[e % num_gpus] += 1;
                }
            }
            PlacementStrategy::CapacityGreedy => {
                let (_, order) = by_load(loads, order, 0);
                greedy(
                    order.iter().copied(),
                    loads,
                    capacity,
                    effective,
                    owned,
                    picks,
                )?;
            }
            PlacementStrategy::ReplicateHot { hot } => {
                let (hot_set, cold) = by_load(loads, order, hot);
                for &e in hot_set {
                    // A replica on every GPU; the traffic splits g ways.
                    for g in 0..num_gpus {
                        picks.push((g, e));
                        owned[g] += 1;
                        effective[g] += loads[e] as f64 / num_gpus as f64;
                    }
                }
                greedy(
                    cold.iter().copied(),
                    loads,
                    capacity,
                    effective,
                    owned,
                    picks,
                )?;
            }
            PlacementStrategy::ReplicateHotPerIsland { hot } => {
                let num_islands = island_of.iter().copied().max().unwrap_or(0) + 1;
                let (hot_set, cold) = by_load(loads, order, hot);
                for &e in hot_set {
                    // One replica per island, on the island's least-loaded
                    // GPU with headroom; intra-island dispatch splits the
                    // expert's traffic across the islands.
                    for island in 0..num_islands {
                        let candidates = (0..num_gpus)
                            .filter(|&g| island_of[g] == island && owned[g] < capacity);
                        let Some(g) = least_loaded(candidates, effective, owned) else {
                            return Err(SparseError::config(format!(
                                "island {island} has no memory headroom for a replica of \
                                 hot expert {e} (capacity {capacity} experts/GPU)"
                            )));
                        };
                        picks.push((g, e));
                        owned[g] += 1;
                        effective[g] += loads[e] as f64 / num_islands as f64;
                    }
                }
                greedy(
                    cold.iter().copied(),
                    loads,
                    capacity,
                    effective,
                    owned,
                    picks,
                )?;
            }
        }

        // Group the picks by GPU, in pick order: `owned` turns from counts
        // into each GPU's next free position.
        placement.strategy = *self;
        placement.offsets.clear();
        placement.offsets.reserve(num_gpus + 1);
        placement.offsets.push(0);
        let mut end = 0;
        for count in owned.iter_mut() {
            let start = end;
            end += *count;
            placement.offsets.push(end);
            *count = start;
        }
        placement.experts.clear();
        placement.experts.resize(end, 0);
        for &(g, e) in picks.iter() {
            placement.experts[owned[g]] = e;
            owned[g] += 1;
        }
        placement.validate(memory, resident_tokens, step_tokens)
    }
}

/// The experts in descending load order, ties by id, split after the
/// `hot` first, written to `order`. Each expert sorts as one word, its load
/// counted down from the largest above its id, whenever that fits, which
/// every token count does; the word's low bits are then the id. Loads too
/// large for that sort by `(Reverse(load), id)`. Either way the keys are
/// unique, so an unstable sort gives the one order.
fn by_load<'a>(
    loads: &[usize],
    order: &'a mut Vec<usize>,
    hot: usize,
) -> (&'a [usize], &'a [usize]) {
    order.clear();
    let id_bits = usize::BITS - loads.len().saturating_sub(1).leading_zeros();
    let max = loads.iter().copied().max().unwrap_or(0);
    if max.checked_shr(usize::BITS - id_bits).unwrap_or(0) == 0 {
        order.extend(
            loads
                .iter()
                .enumerate()
                .map(|(e, &load)| ((max - load) << id_bits) | e),
        );
        order.sort_unstable();
        let ids = (1 << id_bits) - 1;
        for key in order.iter_mut() {
            *key &= ids;
        }
    } else {
        order.extend(0..loads.len());
        order.sort_unstable_by_key(|&e| (std::cmp::Reverse(loads[e]), e));
    }
    order.split_at(hot.min(loads.len()))
}

/// The GPU among `candidates`, in ascending id order, with the least
/// effective load, then the fewest owned experts, then the lowest id. The
/// loads are finite sums of non-negative shares, so `<` orders them.
fn least_loaded(
    mut candidates: impl Iterator<Item = usize>,
    effective: &[f64],
    owned: &[usize],
) -> Option<usize> {
    let best = candidates.next()?;
    let (mut best, mut best_load, mut best_owned) = (best, effective[best], owned[best]);
    for g in candidates {
        let (load, experts) = (effective[g], owned[g]);
        if load < best_load || (load <= best_load && experts < best_owned) {
            (best, best_load, best_owned) = (g, load, experts);
        }
    }
    Some(best)
}

/// The greedy pass: each of `experts`, in order, to the least-loaded GPU
/// that owns fewer than `capacity` experts.
fn greedy(
    experts: impl Iterator<Item = usize>,
    loads: &[usize],
    capacity: usize,
    effective: &mut [f64],
    owned: &mut [usize],
    picks: &mut Vec<(usize, usize)>,
) -> Result<()> {
    let num_gpus = owned.len();
    for e in experts {
        let candidates = (0..num_gpus).filter(|&g| owned[g] < capacity);
        let Some(g) = least_loaded(candidates, effective, owned) else {
            return Err(SparseError::config(format!(
                "no GPU has memory headroom for expert {e} \
                 (capacity {capacity} experts/GPU over {num_gpus} GPUs)"
            )));
        };
        picks.push((g, e));
        owned[g] += 1;
        effective[g] += loads[e] as f64;
    }
    Ok(())
}

/// The reusable buffers of one placement: the load order, the per-GPU
/// effective loads and expert counts, each placed `(gpu, expert)` in
/// placement order, and the placement itself. A new one allocates nothing.
#[derive(Debug)]
pub(crate) struct PlacementScratch {
    order: Vec<usize>,
    effective: Vec<f64>,
    owned: Vec<usize>,
    picks: Vec<(usize, usize)>,
    placement: ExpertPlacement,
}

impl PlacementScratch {
    /// The placement the last successful [`PlacementStrategy::place_into`]
    /// made.
    pub(crate) fn placement(&self) -> &ExpertPlacement {
        &self.placement
    }
}

impl Default for PlacementScratch {
    fn default() -> Self {
        Self {
            order: Vec::new(),
            effective: Vec::new(),
            owned: Vec::new(),
            picks: Vec::new(),
            placement: ExpertPlacement {
                strategy: PlacementStrategy::RoundRobin,
                experts: Vec::new(),
                offsets: Vec::new(),
            },
        }
    }
}

/// A concrete expert-to-GPU shard map, held flat: every GPU's owned
/// experts back to back in GPU order, each GPU's in owned order, with one
/// offset per GPU boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpertPlacement {
    /// The strategy that produced the map.
    strategy: PlacementStrategy,
    /// The owned experts of every GPU, GPU 0's first (an expert on several
    /// GPUs is a replicated hot expert).
    experts: Vec<usize>,
    /// GPU `g` owns `experts[offsets[g]..offsets[g + 1]]`.
    offsets: Vec<usize>,
}

impl ExpertPlacement {
    /// The shard map where GPU `g` owns `gpu_experts[g]`, in that order.
    pub fn new(strategy: PlacementStrategy, gpu_experts: &[Vec<usize>]) -> Self {
        let mut offsets = Vec::with_capacity(gpu_experts.len() + 1);
        offsets.push(0);
        offsets.extend(gpu_experts.iter().scan(0, |end, owned| {
            *end += owned.len();
            Some(*end)
        }));
        Self {
            strategy,
            experts: gpu_experts.concat(),
            offsets,
        }
    }

    /// The strategy that produced the map.
    pub fn strategy(&self) -> PlacementStrategy {
        self.strategy
    }

    /// Number of GPUs.
    pub fn num_gpus(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The global expert ids GPU `gpu` owns, in owned order.
    ///
    /// Panics if `gpu >= self.num_gpus()`.
    pub fn gpu_experts(&self, gpu: usize) -> &[usize] {
        &self.experts[self.offsets[gpu]..self.offsets[gpu + 1]]
    }

    /// The shard map: for each GPU in order, the global expert ids it owns,
    /// in the order [`ClusterSimulator::step_with_placement`](crate::ClusterSimulator::step_with_placement)
    /// prices them.
    pub fn assignments(&self) -> impl ExactSizeIterator<Item = &[usize]> + '_ {
        self.offsets
            .windows(2)
            .map(|bounds| &self.experts[bounds[0]..bounds[1]])
    }

    /// Every GPU's owned experts back to back, in GPU order: GPU `g`'s
    /// are the positions [`Self::slots`]`(g)`.
    pub(crate) fn experts(&self) -> &[usize] {
        &self.experts
    }

    /// GPU `gpu`'s positions in [`Self::experts`].
    pub(crate) fn slots(&self, gpu: usize) -> std::ops::Range<usize> {
        self.offsets[gpu]..self.offsets[gpu + 1]
    }

    /// How many replicas each of `num_experts` experts has.
    ///
    /// Panics if some GPU owns an expert id `>= num_experts`.
    pub fn replica_counts(&self, num_experts: usize) -> Vec<usize> {
        let mut counts = vec![0usize; num_experts];
        for &e in &self.experts {
            counts[e] += 1;
        }
        counts
    }

    /// Per-GPU effective token load under `loads` (a replicated expert's
    /// load splits evenly across its replicas).
    ///
    /// Panics if some GPU owns an expert id `>= loads.len()`.
    pub fn effective_gpu_loads(&self, loads: &[usize]) -> Vec<f64> {
        let replicas = self.replica_counts(loads.len());
        self.assignments()
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
        for (g, owned) in self.assignments().enumerate() {
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
        .assignments()
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

    let mut gpu_experts: Vec<Vec<usize>> = placement.assignments().map(<[usize]>::to_vec).collect();
    let mut lost: Vec<usize> = std::mem::take(&mut gpu_experts[crashed_gpu]);
    // Hottest first, ties by id: the order the greedy core would use.
    lost.sort_by_key(|&e| (std::cmp::Reverse(loads[e]), e));

    // Effective load per survivor under the post-crash replica counts.
    let mut effective =
        ExpertPlacement::new(placement.strategy, &gpu_experts).effective_gpu_loads(loads);

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

    let placement = ExpertPlacement::new(placement.strategy, &gpu_experts);
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
    fn memory_models_hold_the_engine_kind_formulas_bit_for_bit() {
        use samoyeds_moe::memory::KV_DTYPE_BYTES;
        use samoyeds_serve::MemoryModel;
        // Both memory models keep per-token coefficients: they must price
        // every token count exactly like the `EngineKind` formulas they
        // were read from.
        let tokens = [0, 1, 7, 2_048, 1 << 22];
        for device in [DeviceSpec::rtx4070_super(), DeviceSpec::a100_40g()] {
            for config in MoeModelConfig::table2() {
                let layers = config.num_layers as f64;
                let attention = config.params_per_attention() as f64 * 2.0;
                let kv = |t: usize| {
                    (2 * t * config.hidden_size * config.num_layers) as f64 * KV_DTYPE_BYTES
                };
                for kind in EngineKind::all() {
                    let memory = MemoryModel::new(&device, kind, &config);
                    let at = format!("{} {:?} {}", device.name, kind, config.name);
                    assert_eq!(memory.budget_bytes(), usable_bytes(&device), "{at}");
                    assert_eq!(
                        memory.weight_bytes(),
                        (kind.weight_bytes(&config) + attention) * layers,
                        "{at}"
                    );
                    for t in tokens {
                        assert_eq!(memory.kv_bytes(t), kv(t), "{at} {t}");
                        let activation = kind.activation_bytes(&config, t);
                        assert_eq!(memory.activation_bytes(t), activation, "{at} {t}");
                        assert_eq!(
                            memory.footprint_bytes(t, t),
                            memory.weight_bytes() + kv(t) + activation,
                            "{at} {t}"
                        );
                    }
                }
                for engine in ClusterEngine::all() {
                    let memory = ClusterMemoryModel::new(&device, engine, &config);
                    let at = format!("{} {:?} {}", device.name, engine, config.name);
                    // The kind the memory follows is the pricing engine's.
                    let kind = engine.engine(&device).kind();
                    assert_eq!(engine.kind(), kind, "{at}");
                    assert_eq!(memory.budget_bytes(), usable_bytes(&device), "{at}");
                    if engine != ClusterEngine::Venom {
                        assert_eq!(
                            engine.moe_weight_bytes_per_layer(&config),
                            kind.weight_bytes(&config),
                            "{at}"
                        );
                    }
                    for t in tokens {
                        assert_eq!(memory.kv_bytes(t), kv(t), "{at} {t}");
                        let activation = kind.activation_bytes(&config, t);
                        assert_eq!(memory.activation_bytes(t), activation, "{at} {t}");
                        assert_eq!(
                            memory.gpu_bytes(3, t, t),
                            memory.base_bytes + 3.0 * memory.expert_bytes + kv(t) + activation,
                            "{at} {t}"
                        );
                    }
                }
            }
        }
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
                    .filter(|&g| placement.gpu_experts(g).contains(&e))
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
        assert!(plan.placement.gpu_experts(0).is_empty());
        let replicas = plan.placement.replica_counts(config.num_experts);
        assert!(replicas.iter().all(|&c| c >= 1), "{replicas:?}");
        assert_eq!(plan.moves.len(), placement.gpu_experts(0).len());
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
        let first_uncovered = placement
            .gpu_experts(0)
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
                assert!(placement.gpu_experts(m.from).contains(&m.expert));
            }
        }
        // Nothing exceeds budget and the crashed GPU stays empty.
        plan.placement.validate(&memory, 1024, 1024).unwrap();
        assert!(plan.placement.gpu_experts(0).is_empty());
        // Degenerate calls fail loudly.
        assert!(
            replan_after_crash(&placement, 99, &loads, &topology, &memory, 1024, 1024, None)
                .is_err()
        );
        let one_gpu = ExpertPlacement::new(PlacementStrategy::RoundRobin, &[vec![0]]);
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
        for &e in placement.gpu_experts(0).iter().filter(|e| !hot.contains(e)) {
            assert_eq!(plan.moves.iter().filter(|m| m.expert == e).count(), 1);
        }
        assert!(plan.placement.gpu_experts(0).is_empty());
    }

    #[test]
    fn experts_take_descending_load_then_id_order() {
        // Descending load, ties by id, in the sort and in the greedy
        // placement: token counts sort as one packed word, and loads near
        // `usize::MAX`, which leave no room for the id, take the general
        // sort.
        let (memory, _) = qwen_on_a100();
        let orders = [
            (vec![7, 9, 7, 0, 9], vec![1, 4, 0, 2, 3]),
            (
                vec![usize::MAX, 5, usize::MAX - 1, usize::MAX, 0],
                vec![0, 3, 2, 1, 4],
            ),
        ];
        for (loads, order) in orders {
            let mut scratch = Vec::new();
            assert_eq!(by_load(&loads, &mut scratch, 0).1, order);
            let placement = PlacementStrategy::CapacityGreedy
                .place(&loads, 1, &memory, 0, 0)
                .unwrap();
            assert_eq!(placement.gpu_experts(0), order);
        }
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
