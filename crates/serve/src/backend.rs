//! The execution-backend abstraction: where step pricing and admission
//! budgets come from.
//!
//! The continuous-batching scheduler is a control loop — admission, batch
//! formation, progress accounting. Everything *physical* about a deployment
//! (how long a step takes, how much memory the model plus its KV cache
//! occupies, which models the kernels can run) lives behind
//! [`ExecutionBackend`]. Two implementations exist:
//!
//! * [`SingleGpuBackend`] (this module) — one device running one execution
//!   engine, the original serving configuration. The root golden table
//!   `tests/golden/scheduler_runs.txt` pins its `Scheduler` runs bit for
//!   bit.
//! * `ClusterBackend` (in `samoyeds-dist`) — an expert-parallel cluster:
//!   per-GPU straggler compute plus α-β dispatch/combine collectives, with
//!   admission against the straggler GPU's memory budget.
//!
//! The scheduler only ever sees the trait, so serving policies (chunked
//! prefill, FCFS admission, continuous batching) are written once and run
//! unchanged from a single consumer card to an NVLink pod.

use crate::batch::StepBatch;
use crate::memory::MemoryModel;
use crate::request::RunningRequest;
use crate::scheduler::SchedulerConfig;
use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_moe::attention::{AttentionKind, AttentionModel};
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::engines::{Engine, EngineKind};
use samoyeds_moe::memory::kv_bytes_per_token;
use samoyeds_moe::router::{RouteScratch, TopKRouter};
use std::cell::RefCell;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

pub use samoyeds_moe::decoder::auxiliary_step_ms;

/// The memory-accounting surface admission control needs: a budget and a
/// footprint. For a single GPU the footprint is the whole model; for a
/// cluster it is the *straggler* GPU (the rank with the most experts and
/// the largest KV share), so that admission is safe on every rank.
pub trait MemoryBudget {
    /// Usable memory in bytes (per GPU for cluster backends).
    fn budget_bytes(&self) -> f64;

    /// Footprint in bytes with `kv_tokens` resident and a step over
    /// `step_tokens` in flight (for cluster backends: on the straggler GPU).
    fn footprint_bytes(&self, kv_tokens: usize, step_tokens: usize) -> f64;

    /// Whether that footprint fits the budget.
    fn fits(&self, kv_tokens: usize, step_tokens: usize) -> bool {
        self.footprint_bytes(kv_tokens, step_tokens) <= self.budget_bytes()
    }

    /// Whether the backend can hold the model at all (weights plus a
    /// minimal one-token step).
    fn can_hold_model(&self) -> bool {
        self.fits(1, 1)
    }
}

/// Everything a backend needs to price one engine step.
#[derive(Debug, Clone, Copy)]
pub struct StepWorkload<'a> {
    /// The step's batch composition (prefill chunks + decode tokens).
    pub batch: &'a StepBatch,
    /// The running set the batch indexes into.
    pub running: &'a [RunningRequest],
    /// Monotone step counter (drives the per-step routing seed).
    pub step_index: u64,
    /// The routing buffers and kept streams the step routes with
    /// ([`RouteScratch`]), kept by whoever runs the replica. A fleet passes one scratch to every replica, so
    /// replicas at the same step index, whose routing seeds agree, count
    /// one kept stream; the step prices the same whatever the scratch
    /// holds. A backend borrows it only while it routes and prices the
    /// step's MoE layer.
    pub route: &'a RefCell<RouteScratch>,
}

impl StepWorkload<'_> {
    /// Tokens the engine processes this step.
    pub fn step_tokens(&self) -> usize {
        self.batch.total_tokens()
    }
}

/// How a step's compute and inter-GPU collectives combine: they always
/// serialize, so a step lasts `compute + collective`.
///
/// Nothing reads this value. It stays only because fleetbench's
/// `probe.rs` builds [`StepCost`] field by field from
/// `ClusterBackend::overlap()`; it goes, with the [`StepCost::overlap`]
/// field, once that replay stops doing so.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlapModel {
    /// Compute and collectives serialize: `total = compute + collective`.
    Serial,
}

/// Predicted cost of one engine step, split into the part spent computing
/// and the part spent in inter-GPU collectives (zero on a single GPU).
///
/// Cluster backends additionally attribute the collective time to the
/// NVLink intra-island legs versus the InfiniBand spine
/// ([`Self::intra_island_ms`] / [`Self::spine_ms`]) — the split telemetry
/// step spans carry, so a TTFT breach can be traced to spine traffic rather
/// than a generic "collectives" bucket. The split is attribution only: step
/// duration stays `compute_ms + collective_ms`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepCost {
    /// Compute time (kernels, attention, norms, per-step overhead), ms.
    pub compute_ms: f64,
    /// All-to-all dispatch/combine time across the step's layers, ms.
    pub collective_ms: f64,
    /// NVLink intra-island share of the collective time (zero on a single
    /// GPU or a flat topology without islands), ms.
    pub intra_island_ms: f64,
    /// InfiniBand spine share of the collective time, ms.
    pub spine_ms: f64,
    /// Always [`OverlapModel::Serial`]; see there for why the field stays.
    pub overlap: OverlapModel,
}

impl StepCost {
    /// A compute-only cost (single-GPU backends).
    pub fn compute_only(compute_ms: f64) -> Self {
        Self {
            compute_ms,
            collective_ms: 0.0,
            intra_island_ms: 0.0,
            spine_ms: 0.0,
            overlap: OverlapModel::Serial,
        }
    }

    /// Total step duration: compute, then the collectives.
    pub fn total_ms(&self) -> f64 {
        self.compute_ms + self.collective_ms
    }
}

/// An execution substrate the continuous-batching scheduler can drive.
///
/// Implementations own their cost model and their memory accounting; the
/// scheduler owns policy. Backends must be deterministic: the same workload
/// must always price to the same cost.
pub trait ExecutionBackend {
    /// The engine kind this backend executes (for reports and results).
    fn engine_kind(&self) -> EngineKind;

    /// The model this backend was built to serve. The scheduler gates the
    /// run on `supports(model())`, so the support check can never be asked
    /// about a different config than the one pricing the steps.
    fn model(&self) -> &MoeModelConfig;

    /// Whether the backend has kernels for this model (the `NS` rule).
    fn supports(&self, config: &MoeModelConfig) -> bool;

    /// The memory budget admission control enforces.
    fn memory(&self) -> &dyn MemoryBudget;

    /// Predicted cost of one step over `workload`.
    fn step_cost(&self, workload: &StepWorkload<'_>) -> StepCost;

    /// Human-readable one-line description for reports.
    fn describe(&self) -> String;
}

// `ExecutionBackend` is object-safe, and the delegating impls below make
// both borrowed and boxed trait objects first-class backends: the scheduler,
// the replica driver and the fleet controller can hold
// `Box<dyn ExecutionBackend>` replicas (an A100 pod next to a consumer-GPU
// single) without a monomorphic type parameter.
macro_rules! delegate_execution_backend {
    () => {
        fn engine_kind(&self) -> EngineKind {
            (**self).engine_kind()
        }

        fn model(&self) -> &MoeModelConfig {
            (**self).model()
        }

        fn supports(&self, config: &MoeModelConfig) -> bool {
            (**self).supports(config)
        }

        fn memory(&self) -> &dyn MemoryBudget {
            (**self).memory()
        }

        fn step_cost(&self, workload: &StepWorkload<'_>) -> StepCost {
            (**self).step_cost(workload)
        }

        fn describe(&self) -> String {
            (**self).describe()
        }
    };
}

impl<B: ExecutionBackend + ?Sized> ExecutionBackend for &B {
    delegate_execution_backend!();
}

impl<B: ExecutionBackend + ?Sized> ExecutionBackend for Box<B> {
    delegate_execution_backend!();
}

/// One backend's attention pricing across its steps. The backend's
/// [`AttentionModel`] is built on the first step with prefill chunks and
/// kept, boxed, for every later step, so each context length is priced once
/// per backend; a backend that never prefills builds nothing.
#[derive(Debug, Clone)]
pub struct StepAttention {
    kind: AttentionKind,
    model: OnceLock<Box<AttentionModel>>,
}

impl StepAttention {
    /// Attention priced under `kind`. Builds nothing until the first step
    /// with prefill chunks.
    pub fn new(kind: AttentionKind) -> Self {
        Self {
            kind,
            model: OnceLock::new(),
        }
    }

    /// Incremental attention cost of one layer over the step: prefill chunks
    /// pay the causal-attention cost of extending their context; each decode
    /// token pays one pass over its request's KV cache. Shared between the
    /// single-GPU and cluster backends so the two can never diverge on
    /// attention pricing.
    ///
    /// `device` and `config` build the model on the first step with prefill
    /// chunks, so pass the same ones on every call. A step reads the model's
    /// price row under one lock and prices only the context lengths no
    /// earlier step asked for; the increments are still added chunk by chunk
    /// in batch order, so the sum is bit-identical to pricing every chunk
    /// with [`attention_time_ms`].
    ///
    /// [`attention_time_ms`]: samoyeds_moe::attention::attention_time_ms
    pub fn step_ms(
        &self,
        device: &DeviceSpec,
        config: &MoeModelConfig,
        batch: &StepBatch,
        running: &[RunningRequest],
    ) -> f64 {
        let mut attention_ms = 0.0;
        if !batch.prefill.is_empty() {
            let model = self
                .model
                .get_or_init(|| Box::new(AttentionModel::new(device, config, self.kind)));
            let mut time_ms = model.cached_time_ms();
            for &(i, chunk) in &batch.prefill {
                let before = running[i].prefilled;
                let after = (before + chunk).min(config.max_seq_len);
                let inc = time_ms(after) - time_ms(before.max(1));
                attention_ms += inc.max(0.0);
            }
        }
        let bandwidth = device.mem_bandwidth_gbps * 1e9;
        let token_kv_bytes = kv_bytes_per_token(config);
        for &i in &batch.decode {
            let ctx = running[i].context_tokens().min(config.max_seq_len);
            let kv_bytes = ctx as f64 * token_kv_bytes;
            attention_ms += kv_bytes / bandwidth * 1e3 + 2.0e-3;
        }
        attention_ms
    }
}

/// [`StepAttention::step_ms`] on a model built for this call: the price of
/// one step's attention with nothing kept.
pub fn attention_step_ms(
    device: &DeviceSpec,
    config: &MoeModelConfig,
    attention: AttentionKind,
    batch: &StepBatch,
    running: &[RunningRequest],
) -> f64 {
    StepAttention::new(attention).step_ms(device, config, batch, running)
}

/// One device running one execution engine — the original serving
/// configuration, wrapped behind the backend trait. Its step prices are
/// pinned bit for bit by the root goldens (`scheduler_runs.txt`,
/// `layer_costs.txt`, `attention_costs.txt`).
#[derive(Debug, Clone)]
pub struct SingleGpuBackend {
    device: DeviceSpec,
    config: MoeModelConfig,
    engine: Engine,
    memory: MemoryModel,
    router: TopKRouter,
    attention: StepAttention,
    routing_seed: u64,
    step_overhead_ms: f64,
}

/// Buffers a backend keeps from step to step behind a lock, as the engines'
/// price tables are, so that `step_cost` can take `&self` and a step
/// allocates nothing: `ClusterBackend`'s placement and dispatch buffers.
/// It starts empty, and a clone starts empty again: the buffers hold
/// nothing a step does not rewrite before reading it.
#[derive(Debug, Default)]
pub struct ScratchLock<T>(Mutex<T>);

impl<T> ScratchLock<T> {
    /// The buffers. A step that panicked while holding them leaves nothing
    /// the next one reads, so a poisoned lock is taken over as it is.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Clone for ScratchLock<T> {
    fn clone(&self) -> Self {
        Self::default()
    }
}

const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<SingleGpuBackend>();
};

impl SingleGpuBackend {
    /// Build the backend for one (device, model, engine) triple, taking the
    /// cost-model knobs (attention kind, routing seed, step overhead) from
    /// the scheduler configuration.
    pub fn new(
        device: DeviceSpec,
        config: &MoeModelConfig,
        engine_kind: EngineKind,
        scfg: &SchedulerConfig,
    ) -> Self {
        Self {
            engine: Engine::new(engine_kind, device.clone()),
            memory: MemoryModel::new(&device, engine_kind, config),
            // Built once; reseeded per step via `route_loads_into` instead of
            // being reconstructed on the per-step hot path.
            router: TopKRouter::for_config(config, scfg.routing_seed),
            device,
            config: config.clone(),
            attention: StepAttention::new(scfg.attention),
            routing_seed: scfg.routing_seed,
            step_overhead_ms: scfg.step_overhead_ms,
        }
    }

    /// Swap the step-pricing engine while keeping the memory model, router
    /// and device. This is how `samoyeds-dist` mounts the VENOM ("+W",
    /// weight-only sparsity) configuration: the Samoyeds memory footprint —
    /// compressed weights free the same KV headroom — priced with the
    /// weight-only kernels (dense inputs, permute round trips).
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// The full-model memory model (concrete type, for callers that need
    /// more than the [`MemoryBudget`] surface).
    pub fn memory_model(&self) -> &MemoryModel {
        &self.memory
    }

    /// The device the backend runs on.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }
}

impl ExecutionBackend for SingleGpuBackend {
    fn engine_kind(&self) -> EngineKind {
        self.engine.kind()
    }

    fn model(&self) -> &MoeModelConfig {
        &self.config
    }

    fn supports(&self, config: &MoeModelConfig) -> bool {
        self.engine.kind().supports(config)
    }

    fn memory(&self) -> &dyn MemoryBudget {
        &self.memory
    }

    fn step_cost(&self, workload: &StepWorkload<'_>) -> StepCost {
        let step_tokens = workload.step_tokens();
        // The engines price an expert by its token count alone, so the
        // counts-only routing output prices the step exactly as the full
        // plan would.
        let moe_ms = {
            let mut route = workload.route.borrow_mut();
            let loads = self.router.route_loads_into(
                self.routing_seed ^ workload.step_index,
                step_tokens,
                1,
                &mut route,
            );
            self.engine
                .moe_layer_cost_for_loads(&self.config, step_tokens, loads)
                .time_ms
        };
        let attention_ms =
            self.attention
                .step_ms(&self.device, &self.config, workload.batch, workload.running);
        let other_ms = auxiliary_step_ms(&self.device, &self.config, step_tokens);
        StepCost::compute_only(
            (moe_ms + attention_ms + other_ms) * self.config.num_layers as f64
                + self.step_overhead_ms,
        )
    }

    fn describe(&self) -> String {
        format!(
            "single-GPU {} · {} · {}",
            self.device.name,
            self.engine.kind().name(),
            self.config.name,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{build_step, BatchLimits};
    use crate::request::Request;

    fn backend(engine: EngineKind) -> SingleGpuBackend {
        SingleGpuBackend::new(
            DeviceSpec::a100_40g(),
            &MoeModelConfig::qwen2_moe(),
            engine,
            &SchedulerConfig::default(),
        )
    }

    fn workload_fixture() -> (Vec<RunningRequest>, StepBatch) {
        let running = vec![
            RunningRequest::new(
                Request {
                    id: 0,
                    arrival_ms: 0.0,
                    prompt_len: 128,
                    output_len: 8,
                },
                0.0,
            ),
            {
                let mut r = RunningRequest::new(
                    Request {
                        id: 1,
                        arrival_ms: 0.0,
                        prompt_len: 64,
                        output_len: 8,
                    },
                    0.0,
                );
                r.prefilled = 64;
                r.decoded = 2;
                r
            },
        ];
        let batch = build_step(&running, &BatchLimits::default());
        (running, batch)
    }

    #[test]
    fn single_gpu_cost_is_compute_only_and_deterministic() {
        let backend = backend(EngineKind::Samoyeds);
        let (running, batch) = workload_fixture();
        let route = RefCell::default();
        let workload = StepWorkload {
            batch: &batch,
            running: &running,
            step_index: 3,
            route: &route,
        };
        let a = backend.step_cost(&workload);
        let b = backend.step_cost(&workload);
        assert_eq!(a, b);
        assert_eq!(a.collective_ms, 0.0);
        assert!(a.compute_ms > 0.0);
        assert_eq!(a.total_ms(), a.compute_ms);
        // A different step index reseeds the routing plan; the cost stays
        // finite and positive (tile padding may round it to the same value).
        let other = backend.step_cost(&StepWorkload {
            step_index: 4,
            ..workload
        });
        assert!(other.compute_ms.is_finite() && other.compute_ms > 0.0);
    }

    /// A step of `tokens` tokens: one prompt prefilled whole, or, for 8
    /// tokens, 8 decodes at assorted contexts.
    fn step_of(tokens: usize) -> (Vec<RunningRequest>, StepBatch) {
        let request = |id, prompt_len| Request {
            id,
            arrival_ms: 0.0,
            prompt_len,
            output_len: 16,
        };
        if tokens == 8 {
            let running: Vec<RunningRequest> = (0..8)
                .map(|id| {
                    let mut r = RunningRequest::new(request(id, 16 + 9 * id as usize), 0.0);
                    r.prefilled = r.request.prompt_len;
                    r.decoded = 1 + id as usize;
                    r
                })
                .collect();
            let batch = StepBatch {
                prefill: Vec::new(),
                decode: (0..8).collect(),
            };
            return (running, batch);
        }
        let running = vec![RunningRequest::new(request(0, tokens), 0.0)];
        let batch = StepBatch {
            prefill: vec![(0, tokens)],
            decode: Vec::new(),
        };
        (running, batch)
    }

    #[test]
    fn backends_sharing_one_route_scratch_price_like_fresh_ones_bit_for_bit() {
        // A fleet passes one routing scratch to all its replicas, and the
        // scratch keeps the streams they ask for more than once. Nothing it
        // keeps may move a price: three backends (two Samoyeds, one dense)
        // price 8-, 206- and 2,048-token steps in turn on one scratch, at
        // one step index they all share (so its stream is kept, counted,
        // cut short and extended) and at one new step index per size, and
        // every step must price like a fresh backend on a fresh scratch.
        let kinds = [
            EngineKind::Samoyeds,
            EngineKind::Samoyeds,
            EngineKind::Transformers,
        ];
        let backends = kinds.map(backend);
        let shared = RefCell::default();
        for (i, tokens) in [8usize, 206, 2048, 8, 206].into_iter().enumerate() {
            let (running, batch) = step_of(tokens);
            assert_eq!(batch.total_tokens(), tokens);
            for step_index in [5, 31 * i as u64 + 6] {
                let workload = StepWorkload {
                    batch: &batch,
                    running: &running,
                    step_index,
                    route: &shared,
                };
                for (kind, shared_backend) in kinds.into_iter().zip(&backends) {
                    let cost = shared_backend.step_cost(&workload);
                    let fresh = backend(kind).step_cost(&StepWorkload {
                        route: &RefCell::default(),
                        ..workload
                    });
                    assert_eq!(
                        cost.compute_ms.to_bits(),
                        fresh.compute_ms.to_bits(),
                        "{kind:?} step {step_index} ({tokens} tokens)"
                    );
                }
            }
        }
    }

    #[test]
    fn backend_surfaces_engine_support_and_memory() {
        let backend = backend(EngineKind::Samoyeds);
        assert_eq!(backend.engine_kind(), EngineKind::Samoyeds);
        assert!(backend.supports(&MoeModelConfig::qwen2_moe()));
        assert!(backend.memory().can_hold_model());
        assert!(backend.describe().contains("Samoyeds"));
        // The trait-object budget view agrees with the concrete model.
        assert_eq!(
            backend.memory().budget_bytes(),
            backend.memory_model().budget_bytes()
        );
        assert_eq!(
            backend.memory().footprint_bytes(100, 10),
            backend.memory_model().footprint_bytes(100, 10)
        );
    }

    #[test]
    fn vllm_backend_reports_ns_for_relu_models() {
        let backend = backend(EngineKind::VllmDs);
        assert!(!backend.supports(&MoeModelConfig::openmoe_34b()));
    }

    #[test]
    fn step_cost_total_is_the_serial_sum() {
        let cost = StepCost {
            collective_ms: 2.0,
            ..StepCost::compute_only(3.0)
        };
        assert_eq!(cost.total_ms(), 5.0);
    }

    #[test]
    fn backend_works_as_a_boxed_trait_object() {
        let boxed: Box<dyn ExecutionBackend> = Box::new(backend(EngineKind::Samoyeds));
        assert_eq!(boxed.engine_kind(), EngineKind::Samoyeds);
        assert!(boxed.supports(boxed.model()));
        assert!(boxed.memory().can_hold_model());
        let (running, batch) = workload_fixture();
        let route = RefCell::default();
        let workload = StepWorkload {
            batch: &batch,
            running: &running,
            step_index: 3,
            route: &route,
        };
        // The boxed and borrowed views price identically to the concrete
        // backend.
        let concrete = backend(EngineKind::Samoyeds).step_cost(&workload);
        assert_eq!(boxed.step_cost(&workload), concrete);
        let by_ref: &dyn ExecutionBackend = &*boxed;
        assert_eq!(by_ref.step_cost(&workload), concrete);
        assert_eq!(boxed.describe(), by_ref.describe());
    }
}
