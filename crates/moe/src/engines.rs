//! The MoE execution engines compared in the paper: Transformers (permute +
//! per-expert dense GEMMs), MegaBlocks (block-sparse grouped GEMM), vLLM-DS
//! (fused MoE kernel), PIT (permutation-invariant dynamic-sparsity compiler)
//! and Samoyeds (dual-side structured sparsity on the Sparse Tensor Cores).
//!
//! Each engine converts a model configuration, a number of tokens and a
//! routing plan's per-expert token counts into a [`LayerCost`]: the
//! predicted MoE-layer execution time on a device. The differences between
//! engines are exactly the data-flow redundancies of §3.1 (permutation
//! copies, un-permutation round trips, per-expert launches, padding) and the
//! kernel each one can call. What the layer's weights and transient
//! activations occupy depends on the engine kind alone
//! ([`EngineKind::weight_bytes`], [`EngineKind::activation_bytes`]).

use crate::config::MoeModelConfig;
use crate::expert::{ExpertWeights, SamoyedsExpertWeights};
use crate::price_cache::{Price, PriceCache, Prices};
use crate::router::RoutingPlan;
use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_kernels::fusion::{standalone_epilogue_cost, Activation};
use samoyeds_kernels::gemm_dense::DenseGemm;
use samoyeds_kernels::samoyeds_kernel::{SamoyedsKernel, SamoyedsOptions};
use samoyeds_kernels::{GemmProblem, TilingConfig};
use samoyeds_sparse::samoyeds::SamoyedsConfig;
use samoyeds_sparse::{DenseMatrix, Result, SelInput, SelectionArray, SparseError};
use std::sync::OnceLock;

/// Which execution engine a cost was produced by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// HuggingFace Transformers: permute, per-expert dense GEMMs, un-permute.
    Transformers,
    /// MegaBlocks: grouped block-sparse GEMM over all experts.
    MegaBlocks,
    /// vLLM-DS: fused MoE kernel (dense weights).
    VllmDs,
    /// PIT: permutation-invariant transformation of dynamic sparsity, dense
    /// tensor cores only.
    Pit,
    /// Samoyeds: dual-side structured sparsity on Sparse Tensor Cores.
    Samoyeds,
}

impl EngineKind {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Transformers => "Transformers",
            EngineKind::MegaBlocks => "MegaBlocks",
            EngineKind::VllmDs => "vLLM-DS",
            EngineKind::Pit => "PIT",
            EngineKind::Samoyeds => "Samoyeds",
        }
    }

    /// All engines compared in Figure 14/15.
    pub fn all() -> [EngineKind; 5] {
        [
            EngineKind::Transformers,
            EngineKind::MegaBlocks,
            EngineKind::VllmDs,
            EngineKind::Pit,
            EngineKind::Samoyeds,
        ]
    }

    /// Whether the engine has kernels for this model (the `NS` rule).
    pub fn supports(self, config: &MoeModelConfig) -> bool {
        match self {
            EngineKind::MegaBlocks | EngineKind::VllmDs => config.activation != Activation::Relu,
            _ => true,
        }
    }

    /// Resident weight bytes for one MoE layer under this engine.
    pub fn weight_bytes(self, config: &MoeModelConfig) -> f64 {
        let dense = config.params_per_moe_layer() as f64 * 2.0;
        match self {
            // Dense bf16 weights.
            EngineKind::Transformers | EngineKind::Pit => dense,
            // MegaBlocks / vLLM keep the dense weights plus reordered /
            // padded copies and per-expert workspace tensors sized with the
            // weights; this is what costs them maximum batch size in Table 3.
            EngineKind::MegaBlocks | EngineKind::VllmDs => dense * 2.5,
            // Samoyeds stores the compressed (data + metadata + indices)
            // form: 25% of the values, ~12.5% metadata overhead.
            EngineKind::Samoyeds => {
                let cfg = SamoyedsConfig::DEFAULT;
                dense * (1.0 - cfg.sparsity()) * 1.125
                    + config.params_per_moe_layer() as f64 / cfg.v as f64
            }
        }
    }

    /// Peak transient activation bytes for `num_tokens` routed tokens.
    ///
    /// Every formula is `tokens × X × 2.0`, and scaling by 2.0 is exact, so
    /// `num_tokens × activation_bytes(config, 1)` equals this bit for bit:
    /// the memory models keep that per-token coefficient.
    pub fn activation_bytes(self, config: &MoeModelConfig, num_tokens: usize) -> f64 {
        let h = config.hidden_size as f64;
        let i = config.intermediate_size as f64;
        let t = num_tokens as f64;
        let k = config.top_k as f64 + config.num_shared_experts as f64;
        match self {
            // Permuted input copies + gate/up/intermediate buffers + expert
            // outputs awaiting un-permutation, all at bf16.
            EngineKind::Transformers => t * (2.0 * h * (1.0 + k) + 3.0 * i * k) * 2.0,
            // No permutation copy, but block padding and grouped workspace.
            EngineKind::MegaBlocks => t * (h * (1.0 + k) + 3.2 * i * k) * 2.0,
            // Fused kernel keeps gate/up in flight but materialises the
            // per-expert intermediate workspace.
            EngineKind::VllmDs => t * (h + 2.5 * i * k) * 2.0,
            EngineKind::Pit => t * (h + 2.2 * i * k) * 2.0,
            // SEL-driven kernel: no permute copies, compressed intermediate
            // layout, fused activation.
            EngineKind::Samoyeds => t * (h + 1.2 * i * k) * 2.0,
        }
    }
}

/// Predicted cost of executing one MoE layer (or one decoder layer when the
/// attention cost is folded in by [`crate::decoder`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerCost {
    /// Predicted execution time in milliseconds.
    pub time_ms: f64,
    /// False when the engine cannot run this model at all (the `NS` entries
    /// of Figure 14: MegaBlocks / vLLM-DS lack kernels for OpenMoE's
    /// activation function).
    pub supported: bool,
}

impl LayerCost {
    /// An unsupported marker.
    pub fn unsupported() -> Self {
        Self {
            time_ms: f64::INFINITY,
            supported: false,
        }
    }
}

/// An MoE execution engine bound to a device.
///
/// The engine builds each analytical kernel it prices with — the dense GEMM
/// model and the Samoyeds kernel model — once, on the first pricing call
/// that needs it, and reuses it for every later call. It also keeps every
/// expert price it computes, one row per model shape, indexed directly by
/// what the price depends on: a Samoyeds expert's N-tile bucket
/// `⌈tokens / 64⌉` (see [`Self::moe_layer_cost_for_loads`]), a dense
/// expert's column count. Nothing else moves a price once the device and the
/// Samoyeds options are fixed, so a reused engine prices exactly like a
/// fresh one, across models and token counts. The kernels are boxed behind
/// [`OnceLock`]s and the price rows start empty: an engine that never prices
/// stays small, builds and allocates nothing and remains `Send + Sync`.
#[derive(Debug, Clone)]
pub struct Engine {
    kind: EngineKind,
    device: DeviceSpec,
    samoyeds_options: SamoyedsOptions,
    dense_gemm: OnceLock<Box<DenseGemm>>,
    samoyeds_kernel: OnceLock<Box<SamoyedsKernel>>,
    /// A dense expert's prices per [`DenseShape`] and column count.
    dense_prices: PriceCache<DenseShape, DensePrice>,
    /// One Samoyeds expert's time (gate, up and down projections) per
    /// `(hidden, intermediate)` and N-tile bucket.
    samoyeds_prices: PriceCache<(usize, usize), f64>,
}

const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<Engine>();
};

/// `(hidden, intermediate, activation)`: with the column count, everything
/// a dense expert's prices depend on, for a fixed device.
type DenseShape = (usize, usize, Activation);

/// The Samoyeds kernel's N-tile: an expert's tokens pad to a multiple of it
/// (the §6.2 padding effect).
const N_TILE: usize = if TilingConfig::DEFAULT_4070S.nb < 64 {
    TilingConfig::DEFAULT_4070S.nb
} else {
    64
};

/// The N-tile bucket `⌈tokens / N_TILE⌉` a Samoyeds expert is priced by.
fn n_tile_bucket(tokens: usize) -> usize {
    tokens.div_ceil(N_TILE)
}

impl Engine {
    /// Create an engine of the given kind on a device. No kernel is built
    /// until the first pricing call.
    pub fn new(kind: EngineKind, device: DeviceSpec) -> Self {
        Self {
            kind,
            device,
            samoyeds_options: SamoyedsOptions::FULL,
            dense_gemm: OnceLock::new(),
            samoyeds_kernel: OnceLock::new(),
            dense_prices: PriceCache::new(),
            samoyeds_prices: PriceCache::new(),
        }
    }

    /// Override the Samoyeds optimisation toggles (used by the Figure 17
    /// breakdown). Drops the cached Samoyeds kernel and its prices, which
    /// were built with the old toggles; the next pricing call builds a
    /// kernel with the new ones and its rows start empty. Dense prices do
    /// not depend on the toggles and are kept.
    pub fn with_samoyeds_options(mut self, options: SamoyedsOptions) -> Self {
        self.samoyeds_options = options;
        self.samoyeds_kernel = OnceLock::new();
        self.samoyeds_prices = PriceCache::new();
        self
    }

    /// The dense GEMM model, built on first use.
    fn dense_gemm(&self) -> &DenseGemm {
        self.dense_gemm
            .get_or_init(|| Box::new(DenseGemm::new(self.device.clone())))
    }

    /// The Samoyeds kernel model under the engine's options, built on first
    /// use.
    fn samoyeds_kernel(&self) -> &SamoyedsKernel {
        self.samoyeds_kernel.get_or_init(|| {
            Box::new(SamoyedsKernel::with_options(
                self.device.clone(),
                self.samoyeds_options,
            ))
        })
    }

    /// The engine kind.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// Predicted cost of one MoE layer for `num_tokens` tokens routed by
    /// `plan`: [`Self::moe_layer_cost_for_loads`] over the plan's per-expert
    /// token counts.
    pub fn moe_layer_cost(
        &self,
        config: &MoeModelConfig,
        num_tokens: usize,
        plan: &RoutingPlan,
    ) -> LayerCost {
        self.moe_layer_cost_for_loads(config, num_tokens, &plan.expert_loads())
    }

    /// Predicted cost of one MoE layer for `num_tokens` tokens, `loads[e]`
    /// of which are routed to expert `e`.
    ///
    /// Every engine prices an expert from its token count alone (the length
    /// of its `SEL` array), so the loads are all of the routing the cost
    /// model reads. Each distinct per-expert price is computed once per
    /// engine and read from its price row afterwards, under one lock per
    /// call. Samoyeds fills its row through the call's largest N-tile bucket
    /// (at most 32 buckets at 2,048 tokens), so each expert costs one row
    /// read, a zero-load expert reading the zero price of bucket 0; dense
    /// engines price only the column counts asked for. The terms are still
    /// added one per expert in expert order, and adding a zero leaves the
    /// positive running sum unchanged, so the result is bit-identical to
    /// pricing every active expert separately.
    pub fn moe_layer_cost_for_loads(
        &self,
        config: &MoeModelConfig,
        num_tokens: usize,
        loads: &[usize],
    ) -> LayerCost {
        if !self.kind.supports(config) {
            return LayerCost::unsupported();
        }
        let time_ms = match self.kind {
            EngineKind::Transformers => self.time_transformers(config, num_tokens, loads),
            EngineKind::MegaBlocks => self.time_grouped(config, num_tokens, loads, 128, 0.9),
            EngineKind::VllmDs => self.time_padded_dense(config, num_tokens, loads, 64, 0.3),
            EngineKind::Pit => self.time_padded_dense(config, num_tokens, loads, 16, 0.5),
            EngineKind::Samoyeds => self.time_samoyeds(config, num_tokens, loads),
        };
        LayerCost {
            time_ms,
            supported: true,
        }
    }

    /// Extra time of an element-wise pass (activation or weighted
    /// accumulation) executed as its own kernel over an `m x n` bf16 tensor.
    fn elementwise_pass_ms(&self, m: usize, n: usize, act: Activation) -> f64 {
        let (read, write, flops, overhead_us) = standalone_epilogue_cost(m, n, act);
        let bandwidth = self.device.mem_bandwidth_gbps * 1e9;
        let cuda = self.device.cuda_tflops_fp32 * 1e12 * 0.5;
        ((read + write) / bandwidth + flops / cuda) * 1e3 + overhead_us * 1e-3
    }

    /// Cost of copying `bytes` through global memory (a permute / un-permute
    /// data movement pass).
    fn copy_pass_ms(&self, bytes: f64) -> f64 {
        (2.0 * bytes / (self.device.mem_bandwidth_gbps * 1e9)) * 1e3 + 5.0e-3
    }

    /// Transformers-style execution: permute, per-expert dense GEMMs with
    /// standalone activations, un-permute with weighted accumulation.
    fn time_transformers(
        &self,
        config: &MoeModelConfig,
        num_tokens: usize,
        loads: &[usize],
    ) -> f64 {
        let h = config.hidden_size;
        let i = config.intermediate_size;
        let mut dense = DenseTimes::new(self, config);
        let mut total = 0.0;
        // Input permutation: every routed token is copied into its expert's
        // buffer.
        let permuted_tokens: usize = loads.iter().sum();
        total += self.copy_pass_ms((permuted_tokens * h) as f64 * 2.0);
        for &tokens in loads {
            let price = dense.price(tokens);
            total += price.gate_up + price.down;
            // Standalone activation + gating multiply over the intermediate.
            total += price.activation;
            total += price.gating;
        }
        // Shared experts process every token.
        for _ in 0..config.num_shared_experts {
            total += dense.expert_ms(num_tokens);
            total += self.elementwise_pass_ms(i, num_tokens, config.activation);
        }
        // Weighted un-permutation: expert outputs are written to global
        // memory, re-read, scaled and accumulated into the final output.
        total += self.copy_pass_ms((permuted_tokens * h) as f64 * 2.0 * 2.0);
        total += self.elementwise_pass_ms(h, num_tokens, Activation::Identity);
        total
    }

    /// Grouped dense execution (MegaBlocks-like): one launch over all
    /// experts, tokens padded to `block` per expert, partial fusion.
    fn time_grouped(
        &self,
        config: &MoeModelConfig,
        num_tokens: usize,
        loads: &[usize],
        block: usize,
        fusion_quality: f64,
    ) -> f64 {
        let h = config.hidden_size;
        let i = config.intermediate_size;
        let mut dense = DenseTimes::new(self, config);
        let gemm_ms = dense.padded_experts_ms(loads, block);
        // Grouping removes the per-expert launch overheads except one, and
        // fuses most of the element-wise work.
        let launches_saved = (loads.len().saturating_sub(1) * 3) as f64 * 5.0e-3;
        let mut total = gemm_ms - launches_saved.min(gemm_ms * 0.1);
        total +=
            (1.0 - fusion_quality) * self.elementwise_pass_ms(i, num_tokens, config.activation);
        // Shared experts are ordinary dense GEMMs.
        for _ in 0..config.num_shared_experts {
            total += dense.expert_ms(num_tokens);
        }
        // Token gather/scatter still happens once each way.
        let assignments: usize = loads.iter().sum();
        total += self.copy_pass_ms((assignments * h) as f64 * 2.0);
        total
    }

    /// Padded dense execution with an in-kernel gather, in two flavours:
    ///
    /// * vLLM-DS-like fused MoE kernel (`pad` 64, `gather_share` 0.3): tokens
    ///   padded to the kernel tile, fused activation and accumulation. The
    ///   fused kernel eliminates the separate permute/un-permute passes and
    ///   the element-wise kernels; only a small in-kernel gather cost
    ///   proportional to the routed tokens remains.
    /// * PIT-like execution (`pad` 16, `gather_share` 0.5): micro-tile
    ///   permutation-invariant packing removes almost all padding waste, but
    ///   the compute stays on the dense tensor cores and the packing itself
    ///   costs one extra pass over the tokens.
    fn time_padded_dense(
        &self,
        config: &MoeModelConfig,
        num_tokens: usize,
        loads: &[usize],
        pad: usize,
        gather_share: f64,
    ) -> f64 {
        let h = config.hidden_size;
        let mut dense = DenseTimes::new(self, config);
        let mut total = dense.padded_experts_ms(loads, pad);
        let assignments: usize = loads.iter().sum();
        total += self.copy_pass_ms((assignments * h) as f64 * 2.0) * gather_share;
        for _ in 0..config.num_shared_experts {
            total += dense.expert_ms(num_tokens);
        }
        total
    }

    /// Samoyeds execution: dual-side sparse kernels straight off the SEL
    /// arrays, fused activation and weighted accumulation, no permute
    /// round-trips.
    fn time_samoyeds(&self, config: &MoeModelConfig, num_tokens: usize, loads: &[usize]) -> f64 {
        let shared_tokens = if config.num_shared_experts > 0 {
            num_tokens
        } else {
            0
        };
        let largest = loads.iter().fold(shared_tokens, |max, &t| max.max(t));
        // One row read per expert: the row holds every bucket through the
        // largest this call needs, bucket 0 the zero price of an idle expert.
        let mut prices = self
            .samoyeds_prices
            .lock((config.hidden_size, config.intermediate_size));
        let expert_ms = prices.through(n_tile_bucket(largest), |bucket| {
            self.samoyeds_expert_ms(config, num_tokens, bucket)
        });
        let mut total = 0.0;
        for &tokens in loads {
            total += expert_ms[n_tile_bucket(tokens)];
        }
        for _ in 0..config.num_shared_experts {
            total += expert_ms[n_tile_bucket(num_tokens)];
        }
        // The weighted accumulation is fused; only the final dense output
        // write remains, which the kernel already accounts for. A residual
        // reduction across experts' compressed outputs costs one pass when
        // the optimized layout is disabled (handled inside the kernel model).
        if !self.samoyeds_options.input_sparsity {
            // The "+W" configuration keeps the permute/un-permute flow.
            let h = config.hidden_size;
            let assignments: usize = loads.iter().sum();
            total += self.copy_pass_ms((assignments * h) as f64 * 2.0 * 3.0);
        }
        total
    }

    /// One Samoyeds expert's time, its three projections, over the
    /// `bucket`-th N-tile of tokens out of a `num_tokens`-token batch. Its
    /// tokens pad to the tile (the §6.2 padding effect), so the bucket alone
    /// keys the price: with input sparsity the kernel indexes the full token
    /// buffer through the SEL array but prices only the `padded` selected
    /// columns, whatever buffer they index; without it (the "+W" data flow)
    /// the expert receives an already-gathered buffer of just its own tokens.
    fn samoyeds_expert_ms(&self, config: &MoeModelConfig, num_tokens: usize, bucket: usize) -> f64 {
        let (h, i) = (config.hidden_size, config.intermediate_size);
        let padded = bucket * N_TILE;
        let logical_n = if self.samoyeds_options.input_sparsity {
            num_tokens.max(padded)
        } else {
            padded
        };
        let kernel = self.samoyeds_kernel();
        let cfg = SamoyedsConfig::DEFAULT;
        let gate = kernel.time_ms(&GemmProblem::samoyeds(i, h, logical_n, padded, cfg));
        let down = kernel.time_ms(&GemmProblem::samoyeds(h, i, padded, padded, cfg));
        gate * 2.0 + down
    }

    /// Functional reference forward of the whole MoE layer under
    /// Transformers-style semantics (gather → expert → weighted scatter),
    /// used to validate that every engine computes the same function.
    pub fn forward_reference(
        experts: &[ExpertWeights],
        x: &DenseMatrix,
        plan: &RoutingPlan,
    ) -> Result<DenseMatrix> {
        if plan.num_experts() != experts.len() {
            return Err(SparseError::config("expert count mismatch"));
        }
        let mut out = DenseMatrix::zeros(x.rows(), x.cols());
        for (e, weights) in experts.iter().enumerate() {
            let sel = plan.selection(e)?;
            if sel.is_empty() {
                continue;
            }
            let gathered = x.select_columns(&sel.indices_usize())?;
            let y = weights.forward(&gathered)?;
            for (slot, &tok) in sel.indices().iter().enumerate() {
                let w = plan.expert_weights[e][slot];
                for r in 0..out.rows() {
                    let cur = out.get(r, tok as usize);
                    out.set(r, tok as usize, cur + w * y.get(r, slot));
                }
            }
        }
        Ok(out)
    }

    /// Functional forward of the MoE layer through the Samoyeds kernel path
    /// (SEL-driven sparse experts, weighted accumulation on the compressed
    /// output). Numerically this differs from [`Self::forward_reference`]
    /// only by the weight pruning error.
    pub fn forward_samoyeds(
        device: &DeviceSpec,
        experts: &[SamoyedsExpertWeights],
        x: &DenseMatrix,
        plan: &RoutingPlan,
    ) -> Result<DenseMatrix> {
        let kernel = SamoyedsKernel::new(device.clone());
        let mut out = DenseMatrix::zeros(x.rows(), x.cols());
        for (e, weights) in experts.iter().enumerate() {
            let sel = plan.selection(e)?;
            if sel.is_empty() {
                continue;
            }
            let input = SelInput::new(x.clone(), sel.clone())?;
            let (gate_out, _) = kernel.execute(&weights.gate, &input)?;
            let (up_out, _) = kernel.execute(&weights.up, &input)?;
            let inter = weights
                .activation
                .apply_matrix(&gate_out)
                .hadamard(&up_out)?;
            let inter_input = SelInput::new(inter, SelectionArray::all(sel.len()))?;
            let (down_out, _) = kernel.execute(&weights.down, &inter_input)?;
            for (slot, &tok) in sel.indices().iter().enumerate() {
                let w = plan.expert_weights[e][slot];
                for r in 0..out.rows() {
                    let cur = out.get(r, tok as usize);
                    out.set(r, tok as usize, cur + w * down_out.get(r, slot));
                }
            }
        }
        Ok(out)
    }
}

/// A dense expert's prices over one column count, in milliseconds.
#[derive(Debug, Clone, Copy)]
struct DensePrice {
    /// The gate and up projections together.
    gate_up: f64,
    /// The down projection.
    down: f64,
    /// Transformers' standalone activation pass over the intermediate.
    activation: f64,
    /// Transformers' standalone gating multiply over the intermediate.
    gating: f64,
}

impl Price for DensePrice {
    const ZERO: Self = Self {
        gate_up: 0.0,
        down: 0.0,
        activation: 0.0,
        gating: 0.0,
    };
    const UNPRICED: Self = Self {
        gate_up: f64::NAN,
        ..Self::ZERO
    };

    fn is_priced(&self) -> bool {
        !self.gate_up.is_nan()
    }
}

/// The dense (cuBLAS-like) prices of one model's experts, keyed by column
/// count. For a fixed device and model a GEMM's time depends on its column
/// count alone, so each distinct count is priced once per engine, through
/// its dense GEMM model, and read from the model's row after. Only the
/// counts asked for are priced: pricing every count below 2,048 from cold
/// would cost about a millisecond.
struct DenseTimes<'a> {
    engine: &'a Engine,
    hidden: usize,
    intermediate: usize,
    activation: Activation,
    /// The model's row, locked for one pricing call.
    prices: Prices<'a, DenseShape, DensePrice>,
}

impl<'a> DenseTimes<'a> {
    fn new(engine: &'a Engine, config: &MoeModelConfig) -> Self {
        let (hidden, intermediate) = (config.hidden_size, config.intermediate_size);
        let activation = config.activation;
        Self {
            engine,
            hidden,
            intermediate,
            activation,
            prices: engine.dense_prices.lock((hidden, intermediate, activation)),
        }
    }

    /// An expert's prices over `tokens` columns: zero for none.
    fn price(&mut self, tokens: usize) -> DensePrice {
        let (h, i, activation, engine) =
            (self.hidden, self.intermediate, self.activation, self.engine);
        self.prices.get_or_insert_with(tokens, || {
            let gemm = engine.dense_gemm();
            let gate_or_up = gemm.time_ms(&GemmProblem::dense(i, h, tokens));
            DensePrice {
                gate_up: gate_or_up + gate_or_up,
                down: gemm.time_ms(&GemmProblem::dense(h, i, tokens)),
                activation: engine.elementwise_pass_ms(i, tokens, activation),
                gating: engine.elementwise_pass_ms(i, tokens, Activation::Identity),
            }
        })
    }

    /// One expert's three projections (gate + up + down) over `tokens`.
    fn expert_ms(&mut self, tokens: usize) -> f64 {
        let price = self.price(tokens);
        price.gate_up + price.down
    }

    /// Every expert's GEMMs over its tokens padded to `pad`, gate and up as
    /// one term, summed in expert order (an idle expert adds zeros).
    fn padded_experts_ms(&mut self, loads: &[usize], pad: usize) -> f64 {
        let mut total = 0.0;
        for &tokens in loads {
            let price = self.price(tokens.div_ceil(pad) * pad);
            total += price.gate_up;
            total += price.down;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::TopKRouter;

    fn plan_for(config: &MoeModelConfig, tokens: usize) -> RoutingPlan {
        TopKRouter::for_config(config, 7).route(tokens)
    }

    #[test]
    fn engine_names_and_all() {
        assert_eq!(EngineKind::all().len(), 5);
        assert_eq!(EngineKind::Samoyeds.name(), "Samoyeds");
        assert_eq!(EngineKind::VllmDs.name(), "vLLM-DS");
    }

    #[test]
    fn ns_rule_for_openmoe() {
        let device = DeviceSpec::rtx4070_super();
        let openmoe = MoeModelConfig::openmoe_34b();
        assert!(!EngineKind::MegaBlocks.supports(&openmoe));
        assert!(!EngineKind::VllmDs.supports(&openmoe));
        assert!(EngineKind::Transformers.supports(&openmoe));
        assert!(EngineKind::Samoyeds.supports(&openmoe));
        let cost = Engine::new(EngineKind::VllmDs, device).moe_layer_cost(
            &openmoe,
            256,
            &plan_for(&openmoe, 256),
        );
        assert!(!cost.supported);
        assert!(cost.time_ms.is_infinite());
    }

    #[test]
    fn samoyeds_is_fastest_on_mixtral_moe_layer() {
        let device = DeviceSpec::rtx4070_super();
        let config = MoeModelConfig::mixtral_8x7b();
        let plan = plan_for(&config, 4096);
        let time = |k: EngineKind| {
            Engine::new(k, device.clone())
                .moe_layer_cost(&config, 4096, &plan)
                .time_ms
        };
        let samoyeds = time(EngineKind::Samoyeds);
        let transformers = time(EngineKind::Transformers);
        let megablocks = time(EngineKind::MegaBlocks);
        let vllm = time(EngineKind::VllmDs);
        assert!(
            samoyeds < transformers,
            "samoyeds {samoyeds} transformers {transformers}"
        );
        assert!(
            samoyeds < megablocks,
            "samoyeds {samoyeds} megablocks {megablocks}"
        );
        assert!(samoyeds < vllm, "samoyeds {samoyeds} vllm {vllm}");
        // The speedup over Transformers must be substantial but not an
        // implausible order of magnitude. (The simulation omits the Python
        // framework overheads of HuggingFace Transformers, so the ratio runs
        // higher than the paper's 1.45x average — see the `fig14_moe_layer`
        // experiment in the README's *Experiment harness* section.)
        let speedup = transformers / samoyeds;
        assert!(speedup > 1.2 && speedup < 6.0, "speedup {speedup}");
        // The fused baselines beat plain Transformers.
        assert!(vllm < transformers);
    }

    #[test]
    fn samoyeds_weight_bytes_are_a_fraction_of_dense() {
        let config = MoeModelConfig::mixtral_8x7b();
        let dense = EngineKind::Transformers.weight_bytes(&config);
        let samoyeds = EngineKind::Samoyeds.weight_bytes(&config);
        let vllm = EngineKind::VllmDs.weight_bytes(&config);
        assert!(samoyeds < dense * 0.4);
        assert!(vllm > dense); // workspace copies
    }

    #[test]
    fn activation_bytes_ordering_matches_memory_claims() {
        let config = MoeModelConfig::mixtral_8x7b();
        let tokens = 4096;
        let act = |k: EngineKind| k.activation_bytes(&config, tokens);
        assert!(act(EngineKind::Samoyeds) < act(EngineKind::VllmDs));
        assert!(act(EngineKind::Samoyeds) < act(EngineKind::Transformers));
        assert!(act(EngineKind::VllmDs) < act(EngineKind::Transformers));
    }

    #[test]
    fn shared_expert_models_cost_more_than_without() {
        let device = DeviceSpec::rtx4070_super();
        let mut config = MoeModelConfig::qwen2_moe();
        let plan = plan_for(&config, 1024);
        let with_shared = Engine::new(EngineKind::Samoyeds, device.clone())
            .moe_layer_cost(&config, 1024, &plan)
            .time_ms;
        config.num_shared_experts = 0;
        let without = Engine::new(EngineKind::Samoyeds, device)
            .moe_layer_cost(&config, 1024, &plan)
            .time_ms;
        assert!(with_shared > without);
    }

    #[test]
    fn functional_reference_and_samoyeds_paths_agree_on_tiny_model() {
        let config = MoeModelConfig::tiny_test();
        let device = DeviceSpec::rtx4070_super();
        let experts: Vec<ExpertWeights> = (0..config.num_experts)
            .map(|e| ExpertWeights::random(&config, e, 11))
            .collect();
        let pruned: Vec<SamoyedsExpertWeights> = experts
            .iter()
            .map(|w| w.prune_samoyeds(SamoyedsConfig::DEFAULT).unwrap())
            .collect();
        let x = DenseMatrix::random(config.hidden_size, 24, 13);
        let plan = TopKRouter::for_config(&config, 17).route(24);

        let reference = Engine::forward_reference(&experts, &x, &plan).unwrap();
        let samoyeds = Engine::forward_samoyeds(&device, &pruned, &x, &plan).unwrap();
        assert_eq!(reference.shape(), samoyeds.shape());

        // The two paths use the *same pruned weights* check: run the
        // reference data flow on the pruned experts' dense expansions and it
        // must match the kernel path almost exactly.
        let pruned_dense: Vec<ExpertWeights> = pruned
            .iter()
            .map(|p| ExpertWeights {
                gate: samoyeds_sparse::SparseFormat::to_dense(&p.gate),
                up: samoyeds_sparse::SparseFormat::to_dense(&p.up),
                down: samoyeds_sparse::SparseFormat::to_dense(&p.down),
                activation: p.activation,
            })
            .collect();
        let reference_pruned = Engine::forward_reference(&pruned_dense, &x, &plan).unwrap();
        assert!(
            samoyeds.allclose(&reference_pruned, 1e-2, 1e-2),
            "max diff {}",
            samoyeds.max_abs_diff(&reference_pruned)
        );
        // And the pruned output stays in the same ballpark as the dense one.
        let rel = reference
            .add(&samoyeds.scale(-1.0))
            .unwrap()
            .frobenius_norm()
            / reference.frobenius_norm().max(1e-6);
        assert!(rel < 1.0, "relative error {rel}");
    }

    #[test]
    fn breakdown_options_order_holds_at_the_layer_level() {
        let device = DeviceSpec::rtx4070_super();
        let config = MoeModelConfig::deepseek_moe();
        let plan = plan_for(&config, 4096);
        let time = |opts: SamoyedsOptions| {
            Engine::new(EngineKind::Samoyeds, device.clone())
                .with_samoyeds_options(opts)
                .moe_layer_cost(&config, 4096, &plan)
                .time_ms
        };
        let w = time(SamoyedsOptions::WEIGHT_ONLY);
        let wi = time(SamoyedsOptions::WEIGHT_INPUT);
        let wit = time(SamoyedsOptions::WEIGHT_INPUT_LAYOUT);
        let wits = time(SamoyedsOptions::FULL);
        assert!(wi < w, "WI {wi} vs W {w}");
        assert!(wit < wi);
        assert!(wits < wit);
    }
}
