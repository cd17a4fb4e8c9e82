//! The decoder layer: attention + MoE, the unit the end-to-end experiments
//! measure (§6.3 justifies single-decoder-layer measurement by decoder layers
//! dominating execution time and being architecturally identical).

use crate::attention::{attention_time_ms, AttentionKind};
use crate::config::MoeModelConfig;
use crate::engines::{Engine, EngineKind, LayerCost};
use crate::router::TopKRouter;
use samoyeds_gpu_sim::DeviceSpec;

/// Time breakdown of one decoder layer (the quantity behind Figure 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecoderBreakdown {
    /// Attention time in milliseconds.
    pub attention_ms: f64,
    /// MoE (expert MLP) time in milliseconds.
    pub moe_ms: f64,
    /// Normalisation / residual / router overhead in milliseconds.
    pub other_ms: f64,
}

impl DecoderBreakdown {
    /// Total decoder-layer time.
    pub fn total_ms(&self) -> f64 {
        self.attention_ms + self.moe_ms + self.other_ms
    }

    /// Fraction of the layer spent in the MoE block.
    pub fn moe_fraction(&self) -> f64 {
        let total = self.total_ms();
        if total <= 0.0 {
            return 0.0;
        }
        self.moe_ms / total
    }
}

/// The routing seed every decoder layer draws its plan from: all engines
/// are compared under the same routing, as the paper's §6.3 fairness note
/// requires.
const ROUTING_SEED: u64 = 42;

/// Per-layer cost of everything that is neither MoE nor attention over
/// `step_tokens` tokens, in milliseconds: norms and residual adds (two
/// passes over the hidden states) plus the tiny router GEMM. The decoder
/// layer and the serving backends all price it here.
#[inline]
pub fn auxiliary_step_ms(device: &DeviceSpec, config: &MoeModelConfig, step_tokens: usize) -> f64 {
    let bandwidth = device.mem_bandwidth_gbps * 1e9;
    let h = config.hidden_size as f64;
    4.0 * step_tokens as f64 * h * 2.0 / bandwidth * 1e3 + 0.02
}

/// A decoder layer bound to a device, an engine and an attention kind.
#[derive(Debug, Clone)]
pub struct DecoderLayer {
    device: DeviceSpec,
    engine: Engine,
    attention: AttentionKind,
}

impl DecoderLayer {
    /// Build a decoder layer evaluated with the given engine.
    pub fn new(device: DeviceSpec, engine_kind: EngineKind, attention: AttentionKind) -> Self {
        Self {
            engine: Engine::new(engine_kind, device.clone()),
            device,
            attention,
        }
    }

    /// Route `batch x seq_len` tokens once and price the layer: the MoE
    /// block's cost and the whole layer's time breakdown.
    fn price(
        &self,
        config: &MoeModelConfig,
        batch: usize,
        seq_len: usize,
    ) -> (LayerCost, DecoderBreakdown) {
        let tokens = batch * seq_len.min(config.max_seq_len);
        let plan = TopKRouter::for_config(config, ROUTING_SEED).route(tokens);
        let moe = self.engine.moe_layer_cost(config, tokens, &plan);
        // Attention cost is per sequence (scores do not cross sequences).
        let attention_ms = attention_time_ms(
            &self.device,
            config,
            seq_len.min(config.max_seq_len),
            self.attention,
        ) * batch as f64;
        let breakdown = DecoderBreakdown {
            attention_ms,
            moe_ms: moe.time_ms,
            other_ms: auxiliary_step_ms(&self.device, config, tokens),
        };
        (moe, breakdown)
    }

    /// Time breakdown of one decoder layer over `batch x seq_len` tokens.
    pub fn breakdown(
        &self,
        config: &MoeModelConfig,
        batch: usize,
        seq_len: usize,
    ) -> DecoderBreakdown {
        self.price(config, batch, seq_len).1
    }

    /// Full layer cost (time + memory) for `batch x seq_len` tokens.
    pub fn layer_cost(&self, config: &MoeModelConfig, batch: usize, seq_len: usize) -> LayerCost {
        let (moe, breakdown) = self.price(config, batch, seq_len);
        LayerCost {
            time_ms: breakdown.total_ms(),
            weight_bytes: moe.weight_bytes + config.params_per_attention() as f64 * 2.0,
            activation_bytes: moe.activation_bytes,
            supported: moe.supported,
        }
    }

    /// Throughput in tokens per second at the given batch/sequence size.
    pub fn throughput_tokens_per_s(
        &self,
        config: &MoeModelConfig,
        batch: usize,
        seq_len: usize,
    ) -> f64 {
        let cost = self.layer_cost(config, batch, seq_len);
        if !cost.supported || cost.time_ms <= 0.0 {
            return 0.0;
        }
        (batch * seq_len.min(config.max_seq_len)) as f64 / (cost.time_ms * 1e-3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moe_dominates_the_decoder_layer_with_flash_attention() {
        // The Figure 2 observation: with Flash-Attention the MoE share
        // exceeds ~60-80% for the evaluated models.
        let device = DeviceSpec::rtx4070_super();
        for config in [
            MoeModelConfig::mixtral_8x7b(),
            MoeModelConfig::minicpm_moe(),
            MoeModelConfig::qwen2_moe(),
        ] {
            let layer = DecoderLayer::new(
                device.clone(),
                EngineKind::Transformers,
                AttentionKind::Flash,
            );
            let b = layer.breakdown(&config, 1, 4096);
            assert!(
                b.moe_fraction() > 0.5,
                "{}: MoE fraction {}",
                config.name,
                b.moe_fraction()
            );
        }
    }

    #[test]
    fn flash_attention_increases_the_moe_share() {
        let device = DeviceSpec::rtx4070_super();
        let config = MoeModelConfig::mixtral_8x7b();
        let std = DecoderLayer::new(
            device.clone(),
            EngineKind::Transformers,
            AttentionKind::Standard,
        )
        .breakdown(&config, 1, 4096);
        let flash = DecoderLayer::new(device, EngineKind::Transformers, AttentionKind::Flash)
            .breakdown(&config, 1, 4096);
        assert!(flash.moe_fraction() > std.moe_fraction());
        assert!(flash.total_ms() < std.total_ms());
    }

    #[test]
    fn samoyeds_end_to_end_beats_transformers() {
        let device = DeviceSpec::rtx4070_super();
        let config = MoeModelConfig::mixtral_8x7b();
        let samoyeds =
            DecoderLayer::new(device.clone(), EngineKind::Samoyeds, AttentionKind::Flash);
        let transformers =
            DecoderLayer::new(device, EngineKind::Transformers, AttentionKind::Flash);
        let t_s = samoyeds.layer_cost(&config, 1, 4096).time_ms;
        let t_t = transformers.layer_cost(&config, 1, 4096).time_ms;
        let speedup = t_t / t_s;
        // End-to-end speedups are diluted by the shared attention time
        // (paper: 1.42x average, up to 2.36x; our ratio runs a little higher
        // because framework overheads are not simulated).
        assert!(speedup > 1.05 && speedup < 4.5, "speedup {speedup}");
    }

    #[test]
    fn throughput_grows_with_batch_until_saturation() {
        let device = DeviceSpec::rtx4070_super();
        let config = MoeModelConfig::qwen2_moe();
        let layer = DecoderLayer::new(device, EngineKind::Samoyeds, AttentionKind::Flash);
        let t1 = layer.throughput_tokens_per_s(&config, 1, 4096);
        let t4 = layer.throughput_tokens_per_s(&config, 4, 4096);
        assert!(t4 > t1, "batch 4 {t4} should beat batch 1 {t1}");
    }

    #[test]
    fn max_seq_len_is_respected() {
        let device = DeviceSpec::rtx4070_super();
        let config = MoeModelConfig::openmoe_34b(); // max 2048
        let layer = DecoderLayer::new(device, EngineKind::Transformers, AttentionKind::Flash);
        let capped = layer.layer_cost(&config, 1, 4096);
        let exact = layer.layer_cost(&config, 1, 2048);
        assert!((capped.time_ms - exact.time_ms).abs() < 1e-9);
    }

    #[test]
    fn unsupported_engine_reports_zero_throughput() {
        let device = DeviceSpec::rtx4070_super();
        let config = MoeModelConfig::openmoe_34b();
        let layer = DecoderLayer::new(device, EngineKind::MegaBlocks, AttentionKind::Flash);
        assert_eq!(layer.throughput_tokens_per_s(&config, 1, 2048), 0.0);
    }
}
