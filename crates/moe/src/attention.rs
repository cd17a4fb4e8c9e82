//! Attention-layer cost model (standard and Flash-Attention), used by the
//! time-breakdown experiment (Figure 2) and the end-to-end decoder layer.

use crate::config::MoeModelConfig;
use crate::price_cache::PriceCache;
use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_kernels::gemm_dense::DenseGemm;
use samoyeds_kernels::GemmProblem;
use serde::{Deserialize, Serialize};

/// Which attention implementation the decoder uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttentionKind {
    /// Naive attention: scores and probabilities materialised in HBM.
    Standard,
    /// Flash-Attention 2: tiled, never materialises the `n x n` matrices.
    Flash,
}

/// The attention cost model of one (device, model, attention kind) triple,
/// built around one dense GEMM model that prices every projection and score
/// product. Build it once and price as many sequence lengths as needed;
/// [`attention_time_ms`] builds a fresh one per call. A long-lived model
/// also keeps the price of every sequence length asked of
/// [`Self::cached_time_ms`].
#[derive(Debug, Clone)]
pub struct AttentionModel {
    gemm: DenseGemm,
    kind: AttentionKind,
    hidden: usize,
    heads: usize,
    /// `time_ms(tokens)` in a row indexed by the length, for the lengths
    /// priced through [`Self::cached_time_ms`]; the model prices one shape,
    /// `()`.
    prices: PriceCache<(), f64>,
}

const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<AttentionModel>();
};

impl AttentionModel {
    /// The attention model of `config` under `kind` on `device`.
    pub fn new(device: &DeviceSpec, config: &MoeModelConfig, kind: AttentionKind) -> Self {
        Self {
            gemm: DenseGemm::new(device.clone()),
            kind,
            hidden: config.hidden_size,
            heads: config.num_heads.max(1),
            prices: PriceCache::new(),
        }
    }

    /// [`Self::time_ms`] through the model's price row: each sequence
    /// length is priced once per model, the first time it is asked for, and
    /// afterwards read from the row entry it indexes, bit-identically. Only
    /// the lengths asked for are priced. The returned pricer holds the row's
    /// lock until it is dropped, so one pricer serves a whole step and takes
    /// one lock; drop it before asking for another.
    pub fn cached_time_ms(&self) -> impl FnMut(usize) -> f64 + '_ {
        let mut prices = self.prices.lock(());
        move |tokens| prices.get_or_insert_with(tokens, || self.time_ms(tokens))
    }

    /// Predicted execution time of one attention block over `tokens` tokens.
    pub fn time_ms(&self, tokens: usize) -> f64 {
        let (h, heads) = (self.hidden, self.heads);

        // Q, K, V and output projections: four h x h GEMMs over the tokens.
        let proj = self.gemm.time_ms(&GemmProblem::dense(h, h, tokens)) * 4.0;

        // Score (`QK^T`) and value (`PV`) products: 2 * tokens^2 * h FLOPs
        // each, split across heads (head dimension h / heads).
        let head_dim = (h / heads).max(1);
        let per_head_score = self
            .gemm
            .time_ms(&GemmProblem::dense(tokens, head_dim, tokens));
        let per_head_value = self
            .gemm
            .time_ms(&GemmProblem::dense(tokens, tokens, head_dim));
        let score_ms = (per_head_score + per_head_value) * heads as f64;

        match self.kind {
            AttentionKind::Standard => {
                // Softmax + the materialised n x n probability matrix
                // round-trips through HBM (read + write of scores, read of
                // probs).
                let score_bytes = (tokens * tokens * heads) as f64 * 2.0;
                let bandwidth = self.gemm.device().mem_bandwidth_gbps;
                let softmax_ms = (3.0 * score_bytes / (bandwidth * 1e9)) * 1e3;
                proj + score_ms + softmax_ms
            }
            AttentionKind::Flash => {
                // Tiling keeps the scores on chip: the score/value products
                // keep their FLOPs but lose the HBM round-trips; an extra 10%
                // covers the online-softmax rescaling.
                proj + score_ms * 0.65
            }
        }
    }
}

/// Predicted execution time of one attention block over `tokens` tokens:
/// [`AttentionModel::time_ms`] on a model built for this call.
pub fn attention_time_ms(
    device: &DeviceSpec,
    config: &MoeModelConfig,
    tokens: usize,
    kind: AttentionKind,
) -> f64 {
    AttentionModel::new(device, config, kind).time_ms(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flash_attention_is_faster_than_standard() {
        let device = DeviceSpec::rtx4070_super();
        for config in [MoeModelConfig::mixtral_8x7b(), MoeModelConfig::qwen2_moe()] {
            let std = attention_time_ms(&device, &config, 4096, AttentionKind::Standard);
            let flash = attention_time_ms(&device, &config, 4096, AttentionKind::Flash);
            assert!(flash < std, "{}: flash {flash} std {std}", config.name);
        }
    }

    #[test]
    fn attention_time_grows_superlinearly_with_sequence_length() {
        let device = DeviceSpec::rtx4070_super();
        let config = MoeModelConfig::mixtral_8x7b();
        let t1 = attention_time_ms(&device, &config, 1024, AttentionKind::Flash);
        let t4 = attention_time_ms(&device, &config, 4096, AttentionKind::Flash);
        assert!(t4 > t1 * 3.5, "t1 {t1} t4 {t4}");
    }

    #[test]
    fn standard_attention_gap_widens_with_sequence_length() {
        let device = DeviceSpec::rtx4070_super();
        let config = MoeModelConfig::minicpm_moe();
        let ratio_short = attention_time_ms(&device, &config, 512, AttentionKind::Standard)
            / attention_time_ms(&device, &config, 512, AttentionKind::Flash);
        let ratio_long = attention_time_ms(&device, &config, 8192, AttentionKind::Standard)
            / attention_time_ms(&device, &config, 8192, AttentionKind::Flash);
        assert!(ratio_long > ratio_short);
    }
}
