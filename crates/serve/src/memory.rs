//! Full-model memory accounting for the serving simulator.
//!
//! Extends the single-layer convention of `samoyeds_moe::memory` to a whole
//! model: resident weights are `num_layers` copies of one decoder layer's MoE
//! weights (under the engine's representation) plus the attention
//! projections, the KV cache holds every in-flight token on every layer, and
//! the transient activation workspace exists for one layer at a time (layers
//! execute sequentially). This is the budget the continuous-batching
//! scheduler admits requests against.

use crate::backend::MemoryBudget;
use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::engines::EngineKind;
pub use samoyeds_moe::memory::KV_DTYPE_BYTES;
use samoyeds_moe::memory::{kv_bytes_per_token, usable_bytes};

/// Memory model of one (device, engine, model) combination: four numbers,
/// the device's usable memory, the resident weights and the KV and
/// activation bytes per token, read off the device and the [`EngineKind`]
/// formulas at construction.
#[derive(Debug, Clone)]
pub struct MemoryModel {
    budget_bytes: f64,
    weight_bytes: f64,
    kv_bytes_per_token: f64,
    activation_bytes_per_token: f64,
}

impl MemoryModel {
    /// Build the memory model.
    pub fn new(device: &DeviceSpec, engine_kind: EngineKind, config: &MoeModelConfig) -> Self {
        let layers = config.num_layers as f64;
        let per_layer_weights =
            engine_kind.weight_bytes(config) + config.params_per_attention() as f64 * 2.0;
        Self {
            budget_bytes: usable_bytes(device),
            weight_bytes: per_layer_weights * layers,
            kv_bytes_per_token: kv_bytes_per_token(config) * layers,
            // Exact: see `EngineKind::activation_bytes`.
            activation_bytes_per_token: engine_kind.activation_bytes(config, 1),
        }
    }

    /// Usable device memory in bytes.
    pub fn budget_bytes(&self) -> f64 {
        self.budget_bytes
    }

    /// Resident full-model weight bytes (MoE + attention, all layers).
    pub fn weight_bytes(&self) -> f64 {
        self.weight_bytes
    }

    /// KV-cache bytes for `tokens` resident tokens (all layers).
    pub fn kv_bytes(&self, tokens: usize) -> f64 {
        tokens as f64 * self.kv_bytes_per_token
    }

    /// Transient activation workspace for a step over `step_tokens` tokens
    /// (one layer live at a time).
    pub fn activation_bytes(&self, step_tokens: usize) -> f64 {
        step_tokens as f64 * self.activation_bytes_per_token
    }

    /// Total footprint with `kv_tokens` resident and a step over
    /// `step_tokens` in flight.
    pub fn footprint_bytes(&self, kv_tokens: usize, step_tokens: usize) -> f64 {
        self.weight_bytes + self.kv_bytes(kv_tokens) + self.activation_bytes(step_tokens)
    }
}

impl MemoryBudget for MemoryModel {
    fn budget_bytes(&self) -> f64 {
        MemoryModel::budget_bytes(self)
    }

    fn footprint_bytes(&self, kv_tokens: usize, step_tokens: usize) -> f64 {
        MemoryModel::footprint_bytes(self, kv_tokens, step_tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samoyeds_weights_are_a_fraction_of_dense() {
        let device = DeviceSpec::a100_40g();
        let config = MoeModelConfig::qwen2_moe();
        let dense = MemoryModel::new(&device, EngineKind::Transformers, &config);
        let sparse = MemoryModel::new(&device, EngineKind::Samoyeds, &config);
        assert!(sparse.weight_bytes() < dense.weight_bytes() * 0.45);
        // Same KV cost either way.
        assert_eq!(sparse.kv_bytes(1000), dense.kv_bytes(1000));
    }

    #[test]
    fn footprint_grows_with_tokens_and_respects_budget_check() {
        let device = DeviceSpec::a100_40g();
        let config = MoeModelConfig::qwen2_moe();
        let m = MemoryModel::new(&device, EngineKind::Samoyeds, &config);
        assert!(m.footprint_bytes(100, 10) < m.footprint_bytes(10_000, 10));
        assert!(m.footprint_bytes(100, 10) < m.footprint_bytes(100, 1000));
        assert!(m.can_hold_model());
        assert!(m.fits(100, 10));
    }

    #[test]
    fn footprint_is_nondecreasing_in_kv_and_step_tokens() {
        // What makes a cached per-slot admission ceiling exact: whatever
        // footprint fits the budget, every smaller token count fits too.
        let tokens = [
            0usize,
            1,
            2,
            7,
            8,
            9,
            63,
            64,
            65,
            2_047,
            2_048,
            2_049,
            1 << 20,
            1 << 22,
        ];
        for device in [DeviceSpec::a100_40g(), DeviceSpec::rtx4070_super()] {
            for config in MoeModelConfig::table2() {
                for kind in EngineKind::all() {
                    let m = MemoryModel::new(&device, kind, &config);
                    let at = format!("{} {kind:?} {}", device.name, config.name);
                    for &t in &tokens {
                        for pair in tokens.windows(2) {
                            let (lo, hi) = (pair[0], pair[1]);
                            assert!(
                                m.footprint_bytes(lo, t) <= m.footprint_bytes(hi, t),
                                "{at}: kv {lo} -> {hi} at step {t}"
                            );
                            assert!(
                                m.footprint_bytes(t, lo) <= m.footprint_bytes(t, hi),
                                "{at}: step {lo} -> {hi} at kv {t}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn kv_bytes_route_through_the_shared_dtype_constant() {
        // Pins the satellite fix: K + V per token per layer, each element
        // KV_DTYPE_BYTES wide. If either the memory model or the backend's
        // decode-read cost switched dtype unilaterally, this breaks.
        let config = MoeModelConfig::qwen2_moe();
        let m = MemoryModel::new(&DeviceSpec::a100_40g(), EngineKind::Samoyeds, &config);
        let expected_per_token =
            2.0 * config.hidden_size as f64 * KV_DTYPE_BYTES * config.num_layers as f64;
        assert_eq!(m.kv_bytes(1), expected_per_token);
        assert_eq!(m.kv_bytes(1000), expected_per_token * 1000.0);
        // The trait view agrees with the inherent methods.
        let budget: &dyn MemoryBudget = &m;
        assert_eq!(budget.budget_bytes(), m.budget_bytes());
        assert_eq!(budget.footprint_bytes(64, 8), m.footprint_bytes(64, 8));
        assert!(budget.can_hold_model());
    }

    #[test]
    fn dense_full_model_ooms_on_the_small_device_but_samoyeds_fits() {
        // The serving-level Table 3 analogue: on a 12 GiB card the dense
        // Qwen2-MoE weights alone exceed memory while the Samoyeds compressed
        // form leaves KV headroom.
        let device = DeviceSpec::rtx4070_super();
        let config = MoeModelConfig::qwen2_moe();
        let dense = MemoryModel::new(&device, EngineKind::Transformers, &config);
        let sparse = MemoryModel::new(&device, EngineKind::Samoyeds, &config);
        assert!(!dense.can_hold_model());
        assert!(sparse.can_hold_model());
    }
}
