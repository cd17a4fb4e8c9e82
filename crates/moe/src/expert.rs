//! The expert MLP: gate / up / down projections with a gated activation
//! (Figure 11(a)), plus the pruned variants used by the Samoyeds engine.

use crate::config::MoeModelConfig;
use samoyeds_kernels::fusion::Activation;
use samoyeds_sparse::samoyeds::SamoyedsConfig;
use samoyeds_sparse::{DenseMatrix, Result, SamoyedsWeight, SparseFormat};

/// Dense weights of one expert. Projections are stored transposed
/// (`[out_features x in_features]`) so the linear layer is `W * x` with
/// tokens as columns, matching the `(W^T x^T)^T` restructuring of §4.5.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpertWeights {
    /// Gate projection, `intermediate x hidden`.
    pub gate: DenseMatrix,
    /// Up projection, `intermediate x hidden`.
    pub up: DenseMatrix,
    /// Down projection, `hidden x intermediate`.
    pub down: DenseMatrix,
    /// Activation applied to the gate output.
    pub activation: Activation,
}

impl ExpertWeights {
    /// Deterministically initialise an expert for a model configuration.
    /// Entries are scaled to keep activations O(1) through the layer.
    pub fn random(config: &MoeModelConfig, expert_index: usize, seed: u64) -> Self {
        let h = config.hidden_size;
        let i = config.intermediate_size;
        let scale_in = (1.0 / h as f32).sqrt();
        let scale_mid = (1.0 / i as f32).sqrt();
        let s = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(expert_index as u64);
        Self {
            gate: DenseMatrix::random(i, h, s).scale(scale_in),
            up: DenseMatrix::random(i, h, s.wrapping_add(1)).scale(scale_in),
            down: DenseMatrix::random(h, i, s.wrapping_add(2)).scale(scale_mid),
            activation: config.activation,
        }
    }

    /// Functional forward pass over tokens-as-columns input `x`
    /// (`hidden x tokens`): `down( act(gate x) ⊙ (up x) )`.
    pub fn forward(&self, x: &DenseMatrix) -> Result<DenseMatrix> {
        let g = self.activation.apply_matrix(&self.gate.matmul(x)?);
        let u = self.up.matmul(x)?;
        let inter = g.hadamard(&u)?;
        self.down.matmul(&inter)
    }

    /// Prune every projection into the Samoyeds weight format.
    pub fn prune_samoyeds(&self, cfg: SamoyedsConfig) -> Result<SamoyedsExpertWeights> {
        Ok(SamoyedsExpertWeights {
            gate: SamoyedsWeight::prune_from_dense(&self.gate, cfg)?,
            up: SamoyedsWeight::prune_from_dense(&self.up, cfg)?,
            down: SamoyedsWeight::prune_from_dense(&self.down, cfg)?,
            activation: self.activation,
        })
    }
}

/// One expert with all three projections in the Samoyeds sparse format.
#[derive(Debug, Clone, PartialEq)]
pub struct SamoyedsExpertWeights {
    /// Gate projection in Samoyeds format.
    pub gate: SamoyedsWeight,
    /// Up projection in Samoyeds format.
    pub up: SamoyedsWeight,
    /// Down projection in Samoyeds format.
    pub down: SamoyedsWeight,
    /// Activation applied to the gate output.
    pub activation: Activation,
}

impl SamoyedsExpertWeights {
    /// Functional forward pass on the pruned weights (reference semantics;
    /// the fused kernel path lives in the engines module).
    pub fn forward(&self, x: &DenseMatrix) -> Result<DenseMatrix> {
        let g = self.activation.apply_matrix(&self.gate.spmm(x)?);
        let u = self.up.spmm(x)?;
        let inter = g.hadamard(&u)?;
        self.down.spmm(&inter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MoeModelConfig {
        MoeModelConfig::tiny_test()
    }

    #[test]
    fn forward_has_the_right_shape_and_is_deterministic() {
        let w = ExpertWeights::random(&tiny(), 0, 1);
        let x = DenseMatrix::random(64, 10, 2);
        let y = w.forward(&x).unwrap();
        assert_eq!(y.shape(), (64, 10));
        assert_eq!(w.forward(&x).unwrap(), y);
        // Different experts have different weights.
        let w2 = ExpertWeights::random(&tiny(), 1, 1);
        assert_ne!(w.gate, w2.gate);
    }

    #[test]
    fn forward_values_stay_bounded() {
        let w = ExpertWeights::random(&tiny(), 3, 7);
        let x = DenseMatrix::random(64, 16, 8);
        let y = w.forward(&x).unwrap();
        let max = y.as_slice().iter().fold(0.0f32, |a, v| a.max(v.abs()));
        assert!(max.is_finite());
        assert!(max < 100.0, "activations exploded: {max}");
    }

    #[test]
    fn pruned_forward_approximates_dense_forward() {
        let cfg = tiny();
        let w = ExpertWeights::random(&cfg, 0, 5);
        let pruned = w.prune_samoyeds(SamoyedsConfig::DEFAULT).unwrap();
        let x = DenseMatrix::random(64, 8, 6);
        let dense_out = w.forward(&x).unwrap();
        let sparse_out = pruned.forward(&x).unwrap();
        assert_eq!(sparse_out.shape(), dense_out.shape());
        // At 75% sparsity on random (incompressible) weights the outputs
        // differ, but the magnitudes must stay comparable — relative Frobenius
        // error below 1 (pruning keeps the dominant half of each 2:4 group).
        let diff = dense_out
            .add(&sparse_out.scale(-1.0))
            .unwrap()
            .frobenius_norm();
        let rel = diff / dense_out.frobenius_norm().max(1e-6);
        assert!(rel < 1.0, "relative error {rel}");
    }

    #[test]
    fn shape_mismatch_is_propagated() {
        let w = ExpertWeights::random(&tiny(), 0, 1);
        let bad_x = DenseMatrix::random(32, 4, 2);
        assert!(w.forward(&bad_x).is_err());
    }
}
