//! Operator fusion for the MoE expert epilogue (§4.3, last paragraph).
//!
//! The Samoyeds kernel fuses the activation function with its producing
//! projection, and the weighted accumulation (router weight broadcast + dot
//! product) with the final projection. Fusion removes one full round-trip of
//! the intermediate tensor through global memory per fused operator and
//! eliminates the extra kernel launch.
//!
//! The engines in `samoyeds-moe` model fusion by what they leave out. An
//! unfused baseline pays [`standalone_epilogue_cost`] for every element-wise
//! pass it runs as its own kernel: Transformers for each activation, gating
//! multiply and weighted accumulation, MegaBlocks for the share of the
//! activation it does not fuse. Samoyeds (like the fused vLLM-DS and PIT
//! kernels) pays nothing for its epilogue; the fused epilogue's CUDA-core
//! FLOPs are not charged to any kernel profile.

use samoyeds_sparse::DenseMatrix;
use serde::{Deserialize, Serialize};

/// Activation functions used by the evaluated MoE models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// SiLU / swish (Mixtral, Qwen2-MoE, DeepSeek-MoE, MiniCPM-MoE).
    Silu,
    /// GELU (tanh approximation).
    Gelu,
    /// SwiGLU-style gated activation computed outside (identity here).
    Identity,
    /// ReLU (OpenMoE's distinct activation that MegaBlocks / vLLM-DS kernels
    /// do not support — the `NS` entries of Figure 14).
    Relu,
}

impl Activation {
    /// Apply the activation to a scalar.
    pub fn apply(&self, x: f32) -> f32 {
        match self {
            Activation::Silu => x / (1.0 + (-x).exp()),
            Activation::Gelu => 0.5 * x * (1.0 + (0.797_884_6 * (x + 0.044715 * x * x * x)).tanh()),
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
        }
    }

    /// Apply element-wise to a matrix.
    pub fn apply_matrix(&self, m: &DenseMatrix) -> DenseMatrix {
        m.map(|x| self.apply(x))
    }

    /// FLOPs charged per element for this activation when it runs as its own
    /// CUDA-core pass.
    pub fn flops_per_element(&self) -> f64 {
        match self {
            Activation::Silu => 6.0,
            Activation::Gelu => 10.0,
            Activation::Identity => 0.0,
            Activation::Relu => 1.0,
        }
    }
}

/// The cost of running an element-wise epilogue over an `m x n` bf16 tensor
/// as a standalone kernel: read the intermediate, write the result, plus a
/// launch overhead. Returns
/// `(extra_read_bytes, extra_write_bytes, extra_cuda_flops, overhead_us)`.
pub fn standalone_epilogue_cost(m: usize, n: usize, act: Activation) -> (f64, f64, f64, f64) {
    let bytes = (m * n) as f64 * 2.0;
    (bytes, bytes, act.flops_per_element() * (m * n) as f64, 5.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_values_are_sane() {
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert_eq!(Activation::Identity.apply(3.5), 3.5);
        // SiLU(0) = 0, SiLU(large) ~ large.
        assert_eq!(Activation::Silu.apply(0.0), 0.0);
        assert!((Activation::Silu.apply(10.0) - 10.0).abs() < 1e-2);
        // GELU(0) = 0 and is monotone around the origin.
        assert_eq!(Activation::Gelu.apply(0.0), 0.0);
        assert!(Activation::Gelu.apply(1.0) > Activation::Gelu.apply(-1.0));
    }

    #[test]
    fn apply_matrix_is_elementwise() {
        let m = DenseMatrix::from_vec(1, 3, vec![-1.0, 0.0, 2.0]).unwrap();
        let r = Activation::Relu.apply_matrix(&m);
        assert_eq!(r.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn standalone_epilogue_costs_a_round_trip() {
        let (r, w, f, o) = standalone_epilogue_cost(128, 256, Activation::Gelu);
        assert_eq!(r, 128.0 * 256.0 * 2.0);
        assert_eq!(w, r);
        assert!(f > 0.0);
        assert!(o > 0.0);
    }

    #[test]
    fn identity_epilogue_is_free_compute() {
        assert_eq!(Activation::Identity.flops_per_element(), 0.0);
    }
}
