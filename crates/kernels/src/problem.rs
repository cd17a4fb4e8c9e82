//! Description of the matrix-multiplication problems the kernels solve.

use samoyeds_sparse::samoyeds::SamoyedsConfig;

/// The weight-side sparsity a kernel exploits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SparsityKind {
    /// Dense weights (cuBLAS baseline).
    Dense,
    /// Unstructured sparsity at the given ratio (Sputnik baseline).
    Unstructured {
        /// Fraction of zero weights in `[0, 1)`.
        sparsity: f64,
    },
    /// Hardware 2:4 sparsity (cuSPARSELt baseline), i.e. 50%.
    TwoFour,
    /// VENOM V:N:M sparsity at the given total ratio.
    Venom {
        /// Total fraction of zero weights (vector + 2:4 combined).
        sparsity: f64,
    },
    /// Samoyeds (N,M,V) sparsity.
    Samoyeds(SamoyedsConfig),
}

impl SparsityKind {
    /// Fraction of the logical weight values that survives pruning.
    pub fn keep_fraction(&self) -> f64 {
        match self {
            SparsityKind::Dense => 1.0,
            SparsityKind::Unstructured { sparsity } => 1.0 - sparsity,
            SparsityKind::TwoFour => 0.5,
            SparsityKind::Venom { sparsity } => 1.0 - sparsity,
            SparsityKind::Samoyeds(cfg) => 1.0 - cfg.sparsity(),
        }
    }
}

/// One `C[m x n] = A[m x k] * B[k x n]` problem, with optional input-side
/// column sparsity (the MoE routing selection).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GemmProblem {
    /// Output rows (weight rows in the MoE expert projection).
    pub m: usize,
    /// Reduction dimension.
    pub k: usize,
    /// Logical output columns (tokens in the MoE layer).
    pub n: usize,
    /// Number of input columns that are actually selected by routing
    /// (`len_d` in Figure 8). Equal to `n` when the input is dense.
    pub selected_n: usize,
    /// Weight-side sparsity.
    pub weight_sparsity: SparsityKind,
}

impl GemmProblem {
    /// A dense problem (all columns selected, dense weights).
    pub fn dense(m: usize, k: usize, n: usize) -> Self {
        Self {
            m,
            k,
            n,
            selected_n: n,
            weight_sparsity: SparsityKind::Dense,
        }
    }

    /// A Samoyeds dual-side sparse problem.
    pub fn samoyeds(m: usize, k: usize, n: usize, selected_n: usize, cfg: SamoyedsConfig) -> Self {
        Self {
            m,
            k,
            n,
            selected_n: selected_n.min(n),
            weight_sparsity: SparsityKind::Samoyeds(cfg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keep_fraction_per_kind() {
        assert_eq!(SparsityKind::Dense.keep_fraction(), 1.0);
        assert_eq!(SparsityKind::TwoFour.keep_fraction(), 0.5);
        assert!((SparsityKind::Unstructured { sparsity: 0.9 }.keep_fraction() - 0.1).abs() < 1e-12);
        assert!(
            (SparsityKind::Samoyeds(SamoyedsConfig::DEFAULT).keep_fraction() - 0.25).abs() < 1e-12
        );
        assert!((SparsityKind::Venom { sparsity: 0.75 }.keep_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn selected_n_is_clamped_to_n() {
        let p = GemmProblem::samoyeds(64, 64, 32, 100, SamoyedsConfig::DEFAULT);
        assert_eq!(p.selected_n, 32);
        let sp = GemmProblem::samoyeds(128, 256, 512, 128, SamoyedsConfig::DEFAULT);
        assert_eq!(sp.selected_n, 128);
    }
}
