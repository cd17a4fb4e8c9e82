//! Convenience pruning entry points: turn a dense weight matrix into any of
//! the sparse representations studied in the paper, at a requested target
//! sparsity where the format allows it.
//!
//! These are the *magnitude-based* pruners used by the performance
//! experiments. Every structured format selects what it keeps with one rule,
//! the crate-private `top_n`: per group, the `n` positions with the largest
//! scores, ties going to the lower position. The higher-quality
//! WoodFisher-style and SparseGPT-style pruners used by the accuracy
//! experiments (Tables 4 and 5) live in the `samoyeds-pruning` crate because
//! they need calibration data.

use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::error::{Result, SparseError};
use crate::nm::{NmConfig, NmMatrix};
use crate::samoyeds::{SamoyedsConfig, SamoyedsWeight};
use crate::venom::{VenomConfig, VenomMatrix};

/// The sparse representation a weight matrix should be pruned into.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PruneFormat {
    /// Keep the matrix dense (identity "pruning"); baseline for accuracy.
    Dense,
    /// Unstructured magnitude pruning to a target sparsity, stored as CSR.
    Unstructured {
        /// Fraction of weights to remove, in `[0, 1)`.
        sparsity: f64,
    },
    /// Element-wise N:M structured sparsity.
    Nm(NmConfig),
    /// VENOM V:N:M structured sparsity.
    Venom(VenomConfig),
    /// Samoyeds (N,M,V) dual-side weight sparsity.
    Samoyeds(SamoyedsConfig),
}

impl PruneFormat {
    /// Human-readable label used in experiment tables.
    pub fn label(&self) -> String {
        match self {
            PruneFormat::Dense => "dense".to_string(),
            PruneFormat::Unstructured { sparsity } => {
                format!("unstructured-{:.0}%", sparsity * 100.0)
            }
            PruneFormat::Nm(c) => format!("{}:{}", c.n, c.m),
            PruneFormat::Venom(c) => format!("venom-{}:{}:{}", c.v, c.n, c.m),
            PruneFormat::Samoyeds(c) => format!("samoyeds-{}", c.label()),
        }
    }

    /// Nominal sparsity of the format (what fraction of weights is removed).
    pub fn nominal_sparsity(&self) -> f64 {
        match self {
            PruneFormat::Dense => 0.0,
            PruneFormat::Unstructured { sparsity } => *sparsity,
            PruneFormat::Nm(c) => c.sparsity(),
            PruneFormat::Venom(c) => c.sparsity(),
            PruneFormat::Samoyeds(c) => c.sparsity(),
        }
    }
}

/// A pruned weight matrix in whichever representation was requested.
#[derive(Debug, Clone, PartialEq)]
pub enum PrunedWeight {
    /// Dense (not pruned).
    Dense(DenseMatrix),
    /// Unstructured CSR.
    Unstructured(CsrMatrix),
    /// N:M compressed.
    Nm(NmMatrix),
    /// VENOM compressed.
    Venom(VenomMatrix),
    /// Samoyeds compressed.
    Samoyeds(SamoyedsWeight),
}

impl PrunedWeight {
    /// Reconstruct the dense matrix the pruned representation stands for.
    pub fn to_dense(&self) -> DenseMatrix {
        use crate::traits::SparseFormat;
        match self {
            PrunedWeight::Dense(d) => d.clone(),
            PrunedWeight::Unstructured(c) => c.to_dense(),
            PrunedWeight::Nm(m) => m.to_dense(),
            PrunedWeight::Venom(v) => v.to_dense(),
            PrunedWeight::Samoyeds(s) => s.to_dense(),
        }
    }

    /// Compressed storage in bytes.
    pub fn storage_bytes(&self, bf16: bool) -> usize {
        use crate::traits::SparseFormat;
        match self {
            PrunedWeight::Dense(d) => d.storage_bytes(bf16),
            PrunedWeight::Unstructured(c) => c.storage_bytes(bf16),
            PrunedWeight::Nm(m) => m.storage_bytes(bf16),
            PrunedWeight::Venom(v) => v.storage_bytes(bf16),
            PrunedWeight::Samoyeds(s) => s.storage_bytes(bf16),
        }
    }
}

/// Magnitude-prune `dense` into the requested format.
pub fn prune(dense: &DenseMatrix, format: PruneFormat) -> Result<PrunedWeight> {
    match format {
        PruneFormat::Dense => Ok(PrunedWeight::Dense(dense.clone())),
        PruneFormat::Unstructured { sparsity } => Ok(PrunedWeight::Unstructured(
            prune_unstructured(dense, sparsity)?,
        )),
        PruneFormat::Nm(cfg) => Ok(PrunedWeight::Nm(NmMatrix::prune_from_dense(dense, cfg)?)),
        PruneFormat::Venom(cfg) => Ok(PrunedWeight::Venom(VenomMatrix::prune_from_dense(
            dense, cfg,
        )?)),
        PruneFormat::Samoyeds(cfg) => Ok(PrunedWeight::Samoyeds(SamoyedsWeight::prune_from_dense(
            dense, cfg,
        )?)),
    }
}

/// The positions of the `n` largest `scores`, in ascending order (the order
/// `mma.sp` metadata and the formats' index arrays keep): the selection rule
/// of every structured format, for the 2:4 step and for the vector-wise step
/// alike. Ties keep the lower position, and a NaN compares equal to
/// everything.
pub(crate) fn top_n(scores: &[f32], n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    order.truncate(n);
    order.sort_unstable();
    order
}

/// Global magnitude pruning: zero out the smallest-magnitude `sparsity`
/// fraction of entries and return the CSR encoding of the survivor set.
pub fn prune_unstructured(dense: &DenseMatrix, sparsity: f64) -> Result<CsrMatrix> {
    if !(0.0..1.0).contains(&sparsity) {
        return Err(SparseError::config(format!(
            "unstructured sparsity {sparsity} must be in [0, 1)"
        )));
    }
    let mut magnitudes: Vec<f32> = dense.as_slice().iter().map(|v| v.abs()).collect();
    magnitudes.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let cutoff_index = ((magnitudes.len() as f64) * sparsity).floor() as usize;
    let threshold = if cutoff_index == 0 {
        -1.0 // keep everything
    } else {
        magnitudes[cutoff_index.min(magnitudes.len() - 1)]
    };
    let masked = DenseMatrix::from_fn(dense.rows(), dense.cols(), |r, c| {
        let v = dense.get(r, c);
        if v.abs() < threshold {
            0.0
        } else {
            v
        }
    });
    Ok(CsrMatrix::from_dense(&masked))
}

/// Apply the binary mask implied by pruning `reference` into `format` onto
/// another matrix of the same shape. Used by the accuracy harness to transfer
/// a mask computed on calibration statistics onto raw weights.
pub fn apply_mask_of(reference: &PrunedWeight, target: &DenseMatrix) -> Result<DenseMatrix> {
    let ref_dense = reference.to_dense();
    if ref_dense.shape() != target.shape() {
        return Err(SparseError::shape("mask/target shape mismatch"));
    }
    Ok(DenseMatrix::from_fn(
        target.rows(),
        target.cols(),
        |r, c| {
            if ref_dense.get(r, c) != 0.0 {
                target.get(r, c)
            } else {
                0.0
            }
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::SparseFormat;

    #[test]
    fn labels_and_nominal_sparsity() {
        assert_eq!(PruneFormat::Dense.label(), "dense");
        assert_eq!(
            PruneFormat::Unstructured { sparsity: 0.75 }.label(),
            "unstructured-75%"
        );
        assert_eq!(PruneFormat::Nm(NmConfig::TWO_FOUR).label(), "2:4");
        assert!(PruneFormat::Venom(VenomConfig::V64_2_8)
            .label()
            .starts_with("venom"));
        assert_eq!(
            PruneFormat::Samoyeds(SamoyedsConfig::DEFAULT).label(),
            "samoyeds-(1,2,32)"
        );
        assert!(
            (PruneFormat::Samoyeds(SamoyedsConfig::DEFAULT).nominal_sparsity() - 0.75).abs() < 1e-9
        );
        assert_eq!(PruneFormat::Dense.nominal_sparsity(), 0.0);
    }

    #[test]
    fn unstructured_prune_hits_target() {
        let d = DenseMatrix::random(64, 64, 5);
        let csr = prune_unstructured(&d, 0.75).unwrap();
        let s = csr.sparsity();
        assert!((s - 0.75).abs() < 0.02, "sparsity {s}");
        assert!(prune_unstructured(&d, 1.5).is_err());
    }

    #[test]
    fn prune_dispatches_to_every_format() {
        let d = DenseMatrix::random(64, 64, 6);
        for fmt in [
            PruneFormat::Dense,
            PruneFormat::Unstructured { sparsity: 0.5 },
            PruneFormat::Nm(NmConfig::TWO_FOUR),
            PruneFormat::Venom(VenomConfig { v: 8, n: 2, m: 8 }),
            PruneFormat::Samoyeds(SamoyedsConfig::DEFAULT),
        ] {
            let pruned = prune(&d, fmt).unwrap();
            let dense = pruned.to_dense();
            assert_eq!(dense.shape(), d.shape());
            let achieved = dense.sparsity();
            let nominal = fmt.nominal_sparsity();
            assert!(
                achieved + 0.05 >= nominal,
                "{}: achieved {achieved} < nominal {nominal}",
                fmt.label()
            );
            assert!(pruned.storage_bytes(true) > 0);
        }
    }

    #[test]
    fn pruned_values_are_subset_of_original() {
        let d = DenseMatrix::random(32, 64, 7);
        let pruned = prune(&d, PruneFormat::Samoyeds(SamoyedsConfig::DEFAULT)).unwrap();
        let dense = pruned.to_dense();
        for r in 0..d.rows() {
            for c in 0..d.cols() {
                let v = dense.get(r, c);
                assert!(v == 0.0 || v == d.get(r, c));
            }
        }
    }

    #[test]
    fn exact_ties_keep_the_lower_positions() {
        // Every score ties on an all-ones matrix, so each selection keeps
        // the first `n` positions of its group.
        let ones = DenseMatrix::from_fn(16, 64, |_, _| 1.0);
        let nm = NmMatrix::prune_from_dense(&ones, NmConfig::TWO_FOUR).unwrap();
        assert!(nm.metadata().chunks(2).all(|pair| pair == [0, 1]));
        let venom = VenomMatrix::prune_from_dense(&ones, VenomConfig { v: 8, n: 2, m: 8 }).unwrap();
        for p in 0..venom.panels() {
            let kept: Vec<u32> = (0..8).flat_map(|g| [g * 8, g * 8 + 1]).collect();
            assert_eq!(venom.panel_col_indices(p), kept.as_slice());
        }
        for r in 0..16 {
            assert!(venom.metadata_row(r).chunks(2).all(|pair| pair == [0, 1]));
        }
        for cfg in [SamoyedsConfig::N1_M2_V16, SamoyedsConfig::N4_M8_V32] {
            let w = SamoyedsWeight::prune_from_dense(&ones, cfg).unwrap();
            for comp_r in 0..w.compressed_rows() {
                for cb in 0..w.col_blocks() {
                    assert_eq!(w.sub_row_index(comp_r, cb), comp_r % cfg.n);
                }
            }
            assert!(w.metadata().chunks(2).all(|pair| pair == [0, 1]));
        }
    }

    #[test]
    fn apply_mask_transfers_zero_pattern() {
        let d = DenseMatrix::random(16, 32, 8);
        let pruned = prune(&d, PruneFormat::Nm(NmConfig::TWO_FOUR)).unwrap();
        let other = DenseMatrix::random(16, 32, 9);
        let masked = apply_mask_of(&pruned, &other).unwrap();
        let ref_dense = pruned.to_dense();
        for r in 0..16 {
            for c in 0..32 {
                if ref_dense.get(r, c) == 0.0 {
                    assert_eq!(masked.get(r, c), 0.0);
                } else {
                    assert_eq!(masked.get(r, c), other.get(r, c));
                }
            }
        }
        assert!(apply_mask_of(&pruned, &DenseMatrix::zeros(4, 4)).is_err());
    }
}
