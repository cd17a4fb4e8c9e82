//! Magnitude-based pruning (Han et al.), the simplest saliency criterion and
//! the "unstructured" reference point of Table 5, is
//! [`samoyeds_sparse::prune::prune`] itself. This module holds the metric the
//! accuracy harness scores a pruned weight by.

use samoyeds_sparse::prune::PrunedWeight;
use samoyeds_sparse::DenseMatrix;

/// Fraction of the weight tensor's squared L2 norm (its "energy") retained
/// by a pruned representation — the saliency-preservation metric the
/// accuracy harness correlates with task quality.
pub fn retained_energy(original: &DenseMatrix, pruned: &PrunedWeight) -> f64 {
    let pruned_dense = pruned.to_dense();
    let total: f64 = original
        .as_slice()
        .iter()
        .map(|v| (*v as f64).powi(2))
        .sum();
    if total == 0.0 {
        return 1.0;
    }
    let kept: f64 = pruned_dense
        .as_slice()
        .iter()
        .map(|v| (*v as f64).powi(2))
        .sum();
    (kept / total).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use samoyeds_sparse::nm::NmConfig;
    use samoyeds_sparse::prune::{prune, PruneFormat};
    use samoyeds_sparse::samoyeds::SamoyedsConfig;
    use samoyeds_sparse::venom::VenomConfig;

    #[test]
    fn retained_energy_is_one_for_dense_and_less_for_pruned() {
        let w = DenseMatrix::random(64, 128, 1);
        let dense = prune(&w, PruneFormat::Dense).unwrap();
        assert!((retained_energy(&w, &dense) - 1.0).abs() < 1e-9);
        let pruned = prune(&w, PruneFormat::Nm(NmConfig::TWO_FOUR)).unwrap();
        let e = retained_energy(&w, &pruned);
        assert!(e < 1.0 && e > 0.5);
    }

    #[test]
    fn unstructured_keeps_more_energy_than_structured_at_equal_sparsity() {
        // At 75% sparsity, unstructured magnitude pruning is the upper bound
        // on retained energy; the structured formats trail it.
        let w = DenseMatrix::random(128, 256, 2);
        let unstructured = retained_energy(
            &w,
            &prune(&w, PruneFormat::Unstructured { sparsity: 0.75 }).unwrap(),
        );
        let samoyeds = retained_energy(
            &w,
            &prune(&w, PruneFormat::Samoyeds(SamoyedsConfig::DEFAULT)).unwrap(),
        );
        let venom = retained_energy(
            &w,
            &prune(&w, PruneFormat::Venom(VenomConfig { v: 64, n: 4, m: 8 })).unwrap(),
        );
        assert!(unstructured >= samoyeds);
        assert!(unstructured >= venom);
        // All three keep a substantial share.
        for e in [unstructured, samoyeds, venom] {
            assert!(e > 0.3 && e < 1.0, "energy {e}");
        }
    }

    #[test]
    fn samoyeds_configurations_have_similar_energy() {
        // Table 4's point: accuracy is stable across (N,M,V) configurations.
        let w = DenseMatrix::random(128, 256, 3);
        let energies: Vec<f64> = [
            SamoyedsConfig::N1_M2_V16,
            SamoyedsConfig::N1_M2_V32,
            SamoyedsConfig::N4_M8_V32,
            SamoyedsConfig::N8_M16_V32,
        ]
        .iter()
        .map(|cfg| retained_energy(&w, &prune(&w, PruneFormat::Samoyeds(*cfg)).unwrap()))
        .collect();
        let max = energies.iter().cloned().fold(f64::MIN, f64::max);
        let min = energies.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max - min < 0.08, "energies {energies:?}");
    }
}
