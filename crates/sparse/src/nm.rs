//! Element-wise N:M structured sparsity (the hardware-native case is 2:4).
//!
//! In an N:M-sparse matrix every contiguous group of `M` elements along a row
//! contains at most `N` non-zeros. The compressed encoding keeps, for every
//! group, exactly `N` values plus the 2-bit in-group position of each kept
//! value — this is precisely the `{data, metadata}` pair the Sparse Tensor
//! Core `mma.sp` instruction consumes (§2.3, Figure 4).

use crate::dense::DenseMatrix;
use crate::error::{Result, SparseError};
use crate::traits::SparseFormat;

/// An N:M sparsity configuration (e.g. 2:4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NmConfig {
    /// Number of values kept per group.
    pub n: usize,
    /// Group size.
    pub m: usize,
}

impl NmConfig {
    /// The hardware-supported 2:4 configuration.
    pub const TWO_FOUR: NmConfig = NmConfig { n: 2, m: 4 };

    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.n == 0 || self.m == 0 || self.n > self.m {
            return Err(SparseError::config(format!(
                "invalid N:M = {}:{}",
                self.n, self.m
            )));
        }
        if self.m > 16 {
            return Err(SparseError::config(format!(
                "group size {} exceeds the 4-bit metadata index range used by SpTC encodings",
                self.m
            )));
        }
        Ok(())
    }

    /// Fraction of elements removed by this pattern.
    pub fn sparsity(&self) -> f64 {
        1.0 - self.n as f64 / self.m as f64
    }
}

/// A matrix stored in compressed N:M form: per row, `cols * N / M` values and
/// the same number of in-group position indices ("metadata").
#[derive(Debug, Clone, PartialEq)]
pub struct NmMatrix {
    rows: usize,
    cols: usize,
    config: NmConfig,
    /// Compressed non-zero values, row-major, `rows x (cols * n / m)`.
    values: Vec<f32>,
    /// Position of each kept value inside its group of `m`, `0..m`.
    /// Same shape as `values`. Stored as `u8`; the hardware packs these into
    /// 2-bit fields, whose reorganised layout (Figure 10) `samoyeds-kernels`
    /// prices through `SamoyedsOptions::metadata_packing`.
    metadata: Vec<u8>,
}

impl NmMatrix {
    /// Prune a dense matrix to N:M sparsity by keeping the `N`
    /// largest-magnitude elements of every group of `M`, then encode it.
    pub fn prune_from_dense(dense: &DenseMatrix, config: NmConfig) -> Result<Self> {
        config.validate()?;
        if !dense.cols().is_multiple_of(config.m) {
            return Err(SparseError::shape(format!(
                "cols {} not divisible by group size {}",
                dense.cols(),
                config.m
            )));
        }
        let groups_per_row = dense.cols() / config.m;
        let kept_per_row = groups_per_row * config.n;
        let mut values = Vec::with_capacity(dense.rows() * kept_per_row);
        let mut metadata = Vec::with_capacity(dense.rows() * kept_per_row);
        for r in 0..dense.rows() {
            let row = dense.row(r);
            for g in 0..groups_per_row {
                let group = &row[g * config.m..(g + 1) * config.m];
                // Select the N largest-magnitude positions, keeping them in
                // ascending index order as the hardware metadata requires.
                let mut order: Vec<usize> = (0..config.m).collect();
                order.sort_by(|&a, &b| {
                    group[b]
                        .abs()
                        .partial_cmp(&group[a].abs())
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                let mut kept: Vec<usize> = order[..config.n].to_vec();
                kept.sort_unstable();
                for &idx in &kept {
                    values.push(group[idx]);
                    metadata.push(idx as u8);
                }
            }
        }
        Ok(Self {
            rows: dense.rows(),
            cols: dense.cols(),
            config,
            values,
            metadata,
        })
    }

    /// Per-value in-group positions, row-major, `rows x kept_cols()` like
    /// the compressed values.
    pub fn metadata(&self) -> &[u8] {
        &self.metadata
    }

    /// Number of stored values per row (`cols * n / m`).
    pub fn kept_cols(&self) -> usize {
        self.cols * self.config.n / self.config.m
    }

    /// The compressed values of row `r`.
    pub fn values_row(&self, r: usize) -> &[f32] {
        let k = self.kept_cols();
        &self.values[r * k..(r + 1) * k]
    }

    /// The metadata of row `r`.
    pub fn metadata_row(&self, r: usize) -> &[u8] {
        let k = self.kept_cols();
        &self.metadata[r * k..(r + 1) * k]
    }

    /// Sparse x dense product `C = self * B` where `self` is interpreted at
    /// its logical `rows x cols` shape.
    pub fn spmm(&self, b: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != b.rows() {
            return Err(SparseError::shape(format!(
                "nm spmm {}x{} * {}x{}",
                self.rows,
                self.cols,
                b.rows(),
                b.cols()
            )));
        }
        let n_out = b.cols();
        let kept = self.kept_cols();
        let groups_per_row = self.cols / self.config.m;
        let per_group = self.config.n;
        let mut out = DenseMatrix::zeros(self.rows, n_out);
        for r in 0..self.rows {
            let vals = self.values_row(r);
            let meta = self.metadata_row(r);
            let row_c = &mut out.as_mut_slice()[r * n_out..(r + 1) * n_out];
            debug_assert_eq!(vals.len(), kept);
            for g in 0..groups_per_row {
                for j in 0..per_group {
                    let v = vals[g * per_group + j];
                    if v == 0.0 {
                        continue;
                    }
                    let col = g * self.config.m + meta[g * per_group + j] as usize;
                    let row_b = b.row(col);
                    for (o, x) in row_c.iter_mut().zip(row_b.iter()) {
                        *o += v * x;
                    }
                }
            }
        }
        Ok(out)
    }
}

impl SparseFormat for NmMatrix {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn nnz(&self) -> usize {
        self.values.iter().filter(|v| **v != 0.0).count()
    }

    fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        let per_group = self.config.n;
        let groups_per_row = self.cols / self.config.m;
        for r in 0..self.rows {
            let vals = self.values_row(r);
            let meta = self.metadata_row(r);
            for g in 0..groups_per_row {
                for j in 0..per_group {
                    let col = g * self.config.m + meta[g * per_group + j] as usize;
                    out.set(r, col, vals[g * per_group + j]);
                }
            }
        }
        out
    }

    fn storage_bytes(&self, bf16: bool) -> usize {
        let value_bytes = if bf16 { 2 } else { 4 };
        // Metadata is 2 bits per stored value on hardware (4 values per byte).
        self.values.len() * value_bytes + self.metadata.len().div_ceil(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(NmConfig { n: 2, m: 4 }.validate().is_ok());
        assert!(NmConfig { n: 0, m: 4 }.validate().is_err());
        assert!(NmConfig { n: 5, m: 4 }.validate().is_err());
        assert!(NmConfig { n: 2, m: 32 }.validate().is_err());
        assert!((NmConfig::TWO_FOUR.sparsity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn prune_keeps_largest_magnitude() {
        let d = DenseMatrix::from_vec(1, 4, vec![0.1, -5.0, 3.0, 0.2]).unwrap();
        let nm = NmMatrix::prune_from_dense(&d, NmConfig::TWO_FOUR).unwrap();
        let dense = nm.to_dense();
        assert_eq!(dense.as_slice(), &[0.0, -5.0, 3.0, 0.0]);
        assert_eq!(nm.metadata(), &[1, 2]);
    }

    #[test]
    fn prune_respects_pattern_on_random_data() {
        let d = DenseMatrix::random(16, 64, 9);
        let nm = NmMatrix::prune_from_dense(&d, NmConfig::TWO_FOUR).unwrap();
        let dense = nm.to_dense();
        // Every group of 4 has at most 2 nonzeros.
        for r in 0..dense.rows() {
            for g in 0..dense.cols() / 4 {
                let cnt = (0..4).filter(|&i| dense.get(r, g * 4 + i) != 0.0).count();
                assert!(cnt <= 2);
            }
        }
        assert!((dense.sparsity() - 0.5).abs() < 0.01);
    }

    #[test]
    fn shape_must_divide_group() {
        let d = DenseMatrix::zeros(2, 6);
        assert!(NmMatrix::prune_from_dense(&d, NmConfig::TWO_FOUR).is_err());
    }

    #[test]
    fn spmm_matches_pruned_dense_reference() {
        let d = DenseMatrix::random(24, 32, 4);
        let nm = NmMatrix::prune_from_dense(&d, NmConfig::TWO_FOUR).unwrap();
        let pruned = nm.to_dense();
        let b = DenseMatrix::random(32, 16, 5);
        let expected = pruned.matmul(&b).unwrap();
        assert!(nm.spmm(&b).unwrap().allclose(&expected, 1e-4, 1e-4));
    }

    #[test]
    fn storage_is_roughly_half_plus_metadata() {
        let d = DenseMatrix::random(16, 64, 1);
        let nm = NmMatrix::prune_from_dense(&d, NmConfig::TWO_FOUR).unwrap();
        let dense_bytes = d.storage_bytes(true);
        let nm_bytes = nm.storage_bytes(true);
        // 2:4 keeps half the values (in bf16) plus 2-bit metadata per value.
        assert!(nm_bytes < dense_bytes * 3 / 4);
        assert!(nm_bytes > dense_bytes / 2);
    }

    #[test]
    fn other_nm_ratios_work() {
        let d = DenseMatrix::random(8, 16, 2);
        let cfg = NmConfig { n: 1, m: 4 };
        let nm = NmMatrix::prune_from_dense(&d, cfg).unwrap();
        assert!((nm.to_dense().sparsity() - 0.75).abs() < 0.01);
        let b = DenseMatrix::random(16, 8, 3);
        let expected = nm.to_dense().matmul(&b).unwrap();
        assert!(nm.spmm(&b).unwrap().allclose(&expected, 1e-4, 1e-4));
    }
}
