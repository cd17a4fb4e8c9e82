//! The V:N:M format of the VENOM baseline (Castro et al., SC'23).
//!
//! VENOM extends hardware 2:4 sparsity with an extra, coarser vector-wise
//! pruning step so that arbitrary sparsity ratios above 50% become reachable
//! on Sparse Tensor Cores:
//!
//! * the matrix is split into row panels of `V` consecutive rows;
//! * inside a panel, every group of `M` columns keeps only `N` columns
//!   (a kept column is a `V`-long column vector — hence "vector-wise");
//! * the surviving columns are compacted and 2:4 element-wise sparsity is
//!   applied along each row of the compacted panel.
//!
//! The resulting encoding is `{values, column indices, 2:4 metadata}` and is
//! efficient for sparse-weight x *dense*-input products (Figure 6 ➊). Its
//! weakness — the one Samoyeds fixes — is that when the *input* is also
//! sparse the skipped rows/columns fragment the input tiles (Figure 6 ➋-➍).

use crate::dense::DenseMatrix;
use crate::error::{Result, SparseError};
use crate::prune::top_n;
use crate::traits::SparseFormat;

/// Configuration of a V:N:M matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VenomConfig {
    /// Row-panel height (vector length of the column vectors being pruned).
    pub v: usize,
    /// Columns kept per group of `m` within a panel.
    pub n: usize,
    /// Column group size.
    pub m: usize,
}

impl VenomConfig {
    /// The 64:2:8 configuration highlighted in the VENOM paper, reaching 75%
    /// total sparsity when combined with 2:4.
    pub const V64_2_8: VenomConfig = VenomConfig { v: 64, n: 2, m: 8 };

    /// Validate the configuration. Whether a panel's kept columns fill
    /// whole 2:4 groups depends on the matrix width, so
    /// [`VenomMatrix::prune_from_dense`] checks that.
    pub fn validate(&self) -> Result<()> {
        if self.v == 0 || self.n == 0 || self.m == 0 || self.n > self.m {
            return Err(SparseError::config(format!(
                "invalid V:N:M = {}:{}:{}",
                self.v, self.n, self.m
            )));
        }
        Ok(())
    }

    /// Overall sparsity after both pruning steps (column pruning then 2:4).
    pub fn sparsity(&self) -> f64 {
        1.0 - (self.n as f64 / self.m as f64) * 0.5
    }
}

/// A matrix stored in VENOM V:N:M form.
#[derive(Debug, Clone, PartialEq)]
pub struct VenomMatrix {
    rows: usize,
    cols: usize,
    config: VenomConfig,
    /// Kept column indices per panel: `panels x (col_groups * n)`, each entry
    /// is an absolute column index of the original matrix.
    col_indices: Vec<u32>,
    /// Compressed values after column compaction and 2:4 pruning:
    /// `rows x (kept_cols / 2)` row-major.
    values: Vec<f32>,
    /// 2-bit positions (stored as u8) of kept elements inside their group of
    /// 4 compacted columns. Same shape as `values`.
    metadata: Vec<u8>,
}

impl VenomMatrix {
    /// Prune a dense matrix into V:N:M form using column-vector L2 norms for
    /// the vector-wise step and magnitude for the element-wise step; in both,
    /// ties keep the lower position. The kept columns of a panel
    /// (`cols / m * n`) must fill whole 2:4 groups.
    pub fn prune_from_dense(dense: &DenseMatrix, config: VenomConfig) -> Result<Self> {
        config.validate()?;
        let (rows, cols) = dense.shape();
        if rows % config.v != 0 {
            return Err(SparseError::shape(format!(
                "rows {rows} not divisible by panel height {}",
                config.v
            )));
        }
        if cols % config.m != 0 {
            return Err(SparseError::shape(format!(
                "cols {cols} not divisible by column group size {}",
                config.m
            )));
        }
        let kept_cols = cols / config.m * config.n;
        if !kept_cols.is_multiple_of(4) {
            return Err(SparseError::shape(format!(
                "kept columns {kept_cols} not divisible by 4 (2:4 requirement)"
            )));
        }
        let panels = rows / config.v;
        let col_groups = cols / config.m;

        let mut col_indices = Vec::with_capacity(panels * kept_cols);
        let mut values = Vec::with_capacity(rows * kept_cols / 2);
        let mut metadata = Vec::with_capacity(rows * kept_cols / 2);

        for p in 0..panels {
            let row_start = p * config.v;
            // Vector-wise step: keep the N columns of each group with the
            // largest L2 norm over the panel.
            let mut panel_cols: Vec<u32> = Vec::with_capacity(kept_cols);
            for g in 0..col_groups {
                let norms: Vec<f32> = (0..config.m)
                    .map(|j| {
                        (0..config.v)
                            .map(|i| {
                                let v = dense.get(row_start + i, g * config.m + j);
                                v * v
                            })
                            .sum()
                    })
                    .collect();
                let kept = top_n(&norms, config.n).into_iter();
                panel_cols.extend(kept.map(|j| (g * config.m + j) as u32));
            }
            // Element-wise step: 2:4 over the compacted columns, per row.
            for r in row_start..row_start + config.v {
                for group_cols in panel_cols.chunks_exact(4) {
                    let group: [f32; 4] =
                        std::array::from_fn(|j| dense.get(r, group_cols[j] as usize));
                    for idx in top_n(&group.map(f32::abs), 2) {
                        values.push(group[idx]);
                        metadata.push(idx as u8);
                    }
                }
            }
            col_indices.extend_from_slice(&panel_cols);
        }

        Ok(Self {
            rows,
            cols,
            config,
            col_indices,
            values,
            metadata,
        })
    }

    /// Number of columns kept per panel after the vector-wise step.
    pub fn kept_cols(&self) -> usize {
        self.cols / self.config.m * self.config.n
    }

    /// Number of values stored per row (after the element-wise 2:4 step).
    pub fn stored_per_row(&self) -> usize {
        self.kept_cols() / 2
    }

    /// Number of row panels.
    pub fn panels(&self) -> usize {
        self.rows / self.config.v
    }

    /// Kept column indices of panel `p` (length [`Self::kept_cols`]).
    pub fn panel_col_indices(&self, p: usize) -> &[u32] {
        let k = self.kept_cols();
        &self.col_indices[p * k..(p + 1) * k]
    }

    /// Compressed values of row `r`.
    pub fn values_row(&self, r: usize) -> &[f32] {
        let k = self.stored_per_row();
        &self.values[r * k..(r + 1) * k]
    }

    /// Metadata of row `r`.
    pub fn metadata_row(&self, r: usize) -> &[u8] {
        let k = self.stored_per_row();
        &self.metadata[r * k..(r + 1) * k]
    }
}

impl SparseFormat for VenomMatrix {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn for_each_entry(&self, mut f: impl FnMut(usize, usize, f32)) {
        for r in 0..self.rows {
            let panel_cols = self.panel_col_indices(r / self.config.v);
            let entries = self.values_row(r).iter().zip(self.metadata_row(r));
            for (i, (&v, &pos)) in entries.enumerate() {
                f(r, panel_cols[i / 2 * 4 + pos as usize] as usize, v);
            }
        }
    }

    fn storage_bytes(&self, bf16: bool) -> usize {
        let value_bytes = if bf16 { 2 } else { 4 };
        self.values.len() * value_bytes
            + self.metadata.len().div_ceil(4)
            + self.col_indices.len() * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> VenomConfig {
        VenomConfig { v: 8, n: 2, m: 8 }
    }

    #[test]
    fn config_validation_and_sparsity() {
        assert!(cfg().validate().is_ok());
        assert!(VenomConfig { v: 0, n: 2, m: 8 }.validate().is_err());
        assert!(VenomConfig { v: 8, n: 9, m: 8 }.validate().is_err());
        assert!((VenomConfig::V64_2_8.sparsity() - 0.875).abs() < 1e-12);
        assert!((cfg().sparsity() - 0.875).abs() < 1e-12);
    }

    #[test]
    fn prune_shape_requirements() {
        assert!(VenomMatrix::prune_from_dense(&DenseMatrix::zeros(9, 16), cfg()).is_err());
        assert!(VenomMatrix::prune_from_dense(&DenseMatrix::zeros(16, 9), cfg()).is_err());
        assert!(VenomMatrix::prune_from_dense(&DenseMatrix::zeros(16, 16), cfg()).is_ok());
        // A 4×8 matrix keeps 2 columns per panel: not whole 2:4 groups.
        let narrow = VenomConfig { v: 4, n: 2, m: 8 };
        assert!(VenomMatrix::prune_from_dense(&DenseMatrix::zeros(4, 8), narrow).is_err());
    }

    #[test]
    fn pruned_matrix_respects_both_patterns() {
        let d = DenseMatrix::random(32, 64, 17);
        let vm = VenomMatrix::prune_from_dense(&d, cfg()).unwrap();
        let dense = vm.to_dense();
        // Column-vector sparsity: per panel and column group, at most n
        // columns carry any nonzero.
        for p in 0..vm.panels() {
            for g in 0..d.cols() / 8 {
                let mut live_cols = 0;
                for j in 0..8 {
                    let c = g * 8 + j;
                    let any = (0..8).any(|i| dense.get(p * 8 + i, c) != 0.0);
                    if any {
                        live_cols += 1;
                    }
                }
                assert!(
                    live_cols <= 2,
                    "panel {p} group {g} has {live_cols} live columns"
                );
            }
        }
        // Total sparsity close to 87.5%.
        assert!((dense.sparsity() - 0.875).abs() < 0.02);
    }

    #[test]
    fn spmm_matches_dense_reference_of_pruned_matrix() {
        let d = DenseMatrix::random(16, 32, 23);
        let vm = VenomMatrix::prune_from_dense(&d, VenomConfig { v: 8, n: 4, m: 8 }).unwrap();
        let b = DenseMatrix::random(32, 24, 29);
        let expected = vm.to_dense().matmul(&b).unwrap();
        assert!(vm.spmm(&b).unwrap().allclose(&expected, 1e-4, 1e-4));
    }

    #[test]
    fn storage_is_smaller_than_dense() {
        let d = DenseMatrix::random(64, 128, 31);
        let vm = VenomMatrix::prune_from_dense(&d, VenomConfig::V64_2_8).unwrap();
        assert!(vm.storage_bytes(true) < d.storage_bytes(true) / 4);
        assert!(vm.compression_ratio(true) > 4.0);
    }

    #[test]
    fn keeps_high_norm_columns() {
        // Construct a matrix where columns 3 and 5 of the first group and
        // 11 and 13 of the second group dominate; they must survive pruning.
        let mut d = DenseMatrix::zeros(8, 16);
        for i in 0..8 {
            d.set(i, 3, 10.0);
            d.set(i, 5, -9.0);
            d.set(i, 11, 8.0);
            d.set(i, 13, -7.0);
            d.set(i, 0, 0.01);
            d.set(i, 9, 0.02);
        }
        let vm = VenomMatrix::prune_from_dense(&d, cfg()).unwrap();
        let cols = vm.panel_col_indices(0);
        assert_eq!(cols, &[3, 5, 11, 13]);
    }
}
