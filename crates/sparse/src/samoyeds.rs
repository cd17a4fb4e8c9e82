//! The Samoyeds dual-side sparse **weight** format (§4.1, Figure 7, left).
//!
//! The weight matrix (`m x k`) is segmented into structured sparse blocks of
//! `M` Sub-Rows by `V` columns. Within every block only `N` Sub-Rows are
//! retained (vector-wise sparsity); the surviving Sub-Rows are further pruned
//! to the hardware 2:4 pattern (element-wise sparsity). The total sparsity is
//! therefore `1 - (N/M) * 0.5`; the (1,2,V) configurations used throughout the
//! paper give 75%.
//!
//! The encoding has three components:
//!
//! * **data** — compressed non-zero values, shape `(m*N/M) x (k/2)`;
//! * **indices** — for every compressed row and every column block, the
//!   position (0..M) of the retained Sub-Row inside its block, shape
//!   `(m*N/M) x (k/V)`;
//! * **metadata** — the 2-bit in-group positions required by `mma.sp`, shape
//!   `(m*N/M) x (k/2)`.
//!
//! A single *compressed* row therefore stitches together Sub-Rows that may
//! originate from *different* original rows in different column blocks — this
//! is exactly the property that forces the data-stationary register shuffle of
//! §4.3 (Figure 9) in the kernel.

use crate::dense::DenseMatrix;
use crate::error::{Result, SparseError};
use crate::traits::SparseFormat;

/// The (N, M, V) sparsity configuration of the Samoyeds weight format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamoyedsConfig {
    /// Sub-Rows retained per block.
    pub n: usize,
    /// Sub-Rows per block (block height).
    pub m: usize,
    /// Sub-Row length (block width), must be a multiple of 4.
    pub v: usize,
}

impl SamoyedsConfig {
    /// The default configuration used in most of the paper's experiments.
    pub const DEFAULT: SamoyedsConfig = SamoyedsConfig { n: 1, m: 2, v: 32 };

    /// The (1,2,16) configuration from Table 4.
    pub const N1_M2_V16: SamoyedsConfig = SamoyedsConfig { n: 1, m: 2, v: 16 };
    /// The (1,2,32) configuration from Table 4.
    pub const N1_M2_V32: SamoyedsConfig = SamoyedsConfig { n: 1, m: 2, v: 32 };
    /// The (4,8,32) configuration from Table 4.
    pub const N4_M8_V32: SamoyedsConfig = SamoyedsConfig { n: 4, m: 8, v: 32 };
    /// The (8,16,32) configuration from Table 4.
    pub const N8_M16_V32: SamoyedsConfig = SamoyedsConfig { n: 8, m: 16, v: 32 };

    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.n == 0 || self.m == 0 || self.v == 0 || self.n > self.m {
            return Err(SparseError::config(format!(
                "invalid (N,M,V) = ({},{},{})",
                self.n, self.m, self.v
            )));
        }
        if !self.v.is_multiple_of(4) {
            return Err(SparseError::config(format!(
                "Sub-Row length V={} must contain whole 2:4 SpTC units (multiple of 4)",
                self.v
            )));
        }
        Ok(())
    }

    /// Total sparsity implied by the pattern (vector-wise + 2:4).
    pub fn sparsity(&self) -> f64 {
        1.0 - (self.n as f64 / self.m as f64) * 0.5
    }

    /// Short display string, e.g. `(1,2,32)`.
    pub fn label(&self) -> String {
        format!("({},{},{})", self.n, self.m, self.v)
    }
}

/// A weight matrix encoded in the Samoyeds dual-side format (weight side).
#[derive(Debug, Clone, PartialEq)]
pub struct SamoyedsWeight {
    rows: usize,
    cols: usize,
    config: SamoyedsConfig,
    /// Compressed values, `(rows*N/M) x (cols/2)` row-major.
    data: Vec<f32>,
    /// Retained Sub-Row positions, `(rows*N/M) x (cols/V)` row-major,
    /// each entry in `0..M`.
    indices: Vec<u8>,
    /// 2-bit in-group positions, `(rows*N/M) x (cols/2)` row-major,
    /// each entry in `0..4`.
    metadata: Vec<u8>,
}

impl SamoyedsWeight {
    /// Prune a dense weight matrix into the Samoyeds format.
    ///
    /// Sub-Row selection uses the L2 norm of each Sub-Row inside its block;
    /// element selection inside a Sub-Row uses magnitude (largest 2 of every
    /// 4). This mirrors the magnitude-based offline pruning flow of §4.5 and
    /// the accuracy experiments of §6.5.
    pub fn prune_from_dense(dense: &DenseMatrix, config: SamoyedsConfig) -> Result<Self> {
        config.validate()?;
        let (rows, cols) = dense.shape();
        if rows % config.m != 0 {
            return Err(SparseError::shape(format!(
                "rows {rows} not divisible by block height M={}",
                config.m
            )));
        }
        if cols % config.v != 0 {
            return Err(SparseError::shape(format!(
                "cols {cols} not divisible by Sub-Row length V={}",
                config.v
            )));
        }

        let row_blocks = rows / config.m;
        let col_blocks = cols / config.v;
        let comp_rows = row_blocks * config.n;
        let comp_cols = cols / 2;
        let mut data = vec![0.0f32; comp_rows * comp_cols];
        let mut indices = vec![0u8; comp_rows * col_blocks];
        let mut metadata = vec![0u8; comp_rows * comp_cols];

        for rb in 0..row_blocks {
            for cb in 0..col_blocks {
                // Score the M Sub-Rows of this block by L2 norm.
                let mut scored: Vec<(usize, f32)> = (0..config.m)
                    .map(|i| {
                        let r = rb * config.m + i;
                        let norm: f32 = (0..config.v)
                            .map(|j| {
                                let v = dense.get(r, cb * config.v + j);
                                v * v
                            })
                            .sum();
                        (i, norm)
                    })
                    .collect();
                scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
                let mut kept: Vec<usize> = scored[..config.n].iter().map(|x| x.0).collect();
                kept.sort_unstable();

                for (slot, &sub_row) in kept.iter().enumerate() {
                    let comp_r = rb * config.n + slot;
                    indices[comp_r * col_blocks + cb] = sub_row as u8;
                    let orig_r = rb * config.m + sub_row;
                    // 2:4 prune the Sub-Row and write values + metadata.
                    for u in 0..config.v / 4 {
                        let base_col = cb * config.v + u * 4;
                        let group: Vec<f32> =
                            (0..4).map(|j| dense.get(orig_r, base_col + j)).collect();
                        let mut order: Vec<usize> = (0..4).collect();
                        order.sort_by(|&a, &b| {
                            group[b]
                                .abs()
                                .partial_cmp(&group[a].abs())
                                .unwrap_or(std::cmp::Ordering::Equal)
                        });
                        let mut kept2 = [order[0], order[1]];
                        kept2.sort_unstable();
                        let comp_base = comp_r * comp_cols + (cb * config.v + u * 4) / 2;
                        for (slot2, &idx) in kept2.iter().enumerate() {
                            data[comp_base + slot2] = group[idx];
                            metadata[comp_base + slot2] = idx as u8;
                        }
                    }
                }
            }
        }

        Ok(Self {
            rows,
            cols,
            config,
            data,
            indices,
            metadata,
        })
    }

    /// The sparsity configuration.
    pub fn config(&self) -> SamoyedsConfig {
        self.config
    }

    /// Number of compressed rows (`rows * N / M`).
    pub fn compressed_rows(&self) -> usize {
        self.rows / self.config.m * self.config.n
    }

    /// Number of compressed columns (`cols / 2`).
    pub fn compressed_cols(&self) -> usize {
        self.cols / 2
    }

    /// Number of column blocks (`cols / V`).
    pub fn col_blocks(&self) -> usize {
        self.cols / self.config.v
    }

    /// Borrow the compressed value matrix (row-major,
    /// `compressed_rows x compressed_cols`).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Borrow the indices matrix (row-major,
    /// `compressed_rows x col_blocks`).
    pub fn indices(&self) -> &[u8] {
        &self.indices
    }

    /// Borrow the metadata matrix (row-major, same shape as `data`).
    pub fn metadata(&self) -> &[u8] {
        &self.metadata
    }

    /// Compressed values of compressed row `r`.
    pub fn data_row(&self, r: usize) -> &[f32] {
        let k = self.compressed_cols();
        &self.data[r * k..(r + 1) * k]
    }

    /// Metadata of compressed row `r`.
    pub fn metadata_row(&self, r: usize) -> &[u8] {
        let k = self.compressed_cols();
        &self.metadata[r * k..(r + 1) * k]
    }

    /// The retained Sub-Row position for compressed row `r`, column block
    /// `cb`.
    pub fn sub_row_index(&self, r: usize, cb: usize) -> usize {
        self.indices[r * self.col_blocks() + cb] as usize
    }

    /// Map a compressed row + column block back to the original row index.
    pub fn original_row(&self, comp_row: usize, col_block: usize) -> usize {
        let rb = comp_row / self.config.n;
        rb * self.config.m + self.sub_row_index(comp_row, col_block)
    }

    /// Reference sparse-weight x dense-input product `C = W * B` at the
    /// logical `rows x cols` shape of the weight.
    pub fn spmm(&self, b: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != b.rows() {
            return Err(SparseError::shape(format!(
                "samoyeds spmm {}x{} * {}x{}",
                self.rows,
                self.cols,
                b.rows(),
                b.cols()
            )));
        }
        let n_out = b.cols();
        let mut out = DenseMatrix::zeros(self.rows, n_out);
        let comp_cols = self.compressed_cols();
        for comp_r in 0..self.compressed_rows() {
            let vals = self.data_row(comp_r);
            let meta = self.metadata_row(comp_r);
            for cb in 0..self.col_blocks() {
                let orig_r = self.original_row(comp_r, cb);
                let row_c = &mut out.as_mut_slice()[orig_r * n_out..(orig_r + 1) * n_out];
                // Each column block contributes V/2 compressed entries.
                let comp_start = cb * self.config.v / 2;
                for t in 0..self.config.v / 2 {
                    let ci = comp_start + t;
                    debug_assert!(ci < comp_cols);
                    let v = vals[ci];
                    if v == 0.0 {
                        continue;
                    }
                    let group = (cb * self.config.v + t / 2 * 4) / 4;
                    let col = group * 4 + meta[ci] as usize;
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

impl SparseFormat for SamoyedsWeight {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn nnz(&self) -> usize {
        self.data.iter().filter(|v| **v != 0.0).count()
    }

    fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for comp_r in 0..self.compressed_rows() {
            let vals = self.data_row(comp_r);
            let meta = self.metadata_row(comp_r);
            for cb in 0..self.col_blocks() {
                let orig_r = self.original_row(comp_r, cb);
                let comp_start = cb * self.config.v / 2;
                for t in 0..self.config.v / 2 {
                    let ci = comp_start + t;
                    let group = (cb * self.config.v + t / 2 * 4) / 4;
                    let col = group * 4 + meta[ci] as usize;
                    out.set(orig_r, col, vals[ci]);
                }
            }
        }
        out
    }

    fn storage_bytes(&self, bf16: bool) -> usize {
        let value_bytes = if bf16 { 2 } else { 4 };
        // data + 2-bit metadata (4 per byte) + indices (1 byte each, the
        // hardware packs ceil(log2 M) bits but byte granularity is what the
        // kernel actually loads).
        self.data.len() * value_bytes + self.metadata.len().div_ceil(4) + self.indices.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_and_sparsity() {
        assert!(SamoyedsConfig::DEFAULT.validate().is_ok());
        assert!(SamoyedsConfig { n: 0, m: 2, v: 32 }.validate().is_err());
        assert!(SamoyedsConfig { n: 3, m: 2, v: 32 }.validate().is_err());
        assert!(SamoyedsConfig { n: 1, m: 2, v: 30 }.validate().is_err());
        assert!((SamoyedsConfig::DEFAULT.sparsity() - 0.75).abs() < 1e-12);
        assert!((SamoyedsConfig::N8_M16_V32.sparsity() - 0.75).abs() < 1e-12);
        assert_eq!(SamoyedsConfig::N1_M2_V16.label(), "(1,2,16)");
    }

    #[test]
    fn prune_shape_requirements() {
        let cfg = SamoyedsConfig::DEFAULT;
        assert!(SamoyedsWeight::prune_from_dense(&DenseMatrix::zeros(3, 64), cfg).is_err());
        assert!(SamoyedsWeight::prune_from_dense(&DenseMatrix::zeros(4, 63), cfg).is_err());
        assert!(SamoyedsWeight::prune_from_dense(&DenseMatrix::zeros(4, 64), cfg).is_ok());
    }

    #[test]
    fn encoded_shapes_match_paper_description() {
        let d = DenseMatrix::random(64, 128, 3);
        let w = SamoyedsWeight::prune_from_dense(&d, SamoyedsConfig::DEFAULT).unwrap();
        assert_eq!(w.compressed_rows(), 32); // m / M * N = 64/2
        assert_eq!(w.compressed_cols(), 64); // k / 2
        assert_eq!(w.col_blocks(), 4); // k / V = 128/32
        assert_eq!(w.data().len(), 32 * 64);
        assert_eq!(w.indices().len(), 32 * 4);
        assert_eq!(w.metadata().len(), 32 * 64);
    }

    #[test]
    fn pruned_matrix_respects_block_and_element_patterns() {
        let cfg = SamoyedsConfig { n: 1, m: 2, v: 16 };
        let d = DenseMatrix::random(32, 64, 7);
        let w = SamoyedsWeight::prune_from_dense(&d, cfg).unwrap();
        let dense = w.to_dense();
        // Per block: only 1 of 2 Sub-Rows carries nonzeros.
        for rb in 0..16 {
            for cb in 0..4 {
                let mut live = 0;
                for i in 0..2 {
                    let any = (0..16).any(|j| dense.get(rb * 2 + i, cb * 16 + j) != 0.0);
                    if any {
                        live += 1;
                    }
                }
                assert!(live <= 1, "block ({rb},{cb}) has {live} live sub-rows");
            }
        }
        // Per kept Sub-Row: 2:4.
        for r in 0..dense.rows() {
            for g in 0..dense.cols() / 4 {
                let cnt = (0..4).filter(|&j| dense.get(r, g * 4 + j) != 0.0).count();
                assert!(cnt <= 2);
            }
        }
        // Total sparsity close to 75%.
        assert!((dense.sparsity() - 0.75).abs() < 0.02);
    }

    #[test]
    fn keeps_dominant_sub_rows() {
        let cfg = SamoyedsConfig { n: 1, m: 2, v: 16 };
        // Make every odd row dominant.
        let d = DenseMatrix::from_fn(8, 32, |r, c| {
            if r % 2 == 1 {
                1.0 + (c % 3) as f32
            } else {
                0.001
            }
        });
        let w = SamoyedsWeight::prune_from_dense(&d, cfg).unwrap();
        for comp_r in 0..w.compressed_rows() {
            for cb in 0..w.col_blocks() {
                assert_eq!(w.sub_row_index(comp_r, cb), 1);
            }
        }
    }

    #[test]
    fn spmm_matches_dense_reference_of_pruned_matrix() {
        for cfg in [
            SamoyedsConfig::N1_M2_V16,
            SamoyedsConfig::N1_M2_V32,
            SamoyedsConfig::N4_M8_V32,
        ] {
            let d = DenseMatrix::random(64, 128, 13);
            let w = SamoyedsWeight::prune_from_dense(&d, cfg).unwrap();
            let b = DenseMatrix::random(128, 48, 14);
            let expected = w.to_dense().matmul(&b).unwrap();
            let got = w.spmm(&b).unwrap();
            assert!(
                got.allclose(&expected, 1e-3, 1e-3),
                "config {:?} max diff {}",
                cfg,
                got.max_abs_diff(&expected)
            );
        }
    }

    #[test]
    fn storage_is_about_a_quarter_of_dense() {
        let d = DenseMatrix::random(128, 256, 2);
        let w = SamoyedsWeight::prune_from_dense(&d, SamoyedsConfig::DEFAULT).unwrap();
        let ratio = w.compression_ratio(true);
        // 75% sparsity keeps 1/4 of the values (+ metadata/index overhead),
        // so the compression ratio should land between 2.5x and 4x.
        assert!(ratio > 2.5 && ratio < 4.0, "ratio {ratio}");
    }

    #[test]
    fn original_row_mapping_is_consistent_with_to_dense() {
        let d = DenseMatrix::random(16, 64, 77);
        let w = SamoyedsWeight::prune_from_dense(&d, SamoyedsConfig::N1_M2_V16).unwrap();
        let dense = w.to_dense();
        for comp_r in 0..w.compressed_rows() {
            for cb in 0..w.col_blocks() {
                let orig = w.original_row(comp_r, cb);
                // The kept sub-row must contain all nonzeros of the block.
                let rb = comp_r / w.config().n;
                for i in 0..w.config().m {
                    let r = rb * w.config().m + i;
                    if r == orig {
                        continue;
                    }
                    for j in 0..w.config().v {
                        assert_eq!(dense.get(r, cb * w.config().v + j), 0.0);
                    }
                }
            }
        }
    }
}
