//! Functional semantics of the sparse `mma.sp.m16n8k32` warp-level tile
//! operation.
//!
//! The hardware instruction distributes the operand fragments over the 32
//! threads of a warp; numerically, however, it simply computes
//! `C += A * B` on a `16 x 32` by `32 x 8` tile, with `A` supplied in a 2:4
//! compressed form. This module implements exactly that tile-level contract
//! so kernels can be validated on the CPU.

use samoyeds_sparse::dense::quantize_bf16;
use samoyeds_sparse::{DenseMatrix, Result, SparseError};

/// Rows of the accumulator tile (`m`).
pub const MMA_M: usize = 16;
/// Columns of the accumulator tile (`n`).
pub const MMA_N: usize = 8;
/// Stored values per row of the compressed sparse operand (the reduction
/// depth of the dense `mma.m16n8k16`).
pub const MMA_K_DENSE: usize = 16;
/// Logical reduction depth of the sparse instruction (2:4 compressed to 16).
pub const MMA_K_SPARSE: usize = 32;

/// A dense operand/accumulator tile stored row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct MmaTile {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl MmaTile {
    /// Create a zeroed tile.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Wrap a row-major buffer as a tile.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(SparseError::shape(format!(
                "tile data length {} != {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }

    /// Extract a `rows x cols` tile from `m` starting at `(row0, col0)`,
    /// zero-padding anything that falls outside the matrix (the padding the
    /// MoE layer needs when a tile straddles the token count).
    pub fn from_matrix(
        m: &DenseMatrix,
        row0: usize,
        col0: usize,
        rows: usize,
        cols: usize,
    ) -> Self {
        let mut t = MmaTile::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if row0 + r < m.rows() && col0 + c < m.cols() {
                    t.set(r, c, m.get(row0 + r, col0 + c));
                }
            }
        }
        t
    }

    /// Tile rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Tile columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Read one element.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Write one element.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Borrow the row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }
}

/// The compressed `A` operand of `mma.sp.m16n8k32`: 16 rows of 16 stored
/// values plus, for each stored value, its 2-bit position inside the group of
/// four logical columns it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseATile {
    /// `MMA_M x MMA_K_DENSE` compressed values, row-major.
    values: Vec<f32>,
    /// Same shape; each entry in `0..4`.
    metadata: Vec<u8>,
}

impl SparseATile {
    /// Build from explicit compressed values + metadata.
    pub fn new(values: Vec<f32>, metadata: Vec<u8>) -> Result<Self> {
        if values.len() != MMA_M * MMA_K_DENSE || metadata.len() != MMA_M * MMA_K_DENSE {
            return Err(SparseError::shape(format!(
                "sparse A tile needs {}x{} values and metadata",
                MMA_M, MMA_K_DENSE
            )));
        }
        if metadata.iter().any(|&m| m > 3) {
            return Err(SparseError::pattern(
                "metadata entry exceeds 2 bits".to_string(),
            ));
        }
        // Within each group of 2 stored values the positions must be strictly
        // increasing, as the hardware requires.
        for r in 0..MMA_M {
            for g in 0..MMA_K_DENSE / 2 {
                let a = metadata[r * MMA_K_DENSE + 2 * g];
                let b = metadata[r * MMA_K_DENSE + 2 * g + 1];
                if a >= b {
                    return Err(SparseError::pattern(format!(
                        "row {r} group {g}: metadata positions {a},{b} not strictly increasing"
                    )));
                }
            }
        }
        Ok(Self { values, metadata })
    }

    /// Compress a logical `16 x 32` dense tile that already satisfies 2:4
    /// sparsity. Groups with fewer than two non-zeros are padded with zeros
    /// at the first free positions.
    pub fn compress_from_dense(tile: &MmaTile) -> Result<Self> {
        if tile.rows() != MMA_M || tile.cols() != MMA_K_SPARSE {
            return Err(SparseError::shape(format!(
                "expected a {}x{} logical tile, got {}x{}",
                MMA_M,
                MMA_K_SPARSE,
                tile.rows(),
                tile.cols()
            )));
        }
        let mut values = vec![0.0f32; MMA_M * MMA_K_DENSE];
        let mut metadata = vec![0u8; MMA_M * MMA_K_DENSE];
        for r in 0..MMA_M {
            for g in 0..MMA_K_SPARSE / 4 {
                let nz: Vec<usize> = (0..4).filter(|&j| tile.get(r, g * 4 + j) != 0.0).collect();
                if nz.len() > 2 {
                    return Err(SparseError::pattern(format!(
                        "row {r} group {g} has {} nonzeros (2:4 violated)",
                        nz.len()
                    )));
                }
                let mut kept = nz;
                let mut cursor = 0usize;
                while kept.len() < 2 {
                    while kept.contains(&cursor) {
                        cursor += 1;
                    }
                    kept.push(cursor);
                    cursor += 1;
                }
                kept.sort_unstable();
                for (slot, &pos) in kept.iter().enumerate() {
                    values[r * MMA_K_DENSE + g * 2 + slot] = tile.get(r, g * 4 + pos);
                    metadata[r * MMA_K_DENSE + g * 2 + slot] = pos as u8;
                }
            }
        }
        Ok(Self { values, metadata })
    }
}

/// Sparse `mma.sp.m16n8k32`: `c += A_logical * b` where `A_logical` is the
/// `16 x 32` expansion of the compressed operand and `b` is `32 x 8`.
///
/// The implementation works directly on the compressed form — each stored
/// value is multiplied with the `b` row its metadata points at — matching how
/// the hardware skips the pruned positions entirely.
pub fn mma_sp_m16n8k32(
    a: &SparseATile,
    b: &MmaTile,
    c: &mut MmaTile,
    bf16_operands: bool,
) -> Result<()> {
    if b.rows() != MMA_K_SPARSE || b.cols() != MMA_N {
        return Err(SparseError::shape("mma.sp B tile must be 32x8".to_string()));
    }
    if c.rows() != MMA_M || c.cols() != MMA_N {
        return Err(SparseError::shape("mma.sp C tile must be 16x8".to_string()));
    }
    for i in 0..MMA_M {
        for g in 0..MMA_K_SPARSE / 4 {
            for slot in 0..2 {
                let v = a.values[i * MMA_K_DENSE + g * 2 + slot];
                if v == 0.0 {
                    continue;
                }
                let pos = a.metadata[i * MMA_K_DENSE + g * 2 + slot] as usize;
                let k = g * 4 + pos;
                let av = if bf16_operands { quantize_bf16(v) } else { v };
                for j in 0..MMA_N {
                    let bv = if bf16_operands {
                        quantize_bf16(b.get(k, j))
                    } else {
                        b.get(k, j)
                    };
                    c.set(i, j, c.get(i, j) + av * bv);
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use samoyeds_sparse::nm::{NmConfig, NmMatrix};
    use samoyeds_sparse::SparseFormat;

    fn random_tile(rows: usize, cols: usize, seed: u64) -> MmaTile {
        let m = DenseMatrix::random(rows, cols, seed);
        MmaTile::from_matrix(&m, 0, 0, rows, cols)
    }

    #[test]
    fn tile_construction_and_padding() {
        let m = DenseMatrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let t = MmaTile::from_matrix(&m, 2, 2, 4, 4);
        assert_eq!(t.get(0, 0), 10.0);
        assert_eq!(t.get(0, 1), 11.0);
        // Out-of-bounds region is zero padded.
        assert_eq!(t.get(2, 2), 0.0);
        assert_eq!(t.get(3, 3), 0.0);
        assert!(MmaTile::from_vec(2, 2, vec![0.0; 3]).is_err());
    }

    #[test]
    fn compress_rejects_pattern_violations() {
        let mut tile = MmaTile::zeros(16, 32);
        tile.set(0, 0, 1.0);
        tile.set(0, 1, 2.0);
        tile.set(0, 2, 3.0);
        assert!(SparseATile::compress_from_dense(&tile).is_err());
        let bad_shape = MmaTile::zeros(16, 16);
        assert!(SparseATile::compress_from_dense(&bad_shape).is_err());
    }

    #[test]
    fn metadata_validation_in_new() {
        let values = vec![0.0; 256];
        let mut meta = vec![0u8; 256];
        // Positions must be strictly increasing inside each pair.
        for g in 0..128 {
            meta[2 * g] = 0;
            meta[2 * g + 1] = 1;
        }
        assert!(SparseATile::new(values.clone(), meta.clone()).is_ok());
        meta[1] = 0;
        assert!(SparseATile::new(values.clone(), meta.clone()).is_err());
        meta[1] = 7;
        assert!(SparseATile::new(values.clone(), meta).is_err());
        assert!(SparseATile::new(values, vec![0u8; 10]).is_err());
    }

    #[test]
    fn sparse_mma_matches_dense_mma_on_expanded_operand() {
        let dense = DenseMatrix::random(16, 32, 9);
        let nm = NmMatrix::prune_from_dense(&dense, NmConfig::TWO_FOUR).unwrap();
        let pruned = nm.to_dense();
        let a_logical = MmaTile::from_matrix(&pruned, 0, 0, 16, 32);
        let sp = SparseATile::compress_from_dense(&a_logical).unwrap();
        let b = random_tile(32, 8, 10);

        // Reference: dense 16x32 x 32x8 product.
        let da = DenseMatrix::from_vec(16, 32, a_logical.as_slice().to_vec()).unwrap();
        let db = DenseMatrix::from_vec(32, 8, b.as_slice().to_vec()).unwrap();
        let expected = da.matmul(&db).unwrap();

        let mut c = MmaTile::zeros(16, 8);
        mma_sp_m16n8k32(&sp, &b, &mut c, false).unwrap();
        let got = DenseMatrix::from_vec(16, 8, c.as_slice().to_vec()).unwrap();
        assert!(got.allclose(&expected, 1e-4, 1e-4));
    }

    #[test]
    fn sparse_mma_accumulates_into_existing_c() {
        let dense = DenseMatrix::random(16, 32, 11);
        let nm = NmMatrix::prune_from_dense(&dense, NmConfig::TWO_FOUR).unwrap();
        let a_logical = MmaTile::from_matrix(&nm.to_dense(), 0, 0, 16, 32);
        let sp = SparseATile::compress_from_dense(&a_logical).unwrap();
        let b = random_tile(32, 8, 12);

        let mut c = MmaTile::zeros(16, 8);
        for r in 0..16 {
            for j in 0..8 {
                c.set(r, j, 1.5);
            }
        }
        let mut c2 = c.clone();
        mma_sp_m16n8k32(&sp, &b, &mut c2, false).unwrap();
        // c2 - 1.5 equals the product from a zero accumulator.
        let mut c0 = MmaTile::zeros(16, 8);
        mma_sp_m16n8k32(&sp, &b, &mut c0, false).unwrap();
        for r in 0..16 {
            for j in 0..8 {
                assert!((c2.get(r, j) - 1.5 - c0.get(r, j)).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn bf16_operand_rounding_changes_little() {
        let dense = DenseMatrix::random(16, 32, 13);
        let nm = NmMatrix::prune_from_dense(&dense, NmConfig::TWO_FOUR).unwrap();
        let a_logical = MmaTile::from_matrix(&nm.to_dense(), 0, 0, 16, 32);
        let sp = SparseATile::compress_from_dense(&a_logical).unwrap();
        let b = random_tile(32, 8, 14);
        let mut exact = MmaTile::zeros(16, 8);
        let mut rounded = MmaTile::zeros(16, 8);
        mma_sp_m16n8k32(&sp, &b, &mut exact, false).unwrap();
        mma_sp_m16n8k32(&sp, &b, &mut rounded, true).unwrap();
        for r in 0..16 {
            for j in 0..8 {
                assert!((exact.get(r, j) - rounded.get(r, j)).abs() < 0.15);
            }
        }
    }
}
