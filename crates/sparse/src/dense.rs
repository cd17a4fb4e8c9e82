//! Row-major dense matrices, the reference GEMM and bf16 emulation helpers.
//!
//! Every sparse format in this crate converts to and from [`DenseMatrix`], and
//! every kernel in the workspace is validated against [`DenseMatrix::matmul`].

use crate::error::{Result, SparseError};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A row-major dense `rows x cols` matrix of `f32` values.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Round an `f32` to the nearest bfloat16-representable value (round to
/// nearest even on the truncated mantissa), emulating the paper's bf16
/// operand type while keeping all arithmetic in `f32`.
pub fn quantize_bf16(x: f32) -> f32 {
    let bits = x.to_bits();
    // Round-to-nearest-even on bit 16.
    let rounding_bias = 0x7FFF + ((bits >> 16) & 1);
    let rounded = bits.wrapping_add(rounding_bias) & 0xFFFF_0000;
    f32::from_bits(rounded)
}

impl DenseMatrix {
    /// Create a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix from a row-major data vector.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(SparseError::shape(format!(
                "data length {} does not match {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }

    /// Create a matrix whose entries are produced by `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Deterministic pseudo-random matrix with entries uniform in `[-1, 1)`.
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let data = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        Self { rows, cols, data }
    }

    /// Deterministic pseudo-random matrix where roughly `sparsity` of the
    /// entries (uniform in `[0,1]`) are forced to zero. Useful for building
    /// unstructured-sparse test inputs.
    pub fn random_sparse(rows: usize, cols: usize, sparsity: f64, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| {
                if rng.gen_bool(sparsity.clamp(0.0, 1.0)) {
                    0.0
                } else {
                    rng.gen_range(-1.0..1.0)
                }
            })
            .collect();
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow the underlying row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Read element `(r, c)`.
    ///
    /// # Panics
    /// Panics if out of bounds; use it only with validated indices.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Write element `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Number of non-zero entries.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|v| **v != 0.0).count()
    }

    /// Fraction of zero entries in `[0, 1]`.
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        1.0 - self.nnz() as f64 / self.data.len() as f64
    }

    /// Reference GEMM: `C = self * other`, where `self` is `m x k` and
    /// `other` is `k x n`.
    pub fn matmul(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != other.rows {
            return Err(SparseError::shape(format!(
                "matmul {}x{} * {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for l in 0..self.cols {
                let a = self.get(i, l);
                if a == 0.0 {
                    continue;
                }
                let row_b = other.row(l);
                let row_c = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (cij, bj) in row_c.iter_mut().zip(row_b.iter()) {
                    *cij += a * bj;
                }
            }
        }
        Ok(out)
    }

    /// Element-wise addition. Errors on shape mismatch.
    pub fn add(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.shape() != other.shape() {
            return Err(SparseError::shape("add: shapes differ"));
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        DenseMatrix::from_vec(self.rows, self.cols, data)
    }

    /// Scale every entry by `s`.
    pub fn scale(&self, s: f32) -> DenseMatrix {
        let data = self.data.iter().map(|v| v * s).collect();
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Apply a function element-wise (used for activation functions).
    pub fn map(&self, f: impl Fn(f32) -> f32) -> DenseMatrix {
        let data = self.data.iter().map(|v| f(*v)).collect();
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Element-wise (Hadamard) product. Errors on shape mismatch.
    pub fn hadamard(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.shape() != other.shape() {
            return Err(SparseError::shape("hadamard: shapes differ"));
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .collect();
        DenseMatrix::from_vec(self.rows, self.cols, data)
    }

    /// Maximum absolute element-wise difference against `other`.
    ///
    /// Returns `f32::INFINITY` if the shapes differ.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f32 {
        if self.shape() != other.shape() {
            return f32::INFINITY;
        }
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Check element-wise closeness with absolute tolerance `atol` and
    /// relative tolerance `rtol`.
    pub fn allclose(&self, other: &DenseMatrix, atol: f32, rtol: f32) -> bool {
        if self.shape() != other.shape() {
            return false;
        }
        self.data
            .iter()
            .zip(other.data.iter())
            .all(|(a, b)| (a - b).abs() <= atol + rtol * b.abs().max(a.abs()))
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Extract the sub-matrix formed by the given columns, in order.
    pub fn select_columns(&self, columns: &[usize]) -> Result<DenseMatrix> {
        for &c in columns {
            if c >= self.cols {
                return Err(SparseError::IndexOutOfBounds {
                    index: c,
                    bound: self.cols,
                });
            }
        }
        let mut out = DenseMatrix::zeros(self.rows, columns.len());
        for r in 0..self.rows {
            for (j, &c) in columns.iter().enumerate() {
                out.set(r, j, self.get(r, c));
            }
        }
        Ok(out)
    }

    /// Total storage in bytes for the dense representation (4 bytes/element;
    /// 2 bytes/element when treated as bf16).
    pub fn storage_bytes(&self, bf16: bool) -> usize {
        self.data.len() * if bf16 { 2 } else { 4 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = DenseMatrix::zeros(3, 5);
        assert_eq!(m.shape(), (3, 5));
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.sparsity(), 1.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = DenseMatrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(4, 2);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn bf16_quantization_is_idempotent_and_close() {
        let x = 1.234_567_f32;
        let q = quantize_bf16(x);
        assert_eq!(quantize_bf16(q), q);
        assert!((x - q).abs() < 0.01);
        assert_eq!(quantize_bf16(0.0), 0.0);
        assert_eq!(quantize_bf16(1.0), 1.0);
        assert_eq!(quantize_bf16(-2.0), -2.0);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = DenseMatrix::random(4, 4, 7);
        let b = DenseMatrix::random(4, 4, 7);
        let c = DenseMatrix::random(4, 4, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn random_sparse_hits_requested_sparsity_roughly() {
        let m = DenseMatrix::random_sparse(64, 64, 0.75, 3);
        let s = m.sparsity();
        assert!((0.65..0.85).contains(&s), "sparsity {s}");
    }

    #[test]
    fn select_columns_picks_in_order() {
        let a = DenseMatrix::from_fn(2, 4, |r, c| (r * 4 + c) as f32);
        let s = a.select_columns(&[3, 1]).unwrap();
        assert_eq!(s.as_slice(), &[3.0, 1.0, 7.0, 5.0]);
        assert!(a.select_columns(&[4]).is_err());
    }

    #[test]
    fn hadamard_and_scale_and_add() {
        let a = DenseMatrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]).unwrap();
        let b = DenseMatrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.hadamard(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn allclose_and_max_abs_diff() {
        let a = DenseMatrix::from_vec(1, 2, vec![1.0, 2.0]).unwrap();
        let b = DenseMatrix::from_vec(1, 2, vec![1.0 + 1e-6, 2.0]).unwrap();
        assert!(a.allclose(&b, 1e-5, 0.0));
        assert!(a.max_abs_diff(&b) < 1e-5);
        let c = DenseMatrix::zeros(2, 1);
        assert!(!a.allclose(&c, 1.0, 1.0));
        assert_eq!(a.max_abs_diff(&c), f32::INFINITY);
    }

    #[test]
    fn storage_bytes_accounts_for_precision() {
        let a = DenseMatrix::zeros(8, 8);
        assert_eq!(a.storage_bytes(false), 256);
        assert_eq!(a.storage_bytes(true), 128);
    }
}
