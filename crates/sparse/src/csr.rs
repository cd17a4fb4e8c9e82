//! Compressed Sparse Row (CSR) unstructured format.
//!
//! CSR is the representation consumed by the Sputnik-like baseline kernel in
//! `samoyeds-kernels`. Row pointers + column indices + values, exactly like
//! cuSPARSE / Sputnik use on the GPU.

use crate::dense::DenseMatrix;
use crate::error::{Result, SparseError};
use crate::traits::SparseFormat;

/// A sparse matrix in compressed sparse row form.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Build a CSR matrix from a dense one.
    pub fn from_dense(dense: &DenseMatrix) -> Self {
        let mut row_ptr = Vec::with_capacity(dense.rows() + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..dense.rows() {
            for c in 0..dense.cols() {
                let v = dense.get(r, c);
                if v != 0.0 {
                    col_idx.push(c as u32);
                    values.push(v);
                }
            }
            row_ptr.push(values.len());
        }
        Self {
            rows: dense.rows(),
            cols: dense.cols(),
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Sparse x dense product `C = self * B`.
    pub fn spmm(&self, b: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != b.rows() {
            return Err(SparseError::shape(format!(
                "csr spmm {}x{} * {}x{}",
                self.rows,
                self.cols,
                b.rows(),
                b.cols()
            )));
        }
        let n = b.cols();
        let mut out = DenseMatrix::zeros(self.rows, n);
        for r in 0..self.rows {
            let start = self.row_ptr[r];
            let end = self.row_ptr[r + 1];
            let row_c = &mut out.as_mut_slice()[r * n..(r + 1) * n];
            for i in start..end {
                let v = self.values[i];
                let row_b = b.row(self.col_idx[i] as usize);
                for (o, x) in row_c.iter_mut().zip(row_b.iter()) {
                    *o += v * x;
                }
            }
        }
        Ok(out)
    }
}

impl SparseFormat for CsrMatrix {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn nnz(&self) -> usize {
        self.values.len()
    }

    fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                out.set(r, self.col_idx[i] as usize, self.values[i]);
            }
        }
        out
    }

    fn storage_bytes(&self, bf16: bool) -> usize {
        let value_bytes = if bf16 { 2 } else { 4 };
        self.row_ptr.len() * 4 + self.col_idx.len() * 4 + self.values.len() * value_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_from_dense() {
        let d = DenseMatrix::random_sparse(20, 15, 0.8, 11);
        let csr = CsrMatrix::from_dense(&d);
        assert_eq!(csr.to_dense(), d);
        assert_eq!(csr.nnz(), d.nnz());
    }

    #[test]
    fn spmm_matches_dense() {
        let a = DenseMatrix::random_sparse(13, 9, 0.5, 5);
        let b = DenseMatrix::random(9, 7, 6);
        let csr = CsrMatrix::from_dense(&a);
        let expected = a.matmul(&b).unwrap();
        assert!(csr.spmm(&b).unwrap().allclose(&expected, 1e-5, 1e-5));
    }

    #[test]
    fn spmm_shape_mismatch() {
        let csr = CsrMatrix::from_dense(&DenseMatrix::zeros(4, 4));
        assert!(csr.spmm(&DenseMatrix::zeros(3, 3)).is_err());
    }
}
