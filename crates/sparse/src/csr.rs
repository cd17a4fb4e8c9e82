//! Compressed Sparse Row (CSR) unstructured format.
//!
//! CSR is the representation consumed by the Sputnik-like baseline kernel in
//! `samoyeds-kernels`. Row pointers + column indices + values, exactly like
//! cuSPARSE / Sputnik use on the GPU.

use crate::dense::DenseMatrix;
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
}

impl SparseFormat for CsrMatrix {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn for_each_entry(&self, mut f: impl FnMut(usize, usize, f32)) {
        for r in 0..self.rows {
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                f(r, self.col_idx[i] as usize, self.values[i]);
            }
        }
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
