//! Common trait implemented by every sparse representation in this crate.

use crate::dense::DenseMatrix;
use crate::error::{Result, SparseError};

/// A sparse matrix representation: its logical shape, one decode of its
/// layout and the bytes that layout stores.
///
/// A format implements only [`SparseFormat::for_each_entry`], its one walk
/// over the stored values; the non-zero count, the dense reconstruction and
/// the product are built on that walk.
///
/// [`SparseFormat::storage_bytes`] is what the layout actually stores. The
/// analytic memory formulas of the `moe` and `dist` crates (Table 3, the
/// serving budgets) and the kernel cost models do not read it, but their
/// weight terms should equal it.
pub trait SparseFormat {
    /// Logical (uncompressed) number of rows.
    fn rows(&self) -> usize;

    /// Logical (uncompressed) number of columns.
    fn cols(&self) -> usize;

    /// Call `f(row, col, value)` for every stored value, at its logical
    /// position and in storage order. Stored zeros are visited too, and no
    /// position is visited twice.
    fn for_each_entry(&self, f: impl FnMut(usize, usize, f32));

    /// Bytes needed to store the compressed representation, including index
    /// and metadata structures. `bf16` selects 2-byte instead of 4-byte
    /// values.
    fn storage_bytes(&self, bf16: bool) -> usize;

    /// Number of stored values that are not zero.
    fn nnz(&self) -> usize {
        let mut nnz = 0;
        self.for_each_entry(|_, _, v| nnz += usize::from(v != 0.0));
        nnz
    }

    /// Reconstruct the equivalent dense matrix.
    fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows(), self.cols());
        self.for_each_entry(|r, c, v| out.set(r, c, v));
        out
    }

    /// Sparse x dense product `C = self * B` at the logical shape: each
    /// stored non-zero adds its term to its output row, in storage order.
    ///
    /// This is the format's own decode. `SamoyedsKernel`'s fragment path in
    /// `samoyeds-kernels` decodes the Samoyeds layout independently, through
    /// `mma.sp` tiles, and its tests check it against this product.
    fn spmm(&self, b: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols() != b.rows() {
            return Err(SparseError::shape(format!(
                "spmm {}x{} * {}x{}",
                self.rows(),
                self.cols(),
                b.rows(),
                b.cols()
            )));
        }
        let n = b.cols();
        let mut out = DenseMatrix::zeros(self.rows(), n);
        let c = out.as_mut_slice();
        self.for_each_entry(|r, col, v| {
            if v == 0.0 {
                return;
            }
            for (o, x) in c[r * n..(r + 1) * n].iter_mut().zip(b.row(col)) {
                *o += v * x;
            }
        });
        Ok(out)
    }

    /// Fraction of logical entries that are *not* stored, in `[0, 1]`.
    fn sparsity(&self) -> f64 {
        let total = self.rows() * self.cols();
        if total == 0 {
            return 0.0;
        }
        1.0 - self.nnz() as f64 / total as f64
    }

    /// Compression ratio of this format versus dense storage at the same
    /// value precision (dense bytes / compressed bytes).
    fn compression_ratio(&self, bf16: bool) -> f64 {
        let dense = self.rows() * self.cols() * if bf16 { 2 } else { 4 };
        let this = self.storage_bytes(bf16);
        if this == 0 {
            return 1.0;
        }
        dense as f64 / this as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The diagonal of a 4x4 matrix.
    struct Fake;

    impl SparseFormat for Fake {
        fn rows(&self) -> usize {
            4
        }
        fn cols(&self) -> usize {
            4
        }
        fn for_each_entry(&self, mut f: impl FnMut(usize, usize, f32)) {
            (0..4).for_each(|i| f(i, i, 1.0));
        }
        fn storage_bytes(&self, bf16: bool) -> usize {
            4 * if bf16 { 2 } else { 4 }
        }
    }

    #[test]
    fn default_sparsity_and_compression() {
        let f = Fake;
        assert!((f.sparsity() - 0.75).abs() < 1e-12);
        assert!((f.compression_ratio(false) - 4.0).abs() < 1e-12);
        assert!((f.compression_ratio(true) - 4.0).abs() < 1e-12);
        let b = DenseMatrix::random(4, 3, 1);
        assert_eq!(f.spmm(&b).unwrap(), b);
        assert!(f.spmm(&DenseMatrix::zeros(3, 3)).is_err());
    }
}
