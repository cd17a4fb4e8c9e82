//! The input-side vector-wise sparsity of the Samoyeds format (§4.1,
//! Figure 7, right): a selection array (`SEL`) that records which columns of
//! the full input matrix participate in an expert's computation.
//!
//! In the MoE layer the "columns" are tokens: the router assigns each token
//! to a small number of experts, so from the point of view of one expert the
//! activation matrix is column-sparse with a dynamic, per-batch pattern. The
//! `SEL` array is exactly the routing result and makes the computation
//! mathematically identical to gathering the routed tokens — without ever
//! materialising the gathered copy (the redundancy of §3.1).

use crate::dense::DenseMatrix;
use crate::error::{Result, SparseError};

/// A selection of column indices out of a logical total, in ascending order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectionArray {
    total: usize,
    selected: Vec<u32>,
}

impl SelectionArray {
    /// Build a selection array. Indices must be strictly increasing and less
    /// than `total`.
    pub fn new(total: usize, selected: Vec<u32>) -> Result<Self> {
        let mut prev: Option<u32> = None;
        for &s in &selected {
            if s as usize >= total {
                return Err(SparseError::IndexOutOfBounds {
                    index: s as usize,
                    bound: total,
                });
            }
            if let Some(p) = prev {
                if s <= p {
                    return Err(SparseError::config(
                        "selection indices must be strictly increasing".to_string(),
                    ));
                }
            }
            prev = Some(s);
        }
        Ok(Self { total, selected })
    }

    /// Select every column (dense input).
    pub fn all(total: usize) -> Self {
        Self {
            total,
            selected: (0..total as u32).collect(),
        }
    }

    /// Logical number of columns the selection refers to.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of selected columns (`len_d` in Figure 8).
    pub fn len(&self) -> usize {
        self.selected.len()
    }

    /// True when no column is selected.
    pub fn is_empty(&self) -> bool {
        self.selected.is_empty()
    }

    /// Borrow the selected indices.
    pub fn indices(&self) -> &[u32] {
        &self.selected
    }

    /// Selected indices as `usize` (convenience for gather operations).
    pub fn indices_usize(&self) -> Vec<usize> {
        self.selected.iter().map(|&x| x as usize).collect()
    }

    /// Fraction of columns *not* selected.
    pub fn sparsity(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        1.0 - self.selected.len() as f64 / self.total as f64
    }
}

/// An input matrix paired with a selection of its columns — the input operand
/// of the Samoyeds sparse-sparse kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct SelInput {
    matrix: DenseMatrix,
    sel: SelectionArray,
}

impl SelInput {
    /// Pair an input matrix (`k x n_total`, tokens as columns) with a
    /// selection over its columns.
    pub fn new(matrix: DenseMatrix, sel: SelectionArray) -> Result<Self> {
        if sel.total() != matrix.cols() {
            return Err(SparseError::shape(format!(
                "selection over {} columns but matrix has {}",
                sel.total(),
                matrix.cols()
            )));
        }
        Ok(Self { matrix, sel })
    }

    /// A dense input where every column is selected.
    pub fn dense(matrix: DenseMatrix) -> Self {
        let sel = SelectionArray::all(matrix.cols());
        Self { matrix, sel }
    }

    /// The full (unselected) matrix.
    pub fn matrix(&self) -> &DenseMatrix {
        &self.matrix
    }

    /// The selection array.
    pub fn sel(&self) -> &SelectionArray {
        &self.sel
    }

    /// Number of rows of the input (the reduction dimension `k`).
    pub fn rows(&self) -> usize {
        self.matrix.rows()
    }

    /// Number of selected columns (the effective `n` of the product).
    pub fn selected_cols(&self) -> usize {
        self.sel.len()
    }

    /// Materialise the gathered `k x len_d` matrix (what a permutation-based
    /// MoE implementation would copy into a fresh buffer).
    pub fn gather(&self) -> DenseMatrix {
        self.matrix
            .select_columns(&self.sel.indices_usize())
            .expect("selection validated at construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_validation() {
        assert!(SelectionArray::new(8, vec![0, 3, 5]).is_ok());
        assert!(SelectionArray::new(8, vec![0, 3, 3]).is_err());
        assert!(SelectionArray::new(8, vec![3, 1]).is_err());
        assert!(SelectionArray::new(8, vec![8]).is_err());
    }

    #[test]
    fn all_selects_every_column_and_sparsity_counts_the_rest() {
        let all = SelectionArray::all(4);
        assert_eq!(all.indices(), &[0, 1, 2, 3]);
        assert_eq!(all.sparsity(), 0.0);
        let m = SelectionArray::new(4, vec![0, 2]).unwrap();
        assert!((m.sparsity() - 0.5).abs() < 1e-12);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
        assert!(SelectionArray::new(2, vec![]).unwrap().is_empty());
    }

    #[test]
    fn sel_input_requires_matching_width() {
        let m = DenseMatrix::zeros(4, 6);
        let sel = SelectionArray::new(5, vec![0]).unwrap();
        assert!(SelInput::new(m.clone(), sel).is_err());
        let sel = SelectionArray::new(6, vec![1, 4]).unwrap();
        assert!(SelInput::new(m, sel).is_ok());
    }

    #[test]
    fn gather_extracts_selected_columns() {
        let m = DenseMatrix::from_fn(2, 4, |r, c| (r * 4 + c) as f32);
        let sel = SelectionArray::new(4, vec![1, 3]).unwrap();
        let input = SelInput::new(m, sel).unwrap();
        assert_eq!(input.rows(), 2);
        assert_eq!(input.selected_cols(), 2);
        let g = input.gather();
        assert_eq!(g.shape(), (2, 2));
        assert_eq!(g.as_slice(), &[1.0, 3.0, 5.0, 7.0]);
    }

    #[test]
    fn dense_constructor_selects_everything() {
        let m = DenseMatrix::random(8, 8, 2);
        let input = SelInput::dense(m.clone());
        assert_eq!(input.gather(), m);
        assert_eq!(input.sel().len(), 8);
    }
}
