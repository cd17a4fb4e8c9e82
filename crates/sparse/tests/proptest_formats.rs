//! Property-based tests over the sparse format invariants.

use proptest::prelude::*;
use samoyeds_sparse::nm::NmConfig;
use samoyeds_sparse::packing;
use samoyeds_sparse::venom::VenomConfig;
use samoyeds_sparse::{
    CsrMatrix, DenseMatrix, NmMatrix, SamoyedsConfig, SamoyedsWeight, SelectionArray, SparseFormat,
    VenomMatrix,
};

fn arb_dense(max_rows: usize, max_cols: usize) -> impl Strategy<Value = DenseMatrix> {
    (1..=max_rows, 1..=max_cols, any::<u64>(), 0.0f64..0.95)
        .prop_map(|(r, c, seed, sp)| DenseMatrix::random_sparse(r, c, sp, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_roundtrip(d in arb_dense(24, 24)) {
        let csr = CsrMatrix::from_dense(&d);
        prop_assert_eq!(csr.to_dense(), d.clone());
        prop_assert_eq!(csr.nnz(), d.nnz());
    }

    #[test]
    fn csr_spmm_matches_dense(
        d in arb_dense(16, 16),
        seed in any::<u64>(),
        n in 1usize..12,
    ) {
        let b = DenseMatrix::random(d.cols(), n, seed);
        let csr = CsrMatrix::from_dense(&d);
        let expected = d.matmul(&b).unwrap();
        let got = csr.spmm(&b).unwrap();
        prop_assert!(got.allclose(&expected, 1e-4, 1e-4));
    }

    #[test]
    fn nm_prune_preserves_pattern_and_values(
        rows in 1usize..16,
        groups in 1usize..8,
        seed in any::<u64>(),
    ) {
        let d = DenseMatrix::random(rows, groups * 4, seed);
        let nm = NmMatrix::prune_from_dense(&d, NmConfig::TWO_FOUR).unwrap();
        let dense = nm.to_dense();
        // Pattern: at most 2 nonzeros per group of 4.
        for r in 0..rows {
            for g in 0..groups {
                let cnt = (0..4).filter(|&j| dense.get(r, g * 4 + j) != 0.0).count();
                prop_assert!(cnt <= 2);
            }
        }
        // Every surviving value equals the original.
        for r in 0..rows {
            for c in 0..dense.cols() {
                let v = dense.get(r, c);
                prop_assert!(v == 0.0 || v == d.get(r, c));
            }
        }
        // Norm of kept values can never exceed the original norm.
        prop_assert!(dense.frobenius_norm() <= d.frobenius_norm() + 1e-6);
    }

    #[test]
    fn nm_spmm_matches_its_dense_expansion(
        rows in 1usize..12,
        groups in 1usize..6,
        n in 1usize..10,
        seed in any::<u64>(),
    ) {
        let d = DenseMatrix::random(rows, groups * 4, seed);
        let nm = NmMatrix::prune_from_dense(&d, NmConfig::TWO_FOUR).unwrap();
        let b = DenseMatrix::random(d.cols(), n, seed.wrapping_add(1));
        let expected = nm.to_dense().matmul(&b).unwrap();
        let got = nm.spmm(&b).unwrap();
        prop_assert!(got.allclose(&expected, 1e-3, 1e-3));
    }

    #[test]
    fn venom_spmm_matches_its_dense_expansion(
        panels in 1usize..4,
        col_groups in 1usize..4,
        n in 1usize..8,
        seed in any::<u64>(),
    ) {
        // Two column groups per unit so the kept-column count stays a
        // multiple of 4 (the 2:4 alignment requirement).
        let cfg = VenomConfig { v: 8, n: 2, m: 8 };
        let d = DenseMatrix::random(panels * 8, col_groups * 16, seed);
        let vm = VenomMatrix::prune_from_dense(&d, cfg).unwrap();
        let b = DenseMatrix::random(d.cols(), n, seed.wrapping_add(2));
        let expected = vm.to_dense().matmul(&b).unwrap();
        let got = vm.spmm(&b).unwrap();
        prop_assert!(got.allclose(&expected, 1e-3, 1e-3));
    }

    #[test]
    fn samoyeds_prune_invariants(
        row_blocks in 1usize..6,
        col_blocks in 1usize..4,
        seed in any::<u64>(),
    ) {
        let cfg = SamoyedsConfig { n: 1, m: 2, v: 16 };
        let d = DenseMatrix::random(row_blocks * 2, col_blocks * 16, seed);
        let w = SamoyedsWeight::prune_from_dense(&d, cfg).unwrap();
        let dense = w.to_dense();
        // Values are a subset of the original.
        for r in 0..d.rows() {
            for c in 0..d.cols() {
                let v = dense.get(r, c);
                prop_assert!(v == 0.0 || v == d.get(r, c));
            }
        }
        // Per block only one sub-row is live; per group of 4, at most 2 nonzeros.
        for rb in 0..row_blocks {
            for cb in 0..col_blocks {
                let live = (0..2)
                    .filter(|&i| (0..16).any(|j| dense.get(rb * 2 + i, cb * 16 + j) != 0.0))
                    .count();
                prop_assert!(live <= 1);
            }
        }
        // Storage strictly smaller than dense.
        prop_assert!(w.storage_bytes(true) < d.storage_bytes(true));
    }

    #[test]
    fn samoyeds_spmm_selected_equals_gather_then_matmul(
        row_blocks in 1usize..4,
        col_blocks in 1usize..3,
        n_total in 4usize..24,
        seed in any::<u64>(),
    ) {
        let cfg = SamoyedsConfig { n: 1, m: 2, v: 16 };
        let d = DenseMatrix::random(row_blocks * 2, col_blocks * 16, seed);
        let w = SamoyedsWeight::prune_from_dense(&d, cfg).unwrap();
        let b = DenseMatrix::random(d.cols(), n_total, seed.wrapping_add(3));
        // Select every other column.
        let sel: Vec<usize> = (0..n_total).step_by(2).collect();
        let expected = w.to_dense().matmul(&b.select_columns(&sel).unwrap()).unwrap();
        let got = w.spmm_selected(&b, &sel).unwrap();
        prop_assert!(got.allclose(&expected, 1e-3, 1e-3));
    }

    #[test]
    fn venom_prune_roundtrip_is_idempotent(
        panels in 1usize..4,
        col_groups in 1usize..4,
        seed in any::<u64>(),
    ) {
        // Encoding the dense expansion of a pruned matrix must reproduce the
        // same matrix: the V:N:M structure is a fixed point of its own
        // magnitude pruning.
        let cfg = VenomConfig { v: 8, n: 2, m: 8 };
        let d = DenseMatrix::random(panels * 8, col_groups * 16, seed);
        let vm = VenomMatrix::prune_from_dense(&d, cfg).unwrap();
        let dense = vm.to_dense();
        let vm2 = VenomMatrix::prune_from_dense(&dense, cfg).unwrap();
        prop_assert_eq!(vm2.to_dense(), dense.clone());
        // Shape is preserved, the stored nonzeros match the expansion, and
        // the compressed encoding beats dense storage.
        prop_assert_eq!((vm.rows(), vm.cols()), d.shape());
        prop_assert_eq!(vm.nnz(), dense.nnz());
        prop_assert!(vm.storage_bytes(true) < d.storage_bytes(true));
        prop_assert!(vm.compression_ratio(true) > 1.0);
    }

    #[test]
    fn samoyeds_prune_roundtrip_is_idempotent(
        row_blocks in 1usize..5,
        col_blocks in 1usize..4,
        seed in any::<u64>(),
    ) {
        let cfg = SamoyedsConfig { n: 1, m: 2, v: 16 };
        let d = DenseMatrix::random(row_blocks * 2, col_blocks * 16, seed);
        let w = SamoyedsWeight::prune_from_dense(&d, cfg).unwrap();
        let dense = w.to_dense();
        let w2 = SamoyedsWeight::prune_from_dense(&dense, cfg).unwrap();
        prop_assert_eq!(w2.to_dense(), dense.clone());
        prop_assert_eq!((w.rows(), w.cols()), d.shape());
        prop_assert_eq!(w.nnz(), dense.nnz());
        // The dual-side format must compress at both precisions.
        prop_assert!(w.storage_bytes(true) < d.storage_bytes(true));
        prop_assert!(w.storage_bytes(false) < d.storage_bytes(false));
        // The unselected spmm path agrees with the dense expansion too.
        let b = DenseMatrix::random(d.cols(), 6, seed.wrapping_add(9));
        let expected = dense.matmul(&b).unwrap();
        let got = w.spmm(&b).unwrap();
        prop_assert!(got.allclose(&expected, 1e-3, 1e-3));
    }

    #[test]
    fn metadata_packing_roundtrip(values in proptest::collection::vec(0u8..4, 256)) {
        let reorganized = packing::reorganize_metadata_tile(&values).unwrap();
        let restored = packing::restore_metadata_tile(&reorganized).unwrap();
        prop_assert_eq!(restored, values);
    }

    #[test]
    fn selection_array_from_mask_is_sorted_and_bounded(mask in proptest::collection::vec(any::<bool>(), 0..64)) {
        let sel = SelectionArray::from_mask(&mask);
        let idx = sel.indices();
        for w in idx.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        for &i in idx {
            prop_assert!((i as usize) < mask.len());
        }
        prop_assert_eq!(idx.len(), mask.iter().filter(|&&b| b).count());
    }
}
