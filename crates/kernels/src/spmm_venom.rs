//! V:N:M SpMM kernel standing in for VENOM (Castro et al., SC'23).
//!
//! VENOM reaches arbitrary sparsity ratios on the Sparse Tensor Cores by
//! combining vector-wise column pruning with 2:4, and is the strongest
//! baseline in the paper's kernel study. Its remaining inefficiencies — which
//! the Samoyeds kernel removes — are:
//!
//! * the gathered columns of the dense operand are addressed through the
//!   per-panel index list, which breaks perfect coalescing (Figure 6 ➍);
//! * its shared-memory staging is not swizzled for `ldmatrix`, costing bank
//!   passes;
//! * its metadata is stored in the naive order, costing extra transactions;
//! * its software pipeline is shallower, overlapping less of the fetch
//!   latency;
//! * it has no notion of input-side (routing) sparsity: all `n` logical
//!   columns are computed even if only a fraction was routed to the expert.

use crate::problem::GemmProblem;
use crate::tiling::TilingConfig;
use samoyeds_gpu_sim::memory::tiled_gemm_l2_hit;
use samoyeds_gpu_sim::{CostModel, DeviceSpec, KernelProfile, KernelStats, Occupancy};
use samoyeds_sparse::{DenseMatrix, Result, SparseFormat, VenomMatrix};

/// Simulated VENOM-like V:N:M x dense kernel.
#[derive(Debug, Clone)]
pub struct VenomSpmm {
    device: DeviceSpec,
    tiling: TilingConfig,
    /// Weight keep-fraction after the vector-wise step (N/M of the V:N:M
    /// config); the 2:4 step inside is handled by the sparse tensor path.
    vector_keep: f64,
}

impl VenomSpmm {
    /// Create the kernel for a device at the paper's 75% total sparsity
    /// (vector keep 1/2 combined with 2:4).
    pub fn new(device: DeviceSpec) -> Self {
        Self::with_keep(device, 0.5)
    }

    /// Create the kernel with an explicit vector-wise keep fraction.
    pub fn with_keep(device: DeviceSpec, vector_keep: f64) -> Self {
        let tiling = TilingConfig::DEFAULT_4070S.shrink_to_fit(&device, true);
        Self {
            device,
            tiling,
            vector_keep: vector_keep.clamp(0.05, 1.0),
        }
    }

    /// The device this kernel targets.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Build the performance profile. VENOM computes every logical column of
    /// the input (`problem.n`), ignoring `selected_n`.
    pub fn profile(&self, problem: &GemmProblem) -> KernelProfile {
        let (m, k, n) = (problem.m, problem.k, problem.n);
        let t = self.tiling;
        let launch = t.launch_for(m, n, true);

        let mut p = KernelProfile::empty("venom_spmm", launch);
        // The vector-pruned part of the reduction is skipped entirely; the
        // surviving part is retired through mma.sp.
        p.flops_tensor_sparse = 2.0 * m as f64 * k as f64 * n as f64 * self.vector_keep;

        let k_steps = (k as f64 * self.vector_keep / t.kb as f64).ceil().max(1.0);
        // Compressed A values + metadata + per-panel column indices.
        let a_tile = (t.mb * t.kb) as f64 * (2.0 * 0.5 + 0.25 * 0.5) + (t.kb as f64 / 8.0) * 2.0;
        let b_tile = (t.kb * t.nb) as f64 * 2.0;
        let total_reads = launch.grid_blocks as f64 * k_steps * (a_tile + b_tile);

        p.traffic.gmem_read_bytes = total_reads;
        p.traffic.gmem_write_bytes = (m * n) as f64 * 2.0;
        p.traffic.smem_bytes = total_reads;
        // Column gathering through the index list breaks part of the
        // coalescing; un-swizzled staging costs extra bank passes; naive
        // metadata layout costs extra transactions (folded into coalescing).
        p.traffic.coalescing_efficiency = 0.88;
        p.traffic.smem_bank_passes = 1.3;
        let occ = Occupancy::compute(&self.device, &launch);
        let concurrent = occ.blocks_per_sm * self.device.sm_count;
        // VENOM's tiling is not orchestrated around the index structures, so
        // it captures slightly less of the inter-block panel reuse.
        p.l2_hit_fraction =
            tiled_gemm_l2_hit(k, t.mb, t.nb, concurrent, self.device.l2_bytes) * 0.9;

        // Research-prototype quality: good but below the vendor libraries on
        // issue efficiency, shallower pipeline.
        p.compute_efficiency = 0.75;
        p.pipeline_overlap = 0.85;
        p.fixed_overhead_us = 6.0;
        p
    }

    /// Predicted statistics for a problem.
    pub fn stats(&self, problem: &GemmProblem) -> KernelStats {
        CostModel::new(self.device.clone()).evaluate(&self.profile(problem))
    }

    /// Functionally execute `C = A_venom * B`.
    pub fn execute(&self, a: &VenomMatrix, b: &DenseMatrix) -> Result<(DenseMatrix, KernelStats)> {
        let out = a.spmm(b)?;
        let problem = GemmProblem::dense(a.rows(), a.cols(), b.cols());
        Ok((out, self.stats(&problem)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm_dense::DenseGemm;
    use crate::spmm_nm::NmSpmm;
    use samoyeds_sparse::venom::VenomConfig;

    #[test]
    fn execute_matches_pruned_reference() {
        let kernel = VenomSpmm::new(DeviceSpec::rtx4070_super());
        let dense = DenseMatrix::random(64, 128, 11);
        let a = VenomMatrix::prune_from_dense(&dense, VenomConfig { v: 8, n: 2, m: 8 }).unwrap();
        let b = DenseMatrix::random(128, 32, 12);
        let (c, stats) = kernel.execute(&a, &b).unwrap();
        assert!(c.allclose(&a.to_dense().matmul(&b).unwrap(), 1e-4, 1e-4));
        assert_eq!(stats.kernel, "venom_spmm");
    }

    #[test]
    fn venom_beats_both_vendor_libraries_on_large_problems() {
        // The VENOM paper reports ~1.38x over cuSPARSELt; our model should
        // land in the same direction.
        let device = DeviceSpec::rtx4070_super();
        let venom = VenomSpmm::new(device.clone());
        let nm = NmSpmm::new(device.clone());
        let dense = DenseGemm::new(device);
        let problem = GemmProblem::dense(8192, 8192, 4096);
        let t_v = venom.stats(&problem).time_ms;
        let t_nm = nm.stats(&problem).time_ms;
        let t_d = dense.stats(&problem).time_ms;
        assert!(t_v < t_nm, "venom {t_v} cusparselt {t_nm}");
        assert!(t_v < t_d, "venom {t_v} cublas {t_d}");
        let over_nm = t_nm / t_v;
        assert!(over_nm > 1.1 && over_nm < 2.5, "ratio {over_nm}");
    }

    #[test]
    fn ignores_input_selection() {
        let kernel = VenomSpmm::new(DeviceSpec::rtx4070_super());
        let full = GemmProblem::dense(4096, 4096, 4096);
        let mut routed = full;
        routed.selected_n = 512;
        assert!((kernel.stats(&full).time_ms - kernel.stats(&routed).time_ms).abs() < 1e-9);
    }

    #[test]
    fn sparser_venom_kernels_run_faster() {
        let k = VenomSpmm::new(DeviceSpec::rtx4070_super());
        let k90 = VenomSpmm::with_keep(DeviceSpec::rtx4070_super(), 0.2);
        // Higher sparsity means less work and a faster kernel.
        let problem = GemmProblem::dense(4096, 4096, 4096);
        assert!(k90.stats(&problem).time_ms < k.stats(&problem).time_ms);
    }
}
