//! 2:4 structured SpMM kernel standing in for cuSPARSELt.
//!
//! cuSPARSELt is NVIDIA's vendor library for the hardware 2:4 format: it runs
//! on the Sparse Tensor Cores at twice the dense peak rate and halves the
//! weight traffic, but its sparsity ratio is fixed at 50% — the limitation
//! that motivates both VENOM and Samoyeds (§3.3).

use crate::problem::GemmProblem;
use crate::tiling::TilingConfig;
use samoyeds_gpu_sim::memory::tiled_gemm_l2_hit;
use samoyeds_gpu_sim::{CostModel, DeviceSpec, KernelProfile, KernelStats, Occupancy};
use samoyeds_sparse::{DenseMatrix, NmMatrix, Result, SparseFormat};

/// Simulated cuSPARSELt-like 2:4 x dense kernel.
#[derive(Debug, Clone)]
pub struct NmSpmm {
    device: DeviceSpec,
    tiling: TilingConfig,
}

impl NmSpmm {
    /// Create the kernel for a device.
    pub fn new(device: DeviceSpec) -> Self {
        let tiling = TilingConfig::VENDOR_LARGE.shrink_to_fit(&device, true);
        Self { device, tiling }
    }

    /// Build the performance profile (2:4 weights, dense input, all `n`
    /// columns computed).
    pub fn profile(&self, problem: &GemmProblem) -> KernelProfile {
        let (m, k, n) = (problem.m, problem.k, problem.n);
        let t = self.tiling;
        let launch = t.launch_for(m, n, true);

        let mut p = KernelProfile::empty("cusparselt_spmm", launch);
        // The whole logical product is retired through mma.sp.
        p.flops_tensor_sparse = 2.0 * m as f64 * k as f64 * n as f64;

        let k_steps = (k as f64 / t.kb as f64).ceil().max(1.0);
        // A tile is 2:4 compressed (half the values) plus 2-bit metadata.
        let a_tile = (t.mb * t.kb) as f64 * (2.0 * 0.5 + 0.25 * 0.5);
        let b_tile = (t.kb * t.nb) as f64 * 2.0;
        let total_reads = launch.grid_blocks as f64 * k_steps * (a_tile + b_tile);

        p.traffic.gmem_read_bytes = total_reads;
        p.traffic.gmem_write_bytes = (m * n) as f64 * 2.0;
        p.traffic.smem_bytes = total_reads;
        p.traffic.coalescing_efficiency = 1.0;
        p.traffic.smem_bank_passes = 1.0;
        let occ = Occupancy::compute(&self.device, &launch);
        let concurrent = occ.blocks_per_sm * self.device.sm_count;
        // The compressed A tile halves the wave working set on the A side.
        p.l2_hit_fraction =
            tiled_gemm_l2_hit(k / 2 + k / 2, t.mb, t.nb, concurrent, self.device.l2_bytes);

        // Vendor-library quality, marginally below cuBLAS because the sparse
        // pipeline has extra metadata staging.
        p.compute_efficiency = 0.82;
        p.pipeline_overlap = 0.9;
        p.fixed_overhead_us = 5.0;
        p
    }

    /// Predicted statistics for a problem.
    pub fn stats(&self, problem: &GemmProblem) -> KernelStats {
        CostModel::new(self.device.clone()).evaluate(&self.profile(problem))
    }

    /// Functionally execute `C = A_2:4 * B`.
    pub fn execute(&self, a: &NmMatrix, b: &DenseMatrix) -> Result<(DenseMatrix, KernelStats)> {
        let out = a.spmm(b)?;
        let problem = GemmProblem::dense(a.rows(), a.cols(), b.cols());
        Ok((out, self.stats(&problem)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm_dense::DenseGemm;
    use samoyeds_sparse::nm::NmConfig;

    #[test]
    fn execute_matches_pruned_reference() {
        let kernel = NmSpmm::new(DeviceSpec::rtx4070_super());
        let dense = DenseMatrix::random(64, 128, 7);
        let a = NmMatrix::prune_from_dense(&dense, NmConfig::TWO_FOUR).unwrap();
        let b = DenseMatrix::random(128, 32, 8);
        let (c, stats) = kernel.execute(&a, &b).unwrap();
        assert!(c.allclose(&a.to_dense().matmul(&b).unwrap(), 1e-4, 1e-4));
        assert_eq!(stats.kernel, "cusparselt_spmm");
    }

    #[test]
    fn faster_than_dense_on_large_compute_bound_problems() {
        let device = DeviceSpec::rtx4070_super();
        let sp = NmSpmm::new(device.clone());
        let dn = DenseGemm::new(device);
        let problem = GemmProblem::dense(8192, 8192, 8192);
        let t_sp = sp.stats(&problem).time_ms;
        let t_dn = dn.stats(&problem).time_ms;
        let speedup = t_dn / t_sp;
        // The hardware bound is 2x; library overheads keep it below that.
        assert!(speedup > 1.2 && speedup <= 2.1, "speedup {speedup}");
    }

    #[test]
    fn weight_traffic_is_roughly_halved_versus_dense() {
        let device = DeviceSpec::rtx4070_super();
        let sp = NmSpmm::new(device.clone());
        let dn = DenseGemm::new(device);
        // Weight-dominated problem (small n).
        let problem = GemmProblem::dense(8192, 8192, 128);
        let p_sp = sp.profile(&problem);
        let p_dn = dn.profile(&problem);
        assert!(p_sp.traffic.gmem_read_bytes < p_dn.traffic.gmem_read_bytes * 0.8);
    }

    #[test]
    fn all_flops_go_through_the_sparse_path() {
        let kernel = NmSpmm::new(DeviceSpec::a100_40g());
        let p = kernel.profile(&GemmProblem::dense(1024, 2048, 512));
        assert_eq!(p.flops_tensor_dense, 0.0);
        assert_eq!(p.flops_cuda, 0.0);
        assert_eq!(p.flops_tensor_sparse, 2.0 * 1024.0 * 2048.0 * 512.0);
    }
}
