//! Dense GEMM kernel standing in for cuBLAS.
//!
//! cuBLAS is the vendor-tuned dense baseline of §6.1: it runs on the dense
//! tensor cores, enjoys near-ideal memory behaviour (hand-tuned tiling,
//! swizzled shared memory, deep software pipelines), but performs the full
//! `2*m*k*n` FLOPs regardless of any sparsity in the operands.

use crate::problem::GemmProblem;
use crate::tiling::TilingConfig;
use samoyeds_gpu_sim::memory::tiled_gemm_l2_hit;
use samoyeds_gpu_sim::{CostModel, DeviceSpec, KernelProfile, KernelStats, Occupancy};
use samoyeds_sparse::{DenseMatrix, Result};

/// Simulated cuBLAS-like dense GEMM.
#[derive(Debug, Clone)]
pub struct DenseGemm {
    cost: CostModel,
    tiling: TilingConfig,
}

impl DenseGemm {
    /// Create the kernel for a device with the default (vendor-quality)
    /// tiling.
    pub fn new(device: DeviceSpec) -> Self {
        let tiling = TilingConfig::VENDOR_LARGE.shrink_to_fit(&device, false);
        Self {
            cost: CostModel::new(device),
            tiling,
        }
    }

    /// The device this kernel targets.
    pub fn device(&self) -> &DeviceSpec {
        self.cost.device()
    }

    /// Build the performance profile for a problem (uses all `n` logical
    /// columns: a dense kernel cannot exploit routing sparsity).
    pub fn profile(&self, problem: &GemmProblem) -> KernelProfile {
        let (m, k, n) = (problem.m, problem.k, problem.n);
        let t = self.tiling;
        let launch = t.launch_for(m, n, false);

        let mut p = KernelProfile::empty("cublas_gemm", launch);
        p.flops_tensor_dense = 2.0 * m as f64 * k as f64 * n as f64;

        // Tile traffic: every block walks the whole K dimension.
        let k_steps = (k as f64 / t.kb as f64).ceil().max(1.0);
        let per_block = (t.mb * t.kb + t.kb * t.nb) as f64 * 2.0;
        let total_reads = launch.grid_blocks as f64 * k_steps * per_block;
        p.traffic.gmem_read_bytes = total_reads;
        p.traffic.gmem_write_bytes = (m * n) as f64 * 2.0;
        p.traffic.smem_bytes = total_reads;
        p.traffic.coalescing_efficiency = 1.0;
        p.traffic.smem_bank_passes = 1.0;
        let device = self.device();
        let occ = Occupancy::compute(device, &launch);
        let concurrent = occ.blocks_per_sm * device.sm_count;
        p.l2_hit_fraction = tiled_gemm_l2_hit(k, t.mb, t.nb, concurrent, device.l2_bytes);

        // Vendor-library quality.
        p.compute_efficiency = 0.85;
        p.pipeline_overlap = 0.92;
        p.fixed_overhead_us = 5.0;
        p
    }

    /// Predicted statistics for a problem.
    pub fn stats(&self, problem: &GemmProblem) -> KernelStats {
        self.cost.evaluate(&self.profile(problem))
    }

    /// Predicted execution time of a problem in milliseconds, bit-identical
    /// to `stats(problem).time_ms` without building the statistics record.
    pub fn time_ms(&self, problem: &GemmProblem) -> f64 {
        self.cost.execution_time_s(&self.profile(problem)) * 1e3
    }

    /// Functionally execute `C = A * B` and return the result together with
    /// the predicted statistics.
    pub fn execute(&self, a: &DenseMatrix, b: &DenseMatrix) -> Result<(DenseMatrix, KernelStats)> {
        let out = a.matmul(b)?;
        let problem = GemmProblem::dense(a.rows(), a.cols(), b.cols());
        Ok((out, self.stats(&problem)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execute_matches_reference() {
        let kernel = DenseGemm::new(DeviceSpec::rtx4070_super());
        let a = DenseMatrix::random(64, 96, 1);
        let b = DenseMatrix::random(96, 48, 2);
        let (c, stats) = kernel.execute(&a, &b).unwrap();
        assert!(c.allclose(&a.matmul(&b).unwrap(), 1e-5, 1e-5));
        assert!(stats.time_ms > 0.0);
        assert_eq!(stats.kernel, "cublas_gemm");
    }

    #[test]
    fn throughput_grows_with_size_then_saturates() {
        let kernel = DenseGemm::new(DeviceSpec::rtx4070_super());
        let mut last = 0.0;
        let mut tflops = Vec::new();
        for size in [256usize, 1024, 4096, 8192] {
            let s = kernel.stats(&GemmProblem::dense(size, size, size));
            tflops.push(s.achieved_tflops);
            assert!(s.achieved_tflops <= kernel.device().tensor_tflops_dense);
            last = s.achieved_tflops;
        }
        assert!(tflops[1] > tflops[0]);
        assert!(last > 0.3 * kernel.device().tensor_tflops_dense);
    }

    #[test]
    fn dense_kernel_ignores_input_sparsity() {
        let kernel = DenseGemm::new(DeviceSpec::rtx4070_super());
        let dense_problem = GemmProblem::dense(2048, 2048, 2048);
        let mut routed = dense_problem;
        routed.selected_n = 256;
        let a = kernel.stats(&dense_problem);
        let b = kernel.stats(&routed);
        assert!((a.time_ms - b.time_ms).abs() / a.time_ms < 1e-9);
    }

    #[test]
    fn time_ms_is_the_stats_time_bit_for_bit() {
        for device in [DeviceSpec::a100_40g(), DeviceSpec::rtx4070_super()] {
            let kernel = DenseGemm::new(device);
            for n in [1usize, 7, 64, 216, 4096] {
                let problem = GemmProblem::dense(2048, 1408, n);
                assert_eq!(
                    kernel.time_ms(&problem).to_bits(),
                    kernel.stats(&problem).time_ms.to_bits()
                );
            }
        }
    }

    #[test]
    fn profile_shapes_are_consistent() {
        let kernel = DenseGemm::new(DeviceSpec::a100_40g());
        let p = kernel.profile(&GemmProblem::dense(4096, 4096, 4096));
        assert_eq!(p.flops_tensor_sparse, 0.0);
        assert!(p.flops_tensor_dense > 0.0);
        assert!(p.traffic.gmem_read_bytes >= (4096.0f64 * 4096.0 * 2.0) * 2.0);
        assert!(p.l2_hit_fraction >= 0.0 && p.l2_hit_fraction < 1.0);
    }
}
