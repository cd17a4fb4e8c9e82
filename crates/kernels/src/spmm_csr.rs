//! Unstructured CSR SpMM kernel standing in for Sputnik.
//!
//! Sputnik executes the sparse product on the ordinary CUDA cores: it skips
//! the pruned weights but pays for index decoding, irregular (gather-style)
//! accesses into the dense operand and row-length load imbalance. This is why
//! the paper finds it profitable only at the very high sparsity ratios of HPC
//! workloads, not at the 50-90% ratios of LLMs (§3.2), and why Samoyeds beats
//! it by an order of magnitude (§6.1.1).

use crate::problem::GemmProblem;
use samoyeds_gpu_sim::memory::{l2_hit_fraction, AccessPattern};
use samoyeds_gpu_sim::{CostModel, DeviceSpec, KernelProfile, KernelStats, LaunchConfig};
use samoyeds_sparse::{CsrMatrix, DenseMatrix, Result, SparseFormat};

/// Simulated Sputnik-like CSR x dense kernel.
#[derive(Debug, Clone)]
pub struct CsrSpmm {
    device: DeviceSpec,
}

impl CsrSpmm {
    /// Create the kernel for a device.
    pub fn new(device: DeviceSpec) -> Self {
        Self { device }
    }

    /// Build the performance profile for a problem with the given
    /// unstructured weight sparsity.
    pub fn profile(&self, problem: &GemmProblem, sparsity: f64) -> KernelProfile {
        let (m, k, n) = (problem.m, problem.k, problem.n);
        let keep = (1.0 - sparsity).clamp(0.01, 1.0);
        let nnz = (m as f64 * k as f64 * keep).max(1.0);

        // Row-parallel launch: one warp per output row, 64 rows per block.
        let rows_per_block = 64usize;
        let launch = LaunchConfig {
            grid_blocks: m.div_ceil(rows_per_block).max(1),
            block_threads: 256,
            regs_per_thread: 64,
            shared_bytes_per_block: 16 * 1024,
        };

        let mut p = KernelProfile::empty("sputnik_spmm", launch);
        // All useful FLOPs run on CUDA cores; index decode adds roughly one
        // integer op per value which we fold in as an extra 50% FLOP charge.
        p.flops_cuda = 2.0 * nnz * n as f64 * 1.5;

        // Traffic: CSR values + column indices, and a gather of B rows. Each
        // nonzero touches a row segment of B; reuse across rows is limited to
        // what survives in L2.
        let csr_bytes = nnz * (2.0 + 4.0) + (m as f64 + 1.0) * 4.0;
        let b_touch = nnz * n as f64 * 2.0 / 8.0; // 8-way register blocking over columns
        p.traffic.gmem_read_bytes = csr_bytes + b_touch;
        p.traffic.gmem_write_bytes = (m * n) as f64 * 2.0;
        p.traffic.smem_bytes = csr_bytes;
        // Gathered B rows are not coalesced across the sparse column indices.
        p.traffic.coalescing_efficiency = AccessPattern::Strided { stride_bytes: 32 }
            .efficiency(2)
            .max(0.25);
        p.traffic.smem_bank_passes = 1.5;
        let unique = (k * n) as f64 * 2.0;
        p.l2_hit_fraction =
            l2_hit_fraction(unique, self.device.l2_bytes, (nnz / k as f64).max(1.0));

        // CUDA-core kernel without tensor pipelines: modest efficiency, no
        // cp.async double buffering in the modeled version.
        p.compute_efficiency = 0.45;
        p.pipeline_overlap = 0.5;
        p.fixed_overhead_us = 6.0;
        p
    }

    /// Predicted statistics for a problem at the given sparsity.
    pub fn stats(&self, problem: &GemmProblem, sparsity: f64) -> KernelStats {
        CostModel::new(self.device.clone()).evaluate(&self.profile(problem, sparsity))
    }

    /// Functionally execute `C = A_csr * B`.
    pub fn execute(&self, a: &CsrMatrix, b: &DenseMatrix) -> Result<(DenseMatrix, KernelStats)> {
        let out = a.spmm(b)?;
        let problem = GemmProblem::dense(a.rows(), a.cols(), b.cols());
        Ok((out, self.stats(&problem, a.sparsity())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm_dense::DenseGemm;

    #[test]
    fn execute_matches_reference() {
        let kernel = CsrSpmm::new(DeviceSpec::rtx4070_super());
        let dense = DenseMatrix::random_sparse(64, 96, 0.75, 3);
        let a = CsrMatrix::from_dense(&dense);
        let b = DenseMatrix::random(96, 48, 4);
        let (c, stats) = kernel.execute(&a, &b).unwrap();
        assert!(c.allclose(&dense.matmul(&b).unwrap(), 1e-4, 1e-4));
        assert_eq!(stats.kernel, "sputnik_spmm");
    }

    #[test]
    fn slower_than_dense_tensor_cores_at_llm_sparsity() {
        // At 75% sparsity the CUDA-core kernel should NOT beat cuBLAS on
        // tensor cores — the paper's §3.2 point.
        let device = DeviceSpec::rtx4070_super();
        let csr = CsrSpmm::new(device.clone());
        let dense = DenseGemm::new(device);
        let problem = GemmProblem::dense(4096, 4096, 4096);
        let t_csr = csr.stats(&problem, 0.75).time_ms;
        let t_dense = dense.stats(&problem).time_ms;
        assert!(t_csr > t_dense, "csr {t_csr} dense {t_dense}");
    }

    #[test]
    fn higher_sparsity_is_faster() {
        let kernel = CsrSpmm::new(DeviceSpec::rtx4070_super());
        let problem = GemmProblem::dense(4096, 4096, 4096);
        let t50 = kernel.stats(&problem, 0.5).time_ms;
        let t95 = kernel.stats(&problem, 0.95).time_ms;
        assert!(t95 < t50);
    }

    #[test]
    fn profile_runs_on_cuda_cores_only() {
        let kernel = CsrSpmm::new(DeviceSpec::rtx4070_super());
        let p = kernel.profile(&GemmProblem::dense(1024, 1024, 1024), 0.8);
        assert_eq!(p.flops_tensor_dense, 0.0);
        assert_eq!(p.flops_tensor_sparse, 0.0);
        assert!(p.flops_cuda > 0.0);
        assert!(p.traffic.coalescing_efficiency < 1.0);
    }
}
