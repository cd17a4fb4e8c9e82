//! The analytical cost model that converts a kernel's work and traffic
//! profile into a predicted execution time on a device.
//!
//! The model is a pipelined roofline:
//!
//! 1. compute time  = FLOPs / (peak rate of the unit that executes them);
//! 2. DRAM time     = effective DRAM bytes / bandwidth, with L2 hits served
//!    at L2 bandwidth;
//! 3. shared time   = staged bytes x bank passes / shared bandwidth;
//! 4. the three streams overlap according to the software pipeline quality
//!    (`cp.async` double buffering), so the body time is the maximum of the
//!    three plus the *exposed* part of the others;
//! 5. the body is scaled by wave quantisation (tail waves) and by the
//!    latency-hiding factor of the achieved occupancy;
//! 6. a fixed launch overhead is added.
//!
//! All of the paper's first-order performance arguments — the 2x SpTC rate,
//! I/O amplification, uncoalesced access, padding overhead, tail waves, L2
//! pressure — enter through these terms.

use crate::device::DeviceSpec;
use crate::memory::Traffic;
use crate::occupancy::{LaunchConfig, Occupancy};
use crate::stats::KernelStats;

/// The work and traffic profile of one simulated kernel execution.
///
/// Building and evaluating a profile allocates nothing: the kernel name is a
/// static string, copied into an owned one only when [`CostModel::evaluate`]
/// builds the [`KernelStats`] record.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Human-readable kernel name (appears in stats and experiment output).
    /// Every kernel model names itself with a literal.
    pub name: &'static str,
    /// FLOPs executed on the dense tensor-core path.
    pub flops_tensor_dense: f64,
    /// Logical FLOPs executed through `mma.sp` (the sparse tensor path, which
    /// retires them at twice the dense rate).
    pub flops_tensor_sparse: f64,
    /// FLOPs executed on the ordinary CUDA cores (e.g. Sputnik's scalar FMAs,
    /// epilogue activations, index arithmetic folded into an FLOP count).
    pub flops_cuda: f64,
    /// Memory traffic of the kernel.
    pub traffic: Traffic,
    /// Fraction of DRAM reads served by the L2 cache, in `[0, 1)`.
    pub l2_hit_fraction: f64,
    /// Launch configuration (drives occupancy and wave quantisation).
    pub launch: LaunchConfig,
    /// Fraction of memory latency hidden behind compute by the software
    /// pipeline, in `[0, 1]` (0 = fully serialised, 1 = perfectly
    /// overlapped).
    pub pipeline_overlap: f64,
    /// Fraction of peak unit throughput a well-formed inner loop reaches
    /// (accounts for issue overhead and epilogues), in `(0, 1]`.
    pub compute_efficiency: f64,
    /// Fixed per-launch overhead in microseconds.
    pub fixed_overhead_us: f64,
}

impl KernelProfile {
    /// A profile with no work — useful as a starting point for builders.
    pub fn empty(name: &'static str, launch: LaunchConfig) -> Self {
        Self {
            name,
            flops_tensor_dense: 0.0,
            flops_tensor_sparse: 0.0,
            flops_cuda: 0.0,
            traffic: Traffic::ideal(),
            l2_hit_fraction: 0.0,
            launch,
            pipeline_overlap: 0.0,
            compute_efficiency: 0.8,
            fixed_overhead_us: 5.0,
        }
    }

    /// Total useful FLOPs regardless of the unit that executes them.
    pub fn total_flops(&self) -> f64 {
        self.flops_tensor_dense + self.flops_tensor_sparse + self.flops_cuda
    }
}

/// The cost model: device plus evaluation knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    device: DeviceSpec,
}

impl CostModel {
    /// Build a cost model for the given device.
    pub fn new(device: DeviceSpec) -> Self {
        Self { device }
    }

    /// The device this model evaluates on.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Time (seconds) spent on compute units, ignoring memory.
    pub fn compute_time_s(&self, p: &KernelProfile) -> f64 {
        let eff = p.compute_efficiency.clamp(0.05, 1.0);
        let dense_rate = self.device.tensor_tflops_dense * 1e12 * eff;
        let sparse_rate = self.device.tensor_tflops_sparse() * 1e12 * eff;
        let cuda_rate = self.device.cuda_tflops_fp32 * 1e12 * eff;
        p.flops_tensor_dense / dense_rate
            + p.flops_tensor_sparse / sparse_rate
            + p.flops_cuda / cuda_rate
    }

    /// Time (seconds) spent moving data through DRAM and L2.
    pub fn memory_time_s(&self, p: &KernelProfile) -> f64 {
        let hit = p.l2_hit_fraction.clamp(0.0, 0.99);
        let effective = p.traffic.effective_dram_bytes();
        let dram_part = effective * (1.0 - hit);
        let l2_part = effective * hit + p.traffic.l2_read_bytes;
        dram_part / (self.device.mem_bandwidth_gbps * 1e9)
            + l2_part / (self.device.l2_bandwidth_gbps() * 1e9)
    }

    /// Time (seconds) spent on shared-memory traffic (including serialised
    /// bank passes).
    pub fn shared_time_s(&self, p: &KernelProfile) -> f64 {
        let passes = p.traffic.smem_bank_passes.max(1.0);
        p.traffic.smem_bytes * passes / (self.device.shared_bandwidth_gbps() * 1e9)
    }

    /// Predict the execution time of the kernel in seconds.
    pub fn execution_time_s(&self, p: &KernelProfile) -> f64 {
        let compute = self.compute_time_s(p);
        let memory = self.memory_time_s(p);
        let shared = self.shared_time_s(p);

        let dominant = compute.max(memory).max(shared);
        let others = compute + memory + shared - dominant;
        let overlap = p.pipeline_overlap.clamp(0.0, 1.0);
        let body = dominant + (1.0 - overlap) * others;

        let occ = Occupancy::compute(&self.device, &p.launch);
        let latency = occ.latency_hiding_factor();
        let tail = occ.tail_efficiency.max(1e-3);

        body / latency / tail + p.fixed_overhead_us * 1e-6
    }

    /// Full statistics record for one kernel execution.
    pub fn evaluate(&self, p: &KernelProfile) -> KernelStats {
        let time_s = self.execution_time_s(p);
        let occ = Occupancy::compute(&self.device, &p.launch);
        KernelStats {
            kernel: p.name.to_string(),
            device: self.device.name.clone(),
            time_ms: time_s * 1e3,
            total_flops: p.total_flops(),
            achieved_tflops: p.total_flops() / time_s / 1e12,
            dram_bytes: p.traffic.dram_bytes(),
            effective_dram_bytes: p.traffic.effective_dram_bytes(),
            smem_bytes: p.traffic.smem_bytes,
            l2_hit_fraction: p.l2_hit_fraction,
            coalescing_efficiency: p.traffic.coalescing_efficiency,
            occupancy_fraction: occ.fraction,
            waves: occ.waves,
            tail_efficiency: occ.tail_efficiency,
            pipeline_overlap: p.pipeline_overlap,
            compute_time_ms: self.compute_time_s(p) * 1e3,
            memory_time_ms: self.memory_time_s(p) * 1e3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn launch(blocks: usize) -> LaunchConfig {
        LaunchConfig {
            grid_blocks: blocks,
            block_threads: 256,
            regs_per_thread: 128,
            shared_bytes_per_block: 48 * 1024,
        }
    }

    fn gemm_profile(m: usize, n: usize, k: usize, sparse: bool) -> KernelProfile {
        let flops = 2.0 * m as f64 * n as f64 * k as f64;
        let bytes = 2.0 * (m * k + k * n + m * n * 2) as f64;
        let mut p = KernelProfile::empty("test", launch((m / 128).max(1) * (n / 128).max(1)));
        if sparse {
            p.flops_tensor_sparse = flops;
            p.traffic.gmem_read_bytes = bytes * 0.6;
        } else {
            p.flops_tensor_dense = flops;
            p.traffic.gmem_read_bytes = bytes;
        }
        p.traffic.gmem_write_bytes = (m * n * 2) as f64;
        p.l2_hit_fraction = 0.5;
        p.pipeline_overlap = 0.9;
        p
    }

    #[test]
    fn bigger_problems_achieve_higher_throughput() {
        let model = CostModel::new(DeviceSpec::rtx4070_super());
        let small = model.evaluate(&gemm_profile(256, 256, 256, false));
        let large = model.evaluate(&gemm_profile(8192, 8192, 8192, false));
        assert!(large.achieved_tflops > small.achieved_tflops * 2.0);
        assert!(large.time_ms > small.time_ms);
    }

    #[test]
    fn sparse_path_is_faster_than_dense_for_same_logical_work() {
        let model = CostModel::new(DeviceSpec::rtx4070_super());
        let dense = model.execution_time_s(&gemm_profile(4096, 4096, 4096, false));
        let sparse = model.execution_time_s(&gemm_profile(4096, 4096, 4096, true));
        assert!(sparse < dense, "sparse {sparse} dense {dense}");
    }

    #[test]
    fn achieved_throughput_never_exceeds_peak() {
        let model = CostModel::new(DeviceSpec::rtx4070_super());
        for size in [512usize, 1024, 4096, 8192] {
            let stats = model.evaluate(&gemm_profile(size, size, size, false));
            assert!(stats.achieved_tflops <= model.device().tensor_tflops_dense);
        }
        // Sparse path may exceed the dense peak but not the sparse peak.
        let s = model.evaluate(&gemm_profile(8192, 8192, 8192, true));
        assert!(s.achieved_tflops <= model.device().tensor_tflops_sparse());
    }

    #[test]
    fn uncoalesced_traffic_increases_time() {
        let model = CostModel::new(DeviceSpec::rtx4070_super());
        let mut good = gemm_profile(2048, 2048, 2048, false);
        good.traffic.coalescing_efficiency = 1.0;
        let mut bad = good.clone();
        bad.traffic.coalescing_efficiency = 0.25;
        assert!(model.execution_time_s(&bad) > model.execution_time_s(&good));
    }

    #[test]
    fn pipeline_overlap_reduces_time() {
        let model = CostModel::new(DeviceSpec::rtx4070_super());
        let mut overlapped = gemm_profile(2048, 2048, 2048, false);
        overlapped.pipeline_overlap = 0.95;
        let mut serial = overlapped.clone();
        serial.pipeline_overlap = 0.0;
        assert!(model.execution_time_s(&overlapped) < model.execution_time_s(&serial));
    }

    #[test]
    fn l2_hits_reduce_time() {
        let model = CostModel::new(DeviceSpec::rtx4070_super());
        let mut cold = gemm_profile(2048, 2048, 2048, false);
        cold.l2_hit_fraction = 0.0;
        let mut warm = cold.clone();
        warm.l2_hit_fraction = 0.9;
        assert!(model.execution_time_s(&warm) < model.execution_time_s(&cold));
    }

    #[test]
    fn fixed_overhead_dominates_tiny_kernels() {
        let model = CostModel::new(DeviceSpec::rtx4070_super());
        let mut p = KernelProfile::empty("tiny", launch(1));
        p.fixed_overhead_us = 5.0;
        let t = model.execution_time_s(&p);
        assert!(t >= 4.9e-6);
        assert!(t < 1e-4);
    }

    #[test]
    fn evaluate_populates_stats_consistently() {
        let model = CostModel::new(DeviceSpec::a100_40g());
        let p = gemm_profile(4096, 4096, 4096, true);
        let s = model.evaluate(&p);
        assert_eq!(s.kernel, "test");
        assert!(s.device.contains("A100"));
        assert!(s.time_ms > 0.0);
        assert!((s.total_flops - p.total_flops()).abs() < 1.0);
        assert!(s.compute_time_ms > 0.0 && s.memory_time_ms > 0.0);
        assert!(s.occupancy_fraction > 0.0 && s.occupancy_fraction <= 1.0);
    }
}
