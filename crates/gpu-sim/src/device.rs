//! GPU device specifications.
//!
//! The presets cover every platform the paper touches: the RTX 4070 Super
//! used for the main evaluation (§6), the RTX 3090 / RTX 4090 / A100 used in
//! the portability study (§6.6, Figure 18, Table 6), plus AMD W7900 and MI300
//! entries for the hardware-support discussion of Table 1.
//!
//! The numbers are public specifications (boost clock, SM count, memory
//! bandwidth, cache sizes, tensor-core peak rates). Only *relative* accuracy
//! matters for reproducing the paper's trends: e.g. the A100 pairs higher
//! memory bandwidth with lower per-SM tensor throughput than the Ada cards,
//! which is exactly the "memory-computation imbalance" §6.6 attributes
//! VENOM's portability loss to.

/// GPU micro-architecture families relevant to SpTC support (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuArch {
    /// NVIDIA Ampere (A100, RTX 30 series).
    Ampere,
    /// NVIDIA Ada Lovelace (RTX 40 series).
    AdaLovelace,
    /// AMD RDNA3 (consumer; no sparse ALU).
    Rdna3,
    /// AMD CDNA3 (Instinct MI300; has a sparse ALU).
    Cdna3,
}

/// The interconnect a GPU model ships with in its usual deployment form
/// factor. Consumer cards talk to their peers over PCIe through the host,
/// datacenter parts have dedicated point-to-point fabrics; the distinction
/// drives the all-to-all dispatch cost of expert-parallel MoE serving
/// (`samoyeds-dist`).
///
/// All bandwidths in this database are **GB/s (bytes)**. Marketing figures
/// for network fabrics are quoted in Gb/s (bits); entries here carry the
/// ÷8 conversion already applied (e.g. InfiniBand NDR's 400 Gb/s per port
/// is stored as 50 GB/s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interconnect {
    /// PCIe 4.0 x16 through the host (consumer cards, no P2P fabric).
    PcieGen4,
    /// NVLink 3 (A100: 12 links, 600 GB/s aggregate bidirectional).
    Nvlink3,
    /// NVLink 4 (H100: 18 links, 900 GB/s aggregate bidirectional).
    Nvlink4,
    /// AMD Infinity Fabric (MI300-class accelerator mesh).
    InfinityFabric,
    /// InfiniBand NDR, the cross-node spine: 400 Gb/s per port, i.e.
    /// 400 / 8 = 50 GB/s of payload bandwidth per endpoint.
    InfiniBandNdr,
}

impl Interconnect {
    /// Per-GPU unidirectional peer bandwidth in GB/s (bytes — network
    /// fabrics quoted in Gb/s carry the ÷8 bits-to-bytes conversion here).
    pub fn bandwidth_gbps(&self) -> f64 {
        match self {
            Interconnect::PcieGen4 => 32.0,
            Interconnect::Nvlink3 => 300.0,
            Interconnect::Nvlink4 => 450.0,
            Interconnect::InfinityFabric => 448.0,
            // 400 Gb/s NDR port ÷ 8 bits per byte.
            Interconnect::InfiniBandNdr => 50.0,
        }
    }

    /// One-way message latency in microseconds (per collective phase, not
    /// per byte).
    pub fn latency_us(&self) -> f64 {
        match self {
            Interconnect::PcieGen4 => 5.0,
            Interconnect::Nvlink3 => 1.9,
            Interconnect::Nvlink4 => 1.8,
            Interconnect::InfinityFabric => 2.0,
            Interconnect::InfiniBandNdr => 12.0,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Interconnect::PcieGen4 => "PCIe 4.0 x16",
            Interconnect::Nvlink3 => "NVLink 3",
            Interconnect::Nvlink4 => "NVLink 4",
            Interconnect::InfinityFabric => "Infinity Fabric",
            Interconnect::InfiniBandNdr => "InfiniBand NDR",
        }
    }

    /// How many GPUs the fabric typically binds into one island in its
    /// usual deployment form factor (the NVLink domain of an HGX board,
    /// the handful of PCIe slots of a consumer host). Inter-node fabrics
    /// return 1: each spine endpoint is its own "island" boundary.
    pub fn node_radix(&self) -> usize {
        match self {
            Interconnect::PcieGen4 => 2,
            Interconnect::Nvlink3 | Interconnect::Nvlink4 => 8,
            Interconnect::InfinityFabric => 8,
            Interconnect::InfiniBandNdr => 1,
        }
    }
}

/// Static description of one GPU model.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, e.g. "NVIDIA GeForce RTX 4070 Super".
    pub name: String,
    /// Micro-architecture family.
    pub arch: GpuArch,
    /// Number of streaming multiprocessors (compute units on AMD).
    pub sm_count: usize,
    /// Boost clock in GHz.
    pub boost_clock_ghz: f64,
    /// Peak dense tensor-core throughput in TFLOPS (bf16 inputs, f32
    /// accumulate).
    pub tensor_tflops_dense: f64,
    /// Peak CUDA-core (non-tensor) FP32 throughput in TFLOPS.
    pub cuda_tflops_fp32: f64,
    /// Off-chip memory bandwidth in GB/s.
    pub mem_bandwidth_gbps: f64,
    /// Total device memory in GiB.
    pub mem_capacity_gib: f64,
    /// L2 cache size in bytes.
    pub l2_bytes: usize,
    /// Combined L1/shared-memory size per SM in bytes.
    pub shared_mem_per_sm: usize,
    /// Maximum shared memory usable by a single thread block in bytes.
    pub max_shared_per_block: usize,
    /// 32-bit registers per SM.
    pub registers_per_sm: usize,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: usize,
    /// Maximum resident thread blocks per SM.
    pub max_blocks_per_sm: usize,
    /// True if the device has a sparse ALU (Sparse Tensor Core or CDNA3
    /// equivalent) giving 2x throughput on 2:4 operands.
    pub has_sparse_alu: bool,
    /// True if the device supports asynchronous global→shared copies
    /// (`cp.async` or equivalent).
    pub has_async_copy: bool,
    /// True if the device supports collective matrix loads (`ldmatrix`).
    pub has_ldmatrix: bool,
    /// Peer-to-peer interconnect of the usual deployment form factor.
    pub interconnect: Interconnect,
}

impl DeviceSpec {
    /// Peak sparse tensor throughput in TFLOPS (2x dense when the sparse ALU
    /// exists, otherwise equal to dense — the kernel then simply cannot use
    /// `mma.sp`).
    pub fn tensor_tflops_sparse(&self) -> f64 {
        if self.has_sparse_alu {
            self.tensor_tflops_dense * 2.0
        } else {
            self.tensor_tflops_dense
        }
    }

    /// Aggregate shared-memory bandwidth in GB/s, modeled as 128 bytes per SM
    /// per clock (one 32-bank access of 4 bytes each).
    pub fn shared_bandwidth_gbps(&self) -> f64 {
        self.sm_count as f64 * 128.0 * self.boost_clock_ghz
    }

    /// L2 bandwidth in GB/s, modeled as a fixed multiple of DRAM bandwidth
    /// (roughly 6x on the modeled parts, in line with published
    /// microbenchmarks of Ampere/Ada L2 throughput).
    pub fn l2_bandwidth_gbps(&self) -> f64 {
        self.mem_bandwidth_gbps * 6.0
    }

    /// GPUs per node in this device's usual deployment form factor — the
    /// island size a multi-node cluster of this device decomposes into
    /// (8 for HGX-style NVLink boards, 2 for consumer PCIe hosts). Anything
    /// beyond this count crosses the node boundary onto the spine fabric.
    pub fn gpus_per_node(&self) -> usize {
        self.interconnect.node_radix()
    }

    /// NVIDIA GeForce RTX 4070 Super — the paper's primary platform.
    pub fn rtx4070_super() -> Self {
        Self {
            name: "NVIDIA GeForce RTX 4070 Super".to_string(),
            arch: GpuArch::AdaLovelace,
            sm_count: 56,
            boost_clock_ghz: 2.475,
            tensor_tflops_dense: 141.0,
            cuda_tflops_fp32: 35.5,
            mem_bandwidth_gbps: 504.0,
            mem_capacity_gib: 12.0,
            l2_bytes: 48 * 1024 * 1024,
            shared_mem_per_sm: 100 * 1024,
            max_shared_per_block: 99 * 1024,
            registers_per_sm: 65536,
            max_threads_per_sm: 1536,
            max_blocks_per_sm: 24,
            has_sparse_alu: true,
            has_async_copy: true,
            has_ldmatrix: true,
            interconnect: Interconnect::PcieGen4,
        }
    }

    /// NVIDIA GeForce RTX 3090 (Ampere, GA102).
    pub fn rtx3090() -> Self {
        Self {
            name: "NVIDIA GeForce RTX 3090".to_string(),
            arch: GpuArch::Ampere,
            sm_count: 82,
            boost_clock_ghz: 1.695,
            tensor_tflops_dense: 71.0,
            cuda_tflops_fp32: 35.6,
            mem_bandwidth_gbps: 936.0,
            mem_capacity_gib: 24.0,
            l2_bytes: 6 * 1024 * 1024,
            shared_mem_per_sm: 128 * 1024,
            max_shared_per_block: 99 * 1024,
            registers_per_sm: 65536,
            max_threads_per_sm: 1536,
            max_blocks_per_sm: 16,
            has_sparse_alu: true,
            has_async_copy: true,
            has_ldmatrix: true,
            interconnect: Interconnect::PcieGen4,
        }
    }

    /// NVIDIA GeForce RTX 4090 (Ada Lovelace, AD102).
    pub fn rtx4090() -> Self {
        Self {
            name: "NVIDIA GeForce RTX 4090".to_string(),
            arch: GpuArch::AdaLovelace,
            sm_count: 128,
            boost_clock_ghz: 2.52,
            tensor_tflops_dense: 330.0,
            cuda_tflops_fp32: 82.6,
            mem_bandwidth_gbps: 1008.0,
            mem_capacity_gib: 24.0,
            l2_bytes: 72 * 1024 * 1024,
            shared_mem_per_sm: 100 * 1024,
            max_shared_per_block: 99 * 1024,
            registers_per_sm: 65536,
            max_threads_per_sm: 1536,
            max_blocks_per_sm: 24,
            has_sparse_alu: true,
            has_async_copy: true,
            has_ldmatrix: true,
            interconnect: Interconnect::PcieGen4,
        }
    }

    /// NVIDIA A100 40GB (Ampere, GA100).
    pub fn a100_40g() -> Self {
        Self {
            name: "NVIDIA A100 40GB".to_string(),
            arch: GpuArch::Ampere,
            sm_count: 108,
            boost_clock_ghz: 1.41,
            tensor_tflops_dense: 312.0,
            cuda_tflops_fp32: 19.5,
            mem_bandwidth_gbps: 1555.0,
            mem_capacity_gib: 40.0,
            l2_bytes: 40 * 1024 * 1024,
            shared_mem_per_sm: 164 * 1024,
            max_shared_per_block: 163 * 1024,
            registers_per_sm: 65536,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            has_sparse_alu: true,
            has_async_copy: true,
            has_ldmatrix: true,
            interconnect: Interconnect::Nvlink3,
        }
    }

    /// AMD Radeon PRO W7900 (RDNA3) — no sparse ALU, listed in Table 1 as
    /// unable to run the Samoyeds kernel's mandatory path.
    pub fn amd_w7900() -> Self {
        Self {
            name: "AMD Radeon PRO W7900".to_string(),
            arch: GpuArch::Rdna3,
            sm_count: 96,
            boost_clock_ghz: 2.495,
            tensor_tflops_dense: 122.0,
            cuda_tflops_fp32: 61.3,
            mem_bandwidth_gbps: 864.0,
            mem_capacity_gib: 48.0,
            l2_bytes: 6 * 1024 * 1024,
            shared_mem_per_sm: 64 * 1024,
            max_shared_per_block: 64 * 1024,
            registers_per_sm: 65536,
            max_threads_per_sm: 1024,
            max_blocks_per_sm: 16,
            has_sparse_alu: false,
            has_async_copy: false,
            has_ldmatrix: false,
            interconnect: Interconnect::PcieGen4,
        }
    }

    /// AMD Instinct MI300 (CDNA3) — has a sparse ALU but lacks native async
    /// copy / collective loads (Table 1 ✗* entries).
    pub fn amd_mi300() -> Self {
        Self {
            name: "AMD Instinct MI300".to_string(),
            arch: GpuArch::Cdna3,
            sm_count: 228,
            boost_clock_ghz: 2.1,
            tensor_tflops_dense: 383.0,
            cuda_tflops_fp32: 61.3,
            mem_bandwidth_gbps: 5300.0,
            mem_capacity_gib: 128.0,
            l2_bytes: 16 * 1024 * 1024,
            shared_mem_per_sm: 64 * 1024,
            max_shared_per_block: 64 * 1024,
            registers_per_sm: 65536,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            has_sparse_alu: true,
            has_async_copy: false,
            has_ldmatrix: false,
            interconnect: Interconnect::InfinityFabric,
        }
    }

    /// All NVIDIA devices used in the portability study (Figure 18), in the
    /// order the paper presents them.
    pub fn portability_set() -> Vec<DeviceSpec> {
        vec![
            Self::rtx3090(),
            Self::rtx4070_super(),
            Self::rtx4090(),
            Self::a100_40g(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_rate_is_double_dense_when_supported() {
        let d = DeviceSpec::rtx4070_super();
        assert_eq!(d.tensor_tflops_sparse(), 2.0 * d.tensor_tflops_dense);
        let w = DeviceSpec::amd_w7900();
        assert_eq!(w.tensor_tflops_sparse(), w.tensor_tflops_dense);
    }

    #[test]
    fn table1_support_matrix() {
        // The sparse ALU is the Samoyeds kernel's mandatory requirement.
        assert!(DeviceSpec::a100_40g().has_sparse_alu);
        assert!(DeviceSpec::rtx4090().has_sparse_alu);
        assert!(!DeviceSpec::amd_w7900().has_sparse_alu);
        assert!(DeviceSpec::amd_mi300().has_sparse_alu);
        // AMD parts lack the optional features.
        assert!(!DeviceSpec::amd_mi300().has_async_copy);
        assert!(!DeviceSpec::amd_mi300().has_ldmatrix);
    }

    #[test]
    fn portability_relationships_match_section_6_6() {
        let a100 = DeviceSpec::a100_40g();
        let s4070 = DeviceSpec::rtx4070_super();
        let r3090 = DeviceSpec::rtx3090();
        // A100: more SMs, smaller L2 than the 4070 Super (Table 6 row 1).
        assert!(a100.sm_count > s4070.sm_count);
        assert!(a100.l2_bytes < s4070.l2_bytes);
        // 3090: slower tensor cores, higher bandwidth (Table 6 row 2).
        assert!(r3090.tensor_tflops_dense < s4070.tensor_tflops_dense);
        assert!(r3090.mem_bandwidth_gbps > s4070.mem_bandwidth_gbps);
    }

    #[test]
    fn bandwidth_helpers_are_positive_and_ordered() {
        for d in DeviceSpec::portability_set() {
            assert!(d.shared_bandwidth_gbps() > d.mem_bandwidth_gbps);
            assert!(d.l2_bandwidth_gbps() > d.mem_bandwidth_gbps);
        }
    }

    #[test]
    fn interconnect_presets_separate_fabric_from_pcie() {
        // Consumer cards cross PCIe; datacenter parts have a fabric that is
        // an order of magnitude faster and lower latency.
        assert_eq!(
            DeviceSpec::rtx4070_super().interconnect,
            Interconnect::PcieGen4
        );
        assert_eq!(DeviceSpec::rtx4090().interconnect, Interconnect::PcieGen4);
        assert_eq!(DeviceSpec::a100_40g().interconnect, Interconnect::Nvlink3);
        let pcie = Interconnect::PcieGen4;
        let nvlink = Interconnect::Nvlink3;
        assert!(nvlink.bandwidth_gbps() > 5.0 * pcie.bandwidth_gbps());
        assert!(nvlink.latency_us() < pcie.latency_us());
        for link in [
            Interconnect::PcieGen4,
            Interconnect::Nvlink3,
            Interconnect::Nvlink4,
            Interconnect::InfinityFabric,
            Interconnect::InfiniBandNdr,
        ] {
            assert!(link.bandwidth_gbps() > 0.0);
            assert!(link.latency_us() > 0.0);
            assert!(!link.name().is_empty());
            assert!(link.node_radix() >= 1);
        }
    }

    #[test]
    fn node_boundary_metadata_separates_islands_from_the_spine() {
        // Intra-node fabrics bind more than one GPU into an island; the
        // spine fabric is the node boundary itself.
        assert_eq!(Interconnect::InfiniBandNdr.node_radix(), 1);
        for intra in [
            Interconnect::PcieGen4,
            Interconnect::Nvlink3,
            Interconnect::Nvlink4,
            Interconnect::InfinityFabric,
        ] {
            assert!(intra.node_radix() >= 2, "{intra:?}");
        }
        // The NDR figure is the bits-to-bytes conversion of the 400 Gb/s
        // marketing number, pinned so the doc and the database cannot
        // drift apart.
        assert_eq!(Interconnect::InfiniBandNdr.bandwidth_gbps(), 400.0 / 8.0);
        // HGX NVLink domains are 8-wide; consumer PCIe hosts carry 2 cards.
        assert_eq!(DeviceSpec::a100_40g().gpus_per_node(), 8);
        assert_eq!(DeviceSpec::rtx4070_super().gpus_per_node(), 2);
    }

    #[test]
    fn portability_set_contains_the_four_paper_gpus() {
        let names: Vec<String> = DeviceSpec::portability_set()
            .into_iter()
            .map(|d| d.name)
            .collect();
        assert_eq!(names.len(), 4);
        assert!(names.iter().any(|n| n.contains("3090")));
        assert!(names.iter().any(|n| n.contains("4070")));
        assert!(names.iter().any(|n| n.contains("4090")));
        assert!(names.iter().any(|n| n.contains("A100")));
    }
}
