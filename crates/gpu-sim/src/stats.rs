//! The measurement record returned by every simulated kernel execution.

/// Per-execution statistics: predicted time plus the profile quantities the
/// prediction was derived from. Experiments aggregate these into the rows and
/// series of the paper's tables and figures.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelStats {
    /// Kernel name, e.g. `samoyeds_ssmm` or `cublas_gemm`.
    pub kernel: String,
    /// Device the prediction was made for.
    pub device: String,
    /// Predicted execution time in milliseconds.
    pub time_ms: f64,
    /// Useful floating-point operations performed.
    pub total_flops: f64,
    /// Achieved throughput in TFLOPS.
    pub achieved_tflops: f64,
    /// Useful DRAM traffic in bytes.
    pub dram_bytes: f64,
    /// DRAM traffic after coalescing inefficiency in bytes.
    pub effective_dram_bytes: f64,
    /// Bytes staged through shared memory.
    pub smem_bytes: f64,
    /// Modeled L2 hit fraction.
    pub l2_hit_fraction: f64,
    /// Modeled global-memory coalescing efficiency.
    pub coalescing_efficiency: f64,
    /// Achieved occupancy as a fraction of maximum resident warps.
    pub occupancy_fraction: f64,
    /// Number of waves the grid needed.
    pub waves: usize,
    /// Efficiency of the final (partial) wave.
    pub tail_efficiency: f64,
    /// Fraction of memory latency hidden by the software pipeline.
    pub pipeline_overlap: f64,
    /// Compute-only time in milliseconds (roofline numerator).
    pub compute_time_ms: f64,
    /// Memory-only time in milliseconds (roofline denominator).
    pub memory_time_ms: f64,
}
