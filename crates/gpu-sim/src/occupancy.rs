//! Occupancy and wave-quantisation modelling.
//!
//! Occupancy — how many warps are resident per SM — determines how well the
//! hardware can hide memory and pipeline latency by switching between warps.
//! The paper leans on this in §6.1.2 (throughput grows with `m`/`n` because
//! more warps become available, small kernels under-utilise the GPU) and in
//! the tail-wave discussion (performance dip at 4096, recovery at 8192).

use crate::device::DeviceSpec;

/// Threads per warp on every modeled device.
pub const WARP_SIZE: usize = 32;

/// A kernel launch configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of thread blocks in the grid.
    pub grid_blocks: usize,
    /// Threads per block.
    pub block_threads: usize,
    /// 32-bit registers used per thread.
    pub regs_per_thread: usize,
    /// Shared memory used per block in bytes.
    pub shared_bytes_per_block: usize,
}

/// The occupancy achieved by a launch on a particular device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occupancy {
    /// Thread blocks resident per SM.
    pub blocks_per_sm: usize,
    /// Warps resident per SM.
    pub warps_per_sm: usize,
    /// Fraction of the device's maximum resident warps, in `[0, 1]`.
    pub fraction: f64,
    /// Number of waves needed to execute the whole grid.
    pub waves: usize,
    /// Efficiency lost to the final partial wave, in `(0, 1]`. 1.0 means the
    /// grid fills every wave exactly.
    pub tail_efficiency: f64,
}

impl Occupancy {
    /// Compute the occupancy of `launch` on `device`.
    pub fn compute(device: &DeviceSpec, launch: &LaunchConfig) -> Occupancy {
        let block_threads = launch.block_threads.max(WARP_SIZE);
        let warps_per_block = block_threads.div_ceil(WARP_SIZE);

        // Limit 1: threads per SM.
        let limit_threads = device.max_threads_per_sm / block_threads;
        // Limit 2: registers per SM (allocated per warp, 256-register
        // granularity approximated away).
        let regs_per_block = launch.regs_per_thread.max(16) * block_threads;
        let limit_regs = device
            .registers_per_sm
            .checked_div(regs_per_block)
            .unwrap_or(device.max_blocks_per_sm);
        // Limit 3: shared memory per SM.
        let limit_shared = device
            .shared_mem_per_sm
            .checked_div(launch.shared_bytes_per_block)
            .unwrap_or(device.max_blocks_per_sm);
        // Limit 4: hardware block slots.
        let blocks_per_sm = limit_threads
            .min(limit_regs)
            .min(limit_shared)
            .min(device.max_blocks_per_sm);

        let warps_per_sm = blocks_per_sm * warps_per_block;
        let max_warps = device.max_threads_per_sm / WARP_SIZE;
        let fraction = if max_warps == 0 {
            0.0
        } else {
            (warps_per_sm as f64 / max_warps as f64).min(1.0)
        };

        // Wave quantisation.
        let concurrent_blocks = (blocks_per_sm * device.sm_count).max(1);
        let waves = launch.grid_blocks.div_ceil(concurrent_blocks).max(1);
        let tail_efficiency = if launch.grid_blocks == 0 {
            1.0
        } else {
            launch.grid_blocks as f64 / (waves * concurrent_blocks) as f64
        };

        Occupancy {
            blocks_per_sm,
            warps_per_sm,
            fraction,
            waves,
            tail_efficiency: tail_efficiency.min(1.0),
        }
    }

    /// A latency-hiding multiplier in `(0, 1]`: with plentiful resident warps
    /// the SM can cover instruction and memory latency (multiplier 1); with
    /// very few warps the pipeline exposes stalls. The 25%-occupancy knee
    /// follows the usual CUDA guidance that a handful of warps per scheduler
    /// suffices for arithmetic-bound kernels.
    pub fn latency_hiding_factor(&self) -> f64 {
        let knee = 0.25;
        if self.fraction >= knee {
            1.0
        } else if self.fraction <= 0.0 {
            0.1
        } else {
            0.1 + 0.9 * (self.fraction / knee)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceSpec {
        DeviceSpec::rtx4070_super()
    }

    #[test]
    fn occupancy_limited_by_shared_memory() {
        let launch = LaunchConfig {
            grid_blocks: 1000,
            block_threads: 128,
            regs_per_thread: 64,
            shared_bytes_per_block: 48 * 1024,
        };
        let occ = Occupancy::compute(&dev(), &launch);
        // 100 KiB of shared memory fits two 48 KiB blocks.
        assert_eq!(occ.blocks_per_sm, 2);
        assert_eq!(occ.warps_per_sm, 8);
        assert!(occ.fraction > 0.15 && occ.fraction < 0.2);
    }

    #[test]
    fn occupancy_limited_by_registers() {
        let launch = LaunchConfig {
            grid_blocks: 1000,
            block_threads: 256,
            regs_per_thread: 255,
            shared_bytes_per_block: 1024,
        };
        let occ = Occupancy::compute(&dev(), &launch);
        // 255 regs x 256 threads = 65280 regs, only one block fits.
        assert_eq!(occ.blocks_per_sm, 1);
    }

    #[test]
    fn occupancy_limited_by_threads() {
        let launch = LaunchConfig {
            grid_blocks: 10,
            block_threads: 1024,
            regs_per_thread: 32,
            shared_bytes_per_block: 0,
        };
        let occ = Occupancy::compute(&dev(), &launch);
        // 1536 threads/SM allows only one 1024-thread block.
        assert_eq!(occ.blocks_per_sm, 1);
        assert_eq!(occ.warps_per_sm, 32);
    }

    #[test]
    fn wave_quantisation_and_tail() {
        let launch = LaunchConfig {
            grid_blocks: 57, // one more than the SM count with 1 block/SM
            block_threads: 1024,
            regs_per_thread: 64,
            shared_bytes_per_block: 90 * 1024,
        };
        let occ = Occupancy::compute(&dev(), &launch);
        assert_eq!(occ.blocks_per_sm, 1);
        assert_eq!(occ.waves, 2);
        assert!(occ.tail_efficiency < 0.55);

        let launch_full = LaunchConfig {
            grid_blocks: 112,
            ..launch
        };
        let occ_full = Occupancy::compute(&dev(), &launch_full);
        assert_eq!(occ_full.waves, 2);
        assert!((occ_full.tail_efficiency - 1.0).abs() < 1e-9);
    }

    #[test]
    fn latency_hiding_saturates_above_knee() {
        let high = Occupancy {
            blocks_per_sm: 8,
            warps_per_sm: 32,
            fraction: 0.67,
            waves: 1,
            tail_efficiency: 1.0,
        };
        assert_eq!(high.latency_hiding_factor(), 1.0);
        let low = Occupancy {
            blocks_per_sm: 1,
            warps_per_sm: 2,
            fraction: 0.04,
            waves: 1,
            tail_efficiency: 1.0,
        };
        assert!(low.latency_hiding_factor() < 0.5);
        assert!(low.latency_hiding_factor() > 0.0);
    }

    #[test]
    fn bigger_grids_never_reduce_tail_efficiency_to_zero() {
        for blocks in [1usize, 3, 57, 113, 1000, 4096] {
            let launch = LaunchConfig {
                grid_blocks: blocks,
                block_threads: 256,
                regs_per_thread: 64,
                shared_bytes_per_block: 32 * 1024,
            };
            let occ = Occupancy::compute(&dev(), &launch);
            assert!(occ.tail_efficiency > 0.0 && occ.tail_efficiency <= 1.0);
            assert!(occ.waves >= 1);
        }
    }
}
