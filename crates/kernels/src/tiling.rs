//! Hierarchical tiling configuration (§4.2, Figure 8).
//!
//! A thread block computes an `mb x nb` tile of `C`, iterating over the
//! reduction dimension in steps of `kb`; inside the block each warp owns an
//! `mw x nw` sub-tile; inside the warp the SpTC instruction computes
//! `16 x 8 x 32` fragments. The configuration also carries the software
//! pipeline depth (`stages`) used for the `cp.async` fetch/compute overlap.

use samoyeds_gpu_sim::{DeviceSpec, LaunchConfig};
use samoyeds_sparse::{Result, SparseError};

/// Fragment shape of the sparse tensor instruction (`mma.sp.m16n8k32`).
pub const FRAG_M: usize = 16;
/// Fragment N dimension.
pub const FRAG_N: usize = 8;
/// Fragment logical K dimension.
pub const FRAG_K: usize = 32;

/// A three-level tiling configuration plus pipeline depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TilingConfig {
    /// Thread-block tile rows of `C`.
    pub mb: usize,
    /// Thread-block tile columns of `C`.
    pub nb: usize,
    /// Reduction-step depth per iteration.
    pub kb: usize,
    /// Warp tile rows.
    pub mw: usize,
    /// Warp tile columns.
    pub nw: usize,
    /// Software pipeline stages (`num_pipe` in Algorithm 1).
    pub stages: usize,
}

impl TilingConfig {
    /// The default configuration tuned for the RTX 4070 Super (the paper's
    /// development platform): 128x64 block tiles, 32-deep reduction steps,
    /// 64x32 warp tiles, 3-stage pipeline.
    pub const DEFAULT_4070S: TilingConfig = TilingConfig {
        mb: 128,
        nb: 64,
        kb: 32,
        mw: 64,
        nw: 32,
        stages: 3,
    };

    /// The large-tile configuration vendor libraries (cuBLAS / cuSPARSELt)
    /// reach with their hand-tuned register blocking.
    pub const VENDOR_LARGE: TilingConfig = TilingConfig {
        mb: 256,
        nb: 128,
        kb: 32,
        mw: 64,
        nw: 64,
        stages: 3,
    };

    /// A smaller-tile configuration (the A100 adaptation of Table 6: more
    /// SMs + smaller L2 favour smaller tiles).
    pub const SMALL_TILE: TilingConfig = TilingConfig {
        mb: 64,
        nb: 64,
        kb: 32,
        mw: 32,
        nw: 32,
        stages: 3,
    };

    /// A deeper-pipeline configuration (the RTX 3090 adaptation of Table 6:
    /// slower tensor cores + higher bandwidth favour more stages).
    pub const DEEP_PIPELINE: TilingConfig = TilingConfig {
        mb: 128,
        nb: 64,
        kb: 32,
        mw: 64,
        nw: 32,
        stages: 4,
    };

    /// Validate internal consistency and compatibility with the SpTC
    /// fragment shape and the Samoyeds Sub-Row length `v` (the constraint
    /// `kb <= V` of §4.2).
    pub fn validate(&self, sub_row_v: Option<usize>) -> Result<()> {
        if self.mb == 0 || self.nb == 0 || self.kb == 0 || self.mw == 0 || self.nw == 0 {
            return Err(SparseError::config("tiling dimensions must be non-zero"));
        }
        if !self.mb.is_multiple_of(self.mw) || !self.nb.is_multiple_of(self.nw) {
            return Err(SparseError::config(format!(
                "block tile {}x{} not divisible by warp tile {}x{}",
                self.mb, self.nb, self.mw, self.nw
            )));
        }
        if !self.mw.is_multiple_of(FRAG_M) || !self.nw.is_multiple_of(FRAG_N) {
            return Err(SparseError::config(format!(
                "warp tile {}x{} not divisible by the {}x{} fragment",
                self.mw, self.nw, FRAG_M, FRAG_N
            )));
        }
        if !self.kb.is_multiple_of(FRAG_K) {
            return Err(SparseError::config(format!(
                "kb={} must be a multiple of the fragment depth {}",
                self.kb, FRAG_K
            )));
        }
        if self.stages == 0 || self.stages > 8 {
            return Err(SparseError::config(format!(
                "pipeline depth {} out of the supported 1..=8 range",
                self.stages
            )));
        }
        if let Some(v) = sub_row_v {
            if self.kb > v && !self.kb.is_multiple_of(v) {
                return Err(SparseError::config(format!(
                    "kb={} must divide into Sub-Row length V={v} windows",
                    self.kb
                )));
            }
            if v % self.kb != 0 && !self.kb.is_multiple_of(v) {
                return Err(SparseError::config(format!(
                    "kb={} and V={v} must be multiples of one another",
                    self.kb
                )));
            }
        }
        Ok(())
    }

    /// Number of warps per thread block under this tiling.
    pub fn warps_per_block(&self) -> usize {
        (self.mb / self.mw) * (self.nb / self.nw)
    }

    /// Threads per block.
    pub fn block_threads(&self) -> usize {
        self.warps_per_block() * 32
    }

    /// Shared-memory bytes per block for bf16 operands: `stages` buffers of
    /// an `mb x kb` A tile (already 2:4-compressed to half width when
    /// `compressed_a` is set) and a `kb x nb` B tile.
    pub fn shared_bytes(&self, compressed_a: bool) -> usize {
        let a_cols = if compressed_a { self.kb / 2 } else { self.kb };
        let a_tile = self.mb * a_cols * 2;
        let b_tile = self.kb * self.nb * 2;
        self.stages * (a_tile + b_tile)
    }

    /// Registers per thread: accumulators (`mw x nw` f32 spread over the 32
    /// threads of the warp) plus operand fragments and the intermediate
    /// registers of the data-stationary optimisation.
    pub fn regs_per_thread(&self, with_intermediate: bool) -> usize {
        let acc = self.mw * self.nw / 32; // f32 accumulators per thread
        let operands = 32; // A/B fragments + metadata + indices
        let extra = if with_intermediate { acc / 2 } else { 0 };
        (acc + operands + extra).min(255)
    }

    /// The launch configuration for a problem of `m x n` outputs.
    pub fn launch_for(&self, m: usize, n: usize, compressed_a: bool) -> LaunchConfig {
        let grid_blocks = m.div_ceil(self.mb) * n.div_ceil(self.nb);
        LaunchConfig {
            grid_blocks,
            block_threads: self.block_threads(),
            regs_per_thread: self.regs_per_thread(true),
            shared_bytes_per_block: self.shared_bytes(compressed_a),
        }
    }

    /// Whether this configuration's shared-memory demand fits the device.
    pub fn fits(&self, device: &DeviceSpec, compressed_a: bool) -> bool {
        self.shared_bytes(compressed_a) <= device.max_shared_per_block
    }

    /// Shrink the tile (halving `nb`, then `mb`) until it fits the device.
    pub fn shrink_to_fit(mut self, device: &DeviceSpec, compressed_a: bool) -> TilingConfig {
        while !self.fits(device, compressed_a) && (self.mb > FRAG_M || self.nb > FRAG_N) {
            if self.nb > FRAG_N && self.nb >= self.mb {
                self.nb /= 2;
                self.nw = self.nw.min(self.nb).max(FRAG_N);
            } else if self.mb > FRAG_M {
                self.mb /= 2;
                self.mw = self.mw.min(self.mb).max(FRAG_M);
            }
        }
        self
    }
}

impl Default for TilingConfig {
    fn default() -> Self {
        Self::DEFAULT_4070S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        TilingConfig::DEFAULT_4070S.validate(Some(32)).unwrap();
        TilingConfig::SMALL_TILE.validate(Some(32)).unwrap();
        TilingConfig::DEEP_PIPELINE.validate(Some(32)).unwrap();
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = TilingConfig::DEFAULT_4070S;
        c.mw = 48; // not a multiple of 16... it is; but mb=128 % 48 != 0
        assert!(c.validate(None).is_err());
        let mut c = TilingConfig::DEFAULT_4070S;
        c.kb = 24;
        assert!(c.validate(None).is_err());
        let mut c = TilingConfig::DEFAULT_4070S;
        c.stages = 0;
        assert!(c.validate(None).is_err());
        let mut c = TilingConfig::DEFAULT_4070S;
        c.nw = 0;
        assert!(c.validate(None).is_err());
    }

    #[test]
    fn warps_and_threads() {
        let c = TilingConfig::DEFAULT_4070S;
        assert_eq!(c.warps_per_block(), 4);
        assert_eq!(c.block_threads(), 128);
    }

    #[test]
    fn shared_bytes_shrink_with_compression() {
        let c = TilingConfig::DEFAULT_4070S;
        assert!(c.shared_bytes(true) < c.shared_bytes(false));
        // 3 stages x (128x16x2 + 32x64x2) = 3 x (4096 + 4096) = 24576.
        assert_eq!(c.shared_bytes(true), 24576);
    }

    #[test]
    fn launch_covers_the_whole_output() {
        let c = TilingConfig::DEFAULT_4070S;
        let launch = c.launch_for(1000, 1000, true);
        assert_eq!(launch.grid_blocks, 8 * 16);
        assert_eq!(launch.block_threads, 128);
        assert!(launch.shared_bytes_per_block > 0);
    }

    #[test]
    fn shrink_to_fit_respects_device_limit() {
        let device = DeviceSpec::rtx4070_super();
        let huge = TilingConfig {
            mb: 512,
            nb: 512,
            kb: 64,
            mw: 64,
            nw: 64,
            stages: 4,
        };
        assert!(!huge.fits(&device, false));
        let fitted = huge.shrink_to_fit(&device, false);
        assert!(fitted.fits(&device, false));
        assert!(fitted.mb >= FRAG_M && fitted.nb >= FRAG_N);
        // A config that already fits is unchanged.
        let ok = TilingConfig::DEFAULT_4070S;
        assert_eq!(ok.shrink_to_fit(&device, true), ok);
    }

    #[test]
    fn sub_row_constraint_on_kb() {
        let mut c = TilingConfig::DEFAULT_4070S;
        c.kb = 32;
        assert!(c.validate(Some(32)).is_ok());
        assert!(c.validate(Some(64)).is_ok());
        c.kb = 96;
        assert!(c.validate(Some(64)).is_err());
    }

    #[test]
    fn regs_budget_grows_with_intermediate_registers() {
        let c = TilingConfig::DEFAULT_4070S;
        assert!(c.regs_per_thread(true) > c.regs_per_thread(false));
        assert!(c.regs_per_thread(true) <= 255);
    }
}
