//! Memory-hierarchy traffic modelling: global-memory coalescing, L2 reuse
//! and shared-memory bank behaviour.
//!
//! The quantities computed here are the ones the paper's arguments are built
//! on: I/O amplification when a VENOM-style kernel must load full input tiles
//! although only a few rows survive (§3.3, Figure 6 ➋/➌), uncoalesced access
//! when the surviving data is scattered (Figure 6 ➍), and the L2 hit-rate
//! effects behind the 4096-size throughput dip (§6.1.2).

/// Size of one global-memory transaction in bytes (a full cache sector burst).
pub const GMEM_TRANSACTION_BYTES: usize = 128;

/// How the addresses of a warp-level global access relate to each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Threads access consecutive addresses — one transaction per 128 bytes.
    Coalesced,
    /// Threads access addresses with a fixed stride of `stride_bytes`.
    Strided {
        /// Distance between consecutive threads' addresses in bytes.
        stride_bytes: usize,
    },
    /// Threads access unrelated addresses (gather) — one transaction each.
    Random,
}

impl AccessPattern {
    /// The coalescing efficiency of this pattern: the fraction of each
    /// transferred transaction that carries useful data, in `(0, 1]`.
    pub fn efficiency(&self, element_bytes: usize) -> f64 {
        match self {
            AccessPattern::Coalesced => 1.0,
            AccessPattern::Strided { stride_bytes } => {
                if *stride_bytes <= element_bytes {
                    1.0
                } else {
                    (element_bytes as f64 / *stride_bytes as f64)
                        .max(element_bytes as f64 / GMEM_TRANSACTION_BYTES as f64)
                }
            }
            AccessPattern::Random => element_bytes as f64 / GMEM_TRANSACTION_BYTES as f64,
        }
    }
}

/// Aggregate data-movement record of one kernel execution, at every level of
/// the hierarchy. Produced by the simulated kernels, consumed by the cost
/// model and reported in [`crate::stats::KernelStats`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Traffic {
    /// Useful bytes read from global memory (DRAM side, after L2 misses).
    pub gmem_read_bytes: f64,
    /// Useful bytes written to global memory.
    pub gmem_write_bytes: f64,
    /// Bytes served from L2 (reuse across thread blocks).
    pub l2_read_bytes: f64,
    /// Bytes staged through shared memory.
    pub smem_bytes: f64,
    /// Average coalescing efficiency of the global accesses, in `(0, 1]`.
    pub coalescing_efficiency: f64,
    /// Average number of serialised shared-memory bank passes (1 = ideal).
    pub smem_bank_passes: f64,
}

impl Traffic {
    /// A traffic record with ideal efficiency and no bytes moved.
    pub fn ideal() -> Self {
        Self {
            coalescing_efficiency: 1.0,
            smem_bank_passes: 1.0,
            ..Default::default()
        }
    }

    /// Total DRAM bytes (reads + writes).
    pub fn dram_bytes(&self) -> f64 {
        self.gmem_read_bytes + self.gmem_write_bytes
    }

    /// Effective DRAM bytes after dividing by coalescing efficiency (what the
    /// memory controller actually transfers).
    pub fn effective_dram_bytes(&self) -> f64 {
        let eff = if self.coalescing_efficiency > 0.0 {
            self.coalescing_efficiency
        } else {
            1.0
        };
        self.dram_bytes() / eff
    }
}

/// Estimate the L2 hit fraction of a tiled GEMM-like kernel: thread blocks
/// along the same output row re-read the same `A` tile and blocks along the
/// same output column re-read the same `B` tile; those re-reads hit in L2 as
/// long as the working set (one row of `A` tiles + one column of `B` tiles)
/// fits in the cache.
pub fn l2_hit_fraction(working_set_bytes: f64, l2_bytes: usize, reuse_factor: f64) -> f64 {
    if working_set_bytes <= 0.0 || reuse_factor <= 1.0 {
        return 0.0;
    }
    // Fraction of the working set that stays resident.
    let resident = (l2_bytes as f64 / working_set_bytes).min(1.0);
    // Of `reuse_factor` total touches, the first is a compulsory miss; the
    // remaining hits are scaled by how much of the set is resident.
    let hits = (reuse_factor - 1.0) * resident;
    (hits / reuse_factor).clamp(0.0, 0.99)
}

/// L2 hit fraction of a tiled GEMM whose thread blocks are scheduled in
/// waves of `concurrent_blocks` adjacent output tiles.
///
/// Within one wave the blocks form a roughly square region of the output, so
/// each `A` row panel and `B` column panel loaded from DRAM is reused by
/// about `sqrt(concurrent_blocks)` blocks — provided the wave's working set
/// (those panels) fits in L2. This captures the inter-block reuse that makes
/// vendor GEMMs DRAM-efficient, and its breakdown when the panels outgrow the
/// cache (the large-`k` / small-L2 regimes of §6.6).
pub fn tiled_gemm_l2_hit(
    k: usize,
    tile_m: usize,
    tile_n: usize,
    concurrent_blocks: usize,
    l2_bytes: usize,
) -> f64 {
    if concurrent_blocks <= 1 {
        return 0.0;
    }
    let side = (concurrent_blocks as f64).sqrt().max(1.0);
    let wave_a = side * tile_m as f64 * k as f64 * 2.0;
    let wave_b = side * tile_n as f64 * k as f64 * 2.0;
    let wave_set = wave_a + wave_b;
    let resident = (l2_bytes as f64 / wave_set.max(1.0)).min(1.0);
    ((side - 1.0) / side * resident).clamp(0.0, 0.98)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesced_access_is_fully_efficient() {
        let p = AccessPattern::Coalesced;
        assert_eq!(p.efficiency(2), 1.0);
    }

    #[test]
    fn strided_access_degrades_with_stride() {
        let small = AccessPattern::Strided { stride_bytes: 4 };
        let large = AccessPattern::Strided { stride_bytes: 256 };
        assert!(small.efficiency(4) > large.efficiency(4));
        assert!(large.efficiency(4) >= 4.0 / 128.0);
        // A stride no larger than the element keeps full efficiency.
        assert_eq!(
            AccessPattern::Strided { stride_bytes: 2 }.efficiency(2),
            1.0
        );
    }

    #[test]
    fn random_access_wastes_most_of_each_transaction() {
        let p = AccessPattern::Random;
        assert!((p.efficiency(2) - 2.0 / 128.0).abs() < 1e-12);
    }

    #[test]
    fn ideal_traffic_is_neutral() {
        let t = Traffic::ideal();
        assert_eq!(t.dram_bytes(), 0.0);
        assert_eq!(t.coalescing_efficiency, 1.0);
        assert_eq!(t.smem_bank_passes, 1.0);
        // Effective DRAM traffic exceeds useful traffic when uncoalesced.
        let uncoalesced = Traffic {
            gmem_read_bytes: 1000.0,
            coalescing_efficiency: 0.5,
            ..t
        };
        assert!(uncoalesced.effective_dram_bytes() > uncoalesced.dram_bytes());
    }

    #[test]
    fn l2_hit_fraction_behaviour() {
        let l2 = 48 * 1024 * 1024;
        // Small working set with heavy reuse: high hit rate.
        let high = l2_hit_fraction(1e6, l2, 16.0);
        assert!(high > 0.8);
        // Working set much larger than L2: low hit rate.
        let low = l2_hit_fraction(1e9, l2, 16.0);
        assert!(low < 0.1);
        // No reuse: nothing can hit.
        assert_eq!(l2_hit_fraction(1e6, l2, 1.0), 0.0);
        assert_eq!(l2_hit_fraction(0.0, l2, 8.0), 0.0);
        // Monotone in reuse.
        assert!(l2_hit_fraction(1e7, l2, 32.0) >= l2_hit_fraction(1e7, l2, 4.0));
    }

    #[test]
    fn tiled_gemm_l2_hit_behaviour() {
        let l2 = 48 * 1024 * 1024;
        // A healthy wave of 112 blocks on moderate k: most panel reuse hits.
        let good = tiled_gemm_l2_hit(8192, 128, 64, 112, l2);
        assert!(good > 0.8, "good {good}");
        // A single concurrent block cannot reuse anything across blocks.
        assert_eq!(tiled_gemm_l2_hit(8192, 128, 64, 1, l2), 0.0);
        // Gigantic k blows the wave working set out of L2.
        let huge_k = tiled_gemm_l2_hit(4_000_000, 128, 64, 112, l2);
        assert!(huge_k < good);
        // Smaller L2 (3090-like) yields a lower hit rate for the same wave.
        let small_l2 = tiled_gemm_l2_hit(8192, 128, 64, 112, 6 * 1024 * 1024);
        assert!(small_l2 < good);
    }
}
