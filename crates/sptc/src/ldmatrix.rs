//! Model of the `ldmatrix` collective shared-memory→register load and of the
//! shared-memory bank behaviour that motivates the permuted (swizzled) layout
//! of §4.4.
//!
//! `ldmatrix` lets the 32 threads of a warp cooperatively load one or more
//! 8x8 sub-matrices of 16-bit elements: each thread supplies the address of
//! one 8-element row and receives a packed register. Performance hinges on
//! how those 32 row addresses map onto the 32 shared-memory banks — a naive
//! row-major tile layout makes rows that sit in the same bank collide, while
//! the XOR-swizzled layout used by the Samoyeds kernel spreads them evenly.

/// Number of shared-memory banks on all modeled GPUs.
pub const SHARED_BANKS: usize = 32;
/// Bank width in bytes.
pub const BANK_BYTES: usize = 4;
/// Threads per warp.
pub const WARP_SIZE: usize = 32;

/// How a tile is laid out in shared memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharedLayout {
    /// Plain row-major placement.
    Naive,
    /// XOR-swizzled placement (the "permutation" of §4.4) that removes bank
    /// conflicts for `ldmatrix`-style accesses.
    Swizzled,
}

/// Compute the byte offset of element `(row, col)` of a `rows x row_bytes`
/// tile under the given layout. `element_bytes` is the size of one element.
pub fn shared_offset(
    layout: SharedLayout,
    row: usize,
    col: usize,
    row_stride_bytes: usize,
    element_bytes: usize,
) -> usize {
    let linear = row * row_stride_bytes + col * element_bytes;
    match layout {
        SharedLayout::Naive => linear,
        SharedLayout::Swizzled => {
            // Swizzle at 16-byte (ldmatrix row fragment) granularity: XOR the
            // 16-byte chunk index within the row with the row index. This is
            // the standard cp.async/ldmatrix swizzle pattern.
            let chunk = 16usize;
            let row_chunks = (row_stride_bytes / chunk).max(1);
            let chunk_in_row = (col * element_bytes) / chunk;
            let offset_in_chunk = (col * element_bytes) % chunk;
            let swizzled_chunk = (chunk_in_row ^ row) % row_chunks;
            row * row_stride_bytes + swizzled_chunk * chunk + offset_in_chunk
        }
    }
}

/// The bank a byte offset falls into.
pub fn bank_of(offset_bytes: usize) -> usize {
    (offset_bytes / BANK_BYTES) % SHARED_BANKS
}

/// Simulate one `ldmatrix.x4` issue: the 32 threads of a warp each load an
/// 8-element row of 16-bit values (16 bytes) starting at the given offsets.
/// Returns the number of shared-memory passes (1 = conflict-free; `p` means
/// the hardware needed `p` serialised passes because addresses collided on
/// banks).
pub fn ldmatrix_passes(row_offsets: &[usize]) -> usize {
    // Each 16-byte row spans 4 consecutive banks. Count, per pass-group of 8
    // threads (a phase handles 8 addresses on Ampere/Ada), the worst bank
    // multiplicity.
    let mut worst = 1usize;
    for phase in row_offsets.chunks(8) {
        let mut bank_hits = [0usize; SHARED_BANKS];
        for &off in phase {
            // The 4 banks this 16-byte fragment touches.
            for i in 0..4 {
                bank_hits[bank_of(off + i * BANK_BYTES)] += 1;
            }
        }
        let phase_worst = bank_hits.iter().copied().max().unwrap_or(1).max(1);
        worst = worst.max(phase_worst);
    }
    worst
}

/// Number of serialised passes for loading a `tile_rows x tile_cols` tile of
/// 2-byte elements with `ldmatrix`, under the given shared-memory layout.
///
/// This is the quantity the kernel cost model uses to credit the swizzled
/// layout: the swizzled layout yields 1 pass, the naive layout typically
/// yields several when the row stride is a multiple of the bank period.
pub fn tile_ldmatrix_passes(
    layout: SharedLayout,
    tile_rows: usize,
    row_stride_bytes: usize,
) -> usize {
    // One ldmatrix row fragment per tile row; warp loads 32 fragments at a
    // time (or fewer for small tiles).
    let rows = tile_rows.min(WARP_SIZE);
    let offsets: Vec<usize> = (0..rows)
        .map(|r| shared_offset(layout, r, 0, row_stride_bytes, 2))
        .collect();
    ldmatrix_passes(&offsets)
}

/// A summary of shared-memory efficiency for one operand staging choice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagingReport {
    /// Serialised bank passes per warp-level load (1 is ideal).
    pub passes: usize,
    /// Bytes staged per warp-level load.
    pub bytes: usize,
}

impl StagingReport {
    /// Effective bandwidth multiplier relative to the conflict-free case.
    pub fn efficiency(&self) -> f64 {
        1.0 / self.passes as f64
    }
}

/// Report for staging a `rows x cols` bf16 tile through shared memory with
/// the given layout.
pub fn staging_report(layout: SharedLayout, rows: usize, cols: usize) -> StagingReport {
    let row_stride = cols * 2;
    StagingReport {
        passes: tile_ldmatrix_passes(layout, rows, row_stride),
        bytes: rows * cols * 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_mapping_wraps_every_128_bytes() {
        assert_eq!(bank_of(0), 0);
        assert_eq!(bank_of(4), 1);
        assert_eq!(bank_of(124), 31);
        assert_eq!(bank_of(128), 0);
    }

    #[test]
    fn naive_layout_with_power_of_two_stride_conflicts() {
        // 64 x 64 bf16 tile: stride 128 bytes → every row starts in bank 0.
        let naive = tile_ldmatrix_passes(SharedLayout::Naive, 32, 128);
        assert!(naive >= 4, "expected heavy conflicts, got {naive} passes");
        let swizzled = tile_ldmatrix_passes(SharedLayout::Swizzled, 32, 128);
        assert!(
            swizzled <= 2,
            "swizzled layout should be nearly conflict-free, got {swizzled}"
        );
        assert!(swizzled < naive);
    }

    #[test]
    fn swizzle_is_a_permutation_within_each_row() {
        // All offsets of one row must remain distinct and within the row.
        let stride = 128;
        for row in 0..16 {
            #[allow(
                clippy::disallowed_types,
                reason = "membership-only set in a test; its iteration order is never observed"
            )]
            let mut seen = std::collections::HashSet::new();
            for col in 0..64 {
                let off = shared_offset(SharedLayout::Swizzled, row, col, stride, 2);
                assert!(off >= row * stride && off < (row + 1) * stride);
                assert!(seen.insert(off), "collision at row {row} col {col}");
            }
        }
    }

    #[test]
    fn naive_layout_is_linear() {
        assert_eq!(shared_offset(SharedLayout::Naive, 2, 3, 64, 2), 2 * 64 + 6);
    }

    #[test]
    fn staging_report_efficiency() {
        let naive = staging_report(SharedLayout::Naive, 32, 64);
        let swz = staging_report(SharedLayout::Swizzled, 32, 64);
        assert_eq!(naive.bytes, swz.bytes);
        assert!(swz.efficiency() > naive.efficiency());
        assert!(swz.efficiency() <= 1.0);
    }

    #[test]
    fn single_phase_no_conflict_case() {
        // 8 rows with 16-byte strides across different banks: 1 pass.
        let offsets: Vec<usize> = (0..8).map(|r| r * 16).collect();
        assert_eq!(ldmatrix_passes(&offsets), 1);
    }
}
