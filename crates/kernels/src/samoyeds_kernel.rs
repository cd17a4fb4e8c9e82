//! The Samoyeds dual-side sparse-sparse matrix-multiplication kernel
//! (Algorithm 1), with every optimisation of §4 individually toggleable so
//! that the breakdown (Figure 17) and ablation studies can be reproduced.
//!
//! The functional path executes the kernel the way the GPU would: block tiles
//! over the compressed weight, `mma.sp.m16n8k32` fragments inside, and the
//! data-stationary scatter of partial accumulators into the correct output
//! rows at every Sub-Row boundary (Figure 9). The performance path derives a
//! [`KernelProfile`] from the problem shape and the enabled optimisations.

use crate::problem::GemmProblem;
use crate::tiling::TilingConfig;
use samoyeds_gpu_sim::memory::tiled_gemm_l2_hit;
use samoyeds_gpu_sim::{CostModel, DeviceSpec, KernelProfile, KernelStats, Occupancy};
use samoyeds_sparse::{DenseMatrix, Result, SamoyedsWeight, SelInput, SparseError, SparseFormat};
use samoyeds_sptc::ldmatrix::{staging_report, SharedLayout};
use samoyeds_sptc::mma::{mma_sp_m16n8k32, MmaTile, SparseATile, MMA_K_SPARSE, MMA_M, MMA_N};

/// Which of the §4 optimisations are enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamoyedsOptions {
    /// Consume the routing selection (`SEL`) directly instead of a gathered
    /// input copy (§3.1 / §4.1 input side). Off = the "+W" configuration of
    /// the breakdown.
    pub input_sparsity: bool,
    /// Compressed output layout and in-kernel transposition (§4.5).
    pub optimized_layout: bool,
    /// Intermediate-register accumulation with the Sub-Row shuffle (§4.3);
    /// off = accumulators spill to local memory when Sub-Rows change.
    pub data_stationary: bool,
    /// Reorganised 2-bit metadata packing (§4.4, Figure 10): element
    /// `[row, col]` of a 16x16 metadata tile is stored at
    /// `[row % 8 * 2 + col / 8, col % 8 + row / 8 * 8]`, so each thread's
    /// register is one aligned 32-bit load. Priced as a quarter of the
    /// naive layout's metadata bytes, loaded fully coalesced.
    pub metadata_packing: bool,
    /// Swizzled shared-memory staging to avoid bank conflicts (§4.4).
    pub swizzled_smem: bool,
}

impl SamoyedsOptions {
    /// Everything on — the full Samoyeds kernel.
    pub const FULL: SamoyedsOptions = SamoyedsOptions {
        input_sparsity: true,
        optimized_layout: true,
        data_stationary: true,
        metadata_packing: true,
        swizzled_smem: true,
    };

    /// Weight sparsity only (the `Samoyeds+W` breakdown point): sparse-dense
    /// kernel inside the conventional permute/un-permute data flow.
    pub const WEIGHT_ONLY: SamoyedsOptions = SamoyedsOptions {
        input_sparsity: false,
        optimized_layout: false,
        data_stationary: false,
        metadata_packing: true,
        swizzled_smem: true,
    };

    /// Weight + input sparsity (`Samoyeds+WI`).
    pub const WEIGHT_INPUT: SamoyedsOptions = SamoyedsOptions {
        input_sparsity: true,
        optimized_layout: false,
        data_stationary: false,
        metadata_packing: true,
        swizzled_smem: true,
    };

    /// Weight + input sparsity + layout (`Samoyeds+WIT`).
    pub const WEIGHT_INPUT_LAYOUT: SamoyedsOptions = SamoyedsOptions {
        input_sparsity: true,
        optimized_layout: true,
        data_stationary: false,
        metadata_packing: true,
        swizzled_smem: true,
    };
}

impl Default for SamoyedsOptions {
    fn default() -> Self {
        Self::FULL
    }
}

/// The Samoyeds sparse-sparse matrix-multiplication kernel.
#[derive(Debug, Clone)]
pub struct SamoyedsKernel {
    cost: CostModel,
    tiling: TilingConfig,
    options: SamoyedsOptions,
    /// Shared-memory bank passes of the B-tile staging, fixed by the tiling
    /// and the staging layout.
    smem_bank_passes: f64,
}

impl SamoyedsKernel {
    /// Create the full kernel for a device with the default tiling.
    pub fn new(device: DeviceSpec) -> Self {
        Self::with_options(device, SamoyedsOptions::FULL)
    }

    /// Create the kernel with explicit optimisation toggles.
    pub fn with_options(device: DeviceSpec, options: SamoyedsOptions) -> Self {
        let tiling = TilingConfig::DEFAULT_4070S.shrink_to_fit(&device, true);
        Self {
            cost: CostModel::new(device),
            tiling,
            options,
            smem_bank_passes: Self::staging_passes(options, tiling),
        }
    }

    /// Override the tiling configuration (used by the autotuner and the
    /// portability experiments).
    pub fn with_tiling(mut self, tiling: TilingConfig) -> Self {
        self.tiling = tiling;
        self.smem_bank_passes = Self::staging_passes(self.options, tiling);
        self
    }

    fn staging_passes(options: SamoyedsOptions, tiling: TilingConfig) -> f64 {
        let layout = if options.swizzled_smem {
            SharedLayout::Swizzled
        } else {
            SharedLayout::Naive
        };
        staging_report(layout, tiling.kb, tiling.nb).passes as f64
    }

    /// The device this kernel targets.
    pub fn device(&self) -> &DeviceSpec {
        self.cost.device()
    }

    /// Weight keep-fraction for a problem (N/M of the Samoyeds config, 1.0
    /// for non-Samoyeds sparsity kinds).
    fn weight_keep(problem: &GemmProblem) -> f64 {
        match problem.weight_sparsity {
            crate::problem::SparsityKind::Samoyeds(cfg) => cfg.n as f64 / cfg.m as f64,
            other => other.keep_fraction() * 2.0, // undo the 2:4 half, handled by mma.sp
        }
        .clamp(0.05, 1.0)
    }

    /// Build the performance profile for a problem.
    pub fn profile(&self, problem: &GemmProblem) -> KernelProfile {
        let (m, k) = (problem.m, problem.k);
        let cols = if self.options.input_sparsity {
            problem.selected_n
        } else {
            problem.n
        };
        let keep = Self::weight_keep(problem);
        let t = self.tiling;
        let launch = t.launch_for(m, cols, true);

        let mut p = KernelProfile::empty("samoyeds_ssmm", launch);
        // The surviving Sub-Rows are retired through mma.sp; the pruned ones
        // are skipped entirely.
        p.flops_tensor_sparse = 2.0 * m as f64 * k as f64 * cols as f64 * keep;

        let k_steps = (k as f64 * keep / t.kb as f64).ceil().max(1.0);
        // Compressed A tile: half the values (2:4) + 2-bit metadata + the
        // Sub-Row indices (1 byte per V-wide window per row).
        let sub_row_v = match problem.weight_sparsity {
            crate::problem::SparsityKind::Samoyeds(cfg) => cfg.v,
            _ => 32,
        } as f64;
        let meta_factor = if self.options.metadata_packing {
            0.125
        } else {
            0.5
        };
        let a_tile = (t.mb * t.kb) as f64 * (2.0 * 0.5 + meta_factor)
            + t.mb as f64 * (t.kb as f64 / sub_row_v);
        let b_tile = (t.kb * t.nb) as f64 * 2.0;
        let total_reads = launch.grid_blocks as f64 * k_steps * (a_tile + b_tile);

        p.traffic.gmem_read_bytes = total_reads;
        // Compressed output layout writes only the selected columns; without
        // it the kernel writes the full logical width and pays the explicit
        // input/output transposition passes of §4.5.
        p.traffic.gmem_write_bytes = (m * cols) as f64 * 2.0;
        if !self.options.optimized_layout {
            // Without the optimized layout the kernel pays the explicit
            // input and output transposition passes of §4.5 (reads + writes
            // of the operands outside the kernel).
            let transpose_extra = (k * cols) as f64 * 2.0 * 2.0 + (m * cols) as f64 * 2.0 * 2.0;
            p.traffic.gmem_read_bytes += transpose_extra * 0.5;
            p.traffic.gmem_write_bytes += transpose_extra * 0.5;
        }
        p.traffic.smem_bytes = total_reads;

        // Without the data-stationary registers the accumulators spill to
        // local memory at every Sub-Row boundary.
        if !self.options.data_stationary {
            // Each Sub-Row boundary forces the accumulators of the active
            // tiles to take a round trip through local memory; the L1/L2
            // capture most of it, so the exposed cost grows sub-linearly with
            // the number of boundaries.
            let boundaries = (k as f64 * keep / sub_row_v).ceil().max(1.0);
            let spill_round_trips = boundaries.sqrt().min(6.0);
            let spill_bytes = (m * cols) as f64 * 4.0 * 2.0 * spill_round_trips;
            p.traffic.gmem_read_bytes += spill_bytes * 0.5;
            p.traffic.gmem_write_bytes += spill_bytes * 0.5;
        }

        p.traffic.smem_bank_passes = self.smem_bank_passes;
        p.traffic.coalescing_efficiency = if self.options.metadata_packing {
            1.0
        } else {
            0.8
        };
        let device = self.device();
        let occ = Occupancy::compute(device, &launch);
        let concurrent = occ.blocks_per_sm * device.sm_count;
        // The reduction the wave actually walks is the compressed one.
        let effective_k = ((k as f64 * keep).ceil() as usize).max(1);
        p.l2_hit_fraction = tiled_gemm_l2_hit(effective_k, t.mb, t.nb, concurrent, device.l2_bytes);

        p.compute_efficiency = if self.options.data_stationary {
            0.8
        } else {
            0.62
        };
        p.pipeline_overlap = if device.has_async_copy {
            (0.7 + 0.08 * t.stages as f64).min(0.95)
        } else {
            0.4
        };
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

    /// Functionally execute `C = W * B[:, SEL]` (or `W * B` when input
    /// sparsity is disabled), fragment by fragment through `mma.sp`, and
    /// return the result with the predicted statistics.
    ///
    /// The fragment path requires the Sub-Row length `V` to be a multiple of
    /// the `mma.sp` logical depth (32); other configurations fall back to the
    /// reference compressed-format product (numerically identical).
    pub fn execute(
        &self,
        weight: &SamoyedsWeight,
        input: &SelInput,
    ) -> Result<(DenseMatrix, KernelStats)> {
        if weight.cols() != input.rows() {
            return Err(SparseError::shape(format!(
                "samoyeds kernel: weight {}x{} vs input rows {}",
                weight.rows(),
                weight.cols(),
                input.rows()
            )));
        }
        let b = if self.options.input_sparsity {
            input.gather()
        } else {
            input.matrix().clone()
        };
        let out = if weight.config().v.is_multiple_of(MMA_K_SPARSE) {
            self.execute_fragmentwise(weight, &b)?.0
        } else {
            weight.spmm(&b)?
        };
        let problem = GemmProblem::samoyeds(
            weight.rows(),
            weight.cols(),
            input.matrix().cols(),
            input.selected_cols(),
            weight.config(),
        );
        Ok((out, self.stats(&problem)))
    }

    /// The tile/fragment execution path of Algorithm 1. Returns the product
    /// and the number of `mma.sp.m16n8k32` issues it made.
    fn execute_fragmentwise(
        &self,
        weight: &SamoyedsWeight,
        b: &DenseMatrix,
    ) -> Result<(DenseMatrix, u64)> {
        let cfg = weight.config();
        let cols = b.cols();
        let comp_rows = weight.compressed_rows();
        let frags_per_window = cfg.v / MMA_K_SPARSE;
        let mut out = DenseMatrix::zeros(weight.rows(), cols);
        let mut issues = 0u64;

        for comp_r0 in (0..comp_rows).step_by(MMA_M) {
            for j0 in (0..cols).step_by(MMA_N) {
                // Walk the reduction dimension one Sub-Row window (V logical
                // columns) at a time; the partial accumulator is scattered to
                // the owning output rows at every window boundary — the
                // data-stationary shuffle of Figure 9.
                for cb in 0..weight.col_blocks() {
                    let mut c_frag = MmaTile::zeros(MMA_M, MMA_N);
                    for w in 0..frags_per_window {
                        let a = self.build_a_fragment(weight, comp_r0, cb, w)?;
                        let b_frag = MmaTile::from_matrix(
                            b,
                            cb * cfg.v + w * MMA_K_SPARSE,
                            j0,
                            MMA_K_SPARSE,
                            MMA_N,
                        );
                        mma_sp_m16n8k32(&a, &b_frag, &mut c_frag, false)?;
                        issues += 1;
                    }
                    // Scatter/accumulate into the original rows this window's
                    // Sub-Rows belong to.
                    for i in 0..MMA_M {
                        let comp_r = comp_r0 + i;
                        if comp_r >= comp_rows {
                            break;
                        }
                        let orig_r = weight.original_row(comp_r, cb);
                        for j in 0..MMA_N {
                            if j0 + j >= cols {
                                break;
                            }
                            let cur = out.get(orig_r, j0 + j);
                            out.set(orig_r, j0 + j, cur + c_frag.get(i, j));
                        }
                    }
                }
            }
        }
        Ok((out, issues))
    }

    /// Assemble the compressed `A` fragment for 16 compressed rows starting
    /// at `comp_r0`, column block `cb`, fragment window `w`.
    fn build_a_fragment(
        &self,
        weight: &SamoyedsWeight,
        comp_r0: usize,
        cb: usize,
        w: usize,
    ) -> Result<SparseATile> {
        let cfg = weight.config();
        let comp_rows = weight.compressed_rows();
        let half_k = MMA_K_SPARSE / 2; // 16 stored values per fragment row
        let start = (cb * cfg.v + w * MMA_K_SPARSE) / 2;
        let mut values = vec![0.0f32; MMA_M * half_k];
        let mut metadata = vec![0u8; MMA_M * half_k];
        for i in 0..MMA_M {
            let comp_r = comp_r0 + i;
            if comp_r < comp_rows {
                let vals = weight.data_row(comp_r);
                let meta = weight.metadata_row(comp_r);
                values[i * half_k..(i + 1) * half_k].copy_from_slice(&vals[start..start + half_k]);
                metadata[i * half_k..(i + 1) * half_k]
                    .copy_from_slice(&meta[start..start + half_k]);
            } else {
                // Zero padding must still satisfy the strictly-increasing
                // metadata constraint.
                for g in 0..half_k / 2 {
                    metadata[i * half_k + 2 * g] = 0;
                    metadata[i * half_k + 2 * g + 1] = 1;
                }
            }
        }
        SparseATile::new(values, metadata)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmm_venom::VenomSpmm;
    use samoyeds_sparse::samoyeds::SamoyedsConfig;
    use samoyeds_sparse::SelectionArray;

    fn make_weight(m: usize, k: usize, cfg: SamoyedsConfig, seed: u64) -> SamoyedsWeight {
        let dense = DenseMatrix::random(m, k, seed);
        SamoyedsWeight::prune_from_dense(&dense, cfg).unwrap()
    }

    #[test]
    fn fragmentwise_execution_matches_reference() {
        let cfg = SamoyedsConfig::N1_M2_V32;
        let weight = make_weight(64, 128, cfg, 1);
        let b = DenseMatrix::random(128, 40, 2);
        let sel = SelectionArray::new(40, (0..40).step_by(2).map(|x| x as u32).collect()).unwrap();
        let input = SelInput::new(b.clone(), sel.clone()).unwrap();
        let kernel = SamoyedsKernel::new(DeviceSpec::rtx4070_super());
        let (out, stats) = kernel.execute(&weight, &input).unwrap();

        let expected = weight
            .spmm(&b.select_columns(&sel.indices_usize()).unwrap())
            .unwrap();
        assert!(
            out.allclose(&expected, 1e-3, 1e-3),
            "max diff {}",
            out.max_abs_diff(&expected)
        );
        assert_eq!(out.cols(), 20);
        assert_eq!(stats.kernel, "samoyeds_ssmm");
    }

    #[test]
    fn v64_configuration_also_matches_reference() {
        let cfg = SamoyedsConfig { n: 1, m: 2, v: 64 };
        let weight = make_weight(32, 128, cfg, 3);
        let b = DenseMatrix::random(128, 16, 4);
        let input = SelInput::dense(b.clone());
        let kernel = SamoyedsKernel::new(DeviceSpec::rtx4070_super());
        let (out, _) = kernel.execute(&weight, &input).unwrap();
        let expected = weight.spmm(&b).unwrap();
        assert!(out.allclose(&expected, 1e-3, 1e-3));
    }

    #[test]
    fn v16_configuration_falls_back_to_reference_path() {
        let cfg = SamoyedsConfig::N1_M2_V16;
        let weight = make_weight(32, 64, cfg, 5);
        let b = DenseMatrix::random(64, 24, 6);
        let input = SelInput::dense(b.clone());
        let kernel = SamoyedsKernel::new(DeviceSpec::rtx4070_super());
        let (out, _) = kernel.execute(&weight, &input).unwrap();
        assert!(out.allclose(&weight.spmm(&b).unwrap(), 1e-3, 1e-3));
    }

    #[test]
    fn weight_only_mode_computes_all_columns() {
        let cfg = SamoyedsConfig::N1_M2_V32;
        let weight = make_weight(32, 64, cfg, 7);
        let b = DenseMatrix::random(64, 32, 8);
        let sel = SelectionArray::new(32, vec![1, 5, 9]).unwrap();
        let input = SelInput::new(b.clone(), sel).unwrap();
        let kernel =
            SamoyedsKernel::with_options(DeviceSpec::rtx4070_super(), SamoyedsOptions::WEIGHT_ONLY);
        let (out, _) = kernel.execute(&weight, &input).unwrap();
        assert_eq!(out.cols(), 32);
        assert!(out.allclose(&weight.spmm(&b).unwrap(), 1e-3, 1e-3));
    }

    #[test]
    fn profile_prices_the_mma_sp_issues_of_the_fragment_path() {
        // On tile-divisible shapes the cost model's sparse tensor FLOPs are
        // exactly the FLOPs of the `mma.sp` fragments Algorithm 1 issues over
        // the routed columns. Each problem's batch is 4x its routed columns.
        let kernel = SamoyedsKernel::new(DeviceSpec::rtx4070_super());
        let flops_per_issue = (2 * MMA_M * MMA_N * MMA_K_SPARSE) as f64;
        let shapes = [
            (SamoyedsConfig::N1_M2_V32, 64, 128, 40),
            (SamoyedsConfig { n: 1, m: 2, v: 64 }, 32, 256, 16),
            (SamoyedsConfig::N4_M8_V32, 128, 512, 24),
        ];
        for (seed, (cfg, m, k, n)) in (11u64..).zip(shapes) {
            let weight = make_weight(m, k, cfg, seed);
            let routed = DenseMatrix::random(k, n, seed + 100);
            let (_, issues) = kernel.execute_fragmentwise(&weight, &routed).unwrap();
            let problem = GemmProblem::samoyeds(m, k, 4 * n, n, cfg);
            assert_eq!(
                issues as f64 * flops_per_issue,
                kernel.profile(&problem).flops_tensor_sparse,
                "{cfg:?} {m}x{k}x{n}: {issues} issues"
            );
        }
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let cfg = SamoyedsConfig::N1_M2_V32;
        let weight = make_weight(32, 64, cfg, 9);
        let input = SelInput::dense(DenseMatrix::random(32, 8, 10));
        let kernel = SamoyedsKernel::new(DeviceSpec::rtx4070_super());
        assert!(kernel.execute(&weight, &input).is_err());
    }

    #[test]
    fn beats_venom_on_the_same_dense_input_problem() {
        let device = DeviceSpec::rtx4070_super();
        let samoyeds = SamoyedsKernel::new(device.clone());
        let venom = VenomSpmm::new(device);
        let problem = GemmProblem::samoyeds(4096, 4096, 4096, 4096, SamoyedsConfig::DEFAULT);
        let t_s = samoyeds.stats(&problem).time_ms;
        let t_v = venom.stats(&problem).time_ms;
        let speedup = t_v / t_s;
        assert!(
            speedup > 1.0 && speedup < 3.0,
            "speedup over VENOM {speedup}"
        );
    }

    #[test]
    fn input_sparsity_reduces_time_proportionally() {
        let kernel = SamoyedsKernel::new(DeviceSpec::rtx4070_super());
        let full = GemmProblem::samoyeds(4096, 4096, 4096, 4096, SamoyedsConfig::DEFAULT);
        let quarter = GemmProblem::samoyeds(4096, 4096, 4096, 1024, SamoyedsConfig::DEFAULT);
        let t_full = kernel.stats(&full).time_ms;
        let t_quarter = kernel.stats(&quarter).time_ms;
        assert!(
            t_quarter < t_full * 0.45,
            "full {t_full} quarter {t_quarter}"
        );
    }

    #[test]
    fn with_input_sparsity_the_batch_width_does_not_move_the_price() {
        // The MoE engines key a Samoyeds expert's price by its selected
        // column count alone, whatever batch its SEL array indexes.
        let cfg = SamoyedsConfig::DEFAULT;
        for opts in [
            SamoyedsOptions::WEIGHT_INPUT,
            SamoyedsOptions::WEIGHT_INPUT_LAYOUT,
            SamoyedsOptions::FULL,
        ] {
            assert!(opts.input_sparsity);
            let kernel = SamoyedsKernel::with_options(DeviceSpec::a100_40g(), opts);
            for (m, k, selected) in [(1408, 2048, 64), (2048, 1408, 192)] {
                let time_ms = |n| {
                    kernel
                        .time_ms(&GemmProblem::samoyeds(m, k, n, selected, cfg))
                        .to_bits()
                };
                assert_eq!(time_ms(selected), time_ms(4096), "{opts:?} {m}x{k}");
            }
        }
    }

    #[test]
    fn every_disabled_optimisation_costs_time() {
        let device = DeviceSpec::rtx4070_super();
        let problem = GemmProblem::samoyeds(4096, 4096, 2048, 512, SamoyedsConfig::DEFAULT);
        let full = SamoyedsKernel::new(device.clone()).stats(&problem).time_ms;
        let degraded = [
            SamoyedsOptions {
                optimized_layout: false,
                ..SamoyedsOptions::FULL
            },
            SamoyedsOptions {
                data_stationary: false,
                ..SamoyedsOptions::FULL
            },
            SamoyedsOptions {
                metadata_packing: false,
                ..SamoyedsOptions::FULL
            },
            SamoyedsOptions {
                swizzled_smem: false,
                ..SamoyedsOptions::FULL
            },
        ];
        for opts in degraded {
            let t = SamoyedsKernel::with_options(device.clone(), opts)
                .stats(&problem)
                .time_ms;
            assert!(
                t > full,
                "disabling {opts:?} should cost time: full {full} degraded {t}"
            );
        }
    }

    #[test]
    fn breakdown_configurations_are_ordered() {
        // W < WI < WIT < WITS in performance (decreasing time) for a routed
        // MoE-like problem.
        let device = DeviceSpec::rtx4070_super();
        let problem = GemmProblem::samoyeds(2048, 2048, 8192, 1024, SamoyedsConfig::DEFAULT);
        let t_w = SamoyedsKernel::with_options(device.clone(), SamoyedsOptions::WEIGHT_ONLY)
            .stats(&problem)
            .time_ms;
        let t_wi = SamoyedsKernel::with_options(device.clone(), SamoyedsOptions::WEIGHT_INPUT)
            .stats(&problem)
            .time_ms;
        let t_wit =
            SamoyedsKernel::with_options(device.clone(), SamoyedsOptions::WEIGHT_INPUT_LAYOUT)
                .stats(&problem)
                .time_ms;
        let t_wits = SamoyedsKernel::new(device).stats(&problem).time_ms;
        assert!(t_wi < t_w, "WI {t_wi} should beat W {t_w}");
        assert!(t_wit < t_wi, "WIT {t_wit} should beat WI {t_wi}");
        assert!(t_wits < t_wit, "WITS {t_wits} should beat WIT {t_wit}");
    }

    #[test]
    fn no_async_copy_device_loses_pipeline_overlap() {
        let problem = GemmProblem::samoyeds(2048, 2048, 2048, 2048, SamoyedsConfig::DEFAULT);
        let ada = SamoyedsKernel::new(DeviceSpec::rtx4070_super()).profile(&problem);
        let mi300 = SamoyedsKernel::new(DeviceSpec::amd_mi300()).profile(&problem);
        assert!(mi300.pipeline_overlap < ada.pipeline_overlap);
    }

    #[test]
    fn time_ms_is_the_stats_time_bit_for_bit() {
        let problems = [
            GemmProblem::samoyeds(2048, 1408, 216, 64, SamoyedsConfig::DEFAULT),
            GemmProblem::samoyeds(1408, 2048, 64, 64, SamoyedsConfig::DEFAULT),
            GemmProblem::samoyeds(4096, 4096, 4096, 1024, SamoyedsConfig::N1_M2_V32),
        ];
        let options = [
            SamoyedsOptions::FULL,
            SamoyedsOptions::WEIGHT_ONLY,
            SamoyedsOptions {
                swizzled_smem: false,
                ..SamoyedsOptions::FULL
            },
        ];
        for device in [DeviceSpec::a100_40g(), DeviceSpec::rtx4070_super()] {
            for opts in options {
                let kernel = SamoyedsKernel::with_options(device.clone(), opts);
                let retiled = kernel.clone().with_tiling(TilingConfig::VENDOR_LARGE);
                for problem in &problems {
                    for k in [&kernel, &retiled] {
                        assert_eq!(
                            k.time_ms(problem).to_bits(),
                            k.stats(problem).time_ms.to_bits()
                        );
                    }
                }
            }
        }
    }
}
