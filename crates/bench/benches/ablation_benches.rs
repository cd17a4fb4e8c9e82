//! Ablation benches for the Samoyeds kernel's design choices (the
//! `fig17_opt_breakdown` experiment in the README's *Experiment harness*
//! section): per-toggle kernel variants (Figure 17 at the kernel level),
//! tile-size and pipeline-depth sweeps, and format encoding throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_kernels::samoyeds_kernel::{SamoyedsKernel, SamoyedsOptions};
use samoyeds_kernels::{GemmProblem, TilingConfig};
use samoyeds_sparse::samoyeds::SamoyedsConfig;
use samoyeds_sparse::{DenseMatrix, SamoyedsWeight};

fn bench_optimisation_toggles(c: &mut Criterion) {
    let dev = DeviceSpec::rtx4070_super();
    let problem = GemmProblem::samoyeds(4096, 4096, 8192, 1024, SamoyedsConfig::DEFAULT);
    let variants: [(&str, SamoyedsOptions); 4] = [
        ("full", SamoyedsOptions::FULL),
        (
            "no_layout",
            SamoyedsOptions {
                optimized_layout: false,
                ..SamoyedsOptions::FULL
            },
        ),
        (
            "no_stationary",
            SamoyedsOptions {
                data_stationary: false,
                ..SamoyedsOptions::FULL
            },
        ),
        (
            "no_packing",
            SamoyedsOptions {
                metadata_packing: false,
                ..SamoyedsOptions::FULL
            },
        ),
    ];
    let mut group = c.benchmark_group("ablation_toggles");
    for (name, opts) in variants {
        group.bench_with_input(BenchmarkId::new("variant", name), &opts, |b, &o| {
            let k = SamoyedsKernel::with_options(dev.clone(), o);
            b.iter(|| k.stats(&problem))
        });
    }
    group.finish();
}

fn bench_tiling_sweep(c: &mut Criterion) {
    let dev = DeviceSpec::rtx4070_super();
    let problem = GemmProblem::samoyeds(4096, 4096, 4096, 4096, SamoyedsConfig::DEFAULT);
    let mut group = c.benchmark_group("ablation_tiling");
    for (name, tiling) in [
        ("default_128x64", TilingConfig::DEFAULT_4070S),
        ("small_64x64", TilingConfig::SMALL_TILE),
        ("deep_pipeline", TilingConfig::DEEP_PIPELINE),
    ] {
        group.bench_with_input(BenchmarkId::new("tiling", name), &tiling, |b, &t| {
            let k = SamoyedsKernel::new(dev.clone()).with_tiling(t);
            b.iter(|| k.stats(&problem))
        });
    }
    group.finish();
}

fn bench_format_encoding(c: &mut Criterion) {
    let dense = DenseMatrix::random(512, 1024, 9);
    c.bench_function("encode_samoyeds_512x1024", |b| {
        b.iter(|| SamoyedsWeight::prune_from_dense(&dense, SamoyedsConfig::DEFAULT).unwrap())
    });
}

criterion_group!(
    benches,
    bench_optimisation_toggles,
    bench_tiling_sweep,
    bench_format_encoding
);
criterion_main!(benches);
