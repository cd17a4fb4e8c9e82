//! One function per table/figure of the paper's evaluation (§6).

use samoyeds_dist::{
    render_fleet_sizing, render_placement_comparison, render_topology_placement, ClusterReport,
    ClusterServingReport, ClusterTopology, DisaggSweepReport, FaultSweepReport,
    FleetAutoscaleReport, FleetTraceReport, LinkSpec, TopologySweepReport,
};
use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_kernels::autotune::{adapt_for_device, suggested_adaptation, Adaptation};
use samoyeds_kernels::gemm_dense::DenseGemm;
use samoyeds_kernels::samoyeds_kernel::{SamoyedsKernel, SamoyedsOptions};
use samoyeds_kernels::spmm_csr::CsrSpmm;
use samoyeds_kernels::spmm_nm::NmSpmm;
use samoyeds_kernels::spmm_venom::VenomSpmm;
use samoyeds_kernels::{GemmProblem, TilingConfig};
use samoyeds_moe::attention::AttentionKind;
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::decoder::DecoderLayer;
use samoyeds_moe::engines::{Engine, EngineKind};
use samoyeds_moe::memory::{batch_experiment_seq_len, max_batch_size};
use samoyeds_moe::router::TopKRouter;
use samoyeds_pruning::accuracy::{ProxyTask, PruneMethod};
use samoyeds_serve::{compare_engines, render_markdown, ResultTable, SchedulerConfig, TraceConfig};
use samoyeds_sparse::prune::PruneFormat;
use samoyeds_sparse::samoyeds::SamoyedsConfig;
use samoyeds_sparse::venom::VenomConfig;

/// A registered experiment: its id (the `results/<id>.md` file name and the
/// binary's selector) and the function that renders its report.
pub type ExperimentEntry = (&'static str, fn() -> Vec<String>);

/// Every experiment: the paper's figures and tables in paper order, then the
/// sweeps beyond the paper.
pub const EXPERIMENTS: &[ExperimentEntry] = &[
    ("fig02_breakdown", fig02_breakdown),
    ("fig11_layout", fig11_layout),
    ("fig12_kernel_perf", fig12_kernel_perf),
    ("fig13_throughput_sweep", fig13_throughput_sweep),
    ("fig14_moe_layer", fig14_moe_layer),
    ("fig15_end_to_end", fig15_end_to_end),
    ("fig16_batch_throughput", fig16_batch_throughput),
    ("table3_max_batch", table3_max_batch),
    ("fig17_opt_breakdown", fig17_breakdown),
    ("table4_accuracy_f1", table4_accuracy),
    ("table5_perplexity", table5_perplexity),
    ("fig18_portability", fig18_portability),
    ("table6_adaptation", table6_adaptation),
    ("fig19_pit_compare", fig19_pit_compare),
    ("serving_sweep", serving_sweep),
    ("cluster_sweep", cluster_sweep),
    ("cluster_serving", cluster_serving),
    ("fleet_autoscale", fleet_autoscale),
    ("fleet_trace", fleet_trace),
    ("topology_sweep", topology_sweep),
    ("fault_sweep", fault_sweep),
    ("disagg_sweep", disagg_sweep),
];

fn device() -> DeviceSpec {
    DeviceSpec::rtx4070_super()
}

fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The synthetic kernel-benchmark grid (the paper uses 238 sizes with
/// m, k, n between 256 and 16384; we sweep the same range on a power-of-two
/// grid).
pub fn synthetic_grid() -> Vec<(usize, usize, usize)> {
    let sizes = [256usize, 512, 1024, 2048, 4096, 8192, 16384];
    let mut grid = Vec::new();
    for &m in &sizes {
        for &k in &sizes {
            for &n in &sizes {
                // Skip the largest corner cases to keep operand footprints
                // within a 12 GiB device (the paper's grid does the same).
                if m * k + k * n + m * n <= 16384 * 16384 * 2 {
                    grid.push((m, k, n));
                }
            }
        }
    }
    grid
}

/// The realistic kernel shapes of Table 2: the three expert projections of
/// each model with 4096 tokens.
pub fn realistic_shapes() -> Vec<(String, usize, usize, usize)> {
    let mut out = Vec::new();
    for cfg in MoeModelConfig::table2() {
        let h = cfg.hidden_size;
        let i = cfg.intermediate_size;
        out.push((
            format!("{} gate/up ({})", cfg.name, cfg.cfg_group),
            i,
            h,
            4096,
        ));
        out.push((format!("{} down ({})", cfg.name, cfg.cfg_group), h, i, 4096));
    }
    out
}

/// Speedups of the Samoyeds kernel over every baseline for one problem size.
fn kernel_speedups(m: usize, k: usize, n: usize) -> (f64, f64, f64, f64) {
    let dev = device();
    let problem = GemmProblem::samoyeds(m, k, n, n, SamoyedsConfig::DEFAULT);
    let dense_problem = GemmProblem::dense(m, k, n);
    let t_samoyeds = SamoyedsKernel::new(dev.clone()).stats(&problem).time_ms;
    let t_cublas = DenseGemm::new(dev.clone()).stats(&dense_problem).time_ms;
    let t_cusparselt = NmSpmm::new(dev.clone()).stats(&dense_problem).time_ms;
    let t_venom = VenomSpmm::new(dev.clone()).stats(&dense_problem).time_ms;
    let t_sputnik = CsrSpmm::new(dev).stats(&dense_problem, 0.75).time_ms;
    (
        t_cublas / t_samoyeds,
        t_cusparselt / t_samoyeds,
        t_venom / t_samoyeds,
        t_sputnik / t_samoyeds,
    )
}

/// Figure 2: decoder-layer time breakdown with and without Flash-Attention.
pub fn fig02_breakdown() -> Vec<String> {
    let dev = device();
    let mut table =
        ResultTable::new("Model | MoE share (standard attn) | MoE share (Flash-Attention)");
    for cfg in MoeModelConfig::table2() {
        let seq = 4096.min(cfg.max_seq_len);
        let std = DecoderLayer::new(
            dev.clone(),
            EngineKind::Transformers,
            AttentionKind::Standard,
        )
        .breakdown(&cfg, 1, seq);
        let flash = DecoderLayer::new(dev.clone(), EngineKind::Transformers, AttentionKind::Flash)
            .breakdown(&cfg, 1, seq);
        table.row(&[
            &cfg.name,
            &format!("{:.0}%", std.moe_fraction() * 100.0),
            &format!("{:.0}%", flash.moe_fraction() * 100.0),
        ]);
    }
    table.render_markdown()
}

/// Figure 11(b): speedup of the compressed output layout over the plain
/// layout as input sparsity grows.
pub fn fig11_layout() -> Vec<String> {
    let dev = device();
    let mut table = ResultTable::new("Input sparsity | Speedup with optimized layout");
    let (m, k, n) = (4096usize, 4096usize, 8192usize);
    for keep in [1.0f64, 0.75, 0.5, 0.25, 0.125, 0.0625] {
        let selected = ((n as f64 * keep) as usize).max(64);
        let problem = GemmProblem::samoyeds(m, k, n, selected, SamoyedsConfig::DEFAULT);
        let with = SamoyedsKernel::with_options(dev.clone(), SamoyedsOptions::FULL)
            .stats(&problem)
            .time_ms;
        // Without the compressed output layout the kernel (and the operator
        // consuming its result) transfers the zero rows of the full-width
        // intermediate tensor (Figure 11(a)): one extra write + read of the
        // unselected columns through DRAM.
        let zero_bytes = (m * (n - selected)) as f64 * 2.0 * 2.0;
        let without = with + zero_bytes / (dev.mem_bandwidth_gbps * 1e9) * 1e3;
        table.row(&[
            &format!("{:.1}%", (1.0 - keep) * 100.0),
            &format!("{:.2}x", without / with),
        ]);
    }
    table.render_markdown()
}

/// Figure 12: kernel performance on the synthetic grid and realistic shapes.
pub fn fig12_kernel_perf() -> Vec<String> {
    let grid = synthetic_grid();
    let speedups: Vec<(f64, f64, f64, f64)> = grid
        .iter()
        .map(|&(m, k, n)| kernel_speedups(m, k, n))
        .collect();
    let cublas: Vec<f64> = speedups.iter().map(|s| s.0).collect();
    let cusparselt: Vec<f64> = speedups.iter().map(|s| s.1).collect();
    let venom: Vec<f64> = speedups.iter().map(|s| s.2).collect();
    let sputnik: Vec<f64> = speedups.iter().map(|s| s.3).collect();
    let maxf = |v: &[f64]| v.iter().cloned().fold(f64::MIN, f64::max);

    let mut synthetic = ResultTable::titled(
        format!(
            "Synthetic benchmark: {} sizes, m/k/n in 256..16384",
            grid.len()
        ),
        "Baseline | Samoyeds geomean speedup | max speedup",
    );
    for (baseline, speedups) in [
        ("cuBLAS", &cublas),
        ("cuSPARSELt", &cusparselt),
        ("VENOM", &venom),
        ("Sputnik", &sputnik),
    ] {
        synthetic.row(&[
            &baseline,
            &format!("{:.2}x", geomean(speedups)),
            &format!("{:.2}x", maxf(speedups)),
        ]);
    }
    let mut realistic = ResultTable::titled(
        "Realistic benchmark (Table 2 expert shapes, 4096 tokens):",
        "Shape | vs cuBLAS | vs cuSPARSELt | vs VENOM | vs Sputnik",
    );
    for (label, m, k, n) in realistic_shapes() {
        let (c, cs, v, s) = kernel_speedups(m, k, n);
        realistic.row(&[
            &label,
            &format!("{c:.2}x"),
            &format!("{cs:.2}x"),
            &format!("{v:.2}x"),
            &format!("{s:.2}x"),
        ]);
    }
    let mut rows = synthetic.render_markdown();
    rows.push(String::new());
    rows.extend(realistic.render_markdown());
    rows
}

/// Figure 13: throughput trend while sweeping one dimension.
pub fn fig13_throughput_sweep() -> Vec<String> {
    let dev = device();
    let sizes = [256usize, 512, 1024, 2048, 4096, 8192, 16384];
    let mut table = ResultTable::new(
        "Swept dim | size | Samoyeds TFLOPS | VENOM TFLOPS | cuSPARSELt TFLOPS | cuBLAS TFLOPS",
    );
    for (dim, make) in [
        (
            "m",
            Box::new(|s: usize| (s, 4096usize, 4096usize))
                as Box<dyn Fn(usize) -> (usize, usize, usize)>,
        ),
        ("k", Box::new(|s: usize| (4096, s, 4096))),
        ("n", Box::new(|s: usize| (4096, 4096, s))),
    ] {
        for &s in &sizes {
            let (m, k, n) = make(s);
            let logical = 2.0 * m as f64 * k as f64 * n as f64;
            let problem = GemmProblem::samoyeds(m, k, n, n, SamoyedsConfig::DEFAULT);
            let dense = GemmProblem::dense(m, k, n);
            let tf = |ms: f64| format!("{:.1}", logical / (ms * 1e-3) / 1e12);
            table.row(&[
                &dim,
                &s,
                &tf(SamoyedsKernel::new(dev.clone()).stats(&problem).time_ms),
                &tf(VenomSpmm::new(dev.clone()).stats(&dense).time_ms),
                &tf(NmSpmm::new(dev.clone()).stats(&dense).time_ms),
                &tf(DenseGemm::new(dev.clone()).stats(&dense).time_ms),
            ]);
        }
    }
    table.render_markdown()
}

/// Figure 14: MoE-layer speedups over Transformers, with and without shared
/// experts.
pub fn fig14_moe_layer() -> Vec<String> {
    let dev = device();
    let tokens = 4096usize;
    let mut table = ResultTable::new(
        "Model | Shared experts | Samoyeds vs Transformers | vs MegaBlocks | vs vLLM-DS",
    );
    for shared in [2usize, 0] {
        for mut cfg in MoeModelConfig::table2() {
            cfg.num_shared_experts = shared;
            let plan = TopKRouter::for_config(&cfg, 42).route(tokens);
            let time = |kind: EngineKind| {
                let c = Engine::new(kind, dev.clone()).moe_layer_cost(&cfg, tokens, &plan);
                if c.supported {
                    Some(c.time_ms)
                } else {
                    None
                }
            };
            let samoyeds = time(EngineKind::Samoyeds).unwrap();
            let fmt = |t: Option<f64>| match t {
                Some(t) => format!("{:.2}x", t / samoyeds),
                None => "NS".to_string(),
            };
            table.row(&[
                &cfg.name,
                &shared,
                &fmt(time(EngineKind::Transformers)),
                &fmt(time(EngineKind::MegaBlocks)),
                &fmt(time(EngineKind::VllmDs)),
            ]);
        }
    }
    table.render_markdown()
}

/// Figure 15: end-to-end decoder-layer speedups.
pub fn fig15_end_to_end() -> Vec<String> {
    let dev = device();
    let mut table = ResultTable::new(
        "Model | batch | seq | Samoyeds vs Transformers | vs MegaBlocks | vs vLLM-DS",
    );
    for cfg in MoeModelConfig::table2() {
        let seq = 4096.min(cfg.max_seq_len);
        let batch = if cfg.cfg_group == "CFG#1" { 16 } else { 1 };
        let time = |kind: EngineKind| {
            let layer = DecoderLayer::new(dev.clone(), kind, AttentionKind::Flash);
            let c = layer.layer_cost(&cfg, batch, seq);
            if c.supported {
                Some(c.time_ms)
            } else {
                None
            }
        };
        let samoyeds = time(EngineKind::Samoyeds).unwrap();
        let fmt = |t: Option<f64>| match t {
            Some(t) => format!("{:.2}x", t / samoyeds),
            None => "NS/OOM".to_string(),
        };
        table.row(&[
            &cfg.name,
            &batch,
            &seq,
            &fmt(time(EngineKind::Transformers)),
            &fmt(time(EngineKind::MegaBlocks)),
            &fmt(time(EngineKind::VllmDs)),
        ]);
    }
    table.render_markdown()
}

/// Figure 16: decoder-layer throughput at increasing batch sizes.
pub fn fig16_batch_throughput() -> Vec<String> {
    let dev = device();
    let mut table =
        ResultTable::new("Model | batch | Samoyeds tok/s | Transformers tok/s | vLLM-DS tok/s");
    for cfg in [MoeModelConfig::mixtral_8x7b(), MoeModelConfig::qwen2_moe()] {
        let seq = batch_experiment_seq_len(&cfg);
        for batch in [1usize, 2, 4, 8, 16] {
            let tput = |kind: EngineKind| {
                DecoderLayer::new(dev.clone(), kind, AttentionKind::Flash)
                    .throughput_tokens_per_s(&cfg, batch, seq)
            };
            table.row(&[
                &cfg.name,
                &batch,
                &format!("{:.0}", tput(EngineKind::Samoyeds)),
                &format!("{:.0}", tput(EngineKind::Transformers)),
                &format!("{:.0}", tput(EngineKind::VllmDs)),
            ]);
        }
    }
    table.render_markdown()
}

/// Table 3: maximum batch sizes per engine and the boost over the best
/// baseline.
pub fn table3_max_batch() -> Vec<String> {
    let dev = device();
    let mut table = ResultTable::new(
        "Model | Transformers | MegaBlocks | vLLM-DS | Samoyeds | Boost over best baseline",
    );
    let mut boosts = Vec::new();
    for cfg in MoeModelConfig::table2() {
        let seq = batch_experiment_seq_len(&cfg);
        let mb = |kind| max_batch_size(&dev, kind, &cfg, seq);
        let t = mb(EngineKind::Transformers);
        let m = mb(EngineKind::MegaBlocks);
        let v = mb(EngineKind::VllmDs);
        let s = mb(EngineKind::Samoyeds);
        let best = t.max(m).max(v).max(1);
        let boost = s as f64 / best as f64;
        boosts.push(boost);
        let show = |x: usize| {
            if x == 0 {
                "OOM/-".to_string()
            } else {
                x.to_string()
            }
        };
        table.row(&[
            &cfg.name,
            &show(t),
            &show(m),
            &show(v),
            &show(s),
            &format!("{boost:.2}x"),
        ]);
    }
    let average = format!("{:.2}x", boosts.iter().sum::<f64>() / boosts.len() as f64);
    table.row(&[&"**average**", &"", &"", &"", &"", &average]);
    table.render_markdown()
}

/// Figure 17: stepwise optimisation breakdown (W, WI, WIT, WITS) as speedup
/// over the vanilla Transformers MoE layer.
pub fn fig17_breakdown() -> Vec<String> {
    let dev = device();
    let tokens = 4096usize;
    let mut table = ResultTable::new("Model | +W | +WI | +WIT | +WITS");
    for cfg in MoeModelConfig::table2() {
        let plan = TopKRouter::for_config(&cfg, 42).route(tokens);
        let vanilla = Engine::new(EngineKind::Transformers, dev.clone())
            .moe_layer_cost(&cfg, tokens, &plan)
            .time_ms;
        let step = |opts: SamoyedsOptions| {
            let t = Engine::new(EngineKind::Samoyeds, dev.clone())
                .with_samoyeds_options(opts)
                .moe_layer_cost(&cfg, tokens, &plan)
                .time_ms;
            format!("{:.2}x", vanilla / t)
        };
        table.row(&[
            &cfg.name,
            &step(SamoyedsOptions::WEIGHT_ONLY),
            &step(SamoyedsOptions::WEIGHT_INPUT),
            &step(SamoyedsOptions::WEIGHT_INPUT_LAYOUT),
            &step(SamoyedsOptions::FULL),
        ]);
    }
    table.render_markdown()
}

/// Table 4: F1 of the BERT-like proxies across (N,M,V) configurations.
pub fn table4_accuracy() -> Vec<String> {
    let mut table = ResultTable::new("Model | Dense | (1,2,16) | (1,2,32) | (4,8,32) | (8,16,32)");
    for (name, seed) in [("Bert-base (proxy)", 3u64), ("Bert-large (proxy)", 4u64)] {
        let task = ProxyTask::bert_like(name, seed);
        let f1 = |fmt: PruneFormat| {
            let report = task.evaluate(fmt, PruneMethod::WoodFisher).unwrap();
            format!("{:.2}", report.f1)
        };
        table.row(&[
            &name,
            &f1(PruneFormat::Dense),
            &f1(PruneFormat::Samoyeds(SamoyedsConfig::N1_M2_V16)),
            &f1(PruneFormat::Samoyeds(SamoyedsConfig::N1_M2_V32)),
            &f1(PruneFormat::Samoyeds(SamoyedsConfig::N4_M8_V32)),
            &f1(PruneFormat::Samoyeds(SamoyedsConfig::N8_M16_V32)),
        ]);
    }
    table.render_markdown()
}

/// Table 5: perplexity of the LM proxies pruned into each format.
pub fn table5_perplexity() -> Vec<String> {
    let mut table = ResultTable::new("Model | Dense | Unstructured | VENOM | Samoyeds");
    for task in [ProxyTask::tiny_llama_like(7), ProxyTask::qwen2_like(8)] {
        let ppl = |fmt: PruneFormat| {
            let report = task.evaluate(fmt, PruneMethod::SparseGpt).unwrap();
            format!("{:.2}", report.perplexity)
        };
        table.row(&[
            &task.name(),
            &ppl(PruneFormat::Dense),
            &ppl(PruneFormat::Unstructured { sparsity: 0.75 }),
            &ppl(PruneFormat::Venom(VenomConfig { v: 64, n: 4, m: 8 })),
            &ppl(PruneFormat::Samoyeds(SamoyedsConfig::DEFAULT)),
        ]);
    }
    table.render_markdown()
}

/// Relative speedup of the (4070S-tuned) Samoyeds kernel over cuSPARSELt on
/// one device, averaged over a reduced synthetic grid.
fn portability_speedup(dev: &DeviceSpec, tiling: TilingConfig) -> f64 {
    let sizes = [512usize, 1024, 2048, 4096, 8192];
    let mut speedups = Vec::new();
    for &m in &sizes {
        for &n in &sizes {
            let k = 4096;
            let problem = GemmProblem::samoyeds(m, k, n, n, SamoyedsConfig::DEFAULT);
            let dense = GemmProblem::dense(m, k, n);
            let t_s = SamoyedsKernel::new(dev.clone())
                .with_tiling(tiling)
                .stats(&problem)
                .time_ms;
            let t_c = NmSpmm::new(dev.clone()).stats(&dense).time_ms;
            speedups.push(t_c / t_s);
        }
    }
    geomean(&speedups)
}

/// Figure 18: portability of the directly-ported kernel (4070S configuration)
/// across GPUs, reported as relative speedup over cuSPARSELt.
pub fn fig18_portability() -> Vec<String> {
    let reference = portability_speedup(&device(), TilingConfig::DEFAULT_4070S);
    let mut table = ResultTable::new(
        "GPU | Samoyeds speedup over cuSPARSELt (direct port) | Retention vs 4070S",
    );
    for dev in DeviceSpec::portability_set() {
        let s = portability_speedup(&dev, TilingConfig::DEFAULT_4070S);
        table.row(&[
            &dev.name,
            &format!("{s:.2}x"),
            &format!("{:.0}%", (s / reference * 100.0).min(150.0)),
        ]);
    }
    table.render_markdown()
}

/// Table 6: effect of the suggested adaptations on the synthetic set.
pub fn table6_adaptation() -> Vec<String> {
    let mut table = ResultTable::new("Target | Adaptation | Improved | Unchanged | Degraded");
    for dev in [DeviceSpec::a100_40g(), DeviceSpec::rtx3090()] {
        let adaptation = suggested_adaptation(&dev);
        let adapted_tiling = adapt_for_device(&dev);
        let sizes = [256usize, 512, 1024, 2048, 4096, 8192];
        let (mut improved, mut unchanged, mut degraded) = (0usize, 0usize, 0usize);
        for &m in &sizes {
            for &k in &[2048usize, 4096, 8192] {
                for &n in &sizes {
                    let problem = GemmProblem::samoyeds(m, k, n, n, SamoyedsConfig::DEFAULT);
                    let base = SamoyedsKernel::new(dev.clone())
                        .with_tiling(TilingConfig::DEFAULT_4070S)
                        .stats(&problem)
                        .time_ms;
                    let adapted = SamoyedsKernel::new(dev.clone())
                        .with_tiling(adapted_tiling)
                        .stats(&problem)
                        .time_ms;
                    if adapted < base * 0.99 {
                        improved += 1;
                    } else if adapted > base * 1.01 {
                        degraded += 1;
                    } else {
                        unchanged += 1;
                    }
                }
            }
        }
        let total = (improved + unchanged + degraded) as f64;
        let adaptation_label = match adaptation {
            Adaptation::SmallerTiles => "Tile Size ↓",
            Adaptation::MoreStages => "Stage Num ↑",
            Adaptation::None => "none",
        };
        table.row(&[
            &dev.name,
            &adaptation_label,
            &format!("{:.1}%", improved as f64 / total * 100.0),
            &format!("{:.1}%", unchanged as f64 / total * 100.0),
            &format!("{:.1}%", degraded as f64 / total * 100.0),
        ]);
    }
    table.render_markdown()
}

/// Figure 19: Samoyeds vs the PIT dynamic-sparsity compiler on the MoE layer.
pub fn fig19_pit_compare() -> Vec<String> {
    let dev = device();
    let mut table = ResultTable::new("Experts | batch (x1024 tokens) | Samoyeds speedup over PIT");
    for experts in [8usize, 64] {
        for batch in [1usize, 8] {
            let mut cfg = if experts == 8 {
                MoeModelConfig::mixtral_8x7b()
            } else {
                MoeModelConfig::deepseek_moe()
            };
            cfg.num_shared_experts = 0;
            let tokens = batch * 1024;
            let plan = TopKRouter::for_config(&cfg, 42).route(tokens);
            let t_pit = Engine::new(EngineKind::Pit, dev.clone())
                .moe_layer_cost(&cfg, tokens, &plan)
                .time_ms;
            let t_s = Engine::new(EngineKind::Samoyeds, dev.clone())
                .moe_layer_cost(&cfg, tokens, &plan)
                .time_ms;
            table.row(&[&experts, &batch, &format!("{:.2}x", t_pit / t_s)]);
        }
    }
    table.render_markdown()
}

/// Beyond the paper: continuous-batching serving comparison. Every engine
/// serves the same Poisson request trace; the report shows throughput,
/// request-latency percentiles and peak memory per engine, on the A100-40G
/// (all engines hold the full model) and the RTX 4070 Super (only the
/// Samoyeds compressed weights fit).
pub fn serving_sweep() -> Vec<String> {
    let trace = TraceConfig {
        num_requests: 32,
        arrival_rate_rps: 8.0,
        prompt_len_range: (64, 256),
        output_len_range: (8, 32),
        seed: 42,
    };
    let engines = EngineKind::all();
    let mut rows = Vec::new();
    for (device, models) in [
        (
            DeviceSpec::a100_40g(),
            vec![MoeModelConfig::qwen2_moe(), MoeModelConfig::deepseek_moe()],
        ),
        (
            DeviceSpec::rtx4070_super(),
            vec![MoeModelConfig::qwen2_moe()],
        ),
    ] {
        for cfg in models {
            let metrics =
                compare_engines(&device, &cfg, &trace, &SchedulerConfig::default(), &engines);
            rows.extend(render_markdown(&cfg.name, &device.name, &metrics));
            rows.push(String::new());
        }
    }
    rows
}

/// Beyond the paper: multi-GPU expert-parallel cluster comparison. A fixed
/// token batch is sharded across 1/2/4/8 GPUs of the consumer RTX 4070
/// Super (PCIe) and the datacenter A100 (NVLink) under three weight
/// representations; the fleet-sizing table shows the compressed formats
/// holding the model on fewer GPUs (the multi-GPU analogue of Table 3), and
/// the placement table shows load-aware strategies beating round-robin on
/// an imbalanced routing plan.
pub fn cluster_sweep() -> Vec<String> {
    let model = MoeModelConfig::qwen2_moe();
    let mut rows = ClusterReport::gpu_count_sweep(&model, 4096, 42).render_markdown();
    rows.push(String::new());
    rows.extend(render_fleet_sizing(&model, 4096));
    rows.push(String::new());
    rows.extend(render_placement_comparison(
        &model,
        &DeviceSpec::a100_40g(),
        8,
        4096,
        1.5,
        9,
    ));
    rows
}

/// Beyond the paper: cluster-aware continuous batching. One shared Poisson
/// trace is served through the scheduler over cluster backends of every
/// (fabric, engine, GPU-count) combination; on the consumer card the dense
/// weights overflow the per-GPU budget and the trace is *rejected*, while
/// the Samoyeds compressed weights admit and serve it — Table 3's OOM
/// entries, restated as serving outcomes.
pub fn cluster_serving() -> Vec<String> {
    let model = MoeModelConfig::qwen2_moe();
    let trace = TraceConfig {
        num_requests: 24,
        arrival_rate_rps: 8.0,
        prompt_len_range: (64, 256),
        output_len_range: (8, 32),
        seed: 42,
    };
    ClusterServingReport::sweep(&model, &trace, &SchedulerConfig::default()).render_markdown()
}

/// Beyond the paper: the online fleet control plane on a bursty trace. One
/// calm → spike → calm request trace is served by heterogeneous fleets
/// (homogeneous A100 Samoyeds/dense singles, and a mixed A100-pod + 4070S
/// fleet) under SLO targets × dispatch policies; the report shows the
/// SLO-driven autoscaler scaling out during the spike and back in
/// afterwards, with Samoyeds fleets needing fewer scale-outs than dense —
/// the paper's fleet-sizing claim, restated in time instead of GPU count.
pub fn fleet_autoscale() -> Vec<String> {
    let model = MoeModelConfig::qwen2_moe();
    let trace = FleetAutoscaleReport::demo_trace();
    FleetAutoscaleReport::sweep(&model, &trace, &SchedulerConfig::default()).render_markdown()
}

/// Beyond the paper: observability. The mixed-fleet autoscale demo runs
/// once more with a recording telemetry sink installed; the report shows
/// the run's lifecycle counters, the per-request latency attribution table
/// (queue wait / prefill / decode, telescoping exactly to end-to-end
/// latency), and the exact-vs-histogram p95 TTFT comparison. The same
/// report's Chrome trace export is what `examples/fleet_trace.rs` writes
/// for Perfetto.
pub fn fleet_trace() -> Vec<String> {
    let model = MoeModelConfig::qwen2_moe();
    let report = FleetTraceReport::demo(&model, &SchedulerConfig::default());
    let mut rows = report.render_markdown();
    rows.push(String::new());
    rows.push(format!(
        "-> the Chrome trace export carries {} bytes of span/instant JSON \
         across {} replica tracks",
        report.chrome_trace().len(),
        report.metrics.per_replica.len()
    ));
    rows
}

/// Beyond the paper: hierarchical interconnect topologies. One skewed
/// routing plan over the same 8-GPU fleet is priced as a flat NVLink
/// island, as 2×4 NVLink islands on an InfiniBand NDR spine, and as 4×2
/// PCIe hosts on the same spine; the headline is the 2×4 cell turning
/// spine-bound — the leader exchange over the 50 GB/s spine exceeds the
/// whole flat-NVLink collective — and the topology-aware placement table
/// shows per-island hot-expert replication keeping traffic off the spine.
pub fn topology_sweep() -> Vec<String> {
    let model = MoeModelConfig::qwen2_moe();
    let mut rows = TopologySweepReport::sweep(&model, 4096, 1.5, 42).render_markdown();
    rows.push(String::new());
    let two_by_four =
        ClusterTopology::symmetric(2, 4, LinkSpec::nvlink3(), LinkSpec::infiniband_ndr())
            .expect("2x4 is a valid layout");
    rows.extend(render_topology_placement(
        &model,
        &two_by_four,
        4096,
        1.5,
        9,
    ));
    rows
}

/// Beyond the paper: the fault sweep. The same three-replica fleet and
/// bursty trace replayed under an identical scripted fault schedule with
/// three recovery policies; the headline is re-admission recovering every
/// request the crash destroyed, in a recovery time priced by the placement
/// layer's weight-transfer plan.
pub fn fault_sweep() -> Vec<String> {
    FaultSweepReport::sweep(&MoeModelConfig::qwen2_moe(), &SchedulerConfig::default())
        .render_markdown()
}

/// Beyond the paper: prefill/decode disaggregation. One bursty trace is
/// served by four pods (A100 prefill, RTX 4070 Super decode) on a 2×2
/// two-island topology at prefill:decode splits 1:3 / 2:2 / 3:1, with every
/// KV handoff priced by the link the pair shares; the dense weights do not
/// fit the 12 GiB decode pods, so only the compressed representations can
/// disaggregate at all.
pub fn disagg_sweep() -> Vec<String> {
    DisaggSweepReport::sweep(&MoeModelConfig::qwen2_moe(), &SchedulerConfig::default())
        .render_markdown()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_produces_a_non_trivial_report() {
        // The heavy grid experiments are exercised separately; here we smoke
        // test the cheap ones end to end.
        for (id, rows) in [
            ("fig02_breakdown", fig02_breakdown()),
            ("fig11_layout", fig11_layout()),
            ("table4_accuracy_f1", table4_accuracy()),
            ("table5_perplexity", table5_perplexity()),
            ("table6_adaptation", table6_adaptation()),
            ("fig19_pit_compare", fig19_pit_compare()),
        ] {
            assert!(rows.len() >= 3, "{id} rows {}", rows.len());
        }
        assert_eq!(EXPERIMENTS.len(), 22);
    }

    #[test]
    fn cluster_serving_report_contains_the_admission_contrast() {
        let rows = cluster_serving();
        // Dense cells on the consumer card reject the trace for memory...
        assert!(rows.iter().any(|r| r.contains("OOM")));
        // ...and the report names the contrast cell explicitly.
        assert!(
            rows.iter().any(|r| r.contains("admission contrast")),
            "{rows:?}"
        );
        // Served Samoyeds rows exist with nonzero throughput.
        assert!(rows
            .iter()
            .any(|r| r.contains("| Samoyeds |") && !r.contains("OOM")));
    }

    #[test]
    fn cluster_sweep_shows_fleet_sizing_and_placement_wins() {
        let rows = cluster_sweep();
        // The consumer-card dense cells OOM while Samoyeds serves.
        assert!(rows.iter().any(|r| r.contains("OOM")));
        assert!(rows.iter().any(|r| r.starts_with("Fleet sizing")));
        assert!(rows.iter().any(|r| r.starts_with("Placement comparison")));
        assert!(rows.iter().any(|r| r.contains("capacity-greedy")));
    }

    #[test]
    fn serving_sweep_shows_samoyeds_winning_and_the_oom_contrast() {
        let rows = serving_sweep();
        // Three report tables: two A100 models and the 4070S contrast.
        assert_eq!(
            rows.iter()
                .filter(|r| r.starts_with("Serving report"))
                .count(),
            3
        );
        // The 4070S table must mark the dense engines unservable while
        // Samoyeds completes the trace.
        assert!(rows.iter().any(|r| r.contains("NS/OOM")));
        let samoyeds_rows: Vec<&String> = rows
            .iter()
            .filter(|r| r.starts_with("| Samoyeds |"))
            .collect();
        assert_eq!(samoyeds_rows.len(), 3);
        assert!(samoyeds_rows.iter().all(|r| !r.contains("NS/OOM")));
    }

    #[test]
    fn synthetic_grid_covers_the_paper_range() {
        let grid = synthetic_grid();
        assert!(grid.len() >= 238, "grid has {} points", grid.len());
        assert!(grid
            .iter()
            .all(|&(m, k, n)| m >= 256 && k >= 256 && n >= 256));
        assert!(grid.iter().any(|&(m, _, _)| m == 16384));
    }

    #[test]
    fn kernel_speedups_are_positive_and_ordered_sensibly() {
        let (cublas, cusparselt, venom, sputnik) = kernel_speedups(4096, 4096, 4096);
        assert!(cublas > 1.0);
        assert!(cusparselt > 1.0);
        assert!(venom > 1.0);
        // Sputnik (CUDA cores) is by far the slowest baseline.
        assert!(sputnik > cublas);
        // VENOM is the strongest baseline.
        assert!(venom < cusparselt + 1e-9 || venom < cublas);
    }

    #[test]
    fn fig11_speedup_grows_with_input_sparsity() {
        let rows = fig11_layout();
        let parse = |row: &String| {
            row.split('|')
                .nth(2)
                .unwrap()
                .trim()
                .trim_end_matches('x')
                .parse::<f64>()
                .unwrap()
        };
        let first = parse(&rows[2]);
        let last = parse(&rows[rows.len() - 1]);
        assert!(
            last > first,
            "layout speedup should grow: {first} -> {last}"
        );
        assert!(first >= 1.0);
    }
}
