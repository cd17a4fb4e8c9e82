//! Cross-crate integration tests: the full pipeline from dense weights to
//! pruned formats, kernels, MoE engines and experiment reports.

use samoyeds::dist::{
    render_topology_placement, ClusterBackend, ClusterConfig, ClusterEngine, ClusterSimulator,
    ClusterTopology, DisaggSweepReport, FaultSweepReport, FleetAutoscaleReport, FleetKind,
    LinkSpec, PlacementStrategy, TopologySweepReport,
};
use samoyeds::gpu_sim::DeviceSpec;
use samoyeds::kernels::gemm_dense::DenseGemm;
use samoyeds::kernels::samoyeds_kernel::{SamoyedsKernel, SamoyedsOptions};
use samoyeds::kernels::GemmProblem;
use samoyeds::moe::config::MoeModelConfig;
use samoyeds::moe::engines::{Engine, EngineKind};
use samoyeds::moe::expert::ExpertWeights;
use samoyeds::moe::memory::{batch_experiment_seq_len, max_batch_size};
use samoyeds::moe::router::TopKRouter;
use samoyeds::pruning::accuracy::{ProxyTask, PruneMethod};
use samoyeds::serve::backend::{attention_step_ms, auxiliary_step_ms, StepCost, StepWorkload};
use samoyeds::serve::batch::StepBatch;
use samoyeds::serve::{
    compare_engines, DispatchPolicy, ExecutionBackend, FaultKind, Request, RunningRequest,
    ScaleKind, SchedulerConfig, SingleGpuBackend, TraceConfig,
};
use samoyeds::sparse::prune::PruneFormat;
use samoyeds::sparse::samoyeds::SamoyedsConfig;
use samoyeds::sparse::{DenseMatrix, SamoyedsWeight, SelInput, SparseFormat};
use std::cell::RefCell;

#[test]
fn end_to_end_prune_execute_verify() {
    // Dense weight -> Samoyeds format -> dual-side kernel -> verified output.
    let dense = DenseMatrix::random(128, 256, 42);
    let weight = SamoyedsWeight::prune_from_dense(&dense, SamoyedsConfig::DEFAULT).unwrap();
    assert!((weight.sparsity() - 0.75).abs() < 0.02);

    let tokens = DenseMatrix::random(256, 48, 43);
    let input = SelInput::dense(tokens.clone());
    let kernel = SamoyedsKernel::new(DeviceSpec::rtx4070_super());
    let (out, stats) = kernel.execute(&weight, &input).unwrap();
    let reference = weight.to_dense().matmul(&tokens).unwrap();
    assert!(out.allclose(&reference, 1e-3, 1e-3));
    assert!(stats.time_ms > 0.0);
    assert!(stats.achieved_tflops > 0.0);
}

#[test]
fn kernel_level_ordering_holds_on_realistic_shapes() {
    // On every Table-2 expert shape the Samoyeds kernel beats cuBLAS by a
    // healthy factor (the Figure 12 "realistic benchmark" claim).
    let dev = DeviceSpec::rtx4070_super();
    for cfg in MoeModelConfig::table2() {
        let problem = GemmProblem::samoyeds(
            cfg.intermediate_size,
            cfg.hidden_size,
            4096,
            4096,
            SamoyedsConfig::DEFAULT,
        );
        let dense = GemmProblem::dense(cfg.intermediate_size, cfg.hidden_size, 4096);
        let t_s = SamoyedsKernel::new(dev.clone()).stats(&problem).time_ms;
        let t_d = DenseGemm::new(dev.clone()).stats(&dense).time_ms;
        let speedup = t_d / t_s;
        assert!(
            speedup > 1.5 && speedup < 8.0,
            "{}: speedup over cuBLAS {speedup}",
            cfg.name
        );
    }
}

#[test]
fn moe_engines_rank_consistently_across_models() {
    let dev = DeviceSpec::rtx4070_super();
    for cfg in [
        MoeModelConfig::mixtral_8x7b(),
        MoeModelConfig::minicpm_moe(),
        MoeModelConfig::deepseek_moe(),
    ] {
        let tokens = 2048;
        let plan = TopKRouter::for_config(&cfg, 5).route(tokens);
        let time = |kind| {
            Engine::new(kind, dev.clone())
                .moe_layer_cost(&cfg, tokens, &plan)
                .time_ms
        };
        let samoyeds = time(EngineKind::Samoyeds);
        assert!(samoyeds < time(EngineKind::Transformers), "{}", cfg.name);
        assert!(samoyeds < time(EngineKind::VllmDs), "{}", cfg.name);
        assert!(samoyeds < time(EngineKind::MegaBlocks), "{}", cfg.name);
        assert!(samoyeds < time(EngineKind::Pit), "{}", cfg.name);
    }
}

#[test]
fn functional_moe_layer_matches_between_engines_on_pruned_weights() {
    let cfg = MoeModelConfig::tiny_test();
    let device = DeviceSpec::rtx4070_super();
    let experts: Vec<ExpertWeights> = (0..cfg.num_experts)
        .map(|e| ExpertWeights::random(&cfg, e, 21))
        .collect();
    let pruned: Vec<_> = experts
        .iter()
        .map(|w| w.prune_samoyeds(SamoyedsConfig::DEFAULT).unwrap())
        .collect();
    let pruned_dense: Vec<ExpertWeights> = pruned
        .iter()
        .map(|p| ExpertWeights {
            gate: p.gate.to_dense(),
            up: p.up.to_dense(),
            down: p.down.to_dense(),
            activation: p.activation,
        })
        .collect();
    let x = DenseMatrix::random(cfg.hidden_size, 16, 22);
    let plan = TopKRouter::for_config(&cfg, 23).route(16);
    let reference = Engine::forward_reference(&pruned_dense, &x, &plan).unwrap();
    let kernel_path = Engine::forward_samoyeds(&device, &pruned, &x, &plan).unwrap();
    assert!(
        kernel_path.allclose(&reference, 1e-2, 1e-2),
        "max diff {}",
        kernel_path.max_abs_diff(&reference)
    );
}

#[test]
fn breakdown_and_memory_claims_hold_together() {
    // The optimisation breakdown (Figure 17) and the max-batch claim
    // (Table 3) both hold for the same model on the same device.
    let dev = DeviceSpec::rtx4070_super();
    let cfg = MoeModelConfig::qwen2_moe();
    let plan = TopKRouter::for_config(&cfg, 9).route(4096);
    let step = |opts| {
        Engine::new(EngineKind::Samoyeds, dev.clone())
            .with_samoyeds_options(opts)
            .moe_layer_cost(&cfg, 4096, &plan)
            .time_ms
    };
    assert!(step(SamoyedsOptions::FULL) < step(SamoyedsOptions::WEIGHT_ONLY));

    let seq = batch_experiment_seq_len(&cfg);
    let samoyeds_batch = max_batch_size(&dev, EngineKind::Samoyeds, &cfg, seq);
    let transformers_batch = max_batch_size(&dev, EngineKind::Transformers, &cfg, seq);
    assert!(samoyeds_batch > transformers_batch);
}

#[test]
fn samoyeds_serves_models_the_dense_engines_cannot_hold() {
    // Full-model Qwen2-MoE does not fit a 12 GiB card with dense weights but
    // does in the Samoyeds compressed representation — the serving analogue
    // of the Table 3 OOM entries.
    let trace = TraceConfig {
        num_requests: 16,
        arrival_rate_rps: 8.0,
        prompt_len_range: (32, 128),
        output_len_range: (4, 16),
        seed: 7,
    };
    let metrics = compare_engines(
        &DeviceSpec::rtx4070_super(),
        &MoeModelConfig::qwen2_moe(),
        &trace,
        &SchedulerConfig::default(),
        &[EngineKind::Transformers, EngineKind::Samoyeds],
    );
    let (dense, sparse) = (&metrics[0], &metrics[1]);
    assert!(!dense.servable, "dense full model should OOM on 12 GiB");
    assert_eq!(dense.completed, 0);
    assert!(sparse.servable);
    assert!(sparse.completed > 0);
}

#[test]
fn fault_sweep_recovers_with_zero_lost_requests_under_readmission() {
    let report = FaultSweepReport::sweep(&MoeModelConfig::qwen2_moe(), &SchedulerConfig::default());
    assert_eq!(report.entries.len(), 3);
    // The transfer bill comes from the placement layer and is real.
    assert!(report.transfer_ms > 0.0 && report.transfer_ms.is_finite());
    assert!(report.transfer_bytes > 0.0);
    // Acceptance criterion: finite recovery time, zero lost requests when
    // re-admission is on.
    let (recovery_ms, failed) = report.readmit_recovery().expect("crash recovered");
    assert!(recovery_ms.is_finite() && recovery_ms >= report.transfer_ms - 1e-6);
    assert_eq!(failed, 0);
    for e in &report.entries {
        // Conservation in every cell: served + rejected + failed covers the
        // offered trace.
        assert_eq!(
            e.metrics.completed + e.metrics.rejected + e.metrics.failed(),
            report.num_requests,
            "{}",
            e.policy
        );
        assert_eq!(e.metrics.faults.len(), 2, "{}", e.policy);
    }
    // Fail-fast loses the crashed replica's in-flight work; the
    // re-admission policies do not.
    let fail_fast = &report.entries[0];
    assert!(fail_fast.metrics.failed() > 0);
    assert_eq!(report.entries[1].metrics.failed(), 0);
    assert_eq!(report.entries[2].metrics.failed(), 0);
    // The replacement policy commissions a new replica.
    let crash = report.entries[2]
        .metrics
        .faults
        .iter()
        .find(|f| matches!(f.kind, FaultKind::ReplicaCrash { .. }))
        .unwrap();
    assert!(crash.replacement.is_some());
    // The re-admission run's trace carries fault + recovery instants.
    let json = report.chrome_trace();
    assert!(json.contains("\"replica crashed\""));
    assert!(json.contains("\"recovery started\""));
    assert!(json.contains("\"recovery complete\""));
    assert!(json.contains("\"link degraded\""));
    assert!(json.contains("\"link restored\""));
    let rows = report.render_markdown();
    assert!(rows.iter().any(|r| r.contains("fail-fast")));
    assert!(rows.iter().any(|r| r.contains("re-admit + replace")));
    assert!(rows.iter().any(|r| r.starts_with("drain:")));
    // Three policy rows, the fault timeline, the drain status and the
    // headline.
    assert!(rows.len() >= 3 + 3 + 2, "{} rows", rows.len());
    // Text unique to the Some branch: losing the recovery cell fails here
    // instead of matching the fallback.
    assert!(
        rows.iter()
            .any(|r| r.contains("-> re-admission recovers the crash")),
        "{rows:?}"
    );
    assert!(rows.iter().any(|r| r.contains("0 requests lost")));
}

#[test]
fn disagg_sweep_shows_compression_unlocking_the_decode_pods() {
    let report =
        DisaggSweepReport::sweep(&MoeModelConfig::qwen2_moe(), &SchedulerConfig::default());
    // 3 engines x 3 prefill:decode splits.
    assert_eq!(report.entries.len(), 9);
    for e in &report.entries {
        assert_eq!(e.prefill_pods + e.decode_pods, report.slots);
        match e.engine {
            // The memory story: dense bf16 weights do not fit the 12 GiB
            // decode pods, so every dense split is rejected by validation
            // before anything runs.
            ClusterEngine::Dense => assert!(e.outcome.is_none()),
            ClusterEngine::Venom | ClusterEngine::Samoyeds => {
                let o = e.outcome.as_ref().expect("compressed cells run");
                // Conservation in every feasible cell.
                assert_eq!(
                    o.metrics.completed + o.metrics.rejected + o.metrics.failed(),
                    report.num_requests,
                    "{} {}:{}",
                    e.engine.name(),
                    e.prefill_pods,
                    e.decode_pods
                );
                // Every completion decoded remotely, so handoffs flowed and
                // the transfer phase showed up in the attribution.
                assert!(o.intra_transfers + o.spine_transfers > 0);
                assert!(o.intra_bytes + o.spine_bytes > 0.0);
                assert!(o.attribution.transfer.mean_ms > 0.0);
                // Topology pricing: the 2:2 split puts all prefill in
                // island 0 and all decode in island 1, so every handoff
                // crosses the spine; the 1:3 and 3:1 splits each keep one
                // prefill-decode pair inside an island (GPU 0 - 1 and
                // GPU 2 - 3 respectively) and see both kinds.
                if e.prefill_pods == 2 {
                    assert_eq!(o.intra_transfers, 0);
                } else {
                    assert!(o.intra_transfers > 0 && o.spine_transfers > 0);
                }
            }
        }
    }
    // The acceptance contrast: Samoyeds has a best feasible split, dense
    // has none at all.
    let (samoyeds, dense) = report
        .ratio_contrast()
        .expect("samoyeds cells are feasible");
    assert!(samoyeds.1 >= 1);
    assert!(dense.is_none());
    // The designated run's trace carries the transfer spans.
    let json = report.chrome_trace();
    assert!(json.contains("\"kv transfer started\""));
    assert!(json.contains("\"kv transfer complete\""));
    let rows = report.render_markdown();
    assert!(rows.iter().any(|r| r.contains("| Dense | 1:3 | OOM |")));
    assert!(rows.iter().any(|r| r.contains("best split")));
}

#[test]
fn autoscale_sweep_shows_samoyeds_absorbing_the_spike_with_fewer_scale_outs() {
    let report = FleetAutoscaleReport::sweep(
        &MoeModelConfig::qwen2_moe(),
        &FleetAutoscaleReport::demo_trace(),
        &SchedulerConfig::default(),
    );
    // 3 fleets x 2 policies x 2 SLOs.
    assert_eq!(report.entries.len(), 12);
    // Every cell conserves the trace.
    for e in &report.entries {
        assert_eq!(
            e.metrics.completed + e.metrics.rejected,
            report.num_requests,
            "{} {} {}",
            e.fleet.name(),
            e.policy.name(),
            e.slo_ms
        );
        assert_eq!(e.metrics.rejected, 0);
    }
    // The headline: at the tight SLO, the dense fleet needs more
    // scale-outs than the Samoyeds fleet to absorb the same spike.
    let (samoyeds, dense) = report.scale_out_contrast().expect("both cells exist");
    assert!(
        samoyeds < dense,
        "samoyeds {samoyeds} scale-outs vs dense {dense}"
    );
    let rows = report.render_markdown();
    // All 12 sweep cells render, plus the headline line, whose text is
    // unique to the Some branch: a sweep that loses the contrast cell fails
    // here instead of matching the "no scale-out contrast" fallback.
    assert!(rows.len() >= 3 + 12 + 2, "{} rows", rows.len());
    assert!(rows.iter().any(|r| r.contains("A100 pod + 4070S")));
    assert!(
        rows.iter().any(|r| r.contains("absorb the spike")),
        "{rows:?}"
    );

    // The mixed fleet at the tight SLO: the heterogeneous pair is the
    // floor; the burst pushes past it and the fleet comes back down
    // afterwards.
    let mixed = report
        .entries
        .iter()
        .find(|e| {
            e.fleet == FleetKind::Mixed
                // Exact: selects the sweep cell built from this literal,
                // with no arithmetic in between.
                && e.slo_ms == 400.0
                && e.policy == DispatchPolicy::LeastOutstandingTokens
        })
        .expect("mixed cell exists");
    let m = &mixed.metrics;
    assert!(m.scale_outs() >= 1, "{:?}", m.scale_events);
    assert!(m.scale_ins() >= 1, "{:?}", m.scale_events);
    assert!(m.replicas > 2);
    let first_out = m
        .scale_events
        .iter()
        .find(|e| e.kind == ScaleKind::Out)
        .expect("scale-out happened");
    assert!(m
        .scale_events
        .iter()
        .any(|e| e.kind == ScaleKind::In && e.at_ms > first_out.at_ms));
    for e in &m.scale_events {
        assert!(e.replicas_after >= 2, "floor violated: {e:?}");
    }
    // Both device classes took traffic.
    assert!(m.per_replica[0].description.contains("cluster 2x"));
    assert!(m.per_replica[1].description.contains("4070"));
    assert!(m.per_replica[0].assigned > 0);
    assert!(m.per_replica[1].assigned > 0);
    // The timeline renders with one row per event.
    assert_eq!(m.render_timeline().len(), 2 + m.scale_events.len());
}

#[test]
fn topology_sweep_shows_the_spine_becoming_the_straggler() {
    let report = TopologySweepReport::sweep(&MoeModelConfig::qwen2_moe(), 4096, 1.5, 42);
    // 3 layouts x 3 engines.
    assert_eq!(report.entries.len(), 9);
    // The acceptance cell: on skewed routing the 2x4 NVLink+IB layout's
    // collective time is spine-bound and exceeds the flat-NVLink baseline.
    let (hier, flat, spine) = report.spine_bound_contrast().expect("cells exist");
    assert!(hier > flat, "hierarchical {hier} vs flat {flat}");
    assert!(spine > 0.0);
    assert!(spine > hier - spine, "spine {spine} of {hier} is the bound");
    // Flat cells never pay the spine; hierarchical cells always do.
    for e in &report.entries {
        if let Some(o) = &e.outcome {
            if e.num_islands == 1 {
                assert_eq!(o.spine_ms, 0.0, "{}", e.topology);
                assert_eq!(o.intra_island_ms, o.all_to_all_ms);
            } else {
                assert!(o.spine_ms > 0.0, "{}", e.topology);
            }
        }
    }
    let rows = report.render_markdown();
    // The 3x3 sweep table and the headline, whose text is unique to the
    // Some branch: a sweep that loses the spine-bound cell fails here
    // instead of matching the fallback.
    assert!(rows.len() >= 3 + 9 + 2, "{} rows", rows.len());
    assert!(rows.iter().any(|r| r.contains("InfiniBand NDR spine")));
    assert!(
        rows.iter().any(|r| r.contains("-> spine-bound")),
        "{rows:?}"
    );

    // The placement table's setup: one replica of each hot expert per
    // island beats both capacity-greedy and pod-wide hot replication on
    // spine time and on step time.
    let model = MoeModelConfig::qwen2_moe();
    let plan = TopKRouter::for_config(&model, 9).with_skew(1.5).route(4096);
    let topology =
        ClusterTopology::symmetric(2, 4, LinkSpec::nvlink3(), LinkSpec::infiniband_ndr()).unwrap();
    let placement = render_topology_placement(&model, &topology, 4096, 1.5, 9);
    assert!(placement.len() >= 6, "{} rows", placement.len());
    assert!(placement.iter().any(|r| r.contains("replicate-hot-island")));
    let step = |strategy| {
        ClusterSimulator::new(
            ClusterConfig::new(DeviceSpec::a100_40g(), 8, ClusterEngine::Samoyeds)
                .with_topology(topology.clone())
                .with_strategy(strategy),
            model.clone(),
        )
        .step(&plan)
        .unwrap()
    };
    let per_island = step(PlacementStrategy::ReplicateHotPerIsland { hot: 2 });
    for strategy in [
        PlacementStrategy::CapacityGreedy,
        PlacementStrategy::ReplicateHot { hot: 2 },
    ] {
        let other = step(strategy);
        assert!(
            per_island.spine_ms < other.spine_ms,
            "spine {} vs {} {}",
            per_island.spine_ms,
            strategy.name(),
            other.spine_ms
        );
        assert!(
            per_island.layer_time_ms < other.layer_time_ms,
            "step {} vs {} {}",
            per_island.layer_time_ms,
            strategy.name(),
            other.layer_time_ms
        );
    }
}

#[test]
fn accuracy_pipeline_runs_for_every_method() {
    let task = ProxyTask::bert_like("integration", 1);
    for method in [
        PruneMethod::Magnitude,
        PruneMethod::WoodFisher,
        PruneMethod::SparseGpt,
    ] {
        let report = task
            .evaluate(PruneFormat::Samoyeds(SamoyedsConfig::DEFAULT), method)
            .unwrap();
        assert!(report.f1 > 50.0 && report.f1 <= 100.0);
        assert!(report.retained_energy > 0.5);
    }
}

#[test]
fn experiment_harness_smoke() {
    use samoyeds_bench::experiments::{fig14_moe_layer, table3_max_batch};
    let rows = table3_max_batch();
    assert!(rows.len() >= 8);
    assert!(rows.iter().any(|r| r.contains("Mixtral-8x22B")));
    let rows = fig14_moe_layer();
    assert!(rows.iter().any(|r| r.contains("NS")));
}

/// A step of exactly `tokens` tokens: one prefill chunk plus `tokens / 2`
/// decodes at assorted context lengths.
fn step_of(tokens: usize) -> (Vec<RunningRequest>, StepBatch) {
    let decodes = tokens / 2;
    let request = |id: u64, prompt_len: usize| Request {
        id,
        arrival_ms: 0.0,
        prompt_len,
        output_len: 64,
    };
    let mut prefilling = RunningRequest::new(request(0, 4096), 0.0);
    prefilling.prefilled = 37;
    let mut running = vec![prefilling];
    for d in 0..decodes {
        let mut r = RunningRequest::new(request(d as u64 + 1, 16 + 7 * d % 500), 0.0);
        r.prefilled = r.request.prompt_len;
        r.decoded = 1 + d % 60;
        running.push(r);
    }
    let batch = StepBatch {
        prefill: vec![(0, tokens - decodes)],
        decode: (1..=decodes).collect(),
    };
    (running, batch)
}

#[test]
fn single_gpu_step_cost_equals_the_full_plan_recombination_bit_for_bit() {
    // The serving backend prices from counts-only routing and per-call price
    // memos; recombining the step from the full routing plan and a fresh
    // engine, term by term, must give the same bits. Every backend routes
    // with one scratch, as a fleet's replicas do, so each step index's
    // stream is kept, counted and extended across sizes and backends.
    let scfg = SchedulerConfig::default();
    let model = MoeModelConfig::qwen2_moe();
    let route = RefCell::default();
    for device in [DeviceSpec::a100_40g(), DeviceSpec::rtx4070_super()] {
        for kind in [EngineKind::Samoyeds, EngineKind::Transformers] {
            let backend = SingleGpuBackend::new(device.clone(), &model, kind, &scfg);
            let router = TopKRouter::for_config(&model, scfg.routing_seed);
            let engine = Engine::new(kind, device.clone());
            for tokens in [1usize, 8, 64, 65, 216, 2048] {
                let (running, batch) = step_of(tokens);
                assert_eq!(batch.total_tokens(), tokens);
                for step_index in [0u64, 1, 17, 4_321, u64::MAX] {
                    let plan = router.route_seeded(scfg.routing_seed ^ step_index, tokens);
                    let moe_ms = engine.moe_layer_cost(&model, tokens, &plan).time_ms;
                    let attention_ms =
                        attention_step_ms(&device, &model, scfg.attention, &batch, &running);
                    let other_ms = auxiliary_step_ms(&device, &model, tokens);
                    let expected = StepCost::compute_only(
                        (moe_ms + attention_ms + other_ms) * model.num_layers as f64
                            + scfg.step_overhead_ms,
                    );
                    let priced = backend.step_cost(&StepWorkload {
                        batch: &batch,
                        running: &running,
                        step_index,
                        route: &route,
                    });
                    assert_eq!(
                        priced.compute_ms.to_bits(),
                        expected.compute_ms.to_bits(),
                        "{} {} tokens={tokens} step={step_index}",
                        device.name,
                        kind.name()
                    );
                    assert_eq!(priced, expected);
                }
            }
        }
    }
}

#[test]
fn cluster_step_cost_equals_the_full_plan_recombination_bit_for_bit() {
    // The pod backend prices from counts per (expert, source rank) and
    // never builds a routing plan; recombining the step from the full plan
    // (its loads, the placement with its round-robin fallback, the cluster
    // step and the data-parallel attention and auxiliary costs) must give
    // the same bits. Every pod routes with one scratch, as a fleet's
    // replicas do, and pods of 2, 3 and 4 ranks count one kept stream.
    let scfg = SchedulerConfig::default();
    let model = MoeModelConfig::qwen2_moe();
    let route = RefCell::default();
    let islands =
        ClusterTopology::symmetric(2, 2, LinkSpec::nvlink3(), LinkSpec::infiniband_ndr()).unwrap();
    let a100 = |gpus, engine| ClusterConfig::new(DeviceSpec::a100_40g(), gpus, engine);
    let pods = [
        // The prefill pod of the `pods_disagg_faults` benchmark workload.
        a100(4, ClusterEngine::Samoyeds).with_topology(islands.clone()),
        // Flat replication: the rank-local tier and the leftover rotation.
        a100(4, ClusterEngine::Samoyeds).with_strategy(PlacementStrategy::ReplicateHot { hot: 2 }),
        a100(4, ClusterEngine::Samoyeds)
            .with_topology(islands)
            .with_strategy(PlacementStrategy::ReplicateHotPerIsland { hot: 2 }),
        // Uneven residency: 3 ranks.
        a100(3, ClusterEngine::Dense),
        // The weight-only ("+W") pricing path.
        a100(4, ClusterEngine::Venom),
    ];
    let router = TopKRouter::for_config(&model, scfg.routing_seed);
    let layers = model.num_layers as f64;
    for cluster in pods {
        let backend = ClusterBackend::new(cluster.clone(), model.clone(), &scfg);
        let sim = ClusterSimulator::new(cluster.clone(), model.clone());
        let g = cluster.num_gpus;
        for tokens in [1usize, 8, 64, 65, 216, 2048] {
            let (running, batch) = step_of(tokens);
            let kv_tokens: usize = running.iter().map(|r| r.context_tokens()).sum();
            let (kv_local, step_local) = (kv_tokens.div_ceil(g), tokens.div_ceil(g));
            let attention_ms =
                attention_step_ms(&cluster.device, &model, scfg.attention, &batch, &running)
                    / g as f64;
            let other_ms = auxiliary_step_ms(&cluster.device, &model, tokens) / g as f64;
            for step_index in [0u64, 1, 17, 4_321, u64::MAX] {
                let plan = router.route_seeded(scfg.routing_seed ^ step_index, tokens);
                let loads = plan.expert_loads();
                let report = cluster
                    .strategy
                    .place_on(&loads, sim.topology(), sim.memory(), kv_local, step_local)
                    .or_else(|_| {
                        PlacementStrategy::RoundRobin.place(
                            &loads,
                            g,
                            sim.memory(),
                            kv_local,
                            step_local,
                        )
                    })
                    .and_then(|placement| sim.step_with_placement(&plan, placement))
                    .unwrap();
                let expected = StepCost {
                    compute_ms: (report.straggler_ms() + attention_ms + other_ms) * layers
                        + scfg.step_overhead_ms,
                    collective_ms: report.all_to_all_ms * layers,
                    intra_island_ms: report.intra_island_ms * layers,
                    spine_ms: report.spine_ms * layers,
                    overlap: backend.overlap(),
                };
                let priced = backend.step_cost(&StepWorkload {
                    batch: &batch,
                    running: &running,
                    step_index,
                    route: &route,
                });
                let at = format!("{} tokens={tokens} step={step_index}", backend.describe());
                for (what, got, want) in [
                    ("compute", priced.compute_ms, expected.compute_ms),
                    ("collective", priced.collective_ms, expected.collective_ms),
                    ("intra", priced.intra_island_ms, expected.intra_island_ms),
                    ("spine", priced.spine_ms, expected.spine_ms),
                ] {
                    assert_eq!(got.to_bits(), want.to_bits(), "{what} {at}");
                }
                assert_eq!(priced, expected, "{at}");
            }
        }
    }
}

#[test]
fn counts_only_routing_matches_the_full_plan_loads() {
    // Every Table 2 model, plus the edge inputs: a model that routes no
    // token (`top_k = 0`), every expert per token, and one expert per token.
    let mut no_routing = MoeModelConfig::qwen2_moe();
    no_routing.top_k = 0;
    let routers = MoeModelConfig::table2()
        .iter()
        .chain([&no_routing])
        .map(|config| (config.name.clone(), TopKRouter::for_config(config, 3)))
        .chain([
            ("8 of 8".to_string(), TopKRouter::new(8, 8, 3).unwrap()),
            ("1 of 8".to_string(), TopKRouter::new(8, 1, 3).unwrap()),
        ])
        .collect::<Vec<_>>();
    for (name, base) in &routers {
        for skew in [0.0, 1.2, 1100.0] {
            let router = base.clone().with_skew(skew);
            for tokens in [0usize, 1, 7, 64, 65, 216, 2048] {
                for seed in [0u64, 11, u64::MAX] {
                    let plan = router.route_seeded(seed, tokens);
                    let expert_loads = plan.expert_loads();
                    let at = format!("{name} skew={skew} tokens={tokens} seed={seed}");
                    // One rank is the per-expert loads; more ranks than
                    // tokens leave whole columns empty.
                    for ranks in [1usize, 2, 3, 4, 8] {
                        let loads = router.route_loads_seeded(seed, tokens, ranks);
                        assert_eq!(loads, plan.rank_loads(ranks), "{at} ranks={ranks}");
                        let rows: Vec<usize> = loads
                            .chunks_exact(ranks)
                            .map(|row| row.iter().sum())
                            .collect();
                        assert_eq!(rows, expert_loads, "{at} ranks={ranks}");
                    }
                    // With `top_k = 0` this pins an empty plan and all-zero loads.
                    assert_eq!(plan.total_assignments(), tokens * plan.top_k, "{at}");
                    if plan.top_k == plan.num_experts() {
                        assert!(expert_loads.iter().all(|&l| l == tokens), "{at}");
                    }
                }
            }
        }
    }
}

#[test]
fn a_reused_engine_prices_like_a_fresh_one_bit_for_bit() {
    // An engine builds its kernels on the first pricing call and keeps them
    // and every price it computes. Price once under the full Samoyeds
    // options, switch to each of the golden price table's engine
    // configurations, then walk its grid twice: in order, and in reverse
    // model and token order, where every price is a cache hit and
    // consecutive cells cross models of different sizes. Every cell must
    // match a fresh engine's price, so a kernel or a price cached under the
    // old options, or under another model's shape, would show up here.
    let configurations = [
        (EngineKind::Transformers, SamoyedsOptions::FULL),
        (EngineKind::MegaBlocks, SamoyedsOptions::FULL),
        (EngineKind::VllmDs, SamoyedsOptions::FULL),
        (EngineKind::Pit, SamoyedsOptions::FULL),
        (EngineKind::Samoyeds, SamoyedsOptions::FULL),
        (EngineKind::Samoyeds, SamoyedsOptions::WEIGHT_ONLY),
        (EngineKind::Samoyeds, SamoyedsOptions::WEIGHT_INPUT),
        (EngineKind::Samoyeds, SamoyedsOptions::WEIGHT_INPUT_LAYOUT),
    ];
    let models = [
        MoeModelConfig::qwen2_moe(),
        MoeModelConfig::openmoe_34b(),
        MoeModelConfig::mixtral_8x7b(),
    ];
    let warmup_model = MoeModelConfig::qwen2_moe();
    let warmup_plan = TopKRouter::for_config(&warmup_model, 7).route(64);
    let mut cells = 0;
    for device in [DeviceSpec::a100_40g(), DeviceSpec::rtx4070_super()] {
        for (kind, options) in configurations {
            let warm = Engine::new(kind, device.clone());
            warm.moe_layer_cost(&warmup_model, 64, &warmup_plan);
            let reused = warm.with_samoyeds_options(options);
            let mut grid = Vec::new();
            for model in &models {
                let router = TopKRouter::for_config(model, 7);
                for tokens in [0usize, 1, 7, 64, 65, 216, 2048] {
                    let plan = router.route(tokens);
                    let fresh = Engine::new(kind, device.clone())
                        .with_samoyeds_options(options)
                        .moe_layer_cost(model, tokens, &plan)
                        .time_ms;
                    grid.push((model, tokens, plan, fresh));
                }
            }
            for (model, tokens, plan, fresh) in grid.iter().chain(grid.iter().rev()) {
                let priced = reused.moe_layer_cost(model, *tokens, plan).time_ms;
                assert_eq!(
                    priced.to_bits(),
                    fresh.to_bits(),
                    "{} {} {options:?} {} tokens={tokens}",
                    device.name,
                    kind.name(),
                    model.name
                );
                cells += 1;
            }
        }
    }
    assert_eq!(cells, 2 * 336);
}
