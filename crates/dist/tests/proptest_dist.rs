//! Property-based invariants of the distributed layer: token conservation
//! across expert-parallel dispatch (flat and island layouts), memory-budget
//! safety of every placement (topology-aware included), and monotonicity
//! of the hierarchical collective cost.

use proptest::prelude::*;
use samoyeds_dist::{
    replan_after_crash, ClusterBackend, ClusterConfig, ClusterEngine, ClusterMemoryModel,
    ClusterSimulator, ClusterTopology, ExpertPlacement, FlowMatrix, LinkSpec, PlacementStrategy,
};
use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::router::TopKRouter;
use samoyeds_serve::{ExecutionBackend, Scheduler, SchedulerConfig, TraceConfig};

fn arb_strategy() -> impl Strategy<Value = PlacementStrategy> {
    (0usize..4, 1usize..4).prop_map(|(which, hot)| match which {
        0 => PlacementStrategy::RoundRobin,
        1 => PlacementStrategy::CapacityGreedy,
        2 => PlacementStrategy::ReplicateHot { hot },
        _ => PlacementStrategy::ReplicateHotPerIsland { hot },
    })
}

/// A uniform exchange over `gpus` endpoints with intra-island per-pair
/// bytes `intra` and cross-island per-pair bytes `cross` under `topology`.
fn split_flows(topology: &ClusterTopology, intra: f64, cross: f64) -> FlowMatrix {
    let gpus = topology.num_gpus();
    let mut flows = FlowMatrix::new(gpus);
    for src in 0..gpus {
        for dst in 0..gpus {
            if src == dst {
                continue;
            }
            if topology.island_of(src) == topology.island_of(dst) {
                flows.add(src, dst, intra);
            } else {
                flows.add(src, dst, cross);
            }
        }
    }
    flows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full cluster step conserves assignments end to end, through
    /// placement, dispatch and the all-to-all accounting.
    #[test]
    fn cluster_step_conserves_tokens(
        tokens in 16usize..512,
        gpus in 1usize..9,
        strategy in arb_strategy(),
        skew in 0.0f64..1.6,
        seed in any::<u64>(),
    ) {
        let model = MoeModelConfig::qwen2_moe();
        let plan = TopKRouter::for_config(&model, seed).with_skew(skew).route(tokens);
        let sim = ClusterSimulator::new(
            ClusterConfig::new(DeviceSpec::a100_40g(), gpus, ClusterEngine::Samoyeds)
                .with_strategy(strategy),
            model,
        );
        // Placement can legitimately fail (e.g. replicating hot experts on
        // a cluster with no headroom); when it succeeds, conservation and
        // the step-time structure must hold.
        if let Ok(report) = sim.step(&plan) {
            prop_assert_eq!(report.sharded_assignments, plan.total_assignments());
            prop_assert!(report.layer_time_ms >= report.straggler_ms());
            if gpus == 1 {
                prop_assert_eq!(report.all_to_all_ms, 0.0);
            }
            for u in report.utilization() {
                prop_assert!((0.0..=1.0).contains(&u));
            }
        }
    }

    /// Continuous batching over the cluster backend never admits past the
    /// straggler GPU's memory budget: every executed step's footprint (and
    /// the run's peak) stays within per-GPU usable memory, whatever the
    /// trace, pod size, fabric or weight representation.
    #[test]
    fn cluster_backend_admission_respects_the_per_gpu_budget(
        num_requests in 1usize..20,
        rate in 1.0f64..32.0,
        prompt_hi in 16usize..384,
        output_hi in 2usize..24,
        gpus in 1usize..9,
        engine_idx in 0usize..3,
        device_idx in 0usize..2,
        seed in any::<u64>(),
    ) {
        let engine = ClusterEngine::all()[engine_idx];
        let device = if device_idx == 0 {
            DeviceSpec::rtx4070_super()
        } else {
            DeviceSpec::a100_40g()
        };
        let model = MoeModelConfig::qwen2_moe();
        let trace = TraceConfig {
            num_requests,
            arrival_rate_rps: rate,
            prompt_len_range: (8, prompt_hi.max(9)),
            output_len_range: (1, output_hi),
            seed,
        }
        .generate();
        let scfg = SchedulerConfig::default();
        let backend = ClusterBackend::new(
            ClusterConfig::new(device, gpus, engine),
            model.clone(),
            &scfg,
        );
        let budget_bytes = backend.memory().budget_bytes();
        let result = Scheduler::from_backend(backend, scfg).run(&trace);
        // Request conservation still holds behind the cluster backend.
        prop_assert_eq!(result.completed.len() + result.rejected.len(), trace.len());
        prop_assert_eq!(result.budget_bytes, budget_bytes);
        for step in &result.steps {
            prop_assert!(
                step.memory_bytes <= budget_bytes,
                "step used {:.2} of {:.2} GiB on the straggler GPU",
                step.memory_bytes / (1u64 << 30) as f64,
                budget_bytes / (1u64 << 30) as f64,
            );
            prop_assert!(step.time_ms.is_finite() && step.time_ms > 0.0);
            prop_assert!(step.collective_ms >= 0.0);
            if gpus == 1 {
                prop_assert_eq!(step.collective_ms, 0.0);
            }
        }
        prop_assert!(result.peak_memory_bytes <= budget_bytes);
    }

    /// The hierarchical collective cost never decreases when more bytes
    /// cross the island boundary (intra-island traffic held fixed).
    #[test]
    fn hierarchical_cost_is_monotone_in_cross_island_bytes(
        islands in 2usize..5,
        gpus_per_island in 1usize..5,
        intra_kb in 0u32..4096,
        cross_kb in 0u32..4096,
        extra_kb in 1u32..4096,
    ) {
        let topology = ClusterTopology::symmetric(
            islands,
            gpus_per_island,
            LinkSpec::nvlink3(),
            LinkSpec::infiniband_ndr(),
        )
        .unwrap();
        let intra = intra_kb as f64 * 1024.0;
        let cross = cross_kb as f64 * 1024.0;
        let base = topology.all_to_all_ms(&split_flows(&topology, intra, cross));
        let more = topology.all_to_all_ms(&split_flows(
            &topology,
            intra,
            cross + extra_kb as f64 * 1024.0,
        ));
        prop_assert!(more.spine_ms >= base.spine_ms);
        prop_assert!(more.total_ms() >= base.total_ms());
        prop_assert!(more.cross_island_bytes > base.cross_island_bytes);
        // Intra-island traffic did not change, so neither does its phase.
        prop_assert_eq!(more.intra_ms, base.intra_ms);
    }

    /// Growing a fleet by whole islands (fixed island size, uniform
    /// per-pair traffic) never makes the collective cheaper: every added
    /// island adds spine endpoints and cross-island bytes.
    #[test]
    fn hierarchical_cost_is_monotone_in_island_count(
        gpus_per_island in 1usize..5,
        bytes_kb in 1u32..8192,
        max_islands in 2usize..6,
    ) {
        let bytes = bytes_kb as f64 * 1024.0;
        let mut previous = 0.0f64;
        for islands in 1..=max_islands {
            let topology = ClusterTopology::symmetric(
                islands,
                gpus_per_island,
                LinkSpec::nvlink3(),
                LinkSpec::infiniband_ndr(),
            )
            .unwrap();
            let cost = topology.all_to_all_ms(&split_flows(&topology, bytes, bytes));
            prop_assert!(
                cost.total_ms() >= previous,
                "islands {} cost {} < previous {}",
                islands,
                cost.total_ms(),
                previous
            );
            if islands == 1 {
                prop_assert_eq!(cost.spine_ms, 0.0);
                prop_assert_eq!(cost.cross_island_bytes, 0.0);
            } else if gpus_per_island > 0 {
                prop_assert!(cost.spine_ms > 0.0);
            }
            previous = cost.total_ms();
        }
    }

    /// Token conservation holds across island layouts: the full
    /// hierarchical cluster step executes exactly the plan's token-expert
    /// assignments, whatever the island layout, placement strategy or skew,
    /// and a single-island layout never touches the spine. The same holds
    /// for a synthetic round-robin placement, optionally with expert 0 on
    /// every rank, whose tokens then never leave their source rank.
    #[test]
    fn island_sharded_steps_conserve_tokens(
        tokens in 16usize..512,
        islands in 1usize..5,
        gpus_per_island in 1usize..4,
        strategy in arb_strategy(),
        skew in 0.0f64..1.6,
        seed in any::<u64>(),
        replicate_first in any::<bool>(),
    ) {
        let model = MoeModelConfig::qwen2_moe();
        let router = TopKRouter::for_config(&model, seed).with_skew(skew);
        let plan = router.route(tokens);
        let gpus = islands * gpus_per_island;
        let topology = ClusterTopology::symmetric(
            islands,
            gpus_per_island,
            LinkSpec::nvlink3(),
            LinkSpec::infiniband_ndr(),
        )
        .unwrap();
        let sim = ClusterSimulator::new(
            ClusterConfig::new(DeviceSpec::a100_40g(), gpus, ClusterEngine::Samoyeds)
                .with_topology(topology.clone())
                .with_strategy(strategy),
            model.clone(),
        );
        if let Ok(report) = sim.step(&plan) {
            prop_assert_eq!(report.sharded_assignments, plan.total_assignments());
            prop_assert!(report.layer_time_ms >= report.straggler_ms());
            prop_assert!(report.spine_ms >= 0.0 && report.intra_island_ms >= 0.0);
            if islands == 1 {
                prop_assert_eq!(report.spine_ms, 0.0);
                prop_assert_eq!(report.cross_island_bytes, 0.0);
            }
            if gpus == 1 {
                prop_assert_eq!(report.all_to_all_ms, 0.0);
            }
            for u in report.utilization() {
                prop_assert!((0.0..=1.0).contains(&u));
            }
            // The counts entry point prices the router's per-(expert,
            // source rank) counts exactly as the plan entry point prices
            // the plan.
            let counted = sim
                .step_with_rank_loads(
                    tokens,
                    &router.route_loads_seeded(seed, tokens, gpus),
                    report.placement.clone(),
                )
                .unwrap();
            prop_assert_eq!(&counted.per_gpu_compute_ms, &report.per_gpu_compute_ms);
            prop_assert_eq!(counted.all_to_all_ms, report.all_to_all_ms);
            prop_assert_eq!(counted.intra_island_ms, report.intra_island_ms);
            prop_assert_eq!(counted.spine_ms, report.spine_ms);
            prop_assert_eq!(counted.cross_island_bytes, report.cross_island_bytes);
            prop_assert_eq!(counted.sharded_assignments, report.sharded_assignments);
        }

        let mut gpu_experts: Vec<Vec<usize>> = vec![Vec::new(); gpus];
        for e in 0..model.num_experts {
            gpu_experts[e % gpus].push(e);
        }
        if replicate_first {
            for owned in gpu_experts.iter_mut().skip(1) {
                owned.push(0);
            }
        }
        let placement = ExpertPlacement::new(PlacementStrategy::RoundRobin, &gpu_experts);
        let everywhere = placement
            .replica_counts(model.num_experts)
            .iter()
            .all(|&c| c == gpus);
        // Each token crosses the spine iff its expert has no replica on its
        // own rank and its sole owner lives in another island.
        let token_bytes = model.hidden_size as f64 * 2.0;
        let mut crossing = 0.0;
        for (e, routed) in plan.expert_tokens.iter().enumerate() {
            for &t in routed {
                let src = t as usize % gpus;
                let stays = e == 0 && replicate_first;
                if !stays && topology.island_of(src) != topology.island_of(e % gpus) {
                    crossing += 2.0 * token_bytes;
                }
            }
        }
        let sim = ClusterSimulator::new(
            ClusterConfig::new(DeviceSpec::a100_40g(), gpus, ClusterEngine::Samoyeds)
                .with_topology(topology),
            model,
        );
        let report = sim.step_with_placement(&plan, placement).unwrap();
        prop_assert_eq!(report.sharded_assignments, plan.total_assignments());
        prop_assert_eq!(report.cross_island_bytes, crossing);
        if everywhere {
            prop_assert_eq!(report.all_to_all_ms, 0.0);
        }
    }

    /// Topology-aware placement never violates per-GPU memory budgets:
    /// whenever `place_on` succeeds over an island layout, every GPU —
    /// including those carrying per-island hot replicas — fits weights, KV
    /// share and activation workspace.
    #[test]
    fn topology_placement_respects_memory_budgets(
        islands in 1usize..5,
        gpus_per_island in 1usize..4,
        hot in 1usize..5,
        resident_tokens in 0usize..8192,
        step_tokens in 1usize..4096,
        engine_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        let engine = ClusterEngine::all()[engine_idx];
        let model = MoeModelConfig::qwen2_moe();
        let device = DeviceSpec::a100_40g();
        let memory = ClusterMemoryModel::new(&device, engine, &model);
        let topology = ClusterTopology::symmetric(
            islands,
            gpus_per_island,
            LinkSpec::nvlink3(),
            LinkSpec::infiniband_ndr(),
        )
        .unwrap();
        let loads = TopKRouter::for_config(&model, seed).route(256).expert_loads();
        let strategy = PlacementStrategy::ReplicateHotPerIsland { hot };
        if let Ok(placement) = strategy.place_on(
            &loads,
            &topology,
            &memory,
            resident_tokens,
            step_tokens,
        ) {
            prop_assert_eq!(placement.num_gpus(), topology.num_gpus());
            // Hot experts own exactly one replica per island, the rest one
            // replica total.
            let replicas = placement.replica_counts(model.num_experts);
            prop_assert!(replicas.iter().all(|&c| c == 1 || c == islands));
            if islands > 1 {
                prop_assert!(
                    replicas.iter().filter(|&&c| c == islands).count()
                        >= hot.min(model.num_experts)
                );
            }
            for owned in placement.assignments() {
                let bytes = memory.gpu_bytes(owned.len(), resident_tokens, step_tokens);
                prop_assert!(
                    bytes <= memory.budget_bytes(),
                    "GPU with {} experts uses {:.2} of {:.2} GiB",
                    owned.len(),
                    bytes / (1u64 << 30) as f64,
                    memory.budget_bytes() / (1u64 << 30) as f64,
                );
            }
            prop_assert!(placement
                .validate(&memory, resident_tokens, step_tokens)
                .is_ok());
        }
    }

    /// Whenever a placement is produced, no GPU exceeds its memory budget —
    /// weights, KV share and activation workspace included.
    #[test]
    fn placement_respects_memory_budgets(
        gpus in 1usize..9,
        strategy in arb_strategy(),
        resident_tokens in 0usize..8192,
        step_tokens in 1usize..4096,
        engine_idx in 0usize..3,
        device_idx in 0usize..2,
        seed in any::<u64>(),
    ) {
        let engine = ClusterEngine::all()[engine_idx];
        let device = if device_idx == 0 {
            DeviceSpec::rtx4070_super()
        } else {
            DeviceSpec::a100_40g()
        };
        let model = MoeModelConfig::qwen2_moe();
        let memory = ClusterMemoryModel::new(&device, engine, &model);
        let loads = TopKRouter::for_config(&model, seed).route(256).expert_loads();
        match strategy.place(&loads, gpus, &memory, resident_tokens, step_tokens) {
            Ok(placement) => {
                prop_assert_eq!(placement.num_gpus(), gpus);
                // Every routed expert is owned by at least one GPU.
                let replicas = placement.replica_counts(model.num_experts);
                prop_assert!(replicas.iter().all(|&c| c >= 1));
                // Direct budget check, not just validate()'s word.
                for owned in placement.assignments() {
                    let bytes = memory.gpu_bytes(owned.len(), resident_tokens, step_tokens);
                    prop_assert!(
                        bytes <= memory.budget_bytes(),
                        "GPU with {} experts uses {:.2} of {:.2} GiB",
                        owned.len(),
                        bytes / (1u64 << 30) as f64,
                        memory.budget_bytes() / (1u64 << 30) as f64,
                    );
                }
                prop_assert!(placement.validate(&memory, resident_tokens, step_tokens).is_ok());
            }
            Err(_) => {
                // An error must mean the dense-est GPU really cannot fit:
                // the per-GPU expert capacity is short of a balanced share
                // (or replication inflated the requirement).
                let capacity = memory.max_experts_per_gpu(resident_tokens, step_tokens);
                let needed = model.num_experts.div_ceil(gpus);
                prop_assert!(
                    capacity < needed + 3,
                    "placement failed with capacity {capacity} and balanced need {needed}"
                );
            }
        }
    }

    /// Post-recovery placements never exceed per-GPU memory budgets:
    /// whenever `replan_after_crash` produces a plan, every survivor —
    /// including those that absorbed the crashed GPU's experts — still fits
    /// weights, KV share and activation workspace; the crashed GPU is left
    /// empty; no expert lost coverage; and the priced weight transfer is
    /// finite.
    #[test]
    fn recovery_replans_respect_memory_budgets(
        islands in 1usize..5,
        gpus_per_island in 1usize..4,
        strategy in arb_strategy(),
        crashed_raw in 0usize..16,
        resident_tokens in 0usize..8192,
        step_tokens in 1usize..4096,
        engine_idx in 0usize..3,
        use_checkpoint in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let engine = ClusterEngine::all()[engine_idx];
        let model = MoeModelConfig::qwen2_moe();
        let device = DeviceSpec::a100_40g();
        let memory = ClusterMemoryModel::new(&device, engine, &model);
        let topology = ClusterTopology::symmetric(
            islands,
            gpus_per_island,
            LinkSpec::nvlink3(),
            LinkSpec::infiniband_ndr(),
        )
        .unwrap();
        let loads = TopKRouter::for_config(&model, seed).route(256).expert_loads();
        // Nothing to crash if the healthy placement doesn't fit.
        let healthy = strategy.place_on(&loads, &topology, &memory, resident_tokens, step_tokens);
        let plan = healthy.ok().and_then(|placement| {
            let crashed = crashed_raw % topology.num_gpus();
            // The checkpoint host is modelled as a surviving GPU endpoint.
            let checkpoint = if use_checkpoint {
                Some((crashed + 1) % topology.num_gpus())
            } else {
                None
            };
            replan_after_crash(
                &placement,
                crashed,
                &loads,
                &topology,
                &memory,
                resident_tokens,
                step_tokens,
                checkpoint,
            )
            .ok()
            .map(|plan| (crashed, plan))
        });
        if let Some((crashed, plan)) = plan {
            // The crashed slot is kept (stable GPU ids) but owns nothing.
            prop_assert_eq!(plan.placement.num_gpus(), topology.num_gpus());
            prop_assert!(plan.placement.gpu_experts(crashed).is_empty());
            // No expert lost coverage in the recovered placement.
            let replicas = plan.placement.replica_counts(model.num_experts);
            prop_assert!(replicas.iter().all(|&c| c >= 1));
            // Direct budget check on every survivor, not just validate().
            for (gpu, owned) in plan.placement.assignments().enumerate() {
                if gpu == crashed {
                    continue;
                }
                let bytes = memory.gpu_bytes(owned.len(), resident_tokens, step_tokens);
                prop_assert!(
                    bytes <= memory.budget_bytes(),
                    "survivor {} with {} experts uses {:.2} of {:.2} GiB",
                    gpu,
                    owned.len(),
                    bytes / (1u64 << 30) as f64,
                    memory.budget_bytes() / (1u64 << 30) as f64,
                );
            }
            // Every move re-homes onto a survivor, never the crashed GPU.
            for m in &plan.moves {
                prop_assert!(m.to != crashed);
                prop_assert!(m.to < topology.num_gpus());
            }
            prop_assert!(plan.transfer_ms().is_finite());
            prop_assert!(plan.transfer_ms() >= 0.0);
            if !plan.moves.is_empty() {
                prop_assert!(plan.transfer_bytes > 0.0);
            }
        }
    }
}
