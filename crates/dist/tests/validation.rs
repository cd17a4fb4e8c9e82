//! Static-validation coverage for the distributed layer: topology
//! invariants surfaced all at once, over-budget placements listing every
//! offending GPU, and fault schedules checked against the island structure
//! they target — each rejected before any simulation runs.

use samoyeds_dist::{
    validate_fault_schedule, ClusterEngine, ClusterMemoryModel, ClusterTopology, ExpertPlacement,
    LinkSpec, PairOverride, PlacementStrategy,
};
use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_serve::{FaultKind, FaultSchedule, FaultSpec};

fn two_islands() -> ClusterTopology {
    ClusterTopology::symmetric(2, 4, LinkSpec::nvlink3(), LinkSpec::infiniband_ndr())
        .expect("2×4 topology is valid")
}

#[test]
fn topology_reports_every_override_problem_at_once() {
    let mut topology = two_islands();
    topology.pair_overrides = vec![
        // Out of range for 8 GPUs.
        PairOverride {
            a: 0,
            b: 12,
            link: LinkSpec::nvlink3(),
        },
        // Self link.
        PairOverride {
            a: 3,
            b: 3,
            link: LinkSpec::nvlink3(),
        },
        // A valid link...
        PairOverride {
            a: 1,
            b: 2,
            link: LinkSpec::nvlink3(),
        },
        // ...duplicated in reverse orientation.
        PairOverride {
            a: 2,
            b: 1,
            link: LinkSpec::nvlink3(),
        },
    ];
    let report = topology.validation();
    assert!(report.has("topology::override-out-of-range"));
    assert!(report.has("topology::override-self-link"));
    assert!(report.has("topology::override-duplicate"));
    assert_eq!(report.deny_count(), 3, "{}", report.render());
    // The first-error Result form still rejects it too.
    assert!(topology.validate().is_err());
}

#[test]
fn empty_topology_is_denied() {
    let topology = ClusterTopology {
        islands: Vec::new(),
        spine: LinkSpec::infiniband_ndr(),
        pair_overrides: Vec::new(),
    };
    let report = topology.validation();
    assert!(report.has("topology::empty"));
    assert!(topology.validate().is_err());
}

#[test]
fn clean_topology_produces_no_diagnostics() {
    assert!(two_islands().validation().is_clean());
}

#[test]
fn over_budget_placement_lists_every_offending_gpu() {
    let device = DeviceSpec::a100_40g();
    let model = MoeModelConfig::qwen2_moe();
    let memory = ClusterMemoryModel::new(&device, ClusterEngine::Dense, &model);
    // One expert more than a GPU can hold, on GPUs 0 and 2 (replicated
    // entries count against the budget like any owned expert); GPUs 1 and 3
    // stay empty. Both overloaded GPUs must be named.
    let too_many = memory.max_experts_per_gpu(4_096, 1_024) + 1;
    let over: Vec<usize> = (0..model.num_experts).cycle().take(too_many).collect();
    let placement = ExpertPlacement {
        strategy: PlacementStrategy::RoundRobin,
        gpu_experts: vec![over.clone(), Vec::new(), over, Vec::new()],
    };
    let report = placement.validate_diagnostics(&memory, 4_096, 1_024);
    let over: Vec<&str> = report
        .diagnostics()
        .iter()
        .filter(|d| d.code == "placement::over-budget")
        .map(|d| d.context.as_str())
        .collect();
    assert_eq!(
        over,
        vec!["ExpertPlacement gpu[0]", "ExpertPlacement gpu[2]"],
        "{}",
        report.render()
    );
    // The first-error Result form keeps its original message shape.
    let err = placement
        .validate(&memory, 4_096, 1_024)
        .expect_err("over budget");
    assert!(
        err.to_string().contains("GPU 0 exceeds its memory budget"),
        "unexpected message: {err}"
    );
}

#[test]
fn partition_on_single_island_topology_is_rejected_up_front() {
    let flat = ClusterTopology::flat(8, LinkSpec::nvlink3());
    let schedule = FaultSchedule::Scripted(vec![FaultSpec {
        at_ms: 1_000.0,
        kind: FaultKind::IslandPartition {
            island: 0,
            replicas: vec![0, 1],
            duration_ms: 500.0,
        },
    }]);
    let report = validate_fault_schedule(&schedule, &flat, 4);
    assert!(report.has("fault::partition-single-island"));
    assert!(!report.passes());
    // The same schedule against a real multi-island topology is fine.
    assert!(validate_fault_schedule(&schedule, &two_islands(), 4).is_clean());
}
