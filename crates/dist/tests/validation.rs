//! Static-validation coverage for the distributed layer: an empty topology,
//! over-budget placements listing every offending GPU, and fault schedules
//! checked against the island structure they target — each rejected before
//! any simulation runs.

use samoyeds_dist::{
    validate_fault_schedule, ClusterEngine, ClusterMemoryModel, ClusterTopology, ExpertPlacement,
    LinkSpec, PlacementStrategy,
};
use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_serve::{FaultKind, FaultSchedule, FaultSpec};

fn two_islands() -> ClusterTopology {
    ClusterTopology::symmetric(2, 4, LinkSpec::nvlink3(), LinkSpec::infiniband_ndr())
        .expect("2×4 topology is valid")
}

#[test]
fn empty_topology_is_denied() {
    let topology = ClusterTopology::new(Vec::new(), LinkSpec::infiniband_ndr());
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
    let placement = ExpertPlacement::new(
        PlacementStrategy::RoundRobin,
        &[over.clone(), Vec::new(), over, Vec::new()],
    );
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
