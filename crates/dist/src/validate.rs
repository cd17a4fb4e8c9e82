//! Cross-cutting static validation for cluster experiments: checks that
//! need both a fault schedule *and* the topology it is injected into.
//!
//! `samoyeds_serve::validate` owns the engine ([`Diagnostic`] /
//! [`ValidationReport`]) and the controller-local checks; this module adds
//! the checks only the distributed layer can make, because only it knows
//! the cluster's island structure:
//!
//! * `fault::partition-single-island` (deny) — an
//!   [`IslandPartition`](samoyeds_serve::FaultKind::IslandPartition) on a
//!   single-island topology: there is no spine for the island to partition
//!   away from, so the fault models nothing physical;
//! * `fault::island-out-of-range` (deny) — a partition naming an island id
//!   the topology does not have;
//! * `fault::partition-replica-out-of-range` (deny) — a partition listing
//!   a replica slot at or beyond the fleet size.
//!
//! Sweep drivers ([`FaultSweepReport::sweep`](crate::report::FaultSweepReport::sweep))
//! call [`validate_fault_schedule`] and assert on it before building a
//! single controller, so an ill-formed schedule is rejected once, up
//! front, with every problem listed — not three policies deep into a
//! sweep.

use crate::topology::ClusterTopology;
use samoyeds_serve::{Diagnostic, FaultKind, FaultSchedule, ValidationReport};

/// Statically check `schedule` against the cluster `topology` it will be
/// injected into and the number of `replicas` in the initial fleet.
///
/// Pure analysis: the schedule is resolved exactly as
/// [`FleetController::run`](samoyeds_serve::FleetController::run) resolves
/// it (deterministically), nothing is simulated, and a schedule that
/// validates cleanly leaves the sweep bit-for-bit identical to one that
/// was never validated.
pub fn validate_fault_schedule(
    schedule: &FaultSchedule,
    topology: &ClusterTopology,
    replicas: usize,
) -> ValidationReport {
    let mut report = ValidationReport::new();
    for (i, spec) in schedule.resolve().iter().enumerate() {
        let FaultKind::IslandPartition {
            island,
            replicas: members,
            ..
        } = &spec.kind
        else {
            continue;
        };
        let ctx = format!("fault[{i}] island partition at {} ms", spec.at_ms);
        if topology.num_islands() == 1 {
            report.push(Diagnostic::deny(
                "fault::partition-single-island",
                ctx.clone(),
                format!(
                    "the topology '{}' has a single island — there is no spine for it to \
                     partition away from",
                    topology.name()
                ),
                "use a multi-island topology, or model the outage as per-replica link \
                 degradations instead",
            ));
        } else if *island >= topology.num_islands() {
            report.push(Diagnostic::deny(
                "fault::island-out-of-range",
                ctx.clone(),
                format!(
                    "island {island} does not exist: the topology '{}' has {} islands",
                    topology.name(),
                    topology.num_islands()
                ),
                "target an island id below num_islands()",
            ));
        }
        for &member in members {
            if member >= replicas {
                report.push(Diagnostic::deny(
                    "fault::partition-replica-out-of-range",
                    ctx.clone(),
                    format!(
                        "the partition lists replica {member} but the fleet has {replicas} \
                         replicas"
                    ),
                    "list only commissioned replica slots",
                ));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use samoyeds_serve::FaultSpec;

    fn partition(island: usize, members: Vec<usize>) -> FaultSchedule {
        FaultSchedule::Scripted(vec![FaultSpec {
            at_ms: 100.0,
            kind: FaultKind::IslandPartition {
                island,
                replicas: members,
                duration_ms: 500.0,
            },
        }])
    }

    #[test]
    fn partition_on_single_island_topology_is_denied() {
        let flat = ClusterTopology::flat(4, LinkSpec::nvlink3());
        let report = validate_fault_schedule(&partition(0, vec![0, 1]), &flat, 3);
        assert!(report.has("fault::partition-single-island"));
        assert!(!report.passes());
    }

    fn two_islands() -> ClusterTopology {
        ClusterTopology::symmetric(2, 2, LinkSpec::nvlink3(), LinkSpec::infiniband_ndr())
            .expect("2×2 topology is valid")
    }

    #[test]
    fn partition_on_multi_island_topology_passes() {
        let report = validate_fault_schedule(&partition(1, vec![0, 1]), &two_islands(), 3);
        assert!(report.is_clean(), "unexpected: {}", report.render());
    }

    #[test]
    fn out_of_range_island_and_replica_are_both_reported() {
        let report = validate_fault_schedule(&partition(7, vec![9]), &two_islands(), 3);
        assert!(report.has("fault::island-out-of-range"));
        assert!(report.has("fault::partition-replica-out-of-range"));
        assert_eq!(report.deny_count(), 2);
    }

    #[test]
    fn crashes_and_degrades_are_not_this_modules_business() {
        let flat = ClusterTopology::flat(4, LinkSpec::nvlink3());
        let schedule = FaultSchedule::Scripted(vec![FaultSpec {
            at_ms: 50.0,
            kind: FaultKind::ReplicaCrash { replica: 99 },
        }]);
        // Replica-range checks for crashes/degrades live in
        // FleetController::validate; this pass only owns island semantics.
        assert!(validate_fault_schedule(&schedule, &flat, 2).is_clean());
    }
}
