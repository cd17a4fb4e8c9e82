//! Deterministic fault injection for the fleet control plane.
//!
//! Production MoE fleets lose GPUs, links and whole NVLink islands; the
//! consumer-GPU economics this repo quantifies only hold if the control
//! plane degrades gracefully instead of falling over. This module supplies
//! the *chaos* side of that story: a scripted [`FaultSchedule`] resolves
//! to a time-sorted list of [`FaultSpec`]s that `FleetController` injects
//! through its event queue as a dedicated event class, and a
//! [`RecoveryPolicy`] decides
//! what happens next — fail the crashed replica's in-flight requests, or
//! re-admit them on survivors after a weight-transfer delay (priced by the
//! caller over `ClusterTopology`, so cross-island recovery pays the spine),
//! optionally commissioning a cold replacement through the existing warm-up
//! path.
//!
//! The schedule is resolved *before* the run starts and every fault is an
//! ordinary event in the deterministic queue, so a fleet with an empty
//! schedule is bit-for-bit identical to one without fault injection at all
//! (pinned under every recovery policy by the root golden harness
//! `tests/goldens.rs`).

// A malformed schedule should surface as a diagnostic, not a panic
// mid-sweep; CI's `clippy -D warnings` turns an `.unwrap()` here into an
// error.
#![warn(clippy::unwrap_used)]

/// What breaks. Replica indices refer to the controller's replica slots in
/// commissioning order (the initial replicas first, then autoscaled ones).
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The replica's GPU dies permanently: it stops serving immediately,
    /// its in-flight requests are lost (and re-admitted or failed per the
    /// [`RecoveryPolicy`]), and it never comes back.
    ReplicaCrash {
        /// Replica slot that crashes.
        replica: usize,
    },
    /// The replica's link degrades (a flapping cable, a congested switch):
    /// already-admitted requests keep being served, but the dispatcher stops
    /// routing new work to it until the link recovers.
    LinkDegrade {
        /// Replica slot whose link degrades.
        replica: usize,
        /// How long the replica stays un-routable, in milliseconds.
        duration_ms: f64,
    },
    /// A whole island partitions away from the spine: every listed replica
    /// becomes un-routable at once until the partition heals.
    IslandPartition {
        /// Island id, for reporting.
        island: usize,
        /// Replica slots on the partitioned island.
        replicas: Vec<usize>,
        /// How long the partition lasts, in milliseconds.
        duration_ms: f64,
    },
}

impl FaultKind {
    /// Short label for rendering (`"crash"`, `"link degrade"`,
    /// `"island partition"`).
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::ReplicaCrash { .. } => "crash",
            FaultKind::LinkDegrade { .. } => "link degrade",
            FaultKind::IslandPartition { .. } => "island partition",
        }
    }
}

/// One scheduled fault: what breaks, and when.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Injection time in milliseconds since the start of the run.
    pub at_ms: f64,
    /// What breaks.
    pub kind: FaultKind,
}

/// When and what to break: an explicit script, resolved at run start.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSchedule {
    /// Exactly these faults (resolved order is sorted by injection time).
    Scripted(Vec<FaultSpec>),
}

impl FaultSchedule {
    /// The empty schedule: injects nothing, leaving the controller
    /// bit-for-bit identical to a run without fault injection.
    pub fn none() -> Self {
        FaultSchedule::Scripted(Vec::new())
    }

    /// Resolve to a concrete fault list, sorted by injection time (a stable
    /// sort: faults scripted at the same instant keep their order).
    pub fn resolve(&self) -> Vec<FaultSpec> {
        let FaultSchedule::Scripted(specs) = self;
        let mut specs = specs.clone();
        specs.sort_by(|a, b| a.at_ms.total_cmp(&b.at_ms));
        specs
    }
}

/// How the controller reacts to a replica crash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Re-admit the crashed replica's in-flight requests on survivors once
    /// the weight transfer completes (`false` fails them instead).
    pub readmit: bool,
    /// Commission a cold replacement replica through the normal warm-up
    /// path (requires the controller to have a replica factory).
    pub replace: bool,
    /// Weight-transfer delay before re-admission, in milliseconds. Price
    /// this over `ClusterTopology` (see `dist::placement::replan_after_crash`)
    /// so intra-island recovery is cheap and cross-island pays the spine.
    pub transfer_ms: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            readmit: true,
            replace: false,
            transfer_ms: 0.0,
        }
    }
}

impl RecoveryPolicy {
    /// Fail every in-flight request of a crashed replica: no re-admission,
    /// no replacement.
    pub fn fail_fast() -> Self {
        Self {
            readmit: false,
            replace: false,
            transfer_ms: 0.0,
        }
    }

    /// Re-admit in-flight requests after `transfer_ms` of weight movement.
    pub fn readmit_after(transfer_ms: f64) -> Self {
        Self {
            readmit: true,
            replace: false,
            transfer_ms,
        }
    }

    /// Re-admit and also commission a cold replacement replica.
    pub fn readmit_and_replace(transfer_ms: f64) -> Self {
        Self {
            readmit: true,
            replace: true,
            transfer_ms,
        }
    }
}

/// Outcome of one injected fault, recorded in `FleetMetrics::faults`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// Injection time in milliseconds.
    pub at_ms: f64,
    /// What broke.
    pub kind: FaultKind,
    /// Queued (not yet admitted) requests lost to a crash.
    pub lost_queued: usize,
    /// Running (admitted, mid-generation) requests lost to a crash.
    pub lost_running: usize,
    /// Lost requests successfully re-admitted on survivors.
    pub readmitted: usize,
    /// Lost requests that could not be re-admitted and failed outright.
    pub failed: usize,
    /// Replacement replica slot, if the policy commissioned one.
    pub replacement: Option<usize>,
    /// When the fleet finished recovering (re-admission done, link or
    /// partition restored, replacement warm). `None` for a fail-fast crash
    /// with no replacement: nothing ever recovers.
    pub recovered_at_ms: Option<f64>,
}

impl FaultRecord {
    /// Recovery time in milliseconds, if the fault recovered.
    pub fn recovery_ms(&self) -> Option<f64> {
        self.recovered_at_ms.map(|r| r - self.at_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_resolves_to_nothing() {
        assert!(FaultSchedule::none().resolve().is_empty());
    }

    #[test]
    fn scripted_schedule_sorts_by_time() {
        let schedule = FaultSchedule::Scripted(vec![
            FaultSpec {
                at_ms: 900.0,
                kind: FaultKind::ReplicaCrash { replica: 1 },
            },
            FaultSpec {
                at_ms: 300.0,
                kind: FaultKind::LinkDegrade {
                    replica: 0,
                    duration_ms: 100.0,
                },
            },
        ]);
        let resolved = schedule.resolve();
        assert_eq!(resolved.len(), 2);
        assert_eq!(resolved[0].at_ms, 300.0);
        assert_eq!(resolved[1].at_ms, 900.0);
    }

    #[test]
    fn recovery_policy_defaults_to_readmit_without_replacement() {
        let policy = RecoveryPolicy::default();
        assert!(policy.readmit);
        assert!(!policy.replace);
        assert_eq!(policy.transfer_ms, 0.0);
        assert!(!RecoveryPolicy::fail_fast().readmit);
        assert!(RecoveryPolicy::readmit_and_replace(25.0).replace);
    }

    #[test]
    fn fault_record_reports_recovery_time() {
        let record = FaultRecord {
            at_ms: 1_000.0,
            kind: FaultKind::ReplicaCrash { replica: 0 },
            lost_queued: 2,
            lost_running: 1,
            readmitted: 3,
            failed: 0,
            replacement: None,
            recovered_at_ms: Some(1_250.0),
        };
        assert_eq!(record.recovery_ms(), Some(250.0));
        assert_eq!(record.kind.label(), "crash");
    }
}
