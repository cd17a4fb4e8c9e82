//! Deterministic fault injection for the fleet control plane.
//!
//! Production MoE fleets lose GPUs, links and whole NVLink islands; the
//! consumer-GPU economics this repo quantifies only hold if the control
//! plane degrades gracefully instead of falling over. This module supplies
//! the *chaos* side of that story: a [`FaultSchedule`] (scripted, or
//! seeded-random via ChaCha so runs are reproducible bit for bit) resolves
//! to a list of [`FaultSpec`]s that `FleetController` injects through its
//! event queue as a dedicated event class, and a [`RecoveryPolicy`] decides
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
//! `tests/goldens.rs`), and a seeded schedule replays identically across
//! runs (pinned by proptest).

// A malformed schedule should surface as a diagnostic, not a panic
// mid-sweep; CI's `clippy -D warnings` turns an `.unwrap()` here into an
// error.
#![warn(clippy::unwrap_used)]

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// What breaks. Replica indices refer to the controller's replica slots in
/// commissioning order (the initial replicas first, then autoscaled ones).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The replica's GPU dies permanently: it stops serving immediately,
    /// its in-flight requests are lost (and re-admitted or failed per the
    /// [`RecoveryPolicy`]), and it never comes back.
    ReplicaCrash {
        /// Replica slot that crashes.
        replica: usize,
    },
    /// The replica's link degrades (a flapping cable, a congested switch —
    /// the `PairOverride` story from `dist::topology`): already-admitted
    /// requests keep being served, but the dispatcher stops routing new
    /// work to it until the link recovers.
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Injection time in milliseconds since the start of the run.
    pub at_ms: f64,
    /// What breaks.
    pub kind: FaultKind,
}

/// Parameters of a seeded-random fault stream: independent Poisson
/// processes for crashes and link degradations over a fixed horizon.
///
/// Island partitions are deliberately scripted-only — they encode cluster
/// structure (which replicas share an island) that a blind random draw
/// cannot know.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeededFaults {
    /// ChaCha seed; the same seed always resolves to the same schedule.
    pub seed: u64,
    /// Faults are only drawn in `[0, horizon_ms)`.
    pub horizon_ms: f64,
    /// Mean crashes per second (Poisson rate). Crashes never take the last
    /// surviving replica and never hit the same replica twice.
    pub crash_rate_per_s: f64,
    /// Mean link degradations per second (Poisson rate).
    pub degrade_rate_per_s: f64,
    /// Duration of each drawn link degradation, in milliseconds.
    pub degrade_duration_ms: f64,
}

/// When and what to break: either an explicit script or a seeded-random
/// stream resolved deterministically at run start.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultSchedule {
    /// Exactly these faults (resolved order is sorted by injection time).
    Scripted(Vec<FaultSpec>),
    /// Faults drawn from seeded Poisson streams; see [`SeededFaults`].
    Seeded(SeededFaults),
}

impl FaultSchedule {
    /// The empty schedule: injects nothing, leaving the controller
    /// bit-for-bit identical to a run without fault injection.
    pub fn none() -> Self {
        FaultSchedule::Scripted(Vec::new())
    }

    /// Resolve to a concrete, time-sorted fault list for a fleet of
    /// `replicas` initial replicas. Deterministic: the same schedule and
    /// replica count always produce the same list.
    pub fn resolve(&self, replicas: usize) -> Vec<FaultSpec> {
        let mut specs = match self {
            FaultSchedule::Scripted(specs) => specs.clone(),
            FaultSchedule::Seeded(cfg) => Self::draw(cfg, replicas),
        };
        specs.sort_by(|a, b| a.at_ms.total_cmp(&b.at_ms));
        specs
    }

    fn draw(cfg: &SeededFaults, replicas: usize) -> Vec<FaultSpec> {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut specs = Vec::new();
        let mut crashed = vec![false; replicas];
        let mut alive = replicas;
        // Crash stream: exponential gaps, uniform replica choice. A draw
        // that would re-crash a dead replica or kill the last survivor is
        // discarded (the clock still advances, so the loop terminates).
        if cfg.crash_rate_per_s > 0.0 && replicas > 1 {
            let mut t = 0.0;
            loop {
                let u: f64 = rng.gen_range(0.0..1.0);
                t += -(1.0 - u).ln() / cfg.crash_rate_per_s * 1e3;
                if t >= cfg.horizon_ms {
                    break;
                }
                let replica = rng.gen_range(0..replicas);
                if crashed[replica] || alive <= 1 {
                    continue;
                }
                crashed[replica] = true;
                alive -= 1;
                specs.push(FaultSpec {
                    at_ms: t,
                    kind: FaultKind::ReplicaCrash { replica },
                });
            }
        }
        // Degrade stream: independent of the crash stream. Degrading a
        // replica that later turns out to be dead is a runtime no-op.
        if cfg.degrade_rate_per_s > 0.0 && replicas > 0 {
            let mut t = 0.0;
            loop {
                let u: f64 = rng.gen_range(0.0..1.0);
                t += -(1.0 - u).ln() / cfg.degrade_rate_per_s * 1e3;
                if t >= cfg.horizon_ms {
                    break;
                }
                let replica = rng.gen_range(0..replicas);
                specs.push(FaultSpec {
                    at_ms: t,
                    kind: FaultKind::LinkDegrade {
                        replica,
                        duration_ms: cfg.degrade_duration_ms,
                    },
                });
            }
        }
        specs
    }
}

/// How the controller reacts to a replica crash.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

    fn seeded() -> SeededFaults {
        SeededFaults {
            seed: 99,
            horizon_ms: 60_000.0,
            crash_rate_per_s: 0.05,
            degrade_rate_per_s: 0.1,
            degrade_duration_ms: 500.0,
        }
    }

    #[test]
    fn empty_schedule_resolves_to_nothing() {
        assert!(FaultSchedule::none().resolve(4).is_empty());
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
        let resolved = schedule.resolve(2);
        assert_eq!(resolved.len(), 2);
        assert_eq!(resolved[0].at_ms, 300.0);
        assert_eq!(resolved[1].at_ms, 900.0);
    }

    #[test]
    fn seeded_schedule_is_deterministic() {
        let schedule = FaultSchedule::Seeded(seeded());
        let a = schedule.resolve(6);
        let b = schedule.resolve(6);
        assert!(!a.is_empty(), "rates × horizon should draw some faults");
        assert_eq!(a, b);
    }

    #[test]
    fn seeded_crashes_spare_the_last_survivor_and_never_repeat() {
        let schedule = FaultSchedule::Seeded(SeededFaults {
            crash_rate_per_s: 10.0,
            degrade_rate_per_s: 0.0,
            ..seeded()
        });
        let resolved = schedule.resolve(3);
        let crashed: Vec<usize> = resolved
            .iter()
            .filter_map(|s| match s.kind {
                FaultKind::ReplicaCrash { replica } => Some(replica),
                _ => None,
            })
            .collect();
        assert!(crashed.len() <= 2, "at least one replica must survive");
        let mut unique = crashed.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), crashed.len(), "no replica crashes twice");
        // Sorted by injection time.
        for w in resolved.windows(2) {
            assert!(w[0].at_ms <= w[1].at_ms);
        }
    }

    #[test]
    fn single_replica_fleet_never_draws_a_crash() {
        let schedule = FaultSchedule::Seeded(SeededFaults {
            crash_rate_per_s: 50.0,
            degrade_rate_per_s: 0.0,
            ..seeded()
        });
        assert!(schedule.resolve(1).is_empty());
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
