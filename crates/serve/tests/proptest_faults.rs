//! Property-based invariant of the fault-injection subsystem: the request
//! ledger is conserved under arbitrary crash scripts — every offered request
//! is completed, rejected as unroutable, or explicitly failed by the recovery
//! policy; none vanish.

use proptest::prelude::*;
use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::engines::EngineKind;
use samoyeds_serve::{
    DispatchPolicy, ExecutionBackend, FaultKind, FaultSchedule, FaultSpec, FleetConfig,
    FleetController, RecoveryPolicy, SchedulerConfig, SingleGpuBackend, TraceConfig,
};

fn replica(scfg: &SchedulerConfig) -> Box<dyn ExecutionBackend> {
    Box::new(SingleGpuBackend::new(
        DeviceSpec::a100_40g(),
        &MoeModelConfig::qwen2_moe(),
        EngineKind::Samoyeds,
        scfg,
    ))
}

fn policy(idx: usize) -> DispatchPolicy {
    match idx % 2 {
        0 => DispatchPolicy::LeastOutstandingTokens,
        _ => DispatchPolicy::RoundRobin,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Request conservation under arbitrary crash scripts: whatever crashes
    /// whenever, under either re-admission or fail-fast, every offered
    /// request is accounted for exactly once — completed, rejected as
    /// unroutable, or failed by the policy — and the failed set is exactly
    /// `failed_ids`.
    #[test]
    fn crash_scripts_conserve_the_request_ledger(
        num_requests in 1usize..36,
        rate in 2.0f64..60.0,
        replicas in 2usize..5,
        crashes in proptest::collection::vec((0.0f64..4_000.0, 0usize..6), 0..4),
        readmit in any::<bool>(),
        transfer_ms in 0.0f64..500.0,
        policy_idx in 0usize..2,
        seed in any::<u64>(),
    ) {
        let scfg = SchedulerConfig::default();
        let trace = TraceConfig {
            num_requests,
            arrival_rate_rps: rate,
            prompt_len_range: (16, 256),
            output_len_range: (2, 24),
            seed,
        }
        .generate();
        // Fold the drawn target into the commissioned range: out-of-range
        // fault targets are now rejected statically by
        // `FleetController::validate` (fault::replica-out-of-range), so the
        // ledger property is exercised over schedules that pass validation.
        let specs: Vec<FaultSpec> = crashes
            .iter()
            .map(|&(at_ms, replica)| FaultSpec {
                at_ms,
                kind: FaultKind::ReplicaCrash {
                    replica: replica % replicas,
                },
            })
            .collect();
        let recovery = if readmit {
            RecoveryPolicy::readmit_after(transfer_ms)
        } else {
            RecoveryPolicy::fail_fast()
        };
        let config = FleetConfig {
            policy: policy(policy_idx),
            ..FleetConfig::default()
        };
        let mut controller = FleetController::new(config)
            .with_faults(FaultSchedule::Scripted(specs), recovery);
        for _ in 0..replicas {
            controller = controller.with_replica(replica(&scfg));
        }
        let metrics = controller.run(&trace);

        prop_assert_eq!(
            metrics.completed + metrics.rejected + metrics.failed(),
            trace.len(),
            "ledger leak: {} completed + {} rejected + {} failed != {} offered",
            metrics.completed,
            metrics.rejected,
            metrics.failed(),
            trace.len(),
        );
        prop_assert_eq!(metrics.failed(), metrics.failed_ids.len());
        prop_assert_eq!(metrics.rejected, metrics.unroutable_ids.len());
        // No id is double-counted across the three outcomes.
        let mut failed = metrics.failed_ids.clone();
        failed.sort_unstable();
        failed.dedup();
        prop_assert_eq!(failed.len(), metrics.failed_ids.len());
        for id in &metrics.failed_ids {
            prop_assert!(!metrics.unroutable_ids.contains(id));
        }
        // Fault bookkeeping matches the ledger: per-record lost splits into
        // readmitted + failed, and the failed totals agree.
        let mut failed_total = 0usize;
        for record in &metrics.faults {
            prop_assert_eq!(
                record.lost_running + record.lost_queued,
                record.readmitted + record.failed
            );
            failed_total += record.failed;
        }
        prop_assert_eq!(failed_total, metrics.failed());
        if !readmit {
            for record in &metrics.faults {
                prop_assert_eq!(record.readmitted, 0);
            }
        }
    }
}
