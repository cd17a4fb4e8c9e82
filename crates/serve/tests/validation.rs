//! Static-validation coverage for the fleet control plane: every class of
//! invalid configuration is rejected with its documented diagnostic code
//! before any event runs, all problems are surfaced at once, and a valid
//! configuration validates clean. That validating first leaves a run bit for
//! bit unchanged is checked on the fleet goldens of the root harness
//! `tests/goldens.rs`.

use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::engines::EngineKind;
use samoyeds_serve::{
    BatchLimits, ExecutionBackend, FaultKind, FaultSchedule, FaultSpec, FleetConfig,
    FleetController, RecoveryPolicy, Request, SchedulerConfig, Severity, SingleGpuBackend,
    SloAutoscaler, TraceConfig,
};

fn replica() -> Box<dyn ExecutionBackend> {
    replica_of(&MoeModelConfig::qwen2_moe())
}

fn replica_of(model: &MoeModelConfig) -> Box<dyn ExecutionBackend> {
    Box::new(SingleGpuBackend::new(
        DeviceSpec::a100_40g(),
        model,
        EngineKind::Samoyeds,
        &SchedulerConfig::default(),
    ))
}

fn controller() -> FleetController {
    FleetController::new(FleetConfig::default()).with_replica(replica())
}

fn short_trace() -> Vec<Request> {
    TraceConfig {
        num_requests: 6,
        ..TraceConfig::default()
    }
    .generate()
}

fn scripted(kind: FaultKind, at_ms: f64) -> FaultSchedule {
    FaultSchedule::Scripted(vec![FaultSpec { at_ms, kind }])
}

/// Runs `controller` on `trace`, which must panic, and returns the panic
/// message.
fn run_panic_message(controller: FleetController, trace: &[Request]) -> String {
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || controller.run(trace)))
        .expect_err("run must reject the configuration");
    err.downcast_ref::<String>()
        .cloned()
        .expect("panic payload is the rendered report")
}

/// `validate` denies `code`, and `run` panics with the rendered report
/// naming it instead of failing somewhere inside the simulation.
fn assert_denied_before_the_run(controller: FleetController, trace: &[Request], code: &str) {
    let report = controller.validate(trace);
    assert!(report.has(code), "missing {code}: {}", report.render());
    assert!(!report.passes());
    let message = run_panic_message(controller, trace);
    assert!(message.contains(code), "{message}");
}

#[test]
fn empty_fleet_is_denied() {
    let report = FleetController::new(FleetConfig::default()).validate(&short_trace());
    assert!(report.has("fleet::empty"));
    assert!(!report.passes());
}

type Mutation = fn(&mut FleetConfig);

#[test]
fn degenerate_knobs_each_get_their_code() {
    let cases: [(Mutation, &str); 8] = [
        (|c| c.min_replicas = 0, "fleet::zero-floor"),
        (
            |c| {
                c.min_replicas = 4;
                c.max_replicas = 2;
            },
            "fleet::ceiling-below-floor",
        ),
        (|c| c.tick_ms = 0.0, "fleet::nonpositive-tick"),
        (|c| c.warmup_ms = -1.0, "fleet::negative-warmup"),
        (|c| c.warmup_ms = f64::INFINITY, "fleet::non-finite-warmup"),
        (
            |c| c.warmup_ms = f64::NEG_INFINITY,
            "fleet::non-finite-warmup",
        ),
        (|c| c.warmup_ms = f64::NAN, "fleet::non-finite-warmup"),
        (|c| c.max_drain_ticks = 0, "fleet::zero-drain-cap"),
    ];
    for (mutate, code) in cases {
        let mut config = FleetConfig::default();
        mutate(&mut config);
        let report = FleetController::new(config)
            .with_replica(replica())
            .validate(&short_trace());
        assert!(report.has(code), "missing {code}: {}", report.render());
        assert!(!report.passes());
    }
}

#[test]
fn each_zero_batch_limit_is_denied_before_the_run() {
    let cases: [fn(&mut BatchLimits); 3] = [
        |l| l.max_batched_tokens = 0,
        |l| l.max_running = 0,
        |l| l.prefill_chunk = 0,
    ];
    for zero in cases {
        let mut config = FleetConfig::default();
        zero(&mut config.scheduler.limits);
        let controller = FleetController::new(config).with_replica(replica());
        assert_denied_before_the_run(controller, &short_trace(), "fleet::zero-batch-limit");
    }
}

#[test]
fn requests_with_a_zero_length_are_denied_before_the_run() {
    let cases: [fn(&mut Request); 2] = [|r| r.prompt_len = 0, |r| r.output_len = 0];
    for zero in cases {
        let mut trace = short_trace()[..1].to_vec();
        zero(&mut trace[0]);
        assert_denied_before_the_run(controller(), &trace, "fleet::empty-request");
    }
}

#[test]
fn a_non_finite_arrival_is_denied_even_in_a_one_request_trace() {
    for arrival_ms in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut trace = short_trace()[..1].to_vec();
        trace[0].arrival_ms = arrival_ms;
        assert_denied_before_the_run(controller(), &trace, "fleet::non-finite-arrival");
    }
}

#[test]
fn unsorted_trace_is_denied_with_the_offending_indices() {
    let mut trace = short_trace();
    trace.swap(1, 4);
    let report = controller().validate(&trace);
    assert!(report.has("fleet::unsorted-trace"));
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "fleet::unsorted-trace")
        .expect("diagnostic present");
    assert!(d.context.starts_with("trace["), "context: {}", d.context);
}

#[test]
fn out_of_range_fault_target_is_denied_before_any_event() {
    // One replica, no factory, default ceiling 8: replica 3 can never exist.
    let report = controller()
        .with_faults(
            scripted(FaultKind::ReplicaCrash { replica: 3 }, 100.0),
            Default::default(),
        )
        .validate(&short_trace());
    assert!(
        report.has("fault::replica-out-of-range"),
        "{}",
        report.render()
    );
    assert!(!report.passes());
}

#[test]
fn fault_target_beyond_initial_fleet_with_a_factory_is_a_warning() {
    let report = controller()
        .with_factory(|| replica())
        .with_faults(
            scripted(FaultKind::ReplicaCrash { replica: 3 }, 100.0),
            Default::default(),
        )
        .validate(&short_trace());
    assert!(report.has("fault::replica-never-commissioned"));
    assert!(report.passes(), "a warning must not block the run");
}

#[test]
fn negative_fault_time_and_duration_are_denied() {
    let report = controller()
        .with_faults(
            FaultSchedule::Scripted(vec![
                FaultSpec {
                    at_ms: -10.0,
                    kind: FaultKind::ReplicaCrash { replica: 0 },
                },
                FaultSpec {
                    at_ms: 50.0,
                    kind: FaultKind::LinkDegrade {
                        replica: 0,
                        duration_ms: -1.0,
                    },
                },
            ]),
            Default::default(),
        )
        .validate(&short_trace());
    assert!(report.has("fault::negative-time"));
    assert!(report.has("fault::negative-duration"));
    assert_eq!(report.deny_count(), 2);
}

#[test]
fn non_finite_fault_times_and_durations_are_denied() {
    // Validate only: a run would write infinity into the fault record and
    // the trace export.
    for at_ms in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
        let report = controller()
            .with_faults(
                scripted(FaultKind::ReplicaCrash { replica: 0 }, at_ms),
                Default::default(),
            )
            .validate(&short_trace());
        assert!(report.has("fault::non-finite-time"), "{}", report.render());
        assert_eq!(report.deny_count(), 1, "{}", report.render());
    }
    for duration_ms in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
        let kinds = [
            FaultKind::LinkDegrade {
                replica: 0,
                duration_ms,
            },
            FaultKind::IslandPartition {
                island: 0,
                replicas: vec![0],
                duration_ms,
            },
        ];
        for kind in kinds {
            let report = controller()
                .with_faults(scripted(kind, 50.0), Default::default())
                .validate(&short_trace());
            assert!(
                report.has("fault::non-finite-duration"),
                "{}",
                report.render()
            );
            assert_eq!(report.deny_count(), 1, "{}", report.render());
        }
    }
}

#[test]
fn a_recovery_transfer_that_cannot_land_is_denied() {
    // Validate only: under a ticked policy an infinite transfer loops `run`
    // forever, a NaN one re-admits requests at NaN and a negative one
    // schedules the recovery in the past.
    let crash = || scripted(FaultKind::ReplicaCrash { replica: 0 }, 100.0);
    for transfer_ms in [f64::INFINITY, f64::NAN, -1.0] {
        let policies = [
            RecoveryPolicy::readmit_after(transfer_ms),
            RecoveryPolicy::readmit_and_replace(transfer_ms),
            RecoveryPolicy {
                readmit: false,
                replace: true,
                transfer_ms,
            },
        ];
        for recovery in policies {
            let report = controller()
                .with_factory(replica)
                .with_autoscaler(SloAutoscaler::new(2_000.0))
                .with_faults(crash(), recovery)
                .validate(&short_trace());
            assert!(report.has("fault::bad-transfer"), "{}", report.render());
            assert_eq!(report.deny_count(), 1, "{}", report.render());
        }
    }
    // Fail-fast waits for no transfer.
    let report = controller()
        .with_faults(
            crash(),
            RecoveryPolicy {
                transfer_ms: f64::INFINITY,
                ..RecoveryPolicy::fail_fast()
            },
        )
        .validate(&short_trace());
    assert!(report.passes(), "{}", report.render());
}

#[test]
fn fault_past_trace_end_and_empty_partition_are_warnings() {
    let trace = short_trace();
    let last = trace.last().expect("non-empty trace").arrival_ms;
    let report = controller()
        .with_faults(
            scripted(
                FaultKind::IslandPartition {
                    island: 0,
                    replicas: Vec::new(),
                    duration_ms: 100.0,
                },
                last + 10_000.0,
            ),
            Default::default(),
        )
        .validate(&trace);
    assert!(report.has("fault::past-trace-end"));
    assert!(report.has("fault::empty-partition"));
    assert!(report.passes());
    assert!(report
        .diagnostics()
        .iter()
        .all(|d| d.severity == Severity::Warning));
}

#[test]
fn top_k_beyond_the_expert_count_is_denied_and_zero_top_k_still_runs() {
    let with_top_k = |top_k| {
        let mut model = MoeModelConfig::qwen2_moe();
        model.top_k = top_k;
        FleetController::new(FleetConfig::default()).with_replica(replica_of(&model))
    };
    // Qwen2-MoE has 60 experts: routing each token to 61 of them would
    // panic on the first priced step.
    let report = with_top_k(61).validate(&short_trace());
    assert!(
        report.has("fleet::top-k-out-of-range"),
        "{}",
        report.render()
    );
    assert!(!report.passes());
    // `top_k = 0` routes no token at all; it validates and serves the trace.
    let trace = short_trace();
    let report = with_top_k(0).validate(&trace);
    assert!(report.passes(), "{}", report.render());
    assert_eq!(with_top_k(0).run(&trace).completed, trace.len());
}

#[test]
fn more_experts_than_the_router_draws_are_denied() {
    let with_experts = |num_experts| {
        let mut model = MoeModelConfig::qwen2_moe();
        model.num_experts = num_experts;
        FleetController::new(FleetConfig::default()).with_replica(replica_of(&model))
    };
    // The router permutes expert ids as bytes: 257 experts would panic on
    // the first priced step, 256 serve the trace.
    let report = with_experts(257).validate(&short_trace());
    assert!(report.has("fleet::too-many-experts"), "{}", report.render());
    assert!(!report.passes());
    let trace = short_trace();
    let report = with_experts(256).validate(&trace);
    assert!(report.passes(), "{}", report.render());
    assert_eq!(with_experts(256).run(&trace).completed, trace.len());
}

#[test]
fn nonpositive_and_unachievable_slos_are_denied() {
    let report = controller()
        .with_autoscaler(SloAutoscaler::new(0.0))
        .validate(&short_trace());
    assert!(report.has("slo::nonpositive"));

    // 0.001 ms is far below any single step an A100 can execute.
    let report = controller()
        .with_autoscaler(SloAutoscaler::new(0.001))
        .validate(&short_trace());
    assert!(report.has("slo::unachievable-ttft"), "{}", report.render());
    // A sane SLO passes the same check.
    let report = controller()
        .with_autoscaler(SloAutoscaler::new(2_000.0))
        .validate(&short_trace());
    assert!(report.passes(), "{}", report.render());
}

#[test]
fn run_panics_listing_every_problem_at_once() {
    let trace = short_trace();
    let controller = FleetController::new(FleetConfig {
        tick_ms: 0.0,
        min_replicas: 4,
        max_replicas: 2,
        ..FleetConfig::default()
    })
    .with_replica(replica());
    let message = run_panic_message(controller, &trace);
    // Both problems in one panic — not just the first assert.
    assert!(message.contains("fleet::nonpositive-tick"), "{message}");
    assert!(message.contains("fleet::ceiling-below-floor"), "{message}");
}

#[test]
fn valid_configs_are_clean() {
    let report = controller().validate(&short_trace());
    assert!(report.is_clean(), "{}", report.render());
}
