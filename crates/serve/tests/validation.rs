//! Static-validation coverage for the fleet control plane: every class of
//! invalid configuration is rejected with its documented diagnostic code
//! before any event runs, all problems are surfaced at once, and a valid
//! configuration produces bit-for-bit identical metrics whether or not it
//! was explicitly validated first.

use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::engines::EngineKind;
use samoyeds_serve::{
    ExecutionBackend, FaultKind, FaultSchedule, FaultSpec, FleetConfig, FleetController,
    FleetMetrics, Request, SchedulerConfig, Severity, SingleGpuBackend, SloAutoscaler, TraceConfig,
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

#[test]
fn empty_fleet_is_denied() {
    let report = FleetController::new(FleetConfig::default()).validate(&short_trace());
    assert!(report.has("fleet::empty"));
    assert!(!report.passes());
}

type Mutation = fn(&mut FleetConfig);

#[test]
fn degenerate_knobs_each_get_their_code() {
    let cases: [(Mutation, &str); 6] = [
        (|c| c.min_replicas = 0, "fleet::zero-floor"),
        (
            |c| {
                c.min_replicas = 4;
                c.max_replicas = 2;
            },
            "fleet::ceiling-below-floor",
        ),
        (|c| c.tick_ms = 0.0, "fleet::nonpositive-tick"),
        (|c| c.window_ms = -5.0, "fleet::nonpositive-window"),
        (|c| c.warmup_ms = -1.0, "fleet::negative-warmup"),
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
    let err =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || controller.run(&trace)))
            .expect_err("run must reject the configuration");
    let message = err
        .downcast_ref::<String>()
        .cloned()
        .expect("panic payload is the rendered report");
    // Both problems in one panic — not just the first assert.
    assert!(message.contains("fleet::nonpositive-tick"), "{message}");
    assert!(message.contains("fleet::ceiling-below-floor"), "{message}");
}

#[test]
fn valid_configs_are_clean_and_metrics_are_bit_for_bit_unchanged() {
    let trace = short_trace();
    let report = controller().validate(&trace);
    assert!(report.is_clean(), "{}", report.render());

    // Explicitly validating first must not perturb the run in any way.
    let direct = controller().run(&trace);
    let validated = {
        let c = controller();
        c.validate(&trace).assert_valid();
        c.run(&trace)
    };
    assert_bitwise_equal(&direct, &validated);
}

/// Field-by-field bit-for-bit comparison (FleetMetrics has no PartialEq).
fn assert_bitwise_equal(a: &FleetMetrics, b: &FleetMetrics) {
    assert_eq!(a.replicas, b.replicas);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.rejected, b.rejected);
    assert_eq!(
        a.output_tokens_per_s.to_bits(),
        b.output_tokens_per_s.to_bits()
    );
    assert_eq!(a.makespan_ms.to_bits(), b.makespan_ms.to_bits());
    assert_eq!(
        a.request_latency.p50_ms.to_bits(),
        b.request_latency.p50_ms.to_bits()
    );
    assert_eq!(
        a.request_latency.p95_ms.to_bits(),
        b.request_latency.p95_ms.to_bits()
    );
    assert_eq!(a.ttft.p50_ms.to_bits(), b.ttft.p50_ms.to_bits());
    assert_eq!(a.ttft.p95_ms.to_bits(), b.ttft.p95_ms.to_bits());
    assert_eq!(a.tpot.p50_ms.to_bits(), b.tpot.p50_ms.to_bits());
    assert_eq!(a.tpot.p95_ms.to_bits(), b.tpot.p95_ms.to_bits());
    assert_eq!(a.unroutable_ids, b.unroutable_ids);
    assert_eq!(a.failed_ids, b.failed_ids);
    assert_eq!(a.drain_incomplete, b.drain_incomplete);
    assert_eq!(a.per_replica.len(), b.per_replica.len());
    for (ra, rb) in a.per_replica.iter().zip(&b.per_replica) {
        assert_eq!(ra.assigned_ids, rb.assigned_ids);
        assert_eq!(ra.ready_ms.to_bits(), rb.ready_ms.to_bits());
    }
}
