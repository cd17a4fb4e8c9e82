//! No-faults equivalence suite for the fault-injection subsystem.
//!
//! Installing the chaos layer must be free when nothing fails: a
//! `FleetController` configured with `FaultSchedule::none()` and the default
//! `RecoveryPolicy` has to reproduce the plain controller bit for bit —
//! every `FleetMetrics` field, every latency percentile, every scale-event
//! reason string, every per-replica breakdown. The scenarios mirror the
//! fleet shapes the root `goldens` suite pins (fixed fleets, heterogeneous
//! round-robin, SLO autoscaling with warm-up, zero warm-up on a 250 ms
//! tick).

use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::engines::EngineKind;
use samoyeds_serve::{
    BurstPhase, BurstyTraceConfig, DispatchPolicy, ExecutionBackend, FaultSchedule, FleetConfig,
    FleetController, FleetMetrics, RecoveryPolicy, Request, SchedulerConfig, SingleGpuBackend,
    SloAutoscaler, TraceConfig,
};

fn single(
    device: DeviceSpec,
    engine: EngineKind,
    scfg: &SchedulerConfig,
) -> Box<dyn ExecutionBackend> {
    Box::new(SingleGpuBackend::new(
        device,
        &MoeModelConfig::qwen2_moe(),
        engine,
        scfg,
    ))
}

fn poisson_trace() -> Vec<Request> {
    TraceConfig {
        num_requests: 48,
        arrival_rate_rps: 30.0,
        prompt_len_range: (32, 384),
        output_len_range: (4, 32),
        seed: 23,
    }
    .generate()
}

fn bursty_trace() -> Vec<Request> {
    BurstyTraceConfig {
        phases: vec![
            BurstPhase {
                arrival_rate_rps: 2.0,
                num_requests: 8,
            },
            BurstPhase {
                arrival_rate_rps: 150.0,
                num_requests: 60,
            },
            BurstPhase {
                arrival_rate_rps: 2.0,
                num_requests: 8,
            },
        ],
        prompt_len_range: (64, 256),
        output_len_range: (16, 48),
        seed: 17,
    }
    .generate()
}

/// Exact `f64` / structural equality on every `FleetMetrics` field, plus
/// the invariant that a no-faults run records no fault bookkeeping at all.
fn assert_metrics_equal(with_chaos: &FleetMetrics, plain: &FleetMetrics) {
    assert!(with_chaos.faults.is_empty());
    assert!(with_chaos.failed_ids.is_empty());
    assert_eq!(with_chaos.engine, plain.engine);
    assert_eq!(with_chaos.replicas, plain.replicas);
    assert_eq!(with_chaos.completed, plain.completed);
    assert_eq!(with_chaos.rejected, plain.rejected);
    assert_eq!(with_chaos.output_tokens_per_s, plain.output_tokens_per_s);
    assert_eq!(with_chaos.request_latency, plain.request_latency);
    assert_eq!(with_chaos.ttft, plain.ttft);
    assert_eq!(with_chaos.tpot, plain.tpot);
    assert_eq!(with_chaos.makespan_ms, plain.makespan_ms);
    assert_eq!(with_chaos.unroutable_ids, plain.unroutable_ids);
    assert_eq!(with_chaos.drain_incomplete, plain.drain_incomplete);
    assert_eq!(
        with_chaos.drain_incomplete_replicas,
        plain.drain_incomplete_replicas
    );
    assert_eq!(with_chaos.scale_events.len(), plain.scale_events.len());
    for (a, b) in with_chaos.scale_events.iter().zip(&plain.scale_events) {
        assert_eq!(a.at_ms, b.at_ms);
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.replicas_after, b.replicas_after);
        assert_eq!(a.reason, b.reason);
    }
    assert_eq!(with_chaos.per_replica.len(), plain.per_replica.len());
    for (a, b) in with_chaos.per_replica.iter().zip(&plain.per_replica) {
        assert_eq!(a.description, b.description);
        assert_eq!(a.engine, b.engine);
        assert_eq!(a.spawned_ms, b.spawned_ms);
        assert_eq!(a.ready_ms, b.ready_ms);
        assert_eq!(a.retired_ms, b.retired_ms);
        assert_eq!(a.assigned, b.assigned);
        assert_eq!(a.assigned_ids, b.assigned_ids);
        assert_eq!(a.metrics.engine, b.metrics.engine);
        assert_eq!(a.metrics.completed, b.metrics.completed);
        assert_eq!(a.metrics.rejected, b.metrics.rejected);
        assert_eq!(a.metrics.output_tokens_per_s, b.metrics.output_tokens_per_s);
        assert_eq!(
            a.metrics.processed_tokens_per_s,
            b.metrics.processed_tokens_per_s
        );
        assert_eq!(a.metrics.request_latency, b.metrics.request_latency);
        assert_eq!(a.metrics.ttft, b.metrics.ttft);
        assert_eq!(a.metrics.tpot, b.metrics.tpot);
        assert_eq!(a.metrics.makespan_ms, b.metrics.makespan_ms);
        assert_eq!(a.metrics.peak_memory_gib, b.metrics.peak_memory_gib);
        assert_eq!(a.metrics.budget_gib, b.metrics.budget_gib);
        assert_eq!(a.metrics.servable, b.metrics.servable);
    }
}

#[test]
fn empty_schedule_on_a_fixed_fleet_matches_the_plain_controller() {
    let scfg = SchedulerConfig::default();
    let config = FleetConfig::default();
    for trace in [poisson_trace(), bursty_trace()] {
        let plain = FleetController::new(config)
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .run(&trace);
        let with_chaos = FleetController::new(config)
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_faults(FaultSchedule::none(), RecoveryPolicy::default())
            .run(&trace);
        assert_metrics_equal(&with_chaos, &plain);
    }
}

#[test]
fn empty_schedule_on_a_heterogeneous_round_robin_fleet_matches_the_plain_controller() {
    let scfg = SchedulerConfig::default();
    let config = FleetConfig {
        policy: DispatchPolicy::RoundRobin,
        ..FleetConfig::default()
    };
    let build = || {
        vec![
            single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg),
            single(DeviceSpec::rtx4070_super(), EngineKind::Samoyeds, &scfg),
            single(DeviceSpec::rtx4070_super(), EngineKind::Transformers, &scfg),
        ]
    };
    for trace in [poisson_trace(), bursty_trace()] {
        let mut plain_controller = FleetController::new(config);
        for backend in build() {
            plain_controller = plain_controller.with_replica(backend);
        }
        let plain = plain_controller.run(&trace);
        let mut chaos_controller = FleetController::new(config)
            .with_faults(FaultSchedule::none(), RecoveryPolicy::default());
        for backend in build() {
            chaos_controller = chaos_controller.with_replica(backend);
        }
        let with_chaos = chaos_controller.run(&trace);
        assert_metrics_equal(&with_chaos, &plain);
    }
}

#[test]
fn empty_schedule_on_an_autoscaled_fleet_matches_the_plain_controller() {
    // Scale-outs, warm-up completions, drains and retirements must land at
    // the same instants with the same reason strings even with the fault
    // machinery armed (but idle).
    let scfg = SchedulerConfig::default();
    let config = FleetConfig {
        warmup_ms: 500.0,
        max_replicas: 4,
        ..FleetConfig::default()
    };
    for trace in [poisson_trace(), bursty_trace()] {
        let plain = FleetController::new(config)
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_factory(move || single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_autoscaler(SloAutoscaler::new(400.0))
            .run(&trace);
        let with_chaos = FleetController::new(config)
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_factory(move || single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_autoscaler(SloAutoscaler::new(400.0))
            .with_faults(
                FaultSchedule::none(),
                RecoveryPolicy::readmit_and_replace(25.0),
            )
            .run(&trace);
        assert_metrics_equal(&with_chaos, &plain);
    }
}

#[test]
fn empty_schedule_with_zero_warmup_and_250ms_tick_matches_the_plain_controller() {
    let scfg = SchedulerConfig::default();
    let config = FleetConfig {
        policy: DispatchPolicy::LeastOutstandingTokens,
        tick_ms: 250.0,
        warmup_ms: 0.0,
        max_replicas: 3,
        ..FleetConfig::default()
    };
    for trace in [poisson_trace(), bursty_trace()] {
        let plain = FleetController::new(config)
            .with_replica(single(
                DeviceSpec::rtx4070_super(),
                EngineKind::Samoyeds,
                &scfg,
            ))
            .with_factory(move || single(DeviceSpec::rtx4070_super(), EngineKind::Samoyeds, &scfg))
            .with_autoscaler(SloAutoscaler::new(900.0))
            .run(&trace);
        let with_chaos = FleetController::new(config)
            .with_replica(single(
                DeviceSpec::rtx4070_super(),
                EngineKind::Samoyeds,
                &scfg,
            ))
            .with_factory(move || single(DeviceSpec::rtx4070_super(), EngineKind::Samoyeds, &scfg))
            .with_autoscaler(SloAutoscaler::new(900.0))
            .with_faults(FaultSchedule::none(), RecoveryPolicy::fail_fast())
            .run(&trace);
        assert_metrics_equal(&with_chaos, &plain);
    }
}
