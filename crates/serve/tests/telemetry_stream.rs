//! The event stream and the sinks that consume it agree with the metrics
//! they shadow: event counts, registry counters, the bounded ring's drops,
//! per-request latency attribution and the offline scheduler's lifecycle.
//! That a sink never changes the run it observes is checked bit for bit on
//! every fleet and scheduler golden in the root harness `tests/goldens.rs`.

use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::engines::EngineKind;
use samoyeds_serve::{
    request_timelines, BurstPhase, BurstyTraceConfig, DispatchPolicy, ExecutionBackend,
    FleetConfig, FleetController, MetricsRegistry, Request, SchedulerConfig, SharedSink,
    SingleGpuBackend, SloAutoscaler, TraceEvent, TraceRecorder,
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

fn bursty_trace() -> Vec<Request> {
    BurstyTraceConfig {
        phases: vec![
            BurstPhase {
                arrival_rate_rps: 2.0,
                num_requests: 10,
            },
            BurstPhase {
                arrival_rate_rps: 120.0,
                num_requests: 50,
            },
            BurstPhase {
                arrival_rate_rps: 2.0,
                num_requests: 10,
            },
        ],
        prompt_len_range: (64, 256),
        output_len_range: (8, 32),
        seed: 17,
    }
    .generate()
}

/// A heterogeneous autoscaled fleet — the configuration that exercises every
/// emission site: routing, admission, steps, scale-out/in, warm-up, drain.
fn controller(scfg: SchedulerConfig) -> FleetController {
    let config = FleetConfig {
        scheduler: scfg,
        policy: DispatchPolicy::LeastOutstandingTokens,
        warmup_ms: 500.0,
        max_replicas: 4,
        ..FleetConfig::default()
    };
    FleetController::new(config)
        .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
        .with_replica(single(
            DeviceSpec::rtx4070_super(),
            EngineKind::Samoyeds,
            &scfg,
        ))
        .with_factory(move || single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
        .with_autoscaler(SloAutoscaler::new(400.0))
}

#[test]
fn event_stream_and_sinks_shadow_the_fleet_metrics() {
    let scfg = SchedulerConfig::default();
    let trace = bursty_trace();

    // The recorded stream agrees with the metrics it narrates.
    let (rec_sink, recorder) = SharedSink::new(TraceRecorder::new());
    let metrics = controller(scfg).with_sink(rec_sink).run(&trace);
    let events = recorder.borrow().events();
    let completions = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Completed { .. }))
        .count();
    assert_eq!(completions, metrics.completed);
    let arrivals = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Arrival { .. }))
        .count();
    assert_eq!(arrivals, trace.len());
    let unroutable = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Unroutable { .. }))
        .count();
    assert_eq!(unroutable, metrics.unroutable_ids.len());
    let scale_outs = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::ScaleOut { .. }))
        .count();
    assert_eq!(scale_outs, metrics.scale_outs());
    let scale_ins = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::ScaleIn { .. }))
        .count();
    assert_eq!(scale_ins, metrics.scale_ins());
    let commissions = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::ReplicaCommissioned { .. }))
        .count();
    assert_eq!(commissions, metrics.per_replica.len());

    // The registry's counters shadow the run it watched.
    let (reg_sink, registry) = SharedSink::new(MetricsRegistry::new());
    let watched = controller(scfg).with_sink(reg_sink).run(&trace);
    let registry = registry.borrow();
    assert_eq!(registry.arrivals as usize, trace.len());
    assert_eq!(registry.completed as usize, watched.completed);
    assert_eq!(
        registry.routed as usize,
        watched
            .per_replica
            .iter()
            .map(|r| r.assigned)
            .sum::<usize>()
    );
    assert_eq!(registry.scale_outs as usize, watched.scale_outs());
    assert!(registry.steps > 0);
    assert!(
        !registry.snapshots.is_empty(),
        "the autoscaled run consults ticks, so snapshots must land"
    );

    // A bounded ring keeps the newest events and counts what it dropped.
    let (ring_sink, ring) = SharedSink::new(TraceRecorder::bounded(64));
    controller(scfg).with_sink(ring_sink).run(&trace);
    let ring = ring.borrow();
    assert_eq!(ring.len(), 64);
    assert!(
        ring.dropped() > 0,
        "the burst emits far more than 64 events"
    );
}

#[test]
fn request_timelines_attribute_latency_exactly_and_match_completions() {
    let scfg = SchedulerConfig::default();
    let trace = bursty_trace();
    let (sink, recorder) = SharedSink::new(TraceRecorder::new());
    let metrics = controller(scfg).with_sink(sink).run(&trace);

    let events = recorder.borrow().events();
    let timelines = request_timelines(&events);
    assert_eq!(timelines.len(), metrics.completed);
    for t in &timelines {
        let sum = t.queue_ms() + t.prefill_ms() + t.decode_ms();
        assert!(
            (sum - t.latency_ms()).abs() <= 1e-9 * t.latency_ms().max(1.0),
            "attribution must sum to end-to-end latency: {sum} vs {}",
            t.latency_ms()
        );
        assert!(t.queue_ms() >= 0.0 && t.prefill_ms() >= 0.0 && t.decode_ms() >= 0.0);
        // The serving replica is one the dispatch log routed this id to.
        assert!(metrics.per_replica[t.replica].assigned_ids.contains(&t.id));
    }
    // Pooled attribution agrees with the pooled metrics distributions.
    let mean_latency =
        timelines.iter().map(|t| t.latency_ms()).sum::<f64>() / timelines.len() as f64;
    assert!((mean_latency - metrics.request_latency.mean_ms).abs() < 1e-6);
}

#[test]
fn offline_scheduler_emits_the_same_lifecycle_through_its_sink() {
    use samoyeds_serve::Scheduler;

    let scfg = SchedulerConfig::default();
    let trace = samoyeds_serve::TraceConfig {
        num_requests: 20,
        arrival_rate_rps: 15.0,
        prompt_len_range: (32, 256),
        output_len_range: (4, 16),
        seed: 7,
    }
    .generate();
    let backend = SingleGpuBackend::new(
        DeviceSpec::a100_40g(),
        &MoeModelConfig::qwen2_moe(),
        EngineKind::Samoyeds,
        &scfg,
    );
    let (sink, recorder) = SharedSink::new(TraceRecorder::new());
    let traced = Scheduler::from_backend(backend, scfg)
        .with_sink(sink)
        .run(&trace);

    // The stream carries a step span per executed step with the single-GPU
    // cost split (no collectives), plus one first-token and one completion
    // event per request.
    let events = recorder.borrow().events();
    let steps: Vec<_> = events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::Step {
                total_ms,
                collective_ms,
                intra_island_ms,
                spine_ms,
                ..
            } => Some((total_ms, collective_ms, intra_island_ms, spine_ms)),
            _ => None,
        })
        .collect();
    assert_eq!(steps.len(), traced.steps.len());
    for ((total, collective, intra, spine), record) in steps.iter().zip(&traced.steps) {
        assert_eq!(total.to_bits(), record.time_ms.to_bits());
        assert_eq!(*collective, 0.0);
        assert_eq!(*intra, 0.0);
        assert_eq!(*spine, 0.0);
    }
    let first_tokens = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::FirstToken { .. }))
        .count();
    assert_eq!(first_tokens, traced.completed.len());
    let timelines = request_timelines(&events);
    assert_eq!(timelines.len(), traced.completed.len());
    for (t, c) in timelines.iter().zip(&traced.completed) {
        assert_eq!(t.id, c.request.id);
        assert_eq!(t.admitted_ms.to_bits(), c.admitted_ms.to_bits());
        assert_eq!(t.first_token_ms.to_bits(), c.first_token_ms.to_bits());
        assert_eq!(t.finished_ms.to_bits(), c.finished_ms.to_bits());
    }
}
