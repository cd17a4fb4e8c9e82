//! Property-based invariants of prefill/decode disaggregation: the request
//! ledger is conserved across the handoff (every offered request completes,
//! is rejected, or is explicitly failed — none vanish between pods), every
//! KV transfer moves exactly the bytes [`MemoryModel::kv_bytes`] prices for
//! the prompt it carries, and a disaggregated run is a pure function of its
//! configuration — identical runs replay bit-for-bit, events included.

use proptest::prelude::*;
use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::engines::EngineKind;
use samoyeds_serve::{
    DisaggregationConfig, ExecutionBackend, FleetConfig, FleetController, FleetMetrics, KvLink,
    MemoryModel, Request, SchedulerConfig, SharedSink, SingleGpuBackend, TraceConfig, TraceEvent,
    TraceRecorder,
};
use std::collections::BTreeMap;

fn replica(device: DeviceSpec, scfg: &SchedulerConfig) -> Box<dyn ExecutionBackend> {
    Box::new(SingleGpuBackend::new(
        device,
        &MoeModelConfig::qwen2_moe(),
        EngineKind::Samoyeds,
        scfg,
    ))
}

fn kv_memory() -> MemoryModel {
    MemoryModel::new(
        &DeviceSpec::rtx4070_super(),
        EngineKind::Samoyeds,
        &MoeModelConfig::qwen2_moe(),
    )
}

/// A fleet of `slots` pods — A100 prefill on the leading `prefill` slots,
/// RTX 4070 Super decode on the rest — run over `trace` with a recorder
/// attached. Returns the metrics and the recorded event stream.
fn run_disagg(
    trace: &[Request],
    slots: usize,
    prefill: usize,
    link: KvLink,
) -> (FleetMetrics, Vec<TraceEvent>) {
    let scfg = SchedulerConfig::default();
    let config = FleetConfig {
        max_replicas: slots,
        ..FleetConfig::default()
    };
    let disagg = DisaggregationConfig::uniform(
        (0..prefill).collect(),
        (prefill..slots).collect(),
        kv_memory(),
        link,
    );
    let (sink, recorder) = SharedSink::new(TraceRecorder::new());
    let mut controller = FleetController::new(config);
    for slot in 0..slots {
        let device = if slot < prefill {
            DeviceSpec::a100_40g()
        } else {
            DeviceSpec::rtx4070_super()
        };
        controller = controller.with_replica(replica(device, &scfg));
    }
    let metrics = controller
        .with_disaggregation(disagg)
        .with_sink(sink)
        .run(trace);
    let events = recorder.borrow().events();
    (metrics, events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation across the handoff: every offered request is either
    /// completed (decoded on a decode pod), rejected at admission, or
    /// explicitly failed — the split ids the handoff introduces never leak
    /// a request between the prefill and decode halves.
    #[test]
    fn the_request_ledger_is_conserved_across_the_handoff(
        seed in any::<u64>(),
        num_requests in 4usize..32,
        rate in 5.0f64..60.0,
        slots in 2usize..5,
        split in 1usize..4,
    ) {
        let prefill = split.min(slots - 1);
        let trace = TraceConfig {
            num_requests,
            arrival_rate_rps: rate,
            prompt_len_range: (16, 320),
            output_len_range: (2, 24),
            seed,
        }
        .generate();
        let link = KvLink { latency_us: 5.0, bandwidth_gbps: 50.0 };
        let (metrics, _) = run_disagg(&trace, slots, prefill, link);
        prop_assert_eq!(
            metrics.completed + metrics.rejected + metrics.failed(),
            trace.len(),
            "offered requests leaked between the pods"
        );
    }

    /// Byte conservation: each KV handoff carries exactly
    /// `MemoryModel::kv_bytes(prompt_len)` of the request it moves, every
    /// transfer that starts also lands, and a landing never precedes its
    /// start.
    #[test]
    fn every_transfer_moves_exactly_the_priced_kv_bytes(
        seed in any::<u64>(),
        num_requests in 4usize..24,
        latency_us in 1.0f64..50.0,
        bandwidth_gbps in 5.0f64..100.0,
    ) {
        let trace = TraceConfig {
            num_requests,
            arrival_rate_rps: 25.0,
            prompt_len_range: (16, 320),
            output_len_range: (2, 24),
            seed,
        }
        .generate();
        let prompt_lens: BTreeMap<u64, usize> =
            trace.iter().map(|r| (r.id, r.prompt_len)).collect();
        let memory = kv_memory();
        let link = KvLink { latency_us, bandwidth_gbps };
        let (_, events) = run_disagg(&trace, 3, 1, link);
        let mut started: BTreeMap<u64, f64> = BTreeMap::new();
        let mut landed = 0usize;
        for e in &events {
            match *e {
                TraceEvent::KvTransferStarted { id, bytes, at_ms, .. } => {
                    let prompt = prompt_lens[&id];
                    prop_assert_eq!(bytes, memory.kv_bytes(prompt));
                    started.insert(id, at_ms);
                }
                TraceEvent::KvTransferComplete { id, bytes, at_ms, .. } => {
                    let start = started[&id];
                    prop_assert!(at_ms >= start);
                    prop_assert_eq!(bytes, memory.kv_bytes(prompt_lens[&id]));
                    landed += 1;
                }
                _ => {}
            }
        }
        prop_assert_eq!(started.len(), landed, "a transfer started but never landed");
    }

    /// Seeded determinism: a disaggregated run is a pure function of its
    /// configuration — running it twice yields bit-identical metrics and an
    /// identical event stream.
    #[test]
    fn identical_disagg_runs_replay_bit_for_bit(
        seed in any::<u64>(),
        num_requests in 4usize..24,
        slots in 2usize..5,
        split in 1usize..4,
    ) {
        let prefill = split.min(slots - 1);
        let trace = TraceConfig {
            num_requests,
            arrival_rate_rps: 40.0,
            prompt_len_range: (16, 320),
            output_len_range: (2, 24),
            seed,
        }
        .generate();
        let link = KvLink { latency_us: 8.0, bandwidth_gbps: 25.0 };
        let (first, first_events) = run_disagg(&trace, slots, prefill, link);
        let (second, second_events) = run_disagg(&trace, slots, prefill, link);
        // `Debug` prints every field, and every float in round-trip
        // precision: equal renderings are bit-identical metrics.
        prop_assert_eq!(format!("{first:?}"), format!("{second:?}"));
        prop_assert_eq!(first_events, second_events);
    }
}
