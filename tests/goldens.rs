//! Golden snapshots of the simulator, one harness for every crate: each
//! file under `tests/golden/` is rendered from the current code and
//! compared line for line, and a mismatch prints the fresh rendering.
//!
//! `fleet_run.txt` pins `FleetController::run` — fixed, heterogeneous and
//! autoscaled fleets on a steady and a bursty trace, faults that fire,
//! disaggregated handoffs that restart, crash replacement, post-trace
//! re-admission and the drain cap — one block per scenario: request
//! counts, makespan and TTFT percentiles, per-replica assignment, the fault
//! and scale timelines, and FNV-1a digests of the `FleetMetrics` debug
//! rendering and of the recorded `TraceEvent` stream, so a changed number
//! *or* a reordered event shows up. `scheduler_runs.txt` pins single-GPU
//! `Scheduler::run`, one line per run.
//!
//! A layer that is installed but does nothing must change no output bit.
//! Every fleet block reruns with no sink, a `NullSink`, a `MetricsRegistry`
//! and a bounded recorder; every Poisson and bursty fleet also reruns after
//! an explicit `validate`, under an empty fault schedule with each recovery
//! policy, and with a disaggregation config that has no decode pods; every
//! scheduler run reruns with a recorder. Each rerun must render the same
//! `Debug` string as the recorded run.
//!
//! The price tables hold one price's exact bits per line:
//! `layer_costs.txt` for `Engine::moe_layer_cost` per (device, model,
//! engine configuration, token count), `attention_costs.txt` for
//! `attention_time_ms` and `attention_step_ms`, `collective_costs.txt`
//! for flat-topology and `LinkSpec` all-to-alls and the collective legs of
//! cluster steps, and `pod_step_costs.txt` for `ClusterBackend::step_cost`
//! (including its round-robin fallback) and a crash-recovered pod's
//! per-GPU compute. A pricing change shows up there as a table of changed
//! cells before it surfaces as a shifted makespan.
//!
//! `sparse_formats.txt` pins every sparse format's decode: per format and
//! shape, the non-zero count, the storage bytes and digests of the bits of
//! `to_dense` and of `spmm`.
//!
//! After a deliberate change, one command rewrites every file from the
//! current code (each fleet scenario replaces only its own block), and
//! `git diff` shows what moved:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test goldens
//! ```

use samoyeds::dist::{
    replan_after_crash, ClusterBackend, ClusterConfig, ClusterEngine, ClusterSimulator,
    ClusterTopology, FlowMatrix, LinkSpec, PlacementStrategy,
};
use samoyeds::gpu_sim::DeviceSpec;
use samoyeds::kernels::samoyeds_kernel::SamoyedsOptions;
use samoyeds::moe::attention::{attention_time_ms, AttentionKind};
use samoyeds::moe::config::MoeModelConfig;
use samoyeds::moe::engines::{Engine, EngineKind};
use samoyeds::moe::router::TopKRouter;
use samoyeds::serve::backend::{attention_step_ms, StepAttention, StepCost, StepWorkload};
use samoyeds::serve::batch::StepBatch;
use samoyeds::serve::{
    BatchLimits, BurstPhase, BurstyTraceConfig, DisaggregationConfig, DispatchPolicy,
    ExecutionBackend, FaultKind, FaultSchedule, FaultSpec, FleetConfig, FleetController,
    FleetMetrics, KvLink, MemoryModel, MetricsRegistry, NoAutoscale, NullSink, RecoveryPolicy,
    Request, RunningRequest, Scheduler, SchedulerConfig, SharedSink, SimulationResult,
    SingleGpuBackend, SloAutoscaler, TraceConfig, TraceEvent, TraceRecorder,
};
use samoyeds::sparse::nm::NmConfig;
use samoyeds::sparse::venom::VenomConfig;
use samoyeds::sparse::{
    CsrMatrix, DenseMatrix, NmMatrix, SamoyedsConfig, SamoyedsWeight, SparseFormat, VenomMatrix,
};
use std::cell::RefCell;
use std::fmt::{Debug, Write};
use std::path::Path;
use std::sync::Mutex;

const GOLDEN: &str = include_str!("golden/fleet_run.txt");

/// Whether this run rewrites the golden files instead of comparing.
fn updating_goldens() -> bool {
    std::env::var_os("UPDATE_GOLDENS").is_some_and(|v| v == "1")
}

/// Rewrite `tests/golden/<file>` to `edit` of its current contents. The
/// tests run on parallel threads, so the read-modify-write is serialised.
fn update_golden(file: &str, edit: impl FnOnce(&str) -> String) {
    static LOCK: Mutex<()> = Mutex::new(());
    let _guard = LOCK.lock().expect("an earlier golden update panicked");
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    let old = std::fs::read_to_string(&path).expect("read the golden file");
    let new = edit(&old);
    if new != old {
        std::fs::write(&path, new).expect("write the golden file");
    }
}

fn single(device: DeviceSpec, engine: EngineKind) -> Box<dyn ExecutionBackend> {
    Box::new(SingleGpuBackend::new(
        device,
        &MoeModelConfig::qwen2_moe(),
        engine,
        &SchedulerConfig::default(),
    ))
}

fn a100() -> Box<dyn ExecutionBackend> {
    single(DeviceSpec::a100_40g(), EngineKind::Samoyeds)
}

fn rtx4070s(engine: EngineKind) -> Box<dyn ExecutionBackend> {
    single(DeviceSpec::rtx4070_super(), engine)
}

fn poisson(num_requests: usize, arrival_rate_rps: f64, seed: u64) -> Vec<Request> {
    TraceConfig {
        num_requests,
        arrival_rate_rps,
        prompt_len_range: (64, 256),
        output_len_range: (4, 24),
        seed,
    }
    .generate()
}

fn scripted(faults: Vec<(f64, FaultKind)>) -> FaultSchedule {
    FaultSchedule::Scripted(
        faults
            .into_iter()
            .map(|(at_ms, kind)| FaultSpec { at_ms, kind })
            .collect(),
    )
}

fn disagg(prefill: Vec<usize>, decode: Vec<usize>, link: KvLink) -> DisaggregationConfig {
    let memory = MemoryModel::new(
        &DeviceSpec::a100_40g(),
        EngineKind::Samoyeds,
        &MoeModelConfig::qwen2_moe(),
    );
    DisaggregationConfig::uniform(prefill, decode, memory, link)
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn render(name: &str, offered: usize, metrics: &FleetMetrics, events: &[TraceEvent]) -> String {
    let mut out = String::new();
    writeln!(out, "[{name}]").unwrap();
    writeln!(
        out,
        "requests offered={offered} completed={} rejected={} failed={} unroutable={}",
        metrics.completed,
        metrics.rejected,
        metrics.failed(),
        metrics.unroutable_ids.len()
    )
    .unwrap();
    writeln!(
        out,
        "makespan_ms={:?} ttft_p50_ms={:?} ttft_p99_ms={:?}",
        metrics.makespan_ms, metrics.ttft.p50_ms, metrics.ttft.p99_ms
    )
    .unwrap();
    for (i, r) in metrics.per_replica.iter().enumerate() {
        writeln!(
            out,
            "replica {i} assigned={} completed={} retired={:?}",
            r.assigned, r.metrics.completed, r.retired_ms
        )
        .unwrap();
    }
    for f in &metrics.faults {
        writeln!(
            out,
            "fault at_ms={:?} {:?} lost={}/{} readmitted={} failed={} replacement={:?} \
             recovered_at_ms={:?}",
            f.at_ms,
            f.kind,
            f.lost_running,
            f.lost_queued,
            f.readmitted,
            f.failed,
            f.replacement,
            f.recovered_at_ms
        )
        .unwrap();
    }
    for e in &metrics.scale_events {
        writeln!(
            out,
            "scale at_ms={:?} {:?} replicas_after={} reason={}",
            e.at_ms, e.kind, e.replicas_after, e.reason
        )
        .unwrap();
    }
    writeln!(out, "drain {}", metrics.drain_status()).unwrap();
    writeln!(
        out,
        "metrics_fnv={:016x}",
        fnv1a(format!("{metrics:?}").as_bytes())
    )
    .unwrap();
    writeln!(
        out,
        "trace_fnv={:016x} events={}",
        fnv1a(format!("{events:?}").as_bytes()),
        events.len()
    )
    .unwrap();
    out
}

/// The checked-in block for `name`: from its `[name]` header up to the next
/// blank line.
fn golden_block(name: &str) -> Option<String> {
    let header = format!("[{name}]");
    let mut lines = GOLDEN.lines().skip_while(|l| *l != header);
    let first = lines.next()?;
    let mut block = format!("{first}\n");
    for line in lines.take_while(|l| !l.is_empty()) {
        block.push_str(line);
        block.push('\n');
    }
    Some(block)
}

/// `golden` with the `[name]` block replaced by `fresh`, or with `fresh`
/// appended if the scenario is new. Blocks are separated by one blank line.
fn with_block(golden: &str, name: &str, fresh: &str) -> String {
    let header = format!("[{name}]");
    let mut blocks: Vec<&str> = golden
        .split("\n\n")
        .map(str::trim_end)
        .filter(|b| !b.is_empty())
        .collect();
    let fresh = fresh.trim_end();
    match blocks
        .iter()
        .position(|b| b.lines().next() == Some(&header))
    {
        Some(i) => blocks[i] = fresh,
        None => blocks.push(fresh),
    }
    blocks.join("\n\n") + "\n"
}

fn check(name: &str, offered: usize, metrics: &FleetMetrics, events: &[TraceEvent]) {
    // A capped drain stops the run: it cannot have finished every request.
    if metrics.drain_incomplete {
        assert!(
            metrics.completed + metrics.rejected + metrics.failed() < offered,
            "[{name}] hit the drain cap yet accounted for all {offered} requests"
        );
    }
    let fresh = render(name, offered, metrics, events);
    if updating_goldens() {
        update_golden("fleet_run.txt", |golden| with_block(golden, name, &fresh));
    } else if golden_block(name).as_deref() != Some(fresh.as_str()) {
        println!("fresh rendering of [{name}]:\n{fresh}");
        panic!(
            "[{name}] differs from tests/golden/fleet_run.txt (fresh block printed above); \
             rerun with UPDATE_GOLDENS=1 to rewrite it"
        );
    }
}

/// A fast prefill → decode link.
fn fast_link() -> KvLink {
    KvLink {
        latency_us: 5.0,
        bandwidth_gbps: 50.0,
    }
}

/// Panic unless `fresh`, a run with `layer` installed, renders exactly as
/// `recorded`, the run behind block `[name]`. `Debug` prints every field,
/// and every float in round-trip precision, so equal renderings mean
/// bit-identical results.
fn assert_inert<T: Debug>(name: &str, layer: &str, recorded: &T, fresh: &T) {
    let (recorded, fresh) = (format!("{recorded:?}"), format!("{fresh:?}"));
    if fresh != recorded {
        let at = recorded
            .chars()
            .zip(fresh.chars())
            .take_while(|(a, b)| a == b)
            .count();
        let near = |s: &str| {
            s.chars()
                .skip(at.saturating_sub(40))
                .take(120)
                .collect::<String>()
        };
        panic!(
            "[{name}] {layer} changed the run; the renderings part at char {at}:\n- {}\n+ {}",
            near(&recorded),
            near(&fresh)
        );
    }
}

/// Run the fleet `build` makes over `trace` with a recorder attached, check
/// it against block `[name]` of `fleet_run.txt`, and check that running it
/// with no sink, a `NullSink`, a `MetricsRegistry` or a bounded recorder
/// leaves its metrics unchanged.
fn check_run(
    name: &str,
    build: impl Fn() -> FleetController,
    trace: &[Request],
) -> (FleetMetrics, Vec<TraceEvent>) {
    let (sink, recorder) = SharedSink::new(TraceRecorder::new());
    let metrics = build().with_sink(sink).run(trace);
    let events = recorder.borrow().events();
    check(name, trace.len(), &metrics, &events);
    assert_inert(
        name,
        "running without a sink",
        &metrics,
        &build().run(trace),
    );
    let sinks = [
        ("a NullSink", SharedSink::new(NullSink).0),
        (
            "a MetricsRegistry",
            SharedSink::new(MetricsRegistry::new()).0,
        ),
        (
            "a bounded TraceRecorder",
            SharedSink::new(TraceRecorder::bounded(64)).0,
        ),
    ];
    for (layer, sink) in sinks {
        assert_inert(name, layer, &metrics, &build().with_sink(sink).run(trace));
    }
    (metrics, events)
}

/// Serve a steady Poisson trace and a calm → spike → calm burst on the fleet
/// `build` makes, and check blocks `<name>_poisson` and `<name>_bursty`.
/// Besides the sinks [`check_run`] installs, validating first, an empty
/// fault schedule under each recovery policy and a disaggregation config
/// with no decode pods must each leave every run unchanged.
fn check_steady_and_bursty(name: &str, build: impl Fn() -> FleetController) {
    let poisson = TraceConfig {
        num_requests: 48,
        arrival_rate_rps: 30.0,
        prompt_len_range: (32, 384),
        output_len_range: (4, 32),
        seed: 23,
    }
    .generate();
    let bursty = BurstyTraceConfig {
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
    .generate();
    for (trace_name, trace) in [("poisson", poisson), ("bursty", bursty)] {
        let name = format!("{name}_{trace_name}");
        let (metrics, _) = check_run(&name, &build, &trace);
        assert_eq!(
            metrics.completed + metrics.rejected + metrics.failed(),
            trace.len()
        );
        let validated = build();
        validated.validate(&trace).assert_valid();
        assert_inert(&name, "validating first", &metrics, &validated.run(&trace));
        for recovery in [
            RecoveryPolicy::default(),
            RecoveryPolicy::fail_fast(),
            RecoveryPolicy::readmit_and_replace(25.0),
        ] {
            let layer = format!("an empty fault schedule under {recovery:?}");
            let fresh = build()
                .with_faults(FaultSchedule::none(), recovery)
                .run(&trace);
            assert_inert(&name, &layer, &metrics, &fresh);
        }
        // Scale-outs commission on control ticks, all after 0 ms, so the
        // replicas spawned at 0 are the initial fleet: all prefill pods.
        let initial = metrics
            .per_replica
            .iter()
            .filter(|r| r.spawned_ms == 0.0)
            .count();
        let prefill_only = disagg((0..initial).collect(), Vec::new(), fast_link());
        assert_inert(
            &name,
            "a disaggregation config with no decode pods",
            &metrics,
            &build().with_disaggregation(prefill_only).run(&trace),
        );
    }
}

#[test]
fn fixed_fleet_runs_without_control_ticks() {
    // NoAutoscale elides the tick schedule: only arrivals and step
    // completions move the fleet.
    check_steady_and_bursty("fixed_no_ticks", || {
        FleetController::new(FleetConfig::default())
            .with_replica(a100())
            .with_replica(a100())
    });
}

#[test]
fn heterogeneous_round_robin_fleet_skips_dead_weight() {
    // Dense weights never fit the 12 GiB card: round-robin's cursor walks
    // only the two replicas that can admit.
    let config = FleetConfig {
        policy: DispatchPolicy::RoundRobin,
        ..FleetConfig::default()
    };
    check_steady_and_bursty("heterogeneous_round_robin", || {
        FleetController::new(config)
            .with_replica(a100())
            .with_replica(rtx4070s(EngineKind::Samoyeds))
            .with_replica(rtx4070s(EngineKind::Transformers))
    });
}

#[test]
fn autoscaled_fleet_scales_out_and_back_in() {
    let config = FleetConfig {
        warmup_ms: 500.0,
        max_replicas: 4,
        ..FleetConfig::default()
    };
    check_steady_and_bursty("autoscaled", || {
        FleetController::new(config)
            .with_replica(a100())
            .with_factory(a100)
            .with_autoscaler(SloAutoscaler::new(400.0))
    });
}

#[test]
fn heterogeneous_autoscaled_fleet_scales_out_with_a100s() {
    // A mixed fleet whose scale-outs are A100s: routing, admission, steps,
    // scale-out and scale-in, warm-up and drain all fire.
    let config = FleetConfig {
        warmup_ms: 500.0,
        max_replicas: 4,
        ..FleetConfig::default()
    };
    check_steady_and_bursty("heterogeneous_autoscaled", || {
        FleetController::new(config)
            .with_replica(a100())
            .with_replica(rtx4070s(EngineKind::Samoyeds))
            .with_factory(a100)
            .with_autoscaler(SloAutoscaler::new(400.0))
    });
}

#[test]
fn zero_warmup_fleet_on_a_250ms_tick() {
    // A zero-length warm-up lands at its own scale-out tick, and an odd
    // 250 ms period stresses the tick/arrival interleaving.
    let config = FleetConfig {
        tick_ms: 250.0,
        warmup_ms: 0.0,
        max_replicas: 3,
        ..FleetConfig::default()
    };
    check_steady_and_bursty("zero_warmup_250ms_tick", || {
        FleetController::new(config)
            .with_replica(rtx4070s(EngineKind::Samoyeds))
            .with_factory(|| rtx4070s(EngineKind::Samoyeds))
            .with_autoscaler(SloAutoscaler::new(900.0))
    });
}

#[test]
fn decode_pod_crash_with_kv_on_the_wire_restarts_the_transfer() {
    let crashed = 1;
    let trace = poisson(40, 30.0, 5);
    // A slow link keeps each multi-MB handoff on the wire for hundreds of
    // ms, so the crash catches transfers headed for the dying pod.
    let link = KvLink {
        latency_us: 2_000.0,
        bandwidth_gbps: 0.05,
    };
    let faults = scripted(vec![
        (
            250.0,
            FaultKind::LinkDegrade {
                replica: 2,
                duration_ms: 150.0,
            },
        ),
        (700.0, FaultKind::ReplicaCrash { replica: crashed }),
    ]);
    let (metrics, events) = check_run(
        "disagg_decode_crash_readmit",
        || {
            FleetController::new(FleetConfig::default())
                .with_replica(a100())
                .with_replica(a100())
                .with_replica(a100())
                .with_disaggregation(disagg(vec![0], vec![1, 2], link))
                .with_faults(faults.clone(), RecoveryPolicy::readmit_after(30.0))
        },
        &trace,
    );

    // Some transfer started toward the crashed pod, never landed there, and
    // restarted toward another decode pod without being routed again.
    let restarted = events.iter().enumerate().any(|(i, e)| match *e {
        TraceEvent::KvTransferStarted { id, to, .. } if to == crashed => events[i + 1..]
            .iter()
            .take_while(|later| {
                !matches!(**later,
                    TraceEvent::KvTransferComplete { id: other, .. }
                    | TraceEvent::Routed { id: other, .. } if other == id)
            })
            .any(|later| {
                matches!(*later,
                    TraceEvent::KvTransferStarted { id: other, to: next, .. }
                    if other == id && next != crashed)
            }),
        _ => false,
    });
    assert!(
        restarted,
        "no transfer restarted after landing on the dead pod"
    );
    assert_eq!(
        metrics.completed + metrics.rejected + metrics.failed(),
        trace.len()
    );
}

#[test]
fn prefill_pod_crash_fails_fast() {
    let trace = poisson(30, 30.0, 8);
    let (metrics, _) = check_run(
        "disagg_prefill_crash_fail_fast",
        || {
            FleetController::new(FleetConfig::default())
                .with_replica(a100())
                .with_replica(a100())
                .with_replica(a100())
                .with_disaggregation(disagg(vec![0, 1], vec![2], fast_link()))
                .with_faults(
                    scripted(vec![(400.0, FaultKind::ReplicaCrash { replica: 0 })]),
                    RecoveryPolicy::fail_fast(),
                )
        },
        &trace,
    );
    assert!(metrics.faults[0].failed > 0, "{:?}", metrics.faults);
    assert_eq!(
        metrics.completed + metrics.rejected + metrics.failed(),
        trace.len()
    );
}

#[test]
fn autoscaled_crash_is_replaced_and_a_partition_heals() {
    let trace = BurstyTraceConfig {
        phases: vec![
            BurstPhase {
                arrival_rate_rps: 4.0,
                num_requests: 8,
            },
            BurstPhase {
                arrival_rate_rps: 120.0,
                num_requests: 50,
            },
            BurstPhase {
                arrival_rate_rps: 4.0,
                num_requests: 8,
            },
        ],
        prompt_len_range: (64, 256),
        output_len_range: (8, 32),
        seed: 29,
    }
    .generate();
    let config = FleetConfig {
        warmup_ms: 300.0,
        max_replicas: 5,
        ..FleetConfig::default()
    };
    let faults = scripted(vec![
        (2_200.0, FaultKind::ReplicaCrash { replica: 0 }),
        (
            2_400.0,
            FaultKind::IslandPartition {
                island: 1,
                replicas: vec![1, 2],
                duration_ms: 400.0,
            },
        ),
    ]);
    let (metrics, _) = check_run(
        "autoscaled_crash_replace_partition",
        || {
            FleetController::new(config)
                .with_replica(a100())
                .with_replica(a100())
                .with_replica(a100())
                .with_factory(a100)
                .with_autoscaler(SloAutoscaler::new(150.0))
                .with_faults(faults.clone(), RecoveryPolicy::readmit_and_replace(50.0))
        },
        &trace,
    );
    let crash = metrics
        .faults
        .iter()
        .find(|f| matches!(f.kind, FaultKind::ReplicaCrash { .. }))
        .expect("the crash fired");
    assert!(crash.replacement.is_some(), "{crash:?}");
    assert_eq!(
        metrics.completed + metrics.rejected + metrics.failed(),
        trace.len()
    );
}

#[test]
fn fixed_fleet_readmits_after_the_last_arrival() {
    let trace = poisson(16, 40.0, 13);
    let last_arrival = trace.last().unwrap().arrival_ms;
    let (metrics, _) = check_run(
        "fixed_post_trace_readmission",
        || {
            FleetController::new(FleetConfig::default())
                .with_replica(a100())
                .with_replica(a100())
                .with_autoscaler(NoAutoscale)
                .with_faults(
                    scripted(vec![(
                        last_arrival - 20.0,
                        FaultKind::ReplicaCrash { replica: 0 },
                    )]),
                    RecoveryPolicy::readmit_after(200.0),
                )
        },
        &trace,
    );
    let record = &metrics.faults[0];
    assert!(record.readmitted > 0, "{record:?}");
    assert!(
        record.recovered_at_ms.is_some_and(|t| t > last_arrival),
        "{record:?}"
    );
    assert_eq!(metrics.completed, trace.len());
}

/// A heavy request at 0 ms and a light one at 2 ms: neither finishes
/// within three 1 ms drain ticks.
fn drain_cap_trace() -> Vec<Request> {
    vec![
        Request {
            id: 0,
            arrival_ms: 0.0,
            prompt_len: 2048,
            output_len: 256,
        },
        Request {
            id: 1,
            arrival_ms: 2.0,
            prompt_len: 64,
            output_len: 4,
        },
    ]
}

/// 1 ms control ticks, and a drain cap of three of them.
fn drain_cap_config() -> FleetConfig {
    FleetConfig {
        tick_ms: 1.0,
        max_drain_ticks: 3,
        ..FleetConfig::default()
    }
}

#[test]
fn drain_cap_stops_the_run_with_work_outstanding() {
    let (metrics, _) = check_run(
        "drain_cap",
        || {
            FleetController::new(drain_cap_config())
                .with_replica(a100())
                .with_replica(a100())
                .with_autoscaler(SloAutoscaler::new(1e12))
        },
        &drain_cap_trace(),
    );
    assert!(metrics.drain_incomplete);
    assert!(!metrics.drain_incomplete_replicas.is_empty());
}

#[test]
fn drain_cap_stops_the_step_chains_of_a_disaggregated_run() {
    let (metrics, _) = check_run(
        "drain_cap_disagg",
        || {
            FleetController::new(drain_cap_config())
                .with_replica(a100())
                .with_replica(a100())
                .with_disaggregation(disagg(vec![0], vec![1], fast_link()))
                .with_autoscaler(SloAutoscaler::new(1e12))
        },
        &drain_cap_trace(),
    );
    assert!(metrics.drain_incomplete);
}

/// The layer price table's models: a shared-expert model, the ReLU model
/// two engines cannot run and an 8-expert model.
fn layer_models() -> [MoeModelConfig; 3] {
    [
        MoeModelConfig::qwen2_moe(),
        MoeModelConfig::openmoe_34b(),
        MoeModelConfig::mixtral_8x7b(),
    ]
}

/// The layer price table's token counts: around the N-tile (64) and the
/// 16/128-token padding boundaries, up to a full 2,048-token step.
const LAYER_TOKENS: [usize; 7] = [0, 1, 7, 64, 65, 216, 2048];

/// One line per priced cell: every engine and the Samoyeds breakdown
/// presets over [`layer_models`] and [`LAYER_TOKENS`], on the datacenter and
/// the consumer card.
fn render_layer_costs() -> String {
    let engines: Vec<(&str, EngineKind, SamoyedsOptions)> = vec![
        (
            "Transformers",
            EngineKind::Transformers,
            SamoyedsOptions::FULL,
        ),
        ("MegaBlocks", EngineKind::MegaBlocks, SamoyedsOptions::FULL),
        ("vLLM-DS", EngineKind::VllmDs, SamoyedsOptions::FULL),
        ("PIT", EngineKind::Pit, SamoyedsOptions::FULL),
        ("Samoyeds", EngineKind::Samoyeds, SamoyedsOptions::FULL),
        (
            "Samoyeds+W",
            EngineKind::Samoyeds,
            SamoyedsOptions::WEIGHT_ONLY,
        ),
        (
            "Samoyeds+WI",
            EngineKind::Samoyeds,
            SamoyedsOptions::WEIGHT_INPUT,
        ),
        (
            "Samoyeds+WIT",
            EngineKind::Samoyeds,
            SamoyedsOptions::WEIGHT_INPUT_LAYOUT,
        ),
    ];
    let mut out = String::new();
    for (device_name, device) in [
        ("a100", DeviceSpec::a100_40g()),
        ("4070s", DeviceSpec::rtx4070_super()),
    ] {
        for model in &layer_models() {
            let router = TopKRouter::for_config(model, 7);
            for tokens in LAYER_TOKENS {
                let plan = router.route(tokens);
                for (engine_name, kind, options) in &engines {
                    let time_ms = Engine::new(*kind, device.clone())
                        .with_samoyeds_options(*options)
                        .moe_layer_cost(model, tokens, &plan)
                        .time_ms;
                    writeln!(
                        out,
                        "{device_name} {} {engine_name} tokens={tokens} bits={:016x} time_ms={time_ms:?}",
                        model.name,
                        time_ms.to_bits()
                    )
                    .unwrap();
                }
            }
        }
    }
    out
}

/// Compare a freshly rendered table with `tests/golden/<file>`, or rewrite
/// the file under `UPDATE_GOLDENS=1`. On a mismatch, print the changed
/// cells and the fresh table to paste in.
fn check_table(file: &str, golden: &str, fresh: String) {
    if updating_goldens() {
        update_golden(file, |_| fresh);
    } else if fresh != golden {
        let changed: Vec<String> = golden
            .lines()
            .zip(fresh.lines())
            .filter(|(old, new)| old != new)
            .map(|(old, new)| format!("- {old}\n+ {new}"))
            .collect();
        println!(
            "{} changed cells:\n{}\nfresh table:\n{fresh}",
            changed.len(),
            changed.join("\n")
        );
        panic!(
            "cells differ from tests/golden/{file} (fresh table printed above); \
             rerun with UPDATE_GOLDENS=1 to rewrite it"
        );
    }
}

#[test]
fn moe_layer_costs_match_the_golden_price_table() {
    check_table(
        "layer_costs.txt",
        include_str!("golden/layer_costs.txt"),
        render_layer_costs(),
    );
}

#[test]
fn an_engine_warmed_on_a_full_step_prices_like_a_fresh_one_bit_for_bit() {
    // A Samoyeds engine fills its price row through the largest N-tile
    // bucket a call needs and reads bucket 0 for an idle expert; a dense
    // engine keeps every column count it priced, with the zero price at 0.
    // Warm one engine per configuration on a 2,048-token step of every
    // model, then price the layer table's cells, an all-zero load vector
    // and the empty loads `ClusterSimulator` passes for shared experts at
    // each of its token counts: every price must match a fresh engine's.
    let configurations = [
        (EngineKind::Transformers, SamoyedsOptions::FULL),
        (EngineKind::MegaBlocks, SamoyedsOptions::FULL),
        (EngineKind::VllmDs, SamoyedsOptions::FULL),
        (EngineKind::Pit, SamoyedsOptions::FULL),
        (EngineKind::Samoyeds, SamoyedsOptions::FULL),
        (EngineKind::Samoyeds, SamoyedsOptions::WEIGHT_ONLY),
    ];
    let models = layer_models();
    let mut cells = 0;
    for device in [DeviceSpec::a100_40g(), DeviceSpec::rtx4070_super()] {
        for (kind, options) in configurations {
            let fresh = || Engine::new(kind, device.clone()).with_samoyeds_options(options);
            let warmed = fresh();
            for model in &models {
                let plan = TopKRouter::for_config(model, 7).route(2048);
                warmed.moe_layer_cost(model, 2048, &plan);
            }
            for model in &models {
                let router = TopKRouter::for_config(model, 7);
                for tokens in LAYER_TOKENS {
                    let zero = vec![0; model.num_experts];
                    let inputs = [
                        ("cell", router.route(tokens).expert_loads()),
                        ("zero loads", zero),
                        ("no loads", Vec::new()),
                    ];
                    for (input, loads) in inputs {
                        let priced = warmed.moe_layer_cost_for_loads(model, tokens, &loads);
                        let expected = fresh().moe_layer_cost_for_loads(model, tokens, &loads);
                        assert_eq!(
                            priced.time_ms.to_bits(),
                            expected.time_ms.to_bits(),
                            "{} {} {options:?} {} tokens={tokens} {input}",
                            device.name,
                            kind.name(),
                            model.name
                        );
                        cells += 1;
                    }
                }
            }
        }
    }
    assert_eq!(cells, 2 * 6 * 3 * 7 * 3);
}

#[test]
fn a_pod_backend_reused_across_mixed_steps_prices_like_a_fresh_one_bit_for_bit() {
    // A pod backend keeps its placement and dispatch buffers from one step
    // to the next, and routes with a scratch its caller keeps. Nothing may
    // carry over: one long-lived backend prices a mixed run of step sizes,
    // with a KV-pressure step between two normal ones, and every step must
    // price like a freshly built backend on a fresh scratch and like a
    // clone of the warmed one. The warmed backends of every pod share one
    // scratch, which keeps each step index's stream from its second call.
    let scfg = SchedulerConfig::default();
    let model = MoeModelConfig::qwen2_moe();
    let shared = RefCell::default();
    let islands =
        ClusterTopology::symmetric(2, 2, LinkSpec::nvlink3(), LinkSpec::infiniband_ndr()).unwrap();
    let a100 = |gpus| ClusterConfig::new(DeviceSpec::a100_40g(), gpus, ClusterEngine::Samoyeds);
    let pods = [
        // The prefill pod of the `pods_disagg_faults` benchmark workload.
        a100(4).with_topology(islands.clone()),
        a100(4)
            .with_topology(islands)
            .with_strategy(PlacementStrategy::ReplicateHotPerIsland { hot: 2 }),
        a100(3).with_strategy(PlacementStrategy::ReplicateHot { hot: 2 }),
    ];
    for cluster in pods {
        let gpus = cluster.num_gpus;
        let sim = ClusterSimulator::new(cluster.clone(), model.clone());
        let kv_local = |running: &[RunningRequest]| {
            running
                .iter()
                .map(|r| r.context_tokens())
                .sum::<usize>()
                .div_ceil(gpus)
        };
        // The KV-pressure step: 4 decodes and a 4-token chunk whose
        // contexts leave each GPU room for exactly round-robin's balanced
        // share. Capacity-greedy packs to that share; the replicating
        // strategies need more and fall back to round-robin.
        let balanced = model.num_experts.div_ceil(gpus);
        let capacity = |context: usize| {
            let (running, _) = pod_step(8, |_| context);
            sim.memory()
                .max_experts_per_gpu(kv_local(&running), 8usize.div_ceil(gpus))
        };
        let mut context = 0;
        while capacity(context + 256) >= balanced {
            context += 256;
        }
        while capacity(context + 1) >= balanced {
            context += 1;
        }
        assert_eq!(capacity(context), balanced);
        let steps = [
            pod_step(1, |d| 16 + d),
            pod_step(2048, |d| 16 + 7 * d % 500),
            pod_step(64, |d| 300 + d),
            pod_step(8, |_| context),
            pod_step(65, |d| 40 + 3 * d),
            pod_step(8, |d| 1_000 + d),
        ];
        let warmed = ClusterBackend::new(cluster.clone(), model.clone(), &scfg);
        for (i, (running, batch)) in steps.iter().enumerate() {
            let workload = StepWorkload {
                batch,
                running,
                step_index: 31 * i as u64 + 5,
                route: &shared,
            };
            if i == 3 {
                let loads = TopKRouter::for_config(&model, scfg.routing_seed).route_loads_seeded(
                    scfg.routing_seed ^ workload.step_index,
                    workload.step_tokens(),
                    1,
                );
                let placed = cluster.strategy.place_on(
                    &loads,
                    sim.topology(),
                    sim.memory(),
                    kv_local(running),
                    workload.step_tokens().div_ceil(gpus),
                );
                let replicating = cluster.strategy != PlacementStrategy::CapacityGreedy;
                assert_eq!(placed.is_err(), replicating, "{}", warmed.describe());
            }
            let label = format!("{} step {i}", warmed.describe());
            let clone = warmed.clone();
            let fresh = ClusterBackend::new(cluster.clone(), model.clone(), &scfg);
            let on_fresh_scratch = StepWorkload {
                route: &RefCell::default(),
                ..workload
            };
            let expected = step_cost_line(&label, &fresh.step_cost(&on_fresh_scratch));
            assert_eq!(
                step_cost_line(&label, &warmed.step_cost(&workload)),
                expected
            );
            assert_eq!(
                step_cost_line(&label, &clone.step_cost(&workload)),
                expected
            );
        }
    }
}

/// The step batches `attention_step_ms` is pinned on for `model`: a mixed
/// batch, a decode-only batch and an empty one.
fn attention_batches(
    model: &MoeModelConfig,
) -> Vec<(&'static str, Vec<RunningRequest>, StepBatch)> {
    let request = |id: u64, prompt_len: usize, prefilled: usize, decoded: usize| {
        let mut r = RunningRequest::new(
            Request {
                id,
                arrival_ms: 0.0,
                prompt_len,
                output_len: 64,
            },
            0.0,
        );
        r.prefilled = prefilled;
        r.decoded = decoded;
        r
    };
    let max = model.max_seq_len;
    let mixed = vec![
        // Two fresh chunks with the same prompt length.
        request(0, 216, 0, 0),
        request(1, 216, 0, 0),
        // Resumed at 512.
        request(2, 1024, 512, 0),
        // Crosses the model's maximum sequence length.
        request(3, max + 512, max - 100, 0),
        // Ends where the resumed chunk starts.
        request(4, 1024, 448, 0),
        // Two decodes.
        request(5, 100, 100, 5),
        request(6, 3000, 3000, 40),
    ];
    let mixed_batch = StepBatch {
        prefill: vec![(0, 216), (1, 216), (2, 64), (3, 256), (4, 64)],
        decode: vec![5, 6],
    };
    let decodes = vec![
        request(0, 16, 16, 1),
        request(1, 700, 700, 63),
        request(2, max, max, 9),
    ];
    let decode_batch = StepBatch {
        prefill: Vec::new(),
        decode: vec![0, 1, 2],
    };
    vec![
        ("mixed", mixed, mixed_batch),
        ("decode-only", decodes, decode_batch),
        ("empty", Vec::new(), StepBatch::default()),
    ]
}

/// One line per priced cell: `attention_time_ms` over sequence lengths
/// around the 64-column tile and up to 8K tokens, then `attention_step_ms`
/// on each of [`attention_batches`], for both attention kinds on two
/// models and the datacenter and consumer cards.
fn render_attention_costs() -> String {
    let models = [MoeModelConfig::qwen2_moe(), MoeModelConfig::mixtral_8x7b()];
    let mut out = String::new();
    for (device_name, device) in [
        ("a100", DeviceSpec::a100_40g()),
        ("4070s", DeviceSpec::rtx4070_super()),
    ] {
        for model in &models {
            for kind in [AttentionKind::Flash, AttentionKind::Standard] {
                for tokens in [1usize, 7, 64, 65, 216, 512, 2048, 8192] {
                    let time_ms = attention_time_ms(&device, model, tokens, kind);
                    writeln!(
                        out,
                        "{device_name} {} {kind:?} tokens={tokens} bits={:016x} time_ms={time_ms:?}",
                        model.name,
                        time_ms.to_bits()
                    )
                    .unwrap();
                }
                for (batch_name, running, batch) in attention_batches(model) {
                    let time_ms = attention_step_ms(&device, model, kind, &batch, &running);
                    writeln!(
                        out,
                        "{device_name} {} {kind:?} step={batch_name} bits={:016x} time_ms={time_ms:?}",
                        model.name,
                        time_ms.to_bits()
                    )
                    .unwrap();
                }
            }
        }
    }
    out
}

#[test]
fn attention_costs_match_the_golden_price_table() {
    check_table(
        "attention_costs.txt",
        include_str!("golden/attention_costs.txt"),
        render_attention_costs(),
    );
}

#[test]
fn a_backends_attention_model_prices_like_a_fresh_one_bit_for_bit() {
    // The serving backends price attention through one long-lived
    // `StepAttention`, whose model keeps the price of every context length
    // it was asked. Price the golden table's step batches and one fresh
    // prompt per golden sequence length (64 and 65 are neighbours) through
    // one, in order and then in reverse (every length a cache hit): each
    // must match a fresh `attention_step_ms` bit for bit.
    let mut cells = 0;
    for device in [DeviceSpec::a100_40g(), DeviceSpec::rtx4070_super()] {
        for model in [MoeModelConfig::qwen2_moe(), MoeModelConfig::mixtral_8x7b()] {
            let mut batches = attention_batches(&model);
            for tokens in [7usize, 64, 65, 216, 512, 2048, 8192] {
                let request = Request {
                    id: 0,
                    arrival_ms: 0.0,
                    prompt_len: tokens,
                    output_len: 1,
                };
                let batch = StepBatch {
                    prefill: vec![(0, tokens)],
                    decode: Vec::new(),
                };
                batches.push(("prompt", vec![RunningRequest::new(request, 0.0)], batch));
            }
            for kind in [AttentionKind::Flash, AttentionKind::Standard] {
                let attention = StepAttention::new(kind);
                for (name, running, batch) in batches.iter().chain(batches.iter().rev()) {
                    let fresh = attention_step_ms(&device, &model, kind, batch, running);
                    let priced = attention.step_ms(&device, &model, batch, running);
                    assert_eq!(
                        priced.to_bits(),
                        fresh.to_bits(),
                        "{} {} {kind:?} step={name} prefill={:?}",
                        device.name,
                        model.name,
                        batch.prefill
                    );
                    cells += 1;
                }
            }
        }
    }
    assert_eq!(cells, 160);
}

/// One line for a single-GPU `Scheduler::run`: its counts, the bits of its
/// makespan, peak memory and budget, and digests of every step's
/// `(time_ms, memory_bytes, collective_ms)` bits and of the request records.
fn scheduler_run_line(label: &str, run: &SimulationResult) -> String {
    assert!(
        run.steps.iter().all(|s| s.collective_ms == 0.0),
        "{label}: a single GPU pays no collectives"
    );
    let step_bits: Vec<u8> = run
        .steps
        .iter()
        .flat_map(|s| [s.time_ms, s.memory_bytes, s.collective_ms])
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    format!(
        "{label} {:?} supported={} admitted={} completed={} rejected={} steps={} \
         makespan_bits={:016x} peak_memory_bits={:016x} budget_bits={:016x} steps_fnv={:016x} \
         completed_fnv={:016x} rejected_fnv={:016x} makespan_ms={:?}\n",
        run.engine,
        run.supported,
        run.admitted,
        run.completed.len(),
        run.rejected.len(),
        run.steps.len(),
        run.makespan_ms.to_bits(),
        run.peak_memory_bytes.to_bits(),
        run.budget_bytes.to_bits(),
        fnv1a(&step_bits),
        fnv1a(format!("{:?}", run.completed).as_bytes()),
        fnv1a(format!("{:?}", run.rejected).as_bytes()),
        run.makespan_ms,
    )
}

/// Run `scheduler` over `requests`, and check that running it again with a
/// recording sink leaves the result unchanged.
fn scheduler_run(label: &str, scheduler: Scheduler, requests: &[Request]) -> SimulationResult {
    let run = scheduler.run(requests);
    let (sink, _) = SharedSink::new(TraceRecorder::new());
    let traced = scheduler.with_sink(sink).run(requests);
    assert_inert(label, "a recording sink", &run, &traced);
    run
}

/// One line per single-GPU `Scheduler::run`: three device/model pairs × two
/// traces × three engines on the default configuration, a run under tight
/// batch limits with a custom routing seed, and an engine that cannot run
/// its model (it rejects the whole trace without simulating a step).
fn render_scheduler_runs() -> String {
    let trace =
        |num_requests, arrival_rate_rps, prompt_len_range, output_len_range, seed| TraceConfig {
            num_requests,
            arrival_rate_rps,
            prompt_len_range,
            output_len_range,
            seed,
        };
    let (a100, rtx) = (DeviceSpec::a100_40g(), DeviceSpec::rtx4070_super());
    let (qwen, deepseek) = (MoeModelConfig::qwen2_moe(), MoeModelConfig::deepseek_moe());
    let scfg = SchedulerConfig::default();
    let mut out = String::new();
    for (device_name, device, model) in [
        ("a100", &a100, &qwen),
        ("a100", &a100, &deepseek),
        ("4070s", &rtx, &qwen),
    ] {
        for trace in [
            trace(24, 12.0, (32, 256), (4, 24), 7),
            trace(40, 4.0, (64, 512), (16, 64), 42),
        ] {
            let label = format!("{device_name} {} trace_seed={}", model.name, trace.seed);
            let requests = trace.generate();
            for engine in [
                EngineKind::Samoyeds,
                EngineKind::Transformers,
                EngineKind::VllmDs,
            ] {
                let scheduler = Scheduler::new(device.clone(), model.clone(), engine, scfg);
                let run = scheduler_run(&format!("{label} {engine:?}"), scheduler, &requests);
                out += &scheduler_run_line(&label, &run);
            }
        }
    }
    let tight = SchedulerConfig {
        limits: BatchLimits {
            max_batched_tokens: 96,
            max_running: 3,
            prefill_chunk: 48,
        },
        routing_seed: 1234,
        ..scfg
    };
    let label = "a100 Qwen2-MoE tight_limits routing_seed=1234 trace_seed=99";
    let run = scheduler_run(
        label,
        Scheduler::new(a100.clone(), qwen, EngineKind::Samoyeds, tight),
        &trace(20, 20.0, (16, 200), (2, 12), 99).generate(),
    );
    out += &scheduler_run_line(label, &run);
    // OpenMoE's ReLU activation has no vLLM-DS kernels.
    let five = TraceConfig {
        num_requests: 5,
        ..TraceConfig::default()
    };
    let label = "a100 OpenMoE-34B unsupported";
    let run = scheduler_run(
        label,
        Scheduler::new(
            a100,
            MoeModelConfig::openmoe_34b(),
            EngineKind::VllmDs,
            scfg,
        ),
        &five.generate(),
    );
    out += &scheduler_run_line(label, &run);
    out
}

#[test]
fn single_gpu_scheduler_runs_match_the_golden_table() {
    check_table(
        "scheduler_runs.txt",
        include_str!("golden/scheduler_runs.txt"),
        render_scheduler_runs(),
    );
}

/// Both NVLink generations, PCIe and the InfiniBand spine.
fn link_presets() -> [LinkSpec; 4] {
    [
        LinkSpec::nvlink3(),
        LinkSpec::nvlink4(),
        LinkSpec::pcie_gen4(),
        LinkSpec::infiniband_ndr(),
    ]
}

/// Uniform, skewed, one-hot, empty and single-GPU exchanges. Byte values
/// are integer-valued, as every real flow is a token count times an
/// integer token width.
fn flow_patterns() -> Vec<(&'static str, FlowMatrix)> {
    let mut uniform = FlowMatrix::new(4);
    for s in 0..4 {
        for d in 0..4 {
            uniform.add(s, d, 4096.0 * 131.0);
        }
    }
    // GPU 0 is the hot owner (the imbalanced-expert shape).
    let mut skewed = FlowMatrix::new(4);
    for s in 1..4 {
        skewed.add(s, 0, 4096.0 * (977.0 + s as f64));
        skewed.add(0, s, 4096.0 * 13.0);
    }
    let mut one_hot = FlowMatrix::new(8);
    one_hot.add(6, 1, 4096.0 * 50021.0);
    vec![
        ("uniform", uniform),
        ("skewed", skewed),
        ("one-hot", one_hot),
        ("empty", FlowMatrix::new(4)),
        ("single-gpu", FlowMatrix::new(1)),
    ]
}

/// One line per collective price: a flat topology and
/// `LinkSpec::all_to_all_ms` over each preset and flow pattern, then over
/// skewed per-GPU send/recv vectors, then the collective legs of
/// capacity-greedy Qwen2-MoE cluster steps across devices, engines, pod
/// sizes, fabrics and routing skews.
fn render_collective_costs() -> String {
    let mut out = String::new();
    for link in link_presets() {
        for (pattern, flows) in flow_patterns() {
            let n = flows.gpus();
            let send: Vec<f64> = (0..n).map(|g| flows.sent_by(g)).collect();
            let recv: Vec<f64> = (0..n).map(|g| flows.received_by(g)).collect();
            let flat = ClusterTopology::flat(n, link.clone()).all_to_all_ms(&flows);
            let direct = link.all_to_all_ms(&send, &recv);
            assert_eq!(flat.total_ms(), direct, "{} {pattern}", link.name);
            assert_eq!(flat.spine_ms, 0.0);
            assert_eq!(flat.cross_island_bytes, 0.0);
            writeln!(
                out,
                "{} {pattern} gpus={n} flat_bits={:016x} link_bits={:016x} ms={direct:?}",
                link.name,
                flat.total_ms().to_bits(),
                direct.to_bits()
            )
            .unwrap();
        }
        // Each GPU sends its whole budget to its neighbour, so the flat
        // topology sees exactly `send` as row sums; the direct form takes
        // a recv-heavy vector too.
        let send = [6.0e8, 0.0, 3.2e7, 1.6e5];
        let recv = [0.0, 5.9e8, 4.1e7, 2.0e5];
        let mut ring = FlowMatrix::new(4);
        for (g, &bytes) in send.iter().enumerate() {
            ring.add(g, (g + 1) % 4, bytes);
        }
        let flat = ClusterTopology::flat(4, link.clone()).all_to_all_ms(&ring);
        let direct = link.all_to_all_ms(&send, &recv);
        writeln!(
            out,
            "{} skewed-vectors ring_flat_bits={:016x} link_bits={:016x} ms={direct:?}",
            link.name,
            flat.total_ms().to_bits(),
            direct.to_bits()
        )
        .unwrap();
    }
    let model = MoeModelConfig::qwen2_moe();
    let (a100, rtx) = (DeviceSpec::a100_40g(), DeviceSpec::rtx4070_super());
    let cells = ClusterEngine::all()
        .map(|engine| ("a100", &a100, engine))
        .into_iter()
        .chain([("4070s", &rtx, ClusterEngine::Samoyeds)]);
    for (device_name, device, engine) in cells {
        for gpus in [2usize, 4, 8] {
            for link in link_presets() {
                for skew in [0.0f64, 1.5] {
                    let plan = TopKRouter::for_config(&model, 7).with_skew(skew).route(768);
                    let sim = ClusterSimulator::new(
                        ClusterConfig::new(device.clone(), gpus, engine).with_link(link.clone()),
                        model.clone(),
                    );
                    let placement = sim.placement_for(&plan).unwrap();
                    // Capacity-greedy replicates nothing: every expert's
                    // tokens go to its sole owner.
                    assert!(placement
                        .replica_counts(model.num_experts)
                        .iter()
                        .all(|&c| c == 1));
                    let step = sim.step_with_placement(&plan, placement).unwrap();
                    writeln!(
                        out,
                        "{device_name} {} gpus={gpus} {} skew={skew} all_to_all_bits={:016x} \
                         intra_bits={:016x} spine_bits={:016x} all_to_all_ms={:?}",
                        engine.name(),
                        link.name,
                        step.all_to_all_ms.to_bits(),
                        step.intra_island_ms.to_bits(),
                        step.spine_ms.to_bits(),
                        step.all_to_all_ms
                    )
                    .unwrap();
                }
            }
        }
    }
    out
}

#[test]
fn collective_costs_match_the_golden_price_table() {
    check_table(
        "collective_costs.txt",
        include_str!("golden/collective_costs.txt"),
        render_collective_costs(),
    );
}

/// A `tokens`-token pod step: a chunk of one long prompt plus `tokens / 2`
/// decodes, decode `d` attending over its `context(d)`-token prompt.
fn pod_step(tokens: usize, context: impl Fn(usize) -> usize) -> (Vec<RunningRequest>, StepBatch) {
    let decodes = tokens / 2;
    let request = |id: u64, prompt_len: usize, prefilled: usize| {
        let mut r = RunningRequest::new(
            Request {
                id,
                arrival_ms: 0.0,
                prompt_len,
                output_len: 64,
            },
            0.0,
        );
        r.prefilled = prefilled;
        r
    };
    let running = std::iter::once(request(0, 4096, 37))
        .chain((0..decodes).map(|d| request(d as u64 + 1, context(d), context(d))))
        .collect();
    let batch = StepBatch {
        prefill: vec![(0, tokens - decodes)],
        decode: (1..=decodes).collect(),
    };
    (running, batch)
}

fn step_cost_line(label: &str, cost: &StepCost) -> String {
    format!(
        "{label} compute_bits={:016x} collective_bits={:016x} intra_bits={:016x} \
         spine_bits={:016x} compute_ms={:?} collective_ms={:?}\n",
        cost.compute_ms.to_bits(),
        cost.collective_ms.to_bits(),
        cost.intra_island_ms.to_bits(),
        cost.spine_ms.to_bits(),
        cost.compute_ms,
        cost.collective_ms,
    )
}

/// One line per priced pod step: `ClusterBackend::step_cost` on the five
/// pods of the tier-1 full-plan recombination test, then on a replicating
/// pod too full for its strategy (the step falls back to round-robin),
/// then the per-GPU compute and collective of a crash-recovered pod whose
/// surviving hot replicas split rank 0's tokens three ways.
fn render_pod_step_costs() -> String {
    let scfg = SchedulerConfig::default();
    let model = MoeModelConfig::qwen2_moe();
    let router = TopKRouter::for_config(&model, scfg.routing_seed);
    let islands =
        ClusterTopology::symmetric(2, 2, LinkSpec::nvlink3(), LinkSpec::infiniband_ndr()).unwrap();
    let a100 = |gpus, engine| ClusterConfig::new(DeviceSpec::a100_40g(), gpus, engine);
    let replicate_hot = PlacementStrategy::ReplicateHot { hot: 2 };
    let pods = [
        // The prefill pod of the `pods_disagg_faults` benchmark workload.
        a100(4, ClusterEngine::Samoyeds).with_topology(islands.clone()),
        a100(4, ClusterEngine::Samoyeds).with_strategy(replicate_hot),
        a100(4, ClusterEngine::Samoyeds)
            .with_topology(islands)
            .with_strategy(PlacementStrategy::ReplicateHotPerIsland { hot: 2 }),
        a100(3, ClusterEngine::Dense),
        a100(4, ClusterEngine::Venom),
    ];
    let steps = [0u64, 17, u64::MAX];
    // One routing scratch for every step, as a fleet's replicas share one.
    let route = RefCell::default();
    let mut out = String::new();
    for cluster in pods {
        let backend = ClusterBackend::new(cluster, model.clone(), &scfg);
        for tokens in [1usize, 8, 64, 65, 216, 2048] {
            let (running, batch) = pod_step(tokens, |d| 16 + 7 * d % 500);
            for step_index in steps {
                let cost = backend.step_cost(&StepWorkload {
                    batch: &batch,
                    running: &running,
                    step_index,
                    route: &route,
                });
                let label = format!("{} tokens={tokens} step={step_index}", backend.describe());
                out += &step_cost_line(&label, &cost);
            }
        }
    }

    // 33 decodes over 8,192-token contexts leave each 12 GiB card room for
    // fewer experts than the 8 hot replicas plus a quarter of the other 52:
    // the configured placement errs, and round-robin's 15 experts per GPU
    // price the step.
    let cluster = ClusterConfig::new(DeviceSpec::rtx4070_super(), 4, ClusterEngine::Samoyeds)
        .with_strategy(PlacementStrategy::ReplicateHot { hot: 8 });
    let sim = ClusterSimulator::new(cluster.clone(), model.clone());
    let backend = ClusterBackend::new(cluster.clone(), model.clone(), &scfg);
    let tokens = 66;
    let (running, batch) = pod_step(tokens, |_| 8_192);
    let kv_tokens: usize = running.iter().map(|r| r.context_tokens()).sum();
    let kv_local = kv_tokens.div_ceil(4);
    assert!(kv_local >= 67_000, "{kv_local} resident KV tokens per GPU");
    for step_index in steps {
        let loads = router.route_loads_seeded(scfg.routing_seed ^ step_index, tokens, 1);
        let placed = cluster.strategy.place_on(
            &loads,
            sim.topology(),
            sim.memory(),
            kv_local,
            tokens.div_ceil(4),
        );
        let err = placed.expect_err("the hot replicas cannot fit").to_string();
        assert!(err.contains("no GPU has memory headroom"), "{err}");
        let cost = backend.step_cost(&StepWorkload {
            batch: &batch,
            running: &running,
            step_index,
            route: &route,
        });
        let label = format!(
            "fallback {} kv_local={kv_local} tokens={tokens} step={step_index}",
            backend.describe()
        );
        out += &step_cost_line(&label, &cost);
    }

    // Flat hot-expert replication with GPU 0 crashed. Every survivor already
    // holds both hot experts, so each keeps three replicas and only GPU 0's
    // cold experts move.
    let sim = ClusterSimulator::new(
        a100(4, ClusterEngine::Samoyeds).with_strategy(replicate_hot),
        model.clone(),
    );
    for tokens in [65usize, 512, 2048] {
        let plan = router.route_seeded(scfg.routing_seed, tokens);
        let placement = sim.placement_for(&plan).unwrap();
        let replicas = placement.replica_counts(model.num_experts);
        let per_gpu = tokens.div_ceil(4);
        let recovered = replan_after_crash(
            &placement,
            0,
            &plan.expert_loads(),
            sim.topology(),
            sim.memory(),
            per_gpu,
            per_gpu,
            Some(1),
        )
        .unwrap()
        .placement;
        // Rank 0 still hosts a quarter of the tokens, and its hot-expert
        // tokens have three equally near replicas.
        let hot: Vec<usize> = (0..model.num_experts)
            .filter(|&e| replicas[e] == 4)
            .collect();
        assert_eq!(hot.len(), 2);
        let counts = recovered.replica_counts(model.num_experts);
        assert!(hot.iter().all(|&e| counts[e] == 3), "{counts:?}");
        let rank_loads = plan.rank_loads(4);
        assert!(hot.iter().any(|&e| rank_loads[e * 4] > 0));
        let step = sim.step_with_placement(&plan, recovered).unwrap();
        assert_eq!(step.sharded_assignments, plan.total_assignments());
        let per_gpu_bits: Vec<String> = step
            .per_gpu_compute_ms
            .iter()
            .map(|ms| format!("{:016x}", ms.to_bits()))
            .collect();
        writeln!(
            out,
            "crash-recovered {} tokens={tokens} per_gpu_bits=[{}] all_to_all_bits={:016x} \
             sharded_assignments={} all_to_all_ms={:?}",
            sim.cluster().strategy.name(),
            per_gpu_bits.join(","),
            step.all_to_all_ms.to_bits(),
            step.sharded_assignments,
            step.all_to_all_ms,
        )
        .unwrap();
    }
    out
}

#[test]
fn pod_step_costs_match_the_golden_price_table() {
    check_table(
        "pod_step_costs.txt",
        include_str!("golden/pod_step_costs.txt"),
        render_pod_step_costs(),
    );
}

/// The placement table's load patterns over `gpus` source ranks, as
/// per-(expert, source rank) counts: the router's uniform counts, its Zipf
/// counts at skew 1.5, every cell tied, and the uniform counts with every
/// third expert's row zeroed.
fn placement_rank_loads(
    model: &MoeModelConfig,
    tokens: usize,
    gpus: usize,
) -> [(&'static str, Vec<usize>); 4] {
    let router = TopKRouter::for_config(model, 11);
    let uniform = router.route_loads_seeded(5, tokens, gpus);
    let mut third_zero = uniform.clone();
    for row in third_zero.chunks_exact_mut(gpus).step_by(3) {
        row.fill(0);
    }
    [
        ("uniform", uniform),
        (
            "zipf1.5",
            router.with_skew(1.5).route_loads_seeded(5, tokens, gpus),
        ),
        ("tied", vec![9; model.num_experts * gpus]),
        ("third-zero", third_zero),
    ]
}

/// One line per placement cell: `PlacementStrategy::place_on` for every
/// strategy over [`placement_rank_loads`]' row sums, on 1, 3, 4 and 8
/// A100s (flat, plus 2×2 islands at 4 GPUs and 4×2 at 8), with no resident
/// KV, with a KV share that leaves one expert of headroom over the balanced
/// share, and with one that leaves no GPU any headroom. A cell records the
/// shard map or the error; a placed cell also records
/// `ClusterSimulator::step_with_rank_loads` over its counts: per-GPU compute
/// bits, all-to-all bits and `sharded_assignments`.
fn render_placements() -> String {
    let model = MoeModelConfig::qwen2_moe();
    let tokens = 512usize;
    let strategies = [
        PlacementStrategy::RoundRobin,
        PlacementStrategy::CapacityGreedy,
        PlacementStrategy::ReplicateHot { hot: 2 },
        PlacementStrategy::ReplicateHotPerIsland { hot: 2 },
    ];
    let islands = |islands, per_island| {
        ClusterTopology::symmetric(
            islands,
            per_island,
            LinkSpec::nvlink3(),
            LinkSpec::infiniband_ndr(),
        )
        .unwrap()
    };
    let layouts = [
        (1, "flat", ClusterTopology::flat(1, LinkSpec::nvlink3())),
        (3, "flat", ClusterTopology::flat(3, LinkSpec::nvlink3())),
        (4, "flat", ClusterTopology::flat(4, LinkSpec::nvlink3())),
        (4, "2x2", islands(2, 2)),
        (8, "flat", ClusterTopology::flat(8, LinkSpec::nvlink3())),
        (8, "4x2", islands(4, 2)),
    ];
    let mut out = String::new();
    for (gpus, layout, topology) in layouts {
        let sim = ClusterSimulator::new(
            ClusterConfig::new(DeviceSpec::a100_40g(), gpus, ClusterEngine::Samoyeds)
                .with_topology(topology.clone()),
            model.clone(),
        );
        let memory = sim.memory();
        let step_local = tokens.div_ceil(gpus);
        // The most resident KV tokens per GPU that still leave `experts` of
        // headroom, in steps of 256.
        let kv_for = |experts: usize| {
            let mut kv = 0;
            while memory.max_experts_per_gpu(kv + 256, step_local) >= experts {
                kv += 256;
            }
            kv
        };
        let tight = kv_for(model.num_experts.div_ceil(gpus) + 1);
        let full = kv_for(1) + 256;
        assert_eq!(memory.max_experts_per_gpu(full, step_local), 0);
        for (pattern, rank_loads) in placement_rank_loads(&model, tokens, gpus) {
            let loads: Vec<usize> = rank_loads
                .chunks_exact(gpus)
                .map(|row| row.iter().sum())
                .collect();
            for (kv_label, kv_local) in [("none", 0), ("tight", tight), ("full", full)] {
                for strategy in strategies {
                    write!(
                        out,
                        "{} loads={pattern} gpus={gpus} {layout} kv={kv_label}:{kv_local}",
                        strategy.name()
                    )
                    .unwrap();
                    let placed = strategy.place_on(&loads, &topology, memory, kv_local, step_local);
                    let placement = match placed {
                        Ok(placement) => placement,
                        Err(err) => {
                            writeln!(out, " error={err}").unwrap();
                            continue;
                        }
                    };
                    let shards: Vec<String> = placement
                        .assignments()
                        .map(|owned| format!("{owned:?}"))
                        .collect();
                    let step = sim
                        .step_with_rank_loads(tokens, &rank_loads, placement)
                        .unwrap();
                    let per_gpu_bits: Vec<String> = step
                        .per_gpu_compute_ms
                        .iter()
                        .map(|ms| format!("{:016x}", ms.to_bits()))
                        .collect();
                    writeln!(
                        out,
                        " shards={} per_gpu_bits=[{}] all_to_all_bits={:016x} \
                         sharded_assignments={}",
                        shards.join(""),
                        per_gpu_bits.join(","),
                        step.all_to_all_ms.to_bits(),
                        step.sharded_assignments,
                    )
                    .unwrap();
                }
            }
        }
    }
    out
}

#[test]
fn placements_match_the_golden_table() {
    check_table(
        "placements.txt",
        include_str!("golden/placements.txt"),
        render_placements(),
    );
}

/// FNV-1a over the bits of every entry of `m`, row-major.
fn matrix_fnv(m: &DenseMatrix) -> u64 {
    let bytes: Vec<u8> = m
        .as_slice()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

/// One line for one sparse format cell: its non-zero count, its bf16
/// storage bytes, and digests of the bits of its dense reconstruction and
/// of its product with `product`'s right-hand side.
fn sparse_format_line(
    out: &mut String,
    shape: (usize, usize),
    name: &str,
    format: &impl SparseFormat,
    product: &DenseMatrix,
) {
    writeln!(
        out,
        "{}x{} {name} nnz={} storage_bytes_bf16={} dense_fnv={:016x} spmm_fnv={:016x}",
        shape.0,
        shape.1,
        format.nnz(),
        format.storage_bytes(true),
        matrix_fnv(&format.to_dense()),
        matrix_fnv(product),
    )
    .unwrap();
}

/// One line per sparse format cell: CSR over a 75%-sparse random matrix,
/// and 2:4, VENOM V64:4:8 and V64:2:8, and Samoyeds (1,2,32) and (4,8,32)
/// pruned from a dense random matrix, at 64×128 and 128×256, each
/// multiplied against a seeded 5-column input.
fn render_sparse_formats() -> String {
    let mut out = String::new();
    for shape in [(64, 128), (128, 256)] {
        let (rows, cols) = shape;
        let weight = DenseMatrix::random(rows, cols, 7);
        let b = DenseMatrix::random(cols, 5, 8);
        let csr = CsrMatrix::from_dense(&DenseMatrix::random_sparse(rows, cols, 0.75, 7));
        sparse_format_line(&mut out, shape, "csr-75%", &csr, &csr.spmm(&b).unwrap());
        let nm = NmMatrix::prune_from_dense(&weight, NmConfig::TWO_FOUR).unwrap();
        sparse_format_line(&mut out, shape, "2:4", &nm, &nm.spmm(&b).unwrap());
        for cfg in [VenomConfig { v: 64, n: 4, m: 8 }, VenomConfig::V64_2_8] {
            let venom = VenomMatrix::prune_from_dense(&weight, cfg).unwrap();
            let name = format!("venom-{}:{}:{}", cfg.v, cfg.n, cfg.m);
            sparse_format_line(&mut out, shape, &name, &venom, &venom.spmm(&b).unwrap());
        }
        for cfg in [SamoyedsConfig::N1_M2_V32, SamoyedsConfig::N4_M8_V32] {
            let samoyeds = SamoyedsWeight::prune_from_dense(&weight, cfg).unwrap();
            let name = format!("samoyeds-{}", cfg.label());
            sparse_format_line(
                &mut out,
                shape,
                &name,
                &samoyeds,
                &samoyeds.spmm(&b).unwrap(),
            );
        }
    }
    out
}

#[test]
fn sparse_formats_match_the_golden_table() {
    check_table(
        "sparse_formats.txt",
        include_str!("golden/sparse_formats.txt"),
        render_sparse_formats(),
    );
}
