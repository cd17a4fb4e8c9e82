//! Golden snapshots of `FleetController::run` on the paths no equivalence
//! suite reaches: faults that actually fire, disaggregated handoffs that
//! restart, crash replacement under autoscaling, post-trace re-admission and
//! the drain cap.
//!
//! Each scenario renders a compact, line-oriented block — request counts,
//! makespan and TTFT percentiles, per-replica assignment, the fault and
//! scale timelines — plus FNV-1a digests of the full `FleetMetrics` debug
//! rendering and of the recorded `TraceEvent` stream, so any change to a
//! number *or* to the order of emitted events shows up. The blocks live in
//! `tests/golden/fleet_run.txt`; on a mismatch the test prints the fresh
//! block.
//!
//! Underneath every step price sits `Engine::moe_layer_cost`, so
//! `tests/golden/layer_costs.txt` pins it directly: one line per (device,
//! model, engine configuration, token count) with the exact bits of
//! `time_ms`. A pricing change shows up there as a table of changed cells
//! before it surfaces as a shifted makespan above.
//!
//! After a deliberate change, one command rewrites both files from the
//! current code (each scenario replaces only its own block), and `git diff`
//! shows what moved:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p samoyeds-serve --test fleet_golden
//! ```

use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_kernels::samoyeds_kernel::SamoyedsOptions;
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::engines::{Engine, EngineKind};
use samoyeds_moe::router::TopKRouter;
use samoyeds_serve::{
    BurstPhase, BurstyTraceConfig, DisaggregationConfig, ExecutionBackend, FaultKind,
    FaultSchedule, FaultSpec, FleetConfig, FleetController, FleetMetrics, KvLink, MemoryModel,
    NoAutoscale, RecoveryPolicy, Request, SchedulerConfig, SharedSink, SingleGpuBackend,
    SloAutoscaler, TraceConfig, TraceEvent, TraceRecorder,
};
use std::fmt::Write;
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

fn a100() -> Box<dyn ExecutionBackend> {
    Box::new(SingleGpuBackend::new(
        DeviceSpec::a100_40g(),
        &MoeModelConfig::qwen2_moe(),
        EngineKind::Samoyeds,
        &SchedulerConfig::default(),
    ))
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

/// Run `controller` over `trace` with a recorder attached.
fn run(controller: FleetController, trace: &[Request]) -> (FleetMetrics, Vec<TraceEvent>) {
    let (sink, recorder) = SharedSink::new(TraceRecorder::new());
    let metrics = controller.with_sink(sink).run(trace);
    let events = recorder.borrow().events();
    (metrics, events)
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
    let controller = FleetController::new(FleetConfig::default())
        .with_replica(a100())
        .with_replica(a100())
        .with_replica(a100())
        .with_disaggregation(disagg(vec![0], vec![1, 2], link))
        .with_faults(faults, RecoveryPolicy::readmit_after(30.0));
    let (metrics, events) = run(controller, &trace);

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
    check(
        "disagg_decode_crash_readmit",
        trace.len(),
        &metrics,
        &events,
    );
}

#[test]
fn prefill_pod_crash_fails_fast() {
    let trace = poisson(30, 30.0, 8);
    let link = KvLink {
        latency_us: 5.0,
        bandwidth_gbps: 50.0,
    };
    let controller = FleetController::new(FleetConfig::default())
        .with_replica(a100())
        .with_replica(a100())
        .with_replica(a100())
        .with_disaggregation(disagg(vec![0, 1], vec![2], link))
        .with_faults(
            scripted(vec![(400.0, FaultKind::ReplicaCrash { replica: 0 })]),
            RecoveryPolicy::fail_fast(),
        );
    let (metrics, events) = run(controller, &trace);
    assert!(metrics.faults[0].failed > 0, "{:?}", metrics.faults);
    assert_eq!(
        metrics.completed + metrics.rejected + metrics.failed(),
        trace.len()
    );
    check(
        "disagg_prefill_crash_fail_fast",
        trace.len(),
        &metrics,
        &events,
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
    let controller = FleetController::new(config)
        .with_replica(a100())
        .with_replica(a100())
        .with_replica(a100())
        .with_factory(a100)
        .with_autoscaler(SloAutoscaler::new(150.0))
        .with_faults(faults, RecoveryPolicy::readmit_and_replace(50.0));
    let (metrics, events) = run(controller, &trace);
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
    check(
        "autoscaled_crash_replace_partition",
        trace.len(),
        &metrics,
        &events,
    );
}

#[test]
fn fixed_fleet_recovery_after_the_last_arrival_rearms_the_step_chains() {
    let trace = poisson(16, 40.0, 13);
    let last_arrival = trace.last().unwrap().arrival_ms;
    let controller = FleetController::new(FleetConfig::default())
        .with_replica(a100())
        .with_replica(a100())
        .with_autoscaler(NoAutoscale)
        .with_faults(
            scripted(vec![(
                last_arrival - 20.0,
                FaultKind::ReplicaCrash { replica: 0 },
            )]),
            RecoveryPolicy::readmit_after(200.0),
        );
    let (metrics, events) = run(controller, &trace);
    let record = &metrics.faults[0];
    assert!(record.readmitted > 0, "{record:?}");
    assert!(
        record.recovered_at_ms.is_some_and(|t| t > last_arrival),
        "{record:?}"
    );
    assert_eq!(metrics.completed, trace.len());
    check(
        "fixed_post_trace_readmission",
        trace.len(),
        &metrics,
        &events,
    );
}

#[test]
fn drain_cap_stops_the_run_with_work_outstanding() {
    let trace = vec![
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
    ];
    let config = FleetConfig {
        tick_ms: 1.0,
        max_drain_ticks: 3,
        ..FleetConfig::default()
    };
    let controller = FleetController::new(config)
        .with_replica(a100())
        .with_replica(a100())
        .with_autoscaler(SloAutoscaler::new(1e12));
    let (metrics, events) = run(controller, &trace);
    assert!(metrics.drain_incomplete);
    assert!(!metrics.drain_incomplete_replicas.is_empty());
    check("drain_cap", trace.len(), &metrics, &events);
}

/// One line per priced cell: every engine, the Samoyeds breakdown presets,
/// token counts around the N-tile (64) and 16/128-token padding boundaries,
/// a shared-expert model, the ReLU model two engines cannot run and an
/// 8-expert model, on the datacenter and the consumer card.
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
    let models = [
        MoeModelConfig::qwen2_moe(),
        MoeModelConfig::openmoe_34b(),
        MoeModelConfig::mixtral_8x7b(),
    ];
    let mut out = String::new();
    for (device_name, device) in [
        ("a100", DeviceSpec::a100_40g()),
        ("4070s", DeviceSpec::rtx4070_super()),
    ] {
        for model in &models {
            let router = TopKRouter::for_config(model, 7);
            for tokens in [0usize, 1, 7, 64, 65, 216, 2048] {
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

#[test]
fn moe_layer_costs_match_the_golden_price_table() {
    let fresh = render_layer_costs();
    let golden = include_str!("golden/layer_costs.txt");
    if updating_goldens() {
        update_golden("layer_costs.txt", |_| fresh);
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
            "layer costs differ from tests/golden/layer_costs.txt (fresh table printed above); \
             rerun with UPDATE_GOLDENS=1 to rewrite it"
        );
    }
}
