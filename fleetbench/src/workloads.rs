//! The three benchmark workloads, built through the public fleet API.
//!
//! Each workload is a request trace plus a [`FleetController`] over its
//! replicas, generated from one seed. The arrival process inside every trace
//! is open-loop Poisson; host-side each simulation is a batch job that runs
//! to drain. When a [`Tracer`] is given, every backend and sink is wrapped by
//! the probes in [`crate::probe`]; otherwise the controller is exactly what a
//! library user would build.

use crate::probe::{mount, sink, Priced, Tracer};
use samoyeds_dist::{ClusterBackend, ClusterConfig, ClusterEngine, ClusterTopology, LinkSpec};
use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::engines::EngineKind;
use samoyeds_serve::{
    DisaggregationConfig, FaultKind, FaultSchedule, FaultSpec, FleetConfig, FleetController,
    KvLink, MemoryModel, MetricsRegistry, NoAutoscale, RecoveryPolicy, Request, SchedulerConfig,
    SingleGpuBackend, SloAutoscaler, TraceConfig,
};
use std::time::Instant;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Eight co-located A100 Samoyeds replicas under steady Poisson load
    /// with short requests: large steps, no sink, no ticks, no `dist`.
    FleetPoisson,
    /// 64 mixed Samoyeds/dense replicas at low load with long decodes, an
    /// SLO autoscaler consulting control ticks and a metrics sink.
    FleetDecodeAutoscale,
    /// Two expert-parallel A100 prefill pods handing KV caches to four
    /// RTX 4070 Super decode singles, with a scripted decode-pod crash and
    /// link degradations.
    PodsDisaggFaults,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::FleetPoisson,
        Workload::FleetDecodeAutoscale,
        Workload::PodsDisaggFaults,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetPoisson => "fleet_poisson",
            Workload::FleetDecodeAutoscale => "fleet_decode_autoscale",
            Workload::PodsDisaggFaults => "pods_disagg_faults",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests in the benchmark trace, chosen so that one simulation takes
    /// between a quarter of a second and two seconds of host time.
    pub fn requests(self) -> usize {
        match self {
            Workload::FleetPoisson => 10_000,
            Workload::FleetDecodeAutoscale => 1_500,
            Workload::PodsDisaggFaults => 2_000,
        }
    }
}

/// A built workload, ready to validate and run.
pub struct Setup {
    /// The request trace.
    pub trace: Vec<Request>,
    /// The controller over the workload's replicas.
    pub controller: FleetController,
    /// Host seconds spent generating the trace (part of set-up).
    pub trace_generate_s: f64,
}

fn generate(config: TraceConfig) -> (Vec<Request>, f64) {
    let start = Instant::now();
    let trace = config.generate();
    (trace, start.elapsed().as_secs_f64())
}

/// Build `workload` over a trace of `requests` generated from `seed`.
/// Fault schedules are scripted, not seeded.
pub fn setup(workload: Workload, seed: u64, requests: usize, tracer: Option<&Tracer>) -> Setup {
    match workload {
        Workload::FleetPoisson => fleet_poisson(seed, requests, tracer),
        Workload::FleetDecodeAutoscale => fleet_decode_autoscale(seed, requests, tracer),
        Workload::PodsDisaggFaults => pods_disagg_faults(seed, requests, tracer),
    }
}

fn single(device: DeviceSpec, engine: EngineKind, scfg: &SchedulerConfig) -> Priced {
    Priced::Single(Box::new(SingleGpuBackend::new(
        device,
        &MoeModelConfig::qwen2_moe(),
        engine,
        scfg,
    )))
}

fn fleet_poisson(seed: u64, requests: usize, tracer: Option<&Tracer>) -> Setup {
    const REPLICAS: usize = 8;
    // 50 rps per replica: the per-replica load of the 8×100k fleet cell.
    let (trace, trace_generate_s) = generate(TraceConfig {
        num_requests: requests,
        arrival_rate_rps: 50.0 * REPLICAS as f64,
        prompt_len_range: (16, 64),
        output_len_range: (4, 16),
        seed,
    });
    let config = FleetConfig {
        max_replicas: REPLICAS,
        ..FleetConfig::default()
    };
    let mut controller = FleetController::new(config).with_autoscaler(NoAutoscale);
    for _ in 0..REPLICAS {
        let backend = single(
            DeviceSpec::a100_40g(),
            EngineKind::Samoyeds,
            &config.scheduler,
        );
        controller = controller.with_replica(mount(tracer, backend));
    }
    Setup {
        trace,
        controller,
        trace_generate_s,
    }
}

fn fleet_decode_autoscale(seed: u64, requests: usize, tracer: Option<&Tracer>) -> Setup {
    const REPLICAS: usize = 64;
    let (trace, trace_generate_s) = generate(TraceConfig {
        num_requests: requests,
        arrival_rate_rps: 100.0,
        prompt_len_range: (16, 64),
        output_len_range: (64, 256),
        seed,
    });
    let config = FleetConfig {
        max_replicas: REPLICAS,
        min_replicas: 16,
        ..FleetConfig::default()
    };
    let scfg = config.scheduler;
    let mut controller = FleetController::new(config)
        .with_autoscaler(SloAutoscaler::new(2_000.0))
        .with_sink(sink(tracer, MetricsRegistry::new()));
    // Every fourth replica runs dense Transformers kernels, so pricing
    // exercises both of `moe_layer_cost`'s paths.
    for slot in 0..REPLICAS {
        let engine = if slot % 4 == 3 {
            EngineKind::Transformers
        } else {
            EngineKind::Samoyeds
        };
        let backend = single(DeviceSpec::a100_40g(), engine, &scfg);
        controller = controller.with_replica(mount(tracer, backend));
    }
    let factory_tracer = tracer.cloned();
    let controller = controller.with_factory(move || {
        let backend = single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg);
        mount(factory_tracer.as_ref(), backend)
    });
    Setup {
        trace,
        controller,
        trace_generate_s,
    }
}

fn kv_link(spec: &LinkSpec) -> KvLink {
    KvLink {
        latency_us: spec.latency_us,
        bandwidth_gbps: spec.bandwidth_gbps,
    }
}

fn pods_disagg_faults(seed: u64, requests: usize, tracer: Option<&Tracer>) -> Setup {
    const PREFILL: usize = 2;
    const DECODE: usize = 4;
    const RATE_RPS: f64 = 12.0;
    let model = MoeModelConfig::qwen2_moe();
    let (trace, trace_generate_s) = generate(TraceConfig {
        num_requests: requests,
        arrival_rate_rps: RATE_RPS,
        prompt_len_range: (512, 2048),
        output_len_range: (16, 64),
        seed,
    });
    let config = FleetConfig {
        max_replicas: PREFILL + DECODE,
        ..FleetConfig::default()
    };
    let scfg = config.scheduler;
    let decode_device = DeviceSpec::rtx4070_super();
    let spine = kv_link(&LinkSpec::infiniband_ndr());
    let disagg = DisaggregationConfig::uniform(
        (0..PREFILL).collect(),
        (PREFILL..PREFILL + DECODE).collect(),
        MemoryModel::new(&decode_device, EngineKind::Samoyeds, &model),
        spine,
    );

    // Scripted faults at fixed fractions of the trace: the first decode pod
    // crashes, then two other decode pods' links degrade in turn. Prefill
    // capacity is never touched, so every request stays routable.
    let span_ms = requests as f64 / RATE_RPS * 1e3;
    let degrade = |replica: usize, at: f64| FaultSpec {
        at_ms: at * span_ms,
        kind: FaultKind::LinkDegrade {
            replica,
            duration_ms: 0.1 * span_ms,
        },
    };
    let faults = FaultSchedule::Scripted(vec![
        FaultSpec {
            at_ms: 0.3 * span_ms,
            kind: FaultKind::ReplicaCrash { replica: PREFILL },
        },
        degrade(PREFILL + 1, 0.5),
        degrade(PREFILL + 2, 0.7),
    ]);

    let topology =
        ClusterTopology::symmetric(2, 2, LinkSpec::nvlink3(), LinkSpec::infiniband_ndr())
            .expect("2×2 NVLink + InfiniBand topology is valid");
    let mut controller = FleetController::new(config);
    for _ in 0..PREFILL {
        let cluster = ClusterConfig::new(DeviceSpec::a100_40g(), 4, ClusterEngine::Samoyeds)
            .with_topology(topology.clone());
        let backend = Priced::Cluster(Box::new(ClusterBackend::new(cluster, model.clone(), &scfg)));
        controller = controller.with_replica(mount(tracer, backend));
    }
    for _ in 0..DECODE {
        let backend = single(decode_device.clone(), EngineKind::Samoyeds, &scfg);
        controller = controller.with_replica(mount(tracer, backend));
    }
    let controller = controller
        .with_disaggregation(disagg)
        .with_faults(faults, RecoveryPolicy::readmit_after(500.0))
        .with_sink(sink(tracer, MetricsRegistry::new()));
    Setup {
        trace,
        controller,
        trace_generate_s,
    }
}
