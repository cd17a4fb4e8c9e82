//! Continuous-batching serving simulator for the Samoyeds reproduction.
//!
//! The layer above `samoyeds_moe`: instead of costing one MoE/decoder layer
//! at a fixed batch size, this crate simulates a serving system — a request
//! trace with Poisson arrivals, a continuous-batching scheduler with chunked
//! prefill, admission control against the full-model memory budget, and
//! per-engine throughput / latency-percentile reports. This is the serving
//! regime the paper's maximum-batch study (Table 3) approximates statically
//! and that systems like vLLM-DS target dynamically.
//!
//! * [`backend`] — the [`ExecutionBackend`] trait (step pricing, memory
//!   budget, kernel support) and the [`SingleGpuBackend`] implementation;
//!   the cluster implementation lives in `samoyeds-dist`;
//! * [`request`] — request descriptions, lifecycle phases and timing records;
//! * [`trace`] — deterministic trace generation (arrival process + length
//!   distributions);
//! * [`memory`] — full-model memory accounting (weights, KV cache,
//!   activation workspace) per execution engine;
//! * [`batch`] — step-batch formation (decode-first, chunked prefill);
//! * [`scheduler`] — the continuous-batching scheduler and step cost model;
//! * [`metrics`] — percentile latency summaries (request latency, TTFT,
//!   per-output-token latency) and throughput;
//! * [`report`] — per-engine comparison on a shared trace, and the
//!   [`ResultTable`] every markdown report renders through;
//! * [`events`] — the deterministic event queue (next-event time advance)
//!   the fleet control plane runs on;
//! * [`faults`] — deterministic fault injection (replica crashes, link
//!   degradations, island partitions) and the recovery policy the fleet
//!   controller applies when they fire;
//! * [`telemetry`] — structured request/replica lifecycle tracing behind the
//!   [`TraceSink`] trait: an allocation-free default, a metrics registry
//!   with log-linear histograms, a Chrome trace-event exporter and
//!   per-request latency attribution;
//! * [`fleet`] — the online fleet control plane: heterogeneous
//!   `Box<dyn ExecutionBackend>` replicas behind a capability-aware
//!   dispatcher, with SLO-driven autoscaling and a scaling timeline;
//! * [`dispatch`] — the replica-selection policies that dispatcher applies;
//! * [`validate`] — static experiment validation: the [`Diagnostic`] /
//!   [`ValidationReport`] engine that rejects ill-formed configurations
//!   (out-of-range fault targets, empty scaling bands, unachievable SLOs)
//!   before any event runs, surfacing every problem at once.
//!
//! ```
//! use samoyeds_gpu_sim::DeviceSpec;
//! use samoyeds_moe::config::MoeModelConfig;
//! use samoyeds_moe::engines::EngineKind;
//! use samoyeds_serve::{compare_engines, SchedulerConfig, TraceConfig};
//!
//! let metrics = compare_engines(
//!     &DeviceSpec::a100_40g(),
//!     &MoeModelConfig::qwen2_moe(),
//!     &TraceConfig { num_requests: 8, ..TraceConfig::default() },
//!     &SchedulerConfig::default(),
//!     &[EngineKind::Samoyeds],
//! );
//! assert!(metrics[0].servable);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod batch;
pub mod dispatch;
pub mod events;
pub mod faults;
pub mod fleet;
pub mod memory;
pub mod metrics;
pub mod report;
pub mod request;
pub mod scheduler;
pub mod telemetry;
pub mod trace;
pub mod validate;

pub use backend::{
    ExecutionBackend, MemoryBudget, OverlapModel, SingleGpuBackend, StepCost, StepWorkload,
};
pub use batch::BatchLimits;
pub use dispatch::DispatchPolicy;
pub use events::{EventQueue, FleetEvent};
pub use faults::{FaultKind, FaultRecord, FaultSchedule, FaultSpec, RecoveryPolicy};
pub use fleet::{
    AutoscalePolicy, DisaggregationConfig, FleetConfig, FleetController, FleetMetrics,
    FleetObservation, KvLink, NoAutoscale, ReplicaBreakdown, ScaleDecision, ScaleEvent, ScaleKind,
    SloAutoscaler,
};
pub use memory::{MemoryModel, KV_DTYPE_BYTES};
pub use metrics::{latency_summary, LatencySummary, ServingMetrics};
pub use report::{compare_engines, render_markdown, ResultTable};
pub use request::{CompletedRequest, Phase, Request, RunningRequest};
pub use scheduler::{Scheduler, SchedulerConfig, SimulationResult, StepRecord};
pub use telemetry::{
    chrome_trace_json, request_timelines, AttributionSummary, LogLinearHistogram, MetricsRegistry,
    NullSink, RequestTimeline, SharedSink, TickSnapshot, TraceEvent, TraceRecorder, TraceSink,
};
pub use trace::{BurstPhase, BurstyTraceConfig, TraceConfig};
pub use validate::{Diagnostic, Severity, ValidationReport};
