//! The online fleet control plane: heterogeneous replicas, capability-aware
//! dispatch and SLO-driven autoscaling behind one API.
//!
//! The [`FleetController`] routes every request at its arrival time:
//!
//! * **Heterogeneous replicas** — the fleet is a set of
//!   `Box<dyn ExecutionBackend>` replicas, so an expert-parallel A100 pod
//!   (`ClusterBackend` in `samoyeds-dist`) serves next to consumer-GPU
//!   singles ([`SingleGpuBackend`](crate::backend::SingleGpuBackend))
//!   behind the same dispatcher.
//! * **Capability-aware dispatch** — each request is routed *at its arrival
//!   time* from live replica state: kernel support
//!   ([`ExecutionBackend::supports`]), admission headroom
//!   ([`MemoryBudget`](crate::backend::MemoryBudget)) and outstanding work
//!   (which decays as replicas make progress), under a [`DispatchPolicy`].
//! * **SLO-driven autoscaling** — a pluggable [`AutoscalePolicy`] is
//!   consulted every control tick: scale out on p95-TTFT SLO breach (new
//!   replicas charged a warm-up delay before they take traffic), scale in on
//!   sustained low utilization (draining, never dropping below the floor).
//!   Every scale event lands on the [`FleetMetrics::scale_events`] timeline.
//! * **Event-driven core** — [`FleetController::run`] is a next-event loop
//!   over an [`EventQueue`]: arrivals, step completions, control ticks,
//!   warm-up completions and drain retirements pop in timestamp order and
//!   the clock jumps between them, so idle periods cost zero work. Every
//!   replica with work runs on its own step chain: one
//!   [`FleetEvent::StepCompletion`] per engine step, armed when work is
//!   enqueued and lapsing when the replica drains. Arrivals, ticks and
//!   faults never step a replica themselves, so each sees replica state at
//!   its own instant: a request waiting for the boundary of the step in
//!   flight is still queued. Policies that never scale
//!   ([`AutoscalePolicy::consults_ticks`] returns `false`) elide the tick
//!   schedule entirely — the regime where a 100-replica fleet absorbs a
//!   million-request trace in seconds. A run keeps its state in one private
//!   struct with one handler method per [`FleetEvent`] variant; routing,
//!   KV-transfer start, commissioning and retirement each live in one
//!   method the handlers share. The root `goldens` suite pins fixed,
//!   heterogeneous, autoscaled, faulted and disaggregated runs.
//! * **Prefill/decode disaggregation** — opt-in via
//!   [`FleetController::with_disaggregation`]: arrivals run chunked prefill
//!   on *prefill pods*, the finished prompt KV
//!   ([`MemoryModel::kv_bytes`]-sized) is handed off over a [`KvLink`] to
//!   the *decode pod* with the most free KV budget, and the remaining
//!   tokens decode there. The handoff lands as a
//!   [`FleetEvent::KvTransferComplete`] event; a crashed decode pod's
//!   in-flight requests re-prefill or re-transfer under the
//!   [`RecoveryPolicy`]. The ratio-0 endpoint (no decode pods) is
//!   bit-for-bit the co-located fleet, pinned on every steady and bursty
//!   fleet of the root golden harness `tests/goldens.rs`.

// Keeps the run decomposed: clippy.toml at the workspace root sets the
// threshold, and CI's `clippy -D warnings` turns a long function into an
// error.
#![warn(clippy::too_many_lines)]

use crate::backend::{ExecutionBackend, StepWorkload};
use crate::batch::StepBatch;
use crate::dispatch::DispatchPolicy;
use crate::events::{EventQueue, FleetEvent};
use crate::faults::{FaultKind, FaultRecord, FaultSchedule, FaultSpec, RecoveryPolicy};
use crate::memory::MemoryModel;
use crate::metrics::{latency_summary, LatencySummary, ServingMetrics};
use crate::report::ResultTable;
use crate::request::{CompletedRequest, Request, RunningRequest};
use crate::scheduler::{ReplicaDriver, SchedulerConfig};
use crate::telemetry::{SharedSink, TraceEvent};
use crate::validate::{Diagnostic, ValidationReport};
use samoyeds_moe::engines::EngineKind;
use samoyeds_moe::router::{RouteScratch, MAX_EXPERTS};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// Fleet-level control-plane knobs.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Per-replica scheduler configuration (also parameterises each
    /// backend's cost model, as everywhere else in the crate).
    pub scheduler: SchedulerConfig,
    /// How arriving requests pick a replica.
    pub policy: DispatchPolicy,
    /// Control-tick period: how often the autoscale policy is consulted.
    pub tick_ms: f64,
    /// Warm-up charged to every scaled-out replica before it takes traffic
    /// (weight loading, cache warm, registration).
    pub warmup_ms: f64,
    /// The fleet never scales below this many replicas that can actually
    /// serve the model. Dead-weight replicas (kernels or weights that can
    /// never admit anything) do not count toward this floor and are drained
    /// freely, down to one commissioned replica overall.
    pub min_replicas: usize,
    /// The fleet never scales above this many commissioned replicas.
    pub max_replicas: usize,
    /// Safety cap on post-trace drain ticks, for runs whose autoscale
    /// policy consults ticks (a run without ticks always drains). Once this
    /// many control ticks have fired after the last arrival with a replica
    /// still holding work, the run stops: every pending event, step chains
    /// included, is dropped, and the metrics come back degraded with
    /// [`FleetMetrics::drain_incomplete`] set.
    pub max_drain_ticks: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            scheduler: SchedulerConfig::default(),
            policy: DispatchPolicy::LeastOutstandingTokens,
            tick_ms: 200.0,
            warmup_ms: 2_000.0,
            min_replicas: 1,
            max_replicas: 8,
            max_drain_ticks: 10_000_000,
        }
    }
}

/// The sliding window, in milliseconds, each control tick observes TTFT
/// percentiles and utilization over.
const OBSERVATION_WINDOW_MS: f64 = 1_000.0;

/// What the autoscale policy sees at each control tick. The windowed
/// figures cover the 1,000 ms before the tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetObservation {
    /// Simulated time of the tick.
    pub now_ms: f64,
    /// Replicas currently taking traffic (ready, not draining).
    pub routable_replicas: usize,
    /// Replicas commissioned but still warming up.
    pub warming_replicas: usize,
    /// p95 time-to-first-token over first-token events in the window, if
    /// any landed.
    pub p95_ttft_ms: Option<f64>,
    /// Age of the oldest request that has not produced its first token
    /// (zero when none is pending) — catches overload even when nothing
    /// completes inside the window.
    pub max_pending_wait_ms: f64,
    /// Busy fraction of the ready replicas over the window.
    pub utilization: f64,
    /// Tokens of work still owed across the fleet.
    pub outstanding_tokens: usize,
    /// Requests waiting for admission across the fleet.
    pub queued_requests: usize,
}

/// The autoscale policy's verdict for one control tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Keep the current fleet.
    Hold,
    /// Commission one more replica (subject to `max_replicas`).
    ScaleOut,
    /// Drain one replica (subject to `min_replicas`).
    ScaleIn,
}

/// A pluggable autoscaling policy, consulted once per control tick.
pub trait AutoscalePolicy {
    /// Decide from the tick's observation. Policies may keep internal state
    /// (breach streaks, cooldowns); the controller owns enforcement of the
    /// replica floor/ceiling and of warm-up.
    fn decide(&mut self, observation: &FleetObservation) -> ScaleDecision;

    /// Human-readable name for reports.
    fn name(&self) -> String {
        "autoscaler".to_string()
    }

    /// Whether the policy needs to be consulted on the periodic control-tick
    /// schedule. The default (`true`) is correct for every policy that can
    /// ever scale or that keeps tick-indexed state. Only a policy that
    /// unconditionally returns [`ScaleDecision::Hold`] and keeps no state
    /// may return `false`: the controller then elides control ticks
    /// entirely and advances the fleet purely on arrival and
    /// step-completion events, which is what makes large fixed fleets
    /// simulate in seconds.
    fn consults_ticks(&self) -> bool {
        true
    }

    /// The p95 time-to-first-token target the policy enforces, if it has
    /// one. Static validation ([`FleetController::validate`]) compares it
    /// against the best TTFT any initial replica could physically achieve
    /// and rejects targets no fleet size can meet. Policies without an SLO
    /// (the default) return `None` and skip that check.
    fn ttft_slo_ms(&self) -> Option<f64> {
        None
    }
}

/// A fixed fleet: never scales.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoAutoscale;

impl AutoscalePolicy for NoAutoscale {
    fn decide(&mut self, _observation: &FleetObservation) -> ScaleDecision {
        ScaleDecision::Hold
    }

    fn name(&self) -> String {
        "fixed".to_string()
    }

    /// A fixed fleet never scales, so the tick schedule can be elided.
    fn consults_ticks(&self) -> bool {
        false
    }
}

/// The reference SLO policy: scale out after 2 consecutive ticks whose
/// windowed p95 TTFT (or head-of-line waiting age) exceeds the SLO, scale in
/// after 4 consecutive idle ticks, each below 35% utilization with nothing
/// queued. A policy with other streaks implements [`AutoscalePolicy`].
#[derive(Debug, Clone)]
pub struct SloAutoscaler {
    /// The p95 time-to-first-token target, milliseconds.
    pub ttft_slo_ms: f64,
    breach_streak: usize,
    idle_streak: usize,
}

/// Consecutive breached ticks before [`SloAutoscaler`] scales out.
const BREACH_TICKS: usize = 2;
/// Utilization below which a tick counts as idle.
const LOW_UTILIZATION: f64 = 0.35;
/// Consecutive idle ticks before [`SloAutoscaler`] scales in.
const IDLE_TICKS: usize = 4;

impl SloAutoscaler {
    /// A policy targeting `ttft_slo_ms`.
    pub fn new(ttft_slo_ms: f64) -> Self {
        Self {
            ttft_slo_ms,
            breach_streak: 0,
            idle_streak: 0,
        }
    }
}

impl AutoscalePolicy for SloAutoscaler {
    fn decide(&mut self, obs: &FleetObservation) -> ScaleDecision {
        // Capacity already in flight: hold every streak until it lands.
        // Counting breaches here would turn one sustained breach into an
        // immediate second scale-out the instant warm-up completes, and
        // counting idleness here would scale in capacity that is idle only
        // because the new replica has not started taking traffic yet.
        if obs.warming_replicas > 0 {
            self.breach_streak = 0;
            self.idle_streak = 0;
            return ScaleDecision::Hold;
        }
        let breached = obs.p95_ttft_ms.is_some_and(|p95| p95 > self.ttft_slo_ms)
            || obs.max_pending_wait_ms > self.ttft_slo_ms;
        let idle = obs.utilization < LOW_UTILIZATION && obs.queued_requests == 0;
        if breached {
            self.breach_streak += 1;
            self.idle_streak = 0;
        } else if idle {
            self.idle_streak += 1;
            self.breach_streak = 0;
        } else {
            self.breach_streak = 0;
            self.idle_streak = 0;
        }
        if self.breach_streak >= BREACH_TICKS {
            self.breach_streak = 0;
            ScaleDecision::ScaleOut
        } else if self.idle_streak >= IDLE_TICKS {
            self.idle_streak = 0;
            ScaleDecision::ScaleIn
        } else {
            ScaleDecision::Hold
        }
    }

    fn name(&self) -> String {
        format!("slo p95-ttft {:.0} ms", self.ttft_slo_ms)
    }

    fn ttft_slo_ms(&self) -> Option<f64> {
        Some(self.ttft_slo_ms)
    }
}

/// Direction of a scale event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleKind {
    /// A replica was commissioned.
    Out,
    /// A replica began draining.
    In,
}

/// One entry of the scaling timeline.
#[derive(Debug, Clone)]
pub struct ScaleEvent {
    /// Simulated time of the event.
    pub at_ms: f64,
    /// Direction.
    pub kind: ScaleKind,
    /// Commissioned (routable + warming) replicas after the event.
    pub replicas_after: usize,
    /// What the observation looked like (for the report).
    pub reason: String,
}

/// Per-replica slice of a fleet run.
#[derive(Debug, Clone)]
pub struct ReplicaBreakdown {
    /// The backend's one-line description.
    pub description: String,
    /// The engine the replica runs.
    pub engine: EngineKind,
    /// When the replica was commissioned (0 for the initial fleet).
    pub spawned_ms: f64,
    /// When it started taking traffic (spawn + warm-up).
    pub ready_ms: f64,
    /// When it finished draining after a scale-in, if it was retired.
    pub retired_ms: Option<f64>,
    /// Requests routed to this replica.
    pub assigned: usize,
    /// The ids of those requests, in routing order (the dispatch log the
    /// conservation proptests check).
    pub assigned_ids: Vec<u64>,
    /// The replica's own serving metrics.
    pub metrics: ServingMetrics,
}

/// Aggregate metrics of a [`FleetController::run`].
#[derive(Debug, Clone)]
pub struct FleetMetrics {
    /// The first replica's engine (fleets may be heterogeneous; see
    /// [`Self::per_replica`] for the full picture).
    pub engine: EngineKind,
    /// Peak commissioned replicas over the run (the fixed count for static
    /// fleets).
    pub replicas: usize,
    /// Completed requests across the fleet.
    pub completed: usize,
    /// Rejected requests across the fleet (unroutable plus per-replica
    /// rejections).
    pub rejected: usize,
    /// Fleet output-token throughput (tokens/s over the fleet makespan).
    pub output_tokens_per_s: f64,
    /// Pooled end-to-end request latency distribution.
    pub request_latency: LatencySummary,
    /// Pooled time-to-first-token distribution.
    pub ttft: LatencySummary,
    /// Pooled per-output-token latency distribution.
    pub tpot: LatencySummary,
    /// Fleet makespan (slowest replica).
    pub makespan_ms: f64,
    /// Per-replica breakdowns, in commission order.
    pub per_replica: Vec<ReplicaBreakdown>,
    /// The scaling timeline (empty for static fleets).
    pub scale_events: Vec<ScaleEvent>,
    /// Ids of requests no replica could ever admit.
    pub unroutable_ids: Vec<u64>,
    /// Ids of requests lost to a replica crash and never re-admitted
    /// (fail-fast policy, or no survivor could take them). Disjoint from
    /// [`Self::unroutable_ids`] and from per-replica rejections:
    /// `completed + rejected + failed == offered` under any fault schedule.
    pub failed_ids: Vec<u64>,
    /// Outcome of every injected fault, in injection order (empty without
    /// fault injection).
    pub faults: Vec<FaultRecord>,
    /// Whether the post-trace drain hit [`FleetConfig::max_drain_ticks`]
    /// with work still outstanding. When set, the run stopped there instead
    /// of panicking and every figure above reflects only the work finished
    /// up to that point — treat the metrics as degraded.
    pub drain_incomplete: bool,
    /// The replica slots that still held work when the drain cap hit
    /// (empty when [`Self::drain_incomplete`] is false) — *which* replicas
    /// were stuck, not just that something was.
    pub drain_incomplete_replicas: Vec<usize>,
}

impl FleetMetrics {
    /// Scale-out events on the timeline.
    pub fn scale_outs(&self) -> usize {
        self.scale_events
            .iter()
            .filter(|e| e.kind == ScaleKind::Out)
            .count()
    }

    /// Scale-in events on the timeline.
    pub fn scale_ins(&self) -> usize {
        self.scale_events
            .iter()
            .filter(|e| e.kind == ScaleKind::In)
            .count()
    }

    /// Render the scaling timeline as markdown rows.
    pub fn render_timeline(&self) -> Vec<String> {
        let mut table = ResultTable::new("t (s) | event | replicas after | reason");
        for e in &self.scale_events {
            let event = match e.kind {
                ScaleKind::Out => "scale-out",
                ScaleKind::In => "scale-in",
            };
            table.row(&[
                &format!("{:.2}", e.at_ms / 1e3),
                &event,
                &e.replicas_after,
                &e.reason,
            ]);
        }
        table.render_markdown()
    }

    /// Requests lost to crashes and never re-admitted.
    pub fn failed(&self) -> usize {
        self.failed_ids.len()
    }

    /// Render the fault timeline as markdown rows (header only when no
    /// faults fired).
    pub fn render_fault_timeline(&self) -> Vec<String> {
        let mut table = ResultTable::new(
            "t (s) | fault | lost (run/queue) | re-admitted | failed | recovery (ms)",
        );
        for f in &self.faults {
            let what = match &f.kind {
                FaultKind::ReplicaCrash { replica } => format!("crash replica {replica}"),
                FaultKind::LinkDegrade { replica, .. } => {
                    format!("link degrade replica {replica}")
                }
                FaultKind::IslandPartition {
                    island, replicas, ..
                } => format!("partition island {island} ({} replicas)", replicas.len()),
            };
            table.row(&[
                &format!("{:.2}", f.at_ms / 1e3),
                &what,
                &format!("{}/{}", f.lost_running, f.lost_queued),
                &f.readmitted,
                &f.failed,
                &f.recovery_ms()
                    .map_or_else(|| "-".to_string(), |ms| format!("{ms:.0}")),
            ]);
        }
        table.render_markdown()
    }

    /// One-line drain status for reports: which replicas were still busy
    /// when the drain cap hit, not just that something was.
    pub fn drain_status(&self) -> String {
        if !self.drain_incomplete {
            return "drained".to_string();
        }
        let stuck: Vec<String> = self
            .drain_incomplete_replicas
            .iter()
            .map(|i| i.to_string())
            .collect();
        format!(
            "drain incomplete: replicas [{}] still held work at the cap",
            stuck.join(", ")
        )
    }
}

/// A factory for scale-out replicas.
pub type ReplicaFactory = Box<dyn Fn() -> Box<dyn ExecutionBackend>>;

/// One replica slot inside the controller.
struct Slot {
    driver: ReplicaDriver<Box<dyn ExecutionBackend>>,
    description: String,
    spawned_ms: f64,
    ready_ms: f64,
    /// Still inside its warm-up window. Event-driven: set at commission time
    /// and cleared by the slot's [`FleetEvent::WarmupComplete`] event, which
    /// sorts before any control tick or arrival sharing its timestamp — so
    /// at every evaluation point the flag equals the legacy
    /// `ready_ms <= now` test.
    warming: bool,
    draining: bool,
    /// Set when the slot leaves the fleet: drained after a scale-in, or
    /// killed by an injected [`FaultKind::ReplicaCrash`] (never to return).
    retired_ms: Option<f64>,
    /// Count of active link degradations (a degrade and an island partition
    /// can overlap): the dispatcher routes nothing here while it is > 0.
    degraded: u32,
    /// Whether the slot's step chain is live: at most one pending
    /// [`FleetEvent::StepCompletion`] per slot, armed when work is enqueued
    /// and cleared when a step finds none.
    chain_armed: bool,
    assigned_ids: Vec<u64>,
}

impl Slot {
    fn new(
        backend: Box<dyn ExecutionBackend>,
        scfg: SchedulerConfig,
        spawned_ms: f64,
        ready_ms: f64,
        warming: bool,
    ) -> Self {
        let description = backend.describe();
        Self {
            driver: ReplicaDriver::new(backend, scfg),
            description,
            spawned_ms,
            ready_ms,
            warming,
            draining: false,
            retired_ms: None,
            degraded: 0,
            chain_armed: false,
            assigned_ids: Vec::new(),
        }
    }

    /// Commissioned: part of the fleet (possibly warming), not on its way
    /// out.
    fn commissioned(&self) -> bool {
        !self.draining && self.retired_ms.is_none()
    }

    /// Routable: commissioned, past its warm-up, and its link is healthy.
    fn routable(&self) -> bool {
        self.commissioned() && !self.warming && self.degraded == 0
    }
}

/// Pricing of one prefill→decode KV-cache handoff path as the serving crate
/// sees it: a point-to-point link with a fixed latency and a sustained
/// bandwidth. `samoyeds-dist` builds these from a `ClusterTopology` (NVLink
/// within an island, the InfiniBand spine across), keeping the crate
/// dependency direction intact — `serve` only ever needs the two numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvLink {
    /// One-way link latency in microseconds.
    pub latency_us: f64,
    /// Sustained unidirectional bandwidth in GB/s (bytes, not bits).
    pub bandwidth_gbps: f64,
}

impl KvLink {
    /// Milliseconds to move `bytes` across the link: the latency floor plus
    /// the serialization time at the sustained bandwidth, zero when there is
    /// nothing to move. This is the only point-to-point transfer price: KV
    /// handoffs are its one caller.
    pub fn transfer_ms(&self, bytes: f64) -> f64 {
        if bytes <= 0.0 {
            return 0.0;
        }
        self.latency_us * 1e-3 + bytes / (self.bandwidth_gbps * 1e9) * 1e3
    }
}

/// Opt-in prefill/decode disaggregation for [`FleetController`], installed
/// with [`FleetController::with_disaggregation`].
///
/// The initial fleet is partitioned into *prefill pods* and *decode pods*.
/// Arrivals route to prefill pods only and run chunked prefill there (plus
/// the first output token, which the final prefill forward produces); the
/// finished prompt KV — sized by [`MemoryModel::kv_bytes`] — is then handed
/// off over the [`KvLink`] matrix to the decode pod with the most free KV
/// budget, where the remaining tokens decode. The handoff lands as a
/// [`FleetEvent::KvTransferComplete`] event, ordered into the same-instant
/// event hierarchy after fault recoveries and before control ticks.
///
/// An empty decode set disables disaggregation entirely: the controller
/// takes the ordinary co-located code path bit-for-bit (pinned by the root
/// golden harness `tests/goldens.rs`), which is the ratio-0 endpoint of a
/// prefill:decode ratio sweep.
#[derive(Debug, Clone)]
pub struct DisaggregationConfig {
    /// Indices (into the initial fleet) of the prefill pods.
    pub prefill: Vec<usize>,
    /// Indices (into the initial fleet) of the decode pods. Empty disables
    /// disaggregation.
    pub decode: Vec<usize>,
    /// KV-cache sizing for the transferred prefix. Model-dependent only —
    /// any device's [`MemoryModel`] for the served model gives the same
    /// per-token KV bytes.
    pub memory: MemoryModel,
    /// `links[p][d]` prices the handoff from `prefill[p]` to `decode[d]`.
    pub links: Vec<Vec<KvLink>>,
}

impl DisaggregationConfig {
    /// A config where every prefill→decode pair rides the same `link`.
    pub fn uniform(
        prefill: Vec<usize>,
        decode: Vec<usize>,
        memory: MemoryModel,
        link: KvLink,
    ) -> Self {
        let links = vec![vec![link; decode.len()]; prefill.len()];
        Self {
            prefill,
            decode,
            memory,
            links,
        }
    }
}

/// One KV-cache handoff in flight between a prefill and a decode pod. The
/// [`FleetEvent::KvTransferComplete`] event carries an index into the run's
/// table of these.
struct PendingTransfer {
    id: u64,
    from: usize,
    to: usize,
    bytes: f64,
}

/// Runtime state of a disaggregated run: pod roles, per-prefill-pod
/// completion watermarks, the original request behind every split id and
/// the pending-transfer table. Each prefill pod's step chain surfaces its
/// completions step by step, so a transfer starts at the moment its prefix
/// finishes.
struct Disagg {
    cfg: DisaggregationConfig,
    /// Slot index → its row in the link matrix (`None` off the prefill set;
    /// slots commissioned mid-run have no role and receive no traffic).
    prefill_pos: Vec<Option<usize>>,
    /// Per-slot watermark into `driver.completed()` — everything below it
    /// has already been handed off.
    watermark: Vec<usize>,
    /// Original (untrimmed) request behind every split id. Entries persist
    /// to the end of the run: the metrics ledger stitches halves back
    /// together from them.
    originals: BTreeMap<u64, Request>,
    transfers: Vec<PendingTransfer>,
    in_flight: usize,
}

impl Disagg {
    fn new(cfg: DisaggregationConfig, slots: usize) -> Self {
        let mut prefill_pos = vec![None; slots];
        for (row, &slot) in cfg.prefill.iter().enumerate() {
            prefill_pos[slot] = Some(row);
        }
        Self {
            cfg,
            prefill_pos,
            watermark: vec![0; slots],
            originals: BTreeMap::new(),
            transfers: Vec::new(),
            in_flight: 0,
        }
    }

    /// The decode pod with the most free KV budget that could ever admit
    /// `remainder`, ties broken toward the lower slot index. The target is
    /// committed at transfer *start*: the link to it prices the transfer.
    fn pick_decode_pod(&self, slots: &[Slot], remainder: &Request) -> Option<usize> {
        self.cfg
            .decode
            .iter()
            .copied()
            .filter(|&i| {
                i < slots.len() && slots[i].routable() && slots[i].driver.can_ever_admit(remainder)
            })
            .max_by(|&a, &b| {
                slots[a]
                    .driver
                    .kv_headroom_bytes()
                    .total_cmp(&slots[b].driver.kv_headroom_bytes())
                    // Equal headroom: prefer the lower slot index (max_by
                    // keeps the *last* maximum, so order the later index
                    // lower).
                    .then(b.cmp(&a))
            })
    }

    /// The decode half of request `id` — the rest of its generation after
    /// the first token, entering a decode pod at `arrival_ms` — or `None`
    /// for an untrimmed single-token request, which never transfers.
    fn decode_half(&self, id: u64, arrival_ms: f64) -> Option<Request> {
        self.originals.get(&id).map(|original| Request {
            id,
            arrival_ms,
            prompt_len: original.prompt_len,
            output_len: original.output_len - 1,
        })
    }
}

/// The online fleet control plane. See the [module docs](self) for the
/// design; typical use is builder-style:
///
/// ```
/// use samoyeds_gpu_sim::DeviceSpec;
/// use samoyeds_moe::config::MoeModelConfig;
/// use samoyeds_moe::engines::EngineKind;
/// use samoyeds_serve::{
///     FleetConfig, FleetController, SchedulerConfig, SingleGpuBackend, SloAutoscaler,
///     TraceConfig,
/// };
///
/// let scfg = SchedulerConfig::default();
/// let model = MoeModelConfig::qwen2_moe();
/// let single = move || {
///     Box::new(SingleGpuBackend::new(
///         DeviceSpec::a100_40g(),
///         &model,
///         EngineKind::Samoyeds,
///         &scfg,
///     )) as Box<dyn samoyeds_serve::ExecutionBackend>
/// };
/// let fleet = FleetController::new(FleetConfig::default())
///     .with_replica(single())
///     .with_factory(single)
///     .with_autoscaler(SloAutoscaler::new(2_000.0));
/// let trace = TraceConfig { num_requests: 8, ..TraceConfig::default() }.generate();
/// let metrics = fleet.run(&trace);
/// assert_eq!(metrics.completed + metrics.rejected, 8);
/// ```
pub struct FleetController {
    config: FleetConfig,
    initial: Vec<Box<dyn ExecutionBackend>>,
    factory: Option<ReplicaFactory>,
    autoscaler: Box<dyn AutoscalePolicy>,
    sink: Option<SharedSink>,
    faults: FaultSchedule,
    recovery: RecoveryPolicy,
    disagg: Option<DisaggregationConfig>,
}

impl FleetController {
    /// A controller with no replicas yet, a fixed (non-scaling) policy and
    /// no factory. Add replicas with [`Self::with_replica`].
    pub fn new(config: FleetConfig) -> Self {
        Self {
            config,
            initial: Vec::new(),
            factory: None,
            autoscaler: Box::new(NoAutoscale),
            sink: None,
            faults: FaultSchedule::none(),
            recovery: RecoveryPolicy::default(),
            disagg: None,
        }
    }

    /// Install a telemetry sink: the run emits the full request lifecycle
    /// (arrival → routing → admission → step spans → first token →
    /// completion), replica lifecycle (commission, warm-up, drain, retire)
    /// and control-tick observations there. Without one, nothing is emitted;
    /// with or without one, every metric is bit-identical (pinned on every
    /// fleet golden of the root harness `tests/goldens.rs`).
    pub fn with_sink(mut self, sink: SharedSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Add one replica to the initial fleet (ready at time zero).
    pub fn with_replica(mut self, backend: Box<dyn ExecutionBackend>) -> Self {
        self.initial.push(backend);
        self
    }

    /// Install the factory scale-out commissions new replicas from. Without
    /// a factory the fleet can only scale in.
    pub fn with_factory(
        mut self,
        factory: impl Fn() -> Box<dyn ExecutionBackend> + 'static,
    ) -> Self {
        self.factory = Some(Box::new(factory));
        self
    }

    /// Install the autoscale policy (default: [`NoAutoscale`]).
    pub fn with_autoscaler(mut self, policy: impl AutoscalePolicy + 'static) -> Self {
        self.autoscaler = Box::new(policy);
        self
    }

    /// Install a fault schedule and the recovery policy that reacts to it.
    /// The schedule is resolved once at run start and injected through the
    /// event queue, so the run stays fully deterministic; an empty schedule
    /// leaves the controller bit-for-bit identical to one without fault
    /// injection under every recovery policy (pinned by the root golden
    /// harness `tests/goldens.rs`).
    pub fn with_faults(mut self, schedule: FaultSchedule, recovery: RecoveryPolicy) -> Self {
        self.faults = schedule;
        self.recovery = recovery;
        self
    }

    /// Split the fleet into prefill and decode pods (see
    /// [`DisaggregationConfig`]). A config with an empty decode set is
    /// inert: the run is bit-for-bit the co-located run (pinned by the root
    /// golden harness `tests/goldens.rs`).
    pub fn with_disaggregation(mut self, config: DisaggregationConfig) -> Self {
        self.disagg = Some(config);
        self
    }

    /// Statically validate this controller's configuration against the
    /// trace it is about to serve, surfacing *every* problem at once.
    ///
    /// Pure analysis: nothing is simulated, no state is touched, and a
    /// configuration that validates cleanly runs bit-for-bit identically to
    /// one that was never validated. [`Self::run`] calls this first and
    /// panics (via [`ValidationReport::assert_valid`]) on any deny-severity
    /// finding; call it yourself to also render the warnings, which `run`
    /// deliberately does not print.
    ///
    /// Deny codes: `fleet::empty`, `fleet::zero-floor`,
    /// `fleet::ceiling-below-floor`, `fleet::nonpositive-tick`,
    /// `fleet::negative-warmup`, `fleet::non-finite-warmup`,
    /// `fleet::zero-drain-cap`, `fleet::zero-batch-limit` (one per zero
    /// [`BatchLimits`](crate::BatchLimits) field of `scheduler.limits`),
    /// `fleet::unsorted-trace`, `fleet::empty-request` (a request with a
    /// zero `prompt_len` or `output_len`), `fleet::non-finite-arrival`,
    /// `fleet::top-k-out-of-range` (an initial replica's model routes to
    /// more experts than it has), `fleet::too-many-experts` (an initial
    /// replica's model has more routed experts than the router's
    /// [`MAX_EXPERTS`]), `fault::bad-transfer` (a recovery policy that
    /// re-admits or replaces with a negative or non-finite `transfer_ms`),
    /// `fault::negative-time`, `fault::non-finite-time`,
    /// `fault::replica-out-of-range`, `fault::negative-duration`,
    /// `fault::non-finite-duration`, `disagg::empty-role`,
    /// `disagg::role-out-of-range`, `disagg::overlapping-roles`,
    /// `disagg::link-shape`, `disagg::bad-link`,
    /// `disagg::decode-cannot-hold-model`, `slo::nonpositive`,
    /// `slo::unachievable-ttft`. Warning codes:
    /// `fleet::no-capable-replica`, `fault::replica-never-commissioned`,
    /// `fault::empty-partition`, `fault::past-trace-end`,
    /// `disagg::no-decode-pods`, `disagg::unassigned-replica`.
    #[allow(
        clippy::too_many_lines,
        reason = "a flat list of independent checks, one per diagnostic code"
    )]
    pub fn validate(&self, trace: &[Request]) -> ValidationReport {
        let mut report = ValidationReport::new();
        let cfg = &self.config;
        let ctx = "FleetConfig";
        if self.initial.is_empty() {
            report.push(Diagnostic::deny(
                "fleet::empty",
                "FleetController",
                "the initial fleet has no replicas",
                "add at least one replica with with_replica(...)",
            ));
        }
        if cfg.min_replicas == 0 {
            report.push(Diagnostic::deny(
                "fleet::zero-floor",
                ctx,
                "min_replicas is 0 — the fleet floor must hold at least one replica",
                "set min_replicas >= 1",
            ));
        }
        if cfg.max_replicas < cfg.min_replicas {
            report.push(Diagnostic::deny(
                "fleet::ceiling-below-floor",
                ctx,
                format!(
                    "max_replicas ({}) is below min_replicas ({}) — the scaling band is empty",
                    cfg.max_replicas, cfg.min_replicas
                ),
                "raise max_replicas or lower min_replicas",
            ));
        }
        if cfg.tick_ms <= 0.0 || cfg.tick_ms.is_nan() {
            report.push(Diagnostic::deny(
                "fleet::nonpositive-tick",
                ctx,
                format!(
                    "tick_ms is {} — the control-tick period must be positive",
                    cfg.tick_ms
                ),
                "set tick_ms > 0",
            ));
        }
        if !cfg.warmup_ms.is_finite() {
            report.push(Diagnostic::deny(
                "fleet::non-finite-warmup",
                ctx,
                format!(
                    "warmup_ms is {} — a replica commissioned after NaN or infinite warm-up \
                     is never ready, and its recovery time is written into the fault record",
                    cfg.warmup_ms
                ),
                "set a finite warmup_ms >= 0",
            ));
        } else if cfg.warmup_ms < 0.0 {
            report.push(Diagnostic::deny(
                "fleet::negative-warmup",
                ctx,
                format!(
                    "warmup_ms is {} — warm-up cannot be negative",
                    cfg.warmup_ms
                ),
                "set warmup_ms >= 0",
            ));
        }
        if cfg.max_drain_ticks == 0 {
            report.push(Diagnostic::deny(
                "fleet::zero-drain-cap",
                ctx,
                "max_drain_ticks is 0 — the post-trace drain could never run a single tick",
                "set max_drain_ticks >= 1",
            ));
        }
        for field in cfg.scheduler.limits.zero_fields() {
            report.push(Diagnostic::deny(
                "fleet::zero-batch-limit",
                "FleetConfig.scheduler.limits",
                format!("{field} is 0 — no replica could ever run a step"),
                format!("set {field} >= 1"),
            ));
        }
        // One pass over the trace (`run` validates every trace it serves):
        // the first out-of-order pair, and every request that breaks
        // `Request`'s contract.
        let mut unsorted = None;
        let mut empty = Vec::new();
        let mut non_finite = Vec::new();
        for (i, r) in trace.iter().enumerate() {
            if unsorted.is_none()
                && i > 0
                && trace[i - 1]
                    .arrival_ms
                    .partial_cmp(&r.arrival_ms)
                    .is_none_or(std::cmp::Ordering::is_gt)
            {
                unsorted = Some(i - 1);
            }
            if r.prompt_len == 0 || r.output_len == 0 {
                empty.push(i);
            }
            if !r.arrival_ms.is_finite() {
                non_finite.push(i);
            }
        }
        if let Some(i) = unsorted {
            report.push(Diagnostic::deny(
                "fleet::unsorted-trace",
                format!("trace[{}..={}]", i, i + 1),
                format!(
                    "arrival {} ms is followed by {} ms — the trace is not sorted by arrival time",
                    trace[i].arrival_ms,
                    trace[i + 1].arrival_ms
                ),
                "sort the trace by arrival_ms before serving it",
            ));
        }
        if let Some(&i) = empty.first() {
            report.push(Diagnostic::deny(
                "fleet::empty-request",
                format!("trace[{i}]"),
                format!(
                    "{} of {} requests have a zero length, the first request {} \
                     (prompt_len {}, output_len {}) — every request needs at least one \
                     prompt and one output token",
                    empty.len(),
                    trace.len(),
                    trace[i].id,
                    trace[i].prompt_len,
                    trace[i].output_len
                ),
                "drop or repair requests with a zero length",
            ));
        }
        if let Some(&i) = non_finite.first() {
            report.push(Diagnostic::deny(
                "fleet::non-finite-arrival",
                format!("trace[{i}]"),
                format!(
                    "{} of {} requests arrive at a non-finite time, the first request {} at \
                     {} ms — no event can be scheduled at NaN, and one at infinity leaves \
                     every latency NaN",
                    non_finite.len(),
                    trace.len(),
                    trace[i].id,
                    trace[i].arrival_ms
                ),
                "give every request a finite arrival_ms",
            ));
        }
        for (slot, b) in self.initial.iter().enumerate() {
            let model = b.model();
            if model.top_k > model.num_experts {
                report.push(Diagnostic::deny(
                    "fleet::top-k-out-of-range",
                    format!("replica {slot}"),
                    format!(
                        "{} routes each token to top_k = {} experts but its model has \
                         only {} — the first step it prices would panic",
                        b.describe(),
                        model.top_k,
                        model.num_experts
                    ),
                    "set top_k <= num_experts",
                ));
            }
            if model.num_experts > MAX_EXPERTS {
                report.push(Diagnostic::deny(
                    "fleet::too-many-experts",
                    format!("replica {slot}"),
                    format!(
                        "{} has {} routed experts but the router draws expert ids as \
                         bytes, at most {MAX_EXPERTS} — the first step it prices would panic",
                        b.describe(),
                        model.num_experts
                    ),
                    "serve a model with at most 256 routed experts",
                ));
            }
        }
        let capable =
            |b: &dyn ExecutionBackend| b.supports(b.model()) && b.memory().can_hold_model();
        if !self.initial.is_empty() && !self.initial.iter().any(|b| capable(b.as_ref())) {
            report.push(Diagnostic::warning(
                "fleet::no-capable-replica",
                "FleetController",
                "no initial replica both supports its model and fits its weights — every \
                 request is unroutable until a scale-out commissions a capable replica",
                "check the engine/model pairing and memory budgets of the initial fleet",
            ));
        }

        // Fault schedule: resolve() is pure and deterministic, so the list
        // inspected here is exactly the list run() will inject.
        let trace_end_ms = trace.last().map(|r| r.arrival_ms);
        let replica_in_range =
            |replica: usize, fault_ctx: &str, report: &mut ValidationReport| {
                if replica >= cfg.max_replicas
                    || (replica >= self.initial.len() && self.factory.is_none())
                {
                    report.push(Diagnostic::deny(
                        "fault::replica-out-of-range",
                        fault_ctx.to_string(),
                        format!(
                        "replica {replica} can never exist: the initial fleet has {} replicas, \
                         max_replicas is {} and a scale-out factory is {}",
                        self.initial.len(),
                        cfg.max_replicas,
                        if self.factory.is_some() { "installed" } else { "not installed" }
                    ),
                        "target a replica slot the fleet can actually commission",
                    ));
                } else if replica >= self.initial.len() {
                    report.push(Diagnostic::warning(
                        "fault::replica-never-commissioned",
                        fault_ctx.to_string(),
                        format!(
                            "replica {replica} is beyond the initial fleet of {} — the fault is a \
                         no-op unless autoscaling has commissioned that slot by then",
                            self.initial.len()
                        ),
                        "confirm the autoscaler can plausibly reach that fleet size first",
                    ));
                }
            };
        let recovery = &self.recovery;
        if (recovery.readmit || recovery.replace)
            && (recovery.transfer_ms < 0.0 || !recovery.transfer_ms.is_finite())
        {
            report.push(Diagnostic::deny(
                "fault::bad-transfer",
                "RecoveryPolicy",
                format!(
                    "transfer_ms is {} — a recovery that re-admits or replaces would land in \
                     the past, at NaN or never",
                    recovery.transfer_ms
                ),
                "use a finite transfer_ms >= 0",
            ));
        }
        for (i, spec) in self.faults.resolve().iter().enumerate() {
            let fault_ctx = format!("fault[{i}] {} at {} ms", spec.kind.label(), spec.at_ms);
            if !spec.at_ms.is_finite() {
                report.push(Diagnostic::deny(
                    "fault::non-finite-time",
                    fault_ctx.clone(),
                    format!(
                        "injection time {} ms is not finite — no event can be scheduled at \
                         NaN, and one at infinity writes infinity into the fault record",
                        spec.at_ms
                    ),
                    "schedule faults at a finite t >= 0",
                ));
            } else if spec.at_ms < 0.0 {
                report.push(Diagnostic::deny(
                    "fault::negative-time",
                    fault_ctx.clone(),
                    format!(
                        "injection time {} ms is before the start of the run",
                        spec.at_ms
                    ),
                    "schedule faults at t >= 0",
                ));
            }
            let duration_ms = match &spec.kind {
                FaultKind::ReplicaCrash { replica } => {
                    replica_in_range(*replica, &fault_ctx, &mut report);
                    None
                }
                FaultKind::LinkDegrade {
                    replica,
                    duration_ms,
                } => {
                    replica_in_range(*replica, &fault_ctx, &mut report);
                    Some(*duration_ms)
                }
                FaultKind::IslandPartition {
                    replicas,
                    duration_ms,
                    ..
                } => {
                    for &replica in replicas {
                        replica_in_range(replica, &fault_ctx, &mut report);
                    }
                    if replicas.is_empty() {
                        report.push(Diagnostic::warning(
                            "fault::empty-partition",
                            fault_ctx.clone(),
                            "the partition lists no replicas — it can never affect the fleet"
                                .to_string(),
                            "list the replica slots on the partitioned island",
                        ));
                    }
                    Some(*duration_ms)
                }
            };
            if let Some(duration_ms) = duration_ms {
                let label = spec.kind.label();
                if !duration_ms.is_finite() {
                    report.push(Diagnostic::deny(
                        "fault::non-finite-duration",
                        fault_ctx.clone(),
                        format!(
                            "the {label} lasts {duration_ms} ms — its recovery would land at \
                             NaN or never"
                        ),
                        "use a finite duration >= 0 (zero is a deterministic no-op)",
                    ));
                } else if duration_ms < 0.0 {
                    report.push(Diagnostic::deny(
                        "fault::negative-duration",
                        fault_ctx.clone(),
                        format!(
                            "the {label} lasts {duration_ms} ms — durations cannot be negative"
                        ),
                        "use a duration >= 0 (zero is a deterministic no-op)",
                    ));
                }
            }
            if trace_end_ms.is_none_or(|end| spec.at_ms > end) {
                report.push(Diagnostic::warning(
                    "fault::past-trace-end",
                    fault_ctx,
                    format!(
                        "the fault fires after the last arrival ({} ms) — it can only affect \
                         the post-trace drain",
                        trace_end_ms.unwrap_or(0.0)
                    ),
                    "move the fault before the end of the trace if it should hit live traffic",
                ));
            }
        }

        // Disaggregation: roles must name real replicas and not overlap,
        // the link matrix must cover every prefill×decode pair, and every
        // decode pod must be able to hold the model it decodes for —
        // otherwise every handoff to it would fail at admission.
        if let Some(d) = &self.disagg {
            let dctx = "DisaggregationConfig";
            if d.decode.is_empty() {
                report.push(Diagnostic::warning(
                    "disagg::no-decode-pods",
                    dctx,
                    "the decode set is empty — the fleet runs co-located and no KV transfer \
                     is ever priced",
                    "list at least one decode pod, or drop with_disaggregation entirely",
                ));
            } else {
                if d.prefill.is_empty() {
                    report.push(Diagnostic::deny(
                        "disagg::empty-role",
                        dctx,
                        "decode pods are configured but the prefill set is empty — no request \
                         could ever be admitted",
                        "list at least one prefill pod",
                    ));
                }
                for &slot in d.prefill.iter().chain(&d.decode) {
                    if slot >= self.initial.len() {
                        report.push(Diagnostic::deny(
                            "disagg::role-out-of-range",
                            dctx,
                            format!(
                                "replica {slot} has a pod role but the initial fleet has only \
                                 {} replicas — roles bind to initial replicas",
                                self.initial.len()
                            ),
                            "assign roles to initial replica indices only",
                        ));
                    }
                }
                for &slot in &d.decode {
                    if d.prefill.contains(&slot) {
                        report.push(Diagnostic::deny(
                            "disagg::overlapping-roles",
                            dctx,
                            format!(
                                "replica {slot} is listed as both a prefill and a decode pod — \
                                 roles must partition the fleet"
                            ),
                            "give each replica exactly one role",
                        ));
                    }
                }
                if d.links.len() != d.prefill.len()
                    || d.links.iter().any(|row| row.len() != d.decode.len())
                {
                    report.push(Diagnostic::deny(
                        "disagg::link-shape",
                        dctx,
                        format!(
                            "the link matrix is {}×{} but {} prefill × {} decode pods are \
                             configured",
                            d.links.len(),
                            d.links.first().map_or(0, Vec::len),
                            d.prefill.len(),
                            d.decode.len()
                        ),
                        "provide one KvLink per prefill×decode pair \
                         (DisaggregationConfig::uniform builds a uniform matrix)",
                    ));
                } else if d.links.iter().flatten().any(|l| {
                    !l.latency_us.is_finite()
                        || l.latency_us < 0.0
                        || l.bandwidth_gbps.is_nan()
                        || l.bandwidth_gbps <= 0.0
                }) {
                    report.push(Diagnostic::deny(
                        "disagg::bad-link",
                        dctx,
                        "a KV link has a negative or non-finite latency, or a non-positive \
                         bandwidth",
                        "use finite latency_us >= 0 and bandwidth_gbps > 0",
                    ));
                }
                for &slot in &d.decode {
                    if slot < self.initial.len() && !capable(self.initial[slot].as_ref()) {
                        report.push(Diagnostic::deny(
                            "disagg::decode-cannot-hold-model",
                            dctx,
                            format!(
                                "decode pod {slot} ({}) cannot hold the model it would decode \
                                 for — every handoff to it would fail",
                                self.initial[slot].describe()
                            ),
                            "give decode pods an engine/device pairing that fits the weights",
                        ));
                    }
                }
                for slot in 0..self.initial.len() {
                    if !d.prefill.contains(&slot) && !d.decode.contains(&slot) {
                        report.push(Diagnostic::warning(
                            "disagg::unassigned-replica",
                            dctx,
                            format!(
                                "initial replica {slot} has no pod role — it is commissioned \
                                 but never receives traffic"
                            ),
                            "assign it a role or remove it from the fleet",
                        ));
                    }
                }
            }
        }

        // SLO sanity: a p95-TTFT target below the *best single step* any
        // capable replica can execute is unachievable at any fleet size —
        // adding replicas never makes one step faster.
        if let Some(slo) = self.autoscaler.ttft_slo_ms() {
            let slo_ctx = self.autoscaler.name();
            if slo <= 0.0 || slo.is_nan() {
                report.push(Diagnostic::deny(
                    "slo::nonpositive",
                    slo_ctx,
                    format!("the TTFT SLO is {slo} ms — targets must be positive"),
                    "set a positive SLO",
                ));
            } else {
                // The physical floor: one request, one-token prompt, alone
                // on the fastest capable replica.
                let batch = StepBatch {
                    prefill: vec![(0, 1)],
                    decode: Vec::new(),
                };
                let running = [RunningRequest::new(
                    Request {
                        id: u64::MAX,
                        arrival_ms: 0.0,
                        prompt_len: 1,
                        output_len: 1,
                    },
                    0.0,
                )];
                let route = RefCell::default();
                let workload = StepWorkload {
                    batch: &batch,
                    running: &running,
                    step_index: 0,
                    route: &route,
                };
                let floor = self
                    .initial
                    .iter()
                    .filter(|b| capable(b.as_ref()))
                    .map(|b| b.step_cost(&workload).total_ms())
                    .min_by(f64::total_cmp);
                if let Some(floor) = floor {
                    if slo < floor {
                        report.push(Diagnostic::deny(
                            "slo::unachievable-ttft",
                            slo_ctx,
                            format!(
                                "the TTFT SLO of {slo} ms is below {floor:.3} ms, the fastest \
                                 single step any capable replica can execute — no fleet size \
                                 can meet it and the autoscaler would scale out forever",
                            ),
                            "raise the SLO above the minimum step cost or use faster replicas",
                        ));
                    }
                }
            }
        }
        report
    }

    /// Serve `trace` (sorted by arrival) to completion and return the fleet
    /// metrics, including per-replica breakdowns and the scaling timeline.
    ///
    /// This is a next-event loop over an [`EventQueue`]: arrivals, step
    /// completions, control ticks, warm-up completions and drain
    /// retirements pop in timestamp order (same-time ties broken by event
    /// class) and simulated time jumps straight between them. Each replica
    /// with work advances on its own chain of step completions. The run's
    /// state lives in one private struct, and each popped event goes to the
    /// one method that handles its [`FleetEvent`] variant. The tick schedule
    /// exists only while the policy wants it
    /// ([`AutoscalePolicy::consults_ticks`]); tick `k` fires at exactly
    /// `k * tick_ms` — derived per tick, never accumulated, so the schedule
    /// cannot drift over long traces. If the post-trace drain exceeds
    /// [`FleetConfig::max_drain_ticks`], the run stops and returns degraded
    /// metrics with [`FleetMetrics::drain_incomplete`] set instead of
    /// panicking.
    ///
    /// # Panics
    /// Panics if [`Self::validate`] finds any deny-severity diagnostic —
    /// empty fleet, degenerate control-plane knobs, an unsorted trace, a
    /// fault targeting a replica that can never exist, or an unachievable
    /// SLO. Unlike an assert chain, the panic message lists *every* problem
    /// at once.
    pub fn run(self, trace: &[Request]) -> FleetMetrics {
        self.validate(trace).assert_valid();
        let mut run = FleetRun::new(self, trace);
        while let Some((at, event)) = run.queue.pop() {
            match event {
                FleetEvent::WarmupComplete { slot } => run.on_warmup_complete(slot, at),
                FleetEvent::DrainRetire { slot } => run.retire(slot, at),
                FleetEvent::Fault { index } => run.on_fault(index, at),
                FleetEvent::FaultRecovery { index } => run.on_fault_recovery(index, at),
                FleetEvent::KvTransferComplete { transfer } => {
                    run.on_kv_transfer_complete(transfer, at);
                }
                FleetEvent::ControlTick { index } => run.on_control_tick(index),
                FleetEvent::Arrival { index } => run.on_arrival(index),
                FleetEvent::StepCompletion { slot } => run.on_step_completion(slot),
            }
        }
        run.finish()
    }
}

/// Runtime state of the injected faults: the schedule resolved once at run
/// start, one outcome record per fault, and what each fault's recovery must
/// undo. An empty schedule leaves all of it empty.
struct FaultState {
    specs: Vec<FaultSpec>,
    records: Vec<FaultRecord>,
    /// Per-fault re-admission buffer: a crashed replica's lost requests,
    /// held until its recovery event routes them.
    readmit: Vec<Vec<Request>>,
    /// The slots each degrade or partition actually degraded, so its
    /// recovery restores exactly what it broke — overlapping degradations
    /// are counted, not clobbered.
    degraded: Vec<Vec<usize>>,
    /// Crash recoveries still in flight: the tick schedule outlives them,
    /// so requests re-admitted after the fleet drained still run under the
    /// autoscaler and the drain cap.
    pending_readmissions: usize,
}

impl FaultState {
    fn new(specs: Vec<FaultSpec>) -> Self {
        let records = specs
            .iter()
            .map(|spec| FaultRecord {
                at_ms: spec.at_ms,
                kind: spec.kind.clone(),
                lost_queued: 0,
                lost_running: 0,
                readmitted: 0,
                failed: 0,
                replacement: None,
                recovered_at_ms: None,
            })
            .collect();
        Self {
            readmit: vec![Vec::new(); specs.len()],
            degraded: vec![Vec::new(); specs.len()],
            records,
            specs,
            pending_readmissions: 0,
        }
    }
}

/// The state of one [`FleetController::run`]: the replica slots, the event
/// queue, the fault and disaggregation state, and the ledgers the metrics
/// are built from. `run` hands every popped event to the `on_*` method of
/// its [`FleetEvent`] variant (drain retirements go straight to
/// [`Self::retire`]).
struct FleetRun<'a> {
    config: FleetConfig,
    trace: &'a [Request],
    autoscaler: Box<dyn AutoscalePolicy>,
    factory: Option<ReplicaFactory>,
    sink: Option<SharedSink>,
    recovery: RecoveryPolicy,
    slots: Vec<Slot>,
    queue: EventQueue,
    faults: FaultState,
    /// Present only when decode pods exist: a ratio-0 config (empty decode
    /// set) takes the co-located path bit-for-bit (pinned by the root golden
    /// harness `tests/goldens.rs`).
    disagg: Option<Disagg>,
    scale_events: Vec<ScaleEvent>,
    unroutable: Vec<u64>,
    failed_ids: Vec<u64>,
    peak_replicas: usize,
    rr_cursor: usize,
    /// Index of the next trace request to arrive.
    next_arrival: usize,
    drain_ticks: usize,
    /// Slots still holding work when the drain cap hit (empty otherwise).
    drain_incomplete_replicas: Vec<usize>,
    /// The dispatcher's eligible set, reused across routings.
    eligible: Vec<usize>,
    /// The routing scratch every replica's steps price with: replicas at
    /// the same step index count one kept stream.
    route: RefCell<RouteScratch>,
}

impl<'a> FleetRun<'a> {
    /// Commission the initial fleet and schedule the first arrival, the
    /// first control tick (when the policy consults ticks) and every fault.
    fn new(controller: FleetController, trace: &'a [Request]) -> Self {
        let FleetController {
            config,
            initial,
            factory,
            autoscaler,
            sink,
            faults,
            recovery,
            disagg,
        } = controller;
        let mut slots: Vec<Slot> = initial
            .into_iter()
            .map(|backend| Slot::new(backend, config.scheduler, 0.0, 0.0, false))
            .collect();
        if let Some(sink) = &sink {
            for (i, slot) in slots.iter_mut().enumerate() {
                slot.driver.attach_sink(sink.clone(), i);
                sink.emit(TraceEvent::ReplicaCommissioned {
                    replica: i,
                    at_ms: 0.0,
                    ready_ms: 0.0,
                });
            }
        }
        let disagg = disagg
            .filter(|d| !d.decode.is_empty())
            .map(|cfg| Disagg::new(cfg, slots.len()));
        let mut queue = EventQueue::new();
        if let Some(first) = trace.first() {
            queue.push(first.arrival_ms, FleetEvent::Arrival { index: 0 });
        }
        if autoscaler.consults_ticks() {
            queue.push(config.tick_ms, FleetEvent::ControlTick { index: 1 });
        }
        // Every fault is an ordinary event. An empty schedule pushes
        // nothing: the event stream — and therefore the whole run — is
        // exactly the no-fault-injection stream.
        let faults = FaultState::new(faults.resolve());
        for (index, spec) in faults.specs.iter().enumerate() {
            queue.push(spec.at_ms, FleetEvent::Fault { index });
        }
        Self {
            config,
            trace,
            autoscaler,
            factory,
            sink,
            recovery,
            peak_replicas: slots.len(),
            slots,
            queue,
            faults,
            disagg,
            scale_events: Vec::new(),
            unroutable: Vec::new(),
            failed_ids: Vec::new(),
            rr_cursor: 0,
            next_arrival: 0,
            drain_ticks: 0,
            drain_incomplete_replicas: Vec::new(),
            eligible: Vec::new(),
            route: RefCell::default(),
        }
    }

    /// Record `event` on the installed sink, if any.
    #[inline]
    fn emit(&self, event: TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.emit(event);
        }
    }

    /// Replicas in the fleet (possibly warming), neither draining nor
    /// retired.
    fn commissioned(&self) -> usize {
        self.slots.iter().filter(|s| s.commissioned()).count()
    }

    /// [`FleetEvent::WarmupComplete`]: the event sorts before any tick or
    /// arrival at the same instant, so the replica is routable the moment
    /// warm-up lands. Late events for already-retired slots are harmless
    /// flips.
    fn on_warmup_complete(&mut self, slot: usize, at: f64) {
        if self.slots[slot].warming {
            self.emit(TraceEvent::WarmupComplete {
                replica: slot,
                at_ms: at,
            });
        }
        self.slots[slot].warming = false;
    }

    /// [`FleetEvent::DrainRetire`], and the control tick's retirement of
    /// drained, draining replicas: the slot leaves the fleet at `at`.
    fn retire(&mut self, slot: usize, at: f64) {
        if self.slots[slot].retired_ms.is_none() {
            self.slots[slot].retired_ms = Some(at);
            self.emit(TraceEvent::Retired {
                replica: slot,
                at_ms: at,
            });
        }
    }

    /// [`FleetEvent::Fault`]: inject fault `index`.
    fn on_fault(&mut self, index: usize, at: f64) {
        match self.faults.specs[index].kind.clone() {
            FaultKind::ReplicaCrash { replica } => self.crash(index, replica, at),
            FaultKind::LinkDegrade {
                replica,
                duration_ms,
            } => {
                if self.degrade(index, &[replica]) {
                    self.emit(TraceEvent::LinkDegraded {
                        replica,
                        at_ms: at,
                        until_ms: at + duration_ms,
                    });
                    self.queue
                        .push(at + duration_ms, FleetEvent::FaultRecovery { index });
                }
            }
            FaultKind::IslandPartition {
                island,
                replicas,
                duration_ms,
            } => {
                if self.degrade(index, &replicas) {
                    self.emit(TraceEvent::IslandPartitioned {
                        island,
                        replicas: self.faults.degraded[index].len(),
                        at_ms: at,
                        until_ms: at + duration_ms,
                    });
                    self.queue
                        .push(at + duration_ms, FleetEvent::FaultRecovery { index });
                }
            }
        }
    }

    /// Crash `replica` for fault `index`. Work its steps already finished
    /// survives, handoffs included; the admitted and the queued requests are
    /// ripped out and buffered for re-admission or failed, and the recovery
    /// policy may commission a cold replacement.
    fn crash(&mut self, index: usize, replica: usize, at: f64) {
        if replica >= self.slots.len() || self.slots[replica].retired_ms.is_some() {
            // Crashing a replica that never existed or already left the
            // fleet is a no-op.
            return;
        }
        let (running, queued) = self.slots[replica].driver.take_inflight();
        self.slots[replica].retired_ms = Some(at);
        let record = &mut self.faults.records[index];
        record.lost_running = running.len();
        record.lost_queued = queued.len();
        self.emit(TraceEvent::ReplicaCrashed {
            replica,
            at_ms: at,
            lost_running: running.len(),
            lost_queued: queued.len(),
        });
        let lost: Vec<Request> = running.into_iter().chain(queued).collect();
        if self.recovery.readmit {
            // Survivors take over once the weight transfer lands; the
            // recovery event routes the buffered requests.
            self.faults.readmit[index] = lost;
            self.faults.pending_readmissions += 1;
            self.emit(TraceEvent::RecoveryStarted {
                replica,
                at_ms: at,
                transfer_ms: self.recovery.transfer_ms,
            });
            self.queue.push(
                at + self.recovery.transfer_ms,
                FleetEvent::FaultRecovery { index },
            );
        } else {
            self.faults.records[index].failed = lost.len();
            self.failed_ids.extend(lost.iter().map(|r| r.id));
        }
        if self.recovery.replace
            && self.factory.is_some()
            && self.commissioned() < self.config.max_replicas
        {
            // Cold replacement through the normal warm-up path, plus the
            // weight transfer on top.
            let ready = at + self.config.warmup_ms + self.recovery.transfer_ms;
            let slot = self.commission(at, ready);
            let record = &mut self.faults.records[index];
            record.replacement = Some(slot);
            record.recovered_at_ms = Some(ready);
        }
    }

    /// Link-degrade every live slot among `replicas` on behalf of fault
    /// `index`; returns whether any was.
    fn degrade(&mut self, index: usize, replicas: &[usize]) -> bool {
        for &replica in replicas {
            if replica < self.slots.len() && self.slots[replica].retired_ms.is_none() {
                self.slots[replica].degraded += 1;
                self.faults.degraded[index].push(replica);
            }
        }
        !self.faults.degraded[index].is_empty()
    }

    /// [`FleetEvent::FaultRecovery`]: a crash's weight transfer landed, or
    /// a degraded link or partitioned island restored.
    fn on_fault_recovery(&mut self, index: usize, at: f64) {
        match self.faults.specs[index].kind {
            FaultKind::ReplicaCrash { replica } => self.readmit(index, replica, at),
            FaultKind::LinkDegrade { .. } | FaultKind::IslandPartition { .. } => {
                // Restore exactly the links this fault degraded; overlapping
                // degradations keep the slot un-routable until the last one
                // clears.
                for &replica in &self.faults.degraded[index] {
                    self.slots[replica].degraded = self.slots[replica].degraded.saturating_sub(1);
                    self.emit(TraceEvent::LinkRestored { replica, at_ms: at });
                }
                if !self.faults.degraded[index].is_empty() {
                    self.faults.records[index].recovered_at_ms = Some(at);
                }
            }
        }
    }

    /// Route crash `index`'s buffered requests exactly like fresh arrivals
    /// at the recovery instant: filter eligibility, apply the dispatch
    /// policy. The latency clock restarts here — the request re-enters the
    /// fleet now (which also keeps enqueue order nondecreasing on the new
    /// replica).
    fn readmit(&mut self, index: usize, replica: usize, at: f64) {
        let lost = std::mem::take(&mut self.faults.readmit[index]);
        self.faults.pending_readmissions -= 1;
        let mut readmitted = 0usize;
        let mut failed = 0usize;
        for request in lost {
            // Disaggregated survivors re-enter through a prefill pod. A
            // split request restarts as its prefill half — the transferred
            // KV died with the pod, so the prompt recomputes and hands off
            // again when it finishes.
            let split = self
                .disagg
                .as_ref()
                .is_some_and(|d| d.originals.contains_key(&request.id));
            let moved = Request {
                arrival_ms: at,
                output_len: if split { 1 } else { request.output_len },
                ..request
            };
            if self.route(moved, at).is_some() {
                readmitted += 1;
            } else {
                failed += 1;
                self.failed_ids.push(moved.id);
            }
        }
        let record = &mut self.faults.records[index];
        record.readmitted = readmitted;
        record.failed += failed;
        record.recovered_at_ms = Some(record.recovered_at_ms.map_or(at, |r| r.max(at)));
        self.emit(TraceEvent::RecoveryComplete {
            replica,
            at_ms: at,
            readmitted,
            failed,
        });
    }

    /// [`FleetEvent::KvTransferComplete`]: a handoff landed. A live decode
    /// pod takes the remainder. If the pod died (or went unroutable) while
    /// the KV was on the wire, the prefix still lives on the prefill pod,
    /// so re-admission re-transfers to another decode pod.
    fn on_kv_transfer_complete(&mut self, transfer: usize, at: f64) {
        let d = self
            .disagg
            .as_mut()
            .expect("transfer events exist only on disaggregated runs");
        let PendingTransfer {
            id,
            from,
            to,
            bytes,
        } = d.transfers[transfer];
        d.in_flight -= 1;
        let remainder = d.decode_half(id, at).expect("only split requests transfer");
        if self.slots[to].routable() && self.slots[to].driver.can_ever_admit(&remainder) {
            self.emit(TraceEvent::KvTransferComplete {
                id,
                from,
                to,
                bytes,
                at_ms: at,
            });
            self.slots[to].driver.enqueue_handoff(remainder);
            self.slots[to].assigned_ids.push(id);
            self.arm_chain(to, at);
        } else if self.recovery.readmit {
            self.start_transfer(id, from, at);
        } else {
            self.failed_ids.push(id);
        }
    }

    /// [`FleetEvent::ControlTick`]: retire drained draining replicas,
    /// observe, apply the autoscale decision, and schedule the next tick —
    /// unless the fleet has drained. At the drain cap with work outstanding
    /// the run stops instead.
    fn on_control_tick(&mut self, index: u64) {
        // Derived, never accumulated: tick k is exactly k * tick_ms, so
        // 10^6 ticks land where tick 10^6 should, not where 10^6 rounded
        // additions drifted to.
        let t = index as f64 * self.config.tick_ms;
        let trace_done = self.next_arrival >= self.trace.len();
        if trace_done
            && self.faults.pending_readmissions == 0
            && self.disagg.as_ref().is_none_or(|d| d.in_flight == 0)
            && self.slots.iter().all(|s| s.driver.is_drained())
        {
            // Drop the schedule and let remaining events drain.
            return;
        }
        // Retirements at this very tick land before the observation below.
        for i in 0..self.slots.len() {
            let slot = &self.slots[i];
            if slot.draining && slot.retired_ms.is_none() && slot.driver.is_drained() {
                self.retire(i, t);
            }
        }
        let obs = observe(t, &self.slots);
        // What the autoscale policy is about to see — the gauge row the
        // metrics registry snapshots its per-replica time series at.
        self.emit(TraceEvent::ControlTick {
            at_ms: t,
            routable: obs.routable_replicas,
            warming: obs.warming_replicas,
            p95_ttft_ms: obs.p95_ttft_ms,
            utilization: obs.utilization,
            queued: obs.queued_requests,
            outstanding_tokens: obs.outstanding_tokens,
        });
        match self.autoscaler.decide(&obs) {
            ScaleDecision::Hold => {}
            ScaleDecision::ScaleOut => self.scale_out(t, &obs),
            ScaleDecision::ScaleIn => self.scale_in(t, &obs),
        }
        if trace_done {
            self.drain_ticks += 1;
            if self.drain_ticks >= self.config.max_drain_ticks {
                self.drain_incomplete_replicas = (0..self.slots.len())
                    .filter(|&i| !self.slots[i].driver.is_drained())
                    .collect();
                if !self.drain_incomplete_replicas.is_empty() {
                    // Stop the run: step chains, transfers and recoveries
                    // still pending are dropped with the schedule, so the
                    // metrics show only the work done by now.
                    self.queue = EventQueue::new();
                    return;
                }
            }
        }
        self.queue.push(
            (index + 1) as f64 * self.config.tick_ms,
            FleetEvent::ControlTick { index: index + 1 },
        );
    }

    /// Commission one more replica, subject to `max_replicas` and to a
    /// factory being installed.
    fn scale_out(&mut self, t: f64, obs: &FleetObservation) {
        let commissioned = self.commissioned();
        if commissioned >= self.config.max_replicas || self.factory.is_none() {
            return;
        }
        // Even a zero-length warm-up goes through the queue: its completion
        // sorts before every other event at `t`, so the replica is routable
        // for same-instant arrivals.
        self.commission(t, t + self.config.warmup_ms);
        self.emit(TraceEvent::ScaleOut {
            at_ms: t,
            replicas_after: commissioned + 1,
        });
        self.scale_events.push(ScaleEvent {
            at_ms: t,
            kind: ScaleKind::Out,
            replicas_after: commissioned + 1,
            reason: describe_observation(obs),
        });
    }

    /// Start draining one replica, subject to the capable-replica floor.
    fn scale_in(&mut self, t: f64, obs: &FleetObservation) {
        let commissioned = self.commissioned();
        let min_replicas = self.config.min_replicas;
        // The floor is counted over replicas that can actually *serve* the
        // model: draining must never remove the last capable replica (a
        // heterogeneous fleet may carry dead weight whose kernels or
        // weights can never admit anything, and that dead weight must not
        // satisfy the floor). Warming capable replicas carry no traffic
        // yet, so they skip the routable check here — but they still count
        // toward the commissioned-capable floor the `allowed` gate below
        // enforces.
        let routable_capable = self
            .slots
            .iter()
            .filter(|s| s.routable() && s.driver.can_serve_model())
            .count();
        let candidate = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.commissioned())
            .filter(|(_, s)| {
                !s.driver.can_serve_model() || s.warming || routable_capable > min_replicas
            })
            .min_by(|(ia, a), (ib, b)| {
                // Dead-weight replicas drain first...
                a.driver
                    .can_serve_model()
                    .cmp(&b.driver.can_serve_model())
                    // ...then the least-loaded...
                    .then(
                        a.driver
                            .outstanding_tokens()
                            .cmp(&b.driver.outstanding_tokens()),
                    )
                    // ...preferring the newest replica (LIFO scale-in)...
                    .then(
                        b.spawned_ms
                            .partial_cmp(&a.spawned_ms)
                            .expect("spawn times are finite"),
                    )
                    // ...and break remaining ties deterministically.
                    .then(ib.cmp(ia))
            })
            .map(|(i, _)| i);
        let Some(i) = candidate else {
            return;
        };
        // The floor is over *capable* replicas: dead weight never satisfies
        // it, so draining dead weight is allowed whenever at least one
        // commissioned replica remains, while draining a capable replica
        // must leave the capable count at or above the floor.
        let commissioned_capable = self
            .slots
            .iter()
            .filter(|s| s.commissioned() && s.driver.can_serve_model())
            .count();
        let allowed = if self.slots[i].driver.can_serve_model() {
            commissioned_capable > min_replicas
        } else {
            commissioned > 1
        };
        if !allowed {
            return;
        }
        self.slots[i].draining = true;
        self.emit(TraceEvent::DrainStarted {
            replica: i,
            at_ms: t,
        });
        self.emit(TraceEvent::ScaleIn {
            at_ms: t,
            replicas_after: commissioned - 1,
        });
        if self.slots[i].driver.is_drained() {
            // Already empty: retires at this very instant. The event sorts
            // before any tick or arrival at `t`, so nothing can observe the
            // slot in between.
            self.queue.push(t, FleetEvent::DrainRetire { slot: i });
        }
        self.scale_events.push(ScaleEvent {
            at_ms: t,
            kind: ScaleKind::In,
            replicas_after: commissioned - 1,
            reason: describe_observation(obs),
        });
    }

    /// Commission a cold replica from the factory at `at`; it warms up
    /// until `ready`. Returns its slot index.
    fn commission(&mut self, at: f64, ready: f64) -> usize {
        let factory = self.factory.as_ref().expect("callers check for a factory");
        let replica = self.slots.len();
        let mut slot = Slot::new(factory(), self.config.scheduler, at, ready, true);
        if let Some(sink) = &self.sink {
            slot.driver.attach_sink(sink.clone(), replica);
        }
        self.emit(TraceEvent::ReplicaCommissioned {
            replica,
            at_ms: at,
            ready_ms: ready,
        });
        self.slots.push(slot);
        self.queue
            .push(ready, FleetEvent::WarmupComplete { slot: replica });
        self.peak_replicas = self.peak_replicas.max(self.commissioned());
        replica
    }

    /// [`FleetEvent::Arrival`]: route trace request `index`, then schedule
    /// the next arrival.
    fn on_arrival(&mut self, index: usize) {
        let request = self.trace[index];
        let at = request.arrival_ms;
        self.emit(TraceEvent::Arrival {
            id: request.id,
            at_ms: at,
        });
        // On a disaggregated run the prefill half runs the prompt and
        // produces the first output token (the final prefill forward); the
        // rest of the generation decodes elsewhere after the KV handoff.
        let split = self.disagg.is_some() && request.output_len > 1;
        let first_half = Request {
            output_len: if split { 1 } else { request.output_len },
            ..request
        };
        let routed = self.route(first_half, at);
        if split && routed.is_some() {
            if let Some(d) = self.disagg.as_mut() {
                d.originals.insert(request.id, request);
            }
        }
        if routed.is_none() {
            self.emit(TraceEvent::Unroutable {
                id: request.id,
                at_ms: at,
            });
            self.unroutable.push(request.id);
        }
        self.next_arrival = index + 1;
        if let Some(next) = self.trace.get(self.next_arrival) {
            self.queue.push(
                next.arrival_ms,
                FleetEvent::Arrival {
                    index: self.next_arrival,
                },
            );
        }
    }

    /// Route `request` at `at` from live replica state: among the replicas
    /// that are routable (ready, not draining, link healthy) and could ever
    /// admit it — prefill pods only on a disaggregated run — apply the
    /// dispatch policy and enqueue on the pick, arming its step chain.
    /// Returns `None`, touching no replica, when none qualifies.
    fn route(&mut self, request: Request, at: f64) -> Option<usize> {
        let slots = &self.slots;
        let fits = |&i: &usize| slots[i].routable() && slots[i].driver.can_ever_admit(&request);
        self.eligible.clear();
        match &self.disagg {
            Some(d) => self
                .eligible
                .extend(d.cfg.prefill.iter().copied().filter(fits)),
            None => self.eligible.extend((0..slots.len()).filter(fits)),
        }
        let target = pick_replica(
            self.config.policy,
            &self.eligible,
            slots,
            &mut self.rr_cursor,
        )?;
        self.emit(TraceEvent::Routed {
            id: request.id,
            replica: target,
            at_ms: at,
        });
        self.slots[target].driver.enqueue(request);
        self.slots[target].assigned_ids.push(request.id);
        self.arm_chain(target, at);
        Some(target)
    }

    /// Ensure `slot`'s step chain is live, its next step no earlier than
    /// `at` (the current event time — a chain never pops in the past).
    fn arm_chain(&mut self, slot: usize, at: f64) {
        let s = &mut self.slots[slot];
        if !s.chain_armed {
            s.chain_armed = true;
            self.queue.push(
                at.max(s.driver.clock_ms()),
                FleetEvent::StepCompletion { slot },
            );
        }
    }

    /// [`FleetEvent::StepCompletion`]: run the slot's next engine step and
    /// keep its chain alive while it has work (the next enqueue re-arms a
    /// lapsed chain); on a disaggregated run, hand off any prefill half the
    /// step finished.
    fn on_step_completion(&mut self, slot: usize) {
        let s = &mut self.slots[slot];
        if s.driver.step_once(&self.route) {
            self.queue
                .push(s.driver.clock_ms(), FleetEvent::StepCompletion { slot });
        } else {
            s.chain_armed = false;
        }
        self.collect_handoffs(slot);
    }

    /// Start the KV transfers of `slot`'s newly finished prefill halves (a
    /// no-op off the prefill set and on co-located runs).
    fn collect_handoffs(&mut self, slot: usize) {
        let Some(d) = &self.disagg else {
            return;
        };
        if d.prefill_pos.get(slot).copied().flatten().is_none() {
            return;
        }
        let (watermark, done) = (d.watermark[slot], self.slots[slot].driver.completed().len());
        for k in watermark..done {
            let finished = &self.slots[slot].driver.completed()[k];
            let (id, finished_ms) = (finished.request.id, finished.finished_ms);
            self.start_transfer(id, slot, finished_ms);
        }
        if let Some(d) = self.disagg.as_mut() {
            d.watermark[slot] = done;
        }
    }

    /// Hand the KV of split request `id`, whose prefill half finished on
    /// prefill pod `from` at `start_ms`, to the decode pod with the most KV
    /// headroom, or fail the request when no decode pod could ever take its
    /// remainder. `start_ms` is never before the current event time: a step
    /// chain applies a step's completions when the step starts, so the
    /// landing keeps the event queue causal. Untrimmed single-token requests
    /// finish entirely on the prefill pod and never transfer.
    fn start_transfer(&mut self, id: u64, from: usize, start_ms: f64) {
        let d = self
            .disagg
            .as_mut()
            .expect("transfers exist only on disaggregated runs");
        let Some(remainder) = d.decode_half(id, start_ms) else {
            return;
        };
        let Some(to) = d.pick_decode_pod(&self.slots, &remainder) else {
            // No decode pod can ever take the remainder: the request dies
            // here, not silently in a queue.
            self.failed_ids.push(id);
            return;
        };
        let row = d.prefill_pos[from].expect("transfers originate on prefill pods");
        let col = d
            .cfg
            .decode
            .iter()
            .position(|&s| s == to)
            .expect("pick_decode_pod returns configured pods");
        let bytes = d.cfg.memory.kv_bytes(remainder.prompt_len);
        let landing = start_ms + d.cfg.links[row][col].transfer_ms(bytes);
        let transfer = d.transfers.len();
        d.transfers.push(PendingTransfer {
            id,
            from,
            to,
            bytes,
        });
        d.in_flight += 1;
        self.queue
            .push(landing, FleetEvent::KvTransferComplete { transfer });
        self.emit(TraceEvent::KvTransferStarted {
            id,
            from,
            to,
            bytes,
            at_ms: start_ms,
        });
    }

    /// Fold the finished slots, timelines and ledgers into fleet metrics.
    ///
    /// Raw figures — output tokens, makespan, rejections, per-replica
    /// breakdowns — sum over the replicas. The pooled latency distributions
    /// stitch each split request's prefill half (arrival, admission, first
    /// token) to its decode half (completion), so a handoff counts once,
    /// end to end, rather than as two short requests. A split id with no
    /// decode-pod completion never finished (it died in a crash or a failed
    /// handoff) and is excluded — it is already on the failed ledger. A
    /// co-located run has no split ids, so every completion pools as is.
    fn finish(self) -> FleetMetrics {
        let (originals, decode_pods): (BTreeMap<u64, Request>, BTreeSet<usize>) = match self.disagg
        {
            Some(d) => (d.originals, d.cfg.decode.into_iter().collect()),
            None => Default::default(),
        };
        let mut per_replica = Vec::with_capacity(self.slots.len());
        let mut latencies = Vec::new();
        let mut ttfts = Vec::new();
        let mut tpots = Vec::new();
        let mut completed = 0usize;
        let mut rejected = self.unroutable.len();
        let mut output_tokens = 0usize;
        let mut makespan_ms = 0.0f64;
        // id → (earliest prefill-half admission, earliest prefill-half first
        // token, decode-half completion). A crash can re-prefill a request,
        // so the prefill side takes minima; at most one decode completion
        // exists per id.
        let mut halves: BTreeMap<u64, (f64, f64, Option<f64>)> = BTreeMap::new();
        for (i, slot) in self.slots.into_iter().enumerate() {
            let result = slot.driver.finish();
            rejected += result.rejected.len();
            output_tokens += result.output_tokens();
            makespan_ms = makespan_ms.max(result.makespan_ms);
            for c in &result.completed {
                if originals.contains_key(&c.request.id) {
                    let entry =
                        halves
                            .entry(c.request.id)
                            .or_insert((f64::INFINITY, f64::INFINITY, None));
                    if decode_pods.contains(&i) {
                        entry.2 = Some(c.finished_ms);
                    } else {
                        entry.0 = entry.0.min(c.admitted_ms);
                        entry.1 = entry.1.min(c.first_token_ms);
                    }
                } else {
                    completed += 1;
                    latencies.push(c.latency_ms());
                    ttfts.push(c.ttft_ms());
                    tpots.extend(c.tpot_ms());
                }
            }
            per_replica.push(ReplicaBreakdown {
                engine: result.engine,
                metrics: ServingMetrics::from_result(&result),
                description: slot.description,
                spawned_ms: slot.spawned_ms,
                ready_ms: slot.ready_ms,
                retired_ms: slot.retired_ms,
                assigned: slot.assigned_ids.len(),
                assigned_ids: slot.assigned_ids,
            });
        }
        // BTreeMap iteration is ordered by id, so the stitched pool is
        // deterministic without an explicit sort.
        for (id, (admitted_ms, first_token_ms, finished)) in halves {
            let (Some(finished_ms), true) = (finished, admitted_ms.is_finite()) else {
                continue;
            };
            let stitched = CompletedRequest {
                request: originals[&id],
                admitted_ms,
                first_token_ms,
                finished_ms,
            };
            completed += 1;
            latencies.push(stitched.latency_ms());
            ttfts.push(stitched.ttft_ms());
            tpots.extend(stitched.tpot_ms());
        }
        FleetMetrics {
            engine: per_replica
                .first()
                .map(|r| r.engine)
                .unwrap_or(EngineKind::Samoyeds),
            replicas: self.peak_replicas,
            completed,
            rejected,
            output_tokens_per_s: if makespan_ms > 0.0 {
                output_tokens as f64 / (makespan_ms / 1e3)
            } else {
                0.0
            },
            request_latency: latency_summary(&latencies),
            ttft: latency_summary(&ttfts),
            tpot: latency_summary(&tpots),
            makespan_ms,
            per_replica,
            scale_events: self.scale_events,
            unroutable_ids: self.unroutable,
            failed_ids: self.failed_ids,
            faults: self.faults.records,
            drain_incomplete: !self.drain_incomplete_replicas.is_empty(),
            drain_incomplete_replicas: self.drain_incomplete_replicas,
        }
    }
}

/// Apply the dispatch policy to the eligible set.
fn pick_replica(
    policy: DispatchPolicy,
    eligible: &[usize],
    slots: &[Slot],
    rr_cursor: &mut usize,
) -> Option<usize> {
    match policy {
        DispatchPolicy::RoundRobin => {
            let picked = eligible
                .get(rr_cursor.checked_rem(eligible.len()).unwrap_or(0))
                .copied();
            *rr_cursor = rr_cursor.wrapping_add(1);
            picked
        }
        DispatchPolicy::LeastOutstandingTokens => eligible
            .iter()
            .min_by_key(|&&i| slots[i].driver.outstanding_tokens())
            .copied(),
    }
}

/// Build the tick's observation from live replica state.
fn observe(t: f64, slots: &[Slot]) -> FleetObservation {
    let window_start = (t - OBSERVATION_WINDOW_MS).max(0.0);
    let mut ttfts = Vec::new();
    for slot in slots {
        // Completions are in finished-time order and first_token <=
        // finished, so scanning from the newest and stopping at the window
        // edge keeps each tick O(window), not O(history).
        for c in slot.driver.completed().iter().rev() {
            if c.finished_ms <= window_start {
                break;
            }
            if c.first_token_ms > window_start && c.first_token_ms <= t {
                ttfts.push(c.ttft_ms());
            }
        }
        for r in slot.driver.running_requests() {
            if let Some(first) = r.first_token_ms {
                if first > window_start && first <= t {
                    ttfts.push(first - r.request.arrival_ms);
                }
            }
        }
    }
    let p95_ttft_ms = if ttfts.is_empty() {
        None
    } else {
        Some(latency_summary(&ttfts).p95_ms)
    };
    let max_pending_wait_ms = slots
        .iter()
        .filter(|s| s.retired_ms.is_none())
        .filter_map(|s| s.driver.oldest_unserved_arrival_ms())
        .map(|arrival| (t - arrival).max(0.0))
        .fold(0.0f64, f64::max);

    let mut busy_ms = 0.0;
    let mut available_ms = 0.0;
    for slot in slots.iter().filter(|s| s.retired_ms.is_none()) {
        let since = window_start.max(slot.ready_ms);
        if since < t {
            busy_ms += slot.driver.busy_ms_between(since, t);
            available_ms += t - since;
        }
    }
    FleetObservation {
        now_ms: t,
        routable_replicas: slots.iter().filter(|s| s.routable()).count(),
        warming_replicas: slots
            .iter()
            .filter(|s| s.commissioned() && s.warming)
            .count(),
        p95_ttft_ms,
        max_pending_wait_ms,
        utilization: if available_ms > 0.0 {
            busy_ms / available_ms
        } else {
            0.0
        },
        outstanding_tokens: slots.iter().map(|s| s.driver.outstanding_tokens()).sum(),
        queued_requests: slots.iter().map(|s| s.driver.queued_requests()).sum(),
    }
}

fn describe_observation(obs: &FleetObservation) -> String {
    format!(
        "p95 TTFT {} · max wait {:.0} ms · util {:.0}% · {} queued",
        obs.p95_ttft_ms
            .map_or_else(|| "-".to_string(), |p| format!("{p:.0} ms")),
        obs.max_pending_wait_ms,
        obs.utilization * 100.0,
        obs.queued_requests,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SingleGpuBackend;
    use crate::trace::{BurstPhase, BurstyTraceConfig};
    use samoyeds_gpu_sim::DeviceSpec;
    use samoyeds_moe::config::MoeModelConfig;

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

    fn burst() -> Vec<Request> {
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

    #[test]
    fn slo_breach_scales_out_and_low_utilization_scales_back_in() {
        let scfg = SchedulerConfig::default();
        let config = FleetConfig {
            scheduler: scfg,
            warmup_ms: 500.0,
            max_replicas: 4,
            ..FleetConfig::default()
        };
        let metrics = FleetController::new(config)
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_factory(move || single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_autoscaler(SloAutoscaler::new(400.0))
            .run(&burst());
        assert_eq!(metrics.completed, 76);
        assert_eq!(metrics.rejected, 0);
        assert!(metrics.scale_outs() >= 1, "{:?}", metrics.scale_events);
        assert!(metrics.scale_ins() >= 1, "{:?}", metrics.scale_events);
        assert!(metrics.replicas > 1);
        // The first event is a burst-driven scale-out, and some scale-in
        // follows it once the burst drains.
        assert_eq!(metrics.scale_events[0].kind, ScaleKind::Out);
        let first_out = metrics.scale_events[0].at_ms;
        assert!(metrics
            .scale_events
            .iter()
            .any(|e| e.kind == ScaleKind::In && e.at_ms > first_out));
        // Every event respects the floor, and warm-up is charged.
        for e in &metrics.scale_events {
            assert!(e.replicas_after >= 1);
        }
        for r in metrics.per_replica.iter().skip(1) {
            assert_eq!(r.ready_ms, r.spawned_ms + 500.0);
        }
        // The timeline renders.
        assert!(metrics.render_timeline().len() >= 2 + metrics.scale_events.len());
    }

    #[test]
    fn dispatch_skips_replicas_whose_budget_rejects_the_model() {
        // A 12 GiB card cannot hold dense Qwen2 weights: the dense replica
        // is capability-ineligible and every request lands on the Samoyeds
        // replica.
        let scfg = SchedulerConfig::default();
        let trace = crate::trace::TraceConfig {
            num_requests: 10,
            arrival_rate_rps: 8.0,
            prompt_len_range: (32, 128),
            output_len_range: (4, 12),
            seed: 3,
        }
        .generate();
        let metrics = FleetController::new(FleetConfig::default())
            .with_replica(single(
                DeviceSpec::rtx4070_super(),
                EngineKind::Transformers,
                &scfg,
            ))
            .with_replica(single(
                DeviceSpec::rtx4070_super(),
                EngineKind::Samoyeds,
                &scfg,
            ))
            .run(&trace);
        assert_eq!(metrics.completed, 10);
        assert_eq!(metrics.rejected, 0);
        assert_eq!(metrics.per_replica[0].assigned, 0);
        assert_eq!(metrics.per_replica[1].assigned, 10);
        // No replica-level rejection: the gate keeps unfit replicas out of
        // the eligible set instead of letting them bounce requests.
        for r in &metrics.per_replica {
            assert_eq!(r.metrics.rejected, 0);
        }
    }

    #[test]
    fn scale_in_never_drains_the_last_capable_replica() {
        // Heterogeneous fleet where one replica is dead weight (dense
        // weights can never fit the 12 GiB card): idle-driven scale-in must
        // drain the dead weight, never the only replica that can serve —
        // otherwise the late requests after the gap would all be stranded.
        let scfg = SchedulerConfig::default();
        let mk = |id: u64, arrival_ms: f64| Request {
            id,
            arrival_ms,
            prompt_len: 64,
            output_len: 8,
        };
        // Early work, a long idle gap (the autoscaler's idle streak fires),
        // then late work.
        let trace: Vec<Request> = (0..4)
            .map(|i| mk(i, 100.0 * i as f64))
            .chain((4..8).map(|i| mk(i, 20_000.0 + 100.0 * (i - 4) as f64)))
            .collect();
        let metrics = FleetController::new(FleetConfig::default())
            .with_replica(single(
                DeviceSpec::rtx4070_super(),
                EngineKind::Transformers,
                &scfg,
            ))
            .with_replica(single(
                DeviceSpec::rtx4070_super(),
                EngineKind::Samoyeds,
                &scfg,
            ))
            .with_autoscaler(SloAutoscaler::new(400.0))
            .run(&trace);
        // Everything is served: the capable replica survived the scale-in.
        assert_eq!(metrics.completed, 8, "{:?}", metrics.scale_events);
        assert_eq!(metrics.rejected, 0);
        assert!(metrics.scale_ins() >= 1, "{:?}", metrics.scale_events);
        // The drained replica is the dense dead weight, not the Samoyeds
        // one.
        assert!(metrics.per_replica[0].retired_ms.is_some());
        assert!(metrics.per_replica[1].retired_ms.is_none());
        assert_eq!(metrics.per_replica[1].assigned, 8);

        // Even when the raw replica count sits exactly at the floor, dead
        // weight does not satisfy it and is still drained.
        let at_floor = FleetController::new(FleetConfig {
            min_replicas: 2,
            ..FleetConfig::default()
        })
        .with_replica(single(
            DeviceSpec::rtx4070_super(),
            EngineKind::Transformers,
            &scfg,
        ))
        .with_replica(single(
            DeviceSpec::rtx4070_super(),
            EngineKind::Samoyeds,
            &scfg,
        ))
        .with_autoscaler(SloAutoscaler::new(400.0))
        .run(&trace);
        assert_eq!(at_floor.completed, 8);
        assert!(
            at_floor.per_replica[0].retired_ms.is_some(),
            "dead weight kept at floor"
        );
        assert!(at_floor.per_replica[1].retired_ms.is_none());
    }

    #[test]
    fn unroutable_requests_are_reported_not_lost() {
        // A fleet made only of dense 12 GiB replicas can never admit the
        // model's requests: everything is fleet-rejected.
        let scfg = SchedulerConfig::default();
        let trace = crate::trace::TraceConfig {
            num_requests: 5,
            arrival_rate_rps: 8.0,
            prompt_len_range: (32, 64),
            output_len_range: (4, 8),
            seed: 4,
        }
        .generate();
        let metrics = FleetController::new(FleetConfig::default())
            .with_replica(single(
                DeviceSpec::rtx4070_super(),
                EngineKind::Transformers,
                &scfg,
            ))
            .run(&trace);
        assert_eq!(metrics.completed, 0);
        assert_eq!(metrics.rejected, 5);
        assert_eq!(metrics.unroutable_ids.len(), 5);
    }

    #[test]
    fn fixed_policy_never_scales_and_round_robin_spreads() {
        let scfg = SchedulerConfig::default();
        let trace = crate::trace::TraceConfig {
            num_requests: 12,
            arrival_rate_rps: 6.0,
            prompt_len_range: (32, 128),
            output_len_range: (4, 12),
            seed: 9,
        }
        .generate();
        let config = FleetConfig {
            policy: DispatchPolicy::RoundRobin,
            ..FleetConfig::default()
        };
        let metrics = FleetController::new(config)
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .run(&trace);
        assert!(metrics.scale_events.is_empty());
        assert_eq!(metrics.replicas, 2);
        assert_eq!(metrics.per_replica[0].assigned, 6);
        assert_eq!(metrics.per_replica[1].assigned, 6);
    }

    #[test]
    fn slo_autoscaler_streaks_gate_the_decisions() {
        let mut policy = SloAutoscaler::new(500.0);
        let breach = FleetObservation {
            now_ms: 0.0,
            routable_replicas: 1,
            warming_replicas: 0,
            p95_ttft_ms: Some(900.0),
            max_pending_wait_ms: 0.0,
            utilization: 0.9,
            outstanding_tokens: 100,
            queued_requests: 3,
        };
        let idle = FleetObservation {
            p95_ttft_ms: None,
            utilization: 0.1,
            queued_requests: 0,
            ..breach
        };
        // One breached tick holds; the second scales out.
        assert_eq!(policy.decide(&breach), ScaleDecision::Hold);
        assert_eq!(policy.decide(&breach), ScaleDecision::ScaleOut);
        // Idle ticks reset the breach streak and the fourth scales in.
        for _ in 0..3 {
            assert_eq!(policy.decide(&idle), ScaleDecision::Hold);
        }
        assert_eq!(policy.decide(&idle), ScaleDecision::ScaleIn);
        // A pending-wait breach counts even with no completions in window.
        let waiting = FleetObservation {
            p95_ttft_ms: None,
            max_pending_wait_ms: 900.0,
            ..breach
        };
        assert_eq!(policy.decide(&waiting), ScaleDecision::Hold);
        assert_eq!(policy.decide(&waiting), ScaleDecision::ScaleOut);
        // While capacity is warming, further breaches hold instead of
        // stampeding more scale-outs.
        let warming = FleetObservation {
            warming_replicas: 1,
            ..breach
        };
        assert_eq!(policy.decide(&warming), ScaleDecision::Hold);
        assert_eq!(policy.decide(&warming), ScaleDecision::Hold);
        // Once the replica lands, the breach streak starts fresh.
        assert_eq!(policy.decide(&breach), ScaleDecision::Hold);
        assert_eq!(policy.decide(&breach), ScaleDecision::ScaleOut);
    }

    #[test]
    fn slo_autoscaler_freezes_every_streak_while_capacity_warms() {
        let mut policy = SloAutoscaler::new(500.0);
        // Idle ticks while a replica is warming must not accrue the idle
        // streak: the fleet looks idle only because the new capacity has
        // not started taking traffic yet, and scaling in here would cancel
        // the scale-out before it ever lands.
        let idle_warming = FleetObservation {
            now_ms: 0.0,
            routable_replicas: 1,
            warming_replicas: 1,
            p95_ttft_ms: None,
            max_pending_wait_ms: 0.0,
            utilization: 0.1,
            outstanding_tokens: 0,
            queued_requests: 0,
        };
        for _ in 0..10 {
            assert_eq!(policy.decide(&idle_warming), ScaleDecision::Hold);
        }
        // Once warm-up lands, the idle streak starts from zero: it takes
        // the full run of four idle ticks before a scale-in fires.
        let idle = FleetObservation {
            warming_replicas: 0,
            ..idle_warming
        };
        for _ in 0..3 {
            assert_eq!(policy.decide(&idle), ScaleDecision::Hold);
        }
        assert_eq!(policy.decide(&idle), ScaleDecision::ScaleIn);
    }

    /// Records every consultation time so the test can check the schedule.
    struct TickProbe {
        tick_ms: f64,
        /// (ticks seen, all tick times were exactly `k * tick_ms`).
        seen: std::rc::Rc<std::cell::RefCell<(u64, bool)>>,
    }

    impl AutoscalePolicy for TickProbe {
        fn decide(&mut self, obs: &FleetObservation) -> ScaleDecision {
            let mut seen = self.seen.borrow_mut();
            seen.0 += 1;
            if obs.now_ms != seen.0 as f64 * self.tick_ms {
                seen.1 = false;
            }
            ScaleDecision::Hold
        }
    }

    #[test]
    fn control_ticks_do_not_drift_over_a_million_ticks() {
        // 0.1 is not representable in binary floating point, so the old
        // `next_tick += tick_ms` accumulation drifts: after 10^6 additions
        // the schedule is visibly off the true grid...
        let tick_ms = 0.1f64;
        let mut accumulated = 0.0f64;
        for _ in 0..1_000_000 {
            accumulated += tick_ms;
        }
        assert_ne!(
            accumulated,
            1_000_000f64 * tick_ms,
            "the accumulated schedule should drift — that is the bug"
        );

        // ...while the event core derives tick k as exactly k * tick_ms.
        // Two tiny requests 100 s apart put >= 10^6 ticks between them.
        let scfg = SchedulerConfig::default();
        let mk = |id: u64, arrival_ms: f64| Request {
            id,
            arrival_ms,
            prompt_len: 8,
            output_len: 2,
        };
        let seen = std::rc::Rc::new(std::cell::RefCell::new((0u64, true)));
        let probe = TickProbe {
            tick_ms,
            seen: seen.clone(),
        };
        let metrics = FleetController::new(FleetConfig {
            tick_ms,
            ..FleetConfig::default()
        })
        .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
        .with_autoscaler(probe)
        .run(&[mk(0, 0.0), mk(1, 100_000.0)]);
        assert_eq!(metrics.completed, 2);
        let (ticks, exact) = *seen.borrow();
        assert!(ticks >= 1_000_000, "only {ticks} ticks fired");
        assert!(exact, "a tick fired off the k * tick_ms grid");
    }

    /// Records the observation of every control tick.
    struct ObservationProbe(std::rc::Rc<std::cell::RefCell<Vec<FleetObservation>>>);

    impl AutoscalePolicy for ObservationProbe {
        fn decide(&mut self, obs: &FleetObservation) -> ScaleDecision {
            self.0.borrow_mut().push(*obs);
            ScaleDecision::Hold
        }
    }

    #[test]
    fn a_tick_inside_a_step_counts_the_request_waiting_for_its_boundary() {
        // The 2048-token prompt's first prefill step runs from 0 ms past the
        // 5 ms tick. The request arriving at 1 ms is admitted only at that
        // step's boundary, so at the tick it is still queued.
        let scfg = SchedulerConfig::default();
        let trace = [
            Request {
                id: 0,
                arrival_ms: 0.0,
                prompt_len: 2048,
                output_len: 4,
            },
            Request {
                id: 1,
                arrival_ms: 1.0,
                prompt_len: 16,
                output_len: 2,
            },
        ];
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let metrics = FleetController::new(FleetConfig {
            tick_ms: 5.0,
            ..FleetConfig::default()
        })
        .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
        .with_autoscaler(ObservationProbe(seen.clone()))
        .run(&trace);
        assert_eq!(metrics.completed, 2);
        let first = seen.borrow()[0];
        assert_eq!(first.now_ms, 5.0);
        assert_eq!(first.queued_requests, 1, "{first:?}");
    }

    #[test]
    fn a_crash_inside_a_step_loses_the_waiting_request_as_queued() {
        // Round-robin puts the requests at 0 and 1 ms on replica 0. The first
        // one's prefill step is still running at the 2 ms crash, so the
        // second has not been admitted yet.
        let scfg = SchedulerConfig::default();
        let mk = |id: u64, arrival_ms: f64| Request {
            id,
            arrival_ms,
            prompt_len: 256,
            output_len: 8,
        };
        let metrics = FleetController::new(FleetConfig {
            policy: DispatchPolicy::RoundRobin,
            ..FleetConfig::default()
        })
        .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
        .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
        .with_faults(crash_at(2.0, 0), RecoveryPolicy::readmit_after(10.0))
        .run(&[mk(0, 0.0), mk(1, 0.5), mk(2, 1.0)]);
        assert_eq!(metrics.per_replica[0].assigned_ids, vec![0, 2]);
        let record = &metrics.faults[0];
        assert_eq!(
            (record.lost_running, record.lost_queued),
            (1, 1),
            "{record:?}"
        );
        assert_eq!(metrics.completed, 3);
    }

    #[test]
    fn drain_cap_returns_degraded_metrics_instead_of_panicking() {
        // One heavy request takes far longer than three 1 ms drain ticks:
        // the capped run must come back degraded, not panic mid-sweep.
        let scfg = SchedulerConfig::default();
        let trace = vec![Request {
            id: 0,
            arrival_ms: 0.0,
            prompt_len: 2048,
            output_len: 256,
        }];
        let capped = FleetController::new(FleetConfig {
            tick_ms: 1.0,
            max_drain_ticks: 3,
            ..FleetConfig::default()
        })
        .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
        .with_autoscaler(SloAutoscaler::new(1e12))
        .run(&trace);
        assert!(capped.drain_incomplete, "cap hit should flag the metrics");
        assert_eq!(capped.completed, 0, "the heavy request cannot finish");

        // The same fleet under the default cap drains fine.
        let full = FleetController::new(FleetConfig {
            tick_ms: 1.0,
            ..FleetConfig::default()
        })
        .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
        .with_autoscaler(SloAutoscaler::new(1e12))
        .run(&trace);
        assert!(!full.drain_incomplete);
        assert_eq!(full.completed, 1);
    }

    #[test]
    fn drain_cap_names_the_replicas_still_holding_work() {
        let scfg = SchedulerConfig::default();
        let trace = vec![Request {
            id: 0,
            arrival_ms: 0.0,
            prompt_len: 2048,
            output_len: 256,
        }];
        let capped = FleetController::new(FleetConfig {
            tick_ms: 1.0,
            max_drain_ticks: 3,
            ..FleetConfig::default()
        })
        .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
        .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
        .with_autoscaler(SloAutoscaler::new(1e12))
        .run(&trace);
        assert!(capped.drain_incomplete);
        // Only the replica that took the heavy request is stuck; the idle
        // one drained. The status line names it.
        assert_eq!(capped.drain_incomplete_replicas.len(), 1);
        let stuck = capped.drain_incomplete_replicas[0];
        assert_eq!(capped.per_replica[stuck].assigned, 1);
        assert!(capped.drain_status().contains(&stuck.to_string()));
        // A clean run reports "drained" and an empty list.
        let full = FleetController::new(FleetConfig::default())
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .run(&trace);
        assert!(full.drain_incomplete_replicas.is_empty());
        assert_eq!(full.drain_status(), "drained");
    }

    fn steady_trace(n: u64, rate_rps: f64) -> Vec<Request> {
        crate::trace::TraceConfig {
            num_requests: n as usize,
            arrival_rate_rps: rate_rps,
            prompt_len_range: (32, 128),
            output_len_range: (8, 24),
            seed: 23,
        }
        .generate()
    }

    fn crash_at(at_ms: f64, replica: usize) -> FaultSchedule {
        FaultSchedule::Scripted(vec![crate::faults::FaultSpec {
            at_ms,
            kind: FaultKind::ReplicaCrash { replica },
        }])
    }

    #[test]
    fn crash_with_readmission_loses_nothing() {
        let scfg = SchedulerConfig::default();
        let trace = steady_trace(30, 20.0);
        let metrics = FleetController::new(FleetConfig::default())
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_faults(crash_at(500.0, 0), RecoveryPolicy::readmit_after(40.0))
            .run(&trace);
        // Conservation with zero losses: everything offered is served.
        assert_eq!(metrics.completed, 30, "{:?}", metrics.faults);
        assert_eq!(metrics.rejected, 0);
        assert_eq!(metrics.failed(), 0);
        let record = &metrics.faults[0];
        assert!(
            record.lost_running + record.lost_queued > 0,
            "the crash should catch work in flight: {record:?}"
        );
        assert_eq!(record.readmitted, record.lost_running + record.lost_queued);
        assert_eq!(record.recovery_ms(), Some(40.0));
        // The crashed replica is retired at the fault instant.
        assert_eq!(metrics.per_replica[0].retired_ms, Some(500.0));
    }

    #[test]
    fn fail_fast_crash_fails_in_flight_requests_and_conserves_the_ledger() {
        let scfg = SchedulerConfig::default();
        let trace = steady_trace(30, 20.0);
        let metrics = FleetController::new(FleetConfig::default())
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_faults(crash_at(500.0, 0), RecoveryPolicy::fail_fast())
            .run(&trace);
        assert!(metrics.failed() > 0, "{:?}", metrics.faults);
        assert_eq!(metrics.completed + metrics.rejected + metrics.failed(), 30);
        let record = &metrics.faults[0];
        assert_eq!(record.failed, metrics.failed());
        assert_eq!(record.readmitted, 0);
        assert_eq!(record.recovered_at_ms, None, "fail-fast never recovers");
        // Every failed request had been routed to the crashed replica.
        assert_eq!(metrics.failed_ids.len(), metrics.failed());
        for id in &metrics.failed_ids {
            assert!(metrics.per_replica[0].assigned_ids.contains(id));
        }
    }

    #[test]
    fn crash_under_ticked_autoscaler_readmits_after_the_fleet_drains() {
        // Crash the replica holding the *only* remaining work right before
        // the fleet would otherwise be fully drained: the tick schedule must
        // outlive the pending re-admission or the buffered requests vanish.
        let scfg = SchedulerConfig::default();
        let trace = steady_trace(12, 40.0);
        let metrics = FleetController::new(FleetConfig::default())
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_autoscaler(SloAutoscaler::new(1e12))
            .with_faults(crash_at(250.0, 1), RecoveryPolicy::readmit_after(5_000.0))
            .run(&trace);
        assert_eq!(
            metrics.completed + metrics.rejected + metrics.failed(),
            12,
            "{:?}",
            metrics.faults
        );
        assert_eq!(metrics.failed(), 0, "{:?}", metrics.faults);
        assert_eq!(metrics.completed, 12);
    }

    #[test]
    fn crash_with_replacement_commissions_through_the_warmup_path() {
        let scfg = SchedulerConfig::default();
        let trace = steady_trace(30, 20.0);
        let config = FleetConfig {
            warmup_ms: 300.0,
            ..FleetConfig::default()
        };
        let metrics = FleetController::new(config)
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_factory(move || single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_faults(
                crash_at(500.0, 0),
                RecoveryPolicy::readmit_and_replace(50.0),
            )
            .run(&trace);
        assert_eq!(metrics.completed, 30);
        assert_eq!(metrics.failed(), 0);
        let record = &metrics.faults[0];
        assert_eq!(record.replacement, Some(2));
        // Recovery covers both the re-admission transfer and the
        // replacement's warm-up: spawn + warmup + transfer.
        assert_eq!(record.recovered_at_ms, Some(500.0 + 300.0 + 50.0));
        assert_eq!(metrics.per_replica.len(), 3);
        assert_eq!(metrics.per_replica[2].spawned_ms, 500.0);
        assert_eq!(metrics.per_replica[2].ready_ms, 850.0);
    }

    #[test]
    fn link_degrade_diverts_routing_until_restored() {
        let scfg = SchedulerConfig::default();
        // Two requests inside the degrade window, two after it.
        let mk = |id: u64, arrival_ms: f64| Request {
            id,
            arrival_ms,
            prompt_len: 64,
            output_len: 8,
        };
        let trace = vec![mk(0, 100.0), mk(1, 200.0), mk(2, 2_000.0), mk(3, 2_100.0)];
        let config = FleetConfig {
            policy: DispatchPolicy::RoundRobin,
            ..FleetConfig::default()
        };
        let schedule = FaultSchedule::Scripted(vec![crate::faults::FaultSpec {
            at_ms: 50.0,
            kind: FaultKind::LinkDegrade {
                replica: 1,
                duration_ms: 1_000.0,
            },
        }]);
        let metrics = FleetController::new(config)
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_faults(schedule, RecoveryPolicy::default())
            .run(&trace);
        assert_eq!(metrics.completed, 4);
        // During the window only replica 0 is routable; after restoration
        // round-robin reaches replica 1 again.
        assert_eq!(metrics.per_replica[0].assigned_ids, vec![0, 1, 2]);
        assert_eq!(metrics.per_replica[1].assigned_ids, vec![3]);
        assert_eq!(metrics.faults[0].recovery_ms(), Some(1_000.0));
        assert_eq!(metrics.per_replica[1].retired_ms, None);
    }

    #[test]
    fn island_partition_degrades_every_listed_replica_at_once() {
        let scfg = SchedulerConfig::default();
        let mk = |id: u64, arrival_ms: f64| Request {
            id,
            arrival_ms,
            prompt_len: 64,
            output_len: 8,
        };
        let trace = vec![mk(0, 100.0), mk(1, 150.0), mk(2, 3_000.0)];
        let schedule = FaultSchedule::Scripted(vec![crate::faults::FaultSpec {
            at_ms: 50.0,
            kind: FaultKind::IslandPartition {
                island: 1,
                replicas: vec![1, 2],
                duration_ms: 1_000.0,
            },
        }]);
        let config = FleetConfig {
            policy: DispatchPolicy::RoundRobin,
            ..FleetConfig::default()
        };
        let metrics = FleetController::new(config)
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_faults(schedule, RecoveryPolicy::default())
            .run(&trace);
        assert_eq!(metrics.completed, 3);
        // Both partitioned replicas take nothing during the window; the
        // late request lands on a restored replica via round-robin.
        assert_eq!(metrics.per_replica[0].assigned_ids, vec![0, 1]);
        assert_eq!(
            metrics.per_replica[1].assigned + metrics.per_replica[2].assigned,
            1
        );
        assert_eq!(metrics.faults[0].recovery_ms(), Some(1_000.0));
    }

    fn memory_model() -> MemoryModel {
        MemoryModel::new(
            &DeviceSpec::a100_40g(),
            EngineKind::Samoyeds,
            &MoeModelConfig::qwen2_moe(),
        )
    }

    fn disagg_cfg(prefill: Vec<usize>, decode: Vec<usize>) -> DisaggregationConfig {
        DisaggregationConfig::uniform(
            prefill,
            decode,
            memory_model(),
            KvLink {
                latency_us: 5.0,
                bandwidth_gbps: 50.0,
            },
        )
    }

    #[test]
    fn disaggregated_requests_hand_off_and_complete_on_decode_pods() {
        use crate::telemetry::{request_timelines, TraceRecorder};
        let scfg = SchedulerConfig::default();
        let trace = steady_trace(24, 20.0);
        let (sink, recorder) = SharedSink::new(TraceRecorder::new());
        let memory = memory_model();
        let metrics = FleetController::new(FleetConfig::default())
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_disaggregation(disagg_cfg(vec![0], vec![1]))
            .with_sink(sink)
            .run(&trace);
        assert_eq!(metrics.completed, trace.len());
        assert_eq!(metrics.rejected, 0);
        assert!(metrics.failed_ids.is_empty());
        let events = recorder.borrow().events();
        let started: Vec<(u64, f64)> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::KvTransferStarted { id, bytes, .. } => Some((*id, *bytes)),
                _ => None,
            })
            .collect();
        let landed = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::KvTransferComplete { .. }))
            .count();
        // Every multi-token request hands off exactly once, priced from the
        // memory model's KV sizing of its prompt.
        let multi = trace.iter().filter(|r| r.output_len > 1).count();
        assert_eq!(started.len(), multi);
        assert_eq!(landed, multi);
        for &(id, bytes) in &started {
            assert_eq!(bytes, memory.kv_bytes(trace[id as usize].prompt_len));
        }
        // Timelines merge both halves: full output on the decode pod with a
        // positive transfer phase.
        let timelines = request_timelines(&events);
        assert_eq!(timelines.len(), trace.len());
        for t in &timelines {
            let original = &trace[t.id as usize];
            assert_eq!(t.output_len, original.output_len);
            if original.output_len > 1 {
                assert_eq!(t.replica, 1, "handoffs finish on the decode pod");
                assert!(t.transfer_ms > 0.0);
            }
        }
    }

    #[test]
    fn handoffs_route_to_the_decode_pod_with_the_most_kv_headroom() {
        use crate::telemetry::TraceRecorder;
        let scfg = SchedulerConfig::default();
        let trace = steady_trace(30, 40.0);
        let (sink, recorder) = SharedSink::new(TraceRecorder::new());
        let metrics = FleetController::new(FleetConfig::default())
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_disaggregation(disagg_cfg(vec![0], vec![1, 2]))
            .with_sink(sink)
            .run(&trace);
        assert_eq!(metrics.completed, trace.len());
        // Most-free-KV routing under a steady load alternates rather than
        // piling every handoff on one pod: both decode pods take traffic.
        let events = recorder.borrow().events();
        let mut targets: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::KvTransferStarted { to, .. } => Some(*to),
                _ => None,
            })
            .collect();
        targets.sort_unstable();
        targets.dedup();
        assert_eq!(targets, vec![1, 2], "both decode pods receive handoffs");
    }

    #[test]
    fn disagg_validation_catches_bad_role_partitions() {
        let scfg = SchedulerConfig::default();
        let trace = steady_trace(4, 10.0);
        let two_pods = || {
            FleetController::new(FleetConfig::default())
                .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
                .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
        };
        // Overlap: a replica cannot be both roles.
        let report = two_pods()
            .with_disaggregation(disagg_cfg(vec![0], vec![0]))
            .validate(&trace);
        assert!(
            report.has("disagg::overlapping-roles"),
            "{}",
            report.render()
        );
        // Roles must bind to initial replicas.
        let report = two_pods()
            .with_disaggregation(disagg_cfg(vec![0], vec![5]))
            .validate(&trace);
        assert!(
            report.has("disagg::role-out-of-range"),
            "{}",
            report.render()
        );
        // Decode pods without prefill pods can never admit anything.
        let report = two_pods()
            .with_disaggregation(disagg_cfg(vec![], vec![1]))
            .validate(&trace);
        assert!(report.has("disagg::empty-role"), "{}", report.render());
        // The link matrix must cover every prefill×decode pair.
        let mut cfg = disagg_cfg(vec![0], vec![1]);
        cfg.links = Vec::new();
        let report = two_pods().with_disaggregation(cfg).validate(&trace);
        assert!(report.has("disagg::link-shape"), "{}", report.render());
        // Link parameters must be physical.
        let mut cfg = disagg_cfg(vec![0], vec![1]);
        cfg.links[0][0].bandwidth_gbps = 0.0;
        let report = two_pods().with_disaggregation(cfg).validate(&trace);
        assert!(report.has("disagg::bad-link"), "{}", report.render());
        // A dense engine on a 12 GiB card cannot hold qwen2_moe: naming it
        // a decode pod is denied up front.
        let report = FleetController::new(FleetConfig::default())
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(
                DeviceSpec::rtx4070_super(),
                EngineKind::Transformers,
                &scfg,
            ))
            .with_disaggregation(disagg_cfg(vec![0], vec![1]))
            .validate(&trace);
        assert!(
            report.has("disagg::decode-cannot-hold-model"),
            "{}",
            report.render()
        );
        // Ratio 0 (no decode pods) and roleless replicas are warnings, not
        // denials: the co-located fallback is legitimate.
        let report = two_pods()
            .with_disaggregation(disagg_cfg(vec![0], vec![]))
            .validate(&trace);
        assert!(report.has("disagg::no-decode-pods"), "{}", report.render());
        assert_eq!(report.deny_count(), 0, "{}", report.render());
        let report = two_pods()
            .with_disaggregation(disagg_cfg(vec![0], vec![1]))
            .validate(&trace);
        assert_eq!(report.deny_count(), 0, "{}", report.render());
    }

    #[test]
    fn a_decode_pod_crash_fails_or_reroutes_in_flight_handoffs() {
        let scfg = SchedulerConfig::default();
        let trace = steady_trace(24, 30.0);
        // Fail-fast with the only decode pod crashed: in-flight handoffs
        // fail, and every request is still accounted for exactly once.
        let metrics = FleetController::new(FleetConfig::default())
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_disaggregation(disagg_cfg(vec![0], vec![1]))
            .with_faults(crash_at(400.0, 1), RecoveryPolicy::fail_fast())
            .run(&trace);
        assert!(!metrics.failed_ids.is_empty(), "the crash caught handoffs");
        assert_eq!(
            metrics.completed + metrics.rejected + metrics.failed_ids.len(),
            trace.len(),
            "completed + rejected + failed covers the offered trace"
        );
        // With a second decode pod and readmission, the crashed pod's work
        // re-routes instead: nothing is lost.
        let metrics = FleetController::new(FleetConfig::default())
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_disaggregation(disagg_cfg(vec![0], vec![1, 2]))
            .with_faults(crash_at(400.0, 1), RecoveryPolicy::readmit_after(25.0))
            .run(&trace);
        assert_eq!(metrics.completed, trace.len(), "{:?}", metrics.failed_ids);
        assert!(metrics.failed_ids.is_empty());
    }
}
