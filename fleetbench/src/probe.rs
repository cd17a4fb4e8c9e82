//! Layer probes, written entirely against the library's public API.
//!
//! A traced run wraps every replica's backend in a [`TracedBackend`] and the
//! telemetry sink in a [`TracedSink`]. Both delegate to the real object and
//! time the call; the backend wrapper also records the step's pricing inputs
//! (step index, token count, prefill chunks, decode contexts, resident KV
//! tokens). After the run, [`replay`] re-prices every recorded step by
//! calling the layers the backend is built from — `TopKRouter::route_seeded`,
//! `Engine::moe_layer_cost`, `attention_step_ms`, `auxiliary_step_ms`, and on
//! cluster pods `PlacementStrategy::place_on` and
//! `ClusterSimulator::step_with_placement` — timing each call and checking
//! that the recombined cost equals what the backend priced, bit for bit.
//!
//! Spans (name, start, end, parent, replica) are kept in memory and written
//! out once the benchmark ends.

use samoyeds_dist::{ClusterBackend, PlacementStrategy};
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::engines::{Engine, EngineKind};
use samoyeds_moe::router::TopKRouter;
use samoyeds_serve::backend::{attention_step_ms, auxiliary_step_ms};
use samoyeds_serve::batch::StepBatch;
use samoyeds_serve::{
    ExecutionBackend, MemoryBudget, Request, RunningRequest, SchedulerConfig, SharedSink,
    SingleGpuBackend, StepCost, StepWorkload, TraceEvent, TraceSink,
};
use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

/// A backend as a workload builds it, before boxing: the concrete type a
/// replay needs.
pub enum Priced {
    /// One GPU running one engine.
    Single(Box<SingleGpuBackend>),
    /// An expert-parallel pod.
    Cluster(Box<ClusterBackend>),
}

/// Shared handle to one traced run's log.
pub type Tracer = Rc<RefCell<TraceLog>>;

/// A fresh tracer whose clock starts now.
pub fn tracer() -> Tracer {
    Rc::new(RefCell::new(TraceLog::default()))
}

/// Box `backend`, behind a [`TracedBackend`] when a tracer is given.
pub fn mount(tracer: Option<&Tracer>, backend: Priced) -> Box<dyn ExecutionBackend> {
    match (tracer, backend) {
        (None, Priced::Single(b)) => b,
        (None, Priced::Cluster(b)) => b,
        (Some(t), priced) => Box::new(TracedBackend::new(t, priced)),
    }
}

/// Share `inner` as the controller's sink, behind a [`TracedSink`] when a
/// tracer is given.
pub fn sink<S: TraceSink + 'static>(tracer: Option<&Tracer>, inner: S) -> SharedSink {
    match tracer {
        None => SharedSink::new(inner).0,
        Some(t) => {
            SharedSink::new(TracedSink {
                inner,
                log: t.clone(),
            })
            .0
        }
    }
}

/// The call a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// `ExecutionBackend::step_cost`, timed live inside the run.
    StepCost,
    /// `TraceSink::record`, timed live inside the run.
    Emit,
    /// Replayed `TopKRouter::route_seeded`.
    RouteSeeded,
    /// Replayed `Engine::moe_layer_cost`.
    MoeLayerCost,
    /// Replayed `attention_step_ms`.
    AttentionStep,
    /// Replayed `auxiliary_step_ms`.
    AuxiliaryStep,
    /// Replayed `PlacementStrategy::place_on` (plus its round-robin
    /// fallback when it fails).
    PlaceOn,
    /// Replayed `ClusterSimulator::step_with_placement`.
    StepWithPlacement,
}

impl SpanName {
    /// The layer-qualified name written to the span file.
    pub fn label(self) -> &'static str {
        match self {
            SpanName::StepCost => "serve.backend.step_cost",
            SpanName::Emit => "serve.telemetry.emit",
            SpanName::RouteSeeded => "moe.router.route_seeded",
            SpanName::MoeLayerCost => "moe.engines.moe_layer_cost",
            SpanName::AttentionStep => "serve.backend.attention_step",
            SpanName::AuxiliaryStep => "serve.backend.auxiliary_step",
            SpanName::PlaceOn => "dist.placement.place_on",
            SpanName::StepWithPlacement => "dist.cluster.step_with_placement",
        }
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called.
    pub name: SpanName,
    /// Start, nanoseconds since the tracer's clock started.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's clock started.
    pub end_ns: u64,
    /// Index of the span that caused this one (replays point at the
    /// `step_cost` span they re-price).
    pub parent: Option<u32>,
    /// Replica slot, when the call belongs to one.
    pub replica: Option<u32>,
}

/// Most spans kept per run; later calls are still timed and counted, but
/// their spans are dropped so memory stays bounded.
pub const MAX_SPANS: usize = 1 << 20;

/// The pricing inputs of one recorded step.
#[derive(Debug, Clone, Copy)]
pub struct StepInput {
    /// Replica slot that priced the step.
    pub replica: u32,
    /// The scheduler's step counter (drives the routing seed).
    pub step_index: u64,
    /// Tokens in the step.
    pub tokens: usize,
    /// Context tokens resident across the replica's running set.
    pub kv_tokens: usize,
    /// Range into [`TraceLog::prefill`] of this step's `(before, chunk)`
    /// prefill entries.
    pub prefill: (usize, usize),
    /// Range into [`TraceLog::decode`] of this step's decode contexts.
    pub decode: (usize, usize),
    /// What the backend priced.
    pub cost: StepCost,
    /// Host time of the live `step_cost` call, nanoseconds.
    pub busy_ns: u64,
    /// Index of the live call's span, unless it was dropped.
    pub span: Option<u32>,
}

/// How to re-price one replica's steps from their recorded inputs: the
/// backend's own parts plus the cost-model knobs of the scheduler
/// configuration it was built with. Every workload builds its backends from
/// `SchedulerConfig::default()`; a replay that assumed other knobs would
/// fail the bit-for-bit check in [`replay`].
pub struct Replay {
    pod: Pod,
    router: TopKRouter,
    scfg: SchedulerConfig,
}

enum Pod {
    /// Mirrors `SingleGpuBackend::step_cost`.
    Single {
        backend: Box<SingleGpuBackend>,
        engine: Box<Engine>,
    },
    /// Mirrors `ClusterBackend::step_cost`.
    Cluster(Box<ClusterBackend>),
}

impl Replay {
    fn of(backend: &Priced) -> Self {
        let scfg = SchedulerConfig::default();
        let (pod, model) = match backend {
            Priced::Single(b) => (
                Pod::Single {
                    engine: Box::new(Engine::new(b.engine_kind(), b.device().clone())),
                    backend: b.clone(),
                },
                b.model(),
            ),
            Priced::Cluster(b) => (Pod::Cluster(b.clone()), b.model()),
        };
        Self {
            router: TopKRouter::for_config(model, scfg.routing_seed),
            pod,
            scfg,
        }
    }
}

/// Names of [`TraceEvent`] variants, indexed by [`event_index`].
pub const EVENT_NAMES: [&str; 23] = [
    "Arrival",
    "Routed",
    "Unroutable",
    "Admitted",
    "Rejected",
    "Step",
    "FirstToken",
    "Completed",
    "ReplicaCommissioned",
    "WarmupComplete",
    "DrainStarted",
    "Retired",
    "ControlTick",
    "ScaleOut",
    "ScaleIn",
    "ReplicaCrashed",
    "LinkDegraded",
    "IslandPartitioned",
    "LinkRestored",
    "RecoveryStarted",
    "RecoveryComplete",
    "KvTransferStarted",
    "KvTransferComplete",
];

/// Position of `event`'s variant in [`EVENT_NAMES`].
pub fn event_index(event: &TraceEvent) -> usize {
    match event {
        TraceEvent::Arrival { .. } => 0,
        TraceEvent::Routed { .. } => 1,
        TraceEvent::Unroutable { .. } => 2,
        TraceEvent::Admitted { .. } => 3,
        TraceEvent::Rejected { .. } => 4,
        TraceEvent::Step { .. } => 5,
        TraceEvent::FirstToken { .. } => 6,
        TraceEvent::Completed { .. } => 7,
        TraceEvent::ReplicaCommissioned { .. } => 8,
        TraceEvent::WarmupComplete { .. } => 9,
        TraceEvent::DrainStarted { .. } => 10,
        TraceEvent::Retired { .. } => 11,
        TraceEvent::ControlTick { .. } => 12,
        TraceEvent::ScaleOut { .. } => 13,
        TraceEvent::ScaleIn { .. } => 14,
        TraceEvent::ReplicaCrashed { .. } => 15,
        TraceEvent::LinkDegraded { .. } => 16,
        TraceEvent::IslandPartitioned { .. } => 17,
        TraceEvent::LinkRestored { .. } => 18,
        TraceEvent::RecoveryStarted { .. } => 19,
        TraceEvent::RecoveryComplete { .. } => 20,
        TraceEvent::KvTransferStarted { .. } => 21,
        TraceEvent::KvTransferComplete { .. } => 22,
    }
}

/// Everything one traced run records.
pub struct TraceLog {
    origin: Instant,
    /// Per replica slot, in commission order.
    pub replays: Vec<Replay>,
    /// Every priced step, in pricing order.
    pub steps: Vec<StepInput>,
    /// `(prefilled before, chunk)` of every recorded prefill entry.
    pub prefill: Vec<(usize, usize)>,
    /// Context tokens of every recorded decode entry.
    pub decode: Vec<usize>,
    /// Kept spans: the first [`MAX_SPANS`] of the run.
    pub spans: Vec<Span>,
    /// Live `TraceSink::record` calls.
    pub emit_calls: u64,
    /// Host time inside them, nanoseconds.
    pub emit_busy_ns: u64,
    /// Emitted events per variant, indexed like [`EVENT_NAMES`].
    pub events: [u64; 23],
}

impl Default for TraceLog {
    /// An empty log whose clock starts now. The buffers are reserved up
    /// front: growing multi-megabyte vectors in the middle of a run slowed
    /// the timed `step_cost` calls around them measurably.
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            replays: Vec::new(),
            steps: Vec::with_capacity(1 << 17),
            prefill: Vec::with_capacity(1 << 18),
            decode: Vec::with_capacity(1 << 20),
            spans: Vec::with_capacity(MAX_SPANS),
            emit_calls: 0,
            emit_busy_ns: 0,
            events: [0; 23],
        }
    }
}

impl TraceLog {
    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Keep a span (unless the cap is reached) and return its index.
    fn span(
        &mut self,
        name: SpanName,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        replica: Option<u32>,
    ) -> Option<u32> {
        if self.spans.len() >= MAX_SPANS {
            return None;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            replica,
        };
        self.spans.push(span);
        Some((self.spans.len() - 1) as u32)
    }

    /// Forget everything recorded so far except the replica replays, so
    /// the log covers only what follows (the run, not its validation).
    pub fn clear(&mut self) {
        self.origin = Instant::now();
        self.steps.clear();
        self.prefill.clear();
        self.decode.clear();
        self.spans.clear();
        self.emit_calls = 0;
        self.emit_busy_ns = 0;
        self.events = [0; 23];
    }

    /// Emitted events of the `TraceEvent` variant called `name`.
    pub fn events_named(&self, name: &str) -> u64 {
        EVENT_NAMES
            .iter()
            .position(|&n| n == name)
            .map(|i| self.events[i])
            .expect("a TraceEvent variant name")
    }

    /// Total live `step_cost` time, nanoseconds.
    pub fn step_busy_ns(&self) -> u64 {
        self.steps.iter().map(|s| s.busy_ns).sum()
    }

    /// Write the kept spans as tab-separated `name start_ns end_ns parent
    /// replica` rows (`-` for none).
    pub fn write_spans(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "name\tstart_ns\tend_ns\tparent\treplica")?;
        let opt = |v: Option<u32>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name.label(),
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.replica)
            )?;
        }
        Ok(())
    }
}

/// An [`ExecutionBackend`] that delegates to the real backend and records
/// each `step_cost` call: its host time and its pricing inputs.
pub struct TracedBackend {
    inner: Box<dyn ExecutionBackend>,
    replica: u32,
    log: Tracer,
}

impl TracedBackend {
    /// Wrap `backend` as the next replica slot of `log`.
    pub fn new(log: &Tracer, backend: Priced) -> Self {
        let replay = Replay::of(&backend);
        let replica = {
            let mut l = log.borrow_mut();
            l.replays.push(replay);
            (l.replays.len() - 1) as u32
        };
        Self {
            inner: mount(None, backend),
            replica,
            log: log.clone(),
        }
    }
}

impl ExecutionBackend for TracedBackend {
    fn engine_kind(&self) -> EngineKind {
        self.inner.engine_kind()
    }

    fn model(&self) -> &MoeModelConfig {
        self.inner.model()
    }

    fn supports(&self, config: &MoeModelConfig) -> bool {
        self.inner.supports(config)
    }

    fn memory(&self) -> &dyn MemoryBudget {
        self.inner.memory()
    }

    fn step_cost(&self, workload: &StepWorkload<'_>) -> StepCost {
        let start = Instant::now();
        let cost = self.inner.step_cost(workload);
        let end = Instant::now();

        let mut log = self.log.borrow_mut();
        let span = log.span(SpanName::StepCost, start, end, None, Some(self.replica));
        let p0 = log.prefill.len();
        for &(i, chunk) in &workload.batch.prefill {
            log.prefill.push((workload.running[i].prefilled, chunk));
        }
        let d0 = log.decode.len();
        for &i in &workload.batch.decode {
            log.decode.push(workload.running[i].context_tokens());
        }
        let input = StepInput {
            replica: self.replica,
            step_index: workload.step_index,
            tokens: workload.step_tokens(),
            kv_tokens: workload.running.iter().map(|r| r.context_tokens()).sum(),
            prefill: (p0, log.prefill.len()),
            decode: (d0, log.decode.len()),
            cost,
            busy_ns: end.duration_since(start).as_nanos() as u64,
            span,
        };
        log.steps.push(input);
        cost
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// A [`TraceSink`] that delegates to the real sink and times each event.
pub struct TracedSink<S> {
    inner: S,
    log: Tracer,
}

impl<S: TraceSink> TraceSink for TracedSink<S> {
    fn record(&mut self, event: TraceEvent) {
        let start = Instant::now();
        self.inner.record(event);
        let end = Instant::now();
        let mut log = self.log.borrow_mut();
        log.emit_calls += 1;
        log.emit_busy_ns += end.duration_since(start).as_nanos() as u64;
        log.events[event_index(&event)] += 1;
        let replica = event.replica().map(|r| r as u32);
        log.span(SpanName::Emit, start, end, None, replica);
    }
}

/// Rebuild a batch and running set equivalent, for attention pricing, to
/// the recorded step: prefill entries keep their prefilled count and
/// chunk, decode entries their context length.
fn rebuild_batch(log: &TraceLog, step: &StepInput) -> (StepBatch, Vec<RunningRequest>) {
    let request = |len: usize| {
        RunningRequest::new(
            Request {
                id: 0,
                arrival_ms: 0.0,
                prompt_len: len,
                output_len: 1,
            },
            0.0,
        )
    };
    let mut running = Vec::new();
    let mut batch = StepBatch::default();
    for &(before, chunk) in &log.prefill[step.prefill.0..step.prefill.1] {
        let mut r = request(before + chunk);
        r.prefilled = before;
        batch.prefill.push((running.len(), chunk));
        running.push(r);
    }
    for &ctx in &log.decode[step.decode.0..step.decode.1] {
        let mut r = request(ctx);
        r.prefilled = ctx;
        batch.decode.push(running.len());
        running.push(r);
    }
    (batch, running)
}

/// Per-layer totals of one replay.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    /// Steps re-priced.
    pub steps: u64,
    /// Steps whose recombined cost differed from what the backend priced.
    pub mismatches: u64,
    /// Tokens routed.
    pub route_tokens: u64,
    /// `route_seeded` host time, nanoseconds.
    pub route_ns: u64,
    /// Per-call `moe_layer_cost` host times (single-GPU steps), nanoseconds.
    pub layer_cost_ns: Vec<u64>,
    /// Experts with at least one token, summed over single-GPU steps.
    pub active_experts: u64,
    /// `attention_step_ms` host time, nanoseconds.
    pub attention_ns: u64,
    /// `auxiliary_step_ms` host time, nanoseconds.
    pub auxiliary_ns: u64,
    /// `place_on` attempts (one per cluster step).
    pub place_attempts: u64,
    /// Attempts that fell back to round-robin placement.
    pub place_fallbacks: u64,
    /// Placement host time, fallback included, nanoseconds.
    pub place_ns: u64,
    /// `step_with_placement` host time, nanoseconds.
    pub cluster_step_ns: u64,
}

impl LayerTotals {
    /// Host time of every replayed call, nanoseconds.
    pub fn busy_ns(&self) -> u64 {
        self.route_ns
            + self.layer_cost_ns.iter().sum::<u64>()
            + self.attention_ns
            + self.auxiliary_ns
            + self.place_ns
            + self.cluster_step_ns
    }
}

/// Re-price every recorded step through the layers the backend is built
/// from, timing each call, recording its span under the step's span, and
/// counting steps whose recombined cost is not bit-identical to the
/// recorded one.
pub fn replay(log: &mut TraceLog) -> LayerTotals {
    let mut totals = LayerTotals::default();
    let steps = std::mem::take(&mut log.steps);
    let replays = std::mem::take(&mut log.replays);
    let mut spans: Vec<(SpanName, Instant, Instant)> = Vec::with_capacity(5);
    for step in &steps {
        spans.clear();
        let (batch, running) = rebuild_batch(log, step);
        let tokens = step.tokens;
        let Replay { pod, router, scfg } = &replays[step.replica as usize];
        let t0 = Instant::now();
        let plan = router.route_seeded(scfg.routing_seed ^ step.step_index, tokens);
        let t1 = Instant::now();
        spans.push((SpanName::RouteSeeded, t0, t1));
        let cost = match pod {
            Pod::Single { backend, engine } => {
                let (device, config) = (backend.device(), backend.model());
                let moe_ms = engine.moe_layer_cost(config, tokens, &plan).time_ms;
                let t2 = Instant::now();
                let attention_ms =
                    attention_step_ms(device, config, scfg.attention, &batch, &running);
                let t3 = Instant::now();
                let other_ms = auxiliary_step_ms(device, config, tokens);
                let t4 = Instant::now();
                spans.extend([
                    (SpanName::MoeLayerCost, t1, t2),
                    (SpanName::AttentionStep, t2, t3),
                    (SpanName::AuxiliaryStep, t3, t4),
                ]);
                totals.active_experts +=
                    plan.expert_tokens.iter().filter(|t| !t.is_empty()).count() as u64;
                StepCost::compute_only(
                    (moe_ms + attention_ms + other_ms) * config.num_layers as f64
                        + scfg.step_overhead_ms,
                )
            }
            Pod::Cluster(backend) => {
                let sim = backend.simulator();
                let (cluster, model) = (sim.cluster(), sim.model());
                let gpus = cluster.num_gpus.max(1);
                let kv_local = step.kv_tokens.div_ceil(gpus);
                let step_local = tokens.div_ceil(gpus);
                let loads = plan.expert_loads();
                let t2 = Instant::now();
                totals.place_attempts += 1;
                let placement = cluster
                    .strategy
                    .place_on(&loads, sim.topology(), sim.memory(), kv_local, step_local)
                    .or_else(|_| {
                        totals.place_fallbacks += 1;
                        PlacementStrategy::RoundRobin.place(
                            &loads,
                            gpus,
                            sim.memory(),
                            kv_local,
                            step_local,
                        )
                    });
                let t3 = Instant::now();
                let report = placement
                    .and_then(|p| sim.step_with_placement(&plan, p))
                    .expect("the backend placed this step, so its replay places too");
                let t4 = Instant::now();
                let g = gpus as f64;
                let device = &cluster.device;
                let attention_ms =
                    attention_step_ms(device, model, scfg.attention, &batch, &running) / g;
                let t5 = Instant::now();
                let other_ms = auxiliary_step_ms(device, model, tokens) / g;
                let t6 = Instant::now();
                spans.extend([
                    (SpanName::PlaceOn, t2, t3),
                    (SpanName::StepWithPlacement, t3, t4),
                    (SpanName::AttentionStep, t4, t5),
                    (SpanName::AuxiliaryStep, t5, t6),
                ]);
                let layers = model.num_layers as f64;
                StepCost {
                    compute_ms: (report.straggler_ms() + attention_ms + other_ms) * layers
                        + scfg.step_overhead_ms,
                    collective_ms: report.all_to_all_ms * layers,
                    intra_island_ms: report.intra_island_ms * layers,
                    spine_ms: report.spine_ms * layers,
                    overlap: backend.overlap(),
                }
            }
        };
        totals.steps += 1;
        totals.route_tokens += tokens as u64;
        for &(name, start, end) in &spans {
            let dur = ns(start, end);
            match name {
                SpanName::RouteSeeded => totals.route_ns += dur,
                SpanName::MoeLayerCost => totals.layer_cost_ns.push(dur),
                SpanName::AttentionStep => totals.attention_ns += dur,
                SpanName::AuxiliaryStep => totals.auxiliary_ns += dur,
                SpanName::PlaceOn => totals.place_ns += dur,
                SpanName::StepWithPlacement => totals.cluster_step_ns += dur,
                SpanName::StepCost | SpanName::Emit => {}
            }
            log.span(name, start, end, step.span, Some(step.replica));
        }
        if cost != step.cost {
            totals.mismatches += 1;
        }
    }
    log.steps = steps;
    log.replays = replays;
    totals
}

fn ns(start: Instant, end: Instant) -> u64 {
    end.duration_since(start).as_nanos() as u64
}
