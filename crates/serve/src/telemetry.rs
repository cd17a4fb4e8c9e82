//! Structured tracing for the serving simulator: the observability substrate
//! every control-plane experiment reports through.
//!
//! The simulator used to be a black box between a trace in and a
//! [`FleetMetrics`](crate::fleet::FleetMetrics) out: when p95 TTFT breached
//! an SLO there was no way to say whether the time went to queueing, prefill
//! chunking, collective spine traffic or autoscaler warm-up. This module
//! opens the box without touching the numbers:
//!
//! * [`TraceSink`] — the recording trait. The [`FleetController`] and
//!   every replica's scheduler loop emit one [`TraceEvent`] per
//!   lifecycle transition (arrival → routing → admission → step spans with
//!   the compute / collective / intra-island / spine split → first token →
//!   completion, plus replica warm-up / drain / scale events and control
//!   ticks). Events are `Copy` and carry indices, never strings, so a sink
//!   call is a memcpy — and with no sink installed the hot path pays one
//!   `Option` check and allocates nothing. The root golden harness
//!   `tests/goldens.rs` pins `FleetMetrics` bit-for-bit with and without a
//!   sink.
//! * [`NullSink`] — the explicit do-nothing sink, for measuring the cost of
//!   the dynamic-dispatch path itself.
//! * [`TraceRecorder`] — an in-memory sink with an optional bounded ring so
//!   a million-request run keeps a fixed memory footprint (newest events
//!   win; the drop count is reported, never silent).
//! * [`MetricsRegistry`] — counters, gauges and [log-linear
//!   histograms](LogLinearHistogram) fed from the event stream, snapshotted
//!   at every control tick into per-replica time series.
//! * [`chrome_trace_json`] — a Chrome trace-event exporter: one track per
//!   replica with a span per engine step and instants for scale / drain /
//!   warm-up events, loadable in `chrome://tracing` or Perfetto.
//! * [`RequestTimeline`] — per-request TTFT/TPOT attribution (queue wait +
//!   prefill + KV transfer + decode sums exactly to the end-to-end latency;
//!   the transfer phase is zero for co-located requests and spans the
//!   prefill→decode handoff for disaggregated ones).
//!
//! [`FleetController`]: crate::fleet::FleetController

use std::cell::RefCell;
use std::rc::Rc;

use crate::metrics::{latency_summary, LatencySummary};
use crate::report::ResultTable;

/// One structured observation from the simulator.
///
/// Variants are `Copy` and reference replicas by slot index (stable over a
/// run; [`chrome_trace_json`] pairs them with descriptions at export time),
/// so emitting an event never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A request reached the fleet router.
    Arrival {
        /// Request id.
        id: u64,
        /// Simulated time of the arrival.
        at_ms: f64,
    },
    /// The dispatcher picked a replica for a request.
    Routed {
        /// Request id.
        id: u64,
        /// Target replica slot.
        replica: usize,
        /// Simulated time of the routing decision.
        at_ms: f64,
    },
    /// No replica could ever admit the request.
    Unroutable {
        /// Request id.
        id: u64,
        /// Simulated time of the failed routing.
        at_ms: f64,
    },
    /// A replica admitted a request into its running set.
    Admitted {
        /// Request id.
        id: u64,
        /// Admitting replica slot.
        replica: usize,
        /// Simulated admission time (queue wait ends here).
        at_ms: f64,
    },
    /// A replica rejected a request its budget can never hold.
    Rejected {
        /// Request id.
        id: u64,
        /// Rejecting replica slot.
        replica: usize,
        /// Simulated rejection time.
        at_ms: f64,
    },
    /// One executed engine step — the span of a replica track.
    Step {
        /// Executing replica slot.
        replica: usize,
        /// Step start time.
        start_ms: f64,
        /// Step duration (`compute_ms + collective_ms`).
        total_ms: f64,
        /// Compute component of the step cost.
        compute_ms: f64,
        /// All-to-all collective component (zero on a single GPU).
        collective_ms: f64,
        /// NVLink intra-island share of the collective component.
        intra_island_ms: f64,
        /// InfiniBand spine share of the collective component.
        spine_ms: f64,
        /// Prefill tokens processed this step.
        prefill_tokens: usize,
        /// Decode tokens processed this step.
        decode_tokens: usize,
    },
    /// A request produced its first output token.
    FirstToken {
        /// Request id.
        id: u64,
        /// Producing replica slot.
        replica: usize,
        /// Simulated first-token time.
        at_ms: f64,
    },
    /// A request finished, with its full timing record.
    Completed {
        /// Request id.
        id: u64,
        /// Serving replica slot.
        replica: usize,
        /// Arrival time (trace).
        arrival_ms: f64,
        /// Admission time (queue wait = admitted − arrival).
        admitted_ms: f64,
        /// First-token time (prefill = first − admitted).
        first_token_ms: f64,
        /// Last-token time (decode = finished − first).
        finished_ms: f64,
        /// Output tokens generated.
        output_len: usize,
    },
    /// A replica joined the fleet (initial fleet or scale-out).
    ReplicaCommissioned {
        /// The new slot index.
        replica: usize,
        /// Commission time.
        at_ms: f64,
        /// When the replica becomes routable (commission + warm-up).
        ready_ms: f64,
    },
    /// A commissioned replica finished warm-up and takes traffic.
    WarmupComplete {
        /// The slot index.
        replica: usize,
        /// Warm-up completion time.
        at_ms: f64,
    },
    /// A replica began draining after a scale-in decision.
    DrainStarted {
        /// The slot index.
        replica: usize,
        /// Drain start time.
        at_ms: f64,
    },
    /// A draining replica emptied and left the fleet.
    Retired {
        /// The slot index.
        replica: usize,
        /// Retirement time.
        at_ms: f64,
    },
    /// One control tick's observation — what the autoscale policy saw.
    ControlTick {
        /// Tick time.
        at_ms: f64,
        /// Replicas taking traffic.
        routable: usize,
        /// Replicas still warming up.
        warming: usize,
        /// Windowed p95 TTFT, if any first tokens landed in the window.
        p95_ttft_ms: Option<f64>,
        /// Busy fraction of the ready replicas over the window.
        utilization: f64,
        /// Requests waiting for admission across the fleet.
        queued: usize,
        /// Tokens of work still owed across the fleet.
        outstanding_tokens: usize,
    },
    /// The autoscaler commissioned a replica.
    ScaleOut {
        /// Decision time.
        at_ms: f64,
        /// Commissioned replicas after the event.
        replicas_after: usize,
    },
    /// The autoscaler began draining a replica.
    ScaleIn {
        /// Decision time.
        at_ms: f64,
        /// Commissioned replicas after the event.
        replicas_after: usize,
    },
    /// An injected fault crashed a replica (see `serve::faults`).
    ReplicaCrashed {
        /// The crashed slot index.
        replica: usize,
        /// Crash time.
        at_ms: f64,
        /// Requests mid-execution when the replica died.
        lost_running: usize,
        /// Requests still queued when the replica died.
        lost_queued: usize,
    },
    /// An injected fault degraded a replica's link: the replica keeps its
    /// in-flight work but takes no new traffic until restored.
    LinkDegraded {
        /// The degraded slot index.
        replica: usize,
        /// Degradation start time.
        at_ms: f64,
        /// When the link restores.
        until_ms: f64,
    },
    /// An injected fault partitioned an island: every replica on it is
    /// link-degraded at once.
    IslandPartitioned {
        /// The partitioned island index.
        island: usize,
        /// Number of replicas caught in the partition.
        replicas: usize,
        /// Partition start time.
        at_ms: f64,
        /// When the partition heals.
        until_ms: f64,
    },
    /// A degraded link (or a partitioned island's member) restored.
    LinkRestored {
        /// The restored slot index.
        replica: usize,
        /// Restoration time.
        at_ms: f64,
    },
    /// Recovery from a crash began: lost requests are buffered while expert
    /// weights transfer from survivors.
    RecoveryStarted {
        /// The crashed slot index.
        replica: usize,
        /// Recovery start time (the crash instant).
        at_ms: f64,
        /// Modelled weight-transfer time before re-admission.
        transfer_ms: f64,
    },
    /// Recovery from a crash completed: buffered requests were re-routed.
    RecoveryComplete {
        /// The crashed slot index.
        replica: usize,
        /// Recovery completion time.
        at_ms: f64,
        /// Requests successfully re-admitted to survivors.
        readmitted: usize,
        /// Requests no survivor could ever admit.
        failed: usize,
    },
    /// A prefill→decode KV-cache handoff left its prefill pod (disaggregated
    /// fleets only).
    KvTransferStarted {
        /// Request id.
        id: u64,
        /// Source prefill pod slot.
        from: usize,
        /// Target decode pod slot, committed at transfer start.
        to: usize,
        /// Transferred KV bytes (`MemoryModel::kv_bytes(prompt_len)`).
        bytes: f64,
        /// Transfer start time (the prefill half's completion).
        at_ms: f64,
    },
    /// A prefill→decode KV-cache handoff landed on its decode pod.
    KvTransferComplete {
        /// Request id.
        id: u64,
        /// Source prefill pod slot.
        from: usize,
        /// Target decode pod slot.
        to: usize,
        /// Transferred KV bytes.
        bytes: f64,
        /// Landing time (start + the link's transfer time).
        at_ms: f64,
    },
}

impl TraceEvent {
    /// The simulated time the event describes (span start for steps).
    pub fn at_ms(&self) -> f64 {
        match *self {
            TraceEvent::Arrival { at_ms, .. }
            | TraceEvent::Routed { at_ms, .. }
            | TraceEvent::Unroutable { at_ms, .. }
            | TraceEvent::Admitted { at_ms, .. }
            | TraceEvent::Rejected { at_ms, .. }
            | TraceEvent::FirstToken { at_ms, .. }
            | TraceEvent::ReplicaCommissioned { at_ms, .. }
            | TraceEvent::WarmupComplete { at_ms, .. }
            | TraceEvent::DrainStarted { at_ms, .. }
            | TraceEvent::Retired { at_ms, .. }
            | TraceEvent::ControlTick { at_ms, .. }
            | TraceEvent::ScaleOut { at_ms, .. }
            | TraceEvent::ScaleIn { at_ms, .. }
            | TraceEvent::ReplicaCrashed { at_ms, .. }
            | TraceEvent::LinkDegraded { at_ms, .. }
            | TraceEvent::IslandPartitioned { at_ms, .. }
            | TraceEvent::LinkRestored { at_ms, .. }
            | TraceEvent::RecoveryStarted { at_ms, .. }
            | TraceEvent::RecoveryComplete { at_ms, .. }
            | TraceEvent::KvTransferStarted { at_ms, .. }
            | TraceEvent::KvTransferComplete { at_ms, .. } => at_ms,
            TraceEvent::Step { start_ms, .. } => start_ms,
            TraceEvent::Completed { finished_ms, .. } => finished_ms,
        }
    }

    /// The replica slot the event belongs to, if any.
    pub fn replica(&self) -> Option<usize> {
        match *self {
            TraceEvent::Routed { replica, .. }
            | TraceEvent::Admitted { replica, .. }
            | TraceEvent::Rejected { replica, .. }
            | TraceEvent::Step { replica, .. }
            | TraceEvent::FirstToken { replica, .. }
            | TraceEvent::Completed { replica, .. }
            | TraceEvent::ReplicaCommissioned { replica, .. }
            | TraceEvent::WarmupComplete { replica, .. }
            | TraceEvent::DrainStarted { replica, .. }
            | TraceEvent::Retired { replica, .. }
            | TraceEvent::ReplicaCrashed { replica, .. }
            | TraceEvent::LinkDegraded { replica, .. }
            | TraceEvent::LinkRestored { replica, .. }
            | TraceEvent::RecoveryStarted { replica, .. }
            | TraceEvent::RecoveryComplete { replica, .. } => Some(replica),
            // A transfer belongs to the pod doing the work at that instant:
            // the source while it starts, the target once it lands.
            TraceEvent::KvTransferStarted { from, .. } => Some(from),
            TraceEvent::KvTransferComplete { to, .. } => Some(to),
            _ => None,
        }
    }
}

/// A destination for [`TraceEvent`]s.
///
/// Implementations must not feed anything back into the simulation: sinks
/// observe, they never steer, which is what lets the root golden harness
/// `tests/goldens.rs` pin the metrics bit-for-bit with any sink installed.
pub trait TraceSink {
    /// Record one event. Called on the simulation hot path — keep it cheap.
    fn record(&mut self, event: TraceEvent);
}

/// The do-nothing sink: every event is dropped.
///
/// Installing a `NullSink` (rather than no sink at all) measures the cost of
/// the dynamic-dispatch emission path itself — the telemetry-overhead bench
/// cell uses exactly this.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _event: TraceEvent) {}
}

/// A cloneable handle to a shared [`TraceSink`].
///
/// The controller clones one handle into every replica driver, so all
/// emitters append to the same stream in simulation order. `Rc<RefCell<…>>`
/// rather than `Arc<Mutex<…>>`: a fleet run is single-threaded (report
/// sweeps parallelise across *runs*, building each controller inside its own
/// closure), and the uncontended borrow keeps emission at memcpy cost.
#[derive(Clone)]
pub struct SharedSink(Rc<RefCell<dyn TraceSink>>);

impl std::fmt::Debug for SharedSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SharedSink")
    }
}

impl SharedSink {
    /// Wrap `sink`, returning the emission handle plus a typed handle the
    /// caller keeps to read the sink back after the run.
    pub fn new<S: TraceSink + 'static>(sink: S) -> (Self, Rc<RefCell<S>>) {
        let shared = Rc::new(RefCell::new(sink));
        (Self(shared.clone()), shared)
    }

    /// Record one event.
    #[inline]
    pub fn emit(&self, event: TraceEvent) {
        self.0.borrow_mut().record(event);
    }
}

/// An in-memory event sink, optionally ring-bounded.
///
/// Unbounded mode keeps every event (fine for demo traces); bounded mode
/// keeps the newest `capacity` events in a fixed-size ring and counts what
/// it dropped — the mode million-request bench runs use so recording cannot
/// balloon memory.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    ring: Vec<TraceEvent>,
    capacity: Option<usize>,
    /// Write cursor into the ring (bounded mode only).
    head: usize,
    dropped: u64,
}

impl TraceRecorder {
    /// An unbounded recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A recorder that keeps only the newest `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity >= 1, "a bounded recorder needs capacity >= 1");
        Self {
            ring: Vec::with_capacity(capacity),
            capacity: Some(capacity),
            head: 0,
            dropped: 0,
        }
    }

    /// Recorded events in emission order (oldest retained first).
    pub fn events(&self) -> Vec<TraceEvent> {
        match self.capacity {
            // Compare against the stored capacity, the one `record` wraps
            // at: the `Vec`'s own capacity is not kept by a clone.
            Some(cap) if self.ring.len() == cap => {
                // Full ring: the oldest retained event sits at the cursor.
                let mut out = Vec::with_capacity(self.ring.len());
                out.extend_from_slice(&self.ring[self.head..]);
                out.extend_from_slice(&self.ring[..self.head]);
                out
            }
            _ => self.ring.clone(),
        }
    }

    /// Events dropped by the bounded ring (zero when unbounded).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

impl TraceSink for TraceRecorder {
    fn record(&mut self, event: TraceEvent) {
        match self.capacity {
            Some(cap) if self.ring.len() == cap => {
                self.ring[self.head] = event;
                self.head = (self.head + 1) % cap;
                self.dropped += 1;
            }
            _ => self.ring.push(event),
        }
    }
}

/// Linear sub-buckets per power-of-two octave of a [`LogLinearHistogram`].
const SUB_BUCKETS: usize = 16;

/// A log-linear histogram: 64 power-of-two octaves split into 16 linear
/// sub-buckets each, the classic HdrHistogram-style layout. Relative error
/// is bounded by `1 / 16` per octave at a fixed, tiny footprint — unlike
/// keeping raw samples, a million-step run costs the same memory as a
/// ten-step run.
#[derive(Debug, Clone)]
pub struct LogLinearHistogram {
    /// `64 * SUB_BUCKETS` counts; octave `o` covers `[2^o, 2^(o+1))`
    /// times the base unit (values below 1.0 land in octave 0).
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogLinearHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogLinearHistogram {
    /// 64 octaves of 16 sub-buckets: ~6% worst-case relative error over the
    /// full positive `f64` range the simulator produces.
    pub fn new() -> Self {
        Self {
            counts: vec![0; 64 * SUB_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_index(&self, value: f64) -> usize {
        let v = value.max(0.0);
        // Octave 0 covers [0, 2); octave o >= 1 covers [2^o, 2^(o+1)).
        let octave = if v < 2.0 {
            0
        } else {
            (v.log2().floor() as usize).min(63)
        };
        let lo = if octave == 0 {
            0.0
        } else {
            (1u64 << octave) as f64
        };
        let width = if octave == 0 {
            2.0
        } else {
            (1u64 << octave) as f64
        };
        let sub = (((v - lo) / width * SUB_BUCKETS as f64) as usize).min(SUB_BUCKETS - 1);
        octave * SUB_BUCKETS + sub
    }

    fn bucket_midpoint(&self, index: usize) -> f64 {
        let octave = index / SUB_BUCKETS;
        let sub = index % SUB_BUCKETS;
        let lo = if octave == 0 {
            0.0
        } else {
            (1u64 << octave) as f64
        };
        let width = if octave == 0 {
            2.0
        } else {
            (1u64 << octave) as f64
        };
        lo + width * (sub as f64 + 0.5) / SUB_BUCKETS as f64
    }

    /// Record one non-negative sample (NaN is ignored).
    pub fn record(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        let index = self.bucket_index(value);
        self.counts[index] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of recorded samples (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact maximum of recorded samples (zero when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Exact minimum of recorded samples (zero when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// The bucket-midpoint estimate of quantile `q` in `[0, 1]` (zero when
    /// empty). Exact endpoints are reported from the tracked min/max.
    pub fn value_at_quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        if q <= 0.0 {
            return self.min();
        }
        if q >= 1.0 {
            return self.max();
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Clamp the midpoint estimate to the exact observed range.
                return self.bucket_midpoint(i).clamp(self.min, self.max);
            }
        }
        self.max()
    }
}

/// One per-replica row of a control-tick snapshot: the cumulative counters
/// the registry has seen for that replica up to the tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaSample {
    /// The replica slot.
    pub replica: usize,
    /// Engine steps executed so far.
    pub steps: u64,
    /// Cumulative busy (step) time so far, ms.
    pub busy_ms: f64,
    /// Requests completed so far.
    pub completed: u64,
    /// Requests admitted so far.
    pub admitted: u64,
}

/// One control-tick snapshot: the fleet gauges plus a per-replica row per
/// replica seen so far.
#[derive(Debug, Clone)]
pub struct TickSnapshot {
    /// Tick time.
    pub at_ms: f64,
    /// Replicas taking traffic.
    pub routable: usize,
    /// Replicas warming up.
    pub warming: usize,
    /// Windowed p95 TTFT, if observed.
    pub p95_ttft_ms: Option<f64>,
    /// Busy fraction over the window.
    pub utilization: f64,
    /// Queued requests across the fleet.
    pub queued: usize,
    /// Outstanding tokens across the fleet.
    pub outstanding_tokens: usize,
    /// Per-replica cumulative counters at this tick, indexed by slot.
    pub per_replica: Vec<ReplicaSample>,
}

/// Per-replica accumulation inside the registry.
#[derive(Debug, Clone, Copy, Default)]
struct ReplicaAccum {
    steps: u64,
    busy_ms: f64,
    completed: u64,
    admitted: u64,
}

/// Counters, gauges and histograms fed from the event stream.
///
/// The registry is itself a [`TraceSink`]: install it (alone, or behind a
/// fan-out of your own) and it maintains monotone counters, per-step /
/// per-request [log-linear histograms](LogLinearHistogram), and — at every
/// [`TraceEvent::ControlTick`] — a [`TickSnapshot`] time series with one
/// cumulative row per replica, which is exactly the shape a per-replica
/// utilization plot wants.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    /// Requests that reached the router.
    pub arrivals: u64,
    /// Requests routed to some replica.
    pub routed: u64,
    /// Requests no replica could ever admit.
    pub unroutable: u64,
    /// Requests admitted into running sets.
    pub admitted: u64,
    /// Requests rejected by replica budgets.
    pub rejected: u64,
    /// Requests completed.
    pub completed: u64,
    /// Engine steps executed.
    pub steps: u64,
    /// Prefill tokens processed.
    pub prefill_tokens: u64,
    /// Decode tokens processed.
    pub decode_tokens: u64,
    /// Scale-out events.
    pub scale_outs: u64,
    /// Scale-in events.
    pub scale_ins: u64,
    /// Replica retirements.
    pub retirements: u64,
    /// Injected replica crashes.
    pub crashes: u64,
    /// Injected link degradations.
    pub link_degrades: u64,
    /// Injected island partitions.
    pub island_partitions: u64,
    /// Completed crash recoveries.
    pub recoveries: u64,
    /// Requests re-admitted to survivors after crashes.
    pub readmitted: u64,
    /// Requests failed by crashes (fail-fast, or unroutable on recovery).
    pub failed_requests: u64,
    /// KV-cache handoffs started (disaggregated fleets; retries count).
    pub kv_transfers: u64,
    /// Total KV bytes put on the wire by started handoffs (f64 because the
    /// per-request sizes come from `MemoryModel::kv_bytes`).
    pub kv_transfer_bytes: f64,
    /// Step duration distribution, ms.
    pub step_ms: LogLinearHistogram,
    /// Step collective-time distribution, ms.
    pub step_collective_ms: LogLinearHistogram,
    /// Time-to-first-token distribution, ms.
    pub ttft_ms: LogLinearHistogram,
    /// End-to-end request latency distribution, ms.
    pub latency_ms: LogLinearHistogram,
    /// Queue-wait (arrival to admission) distribution, ms.
    pub queue_wait_ms: LogLinearHistogram,
    /// The control-tick time series.
    pub snapshots: Vec<TickSnapshot>,
    per_replica: Vec<ReplicaAccum>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn accum(&mut self, replica: usize) -> &mut ReplicaAccum {
        if replica >= self.per_replica.len() {
            self.per_replica.resize_with(replica + 1, Default::default);
        }
        &mut self.per_replica[replica]
    }

    /// The monotone counters as `(name, value)` rows, for reports.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("arrivals", self.arrivals),
            ("routed", self.routed),
            ("unroutable", self.unroutable),
            ("admitted", self.admitted),
            ("rejected", self.rejected),
            ("completed", self.completed),
            ("steps", self.steps),
            ("prefill_tokens", self.prefill_tokens),
            ("decode_tokens", self.decode_tokens),
            ("scale_outs", self.scale_outs),
            ("scale_ins", self.scale_ins),
            ("retirements", self.retirements),
            ("crashes", self.crashes),
            ("link_degrades", self.link_degrades),
            ("island_partitions", self.island_partitions),
            ("recoveries", self.recoveries),
            ("readmitted", self.readmitted),
            ("failed_requests", self.failed_requests),
            ("kv_transfers", self.kv_transfers),
        ]
    }
}

impl TraceSink for MetricsRegistry {
    fn record(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::Arrival { .. } => self.arrivals += 1,
            TraceEvent::Routed { .. } => self.routed += 1,
            TraceEvent::Unroutable { .. } => self.unroutable += 1,
            TraceEvent::Admitted { replica, .. } => {
                self.admitted += 1;
                self.accum(replica).admitted += 1;
            }
            TraceEvent::Rejected { .. } => self.rejected += 1,
            TraceEvent::Step {
                replica,
                total_ms,
                collective_ms,
                prefill_tokens,
                decode_tokens,
                ..
            } => {
                self.steps += 1;
                self.prefill_tokens += prefill_tokens as u64;
                self.decode_tokens += decode_tokens as u64;
                self.step_ms.record(total_ms);
                self.step_collective_ms.record(collective_ms);
                let a = self.accum(replica);
                a.steps += 1;
                a.busy_ms += total_ms;
            }
            TraceEvent::FirstToken { .. } => {}
            TraceEvent::Completed {
                replica,
                arrival_ms,
                admitted_ms,
                first_token_ms,
                finished_ms,
                ..
            } => {
                self.completed += 1;
                self.accum(replica).completed += 1;
                self.ttft_ms.record(first_token_ms - arrival_ms);
                self.latency_ms.record(finished_ms - arrival_ms);
                self.queue_wait_ms.record(admitted_ms - arrival_ms);
            }
            TraceEvent::ScaleOut { .. } => self.scale_outs += 1,
            TraceEvent::ScaleIn { .. } => self.scale_ins += 1,
            TraceEvent::Retired { .. } => self.retirements += 1,
            TraceEvent::ControlTick {
                at_ms,
                routable,
                warming,
                p95_ttft_ms,
                utilization,
                queued,
                outstanding_tokens,
            } => {
                let per_replica = self
                    .per_replica
                    .iter()
                    .enumerate()
                    .map(|(replica, a)| ReplicaSample {
                        replica,
                        steps: a.steps,
                        busy_ms: a.busy_ms,
                        completed: a.completed,
                        admitted: a.admitted,
                    })
                    .collect();
                self.snapshots.push(TickSnapshot {
                    at_ms,
                    routable,
                    warming,
                    p95_ttft_ms,
                    utilization,
                    queued,
                    outstanding_tokens,
                    per_replica,
                });
            }
            TraceEvent::ReplicaCommissioned { replica, .. } => {
                // Ensure the slot appears in subsequent snapshots even
                // before it executes its first step.
                let _ = self.accum(replica);
            }
            TraceEvent::ReplicaCrashed { .. } => self.crashes += 1,
            TraceEvent::LinkDegraded { .. } => self.link_degrades += 1,
            TraceEvent::IslandPartitioned { .. } => self.island_partitions += 1,
            TraceEvent::RecoveryComplete {
                readmitted, failed, ..
            } => {
                self.recoveries += 1;
                self.readmitted += readmitted as u64;
                self.failed_requests += failed as u64;
            }
            TraceEvent::KvTransferStarted { bytes, .. } => {
                self.kv_transfers += 1;
                self.kv_transfer_bytes += bytes;
            }
            TraceEvent::WarmupComplete { .. }
            | TraceEvent::DrainStarted { .. }
            | TraceEvent::LinkRestored { .. }
            | TraceEvent::RecoveryStarted { .. }
            // Landings carry no new volume: the transfer was counted when it
            // left the prefill pod.
            | TraceEvent::KvTransferComplete { .. } => {}
        }
    }
}

/// Per-request latency attribution, reconstructed from the event stream.
///
/// The phases partition the end-to-end latency exactly:
/// `queue_ms + prefill_ms + transfer_ms + decode_ms == latency_ms` (each
/// phase is a difference of adjacent timestamps, so the telescoping sum is
/// exact up to float rounding — the `telemetry_stream` suite checks the
/// tolerance).
/// Co-located requests have `transfer_ms == 0`, collapsing to the classic
/// three-phase split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestTimeline {
    /// Request id.
    pub id: u64,
    /// Serving replica slot (for a disaggregated handoff, the decode pod
    /// that finished the request).
    pub replica: usize,
    /// Arrival time.
    pub arrival_ms: f64,
    /// Admission time.
    pub admitted_ms: f64,
    /// First-token time.
    pub first_token_ms: f64,
    /// Last-token time.
    pub finished_ms: f64,
    /// Output tokens generated.
    pub output_len: usize,
    /// KV-handoff window: first transfer departure to last transfer landing
    /// (zero for co-located requests).
    pub transfer_ms: f64,
}

impl RequestTimeline {
    /// Time spent waiting for admission.
    pub fn queue_ms(&self) -> f64 {
        self.admitted_ms - self.arrival_ms
    }

    /// Time from admission to the first output token (the prefill phase,
    /// including any steps the request shared while chunking).
    pub fn prefill_ms(&self) -> f64 {
        self.first_token_ms - self.admitted_ms
    }

    /// Time from the first to the last output token, excluding any KV
    /// handoff in between (the decode phase).
    pub fn decode_ms(&self) -> f64 {
        self.finished_ms - self.first_token_ms - self.transfer_ms
    }

    /// End-to-end latency.
    pub fn latency_ms(&self) -> f64 {
        self.finished_ms - self.arrival_ms
    }

    /// Time to first token.
    pub fn ttft_ms(&self) -> f64 {
        self.first_token_ms - self.arrival_ms
    }

    /// Mean inter-token latency of the decode phase (`None` for
    /// single-token outputs, which have no inter-token gap).
    pub fn tpot_ms(&self) -> Option<f64> {
        if self.output_len >= 2 {
            Some(self.decode_ms() / (self.output_len - 1) as f64)
        } else {
            None
        }
    }
}

/// Reconstruct every completed request's timeline from an event stream, in
/// first-completion order. Streams truncated by a bounded ring yield only
/// the completions the ring retained.
///
/// A disaggregated handoff completes twice — once on its prefill pod and
/// once on its decode pod — and those halves merge into one timeline: the
/// earliest arrival/admission/first-token, the latest finish, the finishing
/// replica, the summed output length, and a `transfer_ms` spanning the first
/// [`TraceEvent::KvTransferStarted`] to the last
/// [`TraceEvent::KvTransferComplete`] for the id (so retries and re-routed
/// transfers are charged to the handoff, not to decode). Co-located streams
/// have one `Completed` per id and no transfer events, so their timelines
/// are exactly the classic per-event ones.
pub fn request_timelines(events: &[TraceEvent]) -> Vec<RequestTimeline> {
    let mut order: Vec<RequestTimeline> = Vec::new();
    let mut index: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
    let mut bounds: std::collections::BTreeMap<u64, (Option<f64>, Option<f64>)> =
        std::collections::BTreeMap::new();
    for e in events {
        match *e {
            TraceEvent::Completed {
                id,
                replica,
                arrival_ms,
                admitted_ms,
                first_token_ms,
                finished_ms,
                output_len,
            } => match index.get(&id) {
                Some(&i) => {
                    let t = &mut order[i];
                    t.arrival_ms = t.arrival_ms.min(arrival_ms);
                    t.admitted_ms = t.admitted_ms.min(admitted_ms);
                    t.first_token_ms = t.first_token_ms.min(first_token_ms);
                    t.finished_ms = t.finished_ms.max(finished_ms);
                    // The later half finished the request; it owns the slot.
                    t.replica = replica;
                    t.output_len += output_len;
                }
                None => {
                    index.insert(id, order.len());
                    order.push(RequestTimeline {
                        id,
                        replica,
                        arrival_ms,
                        admitted_ms,
                        first_token_ms,
                        finished_ms,
                        output_len,
                        transfer_ms: 0.0,
                    });
                }
            },
            TraceEvent::KvTransferStarted { id, at_ms, .. } => {
                let b = bounds.entry(id).or_insert((None, None));
                if b.0.is_none() {
                    b.0 = Some(at_ms);
                }
            }
            TraceEvent::KvTransferComplete { id, at_ms, .. } => {
                bounds.entry(id).or_insert((None, None)).1 = Some(at_ms);
            }
            _ => {}
        }
    }
    for t in &mut order {
        // A transfer that started but never landed (the request failed on
        // the wire) leaves the prefill half's timeline transfer-free.
        if let Some(&(Some(start), Some(end))) = bounds.get(&t.id) {
            t.transfer_ms = end - start;
        }
    }
    order
}

/// Aggregate attribution over a set of [`RequestTimeline`]s: how much of the
/// mean end-to-end latency each lifecycle phase owns.
#[derive(Debug, Clone)]
pub struct AttributionSummary {
    /// Requests attributed.
    pub requests: usize,
    /// Queue-wait distribution, ms.
    pub queue: LatencySummary,
    /// Prefill-phase distribution, ms.
    pub prefill: LatencySummary,
    /// KV-handoff (prefill→decode transfer) distribution, ms.
    pub transfer: LatencySummary,
    /// Decode-phase distribution, ms.
    pub decode: LatencySummary,
    /// End-to-end latency distribution, ms.
    pub latency: LatencySummary,
}

impl AttributionSummary {
    /// Summarise `timelines` (all-empty summaries when none).
    pub fn from_timelines(timelines: &[RequestTimeline]) -> Self {
        let collect =
            |f: fn(&RequestTimeline) -> f64| -> Vec<f64> { timelines.iter().map(f).collect() };
        Self {
            requests: timelines.len(),
            queue: latency_summary(&collect(RequestTimeline::queue_ms)),
            prefill: latency_summary(&collect(RequestTimeline::prefill_ms)),
            transfer: latency_summary(&collect(|t: &RequestTimeline| t.transfer_ms)),
            decode: latency_summary(&collect(RequestTimeline::decode_ms)),
            latency: latency_summary(&collect(RequestTimeline::latency_ms)),
        }
    }

    /// Render as markdown rows (phase | mean | p50 | p95 | max).
    pub fn render_markdown(&self) -> Vec<String> {
        let mut table = ResultTable::new("phase | mean (ms) | p50 (ms) | p95 (ms) | max (ms)");
        for (name, s) in [
            ("queue wait", &self.queue),
            ("prefill", &self.prefill),
            ("kv transfer", &self.transfer),
            ("decode", &self.decode),
            ("end-to-end", &self.latency),
        ] {
            table.row(&[
                &name,
                &format!("{:.1}", s.mean_ms),
                &format!("{:.1}", s.p50_ms),
                &format!("{:.1}", s.p95_ms),
                &format!("{:.1}", s.max_ms),
            ]);
        }
        table.render_markdown()
    }
}

/// Escape a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format a finite `f64` for JSON (trace timestamps are microseconds with
/// fractional precision preserved).
fn json_num(v: f64) -> String {
    // fract() is exactly 0.0 iff the value is an integer, which is what
    // JSON needs.
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Export an event stream as Chrome trace-event JSON.
///
/// The output is the object form (`{"traceEvents": [...]}`) both
/// `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load directly:
/// one process named `fleet`, one thread (track) per replica named by
/// `replica_names` (falling back to `replica N`), a complete (`"X"`) span
/// per engine step carrying the compute / collective / intra-island / spine
/// split in its `args`, and instant (`"i"`) markers for request lifecycle
/// and replica scale / warm-up / drain / retire events. Timestamps are
/// microseconds, per the trace-event spec.
pub fn chrome_trace_json(events: &[TraceEvent], replica_names: &[String]) -> String {
    let mut rows: Vec<String> = Vec::new();
    rows.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"fleet\"}}"
            .to_string(),
    );
    // One named track per replica; tid = slot + 1 (tid 0 is the control
    // plane's track for fleet-level instants).
    let replicas = replica_names.len().max(
        events
            .iter()
            .filter_map(TraceEvent::replica)
            .map(|r| r + 1)
            .max()
            .unwrap_or(0),
    );
    rows.push(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"control plane\"}}"
            .to_string(),
    );
    for slot in 0..replicas {
        let name = replica_names
            .get(slot)
            .cloned()
            .unwrap_or_else(|| format!("replica {slot}"));
        rows.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
             \"args\":{{\"name\":\"{}\"}}}}",
            slot + 1,
            json_escape(&name)
        ));
    }

    let us = |ms: f64| json_num(ms * 1_000.0);
    let instant = |name: &str, tid: usize, at_ms: f64, args: String| {
        format!(
            "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\
             \"tid\":{tid},\"ts\":{},\"args\":{{{args}}}}}",
            us(at_ms)
        )
    };
    for event in events {
        match *event {
            TraceEvent::Step {
                replica,
                start_ms,
                total_ms,
                compute_ms,
                collective_ms,
                intra_island_ms,
                spine_ms,
                prefill_tokens,
                decode_tokens,
            } => rows.push(format!(
                "{{\"name\":\"step\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{},\"dur\":{},\"args\":{{\"compute_ms\":{},\
                 \"collective_ms\":{},\"intra_island_ms\":{},\"spine_ms\":{},\
                 \"prefill_tokens\":{prefill_tokens},\
                 \"decode_tokens\":{decode_tokens}}}}}",
                replica + 1,
                us(start_ms),
                us(total_ms),
                json_num(compute_ms),
                json_num(collective_ms),
                json_num(intra_island_ms),
                json_num(spine_ms),
            )),
            TraceEvent::Arrival { id, at_ms } => {
                rows.push(instant("arrival", 0, at_ms, format!("\"id\":{id}")));
            }
            TraceEvent::Unroutable { id, at_ms } => {
                rows.push(instant("unroutable", 0, at_ms, format!("\"id\":{id}")));
            }
            TraceEvent::Admitted { id, replica, at_ms } => {
                rows.push(instant(
                    "admitted",
                    replica + 1,
                    at_ms,
                    format!("\"id\":{id}"),
                ));
            }
            TraceEvent::Rejected { id, replica, at_ms } => {
                rows.push(instant(
                    "rejected",
                    replica + 1,
                    at_ms,
                    format!("\"id\":{id}"),
                ));
            }
            TraceEvent::FirstToken { id, replica, at_ms } => {
                rows.push(instant(
                    "first token",
                    replica + 1,
                    at_ms,
                    format!("\"id\":{id}"),
                ));
            }
            TraceEvent::ReplicaCommissioned {
                replica,
                at_ms,
                ready_ms,
            } => rows.push(instant(
                "commissioned",
                replica + 1,
                at_ms,
                format!("\"ready_ms\":{}", json_num(ready_ms)),
            )),
            TraceEvent::WarmupComplete { replica, at_ms } => {
                rows.push(instant(
                    "warm-up complete",
                    replica + 1,
                    at_ms,
                    String::new(),
                ));
            }
            TraceEvent::DrainStarted { replica, at_ms } => {
                rows.push(instant("drain started", replica + 1, at_ms, String::new()));
            }
            TraceEvent::Retired { replica, at_ms } => {
                rows.push(instant("retired", replica + 1, at_ms, String::new()));
            }
            TraceEvent::ScaleOut {
                at_ms,
                replicas_after,
            } => rows.push(instant(
                "scale-out",
                0,
                at_ms,
                format!("\"replicas_after\":{replicas_after}"),
            )),
            TraceEvent::ScaleIn {
                at_ms,
                replicas_after,
            } => rows.push(instant(
                "scale-in",
                0,
                at_ms,
                format!("\"replicas_after\":{replicas_after}"),
            )),
            TraceEvent::ReplicaCrashed {
                replica,
                at_ms,
                lost_running,
                lost_queued,
            } => rows.push(instant(
                "replica crashed",
                replica + 1,
                at_ms,
                format!("\"lost_running\":{lost_running},\"lost_queued\":{lost_queued}"),
            )),
            TraceEvent::LinkDegraded {
                replica,
                at_ms,
                until_ms,
            } => rows.push(instant(
                "link degraded",
                replica + 1,
                at_ms,
                format!("\"until_ms\":{}", json_num(until_ms)),
            )),
            TraceEvent::IslandPartitioned {
                island,
                replicas,
                at_ms,
                until_ms,
            } => rows.push(instant(
                "island partitioned",
                0,
                at_ms,
                format!(
                    "\"island\":{island},\"replicas\":{replicas},\"until_ms\":{}",
                    json_num(until_ms)
                ),
            )),
            TraceEvent::LinkRestored { replica, at_ms } => {
                rows.push(instant("link restored", replica + 1, at_ms, String::new()));
            }
            TraceEvent::RecoveryStarted {
                replica,
                at_ms,
                transfer_ms,
            } => rows.push(instant(
                "recovery started",
                replica + 1,
                at_ms,
                format!("\"transfer_ms\":{}", json_num(transfer_ms)),
            )),
            TraceEvent::RecoveryComplete {
                replica,
                at_ms,
                readmitted,
                failed,
            } => rows.push(instant(
                "recovery complete",
                replica + 1,
                at_ms,
                format!("\"readmitted\":{readmitted},\"failed\":{failed}"),
            )),
            TraceEvent::KvTransferStarted {
                id,
                from,
                to,
                bytes,
                at_ms,
            } => rows.push(instant(
                "kv transfer started",
                from + 1,
                at_ms,
                format!("\"id\":{id},\"to\":{to},\"bytes\":{}", json_num(bytes)),
            )),
            TraceEvent::KvTransferComplete {
                id,
                from,
                to,
                bytes,
                at_ms,
            } => rows.push(instant(
                "kv transfer complete",
                to + 1,
                at_ms,
                format!("\"id\":{id},\"from\":{from},\"bytes\":{}", json_num(bytes)),
            )),
            // Routing, completion and tick gauges stay out of the visual
            // trace: routing duplicates admission, completions duplicate the
            // final step span, and tick gauges belong to the registry's time
            // series rather than a timeline track.
            TraceEvent::Routed { .. }
            | TraceEvent::Completed { .. }
            | TraceEvent::ControlTick { .. } => {}
        }
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&rows.join(",\n"));
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completed(id: u64, base: f64) -> TraceEvent {
        TraceEvent::Completed {
            id,
            replica: 0,
            arrival_ms: base,
            admitted_ms: base + 10.0,
            first_token_ms: base + 35.0,
            finished_ms: base + 95.0,
            output_len: 13,
        }
    }

    fn step(replica: usize, start_ms: f64) -> TraceEvent {
        TraceEvent::Step {
            replica,
            start_ms,
            total_ms: 4.0,
            compute_ms: 3.0,
            collective_ms: 1.0,
            intra_island_ms: 0.75,
            spine_ms: 0.25,
            prefill_tokens: 128,
            decode_tokens: 8,
        }
    }

    #[test]
    fn null_sink_drops_everything_and_shared_sink_shares() {
        let mut null = NullSink;
        null.record(completed(0, 0.0));

        let (sink, handle) = SharedSink::new(TraceRecorder::new());
        let clone = sink.clone();
        sink.emit(step(0, 0.0));
        clone.emit(completed(1, 0.0));
        assert_eq!(handle.borrow().len(), 2);
        assert_eq!(format!("{sink:?}"), "SharedSink");
    }

    fn arrival(id: u64) -> TraceEvent {
        TraceEvent::Arrival {
            id,
            at_ms: id as f64,
        }
    }

    /// The ids of a recorder's events, which must all be arrivals.
    fn arrival_ids(rec: &TraceRecorder) -> Vec<u64> {
        rec.events()
            .iter()
            .map(|e| match e {
                TraceEvent::Arrival { id, .. } => *id,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    #[test]
    fn bounded_recorder_keeps_the_newest_events_in_order() {
        let mut rec = TraceRecorder::bounded(3);
        for i in 0..5 {
            rec.record(arrival(i));
        }
        assert_eq!(rec.dropped(), 2);
        assert_eq!(rec.len(), 3);
        assert_eq!(arrival_ids(&rec), vec![2, 3, 4]);
        // A clone keeps the ring's order once it wraps, although it does
        // not keep the ring's spare allocation.
        let mut rec = TraceRecorder::bounded(3);
        rec.record(arrival(0));
        let mut clone = rec.clone();
        for i in 1..5 {
            clone.record(arrival(i));
        }
        assert_eq!(clone.dropped(), 2);
        assert_eq!(arrival_ids(&clone), vec![2, 3, 4]);
        // An unbounded recorder never drops.
        let mut all = TraceRecorder::new();
        for i in 0..5 {
            all.record(arrival(i));
        }
        assert_eq!(all.dropped(), 0);
        assert_eq!(all.events().len(), 5);
        assert!(!all.is_empty());
    }

    #[test]
    fn log_linear_histogram_tracks_quantiles_within_bucket_error() {
        let mut h = LogLinearHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.value_at_quantile(0.5), 0.0);
        for v in 1..=1000 {
            h.record(v as f64);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 1000.0);
        // Log-linear with 16 sub-buckets: <= ~6.25% relative error.
        let p50 = h.value_at_quantile(0.5);
        assert!((p50 - 500.0).abs() / 500.0 < 0.07, "p50 {p50}");
        let p95 = h.value_at_quantile(0.95);
        assert!((p95 - 950.0).abs() / 950.0 < 0.07, "p95 {p95}");
        assert_eq!(h.value_at_quantile(0.0), 1.0);
        assert_eq!(h.value_at_quantile(1.0), 1000.0);
        // NaN is ignored, tiny and sub-1.0 values land in octave zero.
        h.record(f64::NAN);
        assert_eq!(h.count(), 1000);
        let mut small = LogLinearHistogram::new();
        small.record(0.0);
        small.record(0.3);
        small.record(1.7);
        assert_eq!(small.count(), 3);
        assert!(small.value_at_quantile(0.5) <= 1.7);
    }

    #[test]
    fn registry_counts_and_snapshots_per_replica_series() {
        let mut reg = MetricsRegistry::new();
        reg.record(TraceEvent::Arrival { id: 0, at_ms: 0.0 });
        reg.record(TraceEvent::Routed {
            id: 0,
            replica: 1,
            at_ms: 0.0,
        });
        reg.record(TraceEvent::Admitted {
            id: 0,
            replica: 1,
            at_ms: 1.0,
        });
        reg.record(step(1, 1.0));
        reg.record(step(1, 5.0));
        reg.record(completed(7, 0.0));
        reg.record(TraceEvent::ControlTick {
            at_ms: 200.0,
            routable: 2,
            warming: 0,
            p95_ttft_ms: Some(35.0),
            utilization: 0.5,
            queued: 0,
            outstanding_tokens: 10,
        });
        reg.record(TraceEvent::ScaleOut {
            at_ms: 200.0,
            replicas_after: 3,
        });
        assert_eq!(reg.arrivals, 1);
        assert_eq!(reg.routed, 1);
        assert_eq!(reg.admitted, 1);
        assert_eq!(reg.steps, 2);
        assert_eq!(reg.prefill_tokens, 256);
        assert_eq!(reg.decode_tokens, 16);
        assert_eq!(reg.completed, 1);
        assert_eq!(reg.scale_outs, 1);
        assert_eq!(reg.step_ms.count(), 2);
        assert_eq!(reg.ttft_ms.count(), 1);
        assert_eq!(reg.queue_wait_ms.count(), 1);
        // The snapshot carries a row for every replica seen, cumulative.
        assert_eq!(reg.snapshots.len(), 1);
        let snap = &reg.snapshots[0];
        assert_eq!(snap.routable, 2);
        assert_eq!(snap.per_replica.len(), 2);
        assert_eq!(snap.per_replica[1].steps, 2);
        assert!((snap.per_replica[1].busy_ms - 8.0).abs() < 1e-12);
        assert_eq!(snap.per_replica[1].admitted, 1);
        assert_eq!(snap.per_replica[0].steps, 0);
        // Counters render as rows.
        let counters = reg.counters();
        assert!(counters.contains(&("steps", 2)));
        assert!(counters.contains(&("completed", 1)));
    }

    #[test]
    fn request_timelines_partition_latency_exactly() {
        let events = vec![step(0, 0.0), completed(3, 100.0), completed(4, 250.0)];
        let timelines = request_timelines(&events);
        assert_eq!(timelines.len(), 2);
        for t in &timelines {
            assert_eq!(t.transfer_ms, 0.0, "co-located timelines carry no transfer");
            let sum = t.queue_ms() + t.prefill_ms() + t.transfer_ms + t.decode_ms();
            assert!((sum - t.latency_ms()).abs() < 1e-9);
            assert_eq!(t.ttft_ms(), t.queue_ms() + t.prefill_ms());
            let tpot = t.tpot_ms().expect("13 output tokens have gaps");
            assert!((tpot - t.decode_ms() / 12.0).abs() < 1e-12);
        }
        let summary = AttributionSummary::from_timelines(&timelines);
        assert_eq!(summary.requests, 2);
        assert_eq!(summary.queue.mean_ms, 10.0);
        assert_eq!(summary.prefill.mean_ms, 25.0);
        assert_eq!(summary.decode.mean_ms, 60.0);
        assert_eq!(summary.latency.mean_ms, 95.0);
        let rows = summary.render_markdown();
        assert_eq!(rows.len(), 7);
        assert!(rows[2].contains("queue wait"));
        // Single-token outputs have no TPOT.
        let single = RequestTimeline {
            output_len: 1,
            ..timelines[0]
        };
        assert_eq!(single.tpot_ms(), None);
    }

    #[test]
    fn a_handoff_merges_into_one_timeline_with_a_transfer_phase() {
        // Prefill half on pod 0 (one output token at 30), KV handoff 30→42,
        // decode half on pod 2 finishing the remaining 12 tokens at 90.
        let events = vec![
            TraceEvent::Completed {
                id: 9,
                replica: 0,
                arrival_ms: 0.0,
                admitted_ms: 5.0,
                first_token_ms: 30.0,
                finished_ms: 30.0,
                output_len: 1,
            },
            TraceEvent::KvTransferStarted {
                id: 9,
                from: 0,
                to: 2,
                bytes: 4096.0,
                at_ms: 30.0,
            },
            TraceEvent::KvTransferComplete {
                id: 9,
                from: 0,
                to: 2,
                bytes: 4096.0,
                at_ms: 42.0,
            },
            TraceEvent::Completed {
                id: 9,
                replica: 2,
                arrival_ms: 42.0,
                admitted_ms: 44.0,
                first_token_ms: 46.0,
                finished_ms: 90.0,
                output_len: 12,
            },
        ];
        let timelines = request_timelines(&events);
        assert_eq!(timelines.len(), 1, "both halves merge into one timeline");
        let t = timelines[0];
        assert_eq!(t.replica, 2, "the decode pod finished the request");
        assert_eq!(t.output_len, 13);
        assert_eq!(t.transfer_ms, 12.0);
        assert_eq!(t.first_token_ms, 30.0);
        assert_eq!(t.finished_ms, 90.0);
        let sum = t.queue_ms() + t.prefill_ms() + t.transfer_ms + t.decode_ms();
        assert!((sum - t.latency_ms()).abs() < 1e-9);
        // The registry counts wire traffic once, at departure.
        let mut reg = MetricsRegistry::new();
        for e in &events {
            reg.record(*e);
        }
        assert_eq!(reg.kv_transfers, 1);
        assert!((reg.kv_transfer_bytes - 4096.0).abs() < 1e-9);
        assert!(reg.counters().contains(&("kv_transfers", 1)));
        // Both endpoints export as instants on the pods doing the work.
        let json = chrome_trace_json(&events, &[]);
        assert!(json.contains("\"kv transfer started\""));
        assert!(json.contains("\"kv transfer complete\""));
        assert!(json.contains("\"bytes\":4096"));
    }

    #[test]
    fn chrome_trace_has_a_track_per_replica_and_a_span_per_step() {
        let events = vec![
            TraceEvent::ReplicaCommissioned {
                replica: 0,
                at_ms: 0.0,
                ready_ms: 0.0,
            },
            step(0, 0.0),
            step(1, 2.5),
            TraceEvent::FirstToken {
                id: 0,
                replica: 0,
                at_ms: 4.0,
            },
            TraceEvent::ScaleOut {
                at_ms: 200.0,
                replicas_after: 2,
            },
            TraceEvent::DrainStarted {
                replica: 1,
                at_ms: 400.0,
            },
            TraceEvent::Retired {
                replica: 1,
                at_ms: 500.0,
            },
        ];
        let names = vec!["a100 \"pod\"".to_string(), "4070S".to_string()];
        let json = chrome_trace_json(&events, &names);
        // Two replica tracks plus the control plane, escaped names intact.
        assert_eq!(json.matches("\"thread_name\"").count(), 3);
        assert!(json.contains("a100 \\\"pod\\\""));
        // One X span per step, on distinct tracks, with the cost split.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"intra_island_ms\":0.75"));
        assert!(json.contains("\"spine_ms\":0.25"));
        assert!(json.contains("\"ts\":2500")); // 2.5 ms -> 2500 us
                                               // Instants for lifecycle and scale events.
        assert!(json.contains("\"scale-out\""));
        assert!(json.contains("\"drain started\""));
        assert!(json.contains("\"retired\""));
        assert!(json.contains("\"first token\""));
        // Balanced braces/brackets — a structural smoke test that the
        // hand-built JSON is well formed.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // Names beyond the provided list fall back to `replica N`.
        let fallback = chrome_trace_json(&[step(2, 0.0)], &[]);
        assert!(fallback.contains("replica 2"));
    }

    #[test]
    fn fault_events_count_in_the_registry_and_export_as_instants() {
        let events = vec![
            TraceEvent::ReplicaCrashed {
                replica: 0,
                at_ms: 500.0,
                lost_running: 2,
                lost_queued: 3,
            },
            TraceEvent::RecoveryStarted {
                replica: 0,
                at_ms: 500.0,
                transfer_ms: 40.0,
            },
            TraceEvent::LinkDegraded {
                replica: 1,
                at_ms: 600.0,
                until_ms: 1_100.0,
            },
            TraceEvent::IslandPartitioned {
                island: 1,
                replicas: 2,
                at_ms: 700.0,
                until_ms: 900.0,
            },
            TraceEvent::LinkRestored {
                replica: 1,
                at_ms: 1_100.0,
            },
            TraceEvent::RecoveryComplete {
                replica: 0,
                at_ms: 540.0,
                readmitted: 4,
                failed: 1,
            },
        ];
        let mut reg = MetricsRegistry::new();
        for e in &events {
            reg.record(*e);
        }
        assert_eq!(reg.crashes, 1);
        assert_eq!(reg.link_degrades, 1);
        assert_eq!(reg.island_partitions, 1);
        assert_eq!(reg.recoveries, 1);
        assert_eq!(reg.readmitted, 4);
        assert_eq!(reg.failed_requests, 1);
        let counters = reg.counters();
        assert!(counters.contains(&("crashes", 1)));
        assert!(counters.contains(&("recoveries", 1)));
        // Every fault event carries a timestamp and (except the island
        // partition) a replica.
        assert_eq!(events[0].at_ms(), 500.0);
        assert_eq!(events[0].replica(), Some(0));
        assert_eq!(events[3].replica(), None);
        let json = chrome_trace_json(&events, &[]);
        assert!(json.contains("\"replica crashed\""));
        assert!(json.contains("\"lost_running\":2"));
        assert!(json.contains("\"recovery started\""));
        assert!(json.contains("\"link degraded\""));
        assert!(json.contains("\"island partitioned\""));
        assert!(json.contains("\"link restored\""));
        assert!(json.contains("\"recovery complete\""));
        assert!(json.contains("\"readmitted\":4"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
