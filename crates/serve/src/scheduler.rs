//! The continuous-batching scheduler: admission under the backend's memory
//! budget, chunked-prefill/decode interleaving, and progress accounting.
//!
//! The scheduler is pure policy. Everything physical — step pricing, memory
//! footprints, kernel support — lives behind [`ExecutionBackend`]: the
//! simulated clock advances by whatever the backend predicts for each step's
//! workload (single-GPU engine cost, or per-GPU straggler compute plus
//! all-to-all collectives for a cluster). All randomness (routing) is seeded inside the
//! backend, so a simulation is a pure function of its inputs.

use std::collections::{BTreeSet, VecDeque};

use crate::backend::{ExecutionBackend, SingleGpuBackend, StepWorkload};
use crate::batch::{BatchLimits, StepBatch};
use crate::request::{CompletedRequest, Request, RunningRequest};
use crate::telemetry::{SharedSink, TraceEvent};
use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_moe::attention::AttentionKind;
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::engines::EngineKind;

/// Scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Per-step batching limits.
    pub limits: BatchLimits,
    /// Attention implementation used by every engine.
    pub attention: AttentionKind,
    /// Seed for the per-step routing plans.
    pub routing_seed: u64,
    /// Fixed per-step scheduling/launch overhead in milliseconds.
    pub step_overhead_ms: f64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            limits: BatchLimits::default(),
            attention: AttentionKind::Flash,
            routing_seed: 42,
            step_overhead_ms: 0.05,
        }
    }
}

/// One executed engine step, for inspection and invariant tests.
#[derive(Debug, Clone, Copy)]
pub struct StepRecord {
    /// Simulated time at the start of the step.
    pub start_ms: f64,
    /// Predicted duration of the step.
    pub time_ms: f64,
    /// Portion of the step spent in inter-GPU collectives (zero on a
    /// single-GPU backend).
    pub collective_ms: f64,
    /// Prefill tokens processed.
    pub prefill_tokens: usize,
    /// Decode tokens processed.
    pub decode_tokens: usize,
    /// KV-resident tokens after the step.
    pub kv_tokens: usize,
    /// Memory in use during the step under the backend's budget model
    /// (whole model for a single GPU, straggler GPU for a cluster).
    pub memory_bytes: f64,
    /// Concurrently admitted requests during the step.
    pub running: usize,
}

/// Outcome of simulating one engine over one trace.
#[derive(Debug, Clone)]
pub struct SimulationResult {
    /// The engine simulated.
    pub engine: EngineKind,
    /// Requests that finished, in completion order.
    pub completed: Vec<CompletedRequest>,
    /// Requests that could never fit the memory budget (or an unsupported
    /// engine/model pair rejects the whole trace).
    pub rejected: Vec<Request>,
    /// Requests admitted over the run (= completed when the run drains).
    pub admitted: usize,
    /// Every executed step.
    pub steps: Vec<StepRecord>,
    /// Simulated time at which the last request finished.
    pub makespan_ms: f64,
    /// Peak memory in use across all steps.
    pub peak_memory_bytes: f64,
    /// The memory budget the scheduler enforced.
    pub budget_bytes: f64,
    /// False when the engine has no kernels for the model (NS) — nothing is
    /// simulated in that case.
    pub supported: bool,
}

impl SimulationResult {
    /// Output tokens produced across completed requests.
    pub fn output_tokens(&self) -> usize {
        self.completed.iter().map(|c| c.request.output_len).sum()
    }

    /// Prompt + output tokens processed across completed requests.
    pub fn processed_tokens(&self) -> usize {
        self.completed
            .iter()
            .map(|c| c.request.total_tokens())
            .sum()
    }

    /// Total time spent in collectives across all steps.
    pub fn collective_ms(&self) -> f64 {
        self.steps.iter().map(|s| s.collective_ms).sum()
    }
}

/// Continuous-batching scheduler over one execution backend.
#[derive(Debug, Clone)]
pub struct Scheduler<B: ExecutionBackend = SingleGpuBackend> {
    backend: B,
    scfg: SchedulerConfig,
    sink: Option<SharedSink>,
}

impl Scheduler<SingleGpuBackend> {
    /// Build a single-GPU scheduler for one (device, model, engine) triple —
    /// the original front door, now routed through [`SingleGpuBackend`].
    ///
    /// # Panics
    /// Panics if any [`BatchLimits`] field is zero (see
    /// [`Scheduler::from_backend`]).
    pub fn new(
        device: DeviceSpec,
        config: MoeModelConfig,
        engine_kind: EngineKind,
        scfg: SchedulerConfig,
    ) -> Self {
        Self::from_backend(
            SingleGpuBackend::new(device, &config, engine_kind, &scfg),
            scfg,
        )
    }
}

impl<B: ExecutionBackend> Scheduler<B> {
    /// Build a scheduler over an arbitrary backend. The model being served
    /// is the backend's own ([`ExecutionBackend::model`]) — the scheduler
    /// holds no second copy that could disagree with the step pricing.
    ///
    /// # Panics
    /// Panics if any [`BatchLimits`] field is zero: a zero limit can never
    /// make progress (no admission, no prefill or no step tokens) and would
    /// hang the simulation.
    pub fn from_backend(backend: B, scfg: SchedulerConfig) -> Self {
        assert!(
            scfg.limits.zero_fields().next().is_none(),
            "every BatchLimits field must be at least 1, got {:?}",
            scfg.limits
        );
        Self {
            backend,
            scfg,
            sink: None,
        }
    }

    /// Install a telemetry sink: every run emits its request lifecycle and
    /// step spans there (as replica 0). Without one, nothing is emitted and
    /// the hot path pays only an `Option` check.
    pub fn with_sink(mut self, sink: SharedSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Run the trace to completion and return the full simulation record:
    /// enqueue the whole trace, step the replica until it drains, finish.
    /// The fleet controller drives the same per-replica loop one step at a
    /// time, interleaved with routing.
    pub fn run(&self, trace: &[Request]) -> SimulationResult {
        let mut driver = ReplicaDriver::new(&self.backend, self.scfg);
        if let Some(sink) = &self.sink {
            driver.attach_sink(sink.clone(), 0);
        }
        for request in trace {
            driver.enqueue(*request);
        }
        while driver.step_once() {}
        driver.finish()
    }
}

/// An incrementally-driven serving replica: the continuous-batching loop
/// behind [`Scheduler::run`], one engine step per [`Self::step_once`] call,
/// so the fleet controller can interleave request routing with simulated
/// execution.
///
/// The driver owns the replica's full runtime state — arrival queue, running
/// set, KV reservations, simulated clock — and exposes it live (outstanding
/// tokens, admission headroom, busy time), which is exactly what an online
/// dispatcher needs to route each request *at its arrival time* instead of
/// splitting the trace ahead of time.
///
/// A step allocates nothing of its own: the driver refills one
/// [`StepBatch`] it keeps across steps and retires finished requests from
/// the running set in place.
#[derive(Debug, Clone)]
pub(crate) struct ReplicaDriver<B: ExecutionBackend> {
    backend: B,
    scfg: SchedulerConfig,
    queue: VecDeque<Request>,
    running: Vec<RunningRequest>,
    /// The step being executed, refilled from `running` at each step.
    batch: StepBatch,
    /// KV tokens reserved for admitted requests at their full final length
    /// (conservative: admission never needs preemption).
    reserved_tokens: usize,
    /// Incrementally-maintained total of [`Self::outstanding_tokens`]:
    /// credited at enqueue, debited as prefill chunks and decode tokens land
    /// (and when an unadmittable request is rejected). Keeping the counter
    /// O(1) is what lets a fleet dispatcher consult the live load of every
    /// replica at every arrival without rescanning queues.
    outstanding: usize,
    /// Requests handed over with their prompt KV already materialized (a
    /// disaggregated prefill→decode handoff): admission skips chunked
    /// prefill for them and they decode from their first step. Their
    /// outstanding credit is `output_len` only — the prompt work was done
    /// elsewhere — while the KV reservation still charges the full
    /// prompt+output length (the transferred cache occupies real budget).
    prefilled_ids: BTreeSet<u64>,
    clock_ms: f64,
    step_index: u64,
    result: SimulationResult,
    /// Telemetry sink, if one is attached. `None` (the default) keeps the
    /// hot path at a single branch — the root golden harness
    /// `tests/goldens.rs` pins the results bit-for-bit either way.
    sink: Option<SharedSink>,
    /// Slot label stamped on emitted events (0 for standalone drivers).
    replica_id: usize,
}

impl<B: ExecutionBackend> ReplicaDriver<B> {
    /// Build a driver over `backend`.
    ///
    /// # Panics
    /// Panics if any [`BatchLimits`] field is zero (see
    /// [`Scheduler::from_backend`]).
    pub fn new(backend: B, scfg: SchedulerConfig) -> Self {
        assert!(
            scfg.limits.zero_fields().next().is_none(),
            "every BatchLimits field must be at least 1, got {:?}",
            scfg.limits
        );
        let result = SimulationResult {
            engine: backend.engine_kind(),
            completed: Vec::new(),
            rejected: Vec::new(),
            admitted: 0,
            steps: Vec::new(),
            makespan_ms: 0.0,
            peak_memory_bytes: 0.0,
            budget_bytes: backend.memory().budget_bytes(),
            supported: backend.supports(backend.model()),
        };
        Self {
            backend,
            scfg,
            queue: VecDeque::new(),
            running: Vec::new(),
            batch: StepBatch::default(),
            reserved_tokens: 0,
            outstanding: 0,
            prefilled_ids: BTreeSet::new(),
            clock_ms: 0.0,
            step_index: 0,
            result,
            sink: None,
            replica_id: 0,
        }
    }

    /// Attach a telemetry sink; emitted events carry `replica_id` as their
    /// slot label (the fleet controller attaches one handle per slot).
    pub fn attach_sink(&mut self, sink: SharedSink, replica_id: usize) {
        self.sink = Some(sink);
        self.replica_id = replica_id;
    }

    /// Hand the driver a request. Requests must arrive in nondecreasing
    /// `arrival_ms` order; an unsupported engine/model pair rejects outright.
    pub fn enqueue(&mut self, request: Request) {
        if !self.result.supported {
            self.result.rejected.push(request);
            return;
        }
        debug_assert!(
            self.queue
                .back()
                .is_none_or(|back| back.arrival_ms <= request.arrival_ms),
            "requests must be enqueued in arrival order"
        );
        self.outstanding += request.total_tokens();
        self.queue.push_back(request);
    }

    /// Hand the driver a request whose prompt KV already exists locally —
    /// the receiving end of a disaggregated prefill→decode handoff. The
    /// request is admitted like any other (FCFS, against its *full*
    /// prompt+output KV reservation: the transferred cache occupies real
    /// budget) but starts directly in its decode phase, so only its
    /// `output_len` counts as outstanding work.
    pub fn enqueue_handoff(&mut self, request: Request) {
        if !self.result.supported {
            self.result.rejected.push(request);
            return;
        }
        debug_assert!(
            self.queue
                .back()
                .is_none_or(|back| back.arrival_ms <= request.arrival_ms),
            "requests must be enqueued in arrival order"
        );
        self.prefilled_ids.insert(request.id);
        self.outstanding += request.output_len;
        self.queue.push_back(request);
    }

    /// Whether the replica can serve its model at all: the kernels support
    /// it and the weights (plus a minimal one-token step) fit the budget.
    /// Capability-blind fleet surgery (e.g. scale-in victim selection) must
    /// consult this so dead-weight replicas never satisfy a capacity floor.
    pub fn can_serve_model(&self) -> bool {
        self.result.supported && self.backend.memory().can_hold_model()
    }

    /// Whether the replica could ever admit `request` — the backend supports
    /// its own model and an otherwise-empty replica fits the request's full
    /// KV reservation. The admission-headroom gate a capability-aware
    /// dispatcher checks before routing.
    pub fn can_ever_admit(&self, request: &Request) -> bool {
        self.result.supported
            && self
                .backend
                .memory()
                .fits(request.total_tokens(), self.scfg.limits.max_batched_tokens)
    }

    /// Simulated clock: the end of the last executed step (or the last idle
    /// jump to an arrival).
    pub fn clock_ms(&self) -> f64 {
        self.clock_ms
    }

    /// Whether all handed-over work is finished.
    pub fn is_drained(&self) -> bool {
        self.queue.is_empty() && self.running.is_empty()
    }

    /// Requests waiting for admission.
    pub fn queued_requests(&self) -> usize {
        self.queue.len()
    }

    /// The admitted, still-running set.
    pub fn running_requests(&self) -> &[RunningRequest] {
        &self.running
    }

    /// Tokens of work still owed: queued requests in full plus the
    /// unprefilled/undecoded remainder of every running request. This is the
    /// *live* load signal — it decays as the replica makes progress. O(1):
    /// the counter is maintained incrementally at enqueue/rejection and per
    /// step, never recomputed by scanning the queue.
    pub fn outstanding_tokens(&self) -> usize {
        self.outstanding
    }

    /// Completed requests so far, in completion order.
    pub fn completed(&self) -> &[CompletedRequest] {
        &self.result.completed
    }

    /// KV budget bytes left after every admitted and queued request's full
    /// final-length reservation — the headroom signal a disaggregated
    /// dispatcher ranks decode pods by when placing a handoff. Counting the
    /// queue (not just admitted reservations) keeps the signal honest while
    /// a transfer burst is still waiting for admission.
    pub fn kv_headroom_bytes(&self) -> f64 {
        let committed: usize =
            self.reserved_tokens + self.queue.iter().map(Request::total_tokens).sum::<usize>();
        self.backend.memory().budget_bytes() - self.backend.memory().footprint_bytes(committed, 0)
    }

    /// Earliest arrival among requests that have not produced their first
    /// token yet (queued or still prefilling) — the head-of-line waiting age
    /// an SLO autoscaler watches.
    pub fn oldest_unserved_arrival_ms(&self) -> Option<f64> {
        let queued = self.queue.front().map(|r| r.arrival_ms);
        let running = self
            .running
            .iter()
            .filter(|r| r.first_token_ms.is_none())
            .map(|r| r.request.arrival_ms)
            .fold(None, |acc: Option<f64>, a| {
                Some(acc.map_or(a, |b| b.min(a)))
            });
        match (queued, running) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Milliseconds of executed step time overlapping `[from_ms, to_ms)` —
    /// the busy-time signal utilization-based scale-in watches.
    pub fn busy_ms_between(&self, from_ms: f64, to_ms: f64) -> f64 {
        let mut busy = 0.0;
        for step in self.result.steps.iter().rev() {
            let end = step.start_ms + step.time_ms;
            if end <= from_ms {
                break;
            }
            busy += (end.min(to_ms) - step.start_ms.max(from_ms)).max(0.0);
        }
        busy
    }

    /// Execute the replica's next unit of work — admission, an idle jump to
    /// the next queued arrival if the running set is empty, and exactly one
    /// engine step — and report whether work remains afterwards. A step's
    /// progress and completions apply when it starts, and the clock moves
    /// to its end: requests enqueued meanwhile wait for that boundary. The
    /// fleet controller calls this once per step-completion event;
    /// [`Scheduler::run`] calls it until it returns `false`.
    pub fn step_once(&mut self) -> bool {
        if !self.result.supported {
            return false;
        }
        loop {
            self.admit_arrived();
            if self.running.is_empty() {
                let Some(next) = self.queue.front() else {
                    return false;
                };
                self.clock_ms = self.clock_ms.max(next.arrival_ms);
                continue;
            }
            self.execute_step();
            return !self.is_drained();
        }
    }

    /// Admission: FCFS, bounded by the running cap and the budget.
    fn admit_arrived(&mut self) {
        let limits = self.scfg.limits;
        while self.running.len() < limits.max_running {
            let Some(front) = self.queue.front() else {
                break;
            };
            if front.arrival_ms > self.clock_ms {
                break;
            }
            let candidate = self.reserved_tokens + front.total_tokens();
            if self
                .backend
                .memory()
                .fits(candidate, limits.max_batched_tokens)
            {
                let request = self.queue.pop_front().expect("front exists");
                self.reserved_tokens = candidate;
                self.result.admitted += 1;
                if let Some(sink) = &self.sink {
                    sink.emit(TraceEvent::Admitted {
                        id: request.id,
                        replica: self.replica_id,
                        at_ms: self.clock_ms,
                    });
                }
                let mut running = RunningRequest::new(request, self.clock_ms);
                if self.prefilled_ids.remove(&request.id) {
                    // Handoff: the prompt KV arrived with the request, so it
                    // starts its decode phase immediately.
                    running.prefilled = request.prompt_len;
                }
                self.running.push(running);
            } else if self.running.is_empty() {
                // Even an empty system cannot hold this request.
                let rejected = self.queue.pop_front().expect("front exists");
                // Debit exactly what enqueue credited: a handoff only owed
                // its output tokens.
                self.outstanding -= if self.prefilled_ids.remove(&rejected.id) {
                    rejected.output_len
                } else {
                    rejected.total_tokens()
                };
                if let Some(sink) = &self.sink {
                    sink.emit(TraceEvent::Rejected {
                        id: rejected.id,
                        replica: self.replica_id,
                        at_ms: self.clock_ms,
                    });
                }
                self.result.rejected.push(rejected);
            } else {
                break;
            }
        }
    }

    /// Execute exactly one engine step over the current running set.
    fn execute_step(&mut self) {
        let limits = self.scfg.limits;
        self.batch.refill(&self.running, &limits);
        let batch = &self.batch;
        debug_assert!(!batch.is_empty(), "running set with no schedulable work");
        let cost = self.backend.step_cost(&StepWorkload {
            batch,
            running: &self.running,
            step_index: self.step_index,
        });
        let time_ms = cost.total_ms();
        let start_ms = self.clock_ms;
        self.clock_ms += time_ms;
        self.step_index += 1;
        if let Some(sink) = &self.sink {
            sink.emit(TraceEvent::Step {
                replica: self.replica_id,
                start_ms,
                total_ms: time_ms,
                compute_ms: cost.compute_ms,
                collective_ms: cost.collective_ms,
                intra_island_ms: cost.intra_island_ms,
                spine_ms: cost.spine_ms,
                prefill_tokens: batch.prefill_tokens(),
                decode_tokens: batch.decode.len(),
            });
        }

        // Apply progress (debiting the outstanding-work counter token by
        // token, so it stays exact without ever rescanning the queue).
        for &(i, chunk) in &batch.prefill {
            let r = &mut self.running[i];
            r.prefilled += chunk;
            self.outstanding -= chunk;
            if r.prefilled == r.request.prompt_len {
                // The prefill's final forward produces the first output
                // token.
                r.decoded += 1;
                if r.decoded <= r.request.output_len {
                    self.outstanding -= 1;
                }
                r.first_token_ms = Some(self.clock_ms);
                if let Some(sink) = &self.sink {
                    sink.emit(TraceEvent::FirstToken {
                        id: r.request.id,
                        replica: self.replica_id,
                        at_ms: self.clock_ms,
                    });
                }
            }
        }
        for &i in &batch.decode {
            let r = &mut self.running[i];
            r.decoded += 1;
            if r.decoded <= r.request.output_len {
                self.outstanding -= 1;
            }
            if r.first_token_ms.is_none() {
                r.first_token_ms = Some(self.clock_ms);
                if let Some(sink) = &self.sink {
                    sink.emit(TraceEvent::FirstToken {
                        id: r.request.id,
                        replica: self.replica_id,
                        at_ms: self.clock_ms,
                    });
                }
            }
        }

        // Retire finished requests, in admission order, and release their
        // KV reservation.
        let clock_ms = self.clock_ms;
        let (sink, replica_id) = (&self.sink, self.replica_id);
        let (reserved_tokens, completed) = (&mut self.reserved_tokens, &mut self.result.completed);
        self.running.retain(|r| {
            if r.decoded < r.request.output_len {
                return true;
            }
            *reserved_tokens -= r.request.total_tokens();
            let done = CompletedRequest {
                request: r.request,
                admitted_ms: r.admitted_ms,
                first_token_ms: r.first_token_ms.unwrap_or(clock_ms),
                finished_ms: clock_ms,
            };
            if let Some(sink) = sink {
                sink.emit(TraceEvent::Completed {
                    id: done.request.id,
                    replica: replica_id,
                    arrival_ms: done.request.arrival_ms,
                    admitted_ms: done.admitted_ms,
                    first_token_ms: done.first_token_ms,
                    finished_ms: done.finished_ms,
                    output_len: done.request.output_len,
                });
            }
            completed.push(done);
            false
        });

        // Account the step. KV during the step includes the tokens being
        // written, which the per-request reservations upper-bound.
        let kv_tokens: usize = self.running.iter().map(|r| r.context_tokens()).sum();
        let memory_bytes = self
            .backend
            .memory()
            .footprint_bytes(kv_tokens, batch.total_tokens());
        self.result.peak_memory_bytes = self.result.peak_memory_bytes.max(memory_bytes);
        self.result.steps.push(StepRecord {
            start_ms,
            time_ms,
            collective_ms: cost.collective_ms,
            prefill_tokens: batch.prefill_tokens(),
            decode_tokens: batch.decode.len(),
            kv_tokens,
            memory_bytes,
            running: self.running.len(),
        });

        assert!(
            self.step_index < 10_000_000,
            "serving simulation exceeded the step safety cap"
        );
    }

    /// Rip every in-flight request out of the replica, as on a GPU crash:
    /// returns `(running, queued)` — the admitted mid-generation set (in
    /// admission order) and the not-yet-admitted queue (in arrival order) —
    /// and leaves the replica drained with zero outstanding work and zero
    /// KV reservations. Partial prefill/decode progress is lost; a
    /// re-admitted request starts from scratch on its new replica. Already
    /// completed and rejected requests are unaffected.
    pub fn take_inflight(&mut self) -> (Vec<Request>, Vec<Request>) {
        let running: Vec<Request> = self.running.drain(..).map(|r| r.request).collect();
        let queued: Vec<Request> = self.queue.drain(..).collect();
        self.reserved_tokens = 0;
        self.outstanding = 0;
        // Any transferred KV died with the replica: survivors re-prefill.
        self.prefilled_ids.clear();
        (running, queued)
    }

    /// Close out the run and return the full simulation record.
    pub fn finish(mut self) -> SimulationResult {
        self.result.makespan_ms = self.clock_ms;
        self.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::build_step;
    use crate::trace::TraceConfig;
    use samoyeds_moe::config::MoeModelConfig;

    fn driver() -> ReplicaDriver<SingleGpuBackend> {
        let scfg = SchedulerConfig::default();
        let backend = SingleGpuBackend::new(
            DeviceSpec::a100_40g(),
            &MoeModelConfig::qwen2_moe(),
            EngineKind::Samoyeds,
            &scfg,
        );
        ReplicaDriver::new(backend, scfg)
    }

    /// Ground truth for the incrementally-maintained counter: the full
    /// rescan the pre-refactor `outstanding_tokens` performed.
    fn recomputed_outstanding(d: &ReplicaDriver<SingleGpuBackend>) -> usize {
        let queued: usize = d.queue.iter().map(Request::total_tokens).sum();
        let running: usize = d
            .running
            .iter()
            .map(|r| {
                (r.request.prompt_len - r.prefilled)
                    + (r.request.output_len - r.decoded.min(r.request.output_len))
            })
            .sum();
        queued + running
    }

    #[test]
    fn incremental_outstanding_counter_matches_a_full_rescan() {
        let trace = TraceConfig {
            num_requests: 40,
            arrival_rate_rps: 30.0,
            prompt_len_range: (16, 700),
            output_len_range: (2, 24),
            seed: 13,
        }
        .generate();
        let mut d = driver();
        for request in &trace {
            // Step until the step in flight spans the arrival, as the fleet's
            // step chain does.
            while d.clock_ms() < request.arrival_ms && d.step_once() {
                assert_eq!(d.outstanding_tokens(), recomputed_outstanding(&d));
            }
            d.enqueue(*request);
            assert_eq!(d.outstanding_tokens(), recomputed_outstanding(&d));
        }
        while d.step_once() {
            assert_eq!(d.outstanding_tokens(), recomputed_outstanding(&d));
        }
        assert_eq!(d.outstanding_tokens(), 0);
        assert!(d.is_drained());
    }

    #[test]
    fn the_reused_batch_and_in_place_retirement_match_a_fresh_build_and_drain() {
        let request = |id, arrival_ms, prompt_len, output_len| Request {
            id,
            arrival_ms,
            prompt_len,
            output_len,
        };
        let mut d = driver();
        // Four short prompts that finish at different steps, ahead of three
        // 512-token prompts: the first step prefills 1,568 tokens, the
        // second only decodes and retires requests 1 and 3 while 0 and 2,
        // admitted before them, keep running.
        for (id, output_len) in [(0, 6), (1, 2), (2, 3), (3, 2)] {
            d.enqueue(request(id, 0.0, 8, output_len));
        }
        for id in 4..7 {
            d.enqueue(request(id, 0.0, 512, 4));
        }
        let running_ids = |running: &[RunningRequest]| -> Vec<u64> {
            running.iter().map(|r| r.request.id).collect()
        };
        let completed_ids = |completed: &[CompletedRequest]| -> Vec<u64> {
            completed.iter().map(|c| c.request.id).collect()
        };
        let mut out_of_order_steps = 0;
        for step in 0.. {
            if step == 3 {
                // A late prompt brings prefill chunks back after decode-only
                // steps.
                d.enqueue(request(7, d.clock_ms(), 600, 2));
            }
            d.admit_arrived();
            let before = d.running.clone();
            let completed_before = d.completed().len();
            let more = d.step_once();
            let fresh = build_step(&before, &d.scfg.limits);
            assert_eq!(d.batch.prefill, fresh.prefill, "step {step}");
            assert_eq!(d.batch.decode, fresh.decode, "step {step}");
            // The drain loop retired finished requests in running-set
            // order and kept the rest in it.
            let still = running_ids(&d.running);
            let (kept, retired): (Vec<u64>, Vec<u64>) = running_ids(&before)
                .into_iter()
                .partition(|id| still.contains(id));
            assert_eq!(still, kept, "step {step}");
            let completed = completed_ids(&d.completed()[completed_before..]);
            assert_eq!(completed, retired, "step {step}");
            // Ids follow admission order.
            if retired.iter().any(|&done| kept.iter().any(|&id| id < done)) {
                out_of_order_steps += 1;
            }
            if !more {
                break;
            }
        }
        assert!(out_of_order_steps > 0);
        let steps: Vec<(usize, usize)> = d
            .result
            .steps
            .iter()
            .map(|s| (s.prefill_tokens, s.decode_tokens))
            .collect();
        let large_prefill = 4 * 8 + 3 * 512;
        let late_prefill = [(512, 4), (600 - 512, 1)];
        assert_eq!(steps[..3], [(large_prefill, 0), (0, 7), (0, 5)]);
        assert_eq!(steps[3..5], late_prefill);
        assert_eq!(steps[5..], [(0, 2)]);
        assert_eq!(d.completed().len(), 8);
        assert!(d.is_drained());
    }

    #[test]
    fn rejected_requests_release_their_outstanding_tokens() {
        let mut d = driver();
        // Far beyond any single-replica KV budget: rejected at admission.
        d.enqueue(Request {
            id: 0,
            arrival_ms: 0.0,
            prompt_len: 50_000_000,
            output_len: 1,
        });
        assert!(!d.step_once(), "the rejection leaves no work");
        assert_eq!(d.outstanding_tokens(), 0);
        let result = d.finish();
        assert_eq!(result.rejected.len(), 1);
    }

    #[test]
    fn take_inflight_extracts_everything_and_leaves_the_replica_drained() {
        let trace = TraceConfig {
            num_requests: 16,
            arrival_rate_rps: 40.0,
            prompt_len_range: (32, 128),
            output_len_range: (8, 24),
            seed: 11,
        }
        .generate();
        let mut d = driver();
        for request in &trace {
            d.enqueue(*request);
        }
        // Step partway: some completed, some running, some queued.
        while d.clock_ms() < trace[trace.len() / 2].arrival_ms && d.step_once() {}
        let completed_before = d.completed().len();
        let (running, queued) = d.take_inflight();
        assert_eq!(
            completed_before + running.len() + queued.len(),
            trace.len(),
            "every request is completed, running or queued at the crash"
        );
        assert!(d.is_drained());
        assert_eq!(d.outstanding_tokens(), 0);
        assert!(!d.step_once(), "a crashed-out replica has no work left");
        let result = d.finish();
        assert_eq!(result.completed.len(), completed_before);
        assert!(result.rejected.is_empty());
    }

    #[test]
    fn a_handoff_request_skips_prefill_and_decodes_from_its_first_step() {
        let mut d = driver();
        let request = Request {
            id: 7,
            arrival_ms: 0.0,
            prompt_len: 256,
            output_len: 8,
        };
        d.enqueue_handoff(request);
        assert_eq!(
            d.outstanding_tokens(),
            request.output_len,
            "a handoff only owes its decode tokens"
        );
        while d.step_once() {}
        assert_eq!(d.outstanding_tokens(), 0);
        let result = d.finish();
        assert_eq!(result.completed.len(), 1);
        assert_eq!(result.completed[0].request.output_len, 8);
        // No prefill chunk ever ran: every step decoded exactly one token.
        assert_eq!(result.steps.len(), 8);
        assert!(result
            .steps
            .iter()
            .all(|s| s.prefill_tokens == 0 && s.decode_tokens == 1));
    }
}
