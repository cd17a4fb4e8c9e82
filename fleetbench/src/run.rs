//! One workload repetition: set up, validate, run to drain, and check the
//! simulated outputs.

use crate::probe::Tracer;
use crate::stats::median;
use crate::workloads::{setup, Workload};
use samoyeds_serve::FleetMetrics;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The simulated outputs of one run. They are model outputs: checked and
/// printed, never compared as performance metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutputs {
    /// Requests in the trace.
    pub offered: usize,
    /// Completed requests.
    pub completed: usize,
    /// Rejected requests (unroutable included).
    pub rejected: usize,
    /// Requests lost to crashes and never re-admitted.
    pub failed: usize,
    /// Requests no replica could ever admit.
    pub unroutable: usize,
    /// Simulated makespan, ms.
    pub makespan_ms: f64,
    /// Median time to first token, ms.
    pub ttft_p50_ms: f64,
    /// 99th-percentile time to first token, ms.
    pub ttft_p99_ms: f64,
    /// Median time per output token, ms.
    pub tpot_p50_ms: f64,
    /// Output tokens per simulated second.
    pub output_tokens_per_s: f64,
    /// Injected faults.
    pub faults: usize,
    /// Scale-outs on the timeline.
    pub scale_outs: usize,
    /// Scale-ins on the timeline.
    pub scale_ins: usize,
    /// Whether the drain cap was hit.
    pub drain_incomplete: bool,
    /// FNV-1a hash of the full `FleetMetrics` debug rendering, which prints
    /// every float in round-trip precision: equal digests mean bit-identical
    /// metrics.
    pub digest: u64,
}

impl SimOutputs {
    /// Summarise `metrics` for a trace of `offered` requests.
    pub fn of(metrics: &FleetMetrics, offered: usize) -> Self {
        Self {
            offered,
            completed: metrics.completed,
            rejected: metrics.rejected,
            failed: metrics.failed(),
            unroutable: metrics.unroutable_ids.len(),
            makespan_ms: metrics.makespan_ms,
            ttft_p50_ms: metrics.ttft.p50_ms,
            ttft_p99_ms: metrics.ttft.p99_ms,
            tpot_p50_ms: metrics.tpot.p50_ms,
            output_tokens_per_s: metrics.output_tokens_per_s,
            faults: metrics.faults.len(),
            scale_outs: metrics.scale_outs(),
            scale_ins: metrics.scale_ins(),
            drain_incomplete: metrics.drain_incomplete,
            digest: digest(&format!("{metrics:?}")),
        }
    }

    /// Why the run counts as failed, if it does: broken conservation
    /// (completed + rejected + failed ≠ offered, where rejected includes the
    /// unroutable), any request not completed, or an incomplete drain.
    pub fn problem(&self) -> Option<String> {
        if self.completed + self.rejected + self.failed != self.offered {
            return Some(format!(
                "conservation broken: {} completed + {} rejected + {} failed != {} offered",
                self.completed, self.rejected, self.failed, self.offered
            ));
        }
        if self.completed != self.offered {
            return Some(format!(
                "{} of {} requests not completed ({} rejected, {} unroutable, {} failed)",
                self.offered - self.completed,
                self.offered,
                self.rejected,
                self.unroutable,
                self.failed
            ));
        }
        if self.drain_incomplete {
            return Some("drain incomplete".to_string());
        }
        None
    }
}

/// FNV-1a, 64-bit.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Set-ups timed per untraced repetition.
pub const SETUP_SAMPLES: usize = 5;

/// Host timings and outputs of one repetition.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Trace generation plus building the backends and the controller, s
    /// (median of [`SETUP_SAMPLES`] set-ups when untraced).
    pub setup_s: f64,
    /// The trace-generation part of `setup_s`.
    pub trace_generate_s: f64,
    /// One `FleetController::validate(trace)`, s.
    pub validate_s: f64,
    /// `FleetController::run` over the trace, s.
    pub run_s: f64,
    /// What the simulation produced.
    pub outputs: SimOutputs,
}

/// Set up, validate and run `workload` once over a trace of `requests`. An
/// error names the failed check: a panic, a validation deny, or a failed
/// output check.
pub fn run_once(
    workload: Workload,
    seed: u64,
    requests: usize,
    tracer: Option<&Tracer>,
) -> Result<Rep, String> {
    catch_unwind(AssertUnwindSafe(|| {
        // Set-up takes well under a millisecond, so an untraced run times
        // several and keeps the median. A traced run sets up once: every
        // set-up registers its replicas with the tracer.
        let samples = if tracer.is_some() { 1 } else { SETUP_SAMPLES };
        let mut setup_times = Vec::with_capacity(samples);
        let mut built = None;
        for _ in 0..samples {
            let start = Instant::now();
            built = Some(setup(workload, seed, requests, tracer));
            setup_times.push(start.elapsed().as_secs_f64());
        }
        let built = built.expect("at least one set-up");
        let setup_s = median(&setup_times);

        let start = Instant::now();
        let report = built.controller.validate(&built.trace);
        let validate_s = start.elapsed().as_secs_f64();
        if !report.passes() {
            return Err(format!("validation denied:\n{}", report.render()));
        }
        // Validation may price probe steps; the log covers the run only.
        if let Some(tracer) = tracer {
            tracer.borrow_mut().clear();
        }

        let offered = built.trace.len();
        let start = Instant::now();
        let metrics = built.controller.run(&built.trace);
        let run_s = start.elapsed().as_secs_f64();

        let outputs = SimOutputs::of(&metrics, offered);
        if let Some(problem) = outputs.problem() {
            return Err(problem);
        }
        Ok(Rep {
            setup_s,
            trace_generate_s: built.trace_generate_s,
            validate_s,
            run_s,
            outputs,
        })
    }))
    .unwrap_or_else(|panic| {
        let message = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("panicked: {message}"))
    })
}
