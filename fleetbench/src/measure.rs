//! The measurement loop of one workload: repeat the simulation until the
//! time budget is spent, check every repetition, and reduce the host
//! timings to the end-to-end or per-layer metrics.

use crate::probe::{replay, tracer, LayerTotals, TraceLog, EVENT_NAMES};
use crate::run::{run_once, Rep, SimOutputs};
use crate::stats::{median, peak_rss_mib, quantile_u64};
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("run_s", "s"),
    ("sim_requests_per_host_s", "req/s"),
    ("host_us_per_sim_step", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Repetitions after the warm-up that a measurement makes at least, however
/// short its time budget.
pub const MIN_REPS: usize = 3;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Simulated outputs plus the counts only a traced run can see.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// The checked `FleetMetrics` summary.
    pub outputs: SimOutputs,
    /// Engine steps priced.
    pub steps: u64,
    /// KV-cache handoffs started (visible through the sink).
    pub kv_transfers: u64,
}

/// What one workload measurement produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload.
    pub workload: Workload,
    /// Workload runs attempted (untimed warm-up and traced runs included).
    pub attempted: u64,
    /// Runs that failed a check.
    pub failed: u64,
    /// What failed, one line per failed run.
    pub problems: Vec<String>,
    /// Host seconds of every timed untraced `FleetController::run`.
    pub run_times: Vec<f64>,
    /// The end-to-end (untraced) or per-layer (traced) metrics.
    pub metrics: Vec<Metric>,
    /// Simulated outputs, when any run succeeded.
    pub sim: Option<SimReport>,
}

/// Counts runs and checks each against the first successful one: a
/// repetition of the same seed, traced or not, must reproduce its
/// simulated outputs bit for bit.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    reference: Option<SimOutputs>,
}

impl Tally {
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    fn check(&mut self, result: Result<Rep, String>) -> Option<Rep> {
        self.attempted += 1;
        let rep = match result {
            Ok(rep) => rep,
            Err(problem) => {
                self.fail(problem);
                return None;
            }
        };
        match &self.reference {
            None => self.reference = Some(rep.outputs.clone()),
            Some(reference) if *reference != rep.outputs => {
                self.fail("simulated outputs differ between runs of one seed".to_string());
                return None;
            }
            Some(_) => {}
        }
        Some(rep)
    }
}

/// One traced repetition, its log and its replayed layer totals. A replay
/// that re-prices any step differently from the backend fails the run.
fn traced_rep(
    tally: &mut Tally,
    workload: Workload,
    seed: u64,
) -> Option<(Rep, TraceLog, LayerTotals)> {
    let tracer = tracer();
    let rep = tally.check(run_once(workload, seed, workload.requests(), Some(&tracer)))?;
    let mut log = std::rc::Rc::try_unwrap(tracer)
        .ok()
        .expect("the run dropped every probe with its controller")
        .into_inner();
    let totals = replay(&mut log);
    if totals.mismatches > 0 {
        tally.fail(format!(
            "replay re-priced {} of {} steps differently from the backend",
            totals.mismatches, totals.steps
        ));
        return None;
    }
    Some((rep, log, totals))
}

/// Event-queue events of a run, reconstructed from counts: one arrival per
/// request, one completion per priced step, plus the control ticks,
/// warm-ups, retirements, handoffs and fault events the sink saw.
fn fleet_events(offered: usize, log: &TraceLog) -> u64 {
    const SINK_EVENTS: [&str; 9] = [
        "ControlTick",
        "WarmupComplete",
        "Retired",
        "KvTransferComplete",
        "ReplicaCrashed",
        "LinkDegraded",
        "IslandPartitioned",
        "LinkRestored",
        "RecoveryComplete",
    ];
    let from_sink: u64 = SINK_EVENTS.iter().map(|name| log.events_named(name)).sum();
    offered as u64 + log.steps.len() as u64 + from_sink
}

/// Every per-layer metric of one traced run, `bare` being the untraced
/// repetition run just before it.
pub fn layer_metrics(bare: &Rep, traced: &Rep, log: &TraceLog, t: &LayerTotals) -> Vec<Metric> {
    let s = |ns: u64| ns as f64 / 1e9;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let step_ns: Vec<u64> = log.steps.iter().map(|st| st.busy_ns).collect();
    let step_busy = s(log.step_busy_ns());
    let emit_busy = s(log.emit_busy_ns);
    let tokens: u64 = log.steps.iter().map(|st| st.tokens as u64).sum();
    let layer_cost_ns: u64 = t.layer_cost_ns.iter().sum();
    // Self time within the traced run: the intervals inside the probes are
    // disjoint parts of it, so busy + self telescopes to the traced run_s,
    // which is the untraced run_s plus the tracing overhead.
    let self_s = traced.run_s - step_busy - emit_busy;
    let events = fleet_events(traced.outputs.offered, log);
    let mut m = vec![
        (
            "serve.backend.step_cost.calls",
            "count",
            step_ns.len() as f64,
        ),
        ("serve.backend.step_cost.busy_s", "s", step_busy),
        (
            "serve.backend.step_cost.us_p50",
            "us",
            quantile_u64(&step_ns, 0.5) as f64 / 1e3,
        ),
        (
            "serve.backend.step_cost.us_p99",
            "us",
            quantile_u64(&step_ns, 0.99) as f64 / 1e3,
        ),
        (
            "serve.backend.step_cost.tokens_mean",
            "tokens",
            ratio(tokens as f64, step_ns.len() as f64),
        ),
        (
            "serve.backend.attention_step.busy_s",
            "s",
            s(t.attention_ns),
        ),
        (
            "serve.backend.auxiliary_step.busy_s",
            "s",
            s(t.auxiliary_ns),
        ),
        ("moe.router.route_seeded.busy_s", "s", s(t.route_ns)),
        (
            "moe.router.route_seeded.ns_per_token",
            "ns",
            ratio(t.route_ns as f64, t.route_tokens as f64),
        ),
        ("moe.engines.moe_layer_cost.busy_s", "s", s(layer_cost_ns)),
        (
            "moe.engines.moe_layer_cost.us_p50",
            "us",
            quantile_u64(&t.layer_cost_ns, 0.5) as f64 / 1e3,
        ),
        (
            "moe.engines.active_experts_mean",
            "count",
            ratio(t.active_experts as f64, t.layer_cost_ns.len() as f64),
        ),
        (
            "moe.engines.ns_per_active_expert",
            "ns",
            ratio(layer_cost_ns as f64, t.active_experts as f64),
        ),
        ("dist.placement.place_on.busy_s", "s", s(t.place_ns)),
        (
            "dist.placement.fallback_ratio",
            "ratio",
            ratio(t.place_fallbacks as f64, t.place_attempts as f64),
        ),
        (
            "dist.cluster.step_with_placement.busy_s",
            "s",
            s(t.cluster_step_ns),
        ),
        ("serve.telemetry.emit.calls", "count", log.emit_calls as f64),
        ("serve.telemetry.emit.busy_s", "s", emit_busy),
        ("serve.fleet.self_s", "s", self_s),
        (
            "serve.fleet.ns_per_event",
            "ns",
            ratio(self_s * 1e9, events as f64),
        ),
        ("serve.validate.s", "s", bare.validate_s),
        ("serve.trace.generate_s", "s", bare.trace_generate_s),
        ("trace.overhead_s", "s", traced.run_s - bare.run_s),
        (
            "trace.accounted_share",
            "ratio",
            ratio(s(t.busy_ns()) + emit_busy + self_s, traced.run_s),
        ),
    ]
    .into_iter()
    .map(|(name, unit, value)| Metric {
        name: name.to_string(),
        unit,
        value,
    })
    .collect::<Vec<_>>();
    for (name, count) in EVENT_NAMES.iter().zip(log.events) {
        m.push(Metric {
            name: format!("serve.events.{name}"),
            unit: "count",
            value: count as f64,
        });
    }
    m
}

/// Measure `workload` on `seed` for about `seconds` of host time. With
/// `trace`, untraced and traced repetitions alternate and the per-layer
/// metrics are reported (spans of the last traced run are written to
/// `spans_out`); otherwise only untraced repetitions are timed and the
/// end-to-end metrics are reported.
pub fn measure(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans_out: Option<&Path>,
) -> Outcome {
    let budget = Duration::from_secs(seconds);
    let mut tally = Tally::default();
    let start = Instant::now();
    // Untimed warm-up: fills caches and fixes the reference outputs.
    tally.check(run_once(workload, seed, workload.requests(), None));

    let mut bare: Vec<Rep> = Vec::new();
    let mut layers: BTreeMap<String, (&'static str, Vec<f64>)> = BTreeMap::new();
    let mut last_traced: Option<(Rep, TraceLog)> = None;
    loop {
        let rep = tally.check(run_once(workload, seed, workload.requests(), None));
        if trace {
            if let (Some(rep), Some((traced, log, totals))) =
                (&rep, traced_rep(&mut tally, workload, seed))
            {
                for metric in layer_metrics(rep, &traced, &log, &totals) {
                    let entry = layers.entry(metric.name).or_insert((metric.unit, vec![]));
                    entry.1.push(metric.value);
                }
                last_traced = Some((traced, log));
            }
        }
        bare.extend(rep);
        if start.elapsed() >= budget && tally.attempted as usize > MIN_REPS {
            break;
        }
    }
    let peak_rss = peak_rss_mib();

    // The step count is visible only through the probes; the untraced
    // measurement takes it from one traced run after the timing (and after
    // reading peak memory), which also checks traced against untraced.
    if last_traced.is_none() {
        if let Some((rep, log, _)) = traced_rep(&mut tally, workload, seed) {
            last_traced = Some((rep, log));
        }
    }
    if let (Some(path), Some((_, log))) = (spans_out, &last_traced) {
        if let Err(e) = write_spans(path, log) {
            tally.fail(format!("writing spans to {}: {e}", path.display()));
        }
    }

    let sim = last_traced.as_ref().map(|(rep, log)| SimReport {
        outputs: rep.outputs.clone(),
        steps: log.steps.len() as u64,
        kv_transfers: log.events_named("KvTransferStarted"),
    });
    let metrics = if trace {
        layers
            .into_iter()
            .map(|(name, (unit, values))| Metric {
                name,
                unit,
                value: median(&values),
            })
            .collect()
    } else {
        end_to_end(&bare, sim.as_ref(), peak_rss)
    };
    if metrics.is_empty() && tally.failed == 0 {
        tally.fail("no repetition produced metrics".to_string());
    }
    Outcome {
        workload,
        attempted: tally.attempted,
        failed: tally.failed,
        problems: tally.problems,
        run_times: bare.iter().map(|r| r.run_s).collect(),
        metrics,
        sim,
    }
}

fn end_to_end(bare: &[Rep], sim: Option<&SimReport>, peak_rss: Option<f64>) -> Vec<Metric> {
    let (Some(sim), Some(peak_rss), false) = (sim, peak_rss, bare.is_empty()) else {
        return Vec::new();
    };
    // The fastest repetition: every repetition does identical,
    // deterministic work, and interference from other load on the machine
    // only ever adds time, in stretches that can outlast many repetitions.
    let fastest = |time: fn(&Rep) -> f64| bare.iter().map(time).fold(f64::INFINITY, f64::min);
    let run_s = fastest(|r| r.run_s);
    let setup_s = fastest(|r| r.setup_s);
    let values = [
        run_s,
        sim.outputs.completed as f64 / run_s,
        run_s / sim.steps as f64 * 1e6,
        setup_s,
        peak_rss,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_string(),
            unit,
            value,
        })
        .collect()
}

fn write_spans(path: &Path, log: &TraceLog) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    log.write_spans(&mut out)?;
    std::io::Write::flush(&mut out)
}
