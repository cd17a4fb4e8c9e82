//! The probes must observe without changing anything: a traced run leaves
//! `FleetMetrics` bit-identical, and every replay re-prices exactly what the
//! backend priced.

use fleetbench::probe::{replay, tracer, SpanName, TraceLog};
use fleetbench::run::{run_once, SimOutputs};
use fleetbench::workloads::{setup, Workload};

const REQUESTS: usize = 48;
const SEED: u64 = 3;

fn metrics_debug(workload: Workload, traced: bool) -> (String, Option<TraceLog>) {
    let t = tracer();
    let built = setup(workload, SEED, REQUESTS, traced.then_some(&t));
    let metrics = built.controller.run(&built.trace);
    let log = traced.then(|| {
        std::rc::Rc::try_unwrap(t)
            .ok()
            .expect("probes dropped with the controller")
            .into_inner()
    });
    (format!("{metrics:?}"), log)
}

#[test]
fn probes_leave_fleet_metrics_bit_identical() {
    for workload in Workload::ALL {
        let (bare, _) = metrics_debug(workload, false);
        let (traced, log) = metrics_debug(workload, true);
        assert_eq!(bare, traced, "{}", workload.name());
        assert!(!log.expect("traced").steps.is_empty());
    }
}

#[test]
fn replays_price_exactly_what_the_backend_priced() {
    for workload in Workload::ALL {
        let (_, log) = metrics_debug(workload, true);
        let mut log = log.expect("traced");
        let totals = replay(&mut log);
        assert_eq!(totals.steps as usize, log.steps.len());
        assert_eq!(totals.mismatches, 0, "{}", workload.name());
        let cluster_steps = workload == Workload::PodsDisaggFaults;
        assert_eq!(totals.place_attempts > 0, cluster_steps);
        assert_eq!(totals.cluster_step_ns > 0, cluster_steps);
        assert!(totals.route_ns > 0 && !totals.layer_cost_ns.is_empty());
    }
}

#[test]
fn replay_detects_a_step_priced_from_other_inputs() {
    let (_, log) = metrics_debug(Workload::FleetPoisson, true);
    let mut log = log.expect("traced");
    // Reseed one recorded step's router: its replayed plan, and so its
    // cost, no longer matches what the backend priced.
    let step = log
        .steps
        .iter()
        .position(|s| s.tokens > 1)
        .expect("a multi-token step");
    log.steps[step].step_index ^= 1;
    assert_eq!(replay(&mut log).mismatches, 1);
}

#[test]
fn replay_spans_hang_off_the_step_they_reprice() {
    let (_, log) = metrics_debug(Workload::PodsDisaggFaults, true);
    let mut log = log.expect("traced");
    replay(&mut log);
    let mut replayed = 0;
    for span in &log.spans {
        assert!(span.start_ns <= span.end_ns);
        match span.name {
            SpanName::StepCost | SpanName::Emit => assert!(span.parent.is_none()),
            _ => {
                let parent = &log.spans[span.parent.expect("replay parent") as usize];
                assert_eq!(parent.name, SpanName::StepCost);
                assert_eq!(parent.replica, span.replica);
                replayed += 1;
            }
        }
    }
    assert!(replayed > 0);
    assert!(log.emit_calls > 0 && log.spans.iter().any(|s| s.name == SpanName::Emit));
}

#[test]
fn repetitions_of_a_seed_reproduce_their_outputs() {
    for workload in Workload::ALL {
        let a = run_once(workload, SEED, REQUESTS, None).expect("run succeeds");
        let t = tracer();
        let b = run_once(workload, SEED, REQUESTS, Some(&t)).expect("traced run succeeds");
        assert_eq!(a.outputs, b.outputs, "{}", workload.name());
        assert_eq!(a.outputs.completed, REQUESTS);
    }
    let other = run_once(Workload::FleetPoisson, SEED + 1, REQUESTS, None).expect("run");
    let first = run_once(Workload::FleetPoisson, SEED, REQUESTS, None).expect("run");
    assert_ne!(other.outputs.digest, first.outputs.digest);
}

#[test]
fn output_checks_flag_lost_and_unaccounted_requests() {
    let built = setup(Workload::FleetPoisson, SEED, REQUESTS, None);
    let metrics = built.controller.run(&built.trace);
    let ok = SimOutputs::of(&metrics, REQUESTS);
    assert_eq!(ok.problem(), None);
    let unaccounted = SimOutputs {
        offered: REQUESTS + 1,
        ..ok.clone()
    };
    assert!(unaccounted.problem().unwrap().contains("conservation"));
    let lost = SimOutputs {
        completed: REQUESTS - 1,
        failed: 1,
        ..ok.clone()
    };
    assert!(lost.problem().unwrap().contains("not completed"));
    let stuck = SimOutputs {
        drain_incomplete: true,
        ..ok
    };
    assert_eq!(stuck.problem().as_deref(), Some("drain incomplete"));
}
