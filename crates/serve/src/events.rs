//! Event-queue core for the fleet simulation.
//!
//! The online fleet used to advance in fixed control ticks: every 200 ms of
//! simulated time cost one full pass over every replica even when the whole
//! fleet was idle. [`EventQueue`] replaces that with next-event time advance —
//! a [`std::collections::BinaryHeap`] ordered by timestamp pops the next
//! *thing that happens* (a request arrival, a replica finishing an engine
//! step, a control tick, a warm-up completing, a drained replica retiring)
//! and the clock jumps straight to it. Idle periods cost zero work, which is
//! what lets a 100-replica fleet chew through a million-request trace in
//! seconds instead of minutes.
//!
//! Determinism is load-bearing: the root `goldens` snapshots pin every
//! emitted event and metric bit for bit, so ordering between events that
//! share a timestamp must be total. Two events at the same time are ordered
//! by *event class* — warm-up completions first (a replica is routable the
//! instant its warm-up lands), then drain retirements, injected faults and
//! their recoveries, KV-transfer landings, control ticks, arrivals, and step
//! completions — and ties within a class are FIFO by insertion sequence.

// A poisoned queue should surface as a diagnostic, not a panic mid-sweep;
// CI's `clippy -D warnings` turns an `.unwrap()` here into an error.
#![warn(clippy::unwrap_used)]

/// One schedulable occurrence in the fleet simulation.
///
/// The variants carry indices into the controller's slot table or trace
/// rather than references, so events stay `Copy` and the queue owns nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetEvent {
    /// A commissioning replica finishes warm-up and becomes routable.
    WarmupComplete {
        /// Index of the slot in the controller's replica table.
        slot: usize,
    },
    /// A draining replica has emptied and leaves the fleet.
    DrainRetire {
        /// Index of the slot in the controller's replica table.
        slot: usize,
    },
    /// An injected fault fires (replica crash, link degradation, island
    /// partition — see `serve::faults`).
    Fault {
        /// Index into the controller's resolved fault list.
        index: usize,
    },
    /// A fault's recovery completes (re-admission after weight transfer, a
    /// degraded link or partitioned island restoring).
    FaultRecovery {
        /// Index into the controller's resolved fault list.
        index: usize,
    },
    /// A prefill→decode KV-cache transfer lands on its decode pod
    /// (disaggregated fleets only — see `serve::fleet`).
    KvTransferComplete {
        /// Index into the controller's pending-transfer table.
        transfer: usize,
    },
    /// The autoscaler's periodic observation point.
    ControlTick {
        /// 1-based tick number; the tick fires at `index as f64 * tick_ms`,
        /// derived per tick rather than accumulated so the schedule cannot
        /// drift (see the tick-drift regression test in `fleet.rs`).
        index: u64,
    },
    /// The next request in the trace reaches the fleet router.
    Arrival {
        /// Index of the request within the trace.
        index: usize,
    },
    /// A replica completes one engine step and asks for its next one.
    StepCompletion {
        /// Index of the slot in the controller's replica table.
        slot: usize,
    },
}

impl FleetEvent {
    /// Same-timestamp ordering class: lower fires first. Warm-ups land
    /// before the tick that would observe them, retirements precede
    /// observation, ticks at `t` run before arrivals at `t`, and a step
    /// starting at `t` runs once routing at that instant is done, so it
    /// admits what arrived then. Faults land after retirements but before
    /// the tick (and arrival) at the same instant: the autoscaler observes
    /// the damage, and a request arriving the instant a replica crashes is
    /// never routed to the corpse. A recovery coinciding with the fault that
    /// scheduled it fires after it. A KV transfer landing fires after
    /// recoveries (a re-routed transfer aimed at a pod that just recovered
    /// sees it alive) but before the tick and the arrivals at the same
    /// instant: the decode pod holds the request before the autoscaler
    /// observes the fleet and before same-instant arrivals route. This match
    /// is the only copy of the order: a new variant picks its slot here.
    fn class(self) -> u8 {
        match self {
            FleetEvent::WarmupComplete { .. } => 0,
            FleetEvent::DrainRetire { .. } => 1,
            FleetEvent::Fault { .. } => 2,
            FleetEvent::FaultRecovery { .. } => 3,
            FleetEvent::KvTransferComplete { .. } => 4,
            FleetEvent::ControlTick { .. } => 5,
            FleetEvent::Arrival { .. } => 6,
            FleetEvent::StepCompletion { .. } => 7,
        }
    }
}

/// Heap entry: timestamp plus the tie-break key (class, then FIFO sequence).
#[derive(Debug, Clone, Copy)]
struct QueuedEvent {
    at_ms: f64,
    class: u8,
    seq: u64,
    event: FleetEvent,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for QueuedEvent {}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueuedEvent {
    /// Inverted so the `BinaryHeap` max-heap pops the *earliest* event:
    /// smallest timestamp, then smallest class, then smallest sequence.
    /// `total_cmp` keeps the order total even for exotic `f64`s (the queue
    /// never holds NaN, but a panic-free total order is cheap insurance).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .at_ms
            .total_cmp(&self.at_ms)
            .then(other.class.cmp(&self.class))
            .then(other.seq.cmp(&self.seq))
    }
}

/// Deterministic time-ordered event queue for the fleet simulation.
///
/// A thin wrapper over [`std::collections::BinaryHeap`] that fixes the
/// ordering contract: events pop in ascending timestamp, same-timestamp
/// events pop in [`FleetEvent`] class order, and same-class ties pop FIFO.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: std::collections::BinaryHeap<QueuedEvent>,
    seq: u64,
}

impl EventQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `event` at absolute simulated time `at_ms`.
    pub fn push(&mut self, at_ms: f64, event: FleetEvent) {
        debug_assert!(!at_ms.is_nan(), "events cannot be scheduled at NaN");
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(QueuedEvent {
            at_ms,
            class: event.class(),
            seq,
            event,
        });
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<(f64, FleetEvent)> {
        self.heap.pop().map(|q| (q.at_ms, q.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_ascending_time_order() {
        let mut q = EventQueue::new();
        q.push(300.0, FleetEvent::Arrival { index: 2 });
        q.push(100.0, FleetEvent::Arrival { index: 0 });
        q.push(200.0, FleetEvent::Arrival { index: 1 });
        let order: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(order, vec![100.0, 200.0, 300.0]);
    }

    #[test]
    fn same_time_events_pop_in_class_order() {
        let mut q = EventQueue::new();
        // Inserted in reverse class order; all at t = 400.
        q.push(400.0, FleetEvent::StepCompletion { slot: 0 });
        q.push(400.0, FleetEvent::Arrival { index: 9 });
        q.push(400.0, FleetEvent::ControlTick { index: 2 });
        q.push(400.0, FleetEvent::KvTransferComplete { transfer: 7 });
        q.push(400.0, FleetEvent::FaultRecovery { index: 4 });
        q.push(400.0, FleetEvent::Fault { index: 4 });
        q.push(400.0, FleetEvent::DrainRetire { slot: 1 });
        q.push(400.0, FleetEvent::WarmupComplete { slot: 3 });
        let order: Vec<FleetEvent> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            vec![
                FleetEvent::WarmupComplete { slot: 3 },
                FleetEvent::DrainRetire { slot: 1 },
                FleetEvent::Fault { index: 4 },
                FleetEvent::FaultRecovery { index: 4 },
                FleetEvent::KvTransferComplete { transfer: 7 },
                FleetEvent::ControlTick { index: 2 },
                FleetEvent::Arrival { index: 9 },
                FleetEvent::StepCompletion { slot: 0 },
            ]
        );
    }

    #[test]
    fn classes_are_the_declaration_order() {
        let events = [
            FleetEvent::WarmupComplete { slot: 0 },
            FleetEvent::DrainRetire { slot: 0 },
            FleetEvent::Fault { index: 0 },
            FleetEvent::FaultRecovery { index: 0 },
            FleetEvent::KvTransferComplete { transfer: 0 },
            FleetEvent::ControlTick { index: 0 },
            FleetEvent::Arrival { index: 0 },
            FleetEvent::StepCompletion { slot: 0 },
        ];
        for (position, event) in events.into_iter().enumerate() {
            // Exhaustive on purpose: a new variant does not compile until it
            // is listed above, in declaration order.
            match event {
                FleetEvent::WarmupComplete { .. }
                | FleetEvent::DrainRetire { .. }
                | FleetEvent::Fault { .. }
                | FleetEvent::FaultRecovery { .. }
                | FleetEvent::KvTransferComplete { .. }
                | FleetEvent::ControlTick { .. }
                | FleetEvent::Arrival { .. }
                | FleetEvent::StepCompletion { .. } => {
                    assert_eq!(usize::from(event.class()), position, "{event:?}");
                }
            }
        }
    }

    #[test]
    fn same_time_same_class_ties_are_fifo() {
        let mut q = EventQueue::new();
        for slot in 0..8 {
            q.push(50.0, FleetEvent::StepCompletion { slot });
        }
        for expected in 0..8 {
            match q.pop() {
                Some((_, FleetEvent::StepCompletion { slot })) => assert_eq!(slot, expected),
                other => panic!("unexpected event {other:?}"),
            }
        }
    }
}
