//! Host-cost benchmark of the Samoyeds fleet simulator.
//!
//! The benchmark measures what the simulator costs to run (host time and
//! memory), never the simulated time it predicts. Simulated outputs are
//! checked and printed beside the host metrics so that a speed-only change
//! can show them unchanged. See `NOTES.md` for the workloads and the
//! layer → metric map.

pub mod measure;
pub mod probe;
pub mod run;
pub mod stats;
pub mod workloads;
