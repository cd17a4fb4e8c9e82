//! Experiment harness: one function per table and figure of the paper.
//!
//! Every function returns its result as markdown lines (a `Vec<String>`),
//! and [`EXPERIMENTS`] registers each under the id the `experiments` binary
//! prints it as and writes it to (`results/<id>.md`). The functions are
//! deterministic and run entirely on the analytical cost model, so the full
//! harness completes in under a second in release mode.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod perf;

pub use experiments::{ExperimentEntry, EXPERIMENTS};
pub use perf::{parse_bench_json, regressions, BenchTimings, Regression};
