//! Facade crate for the Samoyeds reproduction.
//!
//! Re-exports every workspace crate under one namespace so that examples,
//! integration tests and downstream users can write `samoyeds::kernels::…`
//! instead of depending on each member crate individually.
//!
//! See the README's *Workspace layout* section for the crate inventory and
//! its *Experiment harness* section for the per-table/figure experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use samoyeds_dist as dist;
pub use samoyeds_gpu_sim as gpu_sim;
pub use samoyeds_kernels as kernels;
pub use samoyeds_moe as moe;
pub use samoyeds_pruning as pruning;
pub use samoyeds_serve as serve;
pub use samoyeds_sparse as sparse;
pub use samoyeds_sptc as sptc;

/// The crate version (matches every workspace member).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_exposed() {
        assert!(!super::VERSION.is_empty());
    }
}
