//! Analytical GPU performance model for the Samoyeds reproduction.
//!
//! The paper evaluates its kernels on real NVIDIA GPUs. In this reproduction
//! the kernels are executed *functionally* on the CPU (see
//! `samoyeds-kernels`), and this crate predicts how long the same instruction
//! stream and memory traffic would take on a given GPU. The model is
//! deliberately analytical — a roofline extended with the effects the paper's
//! analysis leans on:
//!
//! * device database ([`device`]) — RTX 4070 Super (the paper's main
//!   platform), RTX 3090, RTX 4090, A100, W7900 and MI300, with the
//!   SM/L2/bandwidth/tensor-core parameters that drive §6.6's portability
//!   discussion;
//! * occupancy ([`occupancy`]) — warps per SM from register / shared-memory /
//!   thread limits, plus wave quantisation (tail effect);
//! * memory hierarchy ([`memory`]) — coalescing efficiency, L2 hit modelling,
//!   shared-memory bank passes;
//! * cost model ([`cost`]) — combines a kernel's [`cost::KernelProfile`] into
//!   a predicted execution time on a [`device::DeviceSpec`];
//! * kernel statistics ([`stats`]) — the measurement record every simulated
//!   kernel returns (time, traffic, utilisation), used by all experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod device;
pub mod memory;
pub mod occupancy;
pub mod stats;

pub use cost::{CostModel, KernelProfile};
pub use device::{DeviceSpec, GpuArch, Interconnect};
pub use occupancy::{LaunchConfig, Occupancy};
pub use stats::KernelStats;
