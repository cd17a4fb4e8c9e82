//! Functional model of the (Sparse) Tensor Core instructions used by the
//! Samoyeds kernels.
//!
//! The paper's kernels are written against the PTX `mma`/`mma.sp` warp-level
//! matrix instructions and the `ldmatrix` collective load (§2.3, §4.1, §4.4).
//! Neither exists on a CPU, so this crate provides:
//!
//! * [`mma`] — bit-faithful *functional* semantics of the dense
//!   `mma.m16n8k16` and sparse `mma.sp.m16n8k32` tile operations (values are
//!   computed exactly, operands optionally pass through bf16 rounding);
//! * [`ldmatrix`] — the collective shared-memory→register load, including the
//!   bank-conflict behaviour of swizzled vs. naive shared-memory layouts.
//!
//! `samoyeds-kernels`' `SamoyedsKernel` uses both: its functional path runs
//! Algorithm 1 fragment by fragment through [`mma_sp_m16n8k32`], and its cost
//! model charges the shared-memory bank passes of
//! [`ldmatrix::staging_report`]. A unit test there checks that the cost
//! model's sparse tensor FLOPs equal the FLOPs of the `mma.sp` issues the
//! functional path makes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ldmatrix;
pub mod mma;

pub use mma::{mma_m16n8k16, mma_sp_m16n8k32, MmaTile, SparseATile};
