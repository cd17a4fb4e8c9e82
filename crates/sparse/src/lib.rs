//! Sparse matrix formats for the Samoyeds reproduction.
//!
//! This crate implements every data representation the paper's evaluation
//! touches:
//!
//! * [`dense::DenseMatrix`] — the baseline row-major dense representation and
//!   the reference GEMM used as a correctness oracle everywhere else.
//! * [`csr::CsrMatrix`] — the unstructured format the Sputnik-like baseline
//!   kernel (`samoyeds-kernels`' `CsrSpmm`) multiplies.
//! * [`nm::NmMatrix`] — element-wise N:M structured sparsity (2:4 being the
//!   hardware-supported instance), encoded as compressed values plus a 2-bit
//!   metadata matrix exactly as consumed by `mma.sp`.
//! * [`venom::VenomMatrix`] — the V:N:M format of the VENOM baseline
//!   (vector-wise column pruning combined with 2:4 inside the kept columns).
//! * [`samoyeds::SamoyedsWeight`] — the paper's dual-side weight format:
//!   blocks of `M` Sub-Rows of length `V`, of which `N` are retained, with 2:4
//!   pruning inside each retained Sub-Row; encoded into `{data, indices,
//!   metadata}`.
//! * [`sel::SelectionArray`] / [`sel::SelInput`] — the input-side vector-wise
//!   sparsity produced by MoE token routing (the `SEL` array of Algorithm 1).
//! * [`prune`] — magnitude pruning of dense weights into each of the formats.
//!
//! The formats differ in layout, not in their rules. Each implements
//! [`SparseFormat`] with one walk over its stored values,
//! [`SparseFormat::for_each_entry`], and the trait builds the non-zero count,
//! the dense reconstruction and the reference product on that walk. Each
//! structured format's pruner keeps, per group, the `n` positions with the
//! largest scores (magnitude for the 2:4 step, L2 norm for the vector-wise
//! step), ties going to the lower position: one rule for all of them.
//!
//! All floating point payloads are `f32` but can be passed through
//! [`dense::quantize_bf16`] to emulate the bfloat16 operands the paper uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
pub mod dense;
pub mod error;
pub mod nm;
pub mod prune;
pub mod samoyeds;
pub mod sel;
pub mod traits;
pub mod venom;

pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use error::{Result, SparseError};
pub use nm::NmMatrix;
pub use samoyeds::{SamoyedsConfig, SamoyedsWeight};
pub use sel::{SelInput, SelectionArray};
pub use traits::SparseFormat;
pub use venom::VenomMatrix;
