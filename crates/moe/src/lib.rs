//! Mixture-of-Experts substrate for the Samoyeds reproduction.
//!
//! This crate builds everything above the kernels that the paper's
//! model-level experiments (§6.2–§6.4, §6.7) need:
//!
//! * [`config`] — the six MoE LLM configurations of Table 2 plus the proxy
//!   models used by the accuracy study;
//! * [`router`] — the top-k token router, shared-expert handling and the
//!   per-expert selection arrays (the source of the input-side sparsity);
//! * [`expert`] — the expert MLP (gate/up/down projections + activation) and
//!   its functional forward pass;
//! * [`engines`] — the five execution engines compared in the paper
//!   (Transformers, MegaBlocks, vLLM-DS, PIT and Samoyeds), each producing a
//!   predicted MoE-layer execution time and memory footprint on a device;
//! * [`attention`] — attention-layer cost (standard and Flash-Attention) for
//!   the time-breakdown and end-to-end experiments;
//! * [`decoder`] — the decoder layer combining attention and MoE;
//! * [`memory`] — the memory-footprint model behind the maximum-batch-size
//!   study (Table 3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attention;
pub mod config;
pub mod decoder;
pub mod engines;
pub mod expert;
pub mod memory;
mod price_cache;
pub mod router;

pub use config::MoeModelConfig;
pub use decoder::DecoderLayer;
pub use engines::{Engine, EngineKind, LayerCost};
pub use router::{RouteScratch, RoutingPlan, TopKRouter};
