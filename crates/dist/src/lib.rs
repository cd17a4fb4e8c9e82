//! Multi-GPU expert-parallel serving simulator for the Samoyeds
//! reproduction.
//!
//! The paper's headline memory result (Table 3) is single-GPU: dual-side
//! structured sparsity lets one consumer card hold MoE models that OOM in
//! dense form. At production scale MoE serving is *expert-parallel*: the
//! routed experts shard across many GPUs, every MoE layer pays two
//! all-to-all collectives (token dispatch and output combine, the GShard /
//! DeepSpeed-MoE data flow), and placement plus routing imbalance decide
//! the straggler that paces each step. This crate quantifies the paper's
//! compression as a *fleet-sizing* lever — fewer GPUs, or bigger models,
//! for the same traffic:
//!
//! * [`link`] — interconnect presets (NVLink / PCIe / InfiniBand) and the
//!   α-β all-to-all collective cost over per-GPU byte counts;
//! * [`topology`] — [`ClusterTopology`]: GPUs grouped into NVLink/PCIe
//!   islands stitched by an InfiniBand spine, priced as a two-phase
//!   hierarchical all-to-all over exact per-pair byte flows; a flat single
//!   island reproduces the single-level α-β cost bit for bit;
//! * [`placement`] — round-robin, capacity-aware greedy and
//!   replicated-hot-expert placement, validated against per-GPU memory
//!   budgets derived from the engines' weight representations;
//! * [`cluster`] — the cluster scheduler: dispatches per-(expert, source
//!   rank) token counts, straight from the router or counted from a
//!   [`RoutingPlan`](samoyeds_moe::router::RoutingPlan), to the experts'
//!   replicas, charges per-GPU
//!   compute through the existing engine/`gpu-sim` cost model plus
//!   all-to-all transfer time, and tracks utilization and
//!   straggler-induced step time;
//! * [`backend`] — [`ClusterBackend`], the expert-parallel implementation
//!   of the `samoyeds-serve`
//!   [`ExecutionBackend`](samoyeds_serve::ExecutionBackend) trait: the
//!   continuous-batching scheduler drives a whole pod (straggler compute +
//!   collectives per step, admission against the straggler GPU's budget);
//! * [`report`] — dense vs VENOM vs Samoyeds GPU-count sweeps, fleet
//!   sizing, placement comparisons and the cluster-serving sweep as
//!   markdown;
//! * [`validate`] — static checks that need both a fault schedule and the
//!   topology it targets (single-island partitions, out-of-range islands),
//!   on the shared `samoyeds_serve::validate` diagnostic engine.
//!
//! ```
//! use samoyeds_dist::{ClusterConfig, ClusterEngine, ClusterSimulator};
//! use samoyeds_gpu_sim::DeviceSpec;
//! use samoyeds_moe::config::MoeModelConfig;
//! use samoyeds_moe::router::TopKRouter;
//!
//! let model = MoeModelConfig::qwen2_moe();
//! let plan = TopKRouter::for_config(&model, 42).route(1024);
//! let sim = ClusterSimulator::new(
//!     ClusterConfig::new(DeviceSpec::a100_40g(), 4, ClusterEngine::Samoyeds),
//!     model,
//! );
//! let step = sim.step(&plan).unwrap();
//! assert!(step.all_to_all_ms > 0.0);
//! assert_eq!(step.sharded_assignments, plan.total_assignments());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cluster;
pub mod link;
pub mod placement;
pub mod report;
pub mod topology;
pub mod validate;

pub use backend::ClusterBackend;
pub use cluster::{min_gpus_to_fit, ClusterConfig, ClusterSimulator, ClusterStepReport};
pub use link::LinkSpec;
pub use placement::{
    replan_after_crash, ClusterEngine, ClusterMemoryModel, ExpertMove, ExpertPlacement,
    PlacementStrategy, RecoveryPlan,
};
pub use report::{
    render_fleet_sizing, render_placement_comparison, render_topology_placement, ClusterReport,
    ClusterServingEntry, ClusterServingReport, DisaggSweepEntry, DisaggSweepOutcome,
    DisaggSweepReport, FaultSweepEntry, FaultSweepReport, FleetAutoscaleEntry,
    FleetAutoscaleReport, FleetKind, FleetTraceReport, TopologySweepEntry, TopologySweepReport,
};
pub use topology::{ClusterTopology, FlowMatrix, HierarchicalCost, Island};
pub use validate::validate_fault_schedule;
