//! Hierarchical topology sweep: the same 8-GPU expert-parallel fleet and
//! the same skewed routing plan, priced over three interconnect layouts —
//! one flat NVLink island, 2×4 NVLink islands stitched by an InfiniBand
//! NDR spine, and 4×2 PCIe hosts on the same spine — under dense, VENOM
//! and Samoyeds weights. The point: the moment a fleet outgrows one NVLink
//! island, roughly half of every dispatch/combine all-to-all crosses a
//! fabric an order of magnitude slower, and the spine — not compute, not
//! NVLink — becomes the straggler. Island-aware hot-expert replication
//! (`PlacementStrategy::ReplicateHotPerIsland`) keeps the hottest experts'
//! traffic inside the islands and pulls bytes back off the spine.
//!
//! Run with `cargo run --release --example topology_sweep [model]` where
//! `model` is one of `qwen2` (default), `deepseek`, `mixtral`.

use samoyeds::dist::{
    render_topology_placement, ClusterConfig, ClusterEngine, ClusterSimulator, ClusterTopology,
    LinkSpec, PlacementStrategy, TopologySweepReport,
};
use samoyeds::gpu_sim::DeviceSpec;
use samoyeds::moe::config::MoeModelConfig;
use samoyeds::moe::router::TopKRouter;

fn main() {
    let model = match std::env::args().nth(1).as_deref() {
        Some("deepseek") => MoeModelConfig::deepseek_moe(),
        Some("mixtral") => MoeModelConfig::mixtral_8x7b(),
        _ => MoeModelConfig::qwen2_moe(),
    };

    // The full sweep: three layouts x three engines, one shared skewed plan,
    // closed by the spine-bound contrast.
    for line in TopologySweepReport::sweep(&model, 4096, 1.5, 42).render_markdown() {
        println!("{line}");
    }
    println!();

    // Topology-aware placement on the 2x4 layout: one replica of each hot
    // expert per island keeps its tokens off the spine.
    let two_by_four =
        ClusterTopology::symmetric(2, 4, LinkSpec::nvlink3(), LinkSpec::infiniband_ndr())
            .expect("2x4 is a valid layout");
    for line in render_topology_placement(&model, &two_by_four, 4096, 1.5, 9) {
        println!("{line}");
    }

    // One cell in detail: the per-phase split of a single step.
    let plan = TopKRouter::for_config(&model, 42)
        .with_skew(1.5)
        .route(4096);
    let sim = ClusterSimulator::new(
        ClusterConfig::new(DeviceSpec::a100_40g(), 8, ClusterEngine::Samoyeds)
            .with_topology(two_by_four)
            .with_strategy(PlacementStrategy::ReplicateHotPerIsland { hot: 2 }),
        model.clone(),
    );
    if let Ok(step) = sim.step(&plan) {
        println!(
            "\n2×4 Samoyeds step: {:.2} ms/layer = {:.2} compute + {:.3} intra-island \
             + {:.3} spine ({:.1} MB crossing islands, {:.0}% of the step on the spine)",
            step.layer_time_ms,
            step.straggler_ms(),
            step.intra_island_ms,
            step.spine_ms,
            step.cross_island_bytes / 1e6,
            step.spine_fraction() * 100.0,
        );
    }

    // A consumer fleet in its natural form factor: the device's node
    // boundary (2 cards per PCIe host) decides the islands automatically.
    let consumer = ClusterSimulator::new(
        ClusterConfig::new(DeviceSpec::rtx4070_super(), 8, ClusterEngine::Samoyeds)
            .with_node_topology(),
        model,
    );
    if let Ok(step) = consumer.step(&plan) {
        println!(
            "8x RTX 4070 Super deploys as {}: {:.3} ms/layer of collectives, \
             {:.0}% of the step on the spine",
            consumer.topology().name(),
            step.all_to_all_ms,
            step.spine_fraction() * 100.0,
        );
    }
}
