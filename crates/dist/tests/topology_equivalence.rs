//! Topology-equivalence suite: a single flat island must reproduce the
//! pre-refactor single-level α-β all-to-all **bit for bit**.
//!
//! `legacy` below freezes the collective cost path exactly as it existed
//! before the hierarchical-topology refactor: the per-GPU send/recv
//! accumulation of `ClusterSimulator::step_with_placement` (reading each
//! owner's token lists from the plan, as the pinned placements replicate
//! no expert) and the single-level `LinkSpec::all_to_all_ms` formula,
//! copied line for line.
//! Running both over shared flow patterns, presets and whole simulator
//! steps and asserting exact `f64` equality proves the refactor moved the
//! collective pricing behind `ClusterTopology` without changing a single
//! predicted number — the same pattern as `backend_equivalence` in
//! `samoyeds-serve`.

use samoyeds_dist::{
    ClusterConfig, ClusterEngine, ClusterSimulator, ClusterTopology, FlowMatrix, LinkSpec,
};
use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::router::{RoutingPlan, TopKRouter};

/// The pre-refactor collective pricing, frozen for comparison.
mod legacy {
    use samoyeds_dist::LinkSpec;
    use samoyeds_moe::router::RoutingPlan;

    /// Verbatim pre-refactor `LinkSpec::all_to_all_ms`: per-peer startup
    /// latency plus a bandwidth term set by the busiest endpoint.
    pub fn all_to_all_ms(link: &LinkSpec, send_bytes: &[f64], recv_bytes: &[f64]) -> f64 {
        let gpus = send_bytes.len().max(recv_bytes.len());
        if gpus <= 1 {
            return 0.0;
        }
        let busiest = send_bytes
            .iter()
            .chain(recv_bytes.iter())
            .fold(0.0f64, |acc, &b| acc.max(b));
        if busiest <= 0.0 {
            return 0.0;
        }
        link.latency_us * 1e-3 * (gpus - 1) as f64 + busiest / (link.bandwidth_gbps * 1e9) * 1e3
    }

    /// The pre-refactor step collective: accumulate per-GPU send/recv bytes
    /// from the shard map (token `t` resides on GPU `t mod g`), pay the
    /// dispatch collective twice (combine moves the same bytes back). Each
    /// owner reads its experts' token lists straight from the plan, which
    /// is the shard map exactly when no expert is replicated.
    pub fn step_all_to_all_ms(
        link: &LinkSpec,
        plan: &RoutingPlan,
        assignments: &[Vec<usize>],
        g: usize,
        token_bytes: f64,
    ) -> f64 {
        let mut send = vec![0.0f64; g];
        let mut recv = vec![0.0f64; g];
        for (gpu, owned) in assignments.iter().enumerate() {
            for &e in owned {
                for &t in &plan.expert_tokens[e] {
                    let src = t as usize % g;
                    if src != gpu {
                        send[src] += token_bytes;
                        recv[gpu] += token_bytes;
                    }
                }
            }
        }
        2.0 * all_to_all_ms(link, &send, &recv)
    }
}

/// The presets the satellite pins: both NVLink generations, PCIe and the
/// InfiniBand spine.
fn presets() -> [LinkSpec; 4] {
    [
        LinkSpec::nvlink3(),
        LinkSpec::nvlink4(),
        LinkSpec::pcie_gen4(),
        LinkSpec::infiniband_ndr(),
    ]
}

/// Flow patterns exercising uniform, skewed, one-hot, zero and
/// single-endpoint exchanges. Byte values are integer-valued (every real
/// flow is a token count times an integer token width), matching the exact
/// arithmetic the simulator produces.
fn flow_patterns() -> Vec<FlowMatrix> {
    let mut patterns = Vec::new();
    // Uniform 4-GPU exchange.
    let mut uniform = FlowMatrix::new(4);
    for s in 0..4 {
        for d in 0..4 {
            uniform.add(s, d, 4096.0 * 131.0);
        }
    }
    patterns.push(uniform);
    // Skewed: GPU 0 is the hot owner (the imbalanced-expert shape).
    let mut skewed = FlowMatrix::new(4);
    for s in 1..4 {
        skewed.add(s, 0, 4096.0 * (977.0 + s as f64));
        skewed.add(0, s, 4096.0 * 13.0);
    }
    patterns.push(skewed);
    // One-hot: a single pair exchanges.
    let mut one_hot = FlowMatrix::new(8);
    one_hot.add(6, 1, 4096.0 * 50021.0);
    patterns.push(one_hot);
    // Empty exchange.
    patterns.push(FlowMatrix::new(4));
    // Single GPU: no peers at all.
    patterns.push(FlowMatrix::new(1));
    patterns
}

#[test]
fn flat_topology_reproduces_the_single_level_cost_across_presets() {
    for link in presets() {
        for flows in flow_patterns() {
            let n = flows.gpus();
            let send: Vec<f64> = (0..n).map(|g| flows.sent_by(g)).collect();
            let recv: Vec<f64> = (0..n).map(|g| flows.received_by(g)).collect();
            let frozen = legacy::all_to_all_ms(&link, &send, &recv);
            let cost = ClusterTopology::flat(n, link.clone()).all_to_all_ms(&flows);
            assert_eq!(
                cost.total_ms(),
                frozen,
                "{} over {n} GPUs drifted from the frozen formula",
                link.name
            );
            assert_eq!(cost.spine_ms, 0.0);
            assert_eq!(cost.override_ms, 0.0);
            assert_eq!(cost.cross_island_bytes, 0.0);
            // The live LinkSpec formula itself must also still match its
            // frozen copy.
            assert_eq!(link.all_to_all_ms(&send, &recv), frozen);
        }
    }
}

#[test]
fn flat_topology_matches_skewed_send_recv_vectors_exactly() {
    // The satellite's literal shape: skewed per-GPU send/recv vectors,
    // realised as one-flow-per-endpoint matrices so the row/column sums
    // are exactly the target vectors.
    let send = [6.0e8, 0.0, 3.2e7, 1.6e5];
    let recv = [0.0, 5.9e8, 4.1e7, 2.0e5];
    for link in presets() {
        let mut flows = FlowMatrix::new(4);
        for (g, &bytes) in send.iter().enumerate() {
            // GPU g sends its whole budget to its neighbour and receives
            // its whole budget from the other side; sums stay exact.
            flows.add(g, (g + 1) % 4, bytes);
        }
        let actual_send: Vec<f64> = (0..4).map(|g| flows.sent_by(g)).collect();
        let actual_recv: Vec<f64> = (0..4).map(|g| flows.received_by(g)).collect();
        let cost = ClusterTopology::flat(4, link.clone()).all_to_all_ms(&flows);
        assert_eq!(
            cost.total_ms(),
            legacy::all_to_all_ms(&link, &actual_send, &actual_recv)
        );
        // And the direct vector form, for the recv-heavy shape too.
        assert_eq!(
            link.all_to_all_ms(&send, &recv),
            legacy::all_to_all_ms(&link, &send, &recv)
        );
    }
}

fn plan_for(model: &MoeModelConfig, tokens: usize, skew: f64, seed: u64) -> RoutingPlan {
    TopKRouter::for_config(model, seed)
        .with_skew(skew)
        .route(tokens)
}

#[test]
fn simulator_steps_are_bit_identical_with_an_explicit_flat_topology() {
    let model = MoeModelConfig::qwen2_moe();
    for engine in ClusterEngine::all() {
        for gpus in [1usize, 2, 4, 8] {
            for skew in [0.0f64, 1.5] {
                let plan = plan_for(&model, 1024, skew, 42);
                let base = ClusterConfig::new(DeviceSpec::a100_40g(), gpus, engine);
                let implicit = ClusterSimulator::new(base.clone(), model.clone());
                let explicit = ClusterSimulator::new(
                    base.clone()
                        .with_topology(ClusterTopology::flat(gpus, base.link.clone())),
                    model.clone(),
                );
                let a = implicit.step(&plan).unwrap();
                let b = explicit.step(&plan).unwrap();
                assert_eq!(a.all_to_all_ms, b.all_to_all_ms, "{engine:?} {gpus} {skew}");
                assert_eq!(a.intra_island_ms, b.intra_island_ms);
                assert_eq!(a.spine_ms, b.spine_ms);
                assert_eq!(a.layer_time_ms, b.layer_time_ms);
                assert_eq!(a.model_time_ms, b.model_time_ms);
                assert_eq!(a.per_gpu_compute_ms, b.per_gpu_compute_ms);
                assert_eq!(a.sharded_assignments, b.sharded_assignments);
            }
        }
    }
}

#[test]
fn simulator_collectives_match_the_frozen_per_gpu_accumulation() {
    // End to end: the (default, flat) simulator's collective time equals
    // the frozen pre-refactor accumulation recomputed from the same
    // placement and plan — across devices, engines, pod sizes, skew and
    // fabric presets.
    let model = MoeModelConfig::qwen2_moe();
    let token_bytes = model.hidden_size as f64 * 2.0;
    for (device, engines) in [
        (DeviceSpec::a100_40g(), ClusterEngine::all().to_vec()),
        (DeviceSpec::rtx4070_super(), vec![ClusterEngine::Samoyeds]),
    ] {
        for engine in engines {
            for gpus in [2usize, 4, 8] {
                for link in presets() {
                    for skew in [0.0f64, 1.5] {
                        let plan = plan_for(&model, 768, skew, 7);
                        let sim = ClusterSimulator::new(
                            ClusterConfig::new(device.clone(), gpus, engine)
                                .with_link(link.clone()),
                            model.clone(),
                        );
                        let placement = sim.placement_for(&plan).unwrap();
                        // Capacity-greedy replicates nothing, so every
                        // expert's tokens go to its sole owner.
                        assert!(placement
                            .replica_counts(model.num_experts)
                            .iter()
                            .all(|&c| c == 1));
                        let frozen = legacy::step_all_to_all_ms(
                            &link,
                            &plan,
                            placement.assignments(),
                            gpus,
                            token_bytes,
                        );
                        let report = sim.step_with_placement(&plan, placement).unwrap();
                        assert_eq!(
                            report.all_to_all_ms, frozen,
                            "{} {engine:?} {gpus} GPUs {} skew {skew}",
                            device.name, link.name
                        );
                        assert_eq!(report.intra_island_ms, frozen);
                        assert_eq!(report.spine_ms, 0.0);
                    }
                }
            }
        }
    }
}
