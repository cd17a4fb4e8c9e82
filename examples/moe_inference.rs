//! MoE inference walkthrough: build a small MoE layer functionally (router +
//! experts), execute it through the reference data flow and through the
//! Samoyeds kernel path, then compare the *predicted* MoE-layer time of every
//! execution engine on a real model configuration (Mixtral-8x7B).
//!
//! Run with `cargo run --release --example moe_inference`.

use samoyeds::gpu_sim::DeviceSpec;
use samoyeds::moe::config::MoeModelConfig;
use samoyeds::moe::engines::{Engine, EngineKind};
use samoyeds::moe::expert::ExpertWeights;
use samoyeds::moe::router::TopKRouter;
use samoyeds::sparse::samoyeds::SamoyedsConfig;
use samoyeds::sparse::DenseMatrix;

fn main() {
    let device = DeviceSpec::rtx4070_super();

    // --- Functional path on a tiny configuration -------------------------
    let tiny = MoeModelConfig::tiny_test();
    let experts: Vec<ExpertWeights> = (0..tiny.num_experts)
        .map(|e| ExpertWeights::random(&tiny, e, 7))
        .collect();
    let pruned: Vec<_> = experts
        .iter()
        .map(|w| w.prune_samoyeds(SamoyedsConfig::DEFAULT).unwrap())
        .collect();
    let tokens = 32;
    let x = DenseMatrix::random(tiny.hidden_size, tokens, 9);
    let plan = TopKRouter::for_config(&tiny, 11).route(tokens);

    let dense_out = Engine::forward_reference(&experts, &x, &plan).unwrap();
    let sparse_out = Engine::forward_samoyeds(&device, &pruned, &x, &plan).unwrap();
    let rel = dense_out
        .add(&sparse_out.scale(-1.0))
        .unwrap()
        .frobenius_norm()
        / dense_out.frobenius_norm();
    println!(
        "tiny MoE layer ({} experts, top-{}, {} tokens): dense vs 75%-sparse output relative error {:.3}",
        tiny.num_experts, tiny.top_k, tokens, rel
    );

    // --- Predicted engine comparison on Mixtral-8x7B ---------------------
    let cfg = MoeModelConfig::mixtral_8x7b();
    let tokens = 4096;
    let plan = TopKRouter::for_config(&cfg, 42).route(tokens);
    println!(
        "\n{} MoE layer, {} tokens, predicted on {}:",
        cfg.name, tokens, device.name
    );
    let baseline = Engine::new(EngineKind::Transformers, device.clone())
        .moe_layer_cost(&cfg, tokens, &plan)
        .time_ms;
    for kind in EngineKind::all() {
        let cost = Engine::new(kind, device.clone()).moe_layer_cost(&cfg, tokens, &plan);
        if cost.supported {
            println!(
                "  {:<13} {:>8.2} ms  ({:.2}x vs Transformers, {:.2} GiB weights)",
                kind.name(),
                cost.time_ms,
                baseline / cost.time_ms,
                kind.weight_bytes(&cfg) / (1024.0 * 1024.0 * 1024.0)
            );
        } else {
            println!("  {:<13} not supported (NS)", kind.name());
        }
    }
}
