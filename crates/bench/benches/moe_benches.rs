//! Criterion benches over the MoE-layer and decoder-layer cost evaluation
//! (Figures 14-16), the routing substrate (the full plan, and the
//! counts-only `route_loads_into` on one `RouteScratch` kept across calls,
//! as both serving backends call it: a fresh seed per call at a decode
//! step's, a single-GPU prefill step's and a pod step's shape, which times
//! a stream's first call, and one seed at eight sizes around 206 tokens,
//! as `fleet_poisson`'s eight replicas route one step index, which times
//! the kept stream), and the per-step pricing a serving replica pays:
//! `SingleGpuBackend::step_cost` on a `fleet_poisson`-shaped step and on a
//! short decode step (Samoyeds, and dense Transformers for the decode
//! step), and its layers, `attention_step_ms` and
//! `Engine::moe_layer_cost_for_loads` on an engine reused across calls,
//! over a ring of 64 steps' loads so that the zero pattern changes from
//! call to call as it does in serving.
//!
//! Run with `BENCH_JSON=<absolute path>` to also write the results as one
//! JSON document (CI uploads it as the `BENCH_moe` artifact, ungated).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_moe::attention::AttentionKind;
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::decoder::DecoderLayer;
use samoyeds_moe::engines::{Engine, EngineKind};
use samoyeds_moe::router::{RouteScratch, TopKRouter};
use samoyeds_serve::backend::{attention_step_ms, StepWorkload};
use samoyeds_serve::batch::StepBatch;
use samoyeds_serve::{
    ExecutionBackend, Request, RunningRequest, SchedulerConfig, SingleGpuBackend,
};
use std::cell::RefCell;

fn bench_moe_layer_cost(c: &mut Criterion) {
    let dev = DeviceSpec::rtx4070_super();
    let cfg = MoeModelConfig::mixtral_8x7b();
    let plan = TopKRouter::for_config(&cfg, 42).route(4096);
    let mut group = c.benchmark_group("fig14_moe_layer_cost");
    for kind in EngineKind::all() {
        group.bench_with_input(BenchmarkId::new("engine", kind.name()), &kind, |b, &k| {
            let engine = Engine::new(k, dev.clone());
            b.iter(|| engine.moe_layer_cost(&cfg, 4096, &plan))
        });
    }
    group.finish();
}

fn bench_decoder_layer(c: &mut Criterion) {
    let dev = DeviceSpec::rtx4070_super();
    let cfg = MoeModelConfig::qwen2_moe();
    let layer = DecoderLayer::new(dev, EngineKind::Samoyeds, AttentionKind::Flash);
    c.bench_function("fig15_decoder_layer_cost_qwen2", |b| {
        b.iter(|| layer.layer_cost(&cfg, 1, 4096))
    });
}

fn bench_router(c: &mut Criterion) {
    let cfg = MoeModelConfig::deepseek_moe();
    let router = TopKRouter::for_config(&cfg, 7);
    c.bench_function("router_4096_tokens_64_experts", |b| {
        b.iter(|| router.route(4096))
    });
    // The counts-only draw at the shapes serving steps route, on
    // Qwen2-MoE: a `fleet_decode_autoscale`-shaped decode step (8 tokens,
    // one rank), where the router's fixed per-call cost shows, a
    // `fleet_poisson`-shaped single-GPU step (206 tokens, one rank) and a
    // 4-GPU pod's 512-token prefill step. Each cell counts into one scratch
    // kept across iterations, as a fleet keeps its own from step to step;
    // a fresh routing seed every iteration, as in a serving run, makes each
    // call its stream's first.
    let router = TopKRouter::for_config(&MoeModelConfig::qwen2_moe(), 7);
    let mut group = c.benchmark_group("route_loads_into");
    for (tokens, ranks) in [(8usize, 1usize), (206, 1), (512, 4)] {
        group.bench_with_input(
            BenchmarkId::new("qwen2", format!("tokens{tokens}_ranks{ranks}")),
            &(tokens, ranks),
            |b, &(t, r)| {
                let mut seed = 0u64;
                let mut scratch = RouteScratch::default();
                b.iter(|| {
                    seed += 1;
                    black_box(router.route_loads_into(seed, t, r, &mut scratch));
                })
            },
        );
    }
    // `fleet_poisson`'s eight replicas at one step index: one seed routed at
    // eight sizes around 206 tokens on one scratch. The first call draws,
    // the second draws again and keeps the stream, and the other six count
    // from it, drawing only past its end.
    let sizes = [206usize, 198, 214, 189, 223, 201, 211, 195];
    group.bench_function("qwen2/replicas8_tokens206_ranks1", |b| {
        let mut seed = 0u64;
        let mut scratch = RouteScratch::default();
        b.iter(|| {
            seed += 1;
            for tokens in sizes {
                black_box(router.route_loads_into(seed, tokens, 1, &mut scratch));
            }
        })
    });
    group.finish();
}

/// A request of `prompt_len` prompt tokens with `prefilled` of them
/// prefilled and `decoded` output tokens produced.
fn running(id: u64, prompt_len: usize, prefilled: usize, decoded: usize) -> RunningRequest {
    let mut r = RunningRequest::new(
        Request {
            id,
            arrival_ms: 0.0,
            prompt_len,
            output_len: 16,
        },
        0.0,
    );
    r.prefilled = prefilled;
    r.decoded = decoded;
    r
}

/// A `fleet_poisson`-shaped step of 206 tokens: five fresh prompts of 16-64
/// tokens prefilled whole (170 tokens) next to 36 short-context decodes.
fn poisson_step() -> (Vec<RunningRequest>, StepBatch) {
    let prompts = [16usize, 27, 34, 41, 52];
    let mut requests: Vec<RunningRequest> = prompts
        .iter()
        .enumerate()
        .map(|(id, &p)| running(id as u64, p, 0, 0))
        .collect();
    for d in 0..36 {
        let prompt = 16 + 7 * d % 49;
        requests.push(running(requests.len() as u64, prompt, prompt, 1 + d % 15));
    }
    let batch = StepBatch {
        prefill: prompts.iter().copied().enumerate().collect(),
        decode: (prompts.len()..requests.len()).collect(),
    };
    (requests, batch)
}

/// An 8-token decode-only step at assorted short contexts.
fn decode_step() -> (Vec<RunningRequest>, StepBatch) {
    let requests: Vec<RunningRequest> = (0..8)
        .map(|d| running(d as u64, 16 + 6 * d, 16 + 6 * d, 1 + d))
        .collect();
    let batch = StepBatch {
        prefill: Vec::new(),
        decode: (0..requests.len()).collect(),
    };
    (requests, batch)
}

fn bench_step_pricing(c: &mut Criterion) {
    let device = DeviceSpec::a100_40g();
    let model = MoeModelConfig::qwen2_moe();
    let scfg = SchedulerConfig::default();
    let backend = |kind| SingleGpuBackend::new(device.clone(), &model, kind, &scfg);
    let mut group = c.benchmark_group("step_pricing");
    let samoyeds = "single_gpu_step_cost";
    // The dense quarter of `fleet_decode_autoscale`'s replicas.
    let dense = "single_gpu_step_cost/Transformers";
    let cells = [
        (
            samoyeds,
            EngineKind::Samoyeds,
            "poisson_206",
            poisson_step(),
        ),
        (samoyeds, EngineKind::Samoyeds, "decode_8", decode_step()),
        (dense, EngineKind::Transformers, "decode_8", decode_step()),
    ];
    for (name, kind, label, (requests, batch)) in cells {
        let backend = backend(kind);
        group.bench_with_input(BenchmarkId::new(name, label), &label, |b, _| {
            // A fresh routing seed every iteration, as in a serving run.
            let mut step_index = 0u64;
            let route = RefCell::default();
            b.iter(|| {
                step_index += 1;
                backend.step_cost(&StepWorkload {
                    batch: &batch,
                    running: &requests,
                    step_index,
                    route: &route,
                })
            })
        });
    }
    let (requests, batch) = poisson_step();
    group.bench_function("attention_step_ms/poisson_206", |b| {
        b.iter(|| attention_step_ms(&device, &model, scfg.attention, &batch, &requests))
    });
    let router = TopKRouter::for_config(&model, scfg.routing_seed);
    for kind in [EngineKind::Samoyeds, EngineKind::Transformers] {
        let engine = Engine::new(kind, device.clone());
        for tokens in [8usize, 216] {
            // The loads of a ring of 64 step seeds, drawn before timing: one
            // fixed load vector would let the branch predictor learn its
            // zero pattern, which no serving step repeats.
            let ring: Vec<Vec<usize>> = (1..=64u64)
                .map(|step_index| {
                    router.route_loads_seeded(scfg.routing_seed ^ step_index, tokens, 1)
                })
                .collect();
            group.bench_with_input(
                BenchmarkId::new(format!("moe_layer_cost_for_loads/{}", kind.name()), tokens),
                &tokens,
                |b, &t| {
                    let mut loads = ring.iter().cycle();
                    b.iter(|| {
                        let loads = loads.next().expect("a non-empty ring");
                        engine.moe_layer_cost_for_loads(&model, t, loads)
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_moe_layer_cost,
    bench_decoder_layer,
    bench_router,
    bench_step_pricing
);
criterion_main!(benches);
