//! Latency and throughput summaries over a simulation result.

use crate::scheduler::SimulationResult;
use samoyeds_moe::engines::EngineKind;

/// Percentile summary of a latency distribution (milliseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Median.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// Maximum.
    pub max_ms: f64,
}

impl LatencySummary {
    /// An all-zero summary (no samples).
    pub fn empty() -> Self {
        Self {
            p50_ms: 0.0,
            p95_ms: 0.0,
            p99_ms: 0.0,
            mean_ms: 0.0,
            max_ms: 0.0,
        }
    }
}

/// Linear-interpolated percentile of `sorted` (ascending), `q` in `[0, 1]`
/// (the "exclusive of extrapolation" convention of numpy's default: the
/// sample at fractional rank `q * (len - 1)` with linear interpolation
/// between the neighbouring order statistics).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// `ms`'s bits mapped so that their unsigned order is the floats' total
/// order: non-negative values gain the sign bit, negative ones flip every
/// bit. Panics on a NaN.
fn order_key(ms: f64) -> u64 {
    assert!(!ms.is_nan(), "latencies are finite");
    let bits = ms.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The value behind an [`order_key`].
fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// Summarise a latency sample set. Panics if a sample is NaN.
///
/// The samples are sorted as integer keys, their bits mapped so that
/// unsigned order is value order. Equal keys are equal bits, so the sorted
/// sequence, and with it every percentile and the mean summed in sorted
/// order, is the one a stable sort by value gives for any pool that does
/// not hold both zeros. `sort_unstable_by(f64::total_cmp)` gives the same
/// sequence, but maps both values at every comparison: on `fleet_poisson`'s
/// pools the summaries took about 1.7 times as long.
pub fn latency_summary(latencies: &[f64]) -> LatencySummary {
    if latencies.is_empty() {
        return LatencySummary::empty();
    }
    let mut keys: Vec<u64> = latencies.iter().map(|&ms| order_key(ms)).collect();
    keys.sort_unstable();
    let sorted: Vec<f64> = keys.into_iter().map(from_order_key).collect();
    LatencySummary {
        p50_ms: percentile(&sorted, 0.50),
        p95_ms: percentile(&sorted, 0.95),
        p99_ms: percentile(&sorted, 0.99),
        mean_ms: sorted.iter().sum::<f64>() / sorted.len() as f64,
        max_ms: *sorted.last().expect("non-empty"),
    }
}

/// Headline serving metrics of one engine over one trace.
#[derive(Debug, Clone)]
pub struct ServingMetrics {
    /// The engine measured.
    pub engine: EngineKind,
    /// Completed requests.
    pub completed: usize,
    /// Requests the scheduler could never admit (or the whole trace for an
    /// unsupported engine/model pair).
    pub rejected: usize,
    /// Generated (output) tokens per second over the makespan.
    pub output_tokens_per_s: f64,
    /// Prompt + output tokens per second over the makespan.
    pub processed_tokens_per_s: f64,
    /// End-to-end request latency distribution.
    pub request_latency: LatencySummary,
    /// Time-to-first-token distribution.
    pub ttft: LatencySummary,
    /// Per-output-token (inter-token decode) latency distribution, over
    /// requests that decode at least two tokens.
    pub tpot: LatencySummary,
    /// Total simulated time.
    pub makespan_ms: f64,
    /// Peak memory in use.
    pub peak_memory_gib: f64,
    /// Enforced memory budget.
    pub budget_gib: f64,
    /// False when the engine cannot run the model (NS) or cannot hold even a
    /// single minimal request (OOM).
    pub servable: bool,
}

impl ServingMetrics {
    /// Summarise a simulation result.
    pub fn from_result(result: &SimulationResult) -> Self {
        const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
        let latencies: Vec<f64> = result.completed.iter().map(|c| c.latency_ms()).collect();
        let ttfts: Vec<f64> = result.completed.iter().map(|c| c.ttft_ms()).collect();
        let tpots: Vec<f64> = result
            .completed
            .iter()
            .filter_map(|c| c.tpot_ms())
            .collect();
        let makespan_s = result.makespan_ms / 1e3;
        let per_s = |tokens: usize| {
            if makespan_s > 0.0 {
                tokens as f64 / makespan_s
            } else {
                0.0
            }
        };
        Self {
            engine: result.engine,
            completed: result.completed.len(),
            rejected: result.rejected.len(),
            output_tokens_per_s: per_s(result.output_tokens()),
            processed_tokens_per_s: per_s(result.processed_tokens()),
            request_latency: latency_summary(&latencies),
            ttft: latency_summary(&ttfts),
            tpot: latency_summary(&tpots),
            makespan_ms: result.makespan_ms,
            peak_memory_gib: result.peak_memory_bytes / GIB,
            budget_gib: result.budget_bytes / GIB,
            servable: result.supported && !result.completed.is_empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_linearly_interpolated() {
        // Known vector 1..=100: with the fractional-rank q*(n-1) convention,
        // p50 falls exactly between the 50th and 51st order statistics, and
        // p95/p99 interpolate 5%/1% into their bracketing samples.
        let samples: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        let s = latency_summary(&samples);
        assert!((s.p50_ms - 50.5).abs() < 1e-12, "p50 {}", s.p50_ms);
        assert!((s.p95_ms - 95.05).abs() < 1e-12, "p95 {}", s.p95_ms);
        assert!((s.p99_ms - 99.01).abs() < 1e-12, "p99 {}", s.p99_ms);
        assert_eq!(s.max_ms, 100.0);
        assert!((s.mean_ms - 50.5).abs() < 1e-9);
        // Interpolation between two samples, not nearest rank.
        let two = latency_summary(&[10.0, 20.0]);
        assert!((two.p50_ms - 15.0).abs() < 1e-12);
        assert!((two.p95_ms - 19.5).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_samples() {
        assert_eq!(latency_summary(&[]), LatencySummary::empty());
        // A single sample is every percentile.
        let s = latency_summary(&[7.0]);
        assert_eq!(s.p50_ms, 7.0);
        assert_eq!(s.p95_ms, 7.0);
        assert_eq!(s.p99_ms, 7.0);
        assert_eq!(s.max_ms, 7.0);
        assert_eq!(s.mean_ms, 7.0);
    }

    #[test]
    fn boundary_interpolation_is_exact_and_nan_free() {
        // Ranks that land exactly on an order statistic take it verbatim —
        // the interpolation fraction is 0, so no neighbour arithmetic can
        // smear the value (or manufacture a NaN from a 0 * inf product).
        let samples: Vec<f64> = (0..=100).map(|v| v as f64).collect();
        let s = latency_summary(&samples);
        assert_eq!(s.p50_ms, 50.0);
        assert_eq!(s.p99_ms, 99.0);
        assert_eq!(s.max_ms, 100.0);

        // Degenerate distributions (all samples equal) collapse every
        // percentile to that value, finitely.
        let flat = latency_summary(&[4.25; 17]);
        for v in [
            flat.p50_ms,
            flat.p95_ms,
            flat.p99_ms,
            flat.mean_ms,
            flat.max_ms,
        ] {
            assert_eq!(v, 4.25);
        }

        // Extreme-but-finite magnitudes stay finite through the
        // interpolation and the mean.
        let wide = latency_summary(&[f64::MIN_POSITIVE, 1e-9, 1.0, 1e12, f64::MAX / 4.0]);
        for v in [
            wide.p50_ms,
            wide.p95_ms,
            wide.p99_ms,
            wide.mean_ms,
            wide.max_ms,
        ] {
            assert!(v.is_finite(), "non-finite summary value {v}");
        }
        assert_eq!(wide.max_ms, f64::MAX / 4.0);
    }

    /// The summary as it was computed before the keyed sort: a stable sort
    /// by `partial_cmp`, kept as the reference the keyed sort must match.
    fn stable_sort_summary(latencies: &[f64]) -> LatencySummary {
        if latencies.is_empty() {
            return LatencySummary::empty();
        }
        let mut sorted = latencies.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        LatencySummary {
            p50_ms: percentile(&sorted, 0.50),
            p95_ms: percentile(&sorted, 0.95),
            p99_ms: percentile(&sorted, 0.99),
            mean_ms: sorted.iter().sum::<f64>() / sorted.len() as f64,
            max_ms: *sorted.last().expect("non-empty"),
        }
    }

    fn bits(s: &LatencySummary) -> [u64; 5] {
        [s.p50_ms, s.p95_ms, s.p99_ms, s.mean_ms, s.max_ms].map(f64::to_bits)
    }

    #[test]
    fn keyed_sort_matches_the_stable_float_sort_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        let mut rng = ChaCha8Rng::seed_from_u64(34);
        let mut pools: Vec<Vec<f64>> = vec![
            vec![7.25],
            vec![0.0],
            vec![0.0; 9],
            vec![0.0, 3.5, 0.0, 1.0, 0.0],
            vec![f64::MIN_POSITIVE, 1e-9, 1.0, 1e12, f64::MAX / 4.0],
            vec![f64::MAX / 4.0, f64::MIN_POSITIVE, f64::MAX / 4.0, 0.0],
        ];
        for len in [2usize, 3, 17, 100, 1_250, 10_000] {
            // Latency-like values, ties from a coarse grid, and magnitudes
            // spread from the smallest normal to a quarter of the largest.
            pools.push((0..len).map(|_| rng.gen_range(0.0..400.0)).collect());
            pools.push(
                (0..len)
                    .map(|_| f64::from(rng.gen_range(0..40u32)) * 0.5)
                    .collect(),
            );
            pools.push(
                (0..len)
                    .map(|_| {
                        let exponent = rng.gen_range(-1022.0..1021.0f64);
                        (rng.gen_range(1.0..2.0) * exponent.exp2()).min(f64::MAX / 4.0)
                    })
                    .collect(),
            );
        }
        for pool in &pools {
            assert_eq!(
                bits(&latency_summary(pool)),
                bits(&stable_sort_summary(pool)),
                "{} values, first {:?}",
                pool.len(),
                pool.first()
            );
        }
    }

    #[test]
    #[should_panic(expected = "latencies are finite")]
    fn a_nan_latency_panics() {
        latency_summary(&[3.0, f64::NAN, 1.0]);
    }

    #[test]
    fn percentiles_are_monotone() {
        let samples = vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let s = latency_summary(&samples);
        assert!(s.p50_ms <= s.p95_ms);
        assert!(s.p95_ms <= s.p99_ms);
        assert!(s.p99_ms <= s.max_ms);
    }
}
