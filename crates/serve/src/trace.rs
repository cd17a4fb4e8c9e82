//! Deterministic request-trace generation: Poisson arrivals with uniform
//! prompt/output length distributions, stationary ([`TraceConfig`]) or
//! piecewise-rate bursty ([`BurstyTraceConfig`]).

use crate::request::Request;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::ops::Range;

/// Parameters of a synthetic serving trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Number of requests in the trace.
    pub num_requests: usize,
    /// Mean arrival rate in requests per second (Poisson process).
    pub arrival_rate_rps: f64,
    /// Inclusive prompt-length bounds in tokens.
    pub prompt_len_range: (usize, usize),
    /// Inclusive output-length bounds in tokens.
    pub output_len_range: (usize, usize),
    /// RNG seed; the same seed always yields the same trace.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            num_requests: 64,
            arrival_rate_rps: 4.0,
            prompt_len_range: (64, 512),
            output_len_range: (16, 128),
            seed: 42,
        }
    }
}

impl TraceConfig {
    /// Generate the trace: exponential interarrival gaps at the configured
    /// rate and uniform prompt/output lengths, all from one seeded RNG. A
    /// stationary trace is exactly a single-phase bursty trace (same RNG
    /// draw order), so this delegates to [`BurstyTraceConfig::generate`].
    pub fn generate(&self) -> Vec<Request> {
        BurstyTraceConfig {
            phases: vec![BurstPhase {
                arrival_rate_rps: self.arrival_rate_rps,
                num_requests: self.num_requests,
            }],
            prompt_len_range: self.prompt_len_range,
            output_len_range: self.output_len_range,
            seed: self.seed,
        }
        .generate()
    }
}

/// One phase of a non-stationary (piecewise-rate) Poisson trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstPhase {
    /// Mean arrival rate of this phase in requests per second.
    pub arrival_rate_rps: f64,
    /// Requests generated in this phase.
    pub num_requests: usize,
}

/// A bursty serving trace: a sequence of Poisson phases with different
/// rates (e.g. calm → spike → calm), sharing one seeded RNG and one clock —
/// the non-stationary offered load the SLO autoscaler is exercised against.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstyTraceConfig {
    /// The phases, in order.
    pub phases: Vec<BurstPhase>,
    /// Inclusive prompt-length bounds in tokens.
    pub prompt_len_range: (usize, usize),
    /// Inclusive output-length bounds in tokens.
    pub output_len_range: (usize, usize),
    /// RNG seed; the same seed always yields the same trace.
    pub seed: u64,
}

impl BurstyTraceConfig {
    /// The canonical calm → spike → calm shape.
    pub fn spike(
        calm_rps: f64,
        spike_rps: f64,
        calm_requests: usize,
        spike_requests: usize,
    ) -> Self {
        Self {
            phases: vec![
                BurstPhase {
                    arrival_rate_rps: calm_rps,
                    num_requests: calm_requests,
                },
                BurstPhase {
                    arrival_rate_rps: spike_rps,
                    num_requests: spike_requests,
                },
                BurstPhase {
                    arrival_rate_rps: calm_rps,
                    num_requests: calm_requests,
                },
            ],
            prompt_len_range: (64, 256),
            output_len_range: (16, 64),
            seed: 42,
        }
    }

    /// Total requests across all phases.
    pub fn num_requests(&self) -> usize {
        self.phases.iter().map(|p| p.num_requests).sum()
    }

    /// Index ranges of each phase's requests inside the generated trace
    /// (the per-phase arrival-count conservation the unit test pins).
    pub fn phase_ranges(&self) -> Vec<Range<usize>> {
        let mut start = 0usize;
        self.phases
            .iter()
            .map(|p| {
                let range = start..start + p.num_requests;
                start += p.num_requests;
                range
            })
            .collect()
    }

    /// Generate the trace: each phase draws exponential interarrival gaps at
    /// its own rate; the clock and request ids carry across phases, so the
    /// result is one monotone trace.
    pub fn generate(&self) -> Vec<Request> {
        assert!(!self.phases.is_empty(), "a bursty trace needs phases");
        assert!(
            self.phases.iter().all(|p| p.arrival_rate_rps > 0.0),
            "arrival rates must be positive"
        );
        assert!(
            self.prompt_len_range.0 >= 1 && self.prompt_len_range.0 <= self.prompt_len_range.1,
            "invalid prompt length range"
        );
        assert!(
            self.output_len_range.0 >= 1 && self.output_len_range.0 <= self.output_len_range.1,
            "invalid output length range"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut clock_ms = 0.0f64;
        let mut id = 0u64;
        let mut trace = Vec::with_capacity(self.num_requests());
        for phase in &self.phases {
            for _ in 0..phase.num_requests {
                let u: f64 = rng.gen_range(0.0..1.0);
                clock_ms += -(1.0 - u).ln() / phase.arrival_rate_rps * 1e3;
                trace.push(Request {
                    id,
                    arrival_ms: clock_ms,
                    prompt_len: rng.gen_range(self.prompt_len_range.0..=self.prompt_len_range.1),
                    output_len: rng.gen_range(self.output_len_range.0..=self.output_len_range.1),
                });
                id += 1;
            }
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic_per_seed() {
        let cfg = TraceConfig::default();
        assert_eq!(cfg.generate(), cfg.generate());
        let other = TraceConfig {
            seed: 43,
            ..TraceConfig::default()
        };
        assert_ne!(cfg.generate(), other.generate());
    }

    #[test]
    fn arrivals_are_monotone_and_lengths_in_range() {
        let cfg = TraceConfig {
            num_requests: 200,
            ..TraceConfig::default()
        };
        let trace = cfg.generate();
        assert_eq!(trace.len(), 200);
        for window in trace.windows(2) {
            assert!(window[0].arrival_ms <= window[1].arrival_ms);
        }
        for r in &trace {
            assert!((64..=512).contains(&r.prompt_len));
            assert!((16..=128).contains(&r.output_len));
            assert_eq!(r.total_tokens(), r.prompt_len + r.output_len);
        }
    }

    #[test]
    fn bursty_trace_conserves_arrival_counts_per_phase() {
        let cfg = BurstyTraceConfig::spike(2.0, 40.0, 50, 200);
        let trace = cfg.generate();
        assert_eq!(trace.len(), cfg.num_requests());
        assert_eq!(trace.len(), 300);
        // Determinism.
        assert_eq!(trace, cfg.generate());
        // Arrivals are globally monotone and ids are the trace order.
        for (i, pair) in trace.windows(2).enumerate() {
            assert!(pair[0].arrival_ms <= pair[1].arrival_ms);
            assert_eq!(pair[0].id, i as u64);
        }
        // Every phase contributed exactly its configured arrival count, and
        // the empirical rate inside each phase tracks its configuration (the
        // spike really is an order of magnitude hotter).
        let ranges = cfg.phase_ranges();
        assert_eq!(ranges.len(), 3);
        let mut phase_start_ms = 0.0;
        for (range, phase) in ranges.iter().zip(&cfg.phases) {
            assert_eq!(range.len(), phase.num_requests);
            let end_ms = trace[range.end - 1].arrival_ms;
            let span_s = (end_ms - phase_start_ms) / 1e3;
            let rate = phase.num_requests as f64 / span_s;
            assert!(
                rate > phase.arrival_rate_rps * 0.6 && rate < phase.arrival_rate_rps * 1.6,
                "phase rate {rate} vs configured {}",
                phase.arrival_rate_rps
            );
            phase_start_ms = end_ms;
        }
    }

    #[test]
    fn mean_interarrival_tracks_the_rate() {
        let cfg = TraceConfig {
            num_requests: 2000,
            arrival_rate_rps: 10.0,
            ..TraceConfig::default()
        };
        let trace = cfg.generate();
        let span_s = trace.last().unwrap().arrival_ms / 1e3;
        let rate = trace.len() as f64 / span_s;
        assert!((7.0..13.0).contains(&rate), "empirical rate {rate}");
    }
}
