//! Step-batch formation: which tokens run in the next engine step.
//!
//! Continuous batching in the vLLM style: every decoding request contributes
//! one token per step, and the remaining token budget is filled with prompt
//! chunks of requests still prefilling (chunked prefill, FCFS in admission
//! order).

use crate::request::{Phase, RunningRequest};
use serde::{Deserialize, Serialize};

/// Limits the batcher enforces per step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchLimits {
    /// Maximum tokens (prefill chunks + decode tokens) per engine step.
    pub max_batched_tokens: usize,
    /// Maximum concurrently admitted requests.
    pub max_running: usize,
    /// Maximum prompt chunk a single request prefills in one step.
    pub prefill_chunk: usize,
}

impl Default for BatchLimits {
    fn default() -> Self {
        Self {
            max_batched_tokens: 2048,
            max_running: 64,
            prefill_chunk: 512,
        }
    }
}

/// The composition of one engine step.
#[derive(Debug, Clone, Default)]
pub struct StepBatch {
    /// `(index into running, chunk length)` for each prefilling request.
    pub prefill: Vec<(usize, usize)>,
    /// Indices into `running` of requests decoding one token this step.
    pub decode: Vec<usize>,
}

impl StepBatch {
    /// Prefill tokens in the step.
    pub fn prefill_tokens(&self) -> usize {
        self.prefill.iter().map(|&(_, chunk)| chunk).sum()
    }

    /// Total tokens the engine processes this step.
    pub fn total_tokens(&self) -> usize {
        self.prefill_tokens() + self.decode.len()
    }

    /// Whether the step does any work.
    pub fn is_empty(&self) -> bool {
        self.prefill.is_empty() && self.decode.is_empty()
    }

    /// Replace the batch with the next step from the running set under
    /// `limits`, as [`build_step`] builds it, reusing the batch's buffers.
    pub(crate) fn refill(&mut self, running: &[RunningRequest], limits: &BatchLimits) {
        self.prefill.clear();
        self.decode.clear();
        // Decode first: every decoding request advances one token per step
        // so token-level latency stays bounded.
        for (i, r) in running.iter().enumerate() {
            if r.phase() == Phase::Decode {
                self.decode.push(i);
            }
        }
        let mut budget = limits.max_batched_tokens.saturating_sub(self.decode.len());
        // Fill the rest with prompt chunks, FCFS in admission order.
        for (i, r) in running.iter().enumerate() {
            if budget == 0 {
                break;
            }
            if r.phase() == Phase::Prefill {
                let chunk = r.prompt_remaining().min(limits.prefill_chunk).min(budget);
                if chunk > 0 {
                    self.prefill.push((i, chunk));
                    budget -= chunk;
                }
            }
        }
    }
}

/// Build the next step from the running set under `limits`.
pub fn build_step(running: &[RunningRequest], limits: &BatchLimits) -> StepBatch {
    let mut batch = StepBatch::default();
    batch.refill(running, limits);
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;

    fn running(prompt: usize, prefilled: usize, decoded: usize) -> RunningRequest {
        let mut r = RunningRequest::new(
            Request {
                id: 0,
                arrival_ms: 0.0,
                prompt_len: prompt,
                output_len: 8,
            },
            0.0,
        );
        r.prefilled = prefilled;
        r.decoded = decoded;
        r
    }

    #[test]
    fn decode_requests_always_get_one_token() {
        let pool = vec![running(16, 16, 1), running(16, 16, 3), running(64, 0, 0)];
        let batch = build_step(&pool, &BatchLimits::default());
        assert_eq!(batch.decode, vec![0, 1]);
        assert_eq!(batch.prefill, vec![(2, 64)]);
        assert_eq!(batch.total_tokens(), 66);
    }

    #[test]
    fn prefill_is_chunked_and_budgeted() {
        let limits = BatchLimits {
            max_batched_tokens: 100,
            max_running: 8,
            prefill_chunk: 48,
        };
        let pool = vec![running(300, 0, 0), running(300, 0, 0), running(300, 0, 0)];
        let batch = build_step(&pool, &limits);
        // 48 + 48 + 4: the chunk cap applies per request, the token budget
        // truncates the last chunk.
        assert_eq!(batch.prefill, vec![(0, 48), (1, 48), (2, 4)]);
        assert_eq!(batch.total_tokens(), 100);
    }

    #[test]
    fn finished_requests_contribute_nothing() {
        let pool = vec![running(16, 16, 8)];
        let batch = build_step(&pool, &BatchLimits::default());
        assert!(batch.is_empty());
    }
}
