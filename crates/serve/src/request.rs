//! Request descriptions and their lifecycle state inside the scheduler.

/// One inference request of a serving trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Trace-unique identifier (monotone in arrival order).
    pub id: u64,
    /// Arrival time in milliseconds since trace start.
    pub arrival_ms: f64,
    /// Prompt length in tokens (prefill work), at least 1.
    pub prompt_len: usize,
    /// Output length in tokens (decode work), at least 1.
    pub output_len: usize,
}

impl Request {
    /// Total KV-cache footprint of the request in tokens once fully decoded.
    pub fn total_tokens(&self) -> usize {
        self.prompt_len + self.output_len
    }
}

/// Lifecycle phase of an admitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The prompt is still being prefilled (possibly in chunks).
    Prefill,
    /// The prompt is processed; output tokens are produced one per step.
    Decode,
    /// All output tokens have been produced.
    Finished,
}

/// An admitted request with its execution progress.
#[derive(Debug, Clone)]
pub struct RunningRequest {
    /// The underlying trace request.
    pub request: Request,
    /// Time the scheduler admitted the request.
    pub admitted_ms: f64,
    /// Prompt tokens prefilled so far.
    pub prefilled: usize,
    /// Output tokens produced so far. The first output token is produced by
    /// the step that completes the prefill.
    pub decoded: usize,
    /// Time the first output token was produced, once known.
    pub first_token_ms: Option<f64>,
}

impl RunningRequest {
    /// Admit `request` at time `now`.
    pub fn new(request: Request, now: f64) -> Self {
        Self {
            request,
            admitted_ms: now,
            prefilled: 0,
            decoded: 0,
            first_token_ms: None,
        }
    }

    /// Current lifecycle phase.
    pub fn phase(&self) -> Phase {
        if self.decoded >= self.request.output_len {
            Phase::Finished
        } else if self.prefilled < self.request.prompt_len {
            Phase::Prefill
        } else {
            Phase::Decode
        }
    }

    /// Tokens currently resident in the KV cache for this request.
    pub fn context_tokens(&self) -> usize {
        self.prefilled + self.decoded
    }

    /// Prompt tokens still to prefill.
    pub fn prompt_remaining(&self) -> usize {
        self.request.prompt_len - self.prefilled
    }
}

/// Timing record of one completed request.
#[derive(Debug, Clone, Copy)]
pub struct CompletedRequest {
    /// The underlying trace request.
    pub request: Request,
    /// Time the scheduler admitted the request.
    pub admitted_ms: f64,
    /// Time the first output token was produced.
    pub first_token_ms: f64,
    /// Time the last output token was produced.
    pub finished_ms: f64,
}

impl CompletedRequest {
    /// End-to-end request latency (arrival to last token).
    pub fn latency_ms(&self) -> f64 {
        self.finished_ms - self.request.arrival_ms
    }

    /// Time to first token (arrival to first output token).
    pub fn ttft_ms(&self) -> f64 {
        self.first_token_ms - self.request.arrival_ms
    }

    /// Mean per-output-token (inter-token) latency of the decode phase:
    /// the time from the first to the last output token, divided by the
    /// number of decode gaps. `None` for single-token outputs, which have
    /// no inter-token gap.
    pub fn tpot_ms(&self) -> Option<f64> {
        if self.request.output_len < 2 {
            return None;
        }
        Some((self.finished_ms - self.first_token_ms) / (self.request.output_len - 1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> Request {
        Request {
            id: 0,
            arrival_ms: 10.0,
            prompt_len: 4,
            output_len: 3,
        }
    }

    #[test]
    fn phase_transitions_follow_progress() {
        let mut r = RunningRequest::new(request(), 12.0);
        assert_eq!(r.phase(), Phase::Prefill);
        assert_eq!(r.prompt_remaining(), 4);
        r.prefilled = 4;
        r.decoded = 1; // prefill completion produces the first output token
        assert_eq!(r.phase(), Phase::Decode);
        assert_eq!(r.context_tokens(), 5);
        r.decoded = 3;
        assert_eq!(r.phase(), Phase::Finished);
    }

    #[test]
    fn completed_request_latencies() {
        let c = CompletedRequest {
            request: request(),
            admitted_ms: 15.0,
            first_token_ms: 40.0,
            finished_ms: 100.0,
        };
        assert_eq!(c.latency_ms(), 90.0);
        assert_eq!(c.ttft_ms(), 30.0);
        // 3 output tokens -> 2 decode gaps over 60 ms.
        assert_eq!(c.tpot_ms(), Some(30.0));
        let single = CompletedRequest {
            request: Request {
                output_len: 1,
                ..request()
            },
            admitted_ms: 15.0,
            first_token_ms: 40.0,
            finished_ms: 40.0,
        };
        assert_eq!(single.tpot_ms(), None);
    }
}
