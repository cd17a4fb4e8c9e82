//! Replica-selection policies for the online dispatcher in
//! [`fleet`](crate::fleet).

use serde::{Deserialize, Serialize};

/// How the [`FleetController`](crate::fleet::FleetController) picks a
/// replica for each arriving request among the eligible ones.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DispatchPolicy {
    /// Strict rotation in arrival order.
    RoundRobin,
    /// Each request goes to the replica with the fewest outstanding tokens:
    /// the replicas' *live* remaining work, which decays as they make
    /// progress.
    LeastOutstandingTokens,
}

impl DispatchPolicy {
    /// Human-readable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            DispatchPolicy::RoundRobin => "round-robin",
            DispatchPolicy::LeastOutstandingTokens => "least-outstanding",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SingleGpuBackend;
    use crate::fleet::{FleetConfig, FleetController, NoAutoscale};
    use crate::request::Request;
    use samoyeds_gpu_sim::DeviceSpec;
    use samoyeds_moe::config::MoeModelConfig;
    use samoyeds_moe::engines::EngineKind;

    #[test]
    fn least_outstanding_ignores_load_that_has_drained() {
        // Two early requests load replica 0 with far more tokens than
        // replica 1 ever got. Ten seconds later both replicas have long
        // drained, so the late request sees no stale imbalance and goes to
        // replica 0 (all counts zero, first-index tie-break). A counter that
        // only ever accumulated would still remember and pick replica 1.
        let config = FleetConfig {
            policy: DispatchPolicy::LeastOutstandingTokens,
            ..FleetConfig::default()
        };
        let replica = || {
            SingleGpuBackend::new(
                DeviceSpec::a100_40g(),
                &MoeModelConfig::qwen2_moe(),
                EngineKind::Samoyeds,
                &config.scheduler,
            )
        };
        let mk = |id: u64, arrival_ms: f64, prompt_len: usize| Request {
            id,
            arrival_ms,
            prompt_len,
            output_len: 10,
        };
        let trace = [mk(0, 0.0, 500), mk(1, 1.0, 50), mk(2, 10_000.0, 20)];
        let metrics = FleetController::new(config)
            .with_autoscaler(NoAutoscale)
            .with_replica(Box::new(replica()))
            .with_replica(Box::new(replica()))
            .run(&trace);
        assert_eq!(metrics.completed, trace.len());
        assert_eq!(metrics.per_replica[0].assigned_ids, [0, 2]);
        assert_eq!(metrics.per_replica[1].assigned_ids, [1]);
    }
}
