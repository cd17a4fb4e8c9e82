//! MoE model configurations (Table 2 of the paper).

use samoyeds_kernels::fusion::Activation;

/// Configuration of one MoE LLM, at the granularity the performance and
/// memory experiments need.
#[derive(Debug, Clone, PartialEq)]
pub struct MoeModelConfig {
    /// Model name as used in the paper's tables.
    pub name: String,
    /// Configuration group label from Table 2 (CFG#1 … CFG#5).
    pub cfg_group: String,
    /// Number of routed experts per MoE layer.
    pub num_experts: usize,
    /// Experts activated per token by the router.
    pub top_k: usize,
    /// Number of isolated shared experts every token passes through
    /// (DeepSeek-MoE / Qwen2-MoE style); zero for Mixtral-style models.
    pub num_shared_experts: usize,
    /// Model hidden size (token embedding width).
    pub hidden_size: usize,
    /// Expert intermediate (FFN) size.
    pub intermediate_size: usize,
    /// Number of attention heads.
    pub num_heads: usize,
    /// Number of decoder layers in the full model (for memory accounting).
    pub num_layers: usize,
    /// Maximum sequence length supported by the model.
    pub max_seq_len: usize,
    /// Expert activation function.
    pub activation: Activation,
}

impl MoeModelConfig {
    /// Qwen2-MoE (CFG#1): 60 experts of 1408x2048.
    pub fn qwen2_moe() -> Self {
        Self {
            name: "Qwen2-MoE".into(),
            cfg_group: "CFG#1".into(),
            num_experts: 60,
            top_k: 4,
            num_shared_experts: 2,
            hidden_size: 1408,
            intermediate_size: 2048,
            num_heads: 16,
            num_layers: 24,
            max_seq_len: 8192,
            activation: Activation::Silu,
        }
    }

    /// DeepSeek-MoE (CFG#1): 64 experts of 1408x2048.
    pub fn deepseek_moe() -> Self {
        Self {
            name: "DeepSeek-MoE".into(),
            cfg_group: "CFG#1".into(),
            num_experts: 64,
            top_k: 6,
            num_shared_experts: 2,
            hidden_size: 1408,
            intermediate_size: 2048,
            num_heads: 16,
            num_layers: 28,
            max_seq_len: 4096,
            activation: Activation::Silu,
        }
    }

    /// MiniCPM-MoE (CFG#2): 8 experts of 2304x5760.
    pub fn minicpm_moe() -> Self {
        Self {
            name: "MiniCPM-MoE".into(),
            cfg_group: "CFG#2".into(),
            num_experts: 8,
            top_k: 2,
            num_shared_experts: 0,
            hidden_size: 2304,
            intermediate_size: 5760,
            num_heads: 36,
            num_layers: 40,
            max_seq_len: 4096,
            activation: Activation::Silu,
        }
    }

    /// OpenMoE-34B (CFG#3): 32 experts of 3072x12288, ReLU activation
    /// (the incompatibility that produces the NS markers of Figure 14),
    /// 2048 max sequence length.
    pub fn openmoe_34b() -> Self {
        Self {
            name: "OpenMoE-34B".into(),
            cfg_group: "CFG#3".into(),
            num_experts: 32,
            top_k: 2,
            num_shared_experts: 0,
            hidden_size: 3072,
            intermediate_size: 12288,
            num_heads: 24,
            num_layers: 32,
            max_seq_len: 2048,
            activation: Activation::Relu,
        }
    }

    /// Mixtral-8x7B (CFG#4): 8 experts of 4096x14336.
    pub fn mixtral_8x7b() -> Self {
        Self {
            name: "Mixtral-8x7B".into(),
            cfg_group: "CFG#4".into(),
            num_experts: 8,
            top_k: 2,
            num_shared_experts: 0,
            hidden_size: 4096,
            intermediate_size: 14336,
            num_heads: 32,
            num_layers: 32,
            max_seq_len: 32768,
            activation: Activation::Silu,
        }
    }

    /// Mixtral-8x22B (CFG#5): 8 experts of 6144x16384.
    pub fn mixtral_8x22b() -> Self {
        Self {
            name: "Mixtral-8x22B".into(),
            cfg_group: "CFG#5".into(),
            num_experts: 8,
            top_k: 2,
            num_shared_experts: 0,
            hidden_size: 6144,
            intermediate_size: 16384,
            num_heads: 48,
            num_layers: 56,
            max_seq_len: 65536,
            activation: Activation::Silu,
        }
    }

    /// The six models of Table 2 in presentation order.
    pub fn table2() -> Vec<MoeModelConfig> {
        vec![
            Self::qwen2_moe(),
            Self::deepseek_moe(),
            Self::minicpm_moe(),
            Self::openmoe_34b(),
            Self::mixtral_8x7b(),
            Self::mixtral_8x22b(),
        ]
    }

    /// A tiny synthetic configuration used by functional tests and the
    /// quickstart example (small enough to execute numerically on the CPU).
    pub fn tiny_test() -> Self {
        Self {
            name: "Tiny-Test-MoE".into(),
            cfg_group: "TEST".into(),
            num_experts: 4,
            top_k: 2,
            num_shared_experts: 0,
            hidden_size: 64,
            intermediate_size: 128,
            num_heads: 4,
            num_layers: 2,
            max_seq_len: 256,
            activation: Activation::Silu,
        }
    }

    /// Parameters of one expert (gate + up + down projections).
    pub fn params_per_expert(&self) -> usize {
        3 * self.hidden_size * self.intermediate_size
    }

    /// Parameters of one MoE layer (routed + shared experts + router).
    pub fn params_per_moe_layer(&self) -> usize {
        (self.num_experts + self.num_shared_experts) * self.params_per_expert()
            + self.hidden_size * self.num_experts
    }

    /// Parameters of one attention block (Q, K, V, O projections).
    pub fn params_per_attention(&self) -> usize {
        4 * self.hidden_size * self.hidden_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_the_paper() {
        let models = MoeModelConfig::table2();
        assert_eq!(models.len(), 6);
        let by_name = |n: &str| models.iter().find(|m| m.name == n).unwrap();
        assert_eq!(by_name("Qwen2-MoE").num_experts, 60);
        assert_eq!(by_name("Qwen2-MoE").hidden_size, 1408);
        assert_eq!(by_name("DeepSeek-MoE").num_experts, 64);
        assert_eq!(by_name("MiniCPM-MoE").intermediate_size, 5760);
        assert_eq!(by_name("OpenMoE-34B").hidden_size, 3072);
        assert_eq!(by_name("OpenMoE-34B").activation, Activation::Relu);
        assert_eq!(by_name("Mixtral-8x7B").intermediate_size, 14336);
        assert_eq!(by_name("Mixtral-8x22B").hidden_size, 6144);
        // CFG groups.
        assert_eq!(
            by_name("Qwen2-MoE").cfg_group,
            by_name("DeepSeek-MoE").cfg_group
        );
        assert_eq!(by_name("Mixtral-8x22B").cfg_group, "CFG#5");
    }

    #[test]
    fn parameter_accounting() {
        let m = MoeModelConfig::mixtral_8x7b();
        assert_eq!(m.params_per_expert(), 3 * 4096 * 14336);
        assert!(m.params_per_moe_layer() > 8 * m.params_per_expert());
        assert_eq!(m.params_per_attention(), 4 * 4096 * 4096);
    }

    #[test]
    fn tiny_config_is_small_enough_for_functional_tests() {
        let t = MoeModelConfig::tiny_test();
        assert!(t.hidden_size * t.intermediate_size < 10_000);
        assert!(t.num_experts >= 2);
        assert!(t.top_k <= t.num_experts);
    }
}
