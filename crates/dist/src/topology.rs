//! Hierarchical interconnect topology: NVLink islands stitched by an
//! InfiniBand spine.
//!
//! Real multi-node fleets are not one homogeneous fabric: GPUs inside a
//! node exchange over NVLink (or PCIe through the host) at hundreds of
//! GB/s, while traffic between nodes crosses an InfiniBand spine an order
//! of magnitude slower. Collapsing that to a single [`LinkSpec`] either
//! wildly over-prices intra-node traffic or wildly under-prices cross-node
//! traffic — and the per-layer dispatch/combine all-to-all is the dominant
//! cost of expert-parallel MoE serving, so the error distorts every
//! placement, admission and autoscaling decision downstream.
//!
//! [`ClusterTopology`] groups the GPUs of a cluster into *islands* (each
//! with its own intra-island [`LinkSpec`]) bound by a *spine*
//! [`LinkSpec`]. The all-to-all is priced in two phases, the classic
//! hierarchical decomposition:
//!
//! 1. **intra-island** — every island runs a local all-to-all over its own
//!    fabric, concurrently with the other islands (the phase costs the
//!    slowest island);
//! 2. **spine** — each island's leader exchanges the island's aggregated
//!    cross-island bytes with the other leaders over the spine, an
//!    all-to-all whose endpoints are the islands themselves.
//!
//! A single flat island reproduces the single-level α-β cost **exactly**:
//! phase 1 degenerates to [`LinkSpec::all_to_all_ms`] over the full
//! per-GPU byte vectors and phase 2 carries zero bytes (the spine phase of
//! any topology with no cross-island traffic costs exactly 0). A unit test
//! pins this identity, and the root golden table
//! `tests/golden/collective_costs.txt` pins both prices bit for bit.

use crate::link::LinkSpec;
use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_serve::{Diagnostic, ValidationReport};
use samoyeds_sparse::{Result, SparseError};
use serde::{Deserialize, Serialize};

/// One NVLink/PCIe island: a group of GPUs sharing an intra-node fabric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Island {
    /// GPUs in the island.
    pub gpus: usize,
    /// The fabric binding the island's GPUs together.
    pub link: LinkSpec,
}

/// GPUs grouped into islands bound by a spine. Global GPU ids are assigned
/// contiguously in island order: island 0 owns GPUs `0..islands[0].gpus`,
/// island 1 the next block, etc.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterTopology {
    /// The islands, in GPU-id order.
    islands: Vec<Island>,
    /// The inter-island spine fabric (unused when there is one island).
    spine: LinkSpec,
    /// Each GPU's island, worked out once from `islands`.
    island_lookup: Vec<usize>,
}

/// The two-phase cost of one hierarchical all-to-all (one direction:
/// dispatch *or* combine).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchicalCost {
    /// Slowest island's local all-to-all, milliseconds (islands run
    /// concurrently).
    pub intra_ms: f64,
    /// Island-leader exchange over the spine, milliseconds.
    pub spine_ms: f64,
    /// Total bytes crossing island boundaries (one direction).
    pub cross_island_bytes: f64,
}

impl HierarchicalCost {
    /// End-to-end collective time: the two serial phases.
    pub fn total_ms(&self) -> f64 {
        self.intra_ms + self.spine_ms
    }
}

/// Exact per-pair byte flows of one collective direction: `bytes[src][dst]`
/// for `src != dst`. Built by the cluster simulator from each expert's
/// per-source-rank token counts and where its replicas live, consumed by
/// [`ClusterTopology::all_to_all_ms`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowMatrix {
    gpus: usize,
    bytes: Vec<f64>,
}

impl FlowMatrix {
    /// An all-zero matrix over `gpus` endpoints.
    pub fn new(gpus: usize) -> Self {
        Self {
            gpus,
            bytes: vec![0.0; gpus * gpus],
        }
    }

    /// Number of endpoints.
    pub fn gpus(&self) -> usize {
        self.gpus
    }

    /// Add `bytes` to the `src → dst` flow. Self-flows (`src == dst`) are
    /// local copies and are ignored.
    pub fn add(&mut self, src: usize, dst: usize, bytes: f64) {
        if src != dst {
            self.bytes[src * self.gpus + dst] += bytes;
        }
    }

    /// Reset to `gpus` endpoints whose `src → dst` flow is
    /// `tokens[src * gpus + dst]` tokens of `token_bytes` bytes each, the
    /// self-flows left at zero. Each flow is one exact product while the
    /// bytes stay below 2^53, so it equals any sum of its tokens' bytes.
    pub(crate) fn set_tokens(&mut self, gpus: usize, tokens: &[usize], token_bytes: f64) {
        self.gpus = gpus;
        self.bytes.clear();
        self.bytes
            .extend(tokens.iter().map(|&n| n as f64 * token_bytes));
        for g in 0..gpus {
            self.bytes[g * gpus + g] = 0.0;
        }
    }

    /// The `src → dst` flow in bytes.
    pub fn get(&self, src: usize, dst: usize) -> f64 {
        self.bytes[src * self.gpus + dst]
    }

    /// Total bytes sent by `src` (its row sum).
    pub fn sent_by(&self, src: usize) -> f64 {
        (0..self.gpus).map(|dst| self.get(src, dst)).sum()
    }

    /// Total bytes received by `dst` (its column sum).
    pub fn received_by(&self, dst: usize) -> f64 {
        (0..self.gpus).map(|src| self.get(src, dst)).sum()
    }
}

impl ClusterTopology {
    /// `islands`, in GPU-id order, bound by `spine`. Any shape is accepted
    /// here; [`Self::validate`] rejects one without GPUs.
    pub fn new(islands: Vec<Island>, spine: LinkSpec) -> Self {
        let island_lookup = islands
            .iter()
            .enumerate()
            .flat_map(|(k, island)| std::iter::repeat_n(k, island.gpus))
            .collect();
        Self {
            islands,
            spine,
            island_lookup,
        }
    }

    /// A single flat island: every GPU on one fabric. Reproduces the
    /// single-level α-β all-to-all exactly.
    pub fn flat(num_gpus: usize, link: LinkSpec) -> Self {
        Self::new(
            vec![Island {
                gpus: num_gpus,
                link: link.clone(),
            }],
            link,
        )
    }

    /// `num_islands` islands of `gpus_per_island` GPUs each, every island
    /// on `intra`, leaders bound by `spine`.
    pub fn symmetric(
        num_islands: usize,
        gpus_per_island: usize,
        intra: LinkSpec,
        spine: LinkSpec,
    ) -> Result<Self> {
        if num_islands == 0 || gpus_per_island == 0 {
            return Err(SparseError::config(
                "topology needs at least one island of at least one GPU",
            ));
        }
        Ok(Self::new(
            (0..num_islands)
                .map(|_| Island {
                    gpus: gpus_per_island,
                    link: intra.clone(),
                })
                .collect(),
            spine,
        ))
    }

    /// The topology a fleet of `num_gpus` × `device` deploys as: islands of
    /// [`DeviceSpec::gpus_per_node`] on the device's native fabric, stitched
    /// by an InfiniBand NDR spine once the cluster outgrows one node.
    pub fn for_device(device: &DeviceSpec, num_gpus: usize) -> Self {
        let node = device.gpus_per_node().max(1);
        let link = LinkSpec::for_device(device);
        if num_gpus <= node {
            return Self::flat(num_gpus, link);
        }
        let mut islands = Vec::new();
        let mut remaining = num_gpus;
        while remaining > 0 {
            islands.push(Island {
                gpus: remaining.min(node),
                link: link.clone(),
            });
            remaining -= remaining.min(node);
        }
        Self::new(islands, LinkSpec::infiniband_ndr())
    }

    /// The islands, in GPU-id order.
    pub fn islands(&self) -> &[Island] {
        &self.islands
    }

    /// The inter-island spine fabric (unused when there is one island).
    pub fn spine(&self) -> &LinkSpec {
        &self.spine
    }

    /// Total GPUs across all islands.
    pub fn num_gpus(&self) -> usize {
        self.island_lookup.len()
    }

    /// Number of islands.
    pub fn num_islands(&self) -> usize {
        self.islands.len()
    }

    /// Whether the topology collapses to the single-level model: one
    /// island.
    pub fn is_flat(&self) -> bool {
        self.islands.len() == 1
    }

    /// The island owning GPU `gpu` (ids are contiguous in island order); a
    /// GPU past the last island counts as the last island's.
    pub fn island_of(&self, gpu: usize) -> usize {
        self.island_lookup
            .get(gpu)
            .copied()
            .unwrap_or(self.islands.len().saturating_sub(1))
    }

    /// Per-GPU island ids as a dense lookup (`lookup[gpu] ==
    /// island_of(gpu)`), kept with the topology for hot loops.
    pub fn island_lookup(&self) -> &[usize] {
        &self.island_lookup
    }

    /// The global GPU ids of island `island`.
    pub fn island_members(&self, island: usize) -> std::ops::Range<usize> {
        let start: usize = self.islands[..island].iter().map(|i| i.gpus).sum();
        start..start + self.islands[island].gpus
    }

    /// Human-readable label, e.g. `"2×4 NVLink 3 + InfiniBand NDR spine"`
    /// (a flat topology is just its fabric name).
    pub fn name(&self) -> String {
        if self.islands.len() == 1 {
            return self.islands[0].link.name.clone();
        }
        let sizes_match = self.islands.windows(2).all(|w| w[0].gpus == w[1].gpus);
        let links_match = self.islands.windows(2).all(|w| w[0].link == w[1].link);
        if sizes_match && links_match {
            format!(
                "{}×{} {} + {} spine",
                self.islands.len(),
                self.islands[0].gpus,
                self.islands[0].link.name,
                self.spine.name
            )
        } else {
            format!(
                "{} mixed islands + {} spine",
                self.islands.len(),
                self.spine.name
            )
        }
    }

    /// Check internal consistency, failing on the first problem. Use
    /// [`Self::validation`] to see them all.
    pub fn validate(&self) -> Result<()> {
        match self.validation().diagnostics().first() {
            Some(d) => Err(SparseError::config(d.message.clone())),
            None => Ok(()),
        }
    }

    /// Every internal-consistency problem at once: the topology needs at
    /// least one GPU. Code: `topology::empty`.
    pub fn validation(&self) -> ValidationReport {
        let mut report = ValidationReport::new();
        if self.islands.is_empty() || self.num_gpus() == 0 {
            report.push(Diagnostic::deny(
                "topology::empty",
                "ClusterTopology",
                "topology needs at least one island of at least one GPU",
                "add an island with gpus >= 1",
            ));
        }
        report
    }

    /// Price one all-to-all direction over the per-pair `flows`.
    ///
    /// Phase 1 runs every island's local all-to-all concurrently (cost =
    /// slowest island); phase 2 exchanges the aggregated cross-island bytes
    /// between island leaders over the spine. A flat topology prices to
    /// exactly the single-level `LinkSpec::all_to_all_ms` over the per-GPU
    /// byte vectors; zero cross-island traffic makes the spine phase exactly
    /// 0. Each endpoint's bytes are summed in destination (or source) order
    /// and only the busiest endpoint enters the cost, so nothing is
    /// allocated.
    pub fn all_to_all_ms(&self, flows: &FlowMatrix) -> HierarchicalCost {
        let n = self.num_gpus();
        // A mismatched matrix would silently drop (or misattribute) traffic;
        // it is a caller bug, so fail loudly in release builds too.
        assert_eq!(
            flows.gpus(),
            n,
            "flow matrix spans {} GPUs but the topology has {n}",
            flows.gpus()
        );

        // Phase 1: each island's local all-to-all over its own fabric.
        // Phase 2: island leaders exchange the aggregated cross-island
        // bytes over the spine (endpoints are the islands themselves).
        let mut intra_ms = 0.0f64;
        let mut spine_busiest = 0.0f64;
        let mut cross_island_bytes = 0.0f64;
        let mut start = 0;
        for (k, island) in self.islands.iter().enumerate() {
            let members = start..start + island.gpus;
            start = members.end;
            let mut busiest = 0.0f64;
            let (mut island_send, mut island_recv) = (0.0f64, 0.0f64);
            for i in members.clone() {
                let (mut send, mut recv) = (0.0, 0.0);
                for j in members.clone() {
                    if i != j {
                        send += flows.get(i, j);
                        recv += flows.get(j, i);
                    }
                }
                busiest = busiest.max(send).max(recv);
                for dst in (0..n).filter(|&dst| self.island_lookup[dst] != k) {
                    island_send += flows.get(i, dst);
                }
            }
            for src in (0..n).filter(|&src| self.island_lookup[src] != k) {
                for dst in members.clone() {
                    island_recv += flows.get(src, dst);
                }
            }
            intra_ms = intra_ms.max(island.link.busiest_all_to_all_ms(island.gpus, busiest));
            spine_busiest = spine_busiest.max(island_send).max(island_recv);
            cross_island_bytes += island_send;
        }
        let spine_ms = self
            .spine
            .busiest_all_to_all_ms(self.islands.len(), spine_busiest);

        HierarchicalCost {
            intra_ms,
            spine_ms,
            cross_island_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A uniform exchange: every GPU sends `bytes` to every other GPU.
    fn uniform_flows(gpus: usize, bytes: f64) -> FlowMatrix {
        let mut flows = FlowMatrix::new(gpus);
        for src in 0..gpus {
            for dst in 0..gpus {
                flows.add(src, dst, bytes);
            }
        }
        flows
    }

    #[test]
    fn flat_topology_prices_exactly_like_the_single_level_model() {
        let link = LinkSpec::nvlink3();
        let topo = ClusterTopology::flat(4, link.clone());
        assert!(topo.is_flat());
        assert_eq!(topo.name(), "NVLink 3");
        let mut flows = FlowMatrix::new(4);
        // A skewed exchange: GPU 0 is the hot endpoint.
        flows.add(0, 1, 3e8);
        flows.add(0, 2, 1e8);
        flows.add(1, 0, 2e8);
        flows.add(3, 0, 5e7);
        let send: Vec<f64> = (0..4).map(|g| flows.sent_by(g)).collect();
        let recv: Vec<f64> = (0..4).map(|g| flows.received_by(g)).collect();
        let cost = topo.all_to_all_ms(&flows);
        assert_eq!(cost.total_ms(), link.all_to_all_ms(&send, &recv));
        assert_eq!(cost.spine_ms, 0.0);
        assert_eq!(cost.cross_island_bytes, 0.0);
    }

    #[test]
    fn spine_phase_is_exactly_zero_without_cross_island_traffic() {
        let topo =
            ClusterTopology::symmetric(2, 4, LinkSpec::nvlink3(), LinkSpec::infiniband_ndr())
                .unwrap();
        let mut flows = FlowMatrix::new(8);
        // Only intra-island traffic: 0..4 exchange, 4..8 exchange.
        for island in [0usize, 4] {
            for i in island..island + 4 {
                for j in island..island + 4 {
                    flows.add(i, j, 1e7);
                }
            }
        }
        let cost = topo.all_to_all_ms(&flows);
        assert!(cost.intra_ms > 0.0);
        assert_eq!(cost.spine_ms, 0.0);
        assert_eq!(cost.cross_island_bytes, 0.0);
        assert_eq!(cost.total_ms(), cost.intra_ms);
    }

    #[test]
    fn slow_spine_dominates_the_same_exchange_on_a_hierarchical_topology() {
        let flat = ClusterTopology::flat(8, LinkSpec::nvlink3());
        let hier =
            ClusterTopology::symmetric(2, 4, LinkSpec::nvlink3(), LinkSpec::infiniband_ndr())
                .unwrap();
        let flows = uniform_flows(8, 16e6);
        let t_flat = flat.all_to_all_ms(&flows).total_ms();
        let cost = hier.all_to_all_ms(&flows);
        // Half the traffic crosses the 50 GB/s spine instead of 300 GB/s
        // NVLink, and the leaders carry their whole island's share.
        assert!(cost.spine_ms > cost.intra_ms, "{cost:?}");
        assert!(cost.total_ms() > t_flat, "{} vs {t_flat}", cost.total_ms());
        // 2 islands × 4 GPUs × 4 remote peers × 16 MB, each direction.
        assert_eq!(cost.cross_island_bytes, 2.0 * 4.0 * 4.0 * 16e6);
    }

    #[test]
    fn for_device_splits_at_the_node_boundary() {
        let a100 = DeviceSpec::a100_40g();
        assert!(ClusterTopology::for_device(&a100, 8).is_flat());
        let two_node = ClusterTopology::for_device(&a100, 16);
        assert_eq!(two_node.num_islands(), 2);
        assert_eq!(two_node.num_gpus(), 16);
        assert_eq!(*two_node.spine(), LinkSpec::infiniband_ndr());
        // Consumer hosts carry 2 cards: 8 GPUs = 4 PCIe islands.
        let consumer = ClusterTopology::for_device(&DeviceSpec::rtx4070_super(), 8);
        assert_eq!(consumer.num_islands(), 4);
        assert_eq!(consumer.name(), "4×2 PCIe 4.0 x16 + InfiniBand NDR spine");
        // A ragged tail island keeps every GPU accounted for.
        let ragged = ClusterTopology::for_device(&a100, 11);
        assert_eq!(ragged.num_islands(), 2);
        assert_eq!(ragged.islands()[1].gpus, 3);
        assert_eq!(ragged.island_of(10), 1);
        assert_eq!(ragged.island_members(1), 8..11);
    }

    #[test]
    fn degenerate_topologies_cost_nothing() {
        // 1 GPU, and 1 island of 1: no peers, no phases.
        for topo in [
            ClusterTopology::flat(1, LinkSpec::nvlink3()),
            ClusterTopology::symmetric(1, 1, LinkSpec::pcie_gen4(), LinkSpec::infiniband_ndr())
                .unwrap(),
        ] {
            let cost = topo.all_to_all_ms(&FlowMatrix::new(1));
            assert_eq!(cost.total_ms(), 0.0);
            assert_eq!(cost.intra_ms, 0.0);
            assert_eq!(cost.spine_ms, 0.0);
        }
        assert!(
            ClusterTopology::symmetric(0, 4, LinkSpec::nvlink3(), LinkSpec::nvlink3()).is_err()
        );
        assert!(
            ClusterTopology::symmetric(2, 0, LinkSpec::nvlink3(), LinkSpec::nvlink3()).is_err()
        );
    }
}
