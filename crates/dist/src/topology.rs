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
//! [`LinkSpec`], with optional heterogeneous per-pair overrides for
//! dedicated point-to-point links. The all-to-all is priced in two phases,
//! the classic hierarchical decomposition:
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
//! any topology with no cross-island traffic costs exactly 0). The
//! `topology_equivalence` suite pins this bit for bit against the frozen
//! pre-refactor formula.

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

/// A dedicated heterogeneous link between one specific GPU pair,
/// overriding whatever phase its traffic would normally ride (an NVLink
/// bridge between two otherwise-PCIe consumer cards, or a degraded cable).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PairOverride {
    /// First endpoint (global GPU id).
    pub a: usize,
    /// Second endpoint (global GPU id).
    pub b: usize,
    /// The dedicated link the pair's traffic uses instead.
    pub link: LinkSpec,
}

/// GPUs grouped into islands bound by a spine, with optional per-pair
/// overrides. Global GPU ids are assigned contiguously in island order:
/// island 0 owns GPUs `0..islands[0].gpus`, island 1 the next block, etc.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterTopology {
    /// The islands, in GPU-id order.
    pub islands: Vec<Island>,
    /// The inter-island spine fabric (unused when there is one island).
    pub spine: LinkSpec,
    /// Dedicated per-pair links carved out of the standard phases.
    pub pair_overrides: Vec<PairOverride>,
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
    /// Slowest dedicated pair link, milliseconds (overridden pairs run
    /// concurrently with the standard phases).
    pub override_ms: f64,
    /// Total bytes crossing island boundaries (one direction).
    pub cross_island_bytes: f64,
}

impl HierarchicalCost {
    /// End-to-end collective time: the two serial phases, overlapped with
    /// the dedicated pair links.
    pub fn total_ms(&self) -> f64 {
        (self.intra_ms + self.spine_ms).max(self.override_ms)
    }
}

/// Exact per-pair byte flows of one collective direction: `bytes[src][dst]`
/// for `src != dst`. Built by the cluster simulator from the sharded
/// routing plan, consumed by [`ClusterTopology::all_to_all_ms`].
#[derive(Debug, Clone, PartialEq)]
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
    /// A single flat island: every GPU on one fabric. Reproduces the
    /// single-level α-β all-to-all exactly.
    pub fn flat(num_gpus: usize, link: LinkSpec) -> Self {
        Self {
            spine: link.clone(),
            islands: vec![Island {
                gpus: num_gpus,
                link,
            }],
            pair_overrides: Vec::new(),
        }
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
        Ok(Self {
            islands: (0..num_islands)
                .map(|_| Island {
                    gpus: gpus_per_island,
                    link: intra.clone(),
                })
                .collect(),
            spine,
            pair_overrides: Vec::new(),
        })
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
        Self {
            islands,
            spine: LinkSpec::infiniband_ndr(),
            pair_overrides: Vec::new(),
        }
    }

    /// Add a dedicated link between GPUs `a` and `b` (global ids); their
    /// traffic leaves the standard phases and rides this link concurrently.
    /// At most one override per pair — [`ClusterTopology::validate`]
    /// rejects duplicates (to swap a pair's link, replace its entry).
    pub fn with_pair_override(mut self, a: usize, b: usize, link: LinkSpec) -> Self {
        self.pair_overrides.push(PairOverride { a, b, link });
        self
    }

    /// Total GPUs across all islands.
    pub fn num_gpus(&self) -> usize {
        self.islands.iter().map(|i| i.gpus).sum()
    }

    /// Number of islands.
    pub fn num_islands(&self) -> usize {
        self.islands.len()
    }

    /// Whether the topology collapses to the single-level model: one
    /// island, no overrides.
    pub fn is_flat(&self) -> bool {
        self.islands.len() == 1 && self.pair_overrides.is_empty()
    }

    /// The island owning GPU `gpu` (ids are contiguous in island order).
    pub fn island_of(&self, gpu: usize) -> usize {
        let mut base = 0usize;
        for (k, island) in self.islands.iter().enumerate() {
            base += island.gpus;
            if gpu < base {
                return k;
            }
        }
        self.islands.len().saturating_sub(1)
    }

    /// Per-GPU island ids as a dense lookup (`lookup[gpu] ==
    /// island_of(gpu)`), for hot loops that would otherwise re-scan the
    /// island list per GPU.
    pub fn island_lookup(&self) -> Vec<usize> {
        let mut lookup = Vec::with_capacity(self.num_gpus());
        for (k, island) in self.islands.iter().enumerate() {
            lookup.extend(std::iter::repeat_n(k, island.gpus));
        }
        lookup
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

    /// Whether a dedicated link covers the `(a, b)` pair (in either
    /// direction).
    fn override_for(&self, a: usize, b: usize) -> Option<&LinkSpec> {
        self.pair_overrides
            .iter()
            .find(|o| (o.a == a && o.b == b) || (o.a == b && o.b == a))
            .map(|o| &o.link)
    }

    /// Every internal-consistency problem at once: at least one GPU,
    /// override endpoints in range and distinct, and at most one override
    /// per (unordered) GPU pair — a duplicate would charge the pair's
    /// traffic once per entry. Codes: `topology::empty`,
    /// `topology::override-out-of-range`, `topology::override-self-link`,
    /// `topology::override-duplicate`.
    pub fn validation(&self) -> ValidationReport {
        let mut report = ValidationReport::new();
        if self.islands.is_empty() || self.num_gpus() == 0 {
            report.push(Diagnostic::deny(
                "topology::empty",
                "ClusterTopology",
                "topology needs at least one island of at least one GPU",
                "add an island with gpus >= 1",
            ));
            return report;
        }
        let n = self.num_gpus();
        // Built only when a diagnostic is pushed: the cluster simulator
        // validates on every step.
        let ctx = |i: usize, o: &PairOverride| format!("pair_overrides[{i}] ({}, {})", o.a, o.b);
        for (i, o) in self.pair_overrides.iter().enumerate() {
            if o.a >= n || o.b >= n {
                report.push(Diagnostic::deny(
                    "topology::override-out-of-range",
                    ctx(i, o),
                    format!("endpoint out of range for a {n}-GPU topology"),
                    "use GPU ids below num_gpus()",
                ));
            }
            if o.a == o.b {
                report.push(Diagnostic::deny(
                    "topology::override-self-link",
                    ctx(i, o),
                    format!("GPU {} cannot have a dedicated link to itself", o.a),
                    "use two distinct GPU ids",
                ));
            }
            if self.pair_overrides[..i]
                .iter()
                .any(|p| (p.a == o.a && p.b == o.b) || (p.a == o.b && p.b == o.a))
            {
                report.push(Diagnostic::deny(
                    "topology::override-duplicate",
                    ctx(i, o),
                    format!(
                        "duplicate pair override for GPUs ({}, {}) — the pair's traffic \
                         would be charged once per entry",
                        o.a, o.b
                    ),
                    "replace the existing entry instead of stacking a second link",
                ));
            }
        }
        report
    }

    /// Price one all-to-all direction over the per-pair `flows`.
    ///
    /// Phase 1 runs every island's local all-to-all concurrently (cost =
    /// slowest island); phase 2 exchanges the aggregated cross-island bytes
    /// between island leaders over the spine. Traffic between overridden
    /// pairs is removed from both phases and charged on its dedicated link,
    /// overlapped with the phases. A flat topology prices to exactly the
    /// single-level `LinkSpec::all_to_all_ms` over the per-GPU byte
    /// vectors; zero cross-island traffic makes the spine phase exactly 0.
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

        // Dedicated pair links first: their traffic leaves the phases.
        let mut override_ms = 0.0f64;
        for o in &self.pair_overrides {
            let forward = o.link.point_to_point_ms(flows.get(o.a, o.b));
            let backward = o.link.point_to_point_ms(flows.get(o.b, o.a));
            // Full-duplex dedicated link: both directions in parallel.
            override_ms = override_ms.max(forward.max(backward));
        }
        let rides_phases = |a: usize, b: usize| {
            self.pair_overrides.is_empty() || self.override_for(a, b).is_none()
        };

        // Phase 1: each island's local all-to-all over its own fabric.
        let mut intra_ms = 0.0f64;
        for (k, island) in self.islands.iter().enumerate() {
            let members = self.island_members(k);
            let mut send = Vec::with_capacity(island.gpus);
            let mut recv = Vec::with_capacity(island.gpus);
            for i in members.clone() {
                let mut s = 0.0;
                let mut r = 0.0;
                for j in members.clone() {
                    if i != j && rides_phases(i, j) {
                        s += flows.get(i, j);
                        r += flows.get(j, i);
                    }
                }
                send.push(s);
                recv.push(r);
            }
            intra_ms = intra_ms.max(island.link.all_to_all_ms(&send, &recv));
        }

        // Phase 2: island leaders exchange the aggregated cross-island
        // bytes over the spine (endpoints are the islands themselves).
        let islands = self.islands.len();
        let island_lookup = self.island_lookup();
        let mut island_send = vec![0.0f64; islands];
        let mut island_recv = vec![0.0f64; islands];
        for src in 0..n {
            let src_island = island_lookup[src];
            for dst in 0..n {
                if src == dst || island_lookup[dst] == src_island || !rides_phases(src, dst) {
                    continue;
                }
                let b = flows.get(src, dst);
                island_send[src_island] += b;
                island_recv[island_lookup[dst]] += b;
            }
        }
        let cross_island_bytes: f64 = island_send.iter().sum();
        let spine_ms = self.spine.all_to_all_ms(&island_send, &island_recv);

        HierarchicalCost {
            intra_ms,
            spine_ms,
            override_ms,
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
        assert_eq!(two_node.spine, LinkSpec::infiniband_ndr());
        // Consumer hosts carry 2 cards: 8 GPUs = 4 PCIe islands.
        let consumer = ClusterTopology::for_device(&DeviceSpec::rtx4070_super(), 8);
        assert_eq!(consumer.num_islands(), 4);
        assert_eq!(consumer.name(), "4×2 PCIe 4.0 x16 + InfiniBand NDR spine");
        // A ragged tail island keeps every GPU accounted for.
        let ragged = ClusterTopology::for_device(&a100, 11);
        assert_eq!(ragged.num_islands(), 2);
        assert_eq!(ragged.islands[1].gpus, 3);
        assert_eq!(ragged.island_of(10), 1);
        assert_eq!(ragged.island_members(1), 8..11);
    }

    #[test]
    fn pair_overrides_reroute_traffic_onto_the_dedicated_link() {
        let nvlink_bridge = LinkSpec::nvlink3();
        let topo = ClusterTopology::flat(2, LinkSpec::pcie_gen4()).with_pair_override(
            0,
            1,
            nvlink_bridge.clone(),
        );
        topo.validate().unwrap();
        let mut flows = FlowMatrix::new(2);
        flows.add(0, 1, 1e8);
        flows.add(1, 0, 1e8);
        let cost = topo.all_to_all_ms(&flows);
        // All traffic rides the bridge: the PCIe phase is empty and the
        // total is the full-duplex point-to-point time on NVLink.
        assert_eq!(cost.intra_ms, 0.0);
        assert_eq!(cost.spine_ms, 0.0);
        assert_eq!(cost.override_ms, nvlink_bridge.point_to_point_ms(1e8));
        let plain = ClusterTopology::flat(2, LinkSpec::pcie_gen4());
        assert!(cost.total_ms() < plain.all_to_all_ms(&flows).total_ms());
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

    #[test]
    fn validate_rejects_out_of_range_overrides() {
        let topo = ClusterTopology::flat(2, LinkSpec::nvlink3());
        assert!(topo
            .clone()
            .with_pair_override(0, 5, LinkSpec::nvlink3())
            .validate()
            .is_err());
        assert!(topo
            .clone()
            .with_pair_override(1, 1, LinkSpec::nvlink3())
            .validate()
            .is_err());
        // One link per pair: a second override for the same (unordered)
        // pair would charge the traffic twice, so validate rejects it.
        assert!(topo
            .with_pair_override(0, 1, LinkSpec::pcie_gen4())
            .with_pair_override(1, 0, LinkSpec::nvlink3())
            .validate()
            .is_err());
    }
}
