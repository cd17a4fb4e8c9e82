//! Interconnect model: link presets and the all-to-all collective cost.
//!
//! Expert-parallel MoE serving pays two all-to-all collectives per MoE layer
//! (token dispatch to the expert owners, expert outputs back — the GShard
//! data flow). This module prices those collectives with the classic linear
//! (α-β) model: a per-peer startup latency plus a bandwidth term bottlenecked
//! by the busiest endpoint. Presets cover the fabrics of the modeled devices
//! (PCIe through the host for consumer cards, NVLink for the datacenter
//! parts) plus InfiniBand for cross-node scaling.

use samoyeds_gpu_sim::{DeviceSpec, Interconnect};
use samoyeds_serve::KvLink;
use serde::{Deserialize, Serialize};

/// One peer-to-peer fabric binding a cluster together.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Display name.
    pub name: String,
    /// One-way message latency in microseconds (per peer message of a
    /// collective phase).
    pub latency_us: f64,
    /// Per-GPU unidirectional bandwidth in GB/s.
    pub bandwidth_gbps: f64,
}

impl LinkSpec {
    /// PCIe 4.0 x16 through the host (no peer-to-peer fabric).
    pub fn pcie_gen4() -> Self {
        Self::from_interconnect(Interconnect::PcieGen4)
    }

    /// NVLink 3 (A100-class).
    pub fn nvlink3() -> Self {
        Self::from_interconnect(Interconnect::Nvlink3)
    }

    /// NVLink 4 (H100-class).
    pub fn nvlink4() -> Self {
        Self::from_interconnect(Interconnect::Nvlink4)
    }

    /// InfiniBand NDR, the cross-node spine fabric. The marketing figure is
    /// 400 Gb/s (bits) per port; `bandwidth_gbps` here is **GB/s (bytes)**,
    /// so the preset carries 400 / 8 = 50 GB/s — the value the
    /// [`Interconnect::InfiniBandNdr`] database entry stores.
    pub fn infiniband_ndr() -> Self {
        Self::from_interconnect(Interconnect::InfiniBandNdr)
    }

    /// Build a link from a device-database interconnect entry.
    pub fn from_interconnect(kind: Interconnect) -> Self {
        Self {
            name: kind.name().to_string(),
            latency_us: kind.latency_us(),
            bandwidth_gbps: kind.bandwidth_gbps(),
        }
    }

    /// The link a homogeneous cluster of `device` ships with.
    pub fn for_device(device: &DeviceSpec) -> Self {
        Self::from_interconnect(device.interconnect)
    }

    /// Time (milliseconds) of one all-to-all collective phase given the
    /// bytes each GPU sends to remote peers and the bytes each GPU receives
    /// from remote peers.
    ///
    /// Linear cost model: every GPU exchanges messages with its `p - 1`
    /// peers (startup `α·(p − 1)`), and the bandwidth term is set by the
    /// busiest endpoint, `max_i max(send_i, recv_i) / B` — load imbalance on
    /// a single expert owner therefore stretches the whole collective.
    /// Returns zero for a single GPU or an empty exchange.
    pub fn all_to_all_ms(&self, send_bytes: &[f64], recv_bytes: &[f64]) -> f64 {
        let busiest = send_bytes
            .iter()
            .chain(recv_bytes.iter())
            .fold(0.0f64, |acc, &b| acc.max(b));
        self.busiest_all_to_all_ms(send_bytes.len().max(recv_bytes.len()), busiest)
    }

    /// [`Self::all_to_all_ms`] over `gpus` endpoints whose busiest one
    /// sends or receives `busiest` bytes: all the cost reads of the byte
    /// vectors.
    pub(crate) fn busiest_all_to_all_ms(&self, gpus: usize, busiest: f64) -> f64 {
        if gpus <= 1 || busiest <= 0.0 {
            return 0.0;
        }
        self.latency_us * 1e-3 * (gpus - 1) as f64 + busiest / (self.bandwidth_gbps * 1e9) * 1e3
    }
}

/// The serve-side point-to-point view of a link (latency and bandwidth), as
/// KV-cache handoffs are priced.
impl From<&LinkSpec> for KvLink {
    fn from(spec: &LinkSpec) -> Self {
        KvLink {
            latency_us: spec.latency_us,
            bandwidth_gbps: spec.bandwidth_gbps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_order_by_fabric_quality() {
        let pcie = LinkSpec::pcie_gen4();
        let nv3 = LinkSpec::nvlink3();
        let nv4 = LinkSpec::nvlink4();
        let ib = LinkSpec::infiniband_ndr();
        assert!(nv4.bandwidth_gbps > nv3.bandwidth_gbps);
        assert!(nv3.bandwidth_gbps > pcie.bandwidth_gbps);
        assert!(ib.latency_us > nv3.latency_us);
        assert_eq!(
            LinkSpec::for_device(&DeviceSpec::a100_40g()),
            LinkSpec::nvlink3()
        );
        assert_eq!(
            LinkSpec::for_device(&DeviceSpec::rtx4070_super()),
            LinkSpec::pcie_gen4()
        );
    }

    #[test]
    fn presets_match_their_interconnect_database_entries() {
        // Every preset is a thin view over the `gpu-sim` interconnect
        // database, so the two layers can never disagree about a fabric.
        for (preset, entry) in [
            (LinkSpec::pcie_gen4(), Interconnect::PcieGen4),
            (LinkSpec::nvlink3(), Interconnect::Nvlink3),
            (LinkSpec::nvlink4(), Interconnect::Nvlink4),
            (LinkSpec::infiniband_ndr(), Interconnect::InfiniBandNdr),
        ] {
            assert_eq!(preset, LinkSpec::from_interconnect(entry));
            assert_eq!(preset.name, entry.name());
            assert_eq!(preset.latency_us, entry.latency_us());
            assert_eq!(preset.bandwidth_gbps, entry.bandwidth_gbps());
        }
        // The NDR preset is the bytes-converted 400 Gb/s port figure.
        assert_eq!(LinkSpec::infiniband_ndr().bandwidth_gbps, 400.0 / 8.0);
    }

    #[test]
    fn all_to_all_is_zero_for_one_gpu_and_grows_with_bytes() {
        let link = LinkSpec::nvlink3();
        assert_eq!(link.all_to_all_ms(&[1e9], &[1e9]), 0.0);
        assert_eq!(link.all_to_all_ms(&[0.0, 0.0], &[0.0, 0.0]), 0.0);
        let small = link.all_to_all_ms(&[1e6, 1e6], &[1e6, 1e6]);
        let large = link.all_to_all_ms(&[1e8, 1e6], &[1e6, 1e8]);
        assert!(small > 0.0);
        assert!(large > small);
        // Busiest endpoint sets the bandwidth term.
        let skewed = link.all_to_all_ms(&[1e8, 0.0], &[0.0, 1e8]);
        assert_eq!(skewed, large);
    }

    #[test]
    fn more_gpus_pay_more_startup_latency() {
        let link = LinkSpec::pcie_gen4();
        // 1 MB spread uniformly: each of `g` endpoints sends and receives
        // the remote `(g - 1) / g` of its `1e6 / g` share.
        let two = link.all_to_all_ms(&[2.5e5; 2], &[2.5e5; 2]);
        let eight = link.all_to_all_ms(&[109_375.0; 8], &[109_375.0; 8]);
        // The same total volume spread over more GPUs lowers the per-GPU
        // bandwidth term but pays more per-peer messages; with a tiny
        // payload the latency term dominates.
        assert!(eight > two * 2.0, "two {two} eight {eight}");
    }

    #[test]
    fn pcie_all_to_all_dwarfs_nvlink_for_the_same_exchange() {
        let bytes = vec![64e6; 4];
        let pcie = LinkSpec::pcie_gen4().all_to_all_ms(&bytes, &bytes);
        let nvlink = LinkSpec::nvlink3().all_to_all_ms(&bytes, &bytes);
        assert!(pcie > 5.0 * nvlink, "pcie {pcie} nvlink {nvlink}");
    }

    #[test]
    fn point_to_point_includes_latency_floor() {
        let spec = LinkSpec::nvlink3();
        let link = KvLink::from(&spec);
        assert_eq!(link.transfer_ms(0.0), 0.0);
        assert!(link.transfer_ms(1.0) >= spec.latency_us * 1e-3);
    }
}
