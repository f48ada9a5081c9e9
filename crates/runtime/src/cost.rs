//! The per-machine cost model for timing simulations.
//!
//! Stage durations are computed from *measured* workload quantities
//! (sampled MFG sizes, per-location vertex counts, bytes) and hardware
//! throughput constants calibrated to the paper's testbed: one AWS
//! g5.8xlarge per machine — 16-core CPU, one NVIDIA A10G, PCIe gen4, and
//! a 25 Gbps network SLA. Absolute times at mini scale are not meant to
//! match the paper's seconds; the *ratios* between system variants are
//! (DESIGN.md §2).

use spp_comm::NetworkModel;

/// Hardware throughput constants for one machine plus the interconnect.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Sampled-edge throughput of the shared-memory sampler pool (edges/s).
    pub sample_edges_per_sec: f64,
    /// Fixed per-batch sampling overhead (s).
    pub sample_fixed: f64,
    /// Feature-slicing (gather memcpy) throughput (bytes/s).
    pub slice_bytes_per_sec: f64,
    /// Host-to-device PCIe throughput (bytes/s).
    pub pcie_bytes_per_sec: f64,
    /// Fixed per-transfer PCIe overhead (s).
    pub pcie_fixed: f64,
    /// Effective GPU throughput for dense layers (FLOP/s).
    pub gpu_flops: f64,
    /// Fixed per-batch GPU overhead — kernel launches etc. (s).
    pub gpu_fixed: f64,
    /// The network.
    pub network: NetworkModel,
    /// Extra software overhead per communication round (s) — RPC stack,
    /// tensor (de)serialization. SALIENT++ keeps this tiny; DistDGL's RPC
    /// layer makes it large.
    pub comm_software_overhead: f64,
    /// Fraction of the gradient all-reduce hidden under the backward pass
    /// (PyTorch DDP overlaps gradient buckets with computation).
    pub allreduce_overlap: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            sample_edges_per_sec: 30e6,
            sample_fixed: 0.2e-3,
            slice_bytes_per_sec: 5e9,
            pcie_bytes_per_sec: 12e9,
            pcie_fixed: 30e-6,
            gpu_flops: 7e12,
            gpu_fixed: 0.5e-3,
            network: NetworkModel::aws_25gbps(),
            comm_software_overhead: 100e-6,
            allreduce_overlap: 0.0,
        }
    }
}

impl CostModel {
    /// The cost model the experiment harnesses use at 1/1000 dataset
    /// scale. The paper's testbed moves ~4 network bytes per GPU FLOP of
    /// training compute in the no-cache partitioned configuration; at
    /// mini scale the sampled neighborhoods are relatively denser and the
    /// feature vectors half as wide, so the simulated link rate is scaled
    /// down (25 Gbps -> 5 Gbps) to restore the paper's bytes-to-FLOPs
    /// balance, and DDP's gradient-bucket overlap is modeled explicitly.
    /// Shapes, not absolute seconds, are the reproduction target
    /// (DESIGN.md §2).
    pub fn mini_calibrated() -> Self {
        Self {
            sample_fixed: 50e-6,
            gpu_fixed: 100e-6,
            network: NetworkModel::new(2.5e9 / 8.0, 50e-6),
            comm_software_overhead: 25e-6,
            allreduce_overlap: 0.9,
            // PCIe and host gather throughput get the same bytes-per-FLOP
            // rescaling as the link rate (the host-to-device path is what
            // Figure 6's GPU-prefix experiment exercises).
            pcie_bytes_per_sec: 1.5e9,
            slice_bytes_per_sec: 2.5e9,
            ..Self::default()
        }
    }

    /// Replaces the network model (e.g. for slow-network experiments).
    pub fn with_network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// Time to sample an MFG with the given sampled-edge count.
    pub fn sample_time(&self, mfg_edges: usize) -> f64 {
        self.sample_fixed + mfg_edges as f64 / self.sample_edges_per_sec
    }

    /// Time to slice `rows` feature rows of dimension `dim` out of host
    /// memory.
    pub fn slice_time(&self, rows: usize, dim: usize) -> f64 {
        rows as f64 * dim as f64 * 4.0 / self.slice_bytes_per_sec
    }

    /// Time to move `bytes` host-to-device (or device-to-host).
    pub fn pcie_time(&self, bytes: f64) -> f64 {
        if bytes <= 0.0 {
            return 0.0;
        }
        self.pcie_fixed + bytes / self.pcie_bytes_per_sec
    }

    /// Forward+backward GPU time for a GNN batch.
    ///
    /// `layer_rows[l]` is the number of input rows feeding layer `l`
    /// (the MFG's cumulative size at depth `L-l`), and `dims` the layer
    /// widths `[in, hidden…, classes]`. FLOPs ≈ Σ rows·d_in·d_out·2,
    /// tripled for forward + backward (two grad matmuls).
    pub fn train_time(&self, layer_rows: &[usize], dims: &[usize]) -> f64 {
        let mut flops = 0.0f64;
        for (l, &rows) in layer_rows.iter().enumerate() {
            let din = dims[l] as f64;
            let dout = dims[l + 1] as f64;
            // GraphSAGE has two weight matrices (self + neighbor) per layer.
            flops += rows as f64 * din * dout * 2.0 * 2.0;
        }
        self.gpu_fixed + flops * 3.0 / self.gpu_flops
    }

    /// Inference-only GPU time (forward pass).
    pub fn infer_time(&self, layer_rows: &[usize], dims: &[usize]) -> f64 {
        (self.train_time(layer_rows, dims) - self.gpu_fixed) / 3.0 + self.gpu_fixed
    }

    /// Time for one machine's share of a feature all-to-all: it sends
    /// `bytes_out` and receives `bytes_in`; the NIC is full duplex so the
    /// directions overlap, and the round pays latency plus software
    /// overhead once.
    pub fn exchange_time(&self, bytes_out: f64, bytes_in: f64) -> f64 {
        if bytes_out <= 0.0 && bytes_in <= 0.0 {
            return 0.0;
        }
        let wire = bytes_out.max(bytes_in) / self.network.effective_rate();
        self.network.latency + self.comm_software_overhead + wire
    }

    /// Ring all-reduce time for `grad_bytes` of gradients over `k`
    /// machines (2(k−1)/k of the data crosses each NIC).
    pub fn allreduce_time(&self, k: usize, grad_bytes: f64) -> f64 {
        if k <= 1 {
            return 0.0;
        }
        let wire = 2.0 * grad_bytes * (k as f64 - 1.0) / k as f64 / self.network.effective_rate();
        (self.network.latency * (k as f64).log2().ceil() + wire) * (1.0 - self.allreduce_overlap)
    }
}

/// Gradient bytes for a GraphSAGE stack over `dims`, scaled by the
/// ratio of the simulated batch size to the paper's per-GPU batch
/// (1024). Model size does not shrink with the mini datasets, so
/// without this the per-batch gradient-traffic-to-compute ratio would
/// be inflated ~100x relative to the paper's testbed, making the
/// all-reduce a phantom bottleneck.
pub fn grad_bytes(dims: &[usize], batch_size: usize) -> f64 {
    const PAPER_BATCH: f64 = 1024.0;
    let params: usize = dims.windows(2).map(|w| 2 * w[0] * w[1] + w[1]).sum();
    params as f64 * 4.0 * (batch_size as f64 / PAPER_BATCH).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_time_scales_with_edges() {
        let c = CostModel::default();
        let t1 = c.sample_time(30_000_000);
        assert!((t1 - (1.0 + 0.2e-3)).abs() < 1e-9);
    }

    #[test]
    fn zero_bytes_costs_nothing() {
        let c = CostModel::default();
        assert_eq!(c.pcie_time(0.0), 0.0);
        assert_eq!(c.exchange_time(0.0, 0.0), 0.0);
    }

    #[test]
    fn exchange_is_full_duplex() {
        let c = CostModel::default();
        let t_out = c.exchange_time(1e6, 0.0);
        let t_both = c.exchange_time(1e6, 1e6);
        assert!((t_out - t_both).abs() < 1e-12, "duplex directions overlap");
        assert!(c.exchange_time(1e6, 2e6) > t_both);
    }

    #[test]
    fn allreduce_single_machine_free() {
        let c = CostModel::default();
        assert_eq!(c.allreduce_time(1, 1e9), 0.0);
        assert!(c.allreduce_time(8, 1e6) > 0.0);
    }

    #[test]
    fn train_time_grows_with_rows_and_dims() {
        let c = CostModel::default();
        let small = c.train_time(&[1000, 100], &[64, 64, 16]);
        let big = c.train_time(&[10_000, 1000], &[64, 64, 16]);
        assert!(big > small);
        let wide = c.train_time(&[1000, 100], &[256, 256, 16]);
        assert!(wide > small);
    }

    #[test]
    fn infer_cheaper_than_train() {
        let c = CostModel::default();
        let rows = [5000, 500];
        let dims = [64, 64, 16];
        assert!(c.infer_time(&rows, &dims) < c.train_time(&rows, &dims));
    }
}
