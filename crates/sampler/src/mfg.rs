//! Message-flow graphs: the layered bipartite structure a sampled
//! minibatch neighborhood induces.

use spp_graph::VertexId;

/// Sampled adjacency for one expansion hop.
///
/// Targets are the first `num_targets` entries of the MFG's node list;
/// sources are the first `num_sources` entries (targets are a prefix of
/// sources, so a target can aggregate its own previous-layer state).
/// `row_ptr`/`col` form a CSR over *local* node indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HopAdj {
    /// Number of target (aggregating) nodes.
    pub num_targets: usize,
    /// Number of source nodes (targets plus their sampled neighbors).
    pub num_sources: usize,
    /// CSR row pointers, length `num_targets + 1`.
    pub row_ptr: Vec<usize>,
    /// Local indices of sampled neighbors, all `< num_sources`.
    pub col: Vec<u32>,
}

impl HopAdj {
    /// Sampled neighbors (local indices) of target `t`.
    #[inline]
    pub fn neighbors(&self, t: usize) -> &[u32] {
        // spp-lint: allow(l2-csr-index): this IS HopAdj's checked accessor, the MFG analogue of CsrGraph::neighbors
        &self.col[self.row_ptr[t]..self.row_ptr[t + 1]] // spp-hot: allow(h2-panic): row_ptr bounds are MFG-construction CSR invariants
    }

    /// Number of sampled edges in this hop.
    pub fn num_edges(&self) -> usize {
        self.col.len()
    }
}

/// A message-flow graph: the full sampled L-hop neighborhood of one
/// minibatch, with hop-wise adjacency.
///
/// `nodes[0..sizes[0]]` are the seeds; `nodes[0..sizes[h]]` are all
/// distinct vertices within `h` sampled hops. GNN layer `ℓ` (of `L`)
/// consumes `hops[L - ℓ]` — the outermost hop feeds the first layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mfg {
    /// Distinct global vertex ids; position = local id; seeds first, then
    /// vertices in hop-discovery order.
    pub nodes: Vec<VertexId>,
    /// Cumulative distinct-node counts: `sizes[h]` = nodes within `h` hops.
    /// `sizes[0]` = number of seeds; `sizes.len() == num_hops() + 1`.
    pub sizes: Vec<usize>,
    /// Per-hop sampled adjacency, hop 1 first.
    pub hops: Vec<HopAdj>,
}

impl Mfg {
    /// Number of seed vertices (the minibatch).
    pub fn num_seeds(&self) -> usize {
        self.sizes[0]
    }

    /// Number of sampling hops (== number of GNN layers).
    pub fn num_hops(&self) -> usize {
        self.hops.len()
    }

    /// Total distinct vertices in the expanded neighborhood.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total sampled edges across all hops.
    pub fn num_edges(&self) -> usize {
        self.hops.iter().map(HopAdj::num_edges).sum()
    }

    /// Input rows feeding each GNN layer, layer 1 first: layer `ℓ` (of
    /// `L`) reads the nodes within `L - ℓ + 1` hops and writes those
    /// within `L - ℓ`.
    pub fn layer_rows(&self) -> Vec<usize> {
        let l = self.num_hops();
        (1..=l).map(|layer| self.sizes[l - layer + 1]).collect()
    }

    /// The seed vertex ids.
    pub fn seeds(&self) -> &[VertexId] {
        &self.nodes[..self.sizes[0]]
    }

    /// The hop adjacency consumed by GNN layer `layer` (1-indexed, of
    /// `self.num_hops()` layers): layer 1 uses the outermost hop.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is 0 or exceeds the number of hops.
    pub fn layer_adj(&self, layer: usize) -> &HopAdj {
        let l = self.num_hops();
        assert!(layer >= 1 && layer <= l, "layer {layer} out of range");
        &self.hops[l - layer]
    }

    /// Checks structural invariants; returns a description of the first
    /// violation, if any.
    pub fn validate(&self) -> Result<(), String> {
        if self.sizes.len() != self.hops.len() + 1 {
            return Err(format!(
                "sizes/hops mismatch: {} vs {}",
                self.sizes.len(),
                self.hops.len()
            ));
        }
        if self.sizes.last().copied() != Some(self.nodes.len()) {
            return Err("last size must equal node count".into());
        }
        if self.sizes.windows(2).any(|w| w[0] > w[1]) {
            return Err("sizes must be non-decreasing".into());
        }
        // Nodes must be distinct.
        let mut sorted = self.nodes.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err("duplicate node in MFG".into());
        }
        for (h, adj) in self.hops.iter().enumerate() {
            if adj.num_targets != self.sizes[h] {
                return Err(format!("hop {} target count mismatch", h + 1));
            }
            if adj.num_sources != self.sizes[h + 1] {
                return Err(format!("hop {} source count mismatch", h + 1));
            }
            if adj.row_ptr.len() != adj.num_targets + 1 {
                return Err(format!("hop {} row_ptr length mismatch", h + 1));
            }
            if *adj.row_ptr.last().unwrap_or(&0) != adj.col.len() {
                return Err(format!("hop {} row_ptr end mismatch", h + 1));
            }
            if adj.col.iter().any(|&c| (c as usize) >= adj.num_sources) {
                return Err(format!("hop {} col out of range", h + 1));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_mfg() -> Mfg {
        // 2 seeds {10, 11}; hop 1 discovers {12}; adjacency: 10 -> {11, 12},
        // 11 -> {12}.
        Mfg {
            nodes: vec![10, 11, 12],
            sizes: vec![2, 3],
            hops: vec![HopAdj {
                num_targets: 2,
                num_sources: 3,
                row_ptr: vec![0, 2, 3],
                col: vec![1, 2, 2],
            }],
        }
    }

    #[test]
    fn accessors() {
        let m = tiny_mfg();
        assert_eq!(m.num_seeds(), 2);
        assert_eq!(m.num_hops(), 1);
        assert_eq!(m.num_nodes(), 3);
        assert_eq!(m.num_edges(), 3);
        assert_eq!(m.seeds(), &[10, 11]);
        assert_eq!(m.layer_adj(1).neighbors(0), &[1, 2]);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn validate_catches_duplicate_nodes() {
        let mut m = tiny_mfg();
        m.nodes[2] = 10;
        assert!(m.validate().unwrap_err().contains("duplicate"));
    }

    #[test]
    fn validate_catches_col_out_of_range() {
        let mut m = tiny_mfg();
        m.hops[0].col[0] = 5;
        assert!(m.validate().unwrap_err().contains("out of range"));
    }

    #[test]
    fn validate_catches_size_mismatch() {
        let mut m = tiny_mfg();
        m.sizes[1] = 2;
        assert!(m.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "layer 2 out of range")]
    fn layer_adj_bounds() {
        tiny_mfg().layer_adj(2);
    }
}
