//! Hierarchical two-level partitioning (the paper's §6 future work:
//! "a hierarchical graph partitioning may better leverage the higher
//! intra-machine bandwidth among GPUs than inter-machine communication").
//!
//! The graph is first split across `machines`, then each machine's
//! induced subgraph is split across its `gpus_per_machine` GPUs. The flat
//! result has `machines × gpus_per_machine` parts with part ids grouped
//! machine-major, so `part / gpus_per_machine` recovers the machine.

use crate::multilevel::MultilevelPartitioner;
use crate::weights::NUM_CONSTRAINTS;
use crate::{Partitioning, VertexWeights};
use spp_graph::{CsrGraph, GraphBuilder, VertexId};

/// A two-level (machine, GPU) partitioning.
#[derive(Clone, Debug)]
pub struct HierarchicalPartitioning {
    /// Flat partitioning over `machines × gpus_per_machine` parts,
    /// machine-major.
    pub flat: Partitioning,
    /// Number of machines.
    pub machines: usize,
    /// GPUs per machine.
    pub gpus_per_machine: usize,
}

impl HierarchicalPartitioning {
    /// The machine owning flat part `p`.
    pub fn machine_of_part(&self, p: u32) -> u32 {
        p / self.gpus_per_machine as u32
    }

    /// Classifies a (viewer part, target vertex) pair: 0 = same GPU,
    /// 1 = same machine (intra-machine link), 2 = different machine
    /// (network).
    pub fn locality(&self, part: u32, v: VertexId) -> u8 {
        let vp = self.flat.part_of(v);
        if vp == part {
            0
        } else if self.machine_of_part(vp) == self.machine_of_part(part) {
            1
        } else {
            2
        }
    }
}

/// Builds a hierarchical partitioning: multilevel across machines, then
/// multilevel within each machine's induced subgraph.
///
/// # Panics
///
/// Panics if `machines` or `gpus_per_machine` is zero, or the graph has
/// fewer vertices than total parts.
// spp-det(partition.hierarchical)
pub fn hierarchical_partition(
    graph: &CsrGraph,
    weights: &VertexWeights,
    machines: usize,
    gpus_per_machine: usize,
    seed: u64,
) -> HierarchicalPartitioning {
    assert!(machines > 0 && gpus_per_machine > 0, "need positive counts");
    let total = machines * gpus_per_machine;
    assert!(
        graph.num_vertices() >= total,
        "fewer vertices than total parts"
    );
    let top = MultilevelPartitioner::new(machines)
        .seed(seed)
        .partition(graph, weights);
    if gpus_per_machine == 1 {
        return HierarchicalPartitioning {
            flat: top,
            machines,
            gpus_per_machine,
        };
    }

    let mut flat = vec![0u32; graph.num_vertices()];
    for m in 0..machines as u32 {
        let members = top.members(m);
        // Induced subgraph of this machine's vertices.
        let mut local_of = vec![u32::MAX; graph.num_vertices()];
        for (i, &v) in members.iter().enumerate() {
            local_of[v as usize] = i as u32;
        }
        let mut b = GraphBuilder::new(members.len());
        for &v in &members {
            for &u in graph.neighbors(v) {
                let lu = local_of[u as usize];
                if lu != u32::MAX {
                    b.add_edge(local_of[v as usize], lu);
                }
            }
        }
        let sub = b.build();
        let sub_weights = VertexWeights::from_raw(
            members
                .iter()
                .map(|&v| {
                    let mut w = [0u64; NUM_CONSTRAINTS];
                    w.copy_from_slice(weights.of(v));
                    w
                })
                .collect(),
        );
        let inner = MultilevelPartitioner::new(gpus_per_machine)
            .seed(seed ^ (m as u64 + 1))
            .partition(&sub, &sub_weights);
        for (i, &v) in members.iter().enumerate() {
            flat[v as usize] = m * gpus_per_machine as u32 + inner.part_of(i as u32);
        }
    }
    HierarchicalPartitioning {
        flat: Partitioning::new(flat, total),
        machines,
        gpus_per_machine,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use spp_graph::generate::GeneratorConfig;

    fn graph() -> CsrGraph {
        GeneratorConfig::planted_partition(800, 6400, 8, 0.9)
            .seed(3)
            .build()
    }

    #[test]
    fn produces_machine_major_parts() {
        let g = graph();
        let w = VertexWeights::uniform(&g);
        let h = hierarchical_partition(&g, &w, 4, 2, 1);
        assert_eq!(h.flat.num_parts(), 8);
        for v in 0..800u32 {
            let p = h.flat.part_of(v);
            assert_eq!(h.machine_of_part(p), p / 2);
        }
        // All 8 parts populated.
        assert!(h.flat.sizes().iter().all(|&s| s > 0));
    }

    #[test]
    fn locality_classification() {
        let g = graph();
        let w = VertexWeights::uniform(&g);
        let h = hierarchical_partition(&g, &w, 2, 2, 2);
        let v0 = h.flat.members(0)[0];
        assert_eq!(h.locality(0, v0), 0); // own GPU
        let v1 = h.flat.members(1)[0];
        assert_eq!(h.locality(0, v1), 1); // sibling GPU, same machine
        let v2 = h.flat.members(2)[0];
        assert_eq!(h.locality(0, v2), 2); // other machine
    }

    #[test]
    fn hierarchy_localizes_cut_traffic() {
        // Versus flat 8-way partitioning with machine = part/2 assigned
        // arbitrarily, hierarchical partitioning should route a larger
        // share of cut edges within machines.
        let g = graph();
        let w = VertexWeights::uniform(&g);
        let h = hierarchical_partition(&g, &w, 4, 2, 4);
        let flat = MultilevelPartitioner::new(8).seed(4).partition(&g, &w);
        let intra_share = |assign: &Partitioning, machine_of: &dyn Fn(u32) -> u32| {
            let mut cut = 0usize;
            let mut intra = 0usize;
            for (v, u) in g.edges() {
                let (pv, pu) = (assign.part_of(v), assign.part_of(u));
                if pv != pu {
                    cut += 1;
                    if machine_of(pv) == machine_of(pu) {
                        intra += 1;
                    }
                }
            }
            intra as f64 / cut.max(1) as f64
        };
        let hier = intra_share(&h.flat, &|p| p / 2);
        let base = intra_share(&flat, &|p| p / 2);
        assert!(
            hier > base,
            "hierarchical intra-machine share {hier:.3} should exceed flat {base:.3}"
        );
    }

    #[test]
    fn single_gpu_per_machine_reduces_to_flat() {
        let g = graph();
        let w = VertexWeights::uniform(&g);
        let h = hierarchical_partition(&g, &w, 4, 1, 5);
        assert_eq!(h.flat.num_parts(), 4);
        assert_eq!(h.gpus_per_machine, 1);
    }

    #[test]
    fn balance_holds_at_gpu_level() {
        let g = graph();
        let w = VertexWeights::uniform(&g);
        let h = hierarchical_partition(&g, &w, 2, 4, 6);
        let imb = metrics::imbalance(&h.flat, &w);
        assert!(imb[0] < 1.3, "imbalance {imb:?}");
    }
}
