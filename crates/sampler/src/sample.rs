//! The node-wise neighborhood sampler.

use crate::{Fanouts, HopAdj, Mfg, VertexIndexer};
use rand::Rng;
use spp_graph::{CsrGraph, VertexId};
use spp_telemetry::metrics::{self, Counter};
use std::cell::RefCell;
use std::sync::OnceLock;

/// Cached telemetry counters for minibatch expansion (no-ops while
/// telemetry is disabled; never read back, so sampling stays
/// bit-deterministic with tracing on or off).
struct SamplerMetrics {
    batches: Counter,
    nodes: Counter,
    edges: Counter,
}

fn sampler_metrics() -> &'static SamplerMetrics {
    static METRICS: OnceLock<SamplerMetrics> = OnceLock::new();
    METRICS.get_or_init(|| SamplerMetrics {
        batches: metrics::counter("sampler.batches"),
        nodes: metrics::counter("sampler.mfg_nodes"),
        edges: metrics::counter("sampler.mfg_edges"),
    })
}

/// Samples L-hop neighborhoods with per-hop fanouts, uniformly without
/// replacement, exactly matching the random process analyzed by the
/// paper's Proposition 1: each hop samples `min(fanout, degree)` distinct
/// neighbors independently for every vertex in the cumulative node set.
///
/// # Example
///
/// ```
/// use spp_graph::generate::complete;
/// use spp_sampler::{Fanouts, NodeWiseSampler};
/// use rand::SeedableRng;
///
/// let g = complete(10);
/// let s = NodeWiseSampler::new(&g, Fanouts::new(vec![4]));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mfg = s.sample(&[0], &mut rng);
/// assert_eq!(mfg.layer_adj(1).neighbors(0).len(), 4);
/// ```
#[derive(Debug)]
pub struct NodeWiseSampler<'g> {
    graph: &'g CsrGraph,
    fanouts: Fanouts,
}

impl<'g> NodeWiseSampler<'g> {
    /// Creates a sampler over `graph` with the given fanouts.
    pub fn new(graph: &'g CsrGraph, fanouts: Fanouts) -> Self {
        Self { graph, fanouts }
    }

    /// The configured fanouts.
    pub fn fanouts(&self) -> &Fanouts {
        &self.fanouts
    }

    /// The underlying graph.
    pub fn graph(&self) -> &CsrGraph {
        self.graph
    }

    /// Samples the expanded neighborhood of `seeds`.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` contains duplicates (a minibatch is a set).
    // spp-hot(sampler.batch_prep)
    pub fn sample<R: Rng>(&self, seeds: &[VertexId], rng: &mut R) -> Mfg {
        let n = self.graph.num_vertices();
        expand(&self.fanouts, n, seeds, |v, fanout, out| {
            sample_neighbors(self.graph, v, fanout, rng, out);
        })
    }
}

/// The expansion every node-wise sampler shares: checks the seeds are
/// distinct, then hop by hop asks `pick(v, fanout, out)` for the sampled
/// neighbors of each vertex in the cumulative node set, in node order
/// (which fixes both the RNG draw order and the MFG node order, §9),
/// and records them as the hop's CSR. `num_vertices` is the graph's:
/// no batch holds more distinct vertices, so the dedup table is sized
/// for at most that many and never grows.
///
/// # Panics
///
/// Panics if `seeds` contains duplicates (a minibatch is a set).
pub(crate) fn expand(
    fanouts: &Fanouts,
    num_vertices: usize,
    seeds: &[VertexId],
    mut pick: impl FnMut(VertexId, usize, &mut Vec<VertexId>),
) -> Mfg {
    let bound = fanouts.max_expanded_size(seeds.len());
    let cap = bound.min(num_vertices).min(1 << 20);
    let mut indexer = VertexIndexer::with_capacity(cap); // spp-hot: alloc(batch dedup indexer, sized once from the fanout bound)
    for (i, &s) in seeds.iter().enumerate() {
        indexer.insert(s);
        assert_eq!(indexer.len(), i + 1, "duplicate seed {s} in minibatch");
    }
    let mut sizes = vec![seeds.len()]; // spp-hot: alloc(per-hop frontier sizes, num_hops+1 entries — MFG output)
    let mut hops = Vec::with_capacity(fanouts.num_hops()); // spp-hot: alloc(hop adjacency list, one entry per hop — MFG output)
    let mut scratch: Vec<VertexId> = Vec::new(); // spp-hot: alloc(neighbor scratch, reused across every vertex of the batch)

    for h in 1..=fanouts.num_hops() {
        let fanout = fanouts.hop(h);
        let num_targets = sizes.last().copied().unwrap_or(0);
        let mut row_ptr = Vec::with_capacity(num_targets + 1); // spp-hot: alloc(hop CSR row_ptr — MFG output, sized once per hop)
        row_ptr.push(0usize); // spp-hot: alloc(hop CSR entry; capacity reserved above)
        let mut col: Vec<u32> = Vec::with_capacity(num_targets * fanout); // spp-hot: alloc(hop CSR col — MFG output, sized once per hop)
        for t in 0..num_targets {
            let v = indexer.nodes()[t];
            pick(v, fanout, &mut scratch);
            for &u in &scratch {
                col.push(indexer.insert(u)); // spp-hot: alloc(hop CSR entry; capacity reserved above)
            }
            row_ptr.push(col.len()); // spp-hot: alloc(hop CSR entry; capacity reserved above)
        }
        let num_sources = indexer.len();
        let hop = HopAdj {
            num_targets,
            num_sources,
            row_ptr,
            col,
        };
        hops.push(hop); // spp-hot: alloc(hop record; capacity reserved above)
        sizes.push(num_sources); // spp-hot: alloc(frontier-size entry, num_hops total)
    }

    let mfg = Mfg {
        nodes: indexer.into_nodes(),
        sizes,
        hops,
    };
    if metrics::enabled() {
        let m = sampler_metrics();
        m.batches.inc();
        m.nodes.add(mfg.num_nodes() as u64);
        m.edges.add(mfg.num_edges() as u64);
    }
    mfg
}

thread_local! {
    /// The dense branch's index permutation, grown once per thread to
    /// the largest degree it meets instead of built per vertex.
    static PERM: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Samples `min(fanout, degree(v))` distinct neighbors of `v` into `out`.
///
/// Uses full copy when the whole neighborhood fits, a partial
/// Fisher–Yates when the fanout is a large fraction of the degree, and
/// Floyd's algorithm (O(fanout) expected) when the degree is much larger
/// than the fanout — the common case on power-law graphs.
pub fn sample_neighbors<R: Rng>(
    graph: &CsrGraph,
    v: VertexId,
    fanout: usize,
    rng: &mut R,
    out: &mut Vec<VertexId>,
) {
    out.clear();
    let neigh = graph.neighbors(v);
    let d = neigh.len();
    if d <= fanout {
        out.extend_from_slice(neigh);
        return;
    }
    if fanout * 4 >= d {
        // Partial Fisher–Yates on the thread's scratch index array.
        PERM.with(|cell| {
            let idx = &mut *cell.borrow_mut();
            idx.clear();
            idx.extend(0..d as u32); // spp-hot: alloc(thread-local, grown once)
            for i in 0..fanout {
                let j = rng.gen_range(i..d);
                idx.swap(i, j);
                out.push(neigh[idx[i] as usize]); // spp-hot: alloc(writes caller-owned scratch; capacity amortizes across vertices)
            }
        });
    } else {
        // Floyd's sampling: distinct indices without materializing 0..d.
        // For the tiny fanouts used here a linear scan beats a hash set.
        // Indices are staged directly in `out` (caller-owned scratch)
        // and mapped to vertex ids in place, so this branch allocates
        // nothing once `out`'s capacity has warmed up.
        for i in (d - fanout)..d {
            let j = rng.gen_range(0..=i) as u32;
            if out.contains(&j) {
                out.push(i as u32); // spp-hot: alloc(writes caller-owned scratch; capacity amortizes across vertices)
            } else {
                out.push(j); // spp-hot: alloc(writes caller-owned scratch; capacity amortizes across vertices)
            }
        }
        for slot in out.iter_mut() {
            *slot = neigh[*slot as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spp_graph::generate::{complete, ring_with_chords, star};
    use spp_graph::GraphBuilder;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn dedup_table_sized_by_the_graph_leaves_the_mfg_unchanged() {
        // A bound far past the graph: 12 seeds at fanouts (10, 10, 10)
        // could reach 13 332 vertices of a 40-vertex graph.
        let g = complete(40);
        let fanouts = Fanouts::new(vec![10, 10, 10]);
        let seeds: Vec<VertexId> = (0..12).collect();
        let run = |num_vertices: usize| {
            let mut r = rng(3);
            expand(&fanouts, num_vertices, &seeds, |v, fanout, out| {
                sample_neighbors(&g, v, fanout, &mut r, out);
            })
        };
        let capped = run(g.num_vertices());
        assert_eq!(capped.num_nodes(), 40, "the batch reaches every vertex");
        assert_eq!(capped, run(usize::MAX));
        assert_eq!(
            capped,
            NodeWiseSampler::new(&g, fanouts.clone()).sample(&seeds, &mut rng(3))
        );
        // The table it sized holds the whole graph without growing.
        let cap = fanouts.max_expanded_size(seeds.len()).min(40);
        assert!(VertexIndexer::with_capacity(cap).capacity() >= 40);
    }

    #[test]
    fn fanout_bounds_respected() {
        let g = complete(20);
        let s = NodeWiseSampler::new(&g, Fanouts::new(vec![5, 3]));
        let mfg = s.sample(&[0, 1], &mut rng(1));
        mfg.validate().unwrap();
        for (h, adj) in mfg.hops.iter().enumerate() {
            let f = s.fanouts().hop(h + 1);
            for t in 0..adj.num_targets {
                assert!(adj.neighbors(t).len() <= f);
            }
        }
    }

    #[test]
    fn low_degree_takes_all_neighbors() {
        let g = star(5); // leaves have degree 1
        let s = NodeWiseSampler::new(&g, Fanouts::new(vec![10]));
        let mfg = s.sample(&[1], &mut rng(2));
        // Leaf 1's only neighbor is the center 0.
        assert_eq!(mfg.nodes, vec![1, 0]);
        assert_eq!(mfg.layer_adj(1).neighbors(0), &[1]);
    }

    #[test]
    fn sampled_neighbors_are_distinct_and_real() {
        let g = complete(50);
        let mut out = Vec::new();
        sample_neighbors(&g, 0, 10, &mut rng(3), &mut out);
        assert_eq!(out.len(), 10);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10, "duplicates in sample");
        assert!(out.iter().all(|&u| g.has_edge(0, u)));
    }

    #[test]
    fn floyd_path_is_uniform_ish() {
        // Sample 2 of 20 many times; every neighbor should appear.
        let g = complete(21);
        let mut counts = [0usize; 21];
        let mut out = Vec::new();
        let mut r = rng(4);
        for _ in 0..2000 {
            sample_neighbors(&g, 0, 2, &mut r, &mut out);
            for &u in &out {
                counts[u as usize] += 1;
            }
        }
        // Exact uniform would be 200 each; allow generous slack.
        for (u, &c) in counts.iter().enumerate().skip(1) {
            assert!(
                c > 100 && c < 320,
                "neighbor {u} count {c} outside plausible range"
            );
        }
    }

    #[test]
    fn deterministic_with_same_seed() {
        let g = ring_with_chords(64, 7);
        let s = NodeWiseSampler::new(&g, Fanouts::new(vec![3, 3]));
        let a = s.sample(&[0, 5, 9], &mut rng(7));
        let b = s.sample(&[0, 5, 9], &mut rng(7));
        assert_eq!(a, b);
    }

    #[test]
    fn seeds_come_first() {
        let g = ring_with_chords(64, 7);
        let s = NodeWiseSampler::new(&g, Fanouts::new(vec![2]));
        let mfg = s.sample(&[9, 3, 27], &mut rng(8));
        assert_eq!(&mfg.nodes[..3], &[9, 3, 27]);
    }

    #[test]
    #[should_panic(expected = "duplicate seed")]
    fn duplicate_seeds_rejected() {
        let g = complete(5);
        let s = NodeWiseSampler::new(&g, Fanouts::new(vec![2]));
        s.sample(&[1, 1], &mut rng(9));
    }

    #[test]
    fn isolated_vertex_expands_to_itself() {
        let mut b = GraphBuilder::new(3);
        b.add_undirected_edge(1, 2);
        let g = b.build();
        let s = NodeWiseSampler::new(&g, Fanouts::new(vec![4, 4]));
        let mfg = s.sample(&[0], &mut rng(10));
        assert_eq!(mfg.num_nodes(), 1);
        assert_eq!(mfg.num_edges(), 0);
        mfg.validate().unwrap();
    }

    #[test]
    fn cumulative_targets_each_hop() {
        // With 2 hops, hop 2 must sample for *all* nodes discovered so far
        // (cumulative set), not just the hop-1 frontier.
        let g = complete(30);
        let s = NodeWiseSampler::new(&g, Fanouts::new(vec![3, 2]));
        let mfg = s.sample(&[0, 1], &mut rng(11));
        assert_eq!(mfg.hops[1].num_targets, mfg.sizes[1]);
        assert!(mfg.hops[1].num_targets >= 2);
    }
}
