//! Deterministic synthetic graph generators.
//!
//! These generators stand in for the OGB benchmark graphs used in the
//! paper (see DESIGN.md §2). All of them produce symmetric (undirected)
//! graphs by default — the paper makes every benchmark graph undirected
//! during preprocessing — and take an explicit seed.

use crate::{CsrGraph, GraphBuilder, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which random-graph family to draw from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GraphFamily {
    /// Recursive-matrix (R-MAT) generator: power-law degrees, community-ish
    /// structure. Parameters are the standard `(a, b, c)` quadrant
    /// probabilities (with `d = 1 - a - b - c`).
    Rmat { a: f64, b: f64, c: f64 },
    /// Erdős–Rényi `G(n, m)`: uniform random edges, no skew. Useful as a
    /// structure-free control.
    ErdosRenyi,
    /// Planted-partition (stochastic block model) graph: `blocks` communities
    /// with intra-community edge probability boosted by `homophily` (0..1).
    /// Gives the partitioner real structure to find, like the citation
    /// graphs in the paper.
    PlantedPartition { blocks: usize, homophily: f64 },
    /// Chung–Lu power-law graph with the given exponent (`~2.1` for
    /// citation-like tails).
    ChungLu { exponent: f64 },
}

/// Configuration for synthetic graph generation.
///
/// # Example
///
/// ```
/// use spp_graph::generate::GeneratorConfig;
///
/// let g = GeneratorConfig::planted_partition(500, 3_000, 8, 0.9)
///     .seed(42)
///     .build();
/// assert_eq!(g.num_vertices(), 500);
/// assert!(g.is_symmetric());
/// ```
#[derive(Clone, Debug)]
pub struct GeneratorConfig {
    n: usize,
    target_edges: usize,
    family: GraphFamily,
    seed: u64,
}

impl GeneratorConfig {
    /// R-MAT with the classic `(0.57, 0.19, 0.19)` skew.
    pub fn rmat(n: usize, target_edges: usize) -> Self {
        Self {
            n,
            target_edges,
            family: GraphFamily::Rmat {
                a: 0.57,
                b: 0.19,
                c: 0.19,
            },
            seed: 0,
        }
    }

    /// Erdős–Rényi `G(n, m)`.
    pub fn erdos_renyi(n: usize, target_edges: usize) -> Self {
        Self {
            n,
            target_edges,
            family: GraphFamily::ErdosRenyi,
            seed: 0,
        }
    }

    /// Planted-partition graph with `blocks` communities.
    pub fn planted_partition(n: usize, target_edges: usize, blocks: usize, homophily: f64) -> Self {
        assert!(blocks > 0, "need at least one block");
        assert!(
            (0.0..=1.0).contains(&homophily),
            "homophily must be in [0,1]"
        );
        Self {
            n,
            target_edges,
            family: GraphFamily::PlantedPartition { blocks, homophily },
            seed: 0,
        }
    }

    /// Chung–Lu power-law graph.
    pub fn chung_lu(n: usize, target_edges: usize, exponent: f64) -> Self {
        assert!(exponent > 1.0, "power-law exponent must exceed 1");
        Self {
            n,
            target_edges,
            family: GraphFamily::ChungLu { exponent },
            seed: 0,
        }
    }

    /// Sets the RNG seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the graph. The result is symmetric; the number of
    /// undirected edges is close to (at most) `target_edges` after removing
    /// duplicates and self-loops.
    pub fn build(&self) -> CsrGraph {
        let mut b = GraphBuilder::with_capacity(self.n, self.target_edges * 2);
        for (src, dst) in self.edges() {
            b.add_edge(src, dst);
        }
        b.build()
    }

    /// Streams the generator's directed edges (both directions of each
    /// accepted undirected pair) without materializing an edge list.
    ///
    /// The stream performs exactly the RNG draws [`Self::build`] would —
    /// `build()` is now `GraphBuilder` fed from this iterator — so the
    /// out-of-core path (`spp-store`'s `StreamingCsrBuilder`) consumes
    /// the identical edge sequence and produces a bitwise-equal graph.
    pub fn edges(&self) -> EdgeStream {
        let rng = StdRng::seed_from_u64(self.seed);
        let kind = match self.family {
            GraphFamily::Rmat { a, b, c } => StreamKind::Rmat {
                levels: (self.n as f64).log2().ceil() as usize,
                a,
                b,
                c,
            },
            GraphFamily::ErdosRenyi => StreamKind::ErdosRenyi,
            GraphFamily::PlantedPartition { blocks, homophily } => {
                StreamKind::PlantedPartition { blocks, homophily }
            }
            GraphFamily::ChungLu { exponent } => {
                // Weight w_i ~ i^{-1/(exponent-1)}; endpoints drawn
                // proportional to weight via the inverse-CDF trick on a
                // precomputed prefix-sum table (no RNG consumed here).
                let gamma = 1.0 / (exponent - 1.0);
                let mut cdf = Vec::with_capacity(self.n);
                let mut acc = 0.0;
                for i in 0..self.n {
                    acc += ((i + 1) as f64).powf(-gamma);
                    cdf.push(acc);
                }
                StreamKind::ChungLu { cdf, total: acc }
            }
        };
        EdgeStream {
            rng,
            n: self.n,
            remaining: self.target_edges,
            kind,
            pending: None,
        }
    }
}

/// Which family an [`EdgeStream`] draws from, with the family's
/// precomputed tables.
enum StreamKind {
    Rmat {
        levels: usize,
        a: f64,
        b: f64,
        c: f64,
    },
    ErdosRenyi,
    PlantedPartition {
        blocks: usize,
        homophily: f64,
    },
    ChungLu {
        cdf: Vec<f64>,
        total: f64,
    },
}

/// Streaming edge source for [`GeneratorConfig`]: yields directed edges
/// in generation order, one `(src, dst)` then its reverse `(dst, src)`
/// per accepted pair, self-loops dropped at the draw.
pub struct EdgeStream {
    rng: StdRng,
    n: usize,
    remaining: usize,
    kind: StreamKind,
    pending: Option<(VertexId, VertexId)>,
}

impl EdgeStream {
    /// Number of vertices edges are drawn over.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    fn draw_pair(&mut self) -> (VertexId, VertexId) {
        match &self.kind {
            StreamKind::Rmat { levels, a, b, c } => {
                rmat_edge(&mut self.rng, self.n, *levels, *a, *b, *c)
            }
            StreamKind::ErdosRenyi => {
                let src = self.rng.gen_range(0..self.n) as VertexId;
                let dst = self.rng.gen_range(0..self.n) as VertexId;
                (src, dst)
            }
            StreamKind::PlantedPartition { blocks, homophily } => {
                // Blocks are contiguous id ranges so downstream code can
                // recover ground truth as `v * blocks / n`.
                let (blocks, homophily) = (*blocks, *homophily);
                let src = self.rng.gen_range(0..self.n);
                let dst = if self.rng.gen::<f64>() < homophily {
                    // Pick within src's block.
                    let blk = src * blocks / self.n;
                    let lo = (blk * self.n).div_ceil(blocks);
                    let hi = ((blk + 1) * self.n).div_ceil(blocks);
                    self.rng.gen_range(lo..hi.max(lo + 1)).min(self.n - 1)
                } else {
                    self.rng.gen_range(0..self.n)
                };
                (src as VertexId, dst as VertexId)
            }
            StreamKind::ChungLu { cdf, total } => {
                let n = self.n;
                let draw = |rng: &mut StdRng| -> VertexId {
                    let x = rng.gen::<f64>() * total;
                    cdf.partition_point(|&c| c < x).min(n - 1) as VertexId
                };
                let src = draw(&mut self.rng);
                let dst = draw(&mut self.rng);
                (src, dst)
            }
        }
    }
}

impl Iterator for EdgeStream {
    type Item = (VertexId, VertexId);

    fn next(&mut self) -> Option<(VertexId, VertexId)> {
        if let Some(rev) = self.pending.take() {
            return Some(rev);
        }
        while self.remaining > 0 {
            self.remaining -= 1;
            let (src, dst) = self.draw_pair();
            if src != dst {
                self.pending = Some((dst, src));
                return Some((src, dst));
            }
        }
        None
    }
}

fn rmat_edge(
    rng: &mut StdRng,
    n: usize,
    levels: usize,
    a: f64,
    b: f64,
    c: f64,
) -> (VertexId, VertexId) {
    let (mut x, mut y) = (0usize, 0usize);
    let mut step = 1usize << levels.saturating_sub(1);
    for _ in 0..levels {
        let r: f64 = rng.gen();
        // Quadrant probabilities perturbed slightly per level, as in the
        // original R-MAT paper, to avoid exact self-similarity artifacts.
        if r < a {
            // top-left: nothing to add
        } else if r < a + b {
            y += step;
        } else if r < a + b + c {
            x += step;
        } else {
            x += step;
            y += step;
        }
        step /= 2;
    }
    ((x % n) as VertexId, (y % n) as VertexId)
}

/// Generates a citation-style benchmark graph in one shot: per-vertex
/// Pareto-distributed popularity weights (heavy-tailed degrees with a low
/// median, like real citation networks), community structure (blocks are
/// contiguous id ranges `v * blocks / n`), and popularity-weighted
/// endpoints everywhere:
///
/// - both endpoints are drawn proportionally to vertex weight;
/// - with probability `homophily` the destination is drawn within the
///   source's block (fields concentrate citations on their top papers),
///   otherwise globally (famous papers attract cross-field citations).
///
/// `tail` is the Pareto shape parameter: smaller = heavier popularity
/// tail (1.2–1.5 resembles citation graphs). The result is symmetric.
pub fn citation_graph(
    n: usize,
    target_edges: usize,
    blocks: usize,
    homophily: f64,
    tail: f64,
    seed: u64,
) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(n, target_edges * 2);
    for (src, dst) in citation_edges(n, target_edges, blocks, homophily, tail, seed) {
        b.add_edge(src, dst);
    }
    b.build()
}

/// Streams the directed edges of [`citation_graph`] without
/// materializing the edge list: the constructor draws the same n Pareto
/// popularity weights [`citation_graph`] would, then the iterator
/// performs the identical per-edge draws — `citation_graph()` is now
/// `GraphBuilder` fed from this stream, so consuming it through
/// `spp-store`'s `StreamingCsrBuilder` yields a bitwise-equal graph at
/// any scale.
///
/// # Panics
///
/// Panics on the same argument violations as [`citation_graph`].
pub fn citation_edges(
    n: usize,
    target_edges: usize,
    blocks: usize,
    homophily: f64,
    tail: f64,
    seed: u64,
) -> CitationEdges {
    assert!(blocks > 0, "need at least one block");
    assert!(
        (0.0..=1.0).contains(&homophily),
        "homophily must be in [0,1]"
    );
    assert!(tail > 1.0, "Pareto shape must exceed 1");
    let mut rng = StdRng::seed_from_u64(seed);
    // Per-vertex Pareto(tail) popularity weights, capped so no vertex can
    // absorb more than ~a quarter of all edge endpoints.
    let cap = (target_edges as f64 / 2.0).max(4.0);
    // Global prefix sums; block draws restrict to [S[lo], S[hi]).
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0.0f64);
    let mut acc = 0.0f64;
    for _ in 0..n {
        let u: f64 = rng.gen::<f64>().max(1e-12);
        acc += u.powf(-1.0 / tail).min(cap);
        prefix.push(acc);
    }
    CitationEdges {
        rng,
        n,
        blocks,
        homophily,
        remaining: target_edges,
        prefix,
        pending: None,
    }
}

/// Streaming edge source for [`citation_graph`] (see [`citation_edges`]).
pub struct CitationEdges {
    rng: StdRng,
    n: usize,
    blocks: usize,
    homophily: f64,
    remaining: usize,
    prefix: Vec<f64>,
    pending: Option<(VertexId, VertexId)>,
}

impl CitationEdges {
    /// Number of vertices edges are drawn over.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    fn draw_range(&mut self, lo: usize, hi: usize) -> usize {
        let x = self.prefix[lo] + self.rng.gen::<f64>() * (self.prefix[hi] - self.prefix[lo]);
        (self.prefix.partition_point(|&c| c <= x) - 1).clamp(lo, hi - 1)
    }
}

impl Iterator for CitationEdges {
    type Item = (VertexId, VertexId);

    fn next(&mut self) -> Option<(VertexId, VertexId)> {
        if let Some(rev) = self.pending.take() {
            return Some(rev);
        }
        while self.remaining > 0 {
            self.remaining -= 1;
            let src = self.draw_range(0, self.n);
            let dst = if self.rng.gen::<f64>() < self.homophily {
                let blk = src * self.blocks / self.n;
                let lo = (blk * self.n).div_ceil(self.blocks);
                let hi = ((blk + 1) * self.n).div_ceil(self.blocks).min(self.n);
                self.draw_range(lo, hi)
            } else {
                self.draw_range(0, self.n)
            };
            if src != dst {
                self.pending = Some((dst as VertexId, src as VertexId));
                return Some((src as VertexId, dst as VertexId));
            }
        }
        None
    }
}

/// Convenience: a deterministic small-world test graph (ring + chords).
/// Handy for unit tests that need predictable structure.
pub fn ring_with_chords(n: usize, chord_stride: usize) -> CsrGraph {
    assert!(n >= 3, "ring needs at least 3 vertices");
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        b.add_undirected_edge(v as VertexId, ((v + 1) % n) as VertexId);
        if chord_stride > 1 {
            b.add_undirected_edge(v as VertexId, ((v + chord_stride) % n) as VertexId);
        }
    }
    b.build()
}

/// Convenience: a complete graph on `n` vertices (for fanout edge cases).
pub fn complete(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        for u in (v + 1)..n {
            b.add_undirected_edge(v as VertexId, u as VertexId);
        }
    }
    b.build()
}

/// Convenience: a star graph with vertex 0 at the center.
pub fn star(n: usize) -> CsrGraph {
    assert!(n >= 2, "star needs at least 2 vertices");
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_undirected_edge(0, v as VertexId);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_is_symmetric_and_deterministic() {
        let g1 = GeneratorConfig::rmat(256, 2_000).seed(1).build();
        let g2 = GeneratorConfig::rmat(256, 2_000).seed(1).build();
        assert_eq!(g1, g2);
        assert!(g1.is_symmetric());
        assert!(g1.num_edges() > 0);
    }

    #[test]
    fn different_seeds_differ() {
        let g1 = GeneratorConfig::rmat(256, 2_000).seed(1).build();
        let g2 = GeneratorConfig::rmat(256, 2_000).seed(2).build();
        assert_ne!(g1, g2);
    }

    #[test]
    fn rmat_has_skewed_degrees() {
        let g = GeneratorConfig::rmat(1024, 16_000).seed(3).build();
        // Power-law-ish: max degree far exceeds mean degree.
        assert!(g.max_degree() as f64 > 4.0 * g.mean_degree());
    }

    #[test]
    fn erdos_renyi_close_to_target() {
        let g = GeneratorConfig::erdos_renyi(1000, 5_000).seed(4).build();
        // Each accepted pair adds 2 directed edges; duplicates shave a few.
        assert!(g.num_edges() > 8_000 && g.num_edges() <= 10_000);
    }

    #[test]
    fn planted_partition_is_homophilous() {
        let n = 600;
        let blocks = 6;
        let g = GeneratorConfig::planted_partition(n, 6_000, blocks, 0.9)
            .seed(5)
            .build();
        let block_of = |v: VertexId| (v as usize) * blocks / n;
        let intra = g
            .edges()
            .filter(|&(v, u)| block_of(v) == block_of(u))
            .count();
        assert!(
            intra as f64 > 0.7 * g.num_edges() as f64,
            "expected >70% intra-block edges, got {}/{}",
            intra,
            g.num_edges()
        );
    }

    #[test]
    fn chung_lu_head_is_heavy() {
        let g = GeneratorConfig::chung_lu(1000, 10_000, 2.1).seed(6).build();
        // Vertex 0 has the largest weight, so it should be among the very
        // highest-degree vertices.
        let d0 = g.degree(0);
        let heavier = (0..1000).filter(|&v| g.degree(v) > d0).count();
        assert!(
            heavier < 10,
            "vertex 0 should be near the top, {heavier} heavier"
        );
    }

    #[test]
    fn citation_graph_structure() {
        let g = citation_graph(2000, 12_000, 8, 0.9, 1.3, 5);
        assert!(g.is_symmetric());
        // Heavy tail: max degree far above the median.
        let mut degs: Vec<usize> = (0..2000).map(|v| g.degree(v)).collect();
        degs.sort_unstable();
        assert!(
            degs[1999] > 8 * degs[1000],
            "expected heavy tail: {:?}",
            &degs[1995..]
        );
        // Homophily: most edges stay within their block.
        let block_of = |v: VertexId| (v as usize) * 8 / 2000;
        let intra = g
            .edges()
            .filter(|&(v, u)| block_of(v) == block_of(u))
            .count();
        assert!(intra as f64 > 0.8 * g.num_edges() as f64);
    }

    #[test]
    fn citation_graph_deterministic() {
        let a = citation_graph(500, 2_000, 4, 0.9, 1.3, 7);
        let b = citation_graph(500, 2_000, 4, 0.9, 1.3, 7);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "Pareto shape must exceed 1")]
    fn citation_graph_validates_tail() {
        citation_graph(10, 20, 2, 0.5, 1.0, 0);
    }

    #[test]
    fn ring_with_chords_structure() {
        let g = ring_with_chords(10, 3);
        assert!(g.is_symmetric());
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 3));
        assert_eq!(g.num_components(), 1);
    }

    #[test]
    fn complete_graph_degrees() {
        let g = complete(5);
        for v in 0..5 {
            assert_eq!(g.degree(v), 4);
        }
    }

    #[test]
    fn star_graph_center() {
        let g = star(6);
        assert_eq!(g.degree(0), 5);
        for v in 1..6 {
            assert_eq!(g.degree(v), 1);
        }
    }
}
