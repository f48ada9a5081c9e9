//! METIS-style multilevel k-way partitioning.
//!
//! Three phases, as in Karypis & Kumar (1997):
//!
//! 1. **Coarsening** — heavy-edge matching repeatedly contracts the graph
//!    until it is small (vertex and edge weights accumulate).
//! 2. **Initial partitioning** — greedy graph growing on the coarsest
//!    graph, balanced on total vertex weight.
//! 3. **Uncoarsening + refinement** — the partition is projected back
//!    through the levels; at each level boundary Fiduccia–Mattheyses-style
//!    passes move vertices to reduce the edge cut subject to
//!    multi-constraint balance limits (overall / train / val vertices and
//!    edges — the constraints the paper configures METIS with).

use crate::weights::NUM_CONSTRAINTS;
use crate::{Partitioning, VertexWeights};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spp_graph::CsrGraph;
use std::borrow::Cow;

/// A weighted graph level in the multilevel hierarchy: 8 B per edge
/// (`u32` targets and weights). The finest level borrows the input
/// graph's CSR and vertex weights, its edges weighing 1 each.
#[derive(Debug)]
struct Level<'g> {
    row_ptr: Cow<'g, [usize]>,
    col: Cow<'g, [u32]>,
    /// Edge weights aligned with `col`, each the number of input edges
    /// it stands for; empty on the finest level.
    ew: Vec<u32>,
    vw: Cow<'g, [[u64; NUM_CONSTRAINTS]]>,
    /// Map from the *finer* level's vertices to this level's vertices
    /// (empty for the finest level).
    coarse_of_fine: Vec<u32>,
}

impl Level<'_> {
    fn n(&self) -> usize {
        self.vw.len()
    }

    fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, u64)> + '_ {
        let v = v as usize;
        let (lo, hi) = (self.row_ptr[v], self.row_ptr[v + 1]); // spp-hot: allow(h2-panic): row_ptr bounds are Level-construction CSR invariants (this is the level's checked accessor)
        let ew = self.ew.get(lo..hi).unwrap_or_default();
        self.col[lo..hi]
            .iter()
            .enumerate()
            .map(move |(i, &c)| (c, ew.get(i).map_or(1, |&w| u64::from(w))))
    }
}

/// Per-constraint balance tolerance: a part may exceed its even share
/// by 5%.
const BALANCE_TOLERANCE: f64 = 1.05;
/// Refinement passes per level (twice as many on the coarsest).
const REFINE_PASSES: usize = 8;

/// Configuration and entry point for multilevel partitioning.
///
/// # Example
///
/// ```
/// use spp_graph::generate::GeneratorConfig;
/// use spp_partition::{multilevel::MultilevelPartitioner, VertexWeights};
///
/// let g = GeneratorConfig::planted_partition(300, 1800, 3, 0.9).seed(0).build();
/// let w = VertexWeights::uniform(&g);
/// let p = MultilevelPartitioner::new(3).seed(7).partition(&g, &w);
/// assert_eq!(p.num_parts(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct MultilevelPartitioner {
    k: usize,
    seed: u64,
    coarsen_until: usize,
}

impl MultilevelPartitioner {
    /// Creates a partitioner for `k` parts (5% balance tolerance, 8
    /// refinement passes per level).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "need at least one part");
        Self {
            k,
            seed: 0,
            coarsen_until: (40 * k).max(256),
        }
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Partitions `graph` with the given per-vertex weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != graph.num_vertices()`, the graph has
    /// fewer vertices than parts, or it has more than `u32::MAX` edges
    /// (a coarse edge's weight counts the input edges it stands for).
    pub fn partition(&self, graph: &CsrGraph, weights: &VertexWeights) -> Partitioning {
        assert_eq!(
            weights.len(),
            graph.num_vertices(),
            "weights/graph size mismatch"
        );
        assert!(graph.num_vertices() >= self.k, "fewer vertices than parts");
        assert!(
            u32::try_from(graph.num_edges()).is_ok(),
            "more than u32::MAX edges"
        );
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Finest level: the input graph itself, borrowed.
        let mut levels = vec![Level {
            row_ptr: Cow::Borrowed(graph.row_ptr()),
            col: Cow::Borrowed(graph.col()),
            ew: Vec::new(),
            vw: Cow::Borrowed(weights.as_slice()),
            coarse_of_fine: Vec::new(),
        }];

        // Phase 1: coarsen.
        while let Some(fine) = levels.last() {
            if fine.n() <= self.coarsen_until {
                break;
            }
            let coarse = coarsen(fine, &mut rng);
            // Stop if matching stalls (star-like graphs stop shrinking).
            if coarse.n() as f64 > fine.n() as f64 * 0.95 {
                break;
            }
            levels.push(coarse);
        }

        // Phase 2: initial partition on the coarsest level — several
        // random restarts of connectivity-driven greedy growing, keeping
        // the best refined cut.
        let limits = self.limits(weights);
        let mut assignment = Vec::new();
        let mut best_cut = u64::MAX;
        let coarsest = match levels.last() {
            Some(l) => l,
            None => return Partitioning::new(Vec::new(), self.k),
        };
        for _ in 0..4 {
            let mut cand = greedy_growing(coarsest, self.k, &mut rng);
            repair_balance(coarsest, &mut cand, self.k, &limits, &mut rng);
            refine(
                coarsest,
                &mut cand,
                self.k,
                &limits,
                REFINE_PASSES * 2,
                &mut rng,
            );
            repair_balance(coarsest, &mut cand, self.k, &limits, &mut rng);
            let cut = weighted_cut(coarsest, &cand);
            if cut < best_cut {
                best_cut = cut;
                assignment = cand;
            }
        }

        // Phase 3: project + refine through the levels.
        for li in (0..levels.len() - 1).rev() {
            let finer = &levels[li];
            let coarse_map = &levels[li + 1].coarse_of_fine;
            let mut fine_assignment = vec![0u32; finer.n()];
            for v in 0..finer.n() {
                fine_assignment[v] = assignment[coarse_map[v] as usize];
            }
            assignment = fine_assignment;
            refine(
                finer,
                &mut assignment,
                self.k,
                &limits,
                REFINE_PASSES,
                &mut rng,
            );
            repair_balance(finer, &mut assignment, self.k, &limits, &mut rng);
        }

        Partitioning::new(assignment, self.k)
    }

    /// Per-constraint load limits: `total/k * tol`, with one
    /// max-single-vertex-weight of absolute slack so sparse indicator
    /// constraints (train/val) never deadlock refinement.
    fn limits(&self, weights: &VertexWeights) -> [u64; NUM_CONSTRAINTS] {
        let totals = weights.totals();
        let mut max_single = [0u64; NUM_CONSTRAINTS];
        for w in weights.as_slice() {
            for c in 0..NUM_CONSTRAINTS {
                max_single[c] = max_single[c].max(w[c]);
            }
        }
        let mut limits = [u64::MAX; NUM_CONSTRAINTS];
        for c in 0..NUM_CONSTRAINTS {
            if totals[c] > 0 {
                let target = totals[c] as f64 / self.k as f64;
                limits[c] = (target * BALANCE_TOLERANCE).ceil() as u64 + max_single[c];
            }
        }
        limits
    }
}

/// Heavy-edge matching + contraction, producing the next coarser level.
fn coarsen(fine: &Level<'_>, rng: &mut StdRng) -> Level<'static> {
    let n = fine.n();
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut mate = vec![u32::MAX; n];
    for &v in &order {
        if mate[v as usize] != u32::MAX {
            continue;
        }
        let mut best = v; // match with self if no free neighbor
        let mut best_w = 0u64;
        for (u, w) in fine.neighbors(v) {
            if u != v && mate[u as usize] == u32::MAX && w > best_w {
                best = u;
                best_w = w;
            }
        }
        mate[v as usize] = best;
        mate[best as usize] = v;
    }

    // Assign coarse ids: pair gets one id.
    let mut coarse_of_fine = vec![u32::MAX; n];
    let mut nc = 0u32;
    for v in 0..n as u32 {
        if coarse_of_fine[v as usize] != u32::MAX {
            continue;
        }
        coarse_of_fine[v as usize] = nc;
        let m = mate[v as usize];
        if m != v {
            coarse_of_fine[m as usize] = nc;
        }
        nc += 1;
    }

    // Accumulate coarse vertex weights and adjacency.
    let nc = nc as usize;
    let mut vw = vec![[0u64; NUM_CONSTRAINTS]; nc];
    for v in 0..n {
        let c = coarse_of_fine[v] as usize;
        for i in 0..NUM_CONSTRAINTS {
            vw[c][i] += fine.vw[v][i];
        }
    }
    // Fine vertices grouped by coarse id.
    let mut members_ptr = vec![0usize; nc + 1];
    for v in 0..n {
        members_ptr[coarse_of_fine[v] as usize + 1] += 1;
    }
    for c in 0..nc {
        members_ptr[c + 1] += members_ptr[c];
    }
    let mut members = vec![0u32; n];
    let mut cursor = members_ptr.clone();
    for v in 0..n as u32 {
        let c = coarse_of_fine[v as usize] as usize;
        members[cursor[c]] = v;
        cursor[c] += 1;
    }
    let members_of = |c: u32| &members[members_ptr[c as usize]..members_ptr[c as usize + 1]];
    // Edge accumulation, merged with a scratch map keyed by coarse target
    // (timestamped to avoid clearing). A first pass counts each coarse
    // vertex's distinct neighbours, so the arrays hold this level's own
    // edges and no more.
    let mut stamp = vec![u32::MAX; nc];
    let mut row_ptr = vec![0usize; nc + 1];
    for c in 0..nc as u32 {
        let mut degree = 0;
        for &v in members_of(c) {
            for (u, _) in fine.neighbors(v) {
                let cu = coarse_of_fine[u as usize];
                if cu != c && stamp[cu as usize] != c {
                    stamp[cu as usize] = c;
                    degree += 1;
                }
            }
        }
        row_ptr[c as usize + 1] = row_ptr[c as usize] + degree;
    }
    let mut col = vec![0u32; row_ptr[nc]];
    let mut ew = vec![0u32; row_ptr[nc]];
    stamp.fill(u32::MAX);
    let mut slot = vec![0usize; nc];
    for c in 0..nc as u32 {
        let mut next = row_ptr[c as usize];
        for &v in members_of(c) {
            for (u, w) in fine.neighbors(v) {
                let cu = coarse_of_fine[u as usize];
                if cu == c {
                    continue; // contracted self-loop
                }
                // Weights sum input edges, so they stay at most
                // `graph.num_edges()`, which `partition` bounds by `u32::MAX`.
                let w = w as u32;
                if stamp[cu as usize] == c {
                    ew[slot[cu as usize]] += w;
                } else {
                    stamp[cu as usize] = c;
                    slot[cu as usize] = next;
                    col[next] = cu;
                    ew[next] = w;
                    next += 1;
                }
            }
        }
    }

    Level {
        row_ptr: Cow::Owned(row_ptr),
        col: Cow::Owned(col),
        ew,
        vw: Cow::Owned(vw),
        coarse_of_fine,
    }
}

/// Greedy graph growing (GGGP-style): grow `k` regions from random seeds,
/// always absorbing the unassigned frontier vertex with the strongest
/// edge-weight connectivity to the growing region, until the region
/// reaches its share of total constraint-0 weight. Connectivity-driven
/// growth keeps regions cohesive even on hub-heavy graphs where plain BFS
/// floods across communities.
fn greedy_growing(level: &Level<'_>, k: usize, rng: &mut StdRng) -> Vec<u32> {
    use std::collections::BinaryHeap;
    let n = level.n();
    let total0: u64 = level.vw.iter().map(|w| w[0]).sum();
    let target = total0 / k as u64 + 1;
    let mut assignment = vec![u32::MAX; n];
    let mut conn = vec![0u64; n]; // connectivity of unassigned vertices to the current region
    let mut unassigned = n;
    for p in 0..k as u32 {
        if unassigned == 0 {
            break;
        }
        let seed = loop {
            let v = rng.gen_range(0..n) as u32;
            if assignment[v as usize] == u32::MAX {
                break v;
            }
        };
        // Max-heap of (connectivity, vertex) with lazy invalidation.
        let mut heap: BinaryHeap<(u64, u32)> = BinaryHeap::new();
        heap.push((1, seed));
        let mut load = 0u64;
        while load < target || (p as usize) == k - 1 {
            let Some((c, v)) = heap.pop() else { break };
            let vi = v as usize;
            if assignment[vi] != u32::MAX || c < conn[vi].max(1) {
                continue; // stale entry
            }
            assignment[vi] = p;
            conn[vi] = 0;
            unassigned -= 1;
            load += level.vw[vi][0];
            for (u, w) in level.neighbors(v) {
                let ui = u as usize;
                if assignment[ui] == u32::MAX {
                    conn[ui] += w;
                    heap.push((conn[ui], u));
                }
            }
        }
        // Residual connectivity is region-specific; reset for the next one.
        while let Some((_, v)) = heap.pop() {
            conn[v as usize] = 0;
        }
    }
    // Any stragglers (disconnected pieces) go to the lightest part.
    let mut loads = vec![0u64; k];
    for v in 0..n {
        if assignment[v] != u32::MAX {
            loads[assignment[v] as usize] += level.vw[v][0];
        }
    }
    for v in 0..n {
        if assignment[v] == u32::MAX {
            let p = (0..k).min_by_key(|&p| loads[p]).unwrap_or(0);
            assignment[v] = p as u32;
            loads[p] += level.vw[v][0];
        }
    }
    assignment
}

/// Total weighted cut of an assignment (each undirected edge counted
/// twice, which is fine for comparisons).
fn weighted_cut(level: &Level<'_>, assignment: &[u32]) -> u64 {
    let mut cut = 0u64;
    for v in 0..level.n() as u32 {
        for (u, w) in level.neighbors(v) {
            if assignment[v as usize] != assignment[u as usize] {
                cut += w;
            }
        }
    }
    cut
}

/// Explicit balance repair: while any part exceeds a constraint limit,
/// move boundary vertices of the offending part to the part with the most
/// headroom, preferring moves with the least cut damage. Caps the number
/// of moves to stay linear.
fn repair_balance(
    level: &Level<'_>,
    assignment: &mut [u32],
    k: usize,
    limits: &[u64; NUM_CONSTRAINTS],
    rng: &mut StdRng,
) {
    let n = level.n();
    let mut loads = vec![[0u64; NUM_CONSTRAINTS]; k];
    for v in 0..n {
        let p = assignment[v] as usize;
        for c in 0..NUM_CONSTRAINTS {
            loads[p][c] += level.vw[v][c];
        }
    }
    let over = |loads: &[[u64; NUM_CONSTRAINTS]], p: usize| -> bool {
        (0..NUM_CONSTRAINTS).any(|c| loads[p][c] > limits[c])
    };
    let mut moves_left = 2 * n;
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut progress = true;
    while progress && moves_left > 0 && (0..k).any(|p| over(&loads, p)) {
        progress = false;
        for &v in &order {
            let vi = v as usize;
            let pv = assignment[vi] as usize;
            if !over(&loads, pv) {
                continue;
            }
            // Destination: most constraint-0 headroom that fits v.
            let mut best: Option<usize> = None;
            let mut best_headroom = 0i64;
            for q in 0..k {
                if q == pv || !fits(&loads[q], &level.vw[vi], limits) {
                    continue;
                }
                let headroom = limits[0].saturating_sub(loads[q][0]) as i64;
                if headroom > best_headroom {
                    best_headroom = headroom;
                    best = Some(q);
                }
            }
            if let Some(q) = best {
                for c in 0..NUM_CONSTRAINTS {
                    loads[pv][c] -= level.vw[vi][c];
                    loads[q][c] += level.vw[vi][c];
                }
                assignment[vi] = q as u32;
                progress = true;
                moves_left -= 1;
                if moves_left == 0 {
                    break;
                }
            }
        }
    }
}

/// Boundary FM-style refinement: move boundary vertices to the neighboring
/// part with the highest positive cut gain, subject to balance limits.
fn refine(
    level: &Level<'_>,
    assignment: &mut [u32],
    k: usize,
    limits: &[u64; NUM_CONSTRAINTS],
    passes: usize,
    rng: &mut StdRng,
) {
    let n = level.n();
    let mut loads = vec![[0u64; NUM_CONSTRAINTS]; k];
    for v in 0..n {
        let p = assignment[v] as usize;
        for c in 0..NUM_CONSTRAINTS {
            loads[p][c] += level.vw[v][c];
        }
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut conn = vec![0u64; k]; // scratch: edge weight to each part
    let mut touched: Vec<usize> = Vec::new();
    for _ in 0..passes {
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut moved = 0usize;
        for &v in &order {
            let pv = assignment[v as usize] as usize;
            // Connectivity to each adjacent part.
            touched.clear();
            let mut is_boundary = false;
            for (u, w) in level.neighbors(v) {
                let pu = assignment[u as usize] as usize;
                if conn[pu] == 0 {
                    touched.push(pu);
                }
                conn[pu] += w;
                if pu != pv {
                    is_boundary = true;
                }
            }
            if is_boundary {
                let own = conn[pv];
                let mut best_p = pv;
                let mut best_gain = 0i64;
                for &p in &touched {
                    if p == pv {
                        continue;
                    }
                    let gain = conn[p] as i64 - own as i64;
                    if gain > best_gain && fits(&loads[p], &level.vw[v as usize], limits) {
                        best_gain = gain;
                        best_p = p;
                    }
                }
                if best_p != pv {
                    for c in 0..NUM_CONSTRAINTS {
                        loads[pv][c] -= level.vw[v as usize][c];
                        loads[best_p][c] += level.vw[v as usize][c];
                    }
                    assignment[v as usize] = best_p as u32;
                    moved += 1;
                }
            }
            for &p in &touched {
                conn[p] = 0;
            }
        }
        if moved == 0 {
            break;
        }
    }
}

#[inline]
fn fits(
    load: &[u64; NUM_CONSTRAINTS],
    vw: &[u64; NUM_CONSTRAINTS],
    limits: &[u64; NUM_CONSTRAINTS],
) -> bool {
    (0..NUM_CONSTRAINTS).all(|c| load[c] + vw[c] <= limits[c])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use crate::simple::random_partition;
    use spp_graph::dataset::SyntheticSpec;
    use spp_graph::generate::GeneratorConfig;

    #[test]
    fn recovers_planted_structure() {
        let g = GeneratorConfig::planted_partition(1000, 8000, 4, 0.95)
            .seed(1)
            .build();
        let w = VertexWeights::uniform(&g);
        let p = MultilevelPartitioner::new(4).seed(2).partition(&g, &w);
        let cut = metrics::edge_cut_fraction(&g, &p);
        let rnd = metrics::edge_cut_fraction(&g, &random_partition(1000, 4, 2));
        assert!(
            cut < rnd / 3.0,
            "multilevel cut {cut:.3} should be far below random {rnd:.3}"
        );
    }

    #[test]
    fn balances_all_constraints() {
        let ds = SyntheticSpec::new("t", 2000, 10.0, 4, 8)
            .split_fractions(0.1, 0.05, 0.2)
            .seed(3)
            .build();
        let w = VertexWeights::from_dataset(&ds);
        let p = MultilevelPartitioner::new(4)
            .seed(4)
            .partition(&ds.graph, &w);
        let imb = metrics::imbalance(&p, &w);
        for (c, &i) in imb.iter().enumerate() {
            assert!(i < 1.35, "constraint {c} imbalance {i:.3} too high");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = GeneratorConfig::rmat(500, 3000).seed(5).build();
        let w = VertexWeights::uniform(&g);
        let a = MultilevelPartitioner::new(3).seed(6).partition(&g, &w);
        let b = MultilevelPartitioner::new(3).seed(6).partition(&g, &w);
        assert_eq!(a, b);
    }

    #[test]
    fn single_part_trivial() {
        let g = GeneratorConfig::erdos_renyi(50, 200).seed(7).build();
        let w = VertexWeights::uniform(&g);
        let p = MultilevelPartitioner::new(1).partition(&g, &w);
        assert!(p.assignment().iter().all(|&x| x == 0));
        assert_eq!(metrics::edge_cut(&g, &p), 0);
    }

    #[test]
    fn handles_star_graph() {
        // Matching stalls on stars; the partitioner must still terminate
        // and produce a valid (if imperfect) partition.
        let g = spp_graph::generate::star(1000);
        let w = VertexWeights::uniform(&g);
        let p = MultilevelPartitioner::new(4).seed(8).partition(&g, &w);
        assert_eq!(p.num_vertices(), 1000);
        assert_eq!(p.num_parts(), 4);
    }

    #[test]
    fn all_parts_nonempty_on_reasonable_graphs() {
        let g = GeneratorConfig::rmat(2000, 16_000).seed(9).build();
        let w = VertexWeights::uniform(&g);
        let p = MultilevelPartitioner::new(8).seed(10).partition(&g, &w);
        for (i, s) in p.sizes().iter().enumerate() {
            assert!(*s > 0, "part {i} empty");
        }
    }
}
