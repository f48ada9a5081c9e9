//! The analytical VIP model (Proposition 1).
//!
//! For node-wise sampling with per-hop fanouts `f_h`, minibatch size `B`
//! drawn uniformly from a training set `T`, Proposition 1 gives the
//! probability that a vertex `u` appears in the sampled L-hop expanded
//! neighborhood of a minibatch:
//!
//! ```text
//! p[0](u) = B / |T|                          if u ∈ T, else 0
//! p[h](u) = 1 - Π_{v ∈ N(u)} (1 - t_h(u,v) · p[h-1](v))
//! p(u)    = 1 - Π_{h=1..L} (1 - p[h](u))
//! t_h(u,v) = min(1, f_h / d(v))               (uniform GraphSAGE law)
//! ```
//!
//! The recurrence holds for any node-wise transition law (paper §3): a
//! [`TransitionLaw`] supplies `t_h`, uniform by default, [`EdgeWeights`]
//! for weighted sampling, statically dispatched into the same sweeps.
//!
//! Products over high-degree neighborhoods underflow `f64`, so the
//! implementation accumulates `ln(1 - t·p)` with `ln_1p` and
//! exponentiates once per vertex per hop — the same `O(L(M+N))` sweep,
//! numerically stable.
//!
//! # Execution strategies
//!
//! The recurrence is evaluated by one shared per-vertex kernel under two
//! interchangeable sweep strategies, chosen per hop from the previous hop's nonzero mass alone
//! (so the choice depends on the data, never on timing):
//!
//! - **Dense** — every vertex every hop, `O(L(M+N))`, parallelized over
//!   CSR-edge-balanced vertex chunks.
//! - **Frontier-sparse** — only vertices whose out-neighborhood carries
//!   nonzero `prev` mass are updated (`O(active)` per hop); candidates
//!   are discovered through the transposed graph and everything outside
//!   the frontier keeps the exact `+0.0` the dense sweep would produce,
//!   so the two strategies are bit-identical.
//!
//! All parallel decomposition goes through [`spp_pool::WorkerPool`]:
//! chunk boundaries are a pure function of the graph (vertex count and
//! cumulative edge weight), and per-vertex results merge in index order,
//! so scores are bit-identical for any worker count, serial included.

use spp_graph::{CsrGraph, VertexId};
use spp_pool::{balanced_ranges, WorkerPool};
use spp_sampler::weighted::EdgeWeights;
use spp_sampler::Fanouts;
use spp_telemetry::metrics::{self, Counter, Histogram};
use std::sync::OnceLock;

/// Cached telemetry handles for the sweep hot path: which strategy each
/// hop chose, how large its frontier was, and how long each partition's
/// sweep ran (the `core.vip.partition_sweep` span histogram is
/// auto-registered by the span itself).
struct VipMetrics {
    hops_dense: Counter,
    hops_sparse: Counter,
    frontier_size: Histogram,
}

fn vip_metrics() -> &'static VipMetrics {
    static METRICS: OnceLock<VipMetrics> = OnceLock::new();
    METRICS.get_or_init(|| VipMetrics {
        hops_dense: metrics::counter("core.vip.hops_dense"),
        hops_sparse: metrics::counter("core.vip.hops_sparse"),
        frontier_size: metrics::histogram("core.vip.frontier_size"),
    })
}

/// A node-wise transition law `t_h(u, v)`: the probability that a vertex
/// `v` in the hop-(h−1) set samples its neighbor `u` at fanout `f_h`.
pub trait TransitionLaw: Sync {
    /// `t_h(u, v)` for `u ∈ N(v)`; the sweeps only query true neighbors.
    fn probability(&self, graph: &CsrGraph, fanout: usize, u: VertexId, v: VertexId) -> f64;
}

/// The uniform law `t_h(u, v) = min(1, f_h / d(v))`, evaluated as
/// `f_h · (1/d(v))` over a reciprocal-degree table built once per call
/// (`+inf` for isolated vertices, which makes `t` come out as 1 exactly
/// like the division), so the kernel multiplies instead of dividing.
struct Uniform {
    inv_deg: Vec<f64>,
}

impl Uniform {
    fn new(graph: &CsrGraph) -> Self {
        let inv_deg = (0..graph.num_vertices() as VertexId)
            .map(|v| 1.0 / graph.degree(v) as f64)
            .collect();
        Self { inv_deg }
    }
}

impl TransitionLaw for Uniform {
    #[inline]
    fn probability(&self, _: &CsrGraph, fanout: usize, _: VertexId, v: VertexId) -> f64 {
        (fanout as f64 * self.inv_deg[v as usize]).min(1.0)
    }
}

/// The weighted law: `t_h(u, v)` is
/// [`EdgeWeights::transition_probability`].
impl TransitionLaw for EdgeWeights {
    #[inline]
    fn probability(&self, graph: &CsrGraph, fanout: usize, u: VertexId, v: VertexId) -> f64 {
        self.transition_probability(graph, v, u, fanout)
    }
}

/// Computes analytic vertex-inclusion probabilities.
///
/// # Example
///
/// ```
/// use spp_core::VipModel;
/// use spp_graph::generate::complete;
/// use spp_sampler::Fanouts;
///
/// // On a complete graph with fanout >= degree, any 1-hop neighbor of a
/// // certain minibatch vertex is included with probability 1.
/// let g = complete(6);
/// let model = VipModel::new(Fanouts::new(vec![10]), 1);
/// let p = model.scores(&g, &[0]);
/// assert!((p[1] - 1.0).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct VipModel {
    fanouts: Fanouts,
    batch_size: usize,
}

impl VipModel {
    /// Creates a model for the given fanouts and minibatch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn new(fanouts: Fanouts, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        Self {
            fanouts,
            batch_size,
        }
    }

    /// The configured fanouts.
    pub fn fanouts(&self) -> &Fanouts {
        &self.fanouts
    }

    /// Initial (hop-0) probabilities: `min(1, B/|T|)` on `train`, else 0.
    pub fn initial_probabilities(&self, n: usize, train: &[VertexId]) -> Vec<f64> {
        let mut p0 = vec![0.0f64; n];
        if train.is_empty() {
            return p0;
        }
        let p = (self.batch_size as f64 / train.len() as f64).min(1.0);
        for &v in train {
            p0[v as usize] = p;
        }
        p0
    }

    /// Hop-wise VIP vectors `p[1..=L]` from arbitrary initial
    /// probabilities (Proposition 1's recurrence), on the global pool.
    ///
    /// # Panics
    ///
    /// Panics if `p0.len() != graph.num_vertices()`.
    pub fn hop_scores(&self, graph: &CsrGraph, p0: &[f64]) -> Vec<Vec<f64>> {
        self.hop_scores_with(WorkerPool::global(), graph, p0)
    }

    /// [`VipModel::hop_scores`] with an explicit pool. Results are
    /// bit-identical for every pool — the pool only changes which worker
    /// visits a vertex.
    ///
    /// # Panics
    ///
    /// Panics if `p0.len() != graph.num_vertices()`.
    pub fn hop_scores_with(&self, pool: WorkerPool, graph: &CsrGraph, p0: &[f64]) -> Vec<Vec<f64>> {
        self.hop_scores_impl(pool, graph, &Uniform::new(graph), None, p0, None)
    }

    /// The recurrence under `law`. `force_sparse` pins every hop to one
    /// sweep (`Some(true)`: frontier-sparse) so tests can hold the two
    /// against each other; `None` chooses per hop.
    fn hop_scores_impl<L: TransitionLaw>(
        &self,
        pool: WorkerPool,
        graph: &CsrGraph,
        law: &L,
        shared_transpose: Option<&CsrGraph>,
        p0: &[f64],
        force_sparse: Option<bool>,
    ) -> Vec<Vec<f64>> {
        assert_eq!(p0.len(), graph.num_vertices(), "p0 size mismatch");
        let n = graph.num_vertices();
        // The transpose drives frontier discovery; build it at most once
        // per call (or borrow the caller's, in partition sweeps where all
        // K partitions share one).
        let mut local_transpose: Option<CsrGraph> = None;
        let mut hops: Vec<Vec<f64>> = Vec::with_capacity(self.fanouts.num_hops());
        for h in 1..=self.fanouts.num_hops() {
            let f = self.fanouts.hop(h);
            let prev: &[f64] = hops.last().map_or(p0, Vec::as_slice);
            let support: Vec<VertexId> = (0..n as VertexId)
                .filter(|&v| prev[v as usize] > 0.0)
                .collect();
            // A sparse hop scans the support's in-edges twice (once to
            // discover candidates, once inside the kernel via each
            // candidate's full out-neighborhood); require the support to
            // be a small fraction of the graph before paying for the
            // transpose walk. Pure function of `prev`, so the choice is
            // replica-deterministic.
            let sparse = force_sparse.unwrap_or(support.len() * 8 <= n);
            if metrics::enabled() {
                let m = vip_metrics();
                m.frontier_size.observe(support.len() as u64);
                if sparse {
                    m.hops_sparse.inc();
                } else {
                    m.hops_dense.inc();
                }
            }
            let transpose: Option<&CsrGraph> =
                if sparse {
                    Some(shared_transpose.unwrap_or_else(|| {
                        local_transpose.get_or_insert_with(|| graph.transpose())
                    }))
                } else {
                    None
                };
            let cur = match transpose {
                Some(tr) => frontier_sweep(pool, graph, tr, law, prev, &support, f),
                None => dense_sweep(pool, graph, law, prev, f),
            };
            hops.push(cur);
        }
        hops
    }

    /// Combined VIP values `p(u) = 1 - Π_h (1 - p[h](u))` from hop vectors.
    pub fn combine(hops: &[Vec<f64>]) -> Vec<f64> {
        let n = hops.first().map_or(0, Vec::len);
        let mut out = vec![0.0f64; n];
        for (u, o) in out.iter_mut().enumerate() {
            let mut log_miss = 0.0f64;
            for h in hops {
                let p = h[u];
                if p >= 1.0 {
                    log_miss = f64::NEG_INFINITY;
                    break;
                }
                log_miss += (-p).ln_1p();
            }
            *o = crate::clamp01(1.0 - log_miss.exp());
        }
        out
    }

    /// End-to-end: VIP values for minibatches drawn from `train`.
    // spp-det(core.vip_scores)
    pub fn scores(&self, graph: &CsrGraph, train: &[VertexId]) -> Vec<f64> {
        self.scores_with(WorkerPool::global(), graph, train)
    }

    /// [`VipModel::scores`] with an explicit pool.
    pub fn scores_with(&self, pool: WorkerPool, graph: &CsrGraph, train: &[VertexId]) -> Vec<f64> {
        let p0 = self.initial_probabilities(graph.num_vertices(), train);
        Self::combine(&self.hop_scores_with(pool, graph, &p0))
    }

    /// Per-partition VIP values: entry `k` holds `p_k(u)` for minibatches
    /// drawn from partition `k`'s training vertices (`train_of_part[k]`).
    /// This is the quantity the caching policy ranks (paper §3.2 computes
    /// rankings per partition, footnote 1). Runs on the global pool.
    pub fn partition_scores(
        &self,
        graph: &CsrGraph,
        train_of_part: &[Vec<VertexId>],
    ) -> Vec<Vec<f64>> {
        self.partition_scores_with(WorkerPool::global(), graph, train_of_part)
    }

    /// [`VipModel::partition_scores`] with an explicit pool. The K
    /// independent sweeps are scheduled as pool jobs (never one unbounded
    /// thread per partition), each sweep parallelizing internally on its
    /// share of the worker budget via [`WorkerPool::split`]; the
    /// transposed graph and the law's reciprocal-degree table are built
    /// once and shared by every partition's sweep.
    pub fn partition_scores_with(
        &self,
        pool: WorkerPool,
        graph: &CsrGraph,
        train_of_part: &[Vec<VertexId>],
    ) -> Vec<Vec<f64>> {
        self.partition_scores_impl(pool, graph, &Uniform::new(graph), train_of_part, None)
    }

    /// [`VipModel::partition_scores_with`] under an arbitrary transition
    /// law, e.g. the [`EdgeWeights`] of a weighted sampler.
    pub fn partition_scores_with_law<L: TransitionLaw>(
        &self,
        pool: WorkerPool,
        graph: &CsrGraph,
        law: &L,
        train_of_part: &[Vec<VertexId>],
    ) -> Vec<Vec<f64>> {
        self.partition_scores_impl(pool, graph, law, train_of_part, None)
    }

    fn partition_scores_impl<L: TransitionLaw>(
        &self,
        pool: WorkerPool,
        graph: &CsrGraph,
        law: &L,
        train_of_part: &[Vec<VertexId>],
        force_sparse: Option<bool>,
    ) -> Vec<Vec<f64>> {
        let k = train_of_part.len();
        if k == 0 {
            return Vec::new();
        }
        // Partition train sets are small by construction (|T|/K), so the
        // frontier path is the expected one; pay for the transpose once
        // up front instead of once per partition job.
        let transpose = (force_sparse != Some(false)).then(|| graph.transpose());
        let inner = pool.split(k);
        pool.run_jobs(k, |i| {
            let _sweep = spp_telemetry::span!("core.vip.partition_sweep");
            let p0 = self.initial_probabilities(graph.num_vertices(), &train_of_part[i]);
            let hops =
                self.hop_scores_impl(inner, graph, law, transpose.as_ref(), &p0, force_sparse);
            Self::combine(&hops)
        })
    }
}

/// Lane width of the blocked [`hop_update`] kernel (DESIGN.md §14).
const HOP_LANES: usize = 8;

/// The shared inner kernel of Proposition 1's recurrence: one vertex's
/// next-hop inclusion probability from its out-neighborhood. Every sweep
/// (serial, dense-parallel, frontier-sparse) under every law evaluates
/// exactly this function, which is what makes them bit-identical.
///
/// Blocked evaluation: neighbors are processed in 8-lane chunks. Each
/// chunk gathers its `x = t_h(u, v) · p(v)` terms branch-free into
/// a lane buffer (a `p(v) ≤ 0` neighbor becomes an exact-zero term,
/// `ln_1p(-0) = -0`, a no-op on the accumulator — replacing the seed's
/// skip branch), checks saturation for the whole chunk (`x ≥ 1` means
/// the miss probability is exactly zero, so the result is exactly `1.0`
/// — same value the seed's early `-inf` break produced), then spreads
/// the `ln_1p` terms over two alternating accumulators to break the
/// serial FP dependency chain. The accumulation order (even lanes,
/// odd lanes, fixed combine, tail ascending) is a pure function of the
/// neighbor list — bit-identical for any worker count, because pool
/// chunking only splits *vertices*, never one vertex's neighbor list.
// spp-hot(core.hop_update)
#[inline]
fn hop_update<L: TransitionLaw>(
    graph: &CsrGraph,
    law: &L,
    prev: &[f64],
    f: usize,
    u: VertexId,
) -> f64 {
    let neighbors = graph.neighbors(u);
    let chunks = neighbors.chunks_exact(HOP_LANES);
    let tail = chunks.remainder();
    let mut acc = [0.0f64; 2];
    for c8 in chunks {
        let mut x = [0.0f64; HOP_LANES];
        for (l, &v) in c8.iter().enumerate() {
            let pv = prev[v as usize];
            let t = law.probability(graph, f, u, v);
            x[l] = (t * pv).max(0.0);
        }
        if x.iter().any(|&xi| xi >= 1.0) {
            return 1.0;
        }
        for (l, &xi) in x.iter().enumerate() {
            acc[l & 1] += (-xi).ln_1p();
        }
    }
    let mut log_miss = acc[0] + acc[1];
    for &v in tail {
        let pv = prev[v as usize];
        let t = law.probability(graph, f, u, v);
        let x = (t * pv).max(0.0);
        if x >= 1.0 {
            return 1.0;
        }
        log_miss += (-x).ln_1p();
    }
    crate::clamp01(1.0 - log_miss.exp())
}

/// One dense hop: every vertex updated, vertices chunked so each chunk
/// carries an equal share of `N + M` work (CSR edge counts), chunk
/// boundaries a pure function of the graph.
fn dense_sweep<L: TransitionLaw>(
    pool: WorkerPool,
    graph: &CsrGraph,
    law: &L,
    prev: &[f64],
    f: usize,
) -> Vec<f64> {
    let n = graph.num_vertices();
    let total = (n + graph.num_edges()) as u64;
    let jobs = pool.jobs_for_cost(total);
    let edges_before = |i: usize| -> u64 {
        if i == n {
            graph.num_edges() as u64
        } else {
            graph.neighbor_range(i as VertexId).start as u64
        }
    };
    let ranges = balanced_ranges(n, jobs, |i| i as u64 + edges_before(i));
    let cuts: Vec<usize> = ranges.iter().map(|r| r.end).collect();
    let mut cur = vec![0.0f64; n];
    pool.par_chunks(&mut cur, &cuts, |_, offset, chunk| {
        for (j, slot) in chunk.iter_mut().enumerate() {
            *slot = hop_update(graph, law, prev, f, (offset + j) as VertexId);
        }
    });
    cur
}

/// One frontier-sparse hop: only vertices with an out-edge into
/// `support` (the nonzero entries of `prev`) can change, and they are
/// found by walking the transposed graph. Everything else keeps the
/// exact `+0.0` the dense sweep produces for it (`1 - exp(0) = +0.0`),
/// so the result is bit-identical to [`dense_sweep`]. Active vertices
/// are updated in chunks balanced by out-degree.
fn frontier_sweep<L: TransitionLaw>(
    pool: WorkerPool,
    graph: &CsrGraph,
    transpose: &CsrGraph,
    law: &L,
    prev: &[f64],
    support: &[VertexId],
    f: usize,
) -> Vec<f64> {
    let n = graph.num_vertices();
    let mut on_frontier = vec![false; n];
    let mut active: Vec<VertexId> = Vec::new();
    for &v in support {
        for &u in transpose.neighbors(v) {
            if !on_frontier[u as usize] {
                on_frontier[u as usize] = true;
                active.push(u);
            }
        }
    }
    // Ascending vertex order: the chunk decomposition below must be a
    // pure function of the graph and `prev`, not of discovery order.
    active.sort_unstable();
    let mut work_before = vec![0u64; active.len() + 1];
    for (i, &u) in active.iter().enumerate() {
        work_before[i + 1] = work_before[i] + 1 + graph.degree(u) as u64;
    }
    let jobs = pool.jobs_for_cost(work_before[active.len()]);
    let ranges = balanced_ranges(active.len(), jobs, |i| work_before[i]);
    let values = pool.run_jobs(ranges.len(), |j| {
        ranges[j]
            .clone()
            .map(|i| hop_update(graph, law, prev, f, active[i]))
            .collect::<Vec<f64>>()
    });
    let mut cur = vec![0.0f64; n];
    for (range, vals) in ranges.iter().zip(&values) {
        for (i, &val) in range.clone().zip(vals) {
            cur[active[i] as usize] = val;
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spp_graph::generate::{complete, ring_with_chords, star, GeneratorConfig};

    #[test]
    fn probabilities_in_unit_interval() {
        let g = GeneratorConfig::rmat(512, 4096).seed(1).build();
        let train: Vec<VertexId> = (0..100).collect();
        let p = VipModel::new(Fanouts::new(vec![5, 5, 5]), 32).scores(&g, &train);
        assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x) && x.is_finite()));
    }

    #[test]
    fn empty_train_set_gives_zero() {
        let g = complete(10);
        let p = VipModel::new(Fanouts::new(vec![3]), 4).scores(&g, &[]);
        assert!(p.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn batch_equal_to_train_makes_p0_one() {
        let g = complete(5);
        let model = VipModel::new(Fanouts::new(vec![10]), 5);
        let train: Vec<VertexId> = (0..5).collect();
        let p0 = model.initial_probabilities(5, &train);
        assert!(p0.iter().all(|&x| x == 1.0));
        // Full expansion from the whole graph: everything certain.
        let p = model.scores(&g, &train);
        assert!(p.iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }

    #[test]
    fn monotone_in_fanout() {
        let g = GeneratorConfig::rmat(256, 2048).seed(2).build();
        let train: Vec<VertexId> = (0..50).collect();
        let small = VipModel::new(Fanouts::new(vec![2, 2]), 16).scores(&g, &train);
        let large = VipModel::new(Fanouts::new(vec![8, 8]), 16).scores(&g, &train);
        for (s, l) in small.iter().zip(&large) {
            assert!(l >= s, "VIP must grow with fanout: {s} vs {l}");
        }
    }

    #[test]
    fn monotone_in_batch_size() {
        let g = GeneratorConfig::rmat(256, 2048).seed(3).build();
        let train: Vec<VertexId> = (0..100).collect();
        let small = VipModel::new(Fanouts::new(vec![4, 4]), 8).scores(&g, &train);
        let large = VipModel::new(Fanouts::new(vec![4, 4]), 64).scores(&g, &train);
        for (s, l) in small.iter().zip(&large) {
            assert!(*l >= s - 1e-12, "VIP must grow with batch size");
        }
    }

    #[test]
    fn random_walk_special_case_is_linear() {
        // With fanout 1 and batch 1, p[1](u) = Σ_v t(u,v)·p0(v) exactly
        // when at most one neighbor has nonzero p0 (no product cross
        // terms). Star center: leaves sample the center w.p. 1.
        let g = star(6);
        let model = VipModel::new(Fanouts::new(vec![1]), 1);
        // Train set = {1} (a leaf with degree 1): t(0,1) = min(1, 1/1) = 1.
        let p = model.scores(&g, &[1]);
        assert!((p[0] - 1.0).abs() < 1e-12);
        // Other leaves unreachable in one hop.
        assert_eq!(p[2], 0.0);
    }

    #[test]
    fn full_expansion_special_case() {
        // Fanout >= max degree: p[h](u) = 1 - Π (1 - p[h-1](v)), the
        // deterministic BFS-expansion probability.
        let g = ring_with_chords(12, 1);
        let model = VipModel::new(Fanouts::new(vec![10]), 1);
        let train: Vec<VertexId> = vec![0, 2];
        let p = model.scores(&g, &train);
        // Vertex 1 neighbors both train vertices; inclusion prob
        // = 1 - (1 - 0.5)(1 - 0.5) = 0.75.
        assert!((p[1] - 0.75).abs() < 1e-12);
        // Vertex 6 is far away.
        assert_eq!(p[6], 0.0);
    }

    #[test]
    fn agrees_with_monte_carlo() {
        // Empirical inclusion frequency under the exact random process the
        // model analyzes — frontier expansion per Proposition 1's steps
        // (i)–(iii) — must match the analytic VIP within sampling noise
        // plus the model's independence-approximation slack.
        let g = GeneratorConfig::erdos_renyi(60, 300).seed(4).build();
        let train: Vec<VertexId> = (0..40).collect();
        let fanouts = Fanouts::new(vec![3, 2]);
        let b = 4usize;
        let model = VipModel::new(fanouts.clone(), b);
        let analytic = model.scores(&g, &train);

        let mut rng = StdRng::seed_from_u64(5);
        let trials = 4000;
        let mut counts = vec![0usize; g.num_vertices()];
        let mut scratch = Vec::new();
        for _ in 0..trials {
            // Uniform minibatch of size b without replacement.
            let mut pool = train.clone();
            for i in 0..b {
                let j = rand::Rng::gen_range(&mut rng, i..pool.len());
                pool.swap(i, j);
            }
            let mut included = vec![false; g.num_vertices()];
            let mut frontier: Vec<VertexId> = pool[..b].to_vec();
            for h in 1..=fanouts.num_hops() {
                let f = fanouts.hop(h);
                let mut next: Vec<VertexId> = Vec::new();
                for &v in &frontier {
                    spp_sampler::sample::sample_neighbors(&g, v, f, &mut rng, &mut scratch);
                    next.extend_from_slice(&scratch);
                }
                next.sort_unstable();
                next.dedup();
                for &u in &next {
                    included[u as usize] = true;
                }
                frontier = next;
            }
            for (v, &inc) in included.iter().enumerate() {
                if inc {
                    counts[v] += 1;
                }
            }
        }
        for v in 0..g.num_vertices() {
            let a = analytic[v];
            let emp = counts[v] as f64 / trials as f64;
            let sigma = (a * (1.0 - a) / trials as f64).sqrt().max(1e-3);
            assert!(
                (emp - a).abs() < 5.0 * sigma + 0.02,
                "vertex {v}: empirical {emp:.4} vs analytic {a:.4}"
            );
        }
    }

    #[test]
    fn partition_scores_shape() {
        let g = complete(10);
        let model = VipModel::new(Fanouts::new(vec![2]), 2);
        let parts = vec![vec![0, 1, 2], vec![5, 6]];
        let s = model.partition_scores(&g, &parts);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].len(), 10);
        // Partition 0's VIP of vertex 9 reflects reachability from {0,1,2}.
        assert!(s[0][9] > 0.0);
    }

    /// Bit-level equality for probability vectors (clippy's `float_cmp`
    /// is exactly what we want here: the determinism contract is
    /// bit-identity, not tolerance).
    fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: vertex {i}: {x} vs {y}");
        }
    }

    /// Every way to sweep a hop: the per-hop rule, then dense and
    /// frontier-sparse forced.
    const SWEEPS: [Option<bool>; 3] = [None, Some(false), Some(true)];

    /// [`VipModel::scores_with`] with every hop forced to one sweep.
    fn forced_scores(
        model: &VipModel,
        pool: WorkerPool,
        g: &CsrGraph,
        train: &[VertexId],
        sparse: bool,
    ) -> Vec<f64> {
        let p0 = model.initial_probabilities(g.num_vertices(), train);
        let law = Uniform::new(g);
        VipModel::combine(&model.hop_scores_impl(pool, g, &law, None, &p0, Some(sparse)))
    }

    /// A weighted law skewed toward every fifth vertex.
    fn skewed_weights(g: &CsrGraph) -> EdgeWeights {
        let score: Vec<f32> = (0..g.num_vertices())
            .map(|v| 1.0 + (v % 5) as f32)
            .collect();
        EdgeWeights::from_target_scores(g, &score)
    }

    #[test]
    fn hop_scores_bit_identical_across_pools_and_strategies() {
        fn check<L: TransitionLaw>(model: &VipModel, g: &CsrGraph, law: &L, p0: &[f64]) {
            let reference =
                model.hop_scores_impl(WorkerPool::serial(), g, law, None, p0, Some(false));
            for workers in [1usize, 2, 8] {
                for sweep in SWEEPS {
                    let got =
                        model.hop_scores_impl(WorkerPool::new(workers), g, law, None, p0, sweep);
                    assert_eq!(got.len(), reference.len());
                    for (h, (a, b)) in reference.iter().zip(&got).enumerate() {
                        let what = format!("workers={workers} sparse={sweep:?} hop {h}");
                        assert_bits_eq(a, b, &what);
                    }
                }
            }
        }
        let g = GeneratorConfig::rmat(1024, 8192).seed(7).build();
        let train: Vec<VertexId> = (0..64).collect();
        let model = VipModel::new(Fanouts::new(vec![7, 5, 3]), 16);
        let p0 = model.initial_probabilities(g.num_vertices(), &train);
        check(&model, &g, &Uniform::new(&g), &p0);
        check(&model, &g, &skewed_weights(&g), &p0);
    }

    #[test]
    fn scores_bit_identical_across_pools() {
        let g = GeneratorConfig::rmat(512, 4096).seed(11).build();
        let train: Vec<VertexId> = (100..140).collect();
        let model = VipModel::new(Fanouts::new(vec![4, 4]), 8);
        let reference = forced_scores(&model, WorkerPool::serial(), &g, &train, false);
        for workers in [2usize, 8] {
            let got = forced_scores(&model, WorkerPool::new(workers), &g, &train, true);
            assert_bits_eq(&reference, &got, &format!("scores workers={workers}"));
        }
    }

    #[test]
    fn frontier_sparse_and_dense_strategies_agree_at_every_width() {
        let g = GeneratorConfig::erdos_renyi(200, 900).seed(5).build();
        let train: Vec<VertexId> = (0..40).collect();
        let model = VipModel::new(Fanouts::new(vec![6, 4]), 4);
        let dense = forced_scores(&model, WorkerPool::new(1), &g, &train, false);
        for workers in [1usize, 2, 8] {
            for sparse in [false, true] {
                let p = forced_scores(&model, WorkerPool::new(workers), &g, &train, sparse);
                assert_bits_eq(&dense, &p, &format!("workers={workers} sparse={sparse}"));
            }
        }
    }

    #[test]
    fn partition_scores_bit_identical_across_pools() {
        let g = GeneratorConfig::rmat(512, 4096).seed(13).build();
        let parts: Vec<Vec<VertexId>> = vec![
            (0..30).collect(),
            (200..230).collect(),
            (400..420).collect(),
        ];
        let model = VipModel::new(Fanouts::new(vec![5, 5]), 8);
        let law = Uniform::new(&g);
        let reference =
            model.partition_scores_impl(WorkerPool::serial(), &g, &law, &parts, Some(false));
        for workers in [1usize, 2, 8] {
            for sweep in [None, Some(true)] {
                let pool = WorkerPool::new(workers);
                let got = model.partition_scores_impl(pool, &g, &law, &parts, sweep);
                assert_eq!(got.len(), reference.len());
                for (k, (a, b)) in reference.iter().zip(&got).enumerate() {
                    assert_bits_eq(
                        a,
                        b,
                        &format!("workers={workers} sparse={sweep:?} part {k}"),
                    );
                }
            }
        }
    }

    #[test]
    fn frontier_skips_work_but_not_results_on_tiny_train_sets() {
        // One isolated train vertex in a big sparse graph: the frontier
        // sweep touches a handful of vertices, the dense sweep touches
        // all of them; outputs must still agree bitwise.
        let g = GeneratorConfig::rmat(2048, 6144).seed(17).build();
        let model = VipModel::new(Fanouts::new(vec![3, 3, 3]), 1);
        let pool = WorkerPool::new(4);
        let dense = forced_scores(&model, pool, &g, &[5], false);
        let sparse = forced_scores(&model, pool, &g, &[5], true);
        assert_bits_eq(&dense, &sparse, "tiny train set");
    }

    /// Hop vectors of the serial dense sweep and of the frontier-sparse
    /// sweep on `workers` workers.
    fn dense_and_sparse<L: TransitionLaw>(
        model: &VipModel,
        g: &CsrGraph,
        law: &L,
        p0: &[f64],
        workers: usize,
    ) -> [Vec<Vec<f64>>; 2] {
        let sweep = |pool, sparse| model.hop_scores_impl(pool, g, law, None, p0, Some(sparse));
        [
            sweep(WorkerPool::serial(), false),
            sweep(WorkerPool::new(workers), true),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The frontier-sparse sweep is an exact evaluation-order-preserving
        /// subset of the dense sweep: for any graph, fanouts, train set,
        /// worker count and law, every hop vector matches the serial dense
        /// sweep bit for bit.
        #[test]
        fn frontier_sparse_sweep_matches_dense_bitwise(
            n in 8usize..160,
            m in 1usize..600,
            f1 in 1usize..8,
            f2 in 1usize..8,
            batch in 1usize..16,
            train_len in 1usize..24,
            workers in 1usize..8,
            seed in 0u64..1000,
            weighted in any::<bool>(),
        ) {
            let g = GeneratorConfig::erdos_renyi(n, m).seed(seed).build();
            let train: Vec<VertexId> = (0..train_len.min(n) as u32).collect();
            let model = VipModel::new(Fanouts::new(vec![f1, f2]), batch);
            let p0 = model.initial_probabilities(n, &train);
            let [dense, sparse] = if weighted {
                dense_and_sparse(&model, &g, &skewed_weights(&g), &p0, workers)
            } else {
                dense_and_sparse(&model, &g, &Uniform::new(&g), &p0, workers)
            };
            prop_assert_eq!(dense.len(), sparse.len());
            for (a, b) in dense.iter().zip(&sparse) {
                for (x, y) in a.iter().zip(b) {
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "{} vs {}", x, y);
                }
            }
        }
    }

    #[test]
    fn high_degree_hub_gets_high_vip() {
        let g = star(50);
        let train: Vec<VertexId> = (1..30).collect();
        let p = VipModel::new(Fanouts::new(vec![5, 5]), 8).scores(&g, &train);
        // Center is sampled by every minibatch vertex with prob 1.
        assert!(p[0] > 0.99);
        // A random leaf is reached only via the center's fanout.
        assert!(p[40] < p[0]);
    }

    #[test]
    fn weighted_transitions_shift_vip_mass() {
        // Boost the attractiveness of vertex 1: its VIP under weighted
        // sampling must exceed its uniform VIP; a deflated vertex's must
        // drop.
        let g = complete(20);
        let train: Vec<VertexId> = (5..15).collect();
        let model = VipModel::new(Fanouts::new(vec![2]), 4);
        let mut score = vec![1.0f32; 20];
        score[1] = 20.0;
        score[2] = 0.05;
        let w = EdgeWeights::from_target_scores(&g, &score);
        let uni = model.scores(&g, &train);
        let wtd = &model.partition_scores_with_law(WorkerPool::serial(), &g, &w, &[train])[0];
        assert!(wtd[1] > uni[1] * 1.5, "boosted: {} vs {}", wtd[1], uni[1]);
        assert!(wtd[2] < uni[2] * 0.5, "deflated: {} vs {}", wtd[2], uni[2]);
    }

    #[test]
    fn weighted_vip_agrees_with_weighted_monte_carlo() {
        // Frontier-process simulation with the weighted sampler vs the
        // analytic model under the weighted law. Proposition 1 assumes
        // independence across the product terms, which is accurate when
        // per-term probabilities are small (the realistic regime: B << |T|
        // and fanout << degree) — so the fixture keeps both small.
        let g = complete(40);
        let train: [Vec<VertexId>; 1] = [(0..40).collect()];
        let fanouts = Fanouts::new(vec![3]);
        let b = 2usize;
        let mut score = vec![1.0f32; 40];
        score[0] = 4.0;
        let w = EdgeWeights::from_target_scores(&g, &score);
        let model = VipModel::new(fanouts.clone(), b);
        let analytic = &model.partition_scores_with_law(WorkerPool::new(2), &g, &w, &train)[0];

        let sampler = spp_sampler::weighted::WeightedNodeWiseSampler::new(&g, &w, fanouts);
        let mut rng = StdRng::seed_from_u64(9);
        let trials = 3000;
        let mut counts = vec![0usize; 40];
        for _ in 0..trials {
            let mut pool = train[0].clone();
            for i in 0..b {
                let j = rand::Rng::gen_range(&mut rng, i..pool.len());
                pool.swap(i, j);
            }
            let mfg = sampler.sample(&pool[..b], &mut rng);
            let mut included = [false; 40];
            for t in 0..mfg.hops[0].num_targets {
                for &local in mfg.hops[0].neighbors(t) {
                    included[mfg.nodes[local as usize] as usize] = true;
                }
            }
            for (v, &inc) in included.iter().enumerate() {
                if inc {
                    counts[v] += 1;
                }
            }
        }
        for v in 0..40 {
            let emp = counts[v] as f64 / trials as f64;
            let a = analytic[v];
            let sigma = (a * (1.0 - a) / trials as f64).sqrt().max(1e-3);
            assert!(
                (emp - a).abs() < 5.0 * sigma + 0.04,
                "vertex {v}: empirical {emp:.3} vs analytic {a:.3}"
            );
        }
    }
}
