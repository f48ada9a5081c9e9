//! Seeded request-trace generation for serving experiments.
//!
//! Online inference load is heavily skewed in practice — a small set of
//! entities (users, items, accounts) receives most queries. The
//! generator models this with a Pareto-style popularity law: draw
//! `u ~ U[0,1)` and map it to popularity rank `⌊n·u^shape⌋` over a
//! *seeded random permutation* of the vertex ids. The permutation is
//! deliberately decoupled from the VIP ranking used to build the static
//! cache, so the request-time hot set is something the offline analysis
//! could not have predicted — exactly the regime where the dynamic
//! overlay tier earns its capacity.
//!
//! Static popularity alone is the *easy* case for an offline cache: an
//! IID draw from a fixed law is exactly what a top-k static tier is
//! optimal for. Real request streams additionally show *temporal
//! locality* — flash crowds and sessions re-reference what was just
//! queried — which no cache frozen at deployment time can track. The
//! [`TraceConfig::burstiness`] knob models this: with that probability
//! a request re-targets one of the last [`BURST_WINDOW`] requests
//! (self-reinforcing, like a trending item), otherwise it draws fresh
//! from the popularity law.
//!
//! Everything is a pure function of the config's seed: the same
//! [`TraceConfig`] yields the same trace, byte for byte, on every run.

use crate::queue::InferenceRequest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spp_graph::VertexId;

/// Seed-stream separator for the popularity permutation.
const PERM_STREAM: u64 = 0x9e37_79b9_7f4a_7c15;

/// Number of trailing requests a bursty re-reference can target.
pub const BURST_WINDOW: usize = 32;

/// Maps uniform draws to vertices under a Pareto-style popularity law.
#[derive(Clone, Debug)]
pub struct PopularitySampler {
    /// Rank → vertex: `perm[0]` is the most popular vertex.
    perm: Vec<VertexId>,
    shape: f64,
}

impl PopularitySampler {
    /// A sampler over `num_vertices` ids with skew exponent `shape`
    /// (`1.0` = uniform; larger = more concentrated on the hot ranks),
    /// ranking vertices by a permutation seeded from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `num_vertices` is zero or `shape` is not positive.
    pub fn new(num_vertices: usize, shape: f64, seed: u64) -> Self {
        assert!(num_vertices > 0, "popularity needs at least one vertex");
        assert!(shape > 0.0, "skew shape must be positive");
        let mut perm: Vec<VertexId> = (0..num_vertices as VertexId).collect();
        let mut rng = StdRng::seed_from_u64(seed ^ PERM_STREAM);
        for i in (1..perm.len()).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        Self { perm, shape }
    }

    /// Number of vertices in the id space.
    pub fn num_vertices(&self) -> usize {
        self.perm.len()
    }

    /// Draws one vertex: rank `⌊n·u^shape⌋` for `u ~ U[0,1)`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> VertexId {
        let u: f64 = rng.gen();
        let n = self.perm.len() as f64;
        let rank = ((n * u.powf(self.shape)) as usize).min(self.perm.len() - 1);
        self.perm[rank]
    }
}

/// Configuration for an open-loop Poisson request trace.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Requests to generate.
    pub num_requests: usize,
    /// Vertex id space (requests target `0..num_vertices`).
    pub num_vertices: usize,
    /// Mean arrival rate (requests per virtual second; exponential
    /// inter-arrivals).
    pub arrival_rate: f64,
    /// Popularity skew exponent (see [`PopularitySampler`]; `1.0` =
    /// uniform).
    pub skew: f64,
    /// Probability that a request re-references one of the last
    /// [`BURST_WINDOW`] requests instead of drawing fresh from the
    /// popularity law (`0.0` = pure IID popularity).
    pub burstiness: f64,
    /// Master seed for both arrivals and vertex choices.
    pub seed: u64,
}

/// Generates an open-loop trace: Poisson arrivals, Pareto-skewed
/// vertex popularity with optional bursty re-references, all streams
/// derived from `cfg.seed`.
///
/// # Panics
///
/// Panics if `arrival_rate` is not positive, `num_vertices` is zero,
/// or `burstiness` is outside `[0, 1]`.
// spp-det(serve.loadgen)
pub fn generate_open_loop(cfg: &TraceConfig) -> Vec<InferenceRequest> {
    assert!(cfg.arrival_rate > 0.0, "arrival rate must be positive");
    assert!(
        (0.0..=1.0).contains(&cfg.burstiness),
        "burstiness must be a probability"
    );
    let sampler = PopularitySampler::new(cfg.num_vertices, cfg.skew, cfg.seed);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut t = 0.0;
    // Ring of the last BURST_WINDOW requested vertices (with repeats —
    // a vertex re-referenced often occupies more slots and so attracts
    // further re-references, the flash-crowd dynamic).
    let mut recent: Vec<VertexId> = Vec::with_capacity(BURST_WINDOW);
    let mut next_slot = 0usize;
    (0..cfg.num_requests)
        .map(|i| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / cfg.arrival_rate;
            let bursty = !recent.is_empty() && rng.gen::<f64>() < cfg.burstiness;
            let vertex = if bursty {
                recent[rng.gen_range(0..recent.len())]
            } else {
                sampler.sample(&mut rng)
            };
            if recent.len() < BURST_WINDOW {
                recent.push(vertex);
            } else {
                recent[next_slot] = vertex;
                next_slot = (next_slot + 1) % BURST_WINDOW;
            }
            InferenceRequest {
                id: i as u64,
                vertex,
                arrival: t,
                client: 0,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn cfg(skew: f64, seed: u64) -> TraceConfig {
        TraceConfig {
            num_requests: 4000,
            num_vertices: 1000,
            arrival_rate: 100.0,
            skew,
            burstiness: 0.0,
            seed,
        }
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        let a = generate_open_loop(&cfg(3.0, 7));
        let b = generate_open_loop(&cfg(3.0, 7));
        assert_eq!(a, b);
        let c = generate_open_loop(&cfg(3.0, 8));
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_are_nondecreasing_with_sequential_ids() {
        let trace = generate_open_loop(&cfg(2.0, 1));
        for (i, w) in trace.windows(2).enumerate() {
            assert!(w[1].arrival >= w[0].arrival);
            assert_eq!(w[0].id, i as u64);
        }
        assert!(trace.iter().all(|r| (r.vertex as usize) < 1000));
    }

    #[test]
    fn skew_concentrates_mass_on_few_vertices() {
        let count_top = |skew: f64| {
            let trace = generate_open_loop(&cfg(skew, 5));
            let mut freq: HashMap<u32, usize> = HashMap::new();
            for r in &trace {
                *freq.entry(r.vertex).or_insert(0) += 1;
            }
            let mut counts: Vec<usize> = freq.values().copied().collect();
            counts.sort_unstable_by(|a, b| b.cmp(a));
            // Requests landing on the 10 hottest vertices.
            counts.iter().take(10).sum::<usize>()
        };
        let uniform = count_top(1.0);
        let skewed = count_top(4.0);
        assert!(
            skewed > uniform * 5,
            "skew=4 top-10 mass {skewed} should dwarf uniform {uniform}"
        );
    }

    #[test]
    fn rank_zero_is_hottest_under_skew() {
        let sampler = PopularitySampler::new(100, 4.0, 3);
        let mut rng = StdRng::seed_from_u64(11);
        let hot = sampler.perm[0];
        let hits = (0..2000)
            .filter(|_| sampler.sample(&mut rng) == hot)
            .count();
        // rank 0 gets P(u^4 < 1/100) = (1/100)^(1/4) ≈ 31.6% of draws.
        assert!(hits > 400, "rank-0 vertex drew only {hits}/2000");
    }

    #[test]
    #[should_panic(expected = "at least one vertex")]
    fn empty_id_space_rejected() {
        PopularitySampler::new(0, 1.0, 0);
    }

    #[test]
    fn burstiness_concentrates_short_window_reuse() {
        // Fraction of requests whose vertex appeared in the previous
        // BURST_WINDOW requests.
        let reuse = |burstiness: f64| {
            let trace = generate_open_loop(&TraceConfig {
                burstiness,
                ..cfg(2.0, 13)
            });
            let hits = trace
                .windows(BURST_WINDOW + 1)
                .filter(|w| {
                    w[..BURST_WINDOW]
                        .iter()
                        .any(|r| r.vertex == w[BURST_WINDOW].vertex)
                })
                .count();
            hits as f64 / (trace.len() - BURST_WINDOW) as f64
        };
        let iid = reuse(0.0);
        let bursty = reuse(0.5);
        assert!(
            bursty > iid + 0.3,
            "burstiness=0.5 reuse {bursty:.3} should far exceed IID {iid:.3}"
        );
        // Bursty traces are still deterministic per seed.
        let a = generate_open_loop(&TraceConfig {
            burstiness: 0.4,
            ..cfg(3.0, 5)
        });
        let b = generate_open_loop(&TraceConfig {
            burstiness: 0.4,
            ..cfg(3.0, 5)
        });
        assert_eq!(a, b);
    }
}
