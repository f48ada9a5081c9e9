//! VIP-aware partition refinement (the paper's §6 future work).
//!
//! The paper proposes "apply\[ing\] the access pattern analysis to improve
//! the initial graph partitioning, with an aim of reducing the
//! communication volume orthogonally to the use of caching". This module
//! implements the feature-placement version of that idea: with
//! partition-wise VIP values `p_k(v)`, the expected per-epoch remote
//! volume (no caching) is
//!
//! ```text
//! E[volume] = Σ_k Σ_{v : part(v) ≠ k} batches_k · p_k(v)
//! ```
//!
//! Re-homing a (non-training) vertex `v` from partition `a` to `b` leaves
//! every `p_k` unchanged — minibatch streams are driven by training
//! vertices only — and changes the expected volume by exactly
//! `w_a·p_a(v) − w_b·p_b(v)` (with `w_k` the per-epoch batch counts), so
//! a greedy pass that moves vertices toward their highest-VIP partition
//! under balance constraints is an exact descent on the objective.

use crate::cache::StaticCache;
use spp_graph::VertexId;
use spp_partition::{Partitioning, VertexWeights, NUM_CONSTRAINTS};

/// Greedy VIP-aware re-homing of non-training vertex features.
///
/// # Example
///
/// ```
/// use spp_core::vip_partition::VipRefiner;
/// use spp_core::VipModel;
/// use spp_graph::generate::GeneratorConfig;
/// use spp_partition::simple::block_partition;
/// use spp_partition::VertexWeights;
/// use spp_sampler::Fanouts;
///
/// let g = GeneratorConfig::planted_partition(200, 1200, 2, 0.8).seed(1).build();
/// let part = block_partition(200, 2);
/// let w = VertexWeights::uniform(&g);
/// let train = vec![vec![0u32, 1, 2], vec![100, 101, 102]];
/// let vip = VipModel::new(Fanouts::new(vec![3, 3]), 2).partition_scores(&g, &train);
/// let protected = vec![false; 200];
/// let before = VipRefiner::expected_volume(&part, &vip, &[1.0, 1.0]);
/// let (refined, _moves) =
///     VipRefiner::new().refine(&part, &w, &vip, &[1.0, 1.0], &protected);
/// let after = VipRefiner::expected_volume(&refined, &vip, &[1.0, 1.0]);
/// assert!(after <= before);
/// ```
#[derive(Clone, Debug)]
pub struct VipRefiner {
    balance_tolerance: f64,
    max_moves: Option<usize>,
}

impl Default for VipRefiner {
    fn default() -> Self {
        Self {
            balance_tolerance: 1.05,
            max_moves: None,
        }
    }
}

impl VipRefiner {
    /// Creates a refiner with the default 5% balance tolerance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the per-constraint balance tolerance (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if the tolerance is below 1.
    pub fn balance_tolerance(mut self, tol: f64) -> Self {
        assert!(tol >= 1.0, "tolerance must be >= 1");
        self.balance_tolerance = tol;
        self
    }

    /// Caps the number of moves (default: unlimited).
    pub fn max_moves(mut self, m: usize) -> Self {
        self.max_moves = Some(m);
        self
    }

    /// The analytic expected remote volume of an assignment under
    /// per-partition VIP values and per-partition epoch weights
    /// (typically the number of minibatches each partition runs per
    /// epoch): [`VipRefiner::expected_volume_with_caches`] with no cache.
    pub fn expected_volume(
        partitioning: &Partitioning,
        vip: &[Vec<f64>],
        epoch_weight: &[f64],
    ) -> f64 {
        let none = vec![StaticCache::empty(); partitioning.num_parts()];
        Self::expected_volume_with_caches(partitioning, vip, epoch_weight, &none)
    }

    /// Refines `partitioning` by re-homing unprotected vertices toward
    /// their highest expected-access partition, best-gain first, while
    /// all [`NUM_CONSTRAINTS`] balance constraints stay within tolerance.
    /// `protected[v]` marks vertices that must not move (training and
    /// validation vertices, whose placement defines minibatch streams).
    ///
    /// Returns the refined partitioning and the number of moves applied.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    // spp-det(core.vip_refine)
    pub fn refine(
        &self,
        partitioning: &Partitioning,
        weights: &VertexWeights,
        vip: &[Vec<f64>],
        epoch_weight: &[f64],
        protected: &[bool],
    ) -> (Partitioning, usize) {
        let n = partitioning.num_vertices();
        let k = partitioning.num_parts();
        assert_eq!(weights.len(), n, "weights size mismatch");
        assert_eq!(vip.len(), k, "one VIP vector per partition");
        assert_eq!(protected.len(), n, "protected size mismatch");

        // Balance state and limits.
        let mut loads = vec![[0u64; NUM_CONSTRAINTS]; k];
        for v in 0..n {
            let p = partitioning.part_of(v as VertexId) as usize;
            for c in 0..NUM_CONSTRAINTS {
                loads[p][c] += weights.of(v as VertexId)[c];
            }
        }
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
                limits[c] = (totals[c] as f64 / k as f64 * self.balance_tolerance).ceil() as u64
                    + max_single[c];
            }
        }

        // Candidate moves: (gain, v, dst), gain > 0 only.
        let mut candidates: Vec<(f64, u32, u32)> = Vec::new();
        for v in 0..n as u32 {
            if protected[v as usize] {
                continue;
            }
            let home = partitioning.part_of(v) as usize;
            let cost_here = epoch_weight
                .iter()
                .enumerate()
                .filter(|&(p, _)| p != home)
                .map(|(p, &w)| w * vip[p][v as usize])
                .sum::<f64>();
            let mut best: Option<(f64, u32)> = None;
            for dst in 0..k {
                if dst == home {
                    continue;
                }
                let cost_there = epoch_weight
                    .iter()
                    .enumerate()
                    .filter(|&(p, _)| p != dst)
                    .map(|(p, &w)| w * vip[p][v as usize])
                    .sum::<f64>();
                let gain = cost_here - cost_there;
                if gain > 1e-12 && best.is_none_or(|(g, _)| gain > g) {
                    best = Some((gain, dst as u32));
                }
            }
            if let Some((gain, dst)) = best {
                candidates.push((gain, v, dst));
            }
        }
        candidates.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));

        let mut assignment = partitioning.assignment().to_vec();
        let mut moves = 0usize;
        let budget = self.max_moves.unwrap_or(usize::MAX);
        for (_, v, dst) in candidates {
            if moves >= budget {
                break;
            }
            let vi = v as usize;
            let src = assignment[vi] as usize;
            let dst = dst as usize;
            let w = weights.of(v);
            let fits = (0..NUM_CONSTRAINTS).all(|c| loads[dst][c] + w[c] <= limits[c]);
            if !fits {
                continue;
            }
            for c in 0..NUM_CONSTRAINTS {
                loads[src][c] -= w[c];
                loads[dst][c] += w[c];
            }
            assignment[vi] = dst as u32;
            moves += 1;
        }
        (Partitioning::new(assignment, k), moves)
    }

    /// Residual expected volume after applying per-partition caches on
    /// top of an assignment (cached vertices cost nothing).
    pub fn expected_volume_with_caches(
        partitioning: &Partitioning,
        vip: &[Vec<f64>],
        epoch_weight: &[f64],
        caches: &[StaticCache],
    ) -> f64 {
        let k = partitioning.num_parts();
        assert_eq!(vip.len(), k, "one VIP vector per partition");
        assert_eq!(epoch_weight.len(), k, "one weight per partition");
        assert_eq!(caches.len(), k, "one cache per partition");
        let mut total = 0.0;
        for (p, pv) in vip.iter().enumerate() {
            for v in 0..partitioning.num_vertices() as VertexId {
                if partitioning.part_of(v) != p as u32 && !caches[p].contains(v) {
                    total += epoch_weight[p] * pv[v as usize];
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VipModel;
    use spp_graph::generate::GeneratorConfig;
    use spp_graph::CsrGraph;
    use spp_partition::simple::block_partition;
    use spp_sampler::Fanouts;

    type Fixture = (
        CsrGraph,
        Partitioning,
        Vec<Vec<VertexId>>,
        Vec<Vec<f64>>,
        Vec<f64>,
    );

    fn fixture() -> Fixture {
        // Homophily 0.65 keeps enough cross-partition VIP mass that the
        // block partition always admits beneficial moves; at 0.8 the
        // instance is marginal and flips with the RNG stream.
        let g = GeneratorConfig::planted_partition(400, 3200, 4, 0.65)
            .seed(2)
            .build();
        let part = block_partition(400, 4);
        let train: Vec<Vec<VertexId>> = (0..4u32)
            .map(|p| part.members(p).into_iter().take(20).collect())
            .collect();
        let vip = VipModel::new(Fanouts::new(vec![4, 4]), 4).partition_scores(&g, &train);
        let weights = vec![5.0; 4];
        (g, part, train, vip, weights)
    }

    #[test]
    fn refinement_never_increases_expected_volume() {
        let (g, part, train, vip, ew) = fixture();
        let w = VertexWeights::uniform(&g);
        let mut protected = vec![false; 400];
        for t in &train {
            for &v in t {
                protected[v as usize] = true;
            }
        }
        let before = VipRefiner::expected_volume(&part, &vip, &ew);
        let (refined, moves) = VipRefiner::new()
            .balance_tolerance(1.10)
            .refine(&part, &w, &vip, &ew, &protected);
        let after = VipRefiner::expected_volume(&refined, &vip, &ew);
        assert!(moves > 0, "expected some beneficial moves");
        assert!(
            after < before,
            "volume must drop: {before:.1} -> {after:.1} ({moves} moves)"
        );
    }

    #[test]
    fn protected_vertices_never_move() {
        let (g, part, train, vip, ew) = fixture();
        let w = VertexWeights::uniform(&g);
        let mut protected = vec![false; 400];
        for t in &train {
            for &v in t {
                protected[v as usize] = true;
            }
        }
        let (refined, _) = VipRefiner::new().refine(&part, &w, &vip, &ew, &protected);
        for (v, &p) in protected.iter().enumerate() {
            if p {
                assert_eq!(
                    refined.part_of(v as VertexId),
                    part.part_of(v as VertexId),
                    "protected vertex {v} moved"
                );
            }
        }
    }

    #[test]
    fn balance_respected_after_refinement() {
        let (g, part, _, vip, ew) = fixture();
        let w = VertexWeights::uniform(&g);
        let protected = vec![false; 400];
        let (refined, _) = VipRefiner::new()
            .balance_tolerance(1.05)
            .refine(&part, &w, &vip, &ew, &protected);
        let imb = spp_partition::metrics::imbalance(&refined, &w);
        // Tolerance plus one max-weight vertex of slack.
        assert!(imb[0] < 1.08, "imbalance {imb:?}");
    }

    #[test]
    fn max_moves_caps_work() {
        let (g, part, _, vip, ew) = fixture();
        let w = VertexWeights::uniform(&g);
        let protected = vec![false; 400];
        let (_, moves) = VipRefiner::new()
            .max_moves(3)
            .refine(&part, &w, &vip, &ew, &protected);
        assert!(moves <= 3);
    }

    #[test]
    fn cached_volume_is_no_larger_than_uncached() {
        let (_, part, _, vip, ew) = fixture();
        let empty: Vec<StaticCache> = (0..4).map(|_| StaticCache::empty()).collect();
        let v0 = VipRefiner::expected_volume(&part, &vip, &ew);
        let v1 = VipRefiner::expected_volume_with_caches(&part, &vip, &ew, &empty);
        assert!((v0 - v1).abs() < 1e-9);
        // Cache the globally hottest remote vertices for partition 0.
        let mut remote: Vec<VertexId> = (0..400u32).filter(|&v| part.part_of(v) != 0).collect();
        remote.sort_by(|&a, &b| vip[0][b as usize].partial_cmp(&vip[0][a as usize]).unwrap());
        let mut caches = empty;
        caches[0] = StaticCache::from_members(&remote[..50]);
        let v2 = VipRefiner::expected_volume_with_caches(&part, &vip, &ew, &caches);
        assert!(v2 < v0);
    }
}
