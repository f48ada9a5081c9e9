//! Static remote-feature caches sized by a replication factor.

use spp_graph::VertexId;

/// Builds per-partition [`StaticCache`]s from policy rankings and a
/// replication factor α: each machine caches the top `αN/K` remote
/// vertices of its ranking (paper §3.2).
///
/// # Example
///
/// ```
/// use spp_core::CacheBuilder;
///
/// // α = 0.5, N = 100, K = 2 → 25 cached vertices per machine.
/// let builder = CacheBuilder::new(0.5, 100, 2);
/// assert_eq!(builder.capacity(), 25);
/// let ranking: Vec<u32> = (50..100).collect();
/// let cache = builder.build(&ranking);
/// assert_eq!(cache.len(), 25);
/// assert!(cache.contains(50));
/// assert!(!cache.contains(80));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct CacheBuilder {
    /// Replication factor α: cached vertices per machine = `α · N / K`.
    pub alpha: f64,
    /// Total number of graph vertices N.
    pub num_vertices: usize,
    /// Number of partitions/machines K.
    pub num_parts: usize,
}

impl CacheBuilder {
    /// Creates a builder.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is negative or `num_parts` is zero.
    pub fn new(alpha: f64, num_vertices: usize, num_parts: usize) -> Self {
        assert!(alpha >= 0.0, "replication factor must be non-negative");
        assert!(num_parts > 0, "need at least one partition");
        Self {
            alpha,
            num_vertices,
            num_parts,
        }
    }

    /// Number of vertices a cache of this α holds.
    pub fn capacity(&self) -> usize {
        (self.alpha * self.num_vertices as f64 / self.num_parts as f64).round() as usize
    }

    /// Builds the cache for one partition from its ranking (higher
    /// priority first): the top `capacity()` entries are kept.
    pub fn build(&self, ranking: &[VertexId]) -> StaticCache {
        let cap = self.capacity().min(ranking.len());
        StaticCache::from_members(&ranking[..cap])
    }

    /// Builds caches for all partitions.
    pub fn build_all(&self, rankings: &[Vec<VertexId>]) -> Vec<StaticCache> {
        rankings.iter().map(|r| self.build(r)).collect()
    }
}

/// One machine's static cache of remote vertex features: a membership
/// index mapping cached global vertex ids to cache slots (the lookup
/// the paper performs per remote vertex, §4.2).
///
/// Membership is a sorted `(vertex, slot)` array probed by binary search
/// — fully ordered, so every traversal of the structure is
/// deterministic by construction (§9 / DESIGN §8).
#[derive(Clone, Debug, Default)]
pub struct StaticCache {
    /// `(vertex, slot)` pairs sorted by vertex id.
    index: Vec<(VertexId, u32)>,
    members: Vec<VertexId>,
}

impl StaticCache {
    /// An empty cache (α = 0 / no caching).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds from a member list (priority order preserved as slot order).
    ///
    /// # Panics
    ///
    /// Panics on duplicate members.
    pub fn from_members(members: &[VertexId]) -> Self {
        let mut index: Vec<(VertexId, u32)> = members
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        index.sort_unstable();
        for w in index.windows(2) {
            assert!(w[0].0 != w[1].0, "duplicate cache member {}", w[0].0);
        }
        Self {
            index,
            members: members.to_vec(),
        }
    }

    /// Number of cached vertices.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The cache slot of `v`, if cached.
    #[inline]
    pub fn slot_of(&self, v: VertexId) -> Option<u32> {
        self.index
            .binary_search_by_key(&v, |&(id, _)| id)
            .ok()
            .map(|i| self.index[i].1)
    }

    /// True if `v` is cached.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.index.binary_search_by_key(&v, |&(id, _)| id).is_ok()
    }

    /// Cached vertex ids in slot order.
    pub fn members(&self) -> &[VertexId] {
        &self.members
    }

    /// Feature bytes this cache stores for dimension `dim` (f32 features).
    pub fn memory_bytes(&self, dim: usize) -> usize {
        self.members.len() * dim * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_formula() {
        // α = 0.32, N = 1000, K = 8 → 40 vertices per machine.
        let b = CacheBuilder::new(0.32, 1000, 8);
        assert_eq!(b.capacity(), 40);
    }

    #[test]
    fn build_takes_prefix() {
        let b = CacheBuilder::new(0.5, 20, 2); // capacity 5
        let ranking: Vec<VertexId> = vec![9, 8, 7, 6, 5, 4, 3];
        let c = b.build(&ranking);
        assert_eq!(c.len(), 5);
        assert_eq!(c.members(), &[9, 8, 7, 6, 5]);
        assert!(c.contains(9));
        assert!(!c.contains(4));
        assert_eq!(c.slot_of(7), Some(2));
    }

    #[test]
    fn short_ranking_caps_cache() {
        let b = CacheBuilder::new(1.0, 100, 2); // capacity 50
        let c = b.build(&[1, 2, 3]);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn zero_alpha_gives_empty_cache() {
        let b = CacheBuilder::new(0.0, 100, 4);
        assert_eq!(b.capacity(), 0);
        assert!(b.build(&[1, 2, 3]).is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate cache member")]
    fn duplicates_rejected() {
        StaticCache::from_members(&[1, 2, 1]);
    }

    #[test]
    fn memory_accounting() {
        let c = StaticCache::from_members(&[0, 1, 2]);
        assert_eq!(c.memory_bytes(128), 3 * 128 * 4);
    }

    #[test]
    fn build_all_shapes() {
        let b = CacheBuilder::new(0.2, 100, 2); // capacity 10
        let caches = b.build_all(&[vec![1, 2], (10..40).collect()]);
        assert_eq!(caches.len(), 2);
        assert_eq!(caches[0].len(), 2);
        assert_eq!(caches[1].len(), 10);
    }
}
