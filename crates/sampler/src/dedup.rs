//! Fast vertex deduplication for neighborhood expansion.

use spp_graph::VertexId;

/// An open-addressing hash map from global vertex ids to dense local ids,
/// specialized for the sampler's hot loop.
///
/// SALIENT's `fast_sampler` performance-engineers exactly this step: for
/// every sampled neighbor we must answer "have we seen this vertex, and if
/// so what's its local index?". A general-purpose `HashMap` pays SipHash
/// and `Option` overhead; this table uses a multiplicative hash with linear
/// probing and stores entries in flat arrays.
///
/// # Example
///
/// ```
/// use spp_sampler::VertexIndexer;
///
/// let mut idx = VertexIndexer::with_capacity(8);
/// assert_eq!(idx.insert(42), 0);
/// assert_eq!(idx.insert(7), 1);
/// assert_eq!(idx.insert(42), 0); // already present
/// assert_eq!(idx.len(), 2);
/// assert_eq!(idx.nodes(), &[42, 7]);
/// ```
#[derive(Clone, Debug)]
pub struct VertexIndexer {
    /// Probe table storing `local_id + 1` (0 = empty slot).
    slots: Vec<u32>,
    /// Dense list of inserted global vertex ids, in insertion order.
    nodes: Vec<VertexId>,
    mask: usize,
}

const EMPTY: u32 = 0;

impl VertexIndexer {
    /// Creates an indexer sized for roughly `expected` distinct vertices.
    pub fn with_capacity(expected: usize) -> Self {
        // Load factor <= 0.5.
        let cap = (expected.max(4) * 2).next_power_of_two();
        Self {
            // spp-hot: alloc(dedup table, sized once per batch from the fanout bound)
            slots: vec![EMPTY; cap],
            nodes: Vec::with_capacity(expected), // spp-hot: alloc(dense node list, sized once per batch from the fanout bound)
            mask: cap - 1,
        }
    }

    #[inline]
    fn hash(v: VertexId) -> usize {
        // Fibonacci hashing: odd multiplicative constant, high bits spread.
        (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize
    }

    /// Inserts `v` if absent; returns its dense local id either way.
    /// The table grows only to take a new vertex past
    /// [`VertexIndexer::capacity`].
    #[inline]
    pub fn insert(&mut self, v: VertexId) -> u32 {
        let mut i = Self::hash(v) & self.mask;
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                if self.nodes.len() >= self.capacity() {
                    self.grow();
                    return self.insert(v);
                }
                let local = self.nodes.len() as u32;
                self.slots[i] = local + 1;
                self.nodes.push(v); // spp-hot: alloc(appends the batch node list; capacity reserved at construction (amortized))
                return local;
            }
            if self.nodes[(s - 1) as usize] == v {
                return s - 1;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Looks up `v` without inserting.
    #[inline]
    pub fn get(&self, v: VertexId) -> Option<u32> {
        let mut i = Self::hash(v) & self.mask;
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                return None;
            }
            if self.nodes[(s - 1) as usize] == v {
                return Some(s - 1);
            }
            i = (i + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let cap = self.slots.len() * 2;
        self.mask = cap - 1;
        self.slots = vec![EMPTY; cap]; // spp-hot: alloc(hash-table doubling; amortized, rare once with_capacity guessed right)
        for (local, &v) in self.nodes.iter().enumerate() {
            let mut i = Self::hash(v) & self.mask;
            while self.slots[i] != EMPTY {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = local as u32 + 1;
        }
    }

    /// Distinct vertices the table holds before it grows (load factor
    /// ≤ 0.5): at least the `expected` it was built with.
    pub fn capacity(&self) -> usize {
        self.slots.len() / 2
    }

    /// Number of distinct vertices inserted.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no vertices have been inserted.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The dense vertex list, in insertion order (local id = position).
    pub fn nodes(&self) -> &[VertexId] {
        &self.nodes
    }

    /// Consumes the indexer and returns the dense vertex list.
    pub fn into_nodes(self) -> Vec<VertexId> {
        self.nodes
    }

    /// Clears all entries, retaining allocations.
    pub fn clear(&mut self) {
        self.slots.fill(EMPTY);
        self.nodes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut idx = VertexIndexer::with_capacity(4);
        assert_eq!(idx.insert(10), 0);
        assert_eq!(idx.insert(20), 1);
        assert_eq!(idx.insert(10), 0);
        assert_eq!(idx.get(20), Some(1));
        assert_eq!(idx.get(30), None);
    }

    #[test]
    fn grows_past_capacity() {
        let mut idx = VertexIndexer::with_capacity(2);
        for v in 0..1000u32 {
            assert_eq!(idx.insert(v * 7), v);
        }
        assert_eq!(idx.len(), 1000);
        for v in 0..1000u32 {
            assert_eq!(idx.get(v * 7), Some(v));
        }
    }

    #[test]
    fn holds_its_expected_count_without_growing() {
        // 64 is a power of two, so the table is exactly twice it: the
        // 64th vertex fills it to the load bound, and looking any vertex
        // up again must not grow it.
        let mut idx = VertexIndexer::with_capacity(64);
        let slots = idx.slots.len();
        for round in 0..2 {
            for v in 0..64u32 {
                assert_eq!(idx.insert(v * 7919), v, "round {round}");
            }
        }
        assert_eq!((idx.slots.len(), idx.capacity()), (slots, 64));
        idx.insert(1);
        assert_eq!(idx.slots.len(), 2 * slots, "the 65th vertex grows it");
    }

    #[test]
    fn insertion_order_preserved() {
        let mut idx = VertexIndexer::with_capacity(4);
        idx.insert(5);
        idx.insert(3);
        idx.insert(9);
        assert_eq!(idx.nodes(), &[5, 3, 9]);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut idx = VertexIndexer::with_capacity(4);
        idx.insert(1);
        idx.insert(2);
        idx.clear();
        assert!(idx.is_empty());
        assert_eq!(idx.get(1), None);
        assert_eq!(idx.insert(3), 0);
    }

    #[test]
    fn dense_order_is_independent_of_table_geometry() {
        // §9: local ids are assigned in insertion order, a pure function
        // of the insert sequence — never of capacity, growth schedule, or
        // probe layout. Replay the same sequence through tables of very
        // different geometry and require identical dense node lists.
        let seq: Vec<VertexId> = (0..600u32).map(|i| (i * 37) % 200).collect();
        let mut tiny = VertexIndexer::with_capacity(4); // grows many times
        let mut huge = VertexIndexer::with_capacity(4096); // never grows
        for &v in &seq {
            let a = tiny.insert(v);
            let b = huge.insert(v);
            assert_eq!(a, b, "local id of {v} diverged across geometries");
        }
        assert_eq!(tiny.nodes(), huge.nodes());
        assert_eq!(tiny.len(), 200);
    }

    #[test]
    fn colliding_keys_resolve() {
        // Keys chosen to collide in a tiny table; correctness must not
        // depend on hash spread.
        let mut idx = VertexIndexer::with_capacity(4);
        let keys = [0u32, 8, 16, 24, 32, 40];
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(idx.insert(k), i as u32);
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(idx.get(k), Some(i as u32));
        }
    }
}
