//! Epoch-wise minibatch iteration with deterministic shuffling.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spp_graph::VertexId;

/// Iterates over minibatches of a (training) vertex set for one epoch.
///
/// The vertex order is reshuffled deterministically from
/// `(seed, epoch)`, so distributed machines can generate disjoint local
/// minibatch streams that are nevertheless reproducible.
///
/// # Example
///
/// ```
/// use spp_sampler::MinibatchIter;
///
/// let ids = vec![0, 1, 2, 3, 4];
/// let batches: Vec<_> = MinibatchIter::new(&ids, 2, 42, 0).collect();
/// assert_eq!(batches.len(), 3); // 2 + 2 + 1
/// let total: usize = batches.iter().map(|b| b.len()).sum();
/// assert_eq!(total, 5);
/// ```
#[derive(Clone, Debug)]
pub struct MinibatchIter {
    order: Vec<VertexId>,
    batch_size: usize,
    pos: usize,
}

/// Derives the RNG stream seed for one minibatch from
/// `(seed, epoch, batch)` with a SplitMix64-style finalizer.
///
/// Giving every batch its own `StdRng` stream (instead of threading one
/// RNG through the epoch) is what makes minibatch preparation
/// order-free: batches can be sampled concurrently on any number of
/// workers, and the sampled MFGs are identical to a serial run. Distinct
/// purposes (sampling vs. dropout) should salt `seed` before calling.
pub fn batch_stream_seed(seed: u64, epoch: u64, batch: u64) -> u64 {
    let mut z = seed
        .wrapping_add(epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(batch.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl MinibatchIter {
    /// Creates an iterator over `ids`, shuffled by `(seed, epoch)`,
    /// yielding batches of up to `batch_size` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn new(ids: &[VertexId], batch_size: usize, seed: u64, epoch: u64) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        let mut order = ids.to_vec();
        let mut rng = StdRng::seed_from_u64(seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        Self {
            order,
            batch_size,
            pos: 0,
        }
    }
}

impl Iterator for MinibatchIter {
    type Item = Vec<VertexId>;

    fn next(&mut self) -> Option<Vec<VertexId>> {
        if self.pos >= self.order.len() {
            return None;
        }
        let end = (self.pos + self.batch_size).min(self.order.len());
        let batch = self.order[self.pos..end].to_vec();
        self.pos = end;
        Some(batch)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.order.len() - self.pos).div_ceil(self.batch_size);
        (left, Some(left))
    }
}

impl ExactSizeIterator for MinibatchIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_ids_exactly_once() {
        let ids: Vec<VertexId> = (0..103).collect();
        let mut seen: Vec<VertexId> = MinibatchIter::new(&ids, 10, 1, 0).flatten().collect();
        seen.sort_unstable();
        assert_eq!(seen, ids);
    }

    #[test]
    fn epochs_shuffle_differently() {
        let ids: Vec<VertexId> = (0..50).collect();
        let e0: Vec<_> = MinibatchIter::new(&ids, 50, 1, 0).flatten().collect();
        let e1: Vec<_> = MinibatchIter::new(&ids, 50, 1, 1).flatten().collect();
        assert_ne!(e0, e1);
    }

    #[test]
    fn same_epoch_is_deterministic() {
        let ids: Vec<VertexId> = (0..50).collect();
        let a: Vec<_> = MinibatchIter::new(&ids, 7, 3, 5).collect();
        let b: Vec<_> = MinibatchIter::new(&ids, 7, 3, 5).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn num_batches_matches_iteration() {
        let ids: Vec<VertexId> = (0..25).collect();
        let it = MinibatchIter::new(&ids, 10, 0, 0);
        assert_eq!(it.len(), 3);
        assert_eq!(it.count(), 3);
    }

    #[test]
    fn empty_ids_yield_nothing() {
        let it = MinibatchIter::new(&[], 4, 0, 0);
        assert_eq!(it.len(), 0);
        assert_eq!(it.count(), 0);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_rejected() {
        MinibatchIter::new(&[1], 0, 0, 0);
    }

    #[test]
    fn batch_stream_seeds_are_deterministic_and_distinct() {
        assert_eq!(batch_stream_seed(1, 2, 3), batch_stream_seed(1, 2, 3));
        let mut seen: Vec<u64> = Vec::new();
        for seed in 0..4u64 {
            for epoch in 0..4u64 {
                for batch in 0..4u64 {
                    seen.push(batch_stream_seed(seed, epoch, batch));
                }
            }
        }
        let n = seen.len();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), n, "colliding batch stream seeds");
    }
}
