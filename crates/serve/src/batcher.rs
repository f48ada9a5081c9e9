//! The micro-batching scheduler.
//!
//! Admitted requests coalesce into micro-batches under a two-sided
//! policy: a batch closes the moment it reaches `max_batch_size`
//! requests, or when the *oldest* waiting request has been queued for
//! `max_delay` seconds of virtual time — whichever comes first. Both
//! triggers are pure functions of request arrival times, so batch
//! composition is bit-identical across runs and worker counts
//! (DESIGN.md §11 determinism contract).

use crate::queue::{AdmissionQueue, InferenceRequest};

/// The two-sided batching policy.
#[derive(Clone, Copy, Debug)]
pub struct BatchPolicy {
    /// Close a batch as soon as this many requests are waiting.
    pub max_batch_size: usize,
    /// Close a batch when its oldest request has waited this long
    /// (virtual seconds), even if it is not full.
    pub max_delay: f64,
}

impl BatchPolicy {
    /// Creates a policy.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch_size` is zero or `max_delay` is negative.
    pub fn new(max_batch_size: usize, max_delay: f64) -> Self {
        assert!(max_batch_size > 0, "batch size must be positive");
        assert!(max_delay >= 0.0, "max delay must be non-negative");
        Self {
            max_batch_size,
            max_delay,
        }
    }
}

/// What made a batch close.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CloseTrigger {
    /// Reached `max_batch_size`.
    Size,
    /// The oldest request hit its `max_delay` deadline.
    Deadline,
    /// End of trace: remaining requests flushed.
    Flush,
}

/// One closed micro-batch, ready for the serving pipeline.
#[derive(Clone, Debug)]
pub struct MicroBatch {
    /// Sequential batch id (0-based close order).
    pub id: u64,
    /// Virtual close time: the batch's pipeline release time.
    pub close_time: f64,
    /// The coalesced requests, in admission order.
    pub requests: Vec<InferenceRequest>,
    /// Which policy edge closed the batch.
    pub trigger: CloseTrigger,
}

impl MicroBatch {
    /// The seed vertices, in request order (duplicates preserved — two
    /// requests for one vertex produce two result rows).
    pub fn seeds(&self) -> Vec<spp_graph::VertexId> {
        self.requests.iter().map(|r| r.vertex).collect()
    }
}

/// The scheduler: drains the admission queue into [`MicroBatch`]es.
#[derive(Clone, Debug)]
pub struct MicroBatcher {
    policy: BatchPolicy,
    next_id: u64,
}

impl MicroBatcher {
    /// A batcher with the given policy.
    pub fn new(policy: BatchPolicy) -> Self {
        Self { policy, next_id: 0 }
    }

    /// The policy in effect.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// The deadline at which the current queue contents must close:
    /// oldest waiting arrival + `max_delay`. `None` when empty.
    pub fn deadline_for(&self, q: &AdmissionQueue) -> Option<f64> {
        q.oldest_arrival().map(|a| a + self.policy.max_delay)
    }

    /// Closes a batch at `now` if the queue has reached the size
    /// trigger (call after each admission).
    pub fn try_close_on_size(&mut self, q: &mut AdmissionQueue, now: f64) -> Option<MicroBatch> {
        if q.depth() >= self.policy.max_batch_size {
            Some(self.close(q, now, CloseTrigger::Size))
        } else {
            None
        }
    }

    /// Closes a batch at its deadline if `deadline_for(q) <= now`
    /// (call before processing an arrival later than the deadline).
    pub fn try_close_on_deadline(
        &mut self,
        q: &mut AdmissionQueue,
        now: f64,
    ) -> Option<MicroBatch> {
        match self.deadline_for(q) {
            Some(d) if d <= now => Some(self.close(q, d, CloseTrigger::Deadline)),
            _ => None,
        }
    }

    /// Flushes whatever is waiting (end of trace) at its deadline — the
    /// virtual timer still fires even with no further arrivals.
    pub fn flush(&mut self, q: &mut AdmissionQueue) -> Option<MicroBatch> {
        let deadline = self.deadline_for(q)?;
        Some(self.close(q, deadline, CloseTrigger::Flush))
    }

    // spp-hot(batcher.close)
    fn close(&mut self, q: &mut AdmissionQueue, at: f64, trigger: CloseTrigger) -> MicroBatch {
        let requests = q.drain(self.policy.max_batch_size);
        debug_assert!(!requests.is_empty(), "closed an empty batch");
        let id = self.next_id;
        self.next_id += 1;
        MicroBatch {
            id,
            close_time: at,
            requests,
            trigger,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, arrival: f64) -> InferenceRequest {
        InferenceRequest {
            id,
            vertex: id as u32,
            arrival,
            client: 0,
        }
    }

    fn queue() -> AdmissionQueue {
        AdmissionQueue::new(64, 1000)
    }

    #[test]
    fn closes_on_size_before_deadline() {
        let mut q = queue();
        let mut b = MicroBatcher::new(BatchPolicy::new(3, 10.0));
        for i in 0..2 {
            q.offer(req(i, i as f64 * 0.1), 0).unwrap();
            assert!(b.try_close_on_size(&mut q, i as f64 * 0.1).is_none());
        }
        q.offer(req(2, 0.2), 0).unwrap();
        let batch = b.try_close_on_size(&mut q, 0.2).unwrap();
        assert_eq!(batch.trigger, CloseTrigger::Size);
        assert_eq!(batch.close_time, 0.2);
        assert_eq!(batch.requests.len(), 3);
        assert_eq!(batch.id, 0);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn closes_on_deadline_when_underfull() {
        let mut q = queue();
        let mut b = MicroBatcher::new(BatchPolicy::new(8, 0.5));
        q.offer(req(0, 1.0), 0).unwrap();
        q.offer(req(1, 1.2), 0).unwrap();
        assert_eq!(b.deadline_for(&q), Some(1.5));
        // An arrival before the deadline does not close.
        assert!(b.try_close_on_deadline(&mut q, 1.4).is_none());
        // The next arrival is past the deadline: the timer fires first,
        // and the batch closes at the deadline, not at `now`.
        let batch = b.try_close_on_deadline(&mut q, 2.0).unwrap();
        assert_eq!(batch.trigger, CloseTrigger::Deadline);
        assert_eq!(batch.close_time, 1.5);
        assert_eq!(batch.requests.len(), 2);
    }

    #[test]
    fn flush_closes_remainder_at_deadline() {
        let mut q = queue();
        let mut b = MicroBatcher::new(BatchPolicy::new(8, 0.25));
        assert!(b.flush(&mut q).is_none());
        q.offer(req(0, 3.0), 0).unwrap();
        let batch = b.flush(&mut q).unwrap();
        assert_eq!(batch.trigger, CloseTrigger::Flush);
        assert_eq!(batch.close_time, 3.25);
        assert_eq!(batch.id, 0);
    }

    #[test]
    fn seeds_preserve_duplicates_and_order() {
        let mut q = queue();
        let mut b = MicroBatcher::new(BatchPolicy::new(3, 1.0));
        for (id, v) in [(0u64, 7u32), (1, 7), (2, 3)] {
            q.offer(
                InferenceRequest {
                    id,
                    vertex: v,
                    arrival: 0.0,
                    client: 0,
                },
                0,
            )
            .unwrap();
        }
        let batch = b.try_close_on_size(&mut q, 0.0).unwrap();
        assert_eq!(batch.seeds(), vec![7, 7, 3]);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_rejected() {
        BatchPolicy::new(0, 1.0);
    }
}
