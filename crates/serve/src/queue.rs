//! Inference requests, the bounded admission queue, and reject reasons.
//!
//! Every request entering the server passes through [`AdmissionQueue`],
//! which enforces one hard invariant: the number of *admitted but not
//! yet completed* requests — waiting in the micro-batcher plus riding in
//! batches still in flight through the pipeline — never exceeds the
//! configured capacity. Requests beyond it are rejected immediately with
//! an explicit [`RejectReason`]; nothing is silently dropped and no
//! internal buffer can grow without bound (the workspace's bounded-queue
//! invariant, applied to the serving ingress).

use spp_graph::VertexId;
use std::collections::VecDeque;

/// One per-vertex inference request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InferenceRequest {
    /// Caller-assigned request id (unique within a trace).
    pub id: u64,
    /// Target vertex, in the deployment's reordered id space.
    pub vertex: VertexId,
    /// Virtual arrival time (seconds).
    pub arrival: f64,
    /// Issuing client (loadgen stream id; 0 for open-loop traces).
    pub client: u32,
}

/// Why a request was turned away at admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// The admitted-but-unfinished backlog is at capacity: the server is
    /// not keeping up with the offered load (backpressure).
    QueueFull,
    /// The target vertex id is outside the graph.
    InvalidVertex,
}

impl RejectReason {
    /// Stable lowercase name for reports and metrics.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::InvalidVertex => "invalid_vertex",
        }
    }
}

/// A rejected request with its reason — the server's reject-with-reason
/// contract: every request not completed appears in exactly one of these.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rejection {
    /// The rejected request.
    pub request: InferenceRequest,
    /// Why it was rejected.
    pub reason: RejectReason,
    /// Virtual time of the decision (== the request's arrival).
    pub time: f64,
}

/// The bounded ingress queue.
///
/// Holds requests admitted but not yet drained into a micro-batch; the
/// capacity check additionally counts `inflight` requests (drained into
/// batches whose pipeline work has not completed), which the server
/// reports at each admission decision.
#[derive(Clone, Debug)]
pub struct AdmissionQueue {
    pending: VecDeque<InferenceRequest>,
    capacity: usize,
    num_vertices: usize,
    admitted: u64,
    rejected: u64,
}

impl AdmissionQueue {
    /// A queue bounding admitted-but-unfinished requests to `capacity`,
    /// validating vertex ids against `num_vertices`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, num_vertices: usize) -> Self {
        assert!(capacity > 0, "admission queue needs nonzero capacity");
        Self {
            pending: VecDeque::new(),
            capacity,
            num_vertices,
            admitted: 0,
            rejected: 0,
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Requests currently waiting to be batched.
    pub fn depth(&self) -> usize {
        self.pending.len()
    }

    /// Total admitted so far.
    pub fn total_admitted(&self) -> u64 {
        self.admitted
    }

    /// Total rejected so far.
    pub fn total_rejected(&self) -> u64 {
        self.rejected
    }

    /// Admission decision for `req`, given `inflight` requests already
    /// drained into in-flight batches. On success the request is queued;
    /// on failure a [`Rejection`] records the reason.
    ///
    /// # Errors
    ///
    /// [`RejectReason::InvalidVertex`] for out-of-range vertices,
    /// [`RejectReason::QueueFull`] when `depth + inflight` is at capacity.
    pub fn offer(&mut self, req: InferenceRequest, inflight: usize) -> Result<(), Box<Rejection>> {
        let reason = if (req.vertex as usize) >= self.num_vertices {
            Some(RejectReason::InvalidVertex)
        } else if self.pending.len() + inflight >= self.capacity {
            Some(RejectReason::QueueFull)
        } else {
            None
        };
        match reason {
            Some(reason) => {
                self.rejected += 1;
                Err(Box::new(Rejection {
                    request: req,
                    reason,
                    time: req.arrival,
                }))
            }
            None => {
                self.admitted += 1;
                self.pending.push_back(req);
                Ok(())
            }
        }
    }

    /// Arrival time of the oldest waiting request.
    pub fn oldest_arrival(&self) -> Option<f64> {
        self.pending.front().map(|r| r.arrival)
    }

    /// Drains up to `max` requests from the head, in admission order.
    pub fn drain(&mut self, max: usize) -> Vec<InferenceRequest> {
        let take = max.min(self.pending.len());
        self.pending.drain(..take).collect() // spp-hot: alloc(batch hand-off buffer, owned by the MicroBatch; bounded by max_batch_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, vertex: VertexId, arrival: f64) -> InferenceRequest {
        InferenceRequest {
            id,
            vertex,
            arrival,
            client: 0,
        }
    }

    #[test]
    fn admits_until_capacity_including_inflight() {
        let mut q = AdmissionQueue::new(3, 100);
        assert!(q.offer(req(0, 1, 0.0), 0).is_ok());
        assert!(q.offer(req(1, 2, 0.1), 0).is_ok());
        // depth 2 + inflight 1 == capacity -> reject.
        let r = q.offer(req(2, 3, 0.2), 1).unwrap_err();
        assert_eq!(r.reason, RejectReason::QueueFull);
        assert_eq!(r.time, 0.2);
        // Without the inflight load it fits.
        assert!(q.offer(req(3, 4, 0.3), 0).is_ok());
        assert_eq!(q.depth(), 3);
        assert_eq!(q.total_admitted(), 3);
        assert_eq!(q.total_rejected(), 1);
    }

    #[test]
    fn invalid_vertex_rejected_regardless_of_load() {
        let mut q = AdmissionQueue::new(8, 10);
        let r = q.offer(req(0, 10, 0.0), 0).unwrap_err();
        assert_eq!(r.reason, RejectReason::InvalidVertex);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn drain_preserves_admission_order() {
        let mut q = AdmissionQueue::new(8, 100);
        for i in 0..5 {
            q.offer(req(i, i as VertexId, i as f64), 0).unwrap();
        }
        assert_eq!(q.oldest_arrival(), Some(0.0));
        let batch = q.drain(3);
        assert_eq!(batch.iter().map(|r| r.id).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(q.depth(), 2);
        assert_eq!(q.oldest_arrival(), Some(3.0));
        assert_eq!(q.drain(10).len(), 2);
        assert_eq!(q.oldest_arrival(), None);
    }

    #[test]
    #[should_panic(expected = "nonzero capacity")]
    fn zero_capacity_rejected() {
        AdmissionQueue::new(0, 10);
    }

    #[test]
    fn reject_reasons_have_stable_names() {
        assert_eq!(RejectReason::QueueFull.as_str(), "queue_full");
        assert_eq!(RejectReason::InvalidVertex.as_str(), "invalid_vertex");
    }
}
