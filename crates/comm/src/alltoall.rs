//! Barriered all-to-all exchange over real threads (correctness mode).
//!
//! SALIENT++'s pipeline stages 2/4/9 are NCCL all-to-alls; here machines
//! are threads and the exchange is a mailbox matrix with two barriers
//! (deposit, then collect). Used to move real feature tensors and verify
//! distributed gathers bit-for-bit against single-machine execution.

use parking_lot::Mutex;
use std::sync::Barrier;

/// An all-to-all exchange channel among `k` participants.
///
/// Every round, each participant calls [`AllToAll::exchange`] with one
/// item per peer (including itself) and receives the items addressed to
/// it, indexed by sender.
///
/// # Example
///
/// ```
/// use spp_comm::{run_machines, AllToAll};
///
/// let a2a = AllToAll::new(2);
/// let results = run_machines(2, |rank| {
///     // Each machine sends "from <rank> to <peer>".
///     let out: Vec<String> = (0..2).map(|p| format!("{rank}->{p}")).collect();
///     a2a.exchange(rank, out)
/// });
/// assert_eq!(results[0], vec!["0->0".to_string(), "1->0".to_string()]);
/// assert_eq!(results[1], vec!["0->1".to_string(), "1->1".to_string()]);
/// ```
pub struct AllToAll<T> {
    k: usize,
    /// `slots[sender][receiver]`.
    slots: Mutex<Vec<Vec<Option<T>>>>,
    deposit: Barrier,
    collect: Barrier,
}

impl<T> AllToAll<T> {
    /// Creates an exchange for `k` participants.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "need at least one participant");
        Self {
            k,
            slots: Mutex::new((0..k).map(|_| (0..k).map(|_| None).collect()).collect()),
            deposit: Barrier::new(k),
            collect: Barrier::new(k),
        }
    }

    /// Number of participants.
    pub fn num_participants(&self) -> usize {
        self.k
    }

    /// Performs one all-to-all round. `outgoing[p]` is sent to peer `p`;
    /// the return value's entry `p` is what peer `p` sent to this rank.
    /// All `k` participants must call this once per round.
    ///
    /// # Panics
    ///
    /// Panics if `outgoing.len() != k` or `rank >= k`.
    pub fn exchange(&self, rank: usize, outgoing: Vec<T>) -> Vec<T> {
        assert!(rank < self.k, "rank out of range");
        assert_eq!(outgoing.len(), self.k, "need one item per peer");
        {
            let mut slots = self.slots.lock();
            for (receiver, item) in outgoing.into_iter().enumerate() {
                debug_assert!(slots[rank][receiver].is_none(), "slot already full");
                slots[rank][receiver] = Some(item);
            }
        }
        self.deposit.wait();
        #[allow(
            clippy::expect_used,
            reason = "the barrier above guarantees every peer deposited; an empty slot is unreachable protocol state"
        )]
        let incoming: Vec<T> = {
            let mut slots = self.slots.lock();
            (0..self.k)
                .map(|sender| slots[sender][rank].take().expect("peer did not deposit"))
                .collect()
        };
        self.collect.wait();
        incoming
    }
}

/// Runs `k` machine closures on scoped threads and collects their results
/// in rank order. Panics in any machine propagate.
pub fn run_machines<T, F>(k: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<Option<T>> = (0..k).map(|_| None).collect();
    #[allow(
        clippy::disallowed_methods,
        reason = "ranks synchronize through barriers every exchange, so they must all run concurrently: one scoped thread per rank, where a pooled schedule would deadlock"
    )]
    crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (0..k)
            .map(|rank| {
                let f = &f;
                s.spawn(move |_| f(rank))
            })
            .collect();
        for (rank, h) in handles.into_iter().enumerate() {
            out[rank] = Some(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
    })
    .unwrap_or_else(|e| std::panic::resume_unwind(e));
    out.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchange_routes_correctly() {
        let k = 4;
        let a2a = AllToAll::new(k);
        let results = run_machines(k, |rank| {
            let out: Vec<(usize, usize)> = (0..k).map(|p| (rank, p)).collect();
            a2a.exchange(rank, out)
        });
        for (receiver, incoming) in results.iter().enumerate() {
            for (sender, &(s, r)) in incoming.iter().enumerate() {
                assert_eq!((s, r), (sender, receiver));
            }
        }
    }

    #[test]
    fn repeated_rounds_are_isolated() {
        let k = 3;
        let a2a = AllToAll::new(k);
        let results = run_machines(k, |rank| {
            let mut sums = Vec::new();
            for round in 0..5u64 {
                let out: Vec<u64> = (0..k)
                    .map(|p| round * 100 + (rank * k + p) as u64)
                    .collect();
                let incoming = a2a.exchange(rank, out);
                // All incoming items must be from this round.
                assert!(incoming.iter().all(|&x| x / 100 == round));
                sums.push(incoming.iter().sum::<u64>());
            }
            sums
        });
        assert_eq!(results.len(), k);
    }

    #[test]
    fn single_participant_loopback() {
        let a2a = AllToAll::new(1);
        let got = a2a.exchange(0, vec![42]);
        assert_eq!(got, vec![42]);
    }

    #[test]
    fn run_machines_collects_in_rank_order() {
        let out = run_machines(5, |rank| rank * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
    }
}
