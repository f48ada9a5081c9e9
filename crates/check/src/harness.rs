//! The model-check harnesses: small closed-world scenarios over the
//! workspace's `spp-sync`-instrumented concurrency kernels.
//!
//! Clean modules encode production invariants that must hold on *every*
//! bounded interleaving (including weak-memory stale reads):
//!
//! - `telemetry-shards` — the real [`spp_telemetry::metrics::Counter`]
//!   hot path: per-thread shard increments merge to an exact total, and
//!   a concurrent merge never observes a torn partial increment.
//! - `overlay-probe` — the real
//!   [`spp_serve::overlay::DynamicOverlay::probe`]: every probe bumps
//!   exactly one of hits/misses exactly once.
//! - `span-ring` — the span event-ring kernel (bounded buffer under a
//!   mutex + relaxed sequence counter, as in `telemetry::span::push`):
//!   entries never tear, drops are accounted, per-thread order holds.
//! - `pool-queue` — the worker-pool merge queue (mutex-guarded part
//!   list + condvar completion handshake, as in `WorkerPool::run_jobs`):
//!   all jobs arrive exactly once and sort into index order.
//! - `publish-release` — release/acquire message passing: the control
//!   showing the weak-memory model *admits* correctly ordered code.
//!
//! Mutant modules carry a seeded bug and are expected to be **caught**
//! within the schedule bound — they prove the checker can actually see
//! the failure modes the raw-atomics ban (clippy.toml) and lint L8 exist
//! to prevent:
//!
//! - `mutant-weak-order` — the publish pattern with the release/acquire
//!   pair weakened to relaxed: the reader observes the flag but stale
//!   data.
//! - `mutant-double-count` — a load+store "increment": two threads race
//!   and an update is lost.
//!
//! Scenario closures re-run once per schedule and must be deterministic
//! apart from instrumented operations: no wall-clock reads, and no
//! control flow on values that accumulate across schedules (asserting
//! on *deltas* of cumulative metrics is fine — the decision arity does
//! not depend on the values).

use crate::explore::explore;
use crate::report::{Expect, ModuleReport};
use crate::runtime::Options;
use spp_sync::{AtomicU64, Condvar, Mutex};
use std::sync::Arc;

/// One runnable model-check module.
pub struct Module {
    /// CLI-addressable name.
    pub name: &'static str,
    /// Clean invariant harness or seeded-bug mutant.
    pub expect: Expect,
    runner: fn(Options) -> ModuleReport,
}

impl Module {
    /// Explores this module under `opts`.
    pub fn run(&self, opts: Options) -> ModuleReport {
        (self.runner)(opts)
    }
}

/// Every module, clean harnesses first.
pub const MODULES: &[Module] = &[
    Module {
        name: "telemetry-shards",
        expect: Expect::Clean,
        runner: telemetry_shards,
    },
    Module {
        name: "overlay-probe",
        expect: Expect::Clean,
        runner: overlay_probe,
    },
    Module {
        name: "span-ring",
        expect: Expect::Clean,
        runner: span_ring,
    },
    Module {
        name: "pool-queue",
        expect: Expect::Clean,
        runner: pool_queue,
    },
    Module {
        name: "publish-release",
        expect: Expect::Clean,
        runner: publish_release,
    },
    Module {
        name: "mutant-weak-order",
        expect: Expect::Caught,
        runner: mutant_weak_order,
    },
    Module {
        name: "mutant-double-count",
        expect: Expect::Caught,
        runner: mutant_double_count,
    },
];

/// The real telemetry counter hot path: two writer threads hit their
/// thread-local shards, a reader merges all shards mid-flight (three
/// times).
/// Each merged delta must always be a plausible pair of per-shard prefix
/// sums — `{1, 2}` from t0 (in order) plus `{4, 8}` from t1 — and the
/// final total exact.
fn telemetry_shards(opts: Options) -> ModuleReport {
    explore("telemetry-shards", Expect::Clean, opts, |sim| {
        spp_telemetry::metrics::set_enabled(true);
        let c = spp_telemetry::metrics::counter("check.model.shard_sum");
        let base = c.value();
        sim.spawn(move || {
            c.add(1);
            c.add(2);
        });
        sim.spawn(move || {
            c.add(4);
            c.add(8);
        });
        sim.spawn(move || {
            for _ in 0..3 {
                let v = c.value();
                assert!(v >= base, "merged total went backwards: {v} < {base}");
                let delta = v - base;
                // t0 contributes 0, 1 or 3 (adds are ordered on its
                // shard); t1 contributes 0, 4 or 12. Any other delta is a
                // torn read or a lost/duplicated increment.
                assert!(
                    matches!(delta, 0 | 1 | 3 | 4 | 5 | 7 | 12 | 13 | 15),
                    "impossible mid-merge delta {delta}"
                );
            }
        });
        sim.run();
        let total = c.value() - base;
        assert_eq!(total, 15, "shard merge lost or duplicated increments");
    })
}

/// The real overlay probe path: concurrent read-only probes; every probe
/// bumps exactly one tally exactly once.
fn overlay_probe(opts: Options) -> ModuleReport {
    explore("overlay-probe", Expect::Clean, opts, |sim| {
        let mut o = spp_serve::overlay::DynamicOverlay::new(2, 1);
        o.insert(1, &[1.0]);
        let o = Arc::new(o);
        let a = Arc::clone(&o);
        let b = Arc::clone(&o);
        let c = Arc::clone(&o);
        sim.spawn(move || {
            a.probe(1);
            a.probe(7);
            a.probe(1);
        });
        sim.spawn(move || {
            b.probe(1);
            b.probe(99);
            b.probe(42);
        });
        sim.spawn(move || {
            c.probe(1);
            c.probe(8);
            c.probe(1);
        });
        sim.run();
        let counters = o.counters();
        assert_eq!(
            (counters.hits, counters.misses),
            (5, 4),
            "probe tallies must be exact"
        );
    })
}

/// Bounded event ring under a mutex plus a relaxed sequence counter —
/// the `telemetry::span` push kernel with capacity 2.
struct Ring {
    inner: Mutex<RingBuf>,
    seq: AtomicU64,
}

#[derive(Default)]
struct RingBuf {
    events: Vec<u64>,
    dropped: u64,
}

impl Ring {
    fn push(&self, v: u64) {
        let mut g = self.inner.lock();
        if g.events.len() >= 2 {
            g.events.remove(0);
            g.dropped += 1;
        }
        g.events.push(v);
        drop(g);
        self.seq.fetch_add_relaxed(1); // spp-sync: relaxed(diagnostic tally; ring state is mutex-ordered)
    }
}

fn check_ring(events: &[u64], dropped: u64) {
    for &e in events {
        assert!((1..=4).contains(&e), "torn ring entry {e}");
    }
    let mut uniq = events.to_vec();
    uniq.sort_unstable();
    uniq.dedup();
    assert_eq!(uniq.len(), events.len(), "duplicated ring entry");
    // Per-thread push order must survive eviction: t0 pushes 1 before 2,
    // t1 pushes 3 before 4.
    for pair in [(1, 2), (3, 4)] {
        if let (Some(i1), Some(i2)) = (
            events.iter().position(|&e| e == pair.0),
            events.iter().position(|&e| e == pair.1),
        ) {
            assert!(i1 < i2, "per-thread push order violated");
        }
    }
    assert!(events.len() as u64 + dropped <= 4, "ring over-counted");
}

fn span_ring(opts: Options) -> ModuleReport {
    explore("span-ring", Expect::Clean, opts, |sim| {
        let r = Arc::new(Ring {
            inner: Mutex::new(RingBuf::default()),
            seq: AtomicU64::new(0),
        });
        let a = Arc::clone(&r);
        let b = Arc::clone(&r);
        sim.spawn(move || {
            a.push(1);
            a.push(2);
        });
        sim.spawn(move || {
            b.push(3);
            b.push(4);
            let g = b.inner.lock();
            // seq lags the ring (incremented after unlock) and a stale
            // read only lowers it further; it can never lead.
            let seen = b.seq.load_relaxed(); // spp-sync: relaxed(bound check tolerates lag; mutex orders the ring itself)
            assert!(
                seen <= g.events.len() as u64 + g.dropped,
                "seq ran ahead of the ring"
            );
            check_ring(&g.events, g.dropped);
        });
        sim.run();
        let g = r.inner.lock();
        assert_eq!(g.events.len() as u64 + g.dropped, 4, "push lost");
        check_ring(&g.events, g.dropped);
        drop(g);
        assert_eq!(r.seq.load_relaxed(), 4); // spp-sync: relaxed(post-join read; model threads already exited)
    })
}

/// The worker-pool merge queue: workers push `(job_index, result)` parts
/// under a mutex and signal completion on a condvar; the consumer waits
/// for both workers, then the merged set must sort into exact index
/// order — `WorkerPool::run_jobs`' determinism contract.
struct Queue {
    state: Mutex<QState>,
    cv: Condvar,
}

#[derive(Default)]
struct QState {
    parts: Vec<(usize, u64)>,
    done_workers: usize,
}

impl Queue {
    fn finish(&self, parts: &[(usize, u64)]) {
        let mut g = self.state.lock();
        g.parts.extend_from_slice(parts);
        g.done_workers += 1;
        drop(g);
        self.cv.notify_all();
    }
}

fn pool_queue(opts: Options) -> ModuleReport {
    explore("pool-queue", Expect::Clean, opts, |sim| {
        let q = Arc::new(Queue {
            state: Mutex::new(QState::default()),
            cv: Condvar::new(),
        });
        let w0 = Arc::clone(&q);
        let w1 = Arc::clone(&q);
        let consumer = Arc::clone(&q);
        // Round-robin deal of 4 jobs across 2 workers, each delivering
        // its parts in two batches, as run_jobs does per job.
        sim.spawn(move || {
            w0.finish(&[(0, 0)]);
            w0.finish(&[(2, 20)]);
        });
        sim.spawn(move || {
            w1.finish(&[(1, 10)]);
            w1.finish(&[(3, 30)]);
        });
        sim.spawn(move || {
            let mut g = consumer.state.lock();
            while g.done_workers < 4 {
                g = consumer.cv.wait(g);
            }
            let mut merged = g.parts.clone();
            merged.sort_unstable_by_key(|&(i, _)| i);
            assert_eq!(
                merged,
                vec![(0, 0), (1, 10), (2, 20), (3, 30)],
                "merge queue lost, duplicated, or reordered a job"
            );
        });
        sim.run();
        let g = q.state.lock();
        assert_eq!(g.done_workers, 4);
        assert_eq!(g.parts.len(), 4);
    })
}

/// Release/acquire message passing — the control proving the weak-memory
/// model admits correctly ordered code: an acquire load that observes
/// the release store also observes everything published before it.
fn publish_release(opts: Options) -> ModuleReport {
    explore("publish-release", Expect::Clean, opts, |sim| {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicU64::new(0));
        let (dw, fw) = (Arc::clone(&data), Arc::clone(&flag));
        let (dr, fr) = (Arc::clone(&data), Arc::clone(&flag));
        sim.spawn(move || {
            // Two publish rounds: the flag is the round number.
            for round in 1..=2u64 {
                dw.store_relaxed(42 * round); // spp-sync: relaxed(ordered by the subsequent release store on flag)
                fw.store_release(round);
            }
        });
        sim.spawn(move || {
            for _ in 0..2 {
                let round = fr.load_acquire();
                if round > 0 {
                    let v = dr.load_relaxed(); // spp-sync: relaxed(happens-before established by the acquire on flag)
                    assert!(
                        v >= 42 * round,
                        "acquire saw round {round} but stale data {v}"
                    );
                }
            }
        });
        sim.run();
        assert_eq!(data.load_relaxed(), 84); // spp-sync: relaxed(post-join read; model threads already exited)
        assert_eq!(flag.load_relaxed(), 2); // spp-sync: relaxed(post-join read; model threads already exited)
    })
}

/// Seeded bug: the publish pattern with the release/acquire pair
/// weakened to relaxed. The weak-memory mode must produce the execution
/// where the reader sees the flag but stale data.
fn mutant_weak_order(opts: Options) -> ModuleReport {
    explore("mutant-weak-order", Expect::Caught, opts, |sim| {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicU64::new(0));
        let (dw, fw) = (Arc::clone(&data), Arc::clone(&flag));
        let (dr, fr) = (Arc::clone(&data), Arc::clone(&flag));
        sim.spawn(move || {
            dw.store_relaxed(42); // spp-sync: relaxed(seeded bug: publication requires release)
            fw.store_relaxed(1); // spp-sync: relaxed(seeded bug: publication requires release)
        });
        sim.spawn(move || {
            let seen = fr.load_relaxed(); // spp-sync: relaxed(seeded bug: pairing needs acquire)
            if seen == 1 {
                let v = dr.load_relaxed(); // spp-sync: relaxed(seeded bug: expected stale catch)
                assert_eq!(v, 42, "reader saw the flag but stale data");
            }
        });
        sim.run();
    })
}

/// Seeded bug: a load+store "increment" — two racing threads lose an
/// update on some interleaving; a plain preemption (no weak memory
/// needed) must catch it.
fn mutant_double_count(opts: Options) -> ModuleReport {
    explore("mutant-double-count", Expect::Caught, opts, |sim| {
        let c = Arc::new(AtomicU64::new(0));
        for _ in 0..2 {
            let c = Arc::clone(&c);
            sim.spawn(move || {
                let v = c.load_relaxed(); // spp-sync: relaxed(seeded bug: read-modify-write split into load+store)
                c.store_relaxed(v + 1); // spp-sync: relaxed(seeded bug: read-modify-write split into load+store)
            });
        }
        sim.run();
        let total = c.load_relaxed(); // spp-sync: relaxed(post-join read; model threads already exited)
        assert_eq!(total, 2, "increment lost");
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Without `--cfg spp_model_check` the wrappers are passthroughs and
    /// each module degenerates to a single real execution — the clean
    /// invariants must still hold there (tier-1 smoke of the harness
    /// plumbing; the actual exploration is exercised by
    /// `cargo xtask check-interleavings`).
    #[test]
    fn clean_harnesses_hold_uninstrumented() {
        if cfg!(spp_model_check) {
            return;
        }
        for m in MODULES.iter().filter(|m| m.expect == Expect::Clean) {
            let rep = m.run(Options::default());
            assert!(rep.pass(), "{}: {:#?}", m.name, rep.violations);
            assert_eq!(rep.schedules, 1, "{}", m.name);
            assert_eq!(rep.states, 0, "{}: no instrumented ops expected", m.name);
        }
    }

    #[test]
    fn module_names_are_unique() {
        let mut names: Vec<_> = MODULES.iter().map(|m| m.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
