//! The bounded, deterministic worker pool (`spp_runtime::pool`).
//!
//! Every data-parallel hot path in the workspace — the VIP sweeps, dense
//! matrix kernels, minibatch preparation, per-machine measurement streams
//! — schedules onto a [`WorkerPool`] instead of spawning its own threads.
//! The pool gives three guarantees:
//!
//! 1. **Bounded concurrency.** A parallel region runs on at most
//!    [`WorkerPool::workers`] OS threads, forked and joined inside the
//!    call (structured fork-join — threads cannot leak; clippy.toml bans
//!    `std::thread::spawn`). Nested regions share the budget via
//!    [`WorkerPool::split`].
//! 2. **Deterministic decomposition.** Chunk boundaries are a pure
//!    function of input sizes and weights ([`even_ranges`] /
//!    [`balanced_ranges`]) — never of timing — and results merge in index
//!    order, so any computation whose per-item result is a function of
//!    the item alone is *bit-identical* across worker counts, serial
//!    execution included.
//! 3. **One sizing policy.** [`WorkerPool::jobs_for_cost`] decides how
//!    many jobs a region is worth, replacing per-call-site thread caps
//!    and FLOP thresholds.
//!
//! The global pool is sized from `std::thread::available_parallelism`,
//! overridable with the `SPP_POOL_WORKERS` environment variable (read
//! once, at first use).
//!
//! Regions are instrumented with `spp-telemetry`: counters
//! `pool.regions` / `pool.jobs` / `pool.threads_forked` / `pool.merges`,
//! gauge `pool.queue_depth`, and histograms `pool.job_ns` /
//! `pool.region_ns`. Recording is a no-op (one relaxed flag load) while
//! telemetry is disabled, and metrics never feed back into scheduling,
//! so determinism guarantee 2 holds with tracing on or off.
//!
//! This crate sits below `spp-core`/`spp-tensor` in the dependency graph
//! so their kernels can use it; `spp-runtime` re-exports it as
//! `spp_runtime::pool`, which is the sanctioned entry point for
//! runtime-level code.
//!
//! # Example
//!
//! ```
//! use spp_pool::WorkerPool;
//!
//! let pool = WorkerPool::new(4);
//! let squares = pool.run_jobs(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! // Same values on any worker count — merges are index-ordered.
//! assert_eq!(squares, WorkerPool::serial().run_jobs(8, |i| i * i));
//! ```

// Test modules assert by panicking; the workspace panic-family denies
// (see [workspace.lints] in Cargo.toml) apply to library code only.
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::float_cmp
    )
)]

use spp_sync::Mutex;
use spp_telemetry::metrics::{self, Counter, Gauge, Histogram};

/// The telemetry crate the pool's regions record into, re-exported so a
/// kernel crate that schedules on the pool (`spp-tensor`) can open spans
/// around its regions through the dependency it already has.
pub use spp_telemetry as telemetry;
use std::ops::Range;
use std::sync::OnceLock;

/// Cached telemetry handles for the pool hot paths. Registered on first
/// use; every recording call is a no-op while telemetry is disabled
/// (`spp_telemetry::enabled()` gates the whole block, so the disabled
/// cost is one relaxed load per region).
struct PoolMetrics {
    /// Parallel regions entered (`run_jobs` / `par_chunks`).
    regions: Counter,
    /// Jobs dealt across all regions.
    jobs: Counter,
    /// Scoped threads forked (regions that stayed serial fork none).
    threads_forked: Counter,
    /// Index-ordered result merges (the tag+sort path of `run_jobs`).
    merges: Counter,
    /// Jobs queued in the most recent region (max = widest region).
    queue_depth: Gauge,
    /// Per-job latency, nanoseconds.
    job_ns: Histogram,
    /// Whole-region latency (fork + work + merge), nanoseconds.
    region_ns: Histogram,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PoolMetrics {
        regions: metrics::counter("pool.regions"),
        jobs: metrics::counter("pool.jobs"),
        threads_forked: metrics::counter("pool.threads_forked"),
        merges: metrics::counter("pool.merges"),
        queue_depth: metrics::gauge("pool.queue_depth"),
        job_ns: metrics::histogram("pool.job_ns"),
        region_ns: metrics::histogram("pool.region_ns"),
    })
}

/// Minimum per-job work (in abstract cost units — FLOPs, edges, bytes)
/// below which forking another worker costs more than it saves. One
/// constant for the whole workspace: ~1M scalar ops amortizes a scoped
/// thread spawn by two to three orders of magnitude.
pub const MIN_COST_PER_JOB: u64 = 1 << 20;

/// A bounded, deterministic fork-join worker pool.
///
/// The pool is a lightweight descriptor (`Copy`): it fixes the worker
/// budget and the decomposition policy. Execution uses scoped threads
/// forked per parallel region and joined before the region returns, so a
/// `WorkerPool` can never leak threads or queues.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerPool {
    workers: usize,
}

/// Cached global worker count (env override or hardware parallelism).
static GLOBAL_WORKERS: OnceLock<usize> = OnceLock::new();

impl WorkerPool {
    /// A pool with exactly `workers` workers (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// The single-worker pool: every region runs inline on the caller.
    pub fn serial() -> Self {
        Self { workers: 1 }
    }

    /// The process-global pool: `SPP_POOL_WORKERS` if set to a positive
    /// integer, else `std::thread::available_parallelism`. Read once and
    /// cached for the life of the process.
    pub fn global() -> Self {
        let workers = *GLOBAL_WORKERS.get_or_init(|| {
            // spp-det: allow(d3-ambient-read): worker-count knob; picks wave shapes only, §9 results are pool-size invariant
            std::env::var("SPP_POOL_WORKERS")
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|&w| w > 0)
                // spp-det: allow(d4-worker-leak): core count sizes the pool, never flows into merged values (index-ordered reduction)
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
        });
        Self { workers }
    }

    /// The worker budget.
    #[inline]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// An inner pool for nested regions: when this pool schedules
    /// `outer_jobs` concurrent jobs, each job may itself parallelize on
    /// the returned pool without exceeding the combined budget
    /// (`outer × inner ≤ workers`, up to rounding to ≥ 1).
    pub fn split(&self, outer_jobs: usize) -> WorkerPool {
        WorkerPool::new(self.workers / outer_jobs.max(1))
    }

    /// How many jobs a region of `total_cost` abstract work units is
    /// worth: `total_cost / MIN_COST_PER_JOB`, clamped to `[1, workers]`.
    /// This is the one sizing policy for the workspace — call sites do
    /// not carry their own thread caps or thresholds.
    pub fn jobs_for_cost(&self, total_cost: u64) -> usize {
        let by_cost = (total_cost / MIN_COST_PER_JOB).min(self.workers as u64);
        (by_cost as usize).max(1)
    }

    /// Like [`WorkerPool::jobs_for_cost`] for item counts with an
    /// explicit minimum number of items per job.
    pub fn jobs_for_items(&self, items: usize, min_per_job: usize) -> usize {
        let by_items = (items / min_per_job.max(1)).min(self.workers);
        by_items.max(1)
    }

    /// Runs `num_jobs` independent jobs, `f(i)` for `i in 0..num_jobs`,
    /// on at most `workers` scoped threads (jobs are dealt round-robin
    /// when they outnumber workers). Returns results in job-index order.
    ///
    /// Determinism: which worker runs a job is timing-independent (the
    /// deal is fixed), and the output order is the job order, so the
    /// result is identical to the serial loop for any worker count.
    // spp-hot(pool.run_jobs)
    pub fn run_jobs<R, F>(&self, num_jobs: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if num_jobs == 0 {
            return Vec::new(); // spp-hot: alloc(empty-region result; Vec::new of len 0 never touches the heap)
        }
        let tm = metrics::enabled().then(pool_metrics);
        if let Some(m) = tm {
            m.regions.inc();
            m.jobs.add(num_jobs as u64);
            m.queue_depth.set(num_jobs as u64);
        }
        let _region = tm.map(|m| m.region_ns.time());
        let run = |i: usize| {
            let _t = tm.map(|m| m.job_ns.time());
            f(i)
        };
        let threads = self.workers.min(num_jobs);
        if threads <= 1 {
            return (0..num_jobs).map(run).collect(); // spp-hot: alloc(region result buffer, one slot per job — the region's output)
        }
        if let Some(m) = tm {
            m.threads_forked.add(threads as u64);
        }
        // Workers publish tagged parts into a shared merge queue; the
        // queue is mutex-ordered (spp-sync instrumented — the pool-queue
        // model-check harness explores this handoff) and the final sort
        // restores job-index order regardless of completion order.
        let merged: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(num_jobs)); // spp-hot: alloc(merge queue, one slot per job; lives for the region)
        let run = &run;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let merged = &merged;
                    s.spawn(move || {
                        let mut part = Vec::with_capacity(num_jobs.div_ceil(threads)); // spp-hot: alloc(per-worker staging, sized once to its round-robin share)
                        let mut i = w;
                        while i < num_jobs {
                            part.push((i, run(i))); // spp-hot: alloc(per-worker result slot; capacity reserved above)
                            i += threads;
                        }
                        merged.lock().extend(part); // spp-hot: allow(h1-alloc, h3-lock): one publish per worker at region end — the merge IS the batch boundary
                    })
                })
                .collect(); // spp-hot: alloc(scoped-thread handles, one per worker)
            for h in handles {
                h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)); // spp-hot: allow(h3-lock): region barrier — scoped join is the batch boundary
            }
        });
        if let Some(m) = tm {
            m.merges.inc();
        }
        let mut tagged = merged.into_inner();
        tagged.sort_by_key(|&(i, _)| i);
        tagged.into_iter().map(|(_, r)| r).collect() // spp-hot: alloc(index-ordered region result, one slot per job)
    }

    /// Maps `f(index, item)` over `items`, chunked into
    /// `jobs_for_items(items.len(), min_per_job)` even ranges, merged in
    /// index order.
    // spp-hot(pool.par_map)
    pub fn par_map<T, R, F>(&self, items: &[T], min_per_job: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let jobs = self.jobs_for_items(items.len(), min_per_job);
        let ranges = even_ranges(items.len(), jobs);
        let parts = self.run_jobs(ranges.len(), |j| {
            let r = ranges[j].clone(); // spp-hot: alloc(Range<usize> clone is a stack copy; lexical token match only)
            let mut out = Vec::with_capacity(r.len()); // spp-hot: alloc(chunk output buffer, sized once per job)
            for i in r {
                out.push(f(i, &items[i])); // spp-hot: alloc(chunk output slot; capacity reserved above)
            }
            out
        });
        let mut merged = Vec::with_capacity(items.len()); // spp-hot: alloc(final merged output, one slot per item — the map's result)
        for p in parts {
            merged.extend(p); // spp-hot: alloc(index-ordered splice of chunk outputs; capacity reserved above)
        }
        merged
    }

    /// Splits `data` at the element offsets `cuts` (strictly ascending,
    /// last cut = `data.len()`) and runs `f(chunk_index, start_offset,
    /// chunk)` for every piece, at most `workers` at a time. The split is
    /// caller-chosen (see [`even_ranges`] / [`balanced_ranges`]), so the
    /// decomposition is a pure function of the input.
    ///
    /// # Panics
    ///
    /// Panics if `cuts` is not ascending or does not end at `data.len()`.
    pub fn par_chunks<T, F>(&self, data: &mut [T], cuts: &[usize], f: F)
    where
        T: Send,
        F: Fn(usize, usize, &mut [T]) + Sync,
    {
        assert_eq!(
            cuts.last().copied().unwrap_or(0),
            data.len(),
            "last cut must equal data.len()"
        );
        // Carve the slice into disjoint mutable chunks.
        let mut pieces: Vec<(usize, usize, &mut [T])> = Vec::with_capacity(cuts.len()); // spp-hot: alloc(chunk table, one entry per cut)
        let mut rest = data;
        let mut start = 0usize;
        for (ci, &cut) in cuts.iter().enumerate() {
            assert!(cut >= start, "cuts must be ascending");
            let (head, tail) = rest.split_at_mut(cut - start);
            pieces.push((ci, start, head)); // spp-hot: alloc(chunk table entry; capacity reserved above)
            rest = tail;
            start = cut;
        }
        let tm = metrics::enabled().then(pool_metrics);
        if let Some(m) = tm {
            m.regions.inc();
            m.jobs.add(pieces.len() as u64);
            m.queue_depth.set(pieces.len() as u64);
        }
        let _region = tm.map(|m| m.region_ns.time());
        let run = |ci: usize, off: usize, chunk: &mut [T]| {
            let _t = tm.map(|m| m.job_ns.time());
            f(ci, off, chunk);
        };
        let threads = self.workers.min(pieces.len().max(1));
        if threads <= 1 {
            for (ci, off, chunk) in pieces {
                run(ci, off, chunk);
            }
            return;
        }
        if let Some(m) = tm {
            m.threads_forked.add(threads as u64);
        }
        // Deal chunks round-robin (timing-independent assignment).
        let mut per_worker: Vec<Vec<(usize, usize, &mut [T])>> =
            (0..threads).map(|_| Vec::new()).collect(); // spp-hot: alloc(round-robin deal lists, one per worker)
        for (i, piece) in pieces.into_iter().enumerate() {
            per_worker[i % threads].push(piece); // spp-hot: alloc(deal-list entry, bounded by the chunk count)
        }
        let run = &run;
        std::thread::scope(|s| {
            let handles: Vec<_> = per_worker
                .into_iter()
                .map(|chunks| {
                    s.spawn(move || {
                        for (ci, off, chunk) in chunks {
                            run(ci, off, chunk);
                        }
                    })
                })
                .collect(); // spp-hot: alloc(scoped-thread handles, one per worker)
            for h in handles {
                h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)); // spp-hot: allow(h3-lock): region barrier — scoped join is the batch boundary
            }
        });
    }
}

/// `parts` contiguous ranges covering `0..n`, sizes differing by at most
/// one (`n mod parts` leading ranges get the extra item). Pure function
/// of `(n, parts)`.
pub fn even_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts); // spp-hot: alloc(range table, one entry per job)
    let mut start = 0usize;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push(start..start + len); // spp-hot: alloc(range-table entry; capacity reserved above)
        start += len;
    }
    out
}

/// `parts` contiguous ranges covering `0..n`, balanced by a cumulative
/// weight function: `cum(i)` is the total weight of items `0..i`
/// (`cum(0) = 0`, non-decreasing). Boundary `k` is the smallest `i` with
/// `cum(i) ≥ total · k / parts` (binary search), so the split depends
/// only on the weights — never on timing. Ranges may be empty when
/// single items dominate the weight.
pub fn balanced_ranges(n: usize, parts: usize, cum: impl Fn(usize) -> u64) -> Vec<Range<usize>> {
    let parts = parts.max(1);
    let total = cum(n);
    if parts == 1 || total == 0 {
        let mut out = Vec::with_capacity(parts);
        out.push(0..n);
        out.extend((1..parts).map(|_| n..n));
        return out;
    }
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    for k in 1..=parts {
        let target =
            total / parts as u64 * k as u64 + total % parts as u64 * k as u64 / parts as u64;
        let end = if k == parts {
            n
        } else {
            // Smallest i in [start, n] with cum(i) >= target.
            let (mut lo, mut hi) = (start, n);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if cum(mid) >= target {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            lo
        };
        out.push(start..end);
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_ranges_cover_exactly() {
        for n in [0usize, 1, 7, 64, 65] {
            for parts in [1usize, 2, 3, 8] {
                let rs = even_ranges(n, parts);
                assert_eq!(rs.len(), parts);
                assert_eq!(rs[0].start, 0);
                assert_eq!(rs.last().unwrap().end, n);
                for w in rs.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                let sizes: Vec<usize> = rs.iter().map(|r| r.len()).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "{sizes:?}");
            }
        }
    }

    #[test]
    fn balanced_ranges_split_by_weight() {
        // Items 0..10 with weight 2^i concentrated at the tail: the heavy
        // suffix gets its own narrow ranges.
        let w: Vec<u64> = (0..10u32).map(|i| 1u64 << i).collect();
        let cum = |i: usize| w[..i].iter().sum::<u64>();
        let rs = balanced_ranges(10, 4, cum);
        assert_eq!(rs.len(), 4);
        assert_eq!(rs[0].start, 0);
        assert_eq!(rs.last().unwrap().end, 10);
        for win in rs.windows(2) {
            assert_eq!(win[0].end, win[1].start);
        }
        // The last range must be short (heaviest items).
        assert!(rs.last().unwrap().len() <= 2, "{rs:?}");
        // Deterministic: same input, same split.
        assert_eq!(rs, balanced_ranges(10, 4, cum));
    }

    #[test]
    fn balanced_ranges_zero_weight_degenerates_to_one_range() {
        let rs = balanced_ranges(5, 3, |_| 0);
        assert_eq!(rs[0], 0..5);
        assert!(rs[1..].iter().all(|r| r.is_empty()));
    }

    #[test]
    fn run_jobs_results_in_index_order() {
        for workers in [1usize, 2, 3, 8] {
            let pool = WorkerPool::new(workers);
            let out = pool.run_jobs(13, |i| i * 3);
            assert_eq!(out, (0..13).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_matches_serial_map() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [1usize, 2, 8] {
            let got = WorkerPool::new(workers).par_map(&items, 1, |_, &x| x * x);
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn par_chunks_writes_every_chunk_once() {
        let mut data = vec![0u32; 20];
        let cuts = vec![5usize, 5, 12, 20]; // includes an empty chunk
        WorkerPool::new(3).par_chunks(&mut data, &cuts, |ci, off, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (ci * 100 + off + j) as u32;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            let ci = match i {
                0..=4 => 0,
                5..=11 => 2,
                _ => 3,
            };
            assert_eq!(v, (ci * 100 + i) as u32, "index {i}");
        }
    }

    #[test]
    #[should_panic(expected = "last cut must equal data.len()")]
    fn par_chunks_rejects_short_cuts() {
        let mut data = vec![0u8; 4];
        WorkerPool::serial().par_chunks(&mut data, &[2], |_, _, _| {});
    }

    #[test]
    fn sizing_policy_clamps_to_budget() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.jobs_for_cost(0), 1);
        assert_eq!(pool.jobs_for_cost(MIN_COST_PER_JOB - 1), 1);
        assert_eq!(pool.jobs_for_cost(2 * MIN_COST_PER_JOB), 2);
        assert_eq!(pool.jobs_for_cost(100 * MIN_COST_PER_JOB), 4);
        assert_eq!(pool.jobs_for_items(100, 10), 4);
        assert_eq!(pool.jobs_for_items(15, 10), 1);
    }

    #[test]
    fn split_keeps_combined_budget() {
        let pool = WorkerPool::new(8);
        assert_eq!(pool.split(2).workers(), 4);
        assert_eq!(pool.split(3).workers(), 2);
        assert_eq!(pool.split(100).workers(), 1);
        assert_eq!(pool.split(0).workers(), 8);
    }

    #[test]
    fn zero_jobs_is_empty() {
        assert!(WorkerPool::new(4).run_jobs(0, |i| i).is_empty());
    }

    #[test]
    fn global_pool_has_at_least_one_worker() {
        assert!(WorkerPool::global().workers() >= 1);
    }
}
