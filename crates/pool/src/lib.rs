//! The bounded, deterministic worker pool (`spp_runtime::pool`).
//!
//! Every data-parallel hot path in the workspace — the VIP sweeps, dense
//! matrix kernels, minibatch preparation, per-machine measurement streams
//! — schedules onto a [`WorkerPool`] instead of spawning its own threads.
//! The pool gives three guarantees:
//!
//! 1. **Bounded concurrency.** A parallel region runs on at most
//!    [`WorkerPool::workers`] OS threads: its caller plus persistent
//!    helper threads. Helpers are spawned lazily, up to the widest region
//!    the process ever asks for, and park on a condvar between regions.
//!    The caller opens a region by publishing it under a new generation
//!    of the process-wide [`Gate`], runs its own share, and returns only
//!    after every helper in the region has finished its share — the
//!    generation join is the region barrier, so jobs may borrow the
//!    caller's stack (the soundness argument is at the one `unsafe`
//!    block, in [`Gate::dispatch`]). One region holds the helpers at a
//!    time: a region opened while they are busy — nested inside a job, or
//!    from another thread — runs inline on its caller. Nested regions
//!    share the budget via [`WorkerPool::split`].
//! 2. **Deterministic decomposition.** Chunk boundaries are a pure
//!    function of input sizes and weights ([`even_ranges`] /
//!    [`balanced_ranges`]) — never of timing — jobs are dealt to
//!    participants by index, and results land in index-addressed slots,
//!    so any computation whose per-item result is a function of the item
//!    alone is *bit-identical* across worker counts, serial execution
//!    included.
//! 3. **One sizing policy.** [`WorkerPool::jobs_for_cost`] decides how
//!    many jobs a region is worth, replacing per-call-site thread caps
//!    and FLOP thresholds.
//!
//! Two batch loops run on the same regions: [`WorkerPool::prepare_ahead`]
//! prepares waves of items on the pool and steps them in order on the
//! caller, and [`WorkerPool::lane`] runs a serial producer on the caller
//! that hands each item to one helper through a one-deep [`Lane`].
//!
//! The global pool is sized from `std::thread::available_parallelism`,
//! overridable with the `SPP_POOL_WORKERS` environment variable (read
//! once, at first use).
//!
//! Regions are instrumented with `spp-telemetry`: counters
//! `pool.regions` / `pool.jobs` / `pool.inline_regions`, gauge
//! `pool.queue_depth`, and histograms `pool.job_ns` / `pool.region_ns`.
//! Recording is a no-op (one relaxed flag load) while telemetry is
//! disabled, and metrics never feed back into scheduling, so determinism
//! guarantee 2 holds with tracing on or off.
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
//! // Same values on any worker count — results are index-addressed.
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

use spp_sync::{Condvar, Mutex};
use spp_telemetry::metrics::{self, Counter, Gauge, Histogram};

/// The telemetry crate the pool's regions record into, re-exported so a
/// kernel crate that schedules on the pool (`spp-tensor`) can open spans
/// around its regions through the dependency it already has.
pub use spp_telemetry as telemetry;
use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::OnceLock;

/// Cached telemetry handles for the pool hot paths. Registered on first
/// use; every recording call is a no-op while telemetry is disabled
/// (`spp_telemetry::enabled()` gates the whole block, so the disabled
/// cost is one relaxed load per region).
struct PoolMetrics {
    /// Parallel regions entered (`run_jobs` / `par_chunks` / `lane`).
    regions: Counter,
    /// Jobs dealt across all regions.
    jobs: Counter,
    /// Regions run inline on their caller because the helpers were busy:
    /// nested inside a job, or opened while another thread's region ran.
    inline_regions: Counter,
    /// Jobs queued in the most recent region (max = widest region).
    queue_depth: Gauge,
    /// Per-job latency, nanoseconds.
    job_ns: Histogram,
    /// Whole-region latency (dispatch + work + join), nanoseconds.
    region_ns: Histogram,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PoolMetrics {
        regions: metrics::counter("pool.regions"),
        jobs: metrics::counter("pool.jobs"),
        inline_regions: metrics::counter("pool.inline_regions"),
        queue_depth: metrics::gauge("pool.queue_depth"),
        job_ns: metrics::histogram("pool.job_ns"),
        region_ns: metrics::histogram("pool.region_ns"),
    })
}

/// Minimum per-job work (in abstract cost units — FLOPs, edges, bytes)
/// below which dealing another job costs more than it saves. One
/// constant for the whole workspace: ~1M scalar ops amortizes a region
/// dispatch by two to three orders of magnitude.
pub const MIN_COST_PER_JOB: u64 = 1 << 20;

/// A region's body with its lifetime erased: `job(i)` runs job `i`.
type ErasedJob = &'static (dyn Fn(usize) + Sync);

/// The handoff between a parallel region's caller and parked helper
/// threads.
///
/// The caller *dispatches*: it publishes the region's job under a new
/// generation, runs participant 0's share itself, and waits until every
/// helper in the region has run its share. A helper loops on
/// [`Gate::help`], parked until a generation is published. Participant
/// `w` of a `threads`-wide region runs the jobs `i ≡ w (mod threads)` —
/// a fixed function of the job index, never of timing.
///
/// The global pool owns one gate whose helpers it spawns on demand. A
/// standalone gate (the model checker's) is driven by helper threads its
/// owner runs.
pub struct Gate {
    state: Mutex<GateState>,
    /// Helpers park here until a new generation is published.
    start: Condvar,
    /// The dispatcher parks here until `remaining` reaches 0.
    done: Condvar,
    /// Starts helper `w`; see [`Gate::new`].
    spawn: fn(usize) -> bool,
}

struct GateState {
    /// Bumped once per published region.
    generation: u64,
    /// The published region's body; `None` between regions.
    job: Option<ErasedJob>,
    /// Participants of the published region, the dispatcher included.
    threads: usize,
    /// Jobs of the published region.
    num_jobs: usize,
    /// Helpers of the published region that have not finished its share.
    remaining: usize,
    /// The first panic a helper's share raised in the published region.
    panic: Option<Box<dyn Any + Send>>,
    /// A region holds the helpers: set at publication, cleared after its
    /// join.
    busy: bool,
    /// Helpers started so far: participants `1..=helpers` exist.
    helpers: usize,
}

impl Gate {
    /// A gate with no helpers yet. The first region that needs
    /// participant `w` calls `spawn(w)`, which must start a thread looping
    /// `gate.help(w, &mut seen)` from `seen = 0` and return `true`, or
    /// return `false` if no thread could be started (the region then runs
    /// on fewer participants).
    pub const fn new(spawn: fn(usize) -> bool) -> Self {
        Self {
            state: Mutex::new(GateState {
                generation: 0,
                job: None,
                threads: 0,
                num_jobs: 0,
                remaining: 0,
                panic: None,
                busy: false,
                helpers: 0,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
            spawn,
        }
    }

    /// Runs `job(i)` for every `i in 0..num_jobs` on up to `threads`
    /// participants — this thread is participant 0 — and returns once all
    /// of them have finished, re-raising the first panic any share hit.
    ///
    /// If another region holds the helpers (this call is nested inside a
    /// job, or another thread's region is running), every job runs inline
    /// on this thread instead, in index order, and the call returns
    /// `true`.
    pub fn dispatch(&self, threads: usize, num_jobs: usize, job: &(dyn Fn(usize) + Sync)) -> bool {
        let mut st = self.state.lock(); // spp-hot: allow(h3-lock): region boundary — publishes the region to the parked helpers
        if st.busy {
            drop(st);
            run_share(job, 0, 1, num_jobs);
            return true;
        }
        while st.helpers + 1 < threads && (self.spawn)(st.helpers + 1) {
            st.helpers += 1;
        }
        let threads = threads.clamp(1, st.helpers + 1);
        // SAFETY: only the lifetime changes; the reference is the same fat
        // pointer. The erased copy lives in `st.job`, where a helper reads
        // it, and in the helpers running this generation's shares. Each of
        // them stops using it before it decrements `remaining` (a share
        // runs under `catch_unwind`, so a panicking job still decrements),
        // and this function does not return — normally or by unwinding —
        // before `remaining` is 0: our own share runs under
        // `catch_unwind`, and `Mutex::lock` / `Condvar::wait` swallow
        // poisoning rather than unwind. `st.job` is cleared before `busy`
        // is released, so no later helper can read the stale reference.
        // (Only the model checker's abort unwinds a lock, taking every
        // model thread down with it; its harness keeps the job alive
        // until all of them have exited.)
        #[allow(
            unsafe_code,
            reason = "the one lifetime erasure that lets a persistent thread run a borrowed region body, as the standard library's scoped threads do internally"
        )]
        let erased = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), ErasedJob>(job) };
        st.generation = st.generation.wrapping_add(1);
        st.job = Some(erased);
        st.threads = threads;
        st.num_jobs = num_jobs;
        st.remaining = threads - 1;
        st.busy = true;
        drop(st);
        self.start.notify_all();
        let ours = panic::catch_unwind(AssertUnwindSafe(|| run_share(job, 0, threads, num_jobs)));
        let mut st = self.state.lock(); // spp-hot: allow(h3-lock): region barrier — the generation join
        while st.remaining > 0 {
            st = self.done.wait(st); // spp-hot: allow(h3-lock): region barrier — the generation join
        }
        st.job = None;
        st.busy = false;
        let theirs = st.panic.take();
        drop(st);
        if let Some(payload) = ours.err().or(theirs) {
            panic::resume_unwind(payload);
        }
        false
    }

    /// One turn of helper `w`'s loop: parks until a generation newer than
    /// `*seen` is published, records it in `*seen`, and runs `w`'s share
    /// of the region if the region includes `w`.
    pub fn help(&self, w: usize, seen: &mut u64) {
        let mut st = self.state.lock();
        while st.generation == *seen {
            st = self.start.wait(st);
        }
        *seen = st.generation;
        let (threads, num_jobs) = (st.threads, st.num_jobs);
        let job = match st.job {
            Some(job) if w < threads => job,
            _ => return,
        };
        drop(st);
        let result = panic::catch_unwind(AssertUnwindSafe(|| run_share(job, w, threads, num_jobs)));
        let mut st = self.state.lock();
        if let Err(payload) = result {
            st.panic.get_or_insert(payload);
        }
        st.remaining -= 1;
        let last = st.remaining == 0;
        drop(st);
        if last {
            self.done.notify_one();
        }
    }
}

/// Participant `w`'s share of a `threads`-wide region: jobs `w`,
/// `w + threads`, … below `num_jobs`.
fn run_share(job: &(dyn Fn(usize) + Sync), w: usize, threads: usize, num_jobs: usize) {
    for i in (w..num_jobs).step_by(threads) {
        job(i);
    }
}

/// The global pool's gate; its helpers are spawned on demand.
static GATE: Gate = Gate::new(spawn_helper);

/// Starts helper `w` of [`GATE`]. It parks between regions and lives for
/// the rest of the process.
fn spawn_helper(w: usize) -> bool {
    #[allow(
        clippy::disallowed_methods,
        reason = "the pool's helpers are the workspace's sanctioned persistent threads: at most one per worker of the widest region, parked between regions"
    )]
    let spawned = std::thread::Builder::new()
        .name(format!("spp-pool-{w}"))
        .spawn(move || {
            let mut seen = 0;
            loop {
                GATE.help(w, &mut seen);
            }
        });
    spawned.is_ok()
}

/// A bounded, deterministic worker pool.
///
/// The pool is a lightweight descriptor (`Copy`): it fixes the worker
/// budget and the decomposition policy. Execution runs on the caller and
/// the process-wide persistent helpers, joined before each region
/// returns.
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

    /// Runs `num_jobs` independent jobs, `f(i)` for `i in 0..num_jobs`,
    /// on at most `workers` threads (jobs are dealt round-robin when they
    /// outnumber workers). Returns results in job-index order.
    ///
    /// Determinism: which participant runs a job is timing-independent
    /// (the deal is fixed), and each result lands in its job's slot, so
    /// the result is identical to the serial loop for any worker count.
    // spp-hot(pool.run_jobs)
    pub fn run_jobs<R, F>(&self, num_jobs: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let mut slots: Vec<Option<R>> = (0..num_jobs).map(|_| None).collect(); // spp-hot: alloc(region result, one slot per job)
        let pieces = slots
            .chunks_mut(1)
            .enumerate()
            .map(|(i, slot)| (i, i, slot));
        self.run_chunks(pieces, |i, _, slot| slot[0] = Some(f(i)));
        // Every slot is filled; the collect reuses the slot buffer.
        slots.into_iter().map_while(|r| r).collect() // spp-hot: alloc(in place over the slot buffer)
    }

    /// Splits `data` at the element offsets `cuts` (ascending, last cut =
    /// `data.len()`) and runs `f(chunk_index, start_offset, chunk)` for
    /// every piece, at most `workers` at a time. The split is
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
        assert!(
            cuts.windows(2).all(|w| w[0] <= w[1]),
            "cuts must be ascending"
        );
        // Carve the slice into disjoint mutable chunks, in cut order.
        let mut rest = data;
        let mut start = 0usize;
        let pieces = cuts.iter().enumerate().map(move |(ci, &cut)| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(cut - start);
            rest = tail;
            (ci, std::mem::replace(&mut start, cut), head)
        });
        self.run_chunks(pieces, f);
    }

    /// Drives `n` items through a parallel `prepare` and a sequential
    /// `step`: waves of up to `workers` items are prepared on the pool,
    /// item `i` in lane `i mod workers`, which hands `prepare` the value
    /// it held from the wave before (`None` in the first wave) so buffers
    /// are recycled; then `step(i, &mut value)` runs on the caller, in
    /// index order. At most `min(workers, n)` values are live at once.
    pub fn prepare_ahead<B, P, S>(&self, n: usize, prepare: P, mut step: S)
    where
        B: Send,
        P: Fn(usize, Option<B>) -> B + Sync,
        S: FnMut(usize, &mut B),
    {
        let width = self.workers.min(n).max(1);
        let mut lanes: Vec<Option<B>> = (0..width).map(|_| None).collect();
        for base in (0..n).step_by(width) {
            let lanes = &mut lanes[..width.min(n - base)];
            let pieces = lanes.chunks_mut(1).enumerate();
            self.run_chunks(pieces.map(|(j, lane)| (j, base + j, lane)), |_, i, lane| {
                lane[0] = Some(prepare(i, lane[0].take()));
            });
            for (j, value) in lanes.iter_mut().enumerate() {
                if let Some(value) = value {
                    step(base + j, value);
                }
            }
        }
    }

    /// Runs `produce` on the caller as the producer of a [`Lane`] whose
    /// consumer, one helper, runs `consume` on each item `produce`
    /// submits — one two-piece region for the whole stream. Returns the
    /// results `produce` did not take.
    ///
    /// The lane is one deep and [`Lane::submit`] never blocks, so when the
    /// region gets no helper — a one-worker pool, or a region nested in
    /// another — the pieces run inline, producer first, and each submit
    /// consumes the item before it: prepare, then forward, on one thread,
    /// through the same code. The lane is closed when `produce` returns or
    /// unwinds, so a panicking producer re-raises on the caller instead of
    /// leaving the helper parked.
    pub fn lane<T, R, C, P>(&self, consume: C, produce: P) -> Vec<R>
    where
        T: Send,
        R: Send,
        C: Fn(T) -> R + Send + Sync,
        P: FnOnce(&Lane<'_, T, R>) + Send,
    {
        let lane = Lane::new(consume);
        let produce = Mutex::new(Some(produce));
        let tm = region_metrics(2);
        let _region = tm.map(|m| m.region_ns.time());
        let piece = |i: usize| {
            let _t = tm.map(|m| m.job_ns.time());
            if i == 1 {
                lane.consume_until_closed();
                return;
            }
            let _close = CloseOnDrop(&lane);
            let produce = produce.lock().take();
            if let Some(produce) = produce {
                produce(&lane);
            }
        };
        if self.workers < 2 {
            piece(0);
            piece(1);
        } else {
            dispatch(tm, 2, 2, &piece);
        }
        lane.state.into_inner().done.into()
    }

    /// The one parallel body behind [`WorkerPool::par_chunks`] (and so
    /// `run_jobs`, over one slot per job, and `prepare_ahead`, over one
    /// lane per item): runs
    /// `f(chunk_index, start_offset, chunk)` for every piece, piece `i` on
    /// participant `i mod threads` of a `min(workers, pieces)`-wide region.
    fn run_chunks<'a, T, F>(
        &self,
        pieces: impl ExactSizeIterator<Item = (usize, usize, &'a mut [T])>,
        f: F,
    ) where
        T: Send + 'a,
        F: Fn(usize, usize, &mut [T]) + Sync,
    {
        let num_jobs = pieces.len();
        let tm = region_metrics(num_jobs);
        let _region = tm.map(|m| m.region_ns.time());
        let run = |(ci, off, chunk): (usize, usize, &mut [T])| {
            let _t = tm.map(|m| m.job_ns.time());
            f(ci, off, chunk);
        };
        let threads = self.workers.min(num_jobs);
        if threads <= 1 {
            pieces.for_each(run);
            return;
        }
        // The deal table: piece `i` is taken exactly once, by the one
        // participant it is dealt to, so its lock is never contended.
        let deal: Vec<_> = pieces.map(|p| Mutex::new(Some(p))).collect(); // spp-hot: alloc(deal table, one slot per piece)
        let job = |i: usize| {
            let piece = deal[i].lock().take(); // spp-hot: allow(h3-lock): uncontended — only the participant dealt piece i takes it
            if let Some(piece) = piece {
                run(piece);
            }
        };
        dispatch(tm, threads, num_jobs, &job);
    }
}

/// Records a region of `num_jobs` jobs; the handles while telemetry is
/// on.
fn region_metrics(num_jobs: usize) -> Option<&'static PoolMetrics> {
    let tm = metrics::enabled().then(pool_metrics);
    if let Some(m) = tm {
        m.regions.inc();
        m.jobs.add(num_jobs as u64);
        m.queue_depth.set(num_jobs as u64);
    }
    tm
}

/// Runs a region on [`GATE`], counting it as inline if another region
/// held the helpers.
fn dispatch(
    tm: Option<&'static PoolMetrics>,
    threads: usize,
    num_jobs: usize,
    job: &(dyn Fn(usize) + Sync),
) {
    if GATE.dispatch(threads, num_jobs, job) {
        if let Some(m) = tm {
            m.inline_regions.inc();
        }
    }
}

/// The one-deep handoff of a [`WorkerPool::lane`] region between its
/// producer, the caller, and its consumer, one helper.
///
/// The producer [`submit`](Lane::submit)s items and the consumer
/// ([`Lane::consume_until_closed`]) runs `consume` on each one it finds
/// queued. At most one item waits: a submit that finds one there takes
/// it back and consumes it on the producer's thread, so every item is
/// consumed exactly once, by whichever side took it out of the queue.
/// Results of both sides come back oldest completion first through
/// [`Lane::take_done`]. The model checker's `pool-lane` module drives a
/// standalone lane with its own model threads.
pub struct Lane<'c, T, R> {
    consume: Box<dyn Fn(T) -> R + Send + Sync + 'c>,
    state: Mutex<LaneState<T, R>>,
    /// The consumer parks here until an item is queued or the lane
    /// closes.
    ready: Condvar,
}

struct LaneState<T, R> {
    /// The submitted item no side has taken yet.
    queued: Option<T>,
    /// Results neither taken nor returned, in completion order.
    done: VecDeque<R>,
    /// No item will be submitted again.
    closed: bool,
}

impl<'c, T, R> Lane<'c, T, R> {
    /// An open lane that consumes items with `consume`.
    pub fn new(consume: impl Fn(T) -> R + Send + Sync + 'c) -> Self {
        Self {
            consume: Box::new(consume),
            state: Mutex::new(LaneState {
                queued: None,
                done: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Queues `item` for the consumer. If the item submitted before it is
    /// still queued, runs `consume` on that one here and returns `true`:
    /// a submit never waits for the consumer.
    pub fn submit(&self, item: T) -> bool {
        let oldest = self.state.lock().queued.replace(item);
        self.ready.notify_one();
        let Some(oldest) = oldest else {
            return false;
        };
        let result = (self.consume)(oldest);
        self.state.lock().done.push_back(result);
        true
    }

    /// The oldest result not yet taken, if any item has been consumed.
    pub fn take_done(&self) -> Option<R> {
        self.state.lock().done.pop_front()
    }

    /// Marks the end of the stream: the consumer finishes the queued item,
    /// if any, and returns.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.ready.notify_one();
    }

    /// The consumer's loop: runs `consume` on each queued item until the
    /// lane is closed and empty.
    pub fn consume_until_closed(&self) {
        let mut st = self.state.lock();
        loop {
            if let Some(item) = st.queued.take() {
                drop(st);
                let result = (self.consume)(item);
                st = self.state.lock();
                st.done.push_back(result);
            } else if st.closed {
                return;
            } else {
                st = self.ready.wait(st);
            }
        }
    }
}

/// Closes its lane when dropped — when the producer returns or unwinds.
struct CloseOnDrop<'l, 'c, T, R>(&'l Lane<'c, T, R>);

impl<T, R> Drop for CloseOnDrop<'_, '_, T, R> {
    fn drop(&mut self) {
        self.0.close();
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
