//! The controlled scheduler: a [`ModelHooks`] implementation that turns
//! every instrumented `spp-sync` operation into a cooperative yield
//! point.
//!
//! ## Protocol
//!
//! Model threads are real OS threads, but at most one runs at a time.
//! At each instrumented operation a thread *announces* the pending op
//! and parks; once every model thread is parked (or finished/waiting),
//! the parking thread runs the scheduler pick: enabled candidates are
//! filtered by the preemption bound and the sleep set, one decision is
//! consumed from the DFS stack, and the chosen thread is granted. The
//! granted thread executes its op against the model state *under the
//! scheduler lock* (atomic histories, mutex ownership, condvar queues
//! are pure state), then runs uncontrolled until its next announce.
//!
//! ## Partial-order reduction (DPOR-lite)
//!
//! Sleep sets: when the scheduler picks candidate `j` at a branch, the
//! skipped candidates `0..j` go to sleep carrying their pending op's
//! signature. A sleeping thread is not schedulable until some executed
//! op *conflicts* with its signature (same location, not both loads).
//! If every enabled thread is asleep the execution is pruned — any
//! continuation would only reorder commuting operations relative to an
//! already-explored schedule.
//!
//! ## Weak memory
//!
//! Per location the model keeps a short history of stores. A `Relaxed`
//! or `Acquire` load may observe any entry not older than the reader's
//! per-location floor (`seen`); which one is a DFS decision. `Release`
//! stores snapshot the writer's `seen` map, and an `Acquire` load that
//! observes a release store joins that snapshot — the happens-before
//! edge that makes correctly paired release/acquire code pass while
//! `Relaxed` publication is caught reading stale data. RMWs always read
//! the latest store (C++ modification-order rule), and mutex
//! release→acquire carries the same visibility join. This is a sound
//! over-approximation *detector*, not a full C++11 model: fences and
//! release sequences are not modeled (spp-sync does not expose them).

// `panic_any(ModelAbort)` is the checker's control flow for pruned
// executions — the unwind is caught at the thread boundary, classified
// by payload type, and never reaches a user. Load-bearing, not an
// error path.
#![allow(clippy::panic)]

use crate::decision::Decisions;
use crate::report::{Violation, VIOLATION_CAP};
use spp_sync::hook::{AtomicOp, MemOrd, ModelHooks};
use std::any::Any;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64 as RawAtomicU64, Ordering};
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, OnceLock};
use std::time::Duration;

/// Exploration bounds and feature switches for one module.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Maximum context switches away from a still-enabled thread per
    /// execution. 2–3 catches almost all real bugs (CHESS result) while
    /// keeping the tree small.
    pub preemption_bound: usize,
    /// Serve loads stale-but-permitted values (see module docs).
    pub weak_memory: bool,
    /// Store-history entries kept per location in weak-memory mode.
    pub max_history: usize,
    /// Execution budget per module (completed + pruned schedules).
    pub max_schedules: u64,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            preemption_bound: 2,
            weak_memory: true,
            max_history: 3,
            max_schedules: 20_000,
        }
    }
}

/// Panic payload used to unwind model threads when an execution aborts
/// (violation found, or sleep-set prune). Not a violation by itself.
pub(crate) struct ModelAbort;

thread_local! {
    static MODEL_TID: Cell<Option<usize>> = const { Cell::new(None) };
}

/// This thread's model id, if it is a registered model thread.
fn current_tid() -> Option<usize> {
    MODEL_TID.with(|c| c.get())
}

/// Registers/clears the calling thread as model thread `t`.
pub(crate) fn set_tid(t: Option<usize>) {
    MODEL_TID.with(|c| c.set(t));
}

/// One location touched by an op signature.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SigPart {
    loc: usize,
    write: bool,
}

/// Dependency footprint of an op, for conflict detection.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OpSig {
    a: SigPart,
    b: Option<SigPart>,
}

/// Two ops conflict when they touch a common location and at least one
/// writes it. Commuting (non-conflicting) ops need no reordering.
fn conflicts(x: &OpSig, y: &OpSig) -> bool {
    for px in [Some(x.a), x.b].into_iter().flatten() {
        for py in [Some(y.a), y.b].into_iter().flatten() {
            if px.loc == py.loc && (px.write || py.write) {
                return true;
            }
        }
    }
    false
}

/// An announced-but-not-yet-executed operation.
#[derive(Clone, Copy, Debug)]
enum PendingOp {
    Atomic { addr: usize, op: AtomicOp },
    Lock { loc: usize },
    Unlock { loc: usize },
    CvRelease { cv: usize, mutex: usize },
    CvReacquire { cv: usize, mutex: usize },
    CvNotify { cv: usize, all: bool },
}

fn sig_of(op: &PendingOp) -> OpSig {
    let part = |loc, write| SigPart { loc, write };
    match *op {
        PendingOp::Atomic { addr, op } => OpSig {
            a: part(addr, !op.is_load()),
            b: None,
        },
        PendingOp::Lock { loc } | PendingOp::Unlock { loc } => OpSig {
            a: part(loc, true),
            b: None,
        },
        // Releasing the mutex affects lock waiters; joining the condvar
        // affects notifiers.
        PendingOp::CvRelease { cv, mutex } => OpSig {
            a: part(mutex, true),
            b: Some(part(cv, true)),
        },
        PendingOp::CvReacquire { mutex, .. } => OpSig {
            a: part(mutex, true),
            b: None,
        },
        PendingOp::CvNotify { cv, .. } => OpSig {
            a: part(cv, true),
            b: None,
        },
    }
}

#[derive(Clone, Copy, Debug)]
enum Status {
    /// Running uncontrolled (before its first announce, or between a
    /// grant and its next announce).
    Free,
    /// Parked with an announced op, schedulable.
    Pending(PendingOp),
    /// Parked in `Condvar::wait`, not schedulable until notified. The
    /// mutex is remembered so the notify-converted reacquire respects
    /// its enabledness.
    Waiting { cv: usize, mutex: usize },
    /// Body returned (or unwound).
    Finished,
}

struct Th {
    status: Status,
    /// Per-location floor of visible store indices (weak memory).
    seen: BTreeMap<usize, u64>,
}

/// One store in a location's history.
struct HistEntry {
    val: u64,
    /// Writer's `seen` snapshot for release stores (acquire loads join
    /// it — the happens-before edge).
    vis: Option<BTreeMap<usize, u64>>,
}

struct LocState {
    /// Global index of `entries[0]`.
    base: u64,
    entries: VecDeque<HistEntry>,
    /// Stable per-execution display name (`x0`, `x1`, ...).
    alias: String,
}

impl LocState {
    fn latest(&self) -> u64 {
        self.base + self.entries.len() as u64 - 1
    }
    fn latest_val(&self) -> u64 {
        match self.entries.back() {
            Some(e) => e.val,
            #[allow(
                clippy::unreachable,
                reason = "checker-internal invariant; aborting the exploration is the correct failure mode"
            )]
            None => unreachable!("location history is never empty"),
        }
    }
}

struct MutexState {
    held: bool,
    /// Last releaser's `seen` snapshot (acquire joins it).
    vis: Option<BTreeMap<usize, u64>>,
    alias: String,
}

/// Everything about the execution in flight, under one lock.
struct ExecState {
    active: bool,
    abort: bool,
    pruned: bool,
    opts: Options,
    preemptions: usize,
    threads: Vec<Th>,
    last_ran: Option<usize>,
    grant: Option<usize>,
    /// Thread currently allowed to run its TLS destructors and exit
    /// (teardown is serialized in tid order for determinism).
    exit_grant: Option<usize>,
    locs: HashMap<usize, LocState>,
    mutexes: HashMap<usize, MutexState>,
    cv_alias: HashMap<usize, String>,
    sleep: Vec<(usize, OpSig)>,
    decisions: Decisions,
    trace: Vec<String>,
    violations: Vec<Violation>,
    violation_count: u64,
    ops: u64,
    schedule_index: u64,
}

impl ExecState {
    fn all_finished(&self) -> bool {
        self.threads
            .iter()
            .all(|t| matches!(t.status, Status::Finished))
    }
}

/// What one execution produced (drained by the explorer).
pub(crate) struct ExecOutcome {
    pub pruned: bool,
    pub ops: u64,
    pub depth: usize,
    pub trace: Vec<String>,
    pub violations: Vec<Violation>,
    pub violation_count: u64,
}

/// The global scheduler. Installed once as the process-wide
/// [`ModelHooks`] implementation.
pub(crate) struct Runtime {
    state: StdMutex<ExecState>,
    cv: StdCondvar,
}

/// The process-wide runtime, installing hooks on first use.
pub(crate) fn global() -> &'static Runtime {
    static RT: OnceLock<&'static Runtime> = OnceLock::new();
    RT.get_or_init(|| {
        let rt: &'static Runtime = Box::leak(Box::new(Runtime::new()));
        let _installed = spp_sync::hook::install(rt);
        rt
    })
}

/// Best-effort stringification of a panic payload.
pub(crate) fn payload_str(p: &(dyn Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn bump_seen(seen: &mut BTreeMap<usize, u64>, addr: usize, idx: u64) {
    let e = seen.entry(addr).or_insert(0);
    if *e < idx {
        *e = idx;
    }
}

fn join_seen(seen: &mut BTreeMap<usize, u64>, vis: &BTreeMap<usize, u64>) {
    for (&a, &i) in vis {
        bump_seen(seen, a, i);
    }
}

impl Runtime {
    fn new() -> Self {
        Self {
            state: StdMutex::new(ExecState {
                active: false,
                abort: false,
                pruned: false,
                opts: Options::default(),
                preemptions: 0,
                threads: Vec::new(),
                last_ran: None,
                grant: None,
                exit_grant: None,
                locs: HashMap::new(),
                mutexes: HashMap::new(),
                cv_alias: HashMap::new(),
                sleep: Vec::new(),
                decisions: Decisions::new(),
                trace: Vec::new(),
                violations: Vec::new(),
                violation_count: 0,
                ops: 0,
                schedule_index: 0,
            }),
            cv: StdCondvar::new(),
        }
    }

    fn st(&self) -> StdMutexGuard<'_, ExecState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    fn wait<'a>(&self, g: StdMutexGuard<'a, ExecState>) -> StdMutexGuard<'a, ExecState> {
        match self.cv.wait(g) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    // ----- module / execution lifecycle (driver thread) -----

    pub(crate) fn begin_module(&self, opts: Options) {
        let mut st = self.st();
        st.opts = opts;
        st.opts.max_history = st.opts.max_history.max(1);
        st.decisions.reset();
        st.schedule_index = 0;
        st.violations.clear();
        st.violation_count = 0;
    }

    /// Prepares a fresh execution with `n` model threads.
    pub(crate) fn arm(&self, n: usize) {
        let mut st = self.st();
        st.active = true;
        st.abort = false;
        st.pruned = false;
        st.preemptions = 0;
        st.threads = (0..n)
            .map(|_| Th {
                status: Status::Free,
                seen: BTreeMap::new(),
            })
            .collect();
        st.last_ran = None;
        st.grant = None;
        st.exit_grant = None;
        st.locs.clear();
        st.mutexes.clear();
        st.cv_alias.clear();
        st.sleep.clear();
        st.trace.clear();
        st.ops = 0;
        st.decisions.begin();
    }

    /// Marks model thread `me` finished (body returned or unwound).
    pub(crate) fn thread_done(&self, me: usize, res: Result<(), Box<dyn Any + Send>>) {
        let mut st = self.st();
        if let Err(p) = res {
            if !p.is::<ModelAbort>() {
                let msg = payload_str(p.as_ref());
                self.fail(&mut st, format!("model thread t{me} panicked: {msg}"));
            }
        }
        st.threads[me].status = Status::Finished;
        st.sleep.retain(|(t, _)| *t != me);
        self.maybe_pick(&mut st);
        self.cv.notify_all();
    }

    /// Blocks the driver until every model thread reached `Finished`.
    /// A watchdog aborts the execution (and eventually the process) if
    /// the scheduler wedges — better a loud exit than a hung CI job.
    pub(crate) fn wait_all_finished(&self) {
        let mut st = self.st();
        let mut stalls = 0u32;
        while !st.all_finished() {
            let (g, timeout) = match self.cv.wait_timeout(st, Duration::from_secs(5)) {
                Ok(x) => x,
                Err(p) => {
                    let (g, t) = p.into_inner();
                    (g, t)
                }
            };
            st = g;
            if timeout.timed_out() && !st.all_finished() {
                stalls += 1;
                if stalls == 1 {
                    self.fail(
                        &mut st,
                        "watchdog: no progress for 5s (scheduler wedged?)".to_string(),
                    );
                } else if stalls >= 6 {
                    eprintln!("spp-check: model threads failed to unwind after abort; giving up");
                    std::process::exit(3);
                }
            }
        }
    }

    /// Lets model thread `i` run its TLS destructors and exit; exits are
    /// granted in tid order and joined one at a time by the driver.
    pub(crate) fn grant_exit(&self, i: usize) {
        let mut st = self.st();
        st.exit_grant = Some(i);
        self.cv.notify_all();
    }

    /// Model thread side of the exit handshake.
    pub(crate) fn wait_exit(&self, i: usize) {
        let mut st = self.st();
        while st.exit_grant != Some(i) {
            st = self.wait(st);
        }
    }

    /// Ends the execution and drains its outcome.
    pub(crate) fn finish_execution(&self) -> ExecOutcome {
        let mut st = self.st();
        st.active = false;
        st.schedule_index += 1;
        ExecOutcome {
            pruned: st.pruned,
            ops: std::mem::take(&mut st.ops),
            depth: st.decisions.depth(),
            trace: std::mem::take(&mut st.trace),
            violations: std::mem::take(&mut st.violations),
            violation_count: std::mem::take(&mut st.violation_count),
        }
    }

    /// Current schedule ordinal (for labeling driver-side violations).
    pub(crate) fn schedule_index(&self) -> u64 {
        self.st().schedule_index
    }

    /// Advances the DFS to the next unexplored path.
    pub(crate) fn advance(&self) -> bool {
        self.st().decisions.advance()
    }

    // ----- scheduling core -----

    /// Records a violation and aborts the execution.
    fn fail(&self, st: &mut ExecState, message: String) {
        st.violation_count += 1;
        if st.violations.len() < VIOLATION_CAP {
            let v = Violation {
                message,
                trace: st.trace.clone(),
                schedule: st.schedule_index,
            };
            st.violations.push(v);
        }
        st.abort = true;
        self.cv.notify_all();
    }

    /// If every model thread is parked, chooses who runs next.
    fn maybe_pick(&self, st: &mut ExecState) {
        if !st.active || st.abort || st.grant.is_some() {
            return;
        }
        if st.threads.iter().any(|t| matches!(t.status, Status::Free)) {
            return;
        }
        let pending: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(t.status, Status::Pending(_)))
            .map(|(i, _)| i)
            .collect();
        if pending.is_empty() {
            if st.all_finished() {
                self.cv.notify_all();
            } else if st
                .threads
                .iter()
                .any(|t| matches!(t.status, Status::Waiting { .. }))
            {
                self.fail(
                    st,
                    "deadlock: every live thread waits on a condvar with no pending notifier"
                        .to_string(),
                );
            }
            return;
        }
        let enabled: Vec<usize> = pending
            .into_iter()
            .filter(|&t| match st.threads[t].status {
                Status::Pending(op) => self.op_enabled(st, &op),
                _ => false,
            })
            .collect();
        if enabled.is_empty() {
            self.fail(
                st,
                "deadlock: all pending operations are blocked on held mutexes".to_string(),
            );
            return;
        }
        // Preemption bound: once exhausted, a still-enabled previous
        // thread keeps running (no new preemption can be introduced).
        let mut cands = enabled.clone();
        if st.preemptions >= st.opts.preemption_bound {
            if let Some(prev) = st.last_ran {
                if cands.contains(&prev) {
                    cands = vec![prev];
                }
            }
        }
        let awake: Vec<usize> = cands
            .into_iter()
            .filter(|&t| !st.sleep.iter().any(|(s, _)| *s == t))
            .collect();
        if awake.is_empty() {
            // Every candidate sleeps: this continuation only reorders
            // commuting ops relative to an explored schedule. Prune.
            st.pruned = true;
            st.abort = true;
            self.cv.notify_all();
            return;
        }
        let choice = if awake.len() > 1 {
            match st.decisions.next(awake.len()) {
                Ok(c) => c,
                Err((exp, got)) => {
                    self.fail(
                        st,
                        format!(
                            "internal: nondeterministic replay (scheduling arity {exp} became {got})"
                        ),
                    );
                    return;
                }
            }
        } else {
            0
        };
        // Skipped left siblings go to sleep with their op signature.
        for &t in &awake[..choice] {
            if let Status::Pending(op) = st.threads[t].status {
                if !st.sleep.iter().any(|(s, _)| *s == t) {
                    let sig = sig_of(&op);
                    st.sleep.push((t, sig));
                }
            }
        }
        let chosen = awake[choice];
        if let Some(prev) = st.last_ran {
            if prev != chosen && enabled.contains(&prev) {
                st.preemptions += 1;
            }
        }
        st.last_ran = Some(chosen);
        st.grant = Some(chosen);
        self.cv.notify_all();
    }

    fn op_enabled(&self, st: &ExecState, op: &PendingOp) -> bool {
        match op {
            PendingOp::Lock { loc } | PendingOp::CvReacquire { mutex: loc, .. } => {
                !st.mutexes.get(loc).map(|m| m.held).unwrap_or(false)
            }
            _ => true,
        }
    }

    /// Announce `op`, park until granted, execute it. Takes the state
    /// guard from the hook entry so the announce is atomic with the
    /// entry check.
    fn park_exec(
        &self,
        mut st: StdMutexGuard<'_, ExecState>,
        me: usize,
        op: PendingOp,
        cell: Option<&RawAtomicU64>,
    ) -> u64 {
        if st.abort {
            drop(st);
            std::panic::panic_any(ModelAbort);
        }
        st.threads[me].status = Status::Pending(op);
        self.maybe_pick(&mut st);
        loop {
            if st.abort {
                drop(st);
                std::panic::panic_any(ModelAbort);
            }
            if st.grant == Some(me) {
                break;
            }
            st = self.wait(st);
        }
        st.grant = None;
        self.execute(&mut st, me, op, cell)
    }

    /// Runs `op` against the model state. Sets the thread's post-status
    /// and re-picks if the thread does not continue (condvar wait).
    fn execute(
        &self,
        st: &mut ExecState,
        me: usize,
        op: PendingOp,
        cell: Option<&RawAtomicU64>,
    ) -> u64 {
        st.ops += 1;
        let sig = sig_of(&op);
        // This op may un-commute sleeping threads' pending ops.
        st.sleep.retain(|(t, s)| *t != me && !conflicts(s, &sig));
        st.threads[me].status = Status::Free;
        let result = match op {
            PendingOp::Atomic { addr, op } => {
                let cell = match cell {
                    Some(c) => c,
                    #[allow(
                        clippy::unreachable,
                        reason = "checker-internal invariant; aborting the exploration is the correct failure mode"
                    )]
                    None => unreachable!("atomic ops always carry their cell"),
                };
                self.exec_atomic(st, me, addr, cell, op)
            }
            PendingOp::Lock { loc } => {
                self.acquire_mutex(st, me, loc);
                let name = mutex_alias(st, loc);
                self.note(st, me, format!("lock({name})"));
                0
            }
            PendingOp::Unlock { loc } => {
                self.release_mutex(st, me, loc);
                let name = mutex_alias(st, loc);
                self.note(st, me, format!("unlock({name})"));
                0
            }
            PendingOp::CvRelease { cv, mutex } => {
                self.release_mutex(st, me, mutex);
                st.threads[me].status = Status::Waiting { cv, mutex };
                let c = cv_alias(st, cv);
                let m = mutex_alias(st, mutex);
                self.note(st, me, format!("cv-wait({c}) releasing {m}"));
                0
            }
            PendingOp::CvReacquire { cv, mutex } => {
                self.acquire_mutex(st, me, mutex);
                let c = cv_alias(st, cv);
                let m = mutex_alias(st, mutex);
                self.note(st, me, format!("cv-woken({c}) reacquired {m}"));
                0
            }
            PendingOp::CvNotify { cv, all } => {
                let mut woken = 0u64;
                for t in 0..st.threads.len() {
                    if let Status::Waiting { cv: wcv, mutex } = st.threads[t].status {
                        if wcv == cv {
                            st.threads[t].status =
                                Status::Pending(PendingOp::CvReacquire { cv, mutex });
                            woken += 1;
                            if !all {
                                break;
                            }
                        }
                    }
                }
                let c = cv_alias(st, cv);
                let kind = if all { "notify_all" } else { "notify_one" };
                self.note(st, me, format!("{kind}({c}) woke {woken}"));
                woken
            }
        };
        if !matches!(st.threads[me].status, Status::Free) {
            self.maybe_pick(st);
        }
        result
    }

    fn acquire_mutex(&self, st: &mut ExecState, me: usize, loc: usize) {
        let vis = match st.mutexes.get_mut(&loc) {
            Some(m) => {
                m.held = true;
                m.vis.clone()
            }
            #[allow(
                clippy::unreachable,
                reason = "checker-internal invariant; aborting the exploration is the correct failure mode"
            )]
            None => unreachable!("mutex registered at announce"),
        };
        if let Some(vis) = vis {
            join_seen(&mut st.threads[me].seen, &vis);
        }
    }

    fn release_mutex(&self, st: &mut ExecState, me: usize, loc: usize) {
        let snapshot = st.threads[me].seen.clone();
        if let Some(m) = st.mutexes.get_mut(&loc) {
            m.held = false;
            m.vis = Some(snapshot);
        }
    }

    fn exec_atomic(
        &self,
        st: &mut ExecState,
        me: usize,
        addr: usize,
        cell: &RawAtomicU64,
        op: AtomicOp,
    ) -> u64 {
        ensure_loc(st, addr, cell);
        let max_history = st.opts.max_history;
        match op {
            AtomicOp::Load { ord } => {
                let (base, latest) = {
                    let ls = &st.locs[&addr];
                    (ls.base, ls.latest())
                };
                let floor = st.threads[me]
                    .seen
                    .get(&addr)
                    .copied()
                    .unwrap_or(0)
                    .max(base);
                let window = (latest - floor + 1) as usize;
                let idx = if st.opts.weak_memory && window > 1 {
                    match st.decisions.next(window) {
                        // Choice 0 observes the latest store, so the
                        // first-explored schedule is the "natural" one.
                        Ok(c) => latest - c as u64,
                        Err((exp, got)) => {
                            self.fail(
                                st,
                                format!(
                                    "internal: nondeterministic replay (load arity {exp} became {got})"
                                ),
                            );
                            latest
                        }
                    }
                } else {
                    latest
                };
                let (val, vis) = {
                    let ls = &st.locs[&addr];
                    let e = &ls.entries[(idx - ls.base) as usize];
                    (e.val, e.vis.clone())
                };
                bump_seen(&mut st.threads[me].seen, addr, idx);
                if ord == MemOrd::Acquire {
                    if let Some(vis) = vis {
                        join_seen(&mut st.threads[me].seen, &vis);
                    }
                }
                let name = loc_alias(st, addr);
                let stale = latest - idx;
                let suffix = if stale > 0 {
                    format!(" (stale, {stale} behind)")
                } else {
                    String::new()
                };
                self.note(
                    st,
                    me,
                    format!("load.{}({name}) -> {val}{suffix}", ord_tag(ord)),
                );
                val
            }
            AtomicOp::Store { ord, val } => {
                let idx = {
                    let ls = &st.locs[&addr];
                    ls.latest() + 1
                };
                let vis = if ord == MemOrd::Release {
                    let mut snap = st.threads[me].seen.clone();
                    bump_seen(&mut snap, addr, idx);
                    Some(snap)
                } else {
                    None
                };
                if let Some(ls) = st.locs.get_mut(&addr) {
                    ls.entries.push_back(HistEntry { val, vis });
                    while ls.entries.len() > max_history {
                        ls.entries.pop_front();
                        ls.base += 1;
                    }
                }
                bump_seen(&mut st.threads[me].seen, addr, idx);
                // Mirror the latest value into the real cell: reads by
                // non-model threads (driver assertions) see it exactly.
                cell.store(val, Ordering::Relaxed);
                let name = loc_alias(st, addr);
                self.note(st, me, format!("store.{}({name}) <- {val}", ord_tag(ord)));
                val
            }
            AtomicOp::FetchAdd { val } | AtomicOp::FetchMax { val } => {
                // RMWs read the latest store: C++ modification order.
                let old = st.locs[&addr].latest_val();
                let (newv, tag) = match op {
                    AtomicOp::FetchAdd { .. } => (old.wrapping_add(val), "fetch_add"),
                    _ => (old.max(val), "fetch_max"),
                };
                let idx = {
                    let ls = &st.locs[&addr];
                    ls.latest() + 1
                };
                if let Some(ls) = st.locs.get_mut(&addr) {
                    ls.entries.push_back(HistEntry {
                        val: newv,
                        vis: None,
                    });
                    while ls.entries.len() > max_history {
                        ls.entries.pop_front();
                        ls.base += 1;
                    }
                }
                bump_seen(&mut st.threads[me].seen, addr, idx);
                cell.store(newv, Ordering::Relaxed);
                let name = loc_alias(st, addr);
                self.note(st, me, format!("{tag}({name}, {val}) -> {old}"));
                old
            }
        }
    }

    fn note(&self, st: &mut ExecState, me: usize, desc: String) {
        st.trace.push(format!("t{me} {desc}"));
    }
}

fn ord_tag(ord: MemOrd) -> &'static str {
    match ord {
        MemOrd::Relaxed => "rlx",
        MemOrd::Acquire => "acq",
        MemOrd::Release => "rel",
    }
}

fn ensure_loc(st: &mut ExecState, addr: usize, cell: &RawAtomicU64) {
    if !st.locs.contains_key(&addr) {
        let alias = format!("x{}", st.locs.len());
        // Seed from the real cell: exactly the pre-execution value, so
        // model threads start with a single-entry history (spawn edge).
        let val = cell.load(Ordering::Relaxed);
        st.locs.insert(
            addr,
            LocState {
                base: 0,
                entries: VecDeque::from([HistEntry { val, vis: None }]),
                alias,
            },
        );
    }
}

fn ensure_mutex(st: &mut ExecState, loc: usize) {
    if !st.mutexes.contains_key(&loc) {
        let alias = format!("m{}", st.mutexes.len());
        st.mutexes.insert(
            loc,
            MutexState {
                held: false,
                vis: None,
                alias,
            },
        );
    }
}

fn loc_alias(st: &ExecState, addr: usize) -> String {
    st.locs
        .get(&addr)
        .map(|l| l.alias.clone())
        .unwrap_or_else(|| format!("{addr:#x}"))
}

fn mutex_alias(st: &ExecState, loc: usize) -> String {
    st.mutexes
        .get(&loc)
        .map(|m| m.alias.clone())
        .unwrap_or_else(|| format!("{loc:#x}"))
}

fn cv_alias(st: &mut ExecState, cv: usize) -> String {
    let n = st.cv_alias.len();
    st.cv_alias
        .entry(cv)
        .or_insert_with(|| format!("c{n}"))
        .clone()
}

impl ModelHooks for Runtime {
    fn atomic(&self, cell: &RawAtomicU64, op: AtomicOp) -> Option<u64> {
        if std::thread::panicking() {
            return None;
        }
        let me = current_tid()?;
        let st = self.st();
        if !st.active || me >= st.threads.len() {
            return None;
        }
        let addr = cell as *const RawAtomicU64 as usize;
        Some(self.park_exec(st, me, PendingOp::Atomic { addr, op }, Some(cell)))
    }

    fn mutex_lock(&self, loc: usize) -> bool {
        if std::thread::panicking() {
            return false;
        }
        let Some(me) = current_tid() else {
            return false;
        };
        let mut st = self.st();
        if !st.active || me >= st.threads.len() {
            return false;
        }
        ensure_mutex(&mut st, loc);
        self.park_exec(st, me, PendingOp::Lock { loc }, None);
        true
    }

    fn mutex_unlock(&self, loc: usize) -> bool {
        if std::thread::panicking() {
            return false;
        }
        let Some(me) = current_tid() else {
            return false;
        };
        let mut st = self.st();
        if !st.active || me >= st.threads.len() {
            return false;
        }
        ensure_mutex(&mut st, loc);
        self.park_exec(st, me, PendingOp::Unlock { loc }, None);
        true
    }

    fn condvar_wait_release(&self, cv: usize, mutex: usize) -> bool {
        if std::thread::panicking() {
            return false;
        }
        let Some(me) = current_tid() else {
            return false;
        };
        let mut st = self.st();
        if !st.active || me >= st.threads.len() {
            return false;
        }
        ensure_mutex(&mut st, mutex);
        let _ = cv_alias(&mut st, cv);
        self.park_exec(st, me, PendingOp::CvRelease { cv, mutex }, None);
        true
    }

    fn condvar_wait_reacquire(&self, cv: usize, mutex: usize) {
        if std::thread::panicking() {
            return;
        }
        let Some(me) = current_tid() else {
            return;
        };
        let mut st = self.st();
        if !st.active || me >= st.threads.len() {
            return;
        }
        // The notifier flips this thread's status to
        // Pending(CvReacquire); here we only park until granted, then
        // run the reacquire.
        loop {
            if st.abort {
                drop(st);
                std::panic::panic_any(ModelAbort);
            }
            if st.grant == Some(me) {
                break;
            }
            st = self.wait(st);
        }
        st.grant = None;
        let _ = self.execute(&mut st, me, PendingOp::CvReacquire { cv, mutex }, None);
    }

    fn condvar_notify(&self, cv: usize, all: bool) -> bool {
        if std::thread::panicking() {
            return false;
        }
        let Some(me) = current_tid() else {
            return false;
        };
        let mut st = self.st();
        if !st.active || me >= st.threads.len() {
            return false;
        }
        let _ = cv_alias(&mut st, cv);
        self.park_exec(st, me, PendingOp::CvNotify { cv, all }, None);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(loc: usize, write: bool) -> OpSig {
        OpSig {
            a: SigPart { loc, write },
            b: None,
        }
    }

    #[test]
    fn conflict_rules() {
        // Two loads of the same location commute.
        assert!(!conflicts(&sig(1, false), &sig(1, false)));
        // Load/store and store/store on one location conflict.
        assert!(conflicts(&sig(1, false), &sig(1, true)));
        assert!(conflicts(&sig(1, true), &sig(1, true)));
        // Different locations never conflict.
        assert!(!conflicts(&sig(1, true), &sig(2, true)));
        // Multi-part signatures (cv release touches mutex + condvar).
        let rel = OpSig {
            a: SigPart {
                loc: 7,
                write: true,
            },
            b: Some(SigPart {
                loc: 9,
                write: true,
            }),
        };
        assert!(conflicts(&rel, &sig(9, true)));
        assert!(conflicts(&rel, &sig(7, false)));
        assert!(!conflicts(&rel, &sig(8, true)));
    }

    #[test]
    fn seen_floors_are_monotone() {
        let mut seen = BTreeMap::new();
        bump_seen(&mut seen, 10, 3);
        bump_seen(&mut seen, 10, 1);
        assert_eq!(seen.get(&10), Some(&3));
        let mut vis = BTreeMap::new();
        vis.insert(10usize, 5u64);
        vis.insert(11usize, 2u64);
        join_seen(&mut seen, &vis);
        assert_eq!(seen.get(&10), Some(&5));
        assert_eq!(seen.get(&11), Some(&2));
    }

    #[test]
    fn passthrough_when_inactive() {
        // With no armed execution, every hook declines so wrappers fall
        // through to the real operation.
        let rt = global();
        let cell = RawAtomicU64::new(9);
        assert_eq!(
            rt.atomic(
                &cell,
                AtomicOp::Load {
                    ord: MemOrd::Relaxed
                }
            ),
            None
        );
        assert!(!rt.mutex_lock(0x1000));
        assert!(!rt.condvar_notify(0x2000, true));
    }
}
