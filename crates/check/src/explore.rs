//! The exploration driver: re-runs a scenario under the controlled
//! scheduler until the decision tree is exhausted (or the schedule
//! budget runs out), collecting a [`ModuleReport`].

use crate::report::{Expect, ModuleReport, Violation, VIOLATION_CAP};
use crate::runtime::{self, Options};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex as StdMutex, MutexGuard as StdMutexGuard, OnceLock};

/// While an exploration is live, every panic is part of the protocol —
/// `ModelAbort` unwinds on pruned paths, harness assertions become
/// violations via `catch_unwind` — so the default print-to-stderr hook
/// would emit thousands of spurious backtraces. Silence it for the
/// duration; panics outside explorations keep the default behavior.
static EXPLORING: AtomicBool = AtomicBool::new(false);

fn quiet_panics_while_exploring() {
    static INSTALL: OnceLock<()> = OnceLock::new();
    INSTALL.get_or_init(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !EXPLORING.load(Ordering::SeqCst) {
                default(info);
            }
        }));
    });
}

/// One model execution's thread set. The scenario closure spawns 2–3
/// bodies, then [`Sim::run`] executes them to completion under the
/// scheduler; driver-side assertions after `run` see the final state
/// (atomic cells mirror the model's latest values).
pub struct Sim {
    bodies: Vec<Box<dyn FnOnce() + Send + 'static>>,
    ran: bool,
}

impl Sim {
    fn new() -> Self {
        Self {
            bodies: Vec::new(),
            ran: false,
        }
    }

    /// Registers a model thread body. Spawn order fixes thread ids
    /// (`t0`, `t1`, ... in traces).
    pub fn spawn(&mut self, f: impl FnOnce() + Send + 'static) {
        self.bodies.push(Box::new(f));
    }

    /// Runs all registered bodies to completion under the scheduler.
    pub fn run(&mut self) {
        if self.ran || self.bodies.is_empty() {
            return;
        }
        self.ran = true;
        let rt = runtime::global();
        rt.arm(self.bodies.len());
        let handles: Vec<_> = self
            .bodies
            .drain(..)
            .enumerate()
            .map(|(i, body)| {
                #[allow(
                    clippy::disallowed_methods,
                    reason = "model threads must be real OS threads the scheduler parks; the set is bounded by the scenario (2-3)"
                )]
                std::thread::spawn(move || {
                    runtime::set_tid(Some(i));
                    let res = std::panic::catch_unwind(AssertUnwindSafe(body));
                    let rt = runtime::global();
                    rt.thread_done(i, res);
                    // Hold the thread alive until the driver grants its
                    // exit, so TLS teardown runs in deterministic tid
                    // order.
                    rt.wait_exit(i);
                    runtime::set_tid(None);
                })
            })
            .collect();
        rt.wait_all_finished();
        for (i, h) in handles.into_iter().enumerate() {
            rt.grant_exit(i);
            let _ = h.join();
        }
    }
}

/// Serializes explorations: the scheduler is a process-wide singleton
/// (hooks are installed once), so two modules cannot explore at once.
fn explore_lock() -> StdMutexGuard<'static, ()> {
    static LOCK: OnceLock<StdMutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| StdMutex::new(())).lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Explores every bounded interleaving of `scenario`.
///
/// The scenario closure is called once per schedule; it must be
/// deterministic apart from the instrumented operations (no wall-clock
/// or accumulated-global dependence), because the DFS replays recorded
/// decision prefixes and any divergence invalidates the exploration
/// (reported as an `internal:` violation rather than silently mangling
/// results). Driver-side panics after `Sim::run` — harness assertions on
/// final state — are recorded as violations of the current schedule.
pub fn explore<F>(name: &str, expect: Expect, opts: Options, scenario: F) -> ModuleReport
where
    F: Fn(&mut Sim),
{
    let _guard = explore_lock();
    quiet_panics_while_exploring();
    EXPLORING.store(true, Ordering::SeqCst);
    let rep = explore_inner(name, expect, opts, scenario);
    EXPLORING.store(false, Ordering::SeqCst);
    rep
}

fn explore_inner<F>(name: &str, expect: Expect, opts: Options, scenario: F) -> ModuleReport
where
    F: Fn(&mut Sim),
{
    let rt = runtime::global();
    rt.begin_module(opts);
    let mut rep = ModuleReport::new(name, expect);
    loop {
        let mut sim = Sim::new();
        let driver_res = std::panic::catch_unwind(AssertUnwindSafe(|| scenario(&mut sim)));
        if !sim.ran {
            rep.violation_count += 1;
            rep.violations.push(Violation {
                message: "harness bug: scenario returned without running its Sim".to_string(),
                trace: Vec::new(),
                schedule: rt.schedule_index(),
            });
            break;
        }
        let out = rt.finish_execution();
        if out.pruned {
            rep.pruned += 1;
        } else {
            rep.schedules += 1;
        }
        rep.states += out.ops;
        rep.max_depth = rep.max_depth.max(out.depth);
        rep.violation_count += out.violation_count;
        for v in out.violations {
            if rep.violations.len() < VIOLATION_CAP {
                rep.violations.push(v);
            }
        }
        if let Err(p) = driver_res {
            // Final-state checks are only meaningful for executions that
            // ran to completion: pruned or already-aborted paths abandon
            // the model threads mid-program, so their end state is
            // legitimately partial.
            if !out.pruned && out.violation_count == 0 {
                rep.violation_count += 1;
                if rep.violations.len() < VIOLATION_CAP {
                    rep.violations.push(Violation {
                        message: format!(
                            "final-state check failed: {}",
                            runtime::payload_str(p.as_ref())
                        ),
                        trace: out.trace,
                        schedule: rt.schedule_index().saturating_sub(1),
                    });
                }
            }
        }
        // Stop at the first violation: for mutants that is the goal; for
        // clean modules the report already fails and later executions
        // could run on state corrupted by the aborted one.
        if rep.violation_count > 0 {
            break;
        }
        if !rt.advance() {
            break;
        }
        if rep.schedules + rep.pruned >= opts.max_schedules {
            rep.truncated = true;
            break;
        }
    }
    rep
}
