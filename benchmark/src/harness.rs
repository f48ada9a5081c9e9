//! Run shape shared by the workloads: repeated set-up, warm-up, timed
//! passes with the noise sentinel in front of each, and the traced run's
//! baseline passes.

use crate::calib::{Calibrator, GATHER_MIB};
use crate::metrics::Outcome;
use crate::stats::{cpu_seconds, median, peak_rss_mib, quantile, ratio};
use crate::trace::{Tracer, PASS};
use salientpp::telemetry;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Worker budget of the untraced run: this host has two cores, so the
/// trainer's prep pool, the server's classification pool, the process
/// pool behind the matmul kernels and the machine threads are all 2.
pub const WORKERS: usize = 2;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Traced passes per traced run. Fixed, not derived from `--seconds`, so
/// that per-target counts repeat exactly from run to run.
pub const TRACED_PASSES: u32 = 2;

/// A run whose slowest calibration is this much above its median is
/// flagged noisy.
const NOISY_CALIB_SPREAD: f64 = 1.10;

/// Pareto shape of the degree distribution for the three training and
/// inference graphs. The generator's default (1.25) puts so much weight on
/// a few hubs that work per target moves 7 % (IQR) from seed to seed; at 2
/// it moves 0.4 %, and a citation graph's tail is about that heavy.
pub const DEGREE_TAIL: f64 = 2.0;

#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one pass reports back to the harness.
#[derive(Clone, Copy, Debug, Default)]
pub struct PassResult {
    pub attempted: u64,
    pub failed: u64,
}

pub struct Harness {
    pub args: Args,
    pub tracer: Tracer,
    pub out: Outcome,
    calib: Calibrator,
    setup_reps_s: Vec<f64>,
    setup_done: Instant,
    setup_stages: BTreeMap<&'static str, f64>,
    /// Sentinel reading in front of every pass of the run.
    calib_ms: Vec<f64>,
}

/// Times named stages of one set-up.
pub struct Stages<'a>(&'a mut BTreeMap<&'static str, f64>);

impl Stages<'_> {
    /// Runs `f`, recording its wall time under the per-layer metric
    /// `name` (seconds). The last set-up of a run wins.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.0.insert(name, t0.elapsed().as_secs_f64());
        r
    }
}

impl Harness {
    pub fn new(args: Args) -> Self {
        Self {
            args,
            tracer: Tracer::new(),
            out: Outcome::default(),
            calib: Calibrator::new(),
            setup_reps_s: Vec::new(),
            setup_done: Instant::now(),
            setup_stages: BTreeMap::new(),
            calib_ms: Vec::new(),
        }
    }

    /// Worker count for every pool the workload configures.
    pub fn workers(&self) -> usize {
        if self.args.trace {
            1
        } else {
            WORKERS
        }
    }

    /// Scratch directory for files a workload writes (inside the
    /// checkout; `run.sh` runs from its root).
    pub fn scratch_dir(&self, what: &str) -> PathBuf {
        PathBuf::from(format!(
            "benchmark/out/{what}_{}_{}",
            self.args.workload,
            std::process::id()
        ))
    }

    /// Builds the workload's state from the seed. An untraced run builds
    /// it [`SETUP_REPS`] times, dropping each before the next so the peak
    /// RSS is one set-up's, and reports the median; the last is returned.
    pub fn setup<T>(&mut self, mut build: impl FnMut(&mut Stages<'_>) -> T) -> T {
        let reps = if self.args.trace { 1 } else { SETUP_REPS };
        let mut last = None;
        for _ in 0..reps {
            drop(last.take());
            let t0 = Instant::now();
            last = Some(build(&mut Stages(&mut self.setup_stages)));
            self.setup_reps_s.push(t0.elapsed().as_secs_f64());
        }
        self.setup_done = Instant::now();
        last.expect("at least one set-up")
    }

    /// The untraced timed phase: calibration then `pass`, until
    /// `--seconds` have gone by (at least three passes).
    pub fn timed_phase(&mut self, mut pass: impl FnMut() -> PassResult) {
        // Everything since the last set-up finished (model init, the
        // warm-up pass) is set-up a user waits for too.
        let tail_s = self.setup_done.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let (mut wall, mut cpu) = (Vec::new(), Vec::new());
        while wall.len() < 3 || t0.elapsed().as_secs_f64() < self.args.seconds {
            self.calib_ms.push(self.calib.run());
            let (c0, w0) = (cpu_seconds(), Instant::now());
            let r = pass();
            wall.push(w0.elapsed().as_secs_f64());
            cpu.push(cpu_seconds() - c0);
            self.out.attempted += r.attempted;
            self.out.failed += r.failed;
        }
        let targets = self.out.attempted as f64 / wall.len() as f64;
        self.out.set("setup_s", median(&self.setup_reps_s) + tail_s);
        self.out.set("targets_per_s", ratio(targets, median(&wall)));
        self.out
            .set("cpu_ms_per_target", ratio(median(&cpu) * 1e3, targets));
        self.set_pass_stats(&wall);
    }

    fn set_pass_stats(&mut self, wall_s: &[f64]) {
        let ms: Vec<f64> = wall_s.iter().map(|s| s * 1e3).collect();
        let calib = &self.calib_ms;
        self.out.set("bench.passes", ms.len() as f64);
        self.out.set("bench.pass_ms_p50", median(&ms));
        self.out.set("bench.pass_ms_min", quantile(&ms, 0.0));
        self.out.set("bench.pass_ms_max", quantile(&ms, 1.0));
        let spread = ratio(quantile(calib, 1.0), median(calib));
        self.out.set("bench.calib_ms_p50", median(calib));
        self.out.set("bench.calib_spread", spread);
        if spread > NOISY_CALIB_SPREAD {
            println!(
                "noisy: the slowest calibration ran {spread:.2}x the median; \
                 the host was busy during this run"
            );
        }
    }

    /// The traced run's reference passes, each with the sentinel in
    /// front: one untraced (its result and wall seconds are returned) and
    /// one with the crates' own telemetry recording, which sets
    /// `telemetry.on_overhead_ratio`.
    pub fn baseline_passes<R>(&mut self, pass: impl Fn() -> R) -> (R, f64) {
        let timed = |h: &mut Self| {
            h.calib_ms.push(h.calib.run());
            let t0 = Instant::now();
            let r = pass();
            (r, t0.elapsed().as_secs_f64())
        };
        let (reference, untraced_s) = timed(self);
        telemetry::set_enabled(true);
        let (_, telemetry_s) = timed(self);
        telemetry::set_enabled(false);
        telemetry::span::reset_events();
        telemetry::reset_attrib();
        self.out.set(
            "telemetry.on_overhead_ratio",
            ratio(telemetry_s, untraced_s),
        );
        (reference, untraced_s)
    }

    /// Closes a traced run: harness metrics from the recorded spans,
    /// set-up stage times, and the span file.
    ///
    /// `untraced_s` is the untraced pass at the same single worker and
    /// `traced_s` the traced passes' wall times.
    pub fn finish_traced(&mut self, untraced_s: f64, traced_s: &[f64]) {
        self.out.set(
            "bench.stage_sum_ratio",
            ratio(self.tracer.stage_sum_s(), self.tracer.agg(PASS).secs()),
        );
        self.out.set(
            "bench.trace_overhead_ratio",
            ratio(median(traced_s), untraced_s),
        );
        for (&name, &secs) in &self.setup_stages {
            self.out.set(name, secs);
        }
        self.set_pass_stats(traced_s);
        let path = PathBuf::from(format!("benchmark/out/trace_{}.jsonl", self.args.workload));
        if let Err(e) = self.tracer.write_jsonl(&path) {
            self.out
                .check(false, format!("write {}: {e}", path.display()));
        }
    }

    /// Peak RSS of the workload itself: the sentinel's gather array is
    /// resident from before set-up to exit, so it is part of every RSS
    /// reading and comes off the high-water mark exactly.
    pub fn finish_untraced(&mut self) {
        self.out
            .set("peak_rss_mib", peak_rss_mib() - GATHER_MIB as f64);
    }
}
