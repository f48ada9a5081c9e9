//! Wall-clock end-to-end and per-layer benchmark for the SALIENT++
//! reproduction. One process runs one workload; see `README.md`.

mod alloc;
mod calib;
mod dist;
mod harness;
mod infer;
mod layers;
mod metrics;
mod serve;
mod stats;
mod trace;
mod train;

use harness::{Args, Harness, WORKERS};
use metrics::{unit_of, END_TO_END, PER_LAYER, WORKLOADS};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: spp-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 15.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut h = Harness::new(args);
    // The process-global pool (behind the matmul kernels, VIP and the
    // engine's prefetch) reads this once, on first use; no thread has
    // been spawned yet.
    std::env::set_var("SPP_POOL_WORKERS", h.workers().to_string());
    println!(
        "workload {} seed {} seconds {} trace {} workers {} (of {} available, {WORKERS} untraced) \
         GLIBC_TUNABLES {}",
        h.args.workload,
        h.args.seed,
        h.args.seconds,
        u8::from(h.args.trace),
        h.workers(),
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        std::env::var("GLIBC_TUNABLES").unwrap_or_else(|_| "unset (run.sh pins it)".to_string()),
    );

    match h.args.workload.as_str() {
        "train_compute" => train::run(&mut h),
        "infer_gather" => infer::run(&mut h),
        "dist_exchange" => dist::run(&mut h),
        "serve_hot" => serve::run(&mut h, serve::HOT),
        "serve_cold" => serve::run(&mut h, serve::COLD),
        other => unreachable!("workload {other} passed parse_args"),
    }

    let table = if h.args.trace {
        PER_LAYER
    } else {
        h.finish_untraced();
        END_TO_END
    };
    for (name, value) in &h.out.values {
        println!("metric {name} = {value} {}", unit_of(name).unwrap_or("?"));
    }
    for (what, held) in &h.out.checks {
        println!("check {}: {what}", if *held { "ok" } else { "FAILED" });
    }
    println!("{}", h.out.result_json(table));
    if !h.out.correct() {
        std::process::exit(1);
    }
}
