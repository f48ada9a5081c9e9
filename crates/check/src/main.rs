//! `spp-check` CLI — explores the model-check modules and reports
//! schedule/state counts and violations. Normally invoked through
//! `cargo xtask check-interleavings`, which builds this binary with
//! `RUSTFLAGS="--cfg spp_model_check"`; running a passthrough build is
//! an error (nothing would be intercepted), reported as exit code 2.
//!
//! Exit codes: 0 = all selected modules met their expectation (and, for
//! a full run, the exploration floor); 1 = a module failed or the floor
//! was missed; 2 = usage/build error.

use spp_check::harness::MODULES;
use spp_check::{Expect, ModuleReport, Options};
use spp_telemetry::json::Json;
use std::process::ExitCode;

/// A full run must explore at least this many completed schedules
/// across the clean modules — the checker's own liveness floor: a
/// regression that collapses the schedule tree (over-pruning, a stuck
/// scheduler) fails the gate even if nothing is "violated".
const MIN_TOTAL_SCHEDULES: u64 = 1000;

const USAGE: &str = "\
spp-check: workspace concurrency model checker

USAGE:
    spp-check [--module <name>]... [--max-schedules <n>] [--json] [--list]

OPTIONS:
    --module <name>       Explore only this module (repeatable)
    --max-schedules <n>   Per-module schedule budget (default 3000)
    --json                Machine-readable report on stdout
    --list                List module names and expectations, then exit
    --help                This text
";

struct Cli {
    modules: Vec<String>,
    max_schedules: Option<u64>,
    json: bool,
    list: bool,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        modules: Vec::new(),
        max_schedules: None,
        json: false,
        list: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--module" | "-m" => {
                let v = it.next().ok_or("--module needs a name")?;
                cli.modules.push(v.clone());
            }
            "--max-schedules" => {
                let v = it.next().ok_or("--max-schedules needs a number")?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("--max-schedules: not a number: {v}"))?;
                if n == 0 {
                    return Err("--max-schedules must be positive".to_string());
                }
                cli.max_schedules = Some(n);
            }
            "--json" => cli.json = true,
            "--list" => cli.list = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}\n\n{USAGE}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("spp-check: {e}");
            return ExitCode::from(2);
        }
    };
    if cli.list {
        for m in MODULES {
            let kind = match m.expect {
                Expect::Clean => "clean",
                Expect::Caught => "mutant (must be caught)",
            };
            println!("{:<22} {kind}", m.name);
        }
        return ExitCode::SUCCESS;
    }
    if !cfg!(spp_model_check) {
        eprintln!(
            "spp-check: this binary was built without --cfg spp_model_check; \
             the spp-sync wrappers are passthroughs and nothing would be explored.\n\
             Run `cargo xtask check-interleavings` (or set \
             RUSTFLAGS=\"--cfg spp_model_check\" and rebuild)."
        );
        return ExitCode::from(2);
    }
    for name in &cli.modules {
        if !MODULES.iter().any(|m| m.name == *name) {
            let known: Vec<&str> = MODULES.iter().map(|m| m.name).collect();
            eprintln!(
                "spp-check: unknown module {name:?}; known modules: {}",
                known.join(", ")
            );
            return ExitCode::from(2);
        }
    }
    let selected: Vec<_> = MODULES
        .iter()
        .filter(|m| cli.modules.is_empty() || cli.modules.iter().any(|n| n == m.name))
        .collect();
    let full_run = cli.modules.is_empty();

    let opts = Options {
        max_schedules: cli.max_schedules.unwrap_or(3000),
        ..Options::default()
    };

    let mut reports = Vec::with_capacity(selected.len());
    for m in &selected {
        if !cli.json {
            eprintln!("exploring {} ...", m.name);
        }
        reports.push(m.run(opts));
    }

    let clean_schedules: u64 = reports
        .iter()
        .filter(|r| r.expect == Expect::Clean)
        .map(|r| r.schedules)
        .sum();
    let all_pass = reports.iter().all(|r| r.pass());
    let floor_met = !full_run || clean_schedules >= MIN_TOTAL_SCHEDULES;

    if cli.json {
        let floor = if full_run { MIN_TOTAL_SCHEDULES } else { 0 };
        let summary = Json::obj([
            (
                "modules",
                reports.iter().map(ModuleReport::to_json).collect(),
            ),
            ("clean_schedules", clean_schedules.into()),
            ("schedule_floor", floor.into()),
            ("floor_met", floor_met.into()),
            ("pass", (all_pass && floor_met).into()),
        ]);
        println!("{summary}");
    } else {
        for r in &reports {
            print!("{}", r.render_text());
        }
        let states: u64 = reports.iter().map(|r| r.states).sum();
        println!(
            "total: {clean_schedules} clean schedules, {states} explored states; \
             floor {MIN_TOTAL_SCHEDULES}{}",
            if full_run {
                if floor_met {
                    " met"
                } else {
                    " NOT MET"
                }
            } else {
                " (skipped: partial run)"
            }
        );
        println!(
            "result: {}",
            if all_pass && floor_met {
                "PASS"
            } else {
                "FAIL"
            }
        );
    }

    if all_pass && floor_met {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
