//! `experiments`: the paper's sweeps as rows of one table.
//!
//! Every row is the same program — build the stand-in data set(s), sweep
//! (K, α, β, policy, system), simulate or count, tabulate — so a row is
//! data: an id, the CSVs it writes, a `run` that returns labelled
//! [`curves::Grid`]s, and the paper-shape sentences it asserts about
//! them. `experiments fig7 --quick`, `experiments --all`,
//! `experiments --list`. The runner prints each table, writes
//! `results/<csv>.csv`, prints PASS / FAIL per claim with the measured
//! evidence, and exits 1 if any claim failed (2 on a usage error).

// Harness binaries may abort on setup errors; the workspace
// panic-family denies gate the library crates, not the harnesses
// (mirrors the bin/ exemption in `cargo xtask lint`).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp
)]

mod ablations;
mod ctx;
mod curves;
mod paper;
mod shapes;
#[cfg(test)]
mod tests;
mod volume;

use ctx::Ctx;
use curves::Curves;
use shapes::Shape;
use spp_bench::{Cli, Table};
use std::fmt::Write as _;

/// One experiment.
pub struct Row {
    pub id: &'static str,
    /// What `--list` says the row measures.
    pub title: &'static str,
    /// `results/<name>.csv` for each grid `run` prints, in order.
    pub csv: &'static [&'static str],
    pub run: fn(&Ctx) -> Curves,
    pub shapes: &'static [Shape],
}

/// The paper's tables and figures in paper order, then the ablations.
fn table() -> impl Iterator<Item = &'static Row> + Clone {
    paper::ROWS.iter().chain(ablations::ROWS)
}

/// What running one row produced.
struct Outcome {
    /// Everything the runner prints for the row.
    text: String,
    tables: Vec<(&'static str, Table)>,
    failed: usize,
}

fn run_row(ctx: &Ctx, row: &Row) -> Outcome {
    let curves = (row.run)(ctx);
    let mut text = format!("########## {} ##########\n", row.id);
    let tables: Vec<(&'static str, Table)> =
        curves.grids.iter().map(|g| (g.csv, g.table())).collect();
    let rendered: Vec<String> = tables.iter().map(|(_, t)| t.render()).collect();
    text.push_str(&rendered.join("\n"));
    for note in &curves.notes {
        let _ = writeln!(text, "{note}");
    }
    let _ = writeln!(text, "\nshape claims ({}):", row.id);
    let mut failed = 0;
    for s in row.shapes {
        let (status, detail) = match s.default_scale_only {
            Some(why) if ctx.cli.scale < 1.0 => ("SKIP", format!("default scale only: {why}")),
            _ => match (s.check)(&curves) {
                Ok(evidence) => ("PASS", evidence),
                Err(why) => {
                    failed += 1;
                    ("FAIL", why)
                }
            },
        };
        let _ = writeln!(text, "  {status}  {} — {detail}", s.claim);
    }
    Outcome {
        text,
        tables,
        failed,
    }
}

fn main() {
    let ids: Vec<&str> = table().map(|r| r.id).collect();
    let cli = Cli::parse_selecting(&ids);
    if cli.list {
        for r in table() {
            println!(
                "{:<24}{} -> {} ({} claim(s))",
                r.id,
                r.title,
                r.csv.join(", "),
                r.shapes.len()
            );
        }
        return;
    }
    let ctx = Ctx::new(cli);
    let mut failed = 0;
    for id in &ctx.cli.ids {
        let row = table()
            .find(|r| r.id == id)
            .expect("Cli admits table ids only");
        let outcome = run_row(&ctx, row);
        print!("{}", outcome.text);
        for (csv, t) in &outcome.tables {
            t.write_csv(csv);
        }
        failed += outcome.failed;
    }
    if failed > 0 {
        eprintln!("{failed} shape claim(s) FAILED");
        std::process::exit(1);
    }
}
