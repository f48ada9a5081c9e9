//! The paper's own evaluation: Tables 1, 2 and 4, Figure 2, Figures 4–9.

use crate::ctx::{Ctx, Point};
use crate::curves::{count, percent, times, Curves, Grid};
use crate::shapes::{all, falls_along, falls_down, less, ratio_near, shape, tops, verdict};
use crate::volume::Measured;
use crate::Row;
use spp_bench::datasets::{MAG240, PAPERS, WORKLOADS};
use spp_bench::report::{fmt_secs, geomean};
use spp_comm::NetworkModel;
use spp_core::policies::CachePolicy;
use spp_graph::stats::GraphStats;
use spp_partition::metrics::edge_cut_fraction;
use spp_runtime::{AccessCounts, DistributedSetup, EpochSim, SystemSpec};
use spp_sampler::Fanouts;

pub const ROWS: &[Row] = &[
    Row {
        id: "table1",
        title: "Table 1: the system ladder on papers, K = 1/2/4/8 (cache a = 8/16/32 %)",
        csv: &["table1"],
        run: table1,
        shapes: &[
            shape(
                "at K=8 partitioning features costs a multiple of full replication",
                |c| {
                    ratio_near(
                        c.grid("table1"),
                        (PARTITIONED, "K=8"),
                        (SALIENT, "K=8"),
                        3.5,
                    )
                },
            ),
            shape("pipelining recovers about half of that", |c| {
                ratio_near(
                    c.grid("table1"),
                    (PARTITIONED, "K=8"),
                    (PIPELINED, "K=8"),
                    2.0,
                )
            }),
            shape("caching brings it to parity with full replication", |c| {
                ratio_near(c.grid("table1"), (CACHED, "K=8"), (SALIENT, "K=8"), 0.94)
            }),
            shape(
                "full replication scales near-linearly from K=1 to K=8",
                |c| ratio_near(c.grid("table1"), (SALIENT, "K=1"), (SALIENT, "K=8"), 6.7),
            ),
            shape("every system's epoch time falls with K", |c| {
                all(LADDER.map(|(label, ..)| falls_along(c.grid("table1"), label, 0..4)))
            }),
        ],
    },
    Row {
        id: "fig2",
        title: "Figure 2: remote volume under eight caching policies x alpha x three fanouts (papers K=8)",
        csv: &["fig2_(5,5,5)", "fig2_(10,10,10)", "fig2_(15,10,5)", "fig2_d"],
        run: fig2,
        shapes: &[
            shape("VIP beats every heuristic and the empirical ranking at every alpha", |c| {
                let g = c.grid("fig2_d");
                let others = ["deg.", "1-hop", "wPR", "#paths", "sim."];
                all(g.cols.iter().map(|(col, _)| tops(g, ("VIP", col), others.map(|p| (p, col.as_str())))))
            }),
            shape("VIP stays within 30 % of the oracle up to alpha = 0.2 (paper: 5 %, ~30 % at low-sample corners)", |c| {
                let g = c.grid("fig2_d");
                all(["a=0.05", "a=0.10", "a=0.20"].map(|col| {
                    let short = g.at("oracle", col) / g.at("VIP", col) - 1.0;
                    verdict(short < 0.30, format!("{col}: {}", percent(short)))
                }))
            })
            .at_default_scale(
                "--quick measures one epoch, so the oracle is fitted to the very epoch it is \
                 scored on and its lead is inflated (36.8 % at a=0.20)",
            ),
            shape("the analytic ranking's lead over the empirical one grows with alpha (paper: 1.6x at 0.5, 3.2x at 1.0)", |c| {
                let g = c.grid("fig2_d");
                let lead = |col| g.at("VIP", col) / g.at("sim.", col);
                let leads = [lead("a=0.05"), lead("a=0.50"), lead("a=1.00")];
                let quote = format!("{:.2}x -> {:.2}x -> {:.2}x", leads[0], leads[1], leads[2]);
                verdict(leads[0] < leads[1] && leads[1] < leads[2], quote)
            }),
        ],
    },
    Row {
        id: "table2",
        title: "Table 2: the stand-in data sets next to the paper's originals",
        csv: &["table2_datasets"],
        run: table2,
        shapes: &[shape(
            "the stand-ins keep the originals' degree order (51 / 29 / 21.5) and mag240's 6x feature width",
            |c| {
                let g = c.grid("table2_datasets");
                let degree = |ds| 2.0 * g.at(ds, "#edges") / g.at(ds, "#vertices");
                let d = ["products-sim", "papers-sim", "mag240-sim"].map(degree);
                let width = g.at("mag240-sim", "#feat") / g.at("papers-sim", "#feat");
                let quote = format!("degree {:.1} / {:.1} / {:.1}, width {width}x", d[0], d[1], d[2]);
                verdict(d[0] > d[1] && d[1] > d[2] && width == 6.0, quote)
            },
        )],
    },
    Row {
        id: "fig4",
        title: "Figure 4: partitioned -> pipelined -> VIP-cached on the three benchmarks",
        csv: &["fig4"],
        run: fig4,
        shapes: &[
            shape(
                "pipelining, then caching, each cut the epoch on every benchmark",
                |c| {
                    let g = c.grid("fig4");
                    all(g.cols.iter().map(|(bench, _)| falls_down(g, bench)))
                },
            ),
            shape(
                "mag240 (6x wider features) gains more from caching than products",
                |c| {
                    let g = c.grid("fig4");
                    let gain =
                        |bench| g.at(FIG4_SYSTEMS[1].0, bench) / g.at(FIG4_SYSTEMS[2].0, bench);
                    let (mag, products) = (gain("mag240 K=16"), gain("products K=4"));
                    verdict(
                        mag > products,
                        format!("mag240 {mag:.2}x vs products {products:.2}x"),
                    )
                },
            ),
        ],
    },
    Row {
        id: "fig5",
        title: "Figure 5: SALIENT++ scalability over K = 2..16, and total feature memory",
        csv: &["fig5_time", "fig5_mem"],
        run: fig5,
        shapes: &[
            // K=16 is the next claim's.
            shape(
                "epoch time falls with K from 2 to 8 on every benchmark",
                |c| all(WORKLOADS.map(|w| falls_along(c.grid("fig5_time"), w.name, 0..3))),
            ),
            shape("K=16 is faster still than K=8", |c| {
                all(WORKLOADS.map(|w| falls_along(c.grid("fig5_time"), w.name, 2..4)))
            })
            .at_default_scale(
                "at --quick mag240-sim leaves each of 16 machines 7 training vertices, \
                 two rounds per epoch: pipeline fill, not throughput",
            ),
            shape(
                "total feature memory is 1 + alpha of the data set at every K, not K x",
                |c| {
                    all(WORKLOADS.map(|w| {
                        let mem = c.grid("fig5_mem").series(w.name).iter();
                        let worst = mem.map(|m| (m - 1.0 - w.alpha).abs()).fold(0.0, f64::max);
                        verdict(worst < 0.005, format!("{} within {worst:.4}", w.name))
                    }))
                },
            ),
        ],
    },
    Row {
        id: "fig6",
        title:
            "Figure 6: VIP local ordering vs fraction of local features on the GPU (papers, K=4)",
        csv: &["fig6", "fig6_h2d"],
        run: fig6,
        shapes: &[
            shape(
                "with 10 % of local features on the GPU, VIP order removes more host-to-device \
                 time than input order",
                |c| {
                    let (vip, input) = (
                        h2d_removed(c, "VIP reorder", "10%"),
                        h2d_removed(c, "no reorder", "10%"),
                    );
                    verdict(
                        vip > input,
                        format!("{} vs {}", percent(vip), percent(input)),
                    )
                },
            ),
            shape(
                "input order needs about beta % on the GPU to remove beta % of the transfers",
                |c| {
                    all(ON_GPU.iter().zip(BETAS).skip(1).map(|(col, beta)| {
                        let removed = h2d_removed(c, "no reorder", col);
                        verdict(
                            removed <= beta + 0.05,
                            format!("{col}: {}", percent(removed)),
                        )
                    }))
                },
            ),
        ],
    },
    Row {
        id: "fig7",
        title: "Figure 7: epoch time vs replication factor (papers K=4/8, mag240 K=8/16)",
        csv: &["fig7"],
        run: fig7,
        shapes: &[
            shape("epoch time falls with alpha on every configuration", |c| {
                let g = c.grid("fig7");
                all(g.rows.iter().map(|(label, _)| falls_along(g, label, 0..5)))
            }),
            shape(
                "and flattens: a unit of alpha buys less over 0.16..0.32 than over 0..0.04",
                |c| {
                    all(c.grid("fig7").rows.iter().map(|(label, t)| {
                        let (first, last) = ((t[0] - t[1]) / 0.04, (t[3] - t[4]) / 0.16);
                        // The prose this replaces reported where the curve
                        // comes within 5 % of its best.
                        let knee = t.iter().position(|&x| x <= t[4] * 1.05).unwrap_or(4);
                        let within = FIG7_ALPHAS[knee];
                        verdict(
                            last < first,
                            format!("{label}: within 5% of best at a={within}"),
                        )
                    }))
                },
            ),
        ],
    },
    Row {
        id: "fig8",
        title: "Figure 8: stage breakdown, papers K=8, beta=1, pipelining on/off x a in {0, 0.32}",
        csv: &["fig8"],
        run: fig8,
        shapes: &[
            shape("without pipelining or cache, communication is the largest busy stage", |c| {
                tops(c.grid("fig8"), (OFF_0, COMM), [COMP, TRAIN, "allreduce"].map(|s| (OFF_0, s)))
            }),
            shape(
                "pipelining alone shortens the epoch but leaves it communication-bound",
                |c| {
                    let (comm, compute) = comm_vs_compute(c, ON_0);
                    all([
                        less(c.grid("fig8"), (ON_0, "epoch"), (OFF_0, "epoch")),
                        verdict(
                            comm > compute,
                            format!("comm {} vs compute {}", fmt_secs(comm), fmt_secs(compute)),
                        ),
                    ])
                },
            ),
            shape(
                "the cache shrinks communication and the pipelined epoch",
                |c| all([COMM, "epoch"].map(|col| less(c.grid("fig8"), (ON_32, col), (ON_0, col)))),
            ),
            shape("with a = 0.32 communication hides under compute", |c| {
                let (comm, compute) = comm_vs_compute(c, ON_32);
                let quote = format!("comm {} vs compute {}", fmt_secs(comm), fmt_secs(compute));
                verdict(comm < compute, quote)
            })
            .at_default_scale(
                "cache hit rates are compressed at smaller scale (EXPERIMENTS.md reading \
                 guide): at --quick comm busy stays 2 % above compute busy",
            ),
        ],
    },
    Row {
        id: "fig9",
        title: "Figure 9: VIP-analytic vs VIP-simulation on a 4x-throttled network, K=16",
        csv: &["fig9"],
        run: fig9,
        shapes: &[
            shape("analytic <= simulation at every alpha", |c| {
                all([("papers", 1.30), ("mag240", 1.45)].map(|(name, paper)| {
                    let g = c.grid("fig9");
                    let analytic = g.series(&format!("{name} VIP (analytic)"));
                    let gaps = g
                        .series(&format!("{name} VIP (simulation)"))
                        .iter()
                        .zip(analytic)
                        .map(|(s, a)| s / a);
                    let (least, most) =
                        gaps.fold((f64::MAX, 0.0), |(lo, hi), x| (x.min(lo), x.max(hi)));
                    verdict(
                        least >= 1.0,
                        format!("{name}: max gap {most:.2}x (paper up to {paper}x)"),
                    )
                }))
            }),
            shape(
                "on the slow link alpha keeps paying past the fast-network knee (0.32)",
                |c| {
                    all(["papers", "mag240"]
                        .map(|w| falls_along(c.grid("fig9"), &format!("{w} VIP (analytic)"), 0..5)))
                },
            ),
        ],
    },
    Row {
        id: "table4",
        title: "Table 4: SALIENT++ vs a DistDGL-like baseline, papers K=8",
        csv: &["table4"],
        run: table4,
        shapes: &[shape(
            "the DistDGL-like system is an order of magnitude slower",
            |c| {
                ratio_near(
                    c.grid("table4"),
                    ("DistDGL-like", "time"),
                    ("SALIENT++", "time"),
                    12.7,
                )
            },
        )],
    },
];

const SALIENT: &str = "SALIENT (full replication)";
const PARTITIONED: &str = "+ Partitioned features";
const PIPELINED: &str = "+ Pipeline communication";
const CACHED: &str = "+ Feature caching";

/// A rung of the system ladder: label, system model at a hidden width,
/// whether the VIP cache is on.
type System = (&'static str, fn(usize) -> SystemSpec, bool);

const LADDER: [System; 4] = [
    (SALIENT, SystemSpec::salient, false),
    (PARTITIONED, SystemSpec::partitioned, false),
    (PIPELINED, SystemSpec::pipelined, false),
    (CACHED, SystemSpec::pipelined, true),
];

fn table1(ctx: &Ctx) -> Curves {
    let w = &PAPERS;
    let machines = [1usize, 2, 4, 8];
    // The paper's replication factor per machine count.
    let alpha_of = |k: usize| match k {
        2 => 0.08,
        4 => 0.16,
        _ => 0.32,
    };
    let epochs = ctx.cli.epochs_or(3);
    let ds = ctx.dataset(w);
    let title = format!(
        "Table 1: per-epoch runtime, {} ({} vertices), simulated",
        ds.name,
        ds.num_vertices()
    );
    let mut g = Grid::new(
        "table1",
        &title,
        "System",
        &machines.map(|k| format!("K={k}")),
        fmt_secs,
    );
    for (label, spec, cached) in LADDER {
        // Only full replication runs on one machine.
        let points = machines.map(|k| {
            let alpha = if cached { alpha_of(k) } else { 0.0 };
            (k > 1 || label == SALIENT).then_some(Point::new(w, k, alpha, 0.0))
        });
        let time = |p: Point| ctx.mean_time(p, spec(w.hidden), epochs);
        g.row(
            label,
            points.iter().map(|p| p.map_or(f64::NAN, time)).collect(),
        );
        g.cuts.push(
            points
                .iter()
                .map(|p| p.map_or(f64::NAN, |p| ctx.edge_cut(p)))
                .collect(),
        );
    }
    Curves::of(vec![g])
}

const FIG2_ALPHAS: [f64; 5] = [0.05, 0.1, 0.2, 0.5, 1.0];
const FIG2_FANOUTS: [(&str, [usize; 3]); 3] = [
    ("fig2_(5,5,5)", [5, 5, 5]),
    ("fig2_(10,10,10)", [10, 10, 10]),
    ("fig2_(15,10,5)", [15, 10, 5]),
];

fn fig2(ctx: &Ctx) -> Curves {
    let w = &PAPERS;
    let ds = ctx.dataset(w);
    let (epochs, seed) = (ctx.cli.epochs_or(3), ctx.cli.seed);
    // One partitioning shared by all fanout settings (as in the paper).
    let (part, train) = DistributedSetup::partition(&ds, &ctx.config(Point::new(w, 8, 0.0, 0.0)));
    let cols = FIG2_ALPHAS.map(|a| format!("a={a:.2}"));
    let mut grids = Vec::new();
    // gains[policy][alpha]: improvement over no caching, one per fanout setting.
    let mut gains = vec![vec![Vec::new(); cols.len()]; CachePolicy::ALL.len()];
    for (csv, fanouts) in FIG2_FANOUTS {
        let fanouts = Fanouts::new(fanouts.to_vec());
        let counts = AccessCounts::measure(&ds.graph, &train, &fanouts, w.batch, epochs, seed ^ 1);
        let run = Measured {
            ds: &ds,
            part: &part,
            train: &train,
            fanouts: &fanouts,
            counts: &counts,
        };
        let none = counts.no_cache_volume(&part);
        let title =
            format!("Figure 2, fanouts {fanouts}: remote vertices/epoch (no caching: {none:.0})");
        let mut g = Grid::new(csv, &title, "policy", &cols, count);
        for (policy, gains) in CachePolicy::ALL.into_iter().zip(&mut gains) {
            let volumes = if policy == CachePolicy::None {
                FIG2_ALPHAS.map(|_| none)
            } else {
                // Rank once per partition, reuse across alphas.
                let rankings = run.rankings(policy, seed ^ 0xCAFE);
                FIG2_ALPHAS.map(|alpha| run.cached_volume(&rankings, alpha))
            };
            for (gain, volume) in gains.iter_mut().zip(volumes) {
                gain.push(none / volume.max(1.0));
            }
            g.row(policy.label(), volumes.to_vec());
        }
        grids.push(g);
    }
    let title = "Figure 2(d): geo-mean improvement over no caching (higher is better)";
    let mut d = Grid::new("fig2_d", title, "policy", &cols, times);
    for (policy, gains) in CachePolicy::ALL.iter().zip(&gains).skip(1) {
        d.row(policy.label(), gains.iter().map(|g| geomean(g)).collect());
    }
    grids.push(d);
    let note = format!(
        "dataset {} ({} vertices), 8-way partition, edge cut {}, {epochs} measurement epochs",
        ds.name,
        ds.num_vertices(),
        percent(edge_cut_fraction(&ds.graph, &part)),
    );
    Curves {
        grids,
        notes: vec![note],
    }
}

fn table2(ctx: &Ctx) -> Curves {
    let originals = [
        "ogbn-products: 2.4M v, 123M e, 100 feat, 197K/39K/2.2M",
        "ogbn-papers100M: 111M v, 3.2B e, 128 feat, 1.2M/125K/214K",
        "mag240c: 121M v, 2.6B e, 768 feat, 1.1M/134K/88K",
    ];
    let title = "Table 2: data sets (stand-in vs paper)";
    let mut g = Grid::new(
        "table2_datasets",
        title,
        "data set",
        &["#vertices", "#edges", "#feat"],
        count,
    );
    let mut splits = Vec::new();
    let mut notes =
        vec!["structural statistics (degree skew drives the paper's access skew):".to_string()];
    for w in WORKLOADS {
        let ds = ctx.dataset(w);
        let sizes = [
            ds.num_vertices(),
            ds.graph.num_edges() / 2,
            ds.features.dim(),
        ];
        g.row(&ds.name, sizes.map(|n| n as f64).to_vec());
        let split = &ds.split;
        splits.push(format!(
            "{}/{}/{}",
            split.train.len(),
            split.val.len(),
            split.test.len()
        ));
        notes.push(format!("  {}: {}", ds.name, GraphStats::compute(&ds.graph)));
    }
    g.text.push(("train/val/test", splits));
    g.text
        .push(("paper original", originals.map(str::to_string).to_vec()));
    Curves {
        grids: vec![g],
        notes,
    }
}

const FIG4_SYSTEMS: [System; 3] = [
    (
        "partitioned (no pipeline, no cache)",
        SystemSpec::partitioned,
        false,
    ),
    ("+ pipelining", SystemSpec::pipelined, false),
    ("+ VIP caching (SALIENT++)", SystemSpec::pipelined, true),
];

fn fig4(ctx: &Ctx) -> Curves {
    let epochs = ctx.cli.epochs_or(3);
    let title = "Figure 4: per-epoch runtime under successive optimizations (simulated)";
    let benches = WORKLOADS.map(|w| format!("{} K={}", w.name, w.machines));
    let mut g = Grid::new("fig4", title, "system", &benches, fmt_secs);
    g.fill(
        &FIG4_SYSTEMS.map(|s| (s.0, s)),
        &WORKLOADS,
        |&(_, spec, cached), &w| {
            let alpha = if cached { w.alpha } else { 0.0 };
            ctx.mean_time(
                Point::new(w, w.machines, alpha, 0.0),
                spec(w.hidden),
                epochs,
            )
        },
    );
    Curves::of(vec![g])
}

fn fig5(ctx: &Ctx) -> Curves {
    let epochs = ctx.cli.epochs_or(3);
    let machines = [2usize, 4, 8, 16];
    let cols = machines.map(|k| format!("K={k}"));
    let title = "Figure 5 (left): SALIENT++ per-epoch runtime (simulated)";
    let mut time = Grid::new("fig5_time", title, "dataset", &cols, fmt_secs);
    let title = "Figure 5 (right): total feature memory, multiple of unreplicated (1 + alpha)";
    let mut mem = Grid::new("fig5_mem", title, "dataset", &cols, times);
    for w in WORKLOADS {
        // Time, memory and edge cut of a point together, while its
        // deployment is at hand (four mag240 deployments overflow the memo).
        let cells = machines.map(|k| {
            let p = Point::new(w, k, w.alpha, 0.1);
            let time = ctx.mean_time(p, SystemSpec::pipelined(w.hidden), epochs);
            (time, ctx.setup(p).memory_multiple(), ctx.edge_cut(p))
        });
        time.row(w.name, cells.map(|c| c.0).to_vec());
        mem.row(w.name, cells.map(|c| c.1).to_vec());
        time.cuts.push(cells.map(|c| c.2).to_vec());
    }
    Curves::of(vec![time, mem])
}

const BETAS: [f64; 6] = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9];
const ON_GPU: [&str; 6] = ["0%", "10%", "25%", "50%", "75%", "90%"];

/// Share of the beta=0 host-to-device time that `ordering` sheds with
/// `on_gpu` of the local features resident.
fn h2d_removed(c: &Curves, ordering: &str, on_gpu: &str) -> f64 {
    let g = c.grid("fig6_h2d");
    1.0 - g.at(ordering, on_gpu) / g.at(ordering, "0%")
}

fn fig6(ctx: &Ctx) -> Curves {
    let w = &PAPERS;
    let epochs = ctx.cli.epochs_or(3);
    let title =
        "Figure 6: per-epoch runtime vs % of local features on GPU (papers, 4 GPUs, a=0.15)";
    let mut time = Grid::new("fig6", title, "ordering", &ON_GPU, fmt_secs);
    let title = "Figure 6 (mechanism): host-to-device busy time per machine-epoch";
    let mut h2d = Grid::new("fig6_h2d", title, "ordering", &ON_GPU, fmt_secs);
    for (label, reorder) in [("no reorder", false), ("VIP reorder", true)] {
        let (times, h2ds) = BETAS
            .iter()
            .map(|&beta| {
                let setup = ctx.setup(Point {
                    reorder,
                    ..Point::new(w, 4, 0.15, beta)
                });
                let sim = EpochSim::new(&setup, ctx.cost, SystemSpec::pipelined(w.hidden));
                let (mut time, mut h2d) = (0.0, 0.0);
                for e in 0..epochs {
                    let et = sim.simulate_epoch(e as u64);
                    time += et.makespan;
                    h2d += et.breakdown.h2d / 4.0;
                }
                (time / epochs as f64, h2d / epochs as f64)
            })
            .unzip();
        time.row(label, times);
        h2d.row(label, h2ds);
    }
    Curves::of(vec![time, h2d])
}

const FIG7_ALPHAS: [f64; 5] = [0.0, 0.04, 0.08, 0.16, 0.32];

fn fig7(ctx: &Ctx) -> Curves {
    let epochs = ctx.cli.epochs_or(3);
    let title = "Figure 7: per-epoch runtime vs replication factor (simulated)";
    let mut g = Grid::new(
        "fig7",
        title,
        "config",
        &FIG7_ALPHAS.map(|a| format!("a={a}")),
        fmt_secs,
    );
    // (workload, K, beta): papers with 90 % of local features on the
    // GPU, mag240 (6x the bytes per row) with 10 %.
    let configs = [
        (&PAPERS, 4, 0.9),
        (&PAPERS, 8, 0.9),
        (&MAG240, 8, 0.1),
        (&MAG240, 16, 0.1),
    ];
    let rows = configs.map(|(w, k, beta)| (format!("{} K={k}", w.name), (w, k, beta)));
    g.fill(&rows, &FIG7_ALPHAS, |&(w, k, beta), &alpha| {
        ctx.mean_time(
            Point::new(w, k, alpha, beta),
            SystemSpec::pipelined(w.hidden),
            epochs,
        )
    });
    Curves::of(vec![g])
}

const COMP: &str = "batch prep (comp)";
const COMM: &str = "batch prep (comm)";
const TRAIN: &str = "train (GPU)";
const OFF_0: &str = "pipelining off a=0";
const ON_0: &str = "pipelining on a=0";
const ON_32: &str = "pipelining on a=0.32";

/// Per-machine communication busy time against CPU + GPU compute busy
/// time in Figure 8's row `config`.
fn comm_vs_compute(c: &Curves, config: &str) -> (f64, f64) {
    let g = c.grid("fig8");
    (g.at(config, COMM), g.at(config, COMP) + g.at(config, TRAIN))
}

fn fig8(ctx: &Ctx) -> Curves {
    let w = &PAPERS;
    let k = 8usize;
    let title =
        "Figure 8: stage breakdown, papers 8 GPUs, beta=1 (per-machine busy time per epoch)";
    let stages = [COMP, COMM, TRAIN, "allreduce", "startup", "epoch"];
    let mut g = Grid::new("fig8", title, "config", &stages, fmt_secs);
    for (pipelined, alpha) in [(false, 0.0), (false, 0.32), (true, 0.0), (true, 0.32)] {
        let setup = ctx.setup(Point::new(w, k, alpha, 1.0));
        let spec = if pipelined {
            SystemSpec::pipelined
        } else {
            SystemSpec::partitioned
        };
        let e = EpochSim::new(&setup, ctx.cost, spec(w.hidden)).simulate_epoch(0);
        let (b, kf) = (e.breakdown, k as f64);
        let busy = vec![
            (b.sample + b.slice + b.serve) / kf,
            b.comm / kf,
            b.train / kf,
            b.allreduce / kf,
            e.startup,
            e.makespan,
        ];
        let label = format!(
            "pipelining {} a={alpha}",
            if pipelined { "on" } else { "off" }
        );
        g.row(label, busy);
    }
    Curves::of(vec![g])
}

fn fig9(ctx: &Ctx) -> Curves {
    let alphas = [0.0, 0.16, 0.32, 0.48, 0.64];
    let epochs = ctx.cli.epochs_or(2);
    // Throttle the calibrated link a further 4x, as the paper does with
    // Linux tc/TBF.
    let net = NetworkModel::new(2.5e9 / 8.0, 50e-6).with_tbf_gbps(2.5 / 4.0);
    let slow = ctx.cost.with_network(net);
    let title = "Figure 9: per-epoch runtime on a slow (4x-throttled) network, 16 nodes";
    let mut g = Grid::new(
        "fig9",
        title,
        "config",
        &alphas.map(|a| format!("a={a}")),
        fmt_secs,
    );
    let rankings = [
        (CachePolicy::VipAnalytic, "analytic"),
        (CachePolicy::Simulation, "simulation"),
    ];
    let rows = [&PAPERS, &MAG240]
        .map(|w| rankings.map(|(p, name)| (format!("{} VIP ({name})", w.name), (w, p))));
    g.fill(rows.as_flattened(), &alphas, |&(w, policy), &alpha| {
        let setup = ctx.setup(Point {
            policy,
            ..Point::new(w, 16, alpha, 0.1)
        });
        EpochSim::new(&setup, slow, SystemSpec::pipelined(w.hidden)).mean_epoch_time(epochs)
    });
    Curves::of(vec![g])
}

fn table4(ctx: &Ctx) -> Curves {
    let w = &PAPERS;
    let epochs = ctx.cli.epochs_or(3);
    let bare = Point::new(w, 8, 0.0, 0.1);
    let cached = Point::new(w, 8, 0.32, 0.1);
    let title = "Table 4: per-epoch time, papers benchmark, 8 machines (simulated)";
    let mut g = Grid::new("table4", title, "system", &["time"], fmt_secs);
    let systems = [
        ("SALIENT++", (cached, SystemSpec::pipelined(w.hidden))),
        ("DistDGL-like", (bare, SystemSpec::distdgl(w.hidden))),
    ];
    g.fill(&systems, &[()], |&(p, spec), ()| {
        ctx.mean_time(p, spec, epochs)
    });
    let notes = [
        "VIP cache a=0.32, 10-deep pipeline",
        "per-hop RPC sampling, synchronous, no cache",
    ];
    g.text.push(("notes", notes.map(str::to_string).to_vec()));
    Curves::of(vec![g])
}
