//! Beyond the paper's figures: inference, pipeline depth and stages,
//! partition quality, and the §6 future-work proposals.

use crate::ctx::{Ctx, Point};
use crate::curves::{count, percent, times, Curves, Grid};
use crate::shapes::{all, falls_along, falls_down, less, shape, tops, verdict};
use crate::volume::{train_by_part, Measured};
use crate::Row;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spp_bench::datasets::PAPERS;
use spp_bench::report::fmt_secs;
use spp_core::policies::CachePolicy;
use spp_core::vip_partition::VipRefiner;
use spp_core::VipModel;
use spp_graph::{Dataset, VertexId};
use spp_partition::hierarchical::hierarchical_partition;
use spp_partition::metrics::edge_cut_fraction;
use spp_partition::multilevel::MultilevelPartitioner;
use spp_partition::{simple, Partitioning, VertexWeights};
use spp_runtime::telemetry::stage::PipelineStage;
use spp_runtime::{AccessCounts, DistributedSetup, EpochSim, PipelineSim, SystemSpec};
use spp_sampler::{Fanouts, MinibatchIter, NodeWiseSampler};

pub const ROWS: &[Row] = &[
    Row {
        id: "inference",
        title: "Distributed minibatch inference (fanouts (20,20,20)), papers K=8, with and without cache",
        csv: &["inference"],
        run: inference,
        shapes: &[shape(
            "VIP caching cuts the inference epoch and its communication as it cuts training's",
            |c| {
                let g = c.grid("inference");
                all(g.cols.iter().map(|(col, _)| falls_down(g, col)))
            },
        )],
    },
    Row {
        id: "pipeline_depth",
        title: "Pipeline-depth sweep 1..16 (papers K=8, a=0.32)",
        csv: &["pipeline_depth"],
        run: pipeline_depth,
        shapes: &[shape(
            "most of the benefit arrives by depth 4 (within 5 % of SALIENT++'s depth 10)",
            |c| {
                let g = c.grid("pipeline_depth");
                let (d1, d4) = (g.at("1", "vs depth=10"), g.at("4", "vs depth=10"));
                verdict(d4 <= 1.05 && d1 > 1.5, format!("depth 1 {}, depth 4 {}", times(d1), times(d4)))
            },
        )],
    },
    Row {
        id: "pipeline_stages",
        title: "Appendix D: per-stage busy time of the explicit 10-stage pipeline (papers K=8)",
        csv: &["pipeline_stages"],
        run: pipeline_stages,
        shapes: &[
            shape("without a cache the feature all-to-all (stage 9) is the largest stage", |c| {
                let others = STAGE_NAMES.iter().filter(|s| **s != STAGE_NAMES[8]);
                tops(c.grid("pipeline_stages"), (STAGE_NAMES[8], "a=0"), others.map(|s| (*s, "a=0")))
            }),
            shape("the cache drains stage 9; sampling and the local slice + H2D path (1, 6, 7) are untouched", |c| {
                let g = c.grid("pipeline_stages");
                // "Untouched" as the change column prints it: +0%.
                let untouched = [1, 6, 7].map(|s| {
                    let change = g.at(STAGE_NAMES[s - 1], "a=0.32") / g.at(STAGE_NAMES[s - 1], "a=0") - 1.0;
                    verdict(change.abs() < 0.005, format!("stage {s} {change:+.1e}"))
                });
                all([falls_along(g, STAGE_NAMES[8], 0..2)].into_iter().chain(untouched))
            }),
        ],
    },
    Row {
        id: "partition_ablation",
        title: "Partition quality vs remote volume: random / hash / LDG / multilevel (papers K=8)",
        csv: &["partition_ablation"],
        run: partition_ablation,
        shapes: &[
            shape("a structure-aware partitioner cuts the no-cache volume by itself", |c| {
                let pairs = [("multilevel", "LDG"), ("LDG", "random"), ("LDG", "hash")];
                all(pairs.map(|(a, b)| less(c.grid("partition_ablation"), (a, "no cache"), (b, "no cache"))))
            }),
            // Column 0 is the edge cut.
            shape("VIP caching composes with partition quality at every tier", |c| {
                let g = c.grid("partition_ablation");
                all(g.rows.iter().map(|(label, _)| falls_along(g, label, 1..4)))
            }),
        ],
    },
    Row {
        id: "hierarchical",
        title: "Section 6 future work: hierarchical 4 machines x 2 GPUs vs flat 8-way partitioning",
        csv: &["hierarchical"],
        run: hierarchical,
        shapes: &[shape(
            "hierarchical partitioning lowers the two-tier weighted communication cost",
            |c| {
                let v = falls_down(c.grid("hierarchical"), "weighted comm cost");
                v.map_err(|e| format!("{e} [{}]", c.notes.join("; ")))
            },
        )
        .at_default_scale(
            "not a matter of scale: the row compares two draws of a partitioner whose edge cut \
             varies 2-4x with the seed (ROADMAP item 11), so the verdict follows the draw — \
             0.90x at --quick seed 0, 1.01-1.58x at --quick seeds 1-5; it is reported at \
             default scale, where drift, not shape, gates CI until that item lands",
        )],
    },
    Row {
        id: "vip_partition_ablation",
        title: "Section 6 future work: VIP-aware re-homing of non-training vertices (papers K=8)",
        csv: &["vip_partition_ablation"],
        run: vip_partition_ablation,
        shapes: &[shape(
            "VIP-aware placement lowers measured remote volume with and without a cache on top",
            |c| {
                let g = c.grid("vip_partition_ablation");
                all(g.cols.iter().map(|(col, _)| falls_down(g, col)))
            },
        )],
    },
];

fn inference(ctx: &Ctx) -> Curves {
    let w = &PAPERS;
    let k = 8usize;
    let title = "Distributed inference epoch, papers 8 GPUs, inference fanouts (20,20,20)";
    let cols = ["train epoch", "inference epoch", "infer comm busy"];
    let mut g = Grid::new("inference", title, "config", &cols, fmt_secs);
    for (label, alpha) in [("no cache", 0.0), ("VIP a=0.32", 0.32)] {
        let fanouts = &[20, 20, 20];
        let setup = ctx.setup(Point {
            fanouts,
            ..Point::new(w, k, alpha, 0.5)
        });
        // Inference covers all labeled vertices, routed to their owners.
        let mut streams: Vec<Vec<VertexId>> = vec![Vec::new(); k];
        let split = &setup.dataset.split;
        for &v in split.val.iter().chain(&split.test).chain(&split.train) {
            streams[setup.layout.owner_of(v) as usize].push(v);
        }
        for s in streams.iter_mut() {
            s.sort_unstable();
        }
        let sim = EpochSim::new(&setup, ctx.cost, SystemSpec::pipelined(w.hidden));
        let infer = sim.simulate_inference_epoch(&streams, 0);
        let cells = vec![
            sim.simulate_epoch(0).makespan,
            infer.makespan,
            infer.breakdown.comm / k as f64,
        ];
        g.row(label, cells);
    }
    Curves::of(vec![g])
}

fn pipeline_depth(ctx: &Ctx) -> Curves {
    let w = &PAPERS;
    let epochs = ctx.cli.epochs_or(3);
    let p = Point::new(w, 8, 0.32, 0.1);
    let depths = [1usize, 2, 3, 4, 6, 8, 10, 16];
    let times_at = depths.map(|pipeline_depth| {
        ctx.mean_time(
            p,
            SystemSpec {
                pipeline_depth,
                ..SystemSpec::pipelined(w.hidden)
            },
            epochs,
        )
    });
    let t10 = times_at[depths.iter().position(|&d| d == 10).unwrap()];
    let title = "Pipeline-depth ablation (papers, 8 GPUs, a=0.32)";
    let mut g = Grid::new(
        "pipeline_depth",
        title,
        "depth",
        &["per-epoch time", "vs depth=10"],
        fmt_secs,
    )
    .col_fmt("vs depth=10", times);
    for (depth, time) in depths.iter().zip(times_at) {
        g.row(depth, vec![time, time / t10]);
    }
    Curves::of(vec![g])
}

// Presentation text for the rows; stage identity (ordering, busy-time
// lookup) comes from `PipelineStage`.
pub const STAGE_NAMES: [&str; 10] = [
    "1 sample minibatch (CPU)",
    "2 all-to-all counts (NIC)",
    "3 metadata to CPU (PCIe)",
    "4 all-to-all node lists (NIC)",
    "5 map ids + D2H lists (PCIe)",
    "6 masked select + CPU slice",
    "7 H2D sliced features (PCIe)",
    "8 GPU slice + combine (GPU)",
    "9 all-to-all features (NIC)",
    "10 combine + permute (GPU)",
];

fn pipeline_stages(ctx: &Ctx) -> Curves {
    let w = &PAPERS;
    let k = 8usize;
    let epoch_at = |alpha: f64| {
        let setup = ctx.setup(Point::new(w, k, alpha, 0.5));
        PipelineSim::new(&setup, ctx.cost, w.hidden, 10).simulate_epoch(0)
    };
    let (bare, cached) = (epoch_at(0.0), epoch_at(0.32));
    let title = "Appendix D pipeline: per-stage busy time per machine-epoch (papers, 8 GPUs)";
    let mut g = Grid::new(
        "pipeline_stages",
        title,
        "stage",
        &["a=0", "a=0.32"],
        fmt_secs,
    );
    let busy = |stage| {
        vec![
            bare.busy.get(stage) / k as f64,
            cached.busy.get(stage) / k as f64,
        ]
    };
    let mut change = Vec::new();
    // `PipelineStage::ALL` lists the ten Appendix-D stages first.
    for (name, stage) in STAGE_NAMES.into_iter().zip(PipelineStage::ALL) {
        let b = busy(stage);
        change.push(format!("{:+.0}%", 100.0 * (b[1] - b[0]) / b[0].max(1e-12)));
        g.row(name, b);
    }
    // Training and gradient sync do not depend on where features come from.
    for (name, stage) in [
        ("train (GPU)", PipelineStage::Train),
        ("gradient all-reduce", PipelineStage::AllReduce),
    ] {
        change.push("0%".to_string());
        g.row(name, busy(stage));
    }
    g.text.push(("change", change));
    let makespan = format!(
        "epoch makespan: a=0 {} -> a=0.32 {} ({} rounds)",
        fmt_secs(bare.makespan),
        fmt_secs(cached.makespan),
        bare.rounds
    );
    Curves {
        grids: vec![g],
        notes: vec![makespan],
    }
}

fn partition_ablation(ctx: &Ctx) -> Curves {
    let w = &PAPERS;
    let ds = ctx.dataset(w);
    let (k, seed) = (8usize, ctx.cli.seed);
    let fanouts = Fanouts::new(w.fanouts.to_vec());
    let epochs = ctx.cli.epochs_or(2);
    let weights = VertexWeights::from_dataset(&ds);
    let multilevel = MultilevelPartitioner::new(k)
        .seed(seed)
        .partition(&ds.graph, &weights);
    let parts = [
        (
            "random",
            simple::random_partition(ds.num_vertices(), k, seed),
        ),
        ("hash", simple::hash_partition(ds.num_vertices(), k)),
        ("LDG", simple::ldg_partition(&ds.graph, k, &weights)),
        ("multilevel", multilevel),
    ];
    let title = "Partition ablation: edge cut and per-epoch remote volume (papers, K=8)";
    let cols = ["edge cut", "no cache", "VIP a=0.16", "VIP a=0.32"];
    let mut g = Grid::new("partition_ablation", title, "partitioner", &cols, count)
        .col_fmt("edge cut", percent);
    for (name, part) in &parts {
        let train = train_by_part(&ds, part);
        let counts = AccessCounts::measure(&ds.graph, &train, &fanouts, w.batch, epochs, seed);
        let run = Measured {
            ds: &ds,
            part,
            train: &train,
            fanouts: &fanouts,
            counts: &counts,
        };
        let vip = run.rankings(CachePolicy::VipAnalytic, seed);
        let cells = vec![
            edge_cut_fraction(&ds.graph, part),
            counts.no_cache_volume(part),
            run.cached_volume(&vip, 0.16),
            run.cached_volume(&vip, 0.32),
        ];
        g.row(name, cells);
    }
    Curves::of(vec![g])
}

/// Sampled remote accesses per epoch under `part`, split into
/// (same machine, other machine); `gpus` consecutive parts share a machine.
fn traffic_by_locality(
    ds: &Dataset,
    part: &Partitioning,
    gpus: u32,
    epochs: usize,
    seed: u64,
) -> (f64, f64) {
    let (mut intra, mut inter) = (0u64, 0u64);
    for (p, t) in train_by_part(ds, part).iter().enumerate() {
        let sampler = NodeWiseSampler::new(&ds.graph, Fanouts::new(PAPERS.fanouts.to_vec()));
        let mut rng = StdRng::seed_from_u64(seed ^ (p as u64) << 7);
        for e in 0..epochs {
            for b in MinibatchIter::new(t, PAPERS.batch, seed ^ p as u64, e as u64) {
                for &v in &sampler.sample(&b, &mut rng).nodes {
                    let vp = part.part_of(v);
                    if vp == p as u32 {
                        continue;
                    }
                    if vp / gpus == p as u32 / gpus {
                        intra += 1;
                    } else {
                        inter += 1;
                    }
                }
            }
        }
    }
    (intra as f64 / epochs as f64, inter as f64 / epochs as f64)
}

fn hierarchical(ctx: &Ctx) -> Curves {
    let ds = ctx.dataset(&PAPERS);
    let (machines, gpus, seed) = (4usize, 2usize, ctx.cli.seed);
    let epochs = ctx.cli.epochs_or(2);
    let weights = VertexWeights::from_dataset(&ds);
    let hier = hierarchical_partition(&ds.graph, &weights, machines, gpus, seed);
    let flat = MultilevelPartitioner::new(machines * gpus)
        .seed(seed)
        .partition(&ds.graph, &weights);
    let title =
        "Hierarchical partitioning: remote accesses/epoch by locality (4 machines x 2 GPUs)";
    let cols = ["intra-machine", "inter-machine", "weighted comm cost"];
    let mut g = Grid::new("hierarchical", title, "partitioning", &cols, count);
    let mut cuts = Vec::new();
    for (name, part) in [("flat 8-way", &flat), ("hierarchical 4x2", &hier.flat)] {
        let (intra, inter) = traffic_by_locality(&ds, part, gpus as u32, epochs, seed ^ 9);
        // Two-tier interconnect: intra-machine links 10x the network rate.
        g.row(name, vec![intra, inter, inter + intra / 10.0]);
        cuts.push(format!(
            "{name} {}",
            percent(edge_cut_fraction(&ds.graph, part))
        ));
    }
    Curves {
        grids: vec![g],
        notes: vec![format!("edge cut: {}", cuts.join(", "))],
    }
}

fn vip_partition_ablation(ctx: &Ctx) -> Curves {
    let w = &PAPERS;
    let ds = ctx.dataset(w);
    let fanouts = Fanouts::new(w.fanouts.to_vec());
    let epochs = ctx.cli.epochs_or(2);
    let (base, train) = DistributedSetup::partition(&ds, &ctx.config(Point::new(w, 8, 0.0, 0.0)));
    let weights = VertexWeights::from_dataset(&ds);
    let vip = VipModel::new(fanouts.clone(), w.batch).partition_scores(&ds.graph, &train);
    let epoch_weight: Vec<f64> = train
        .iter()
        .map(|t| t.len().div_ceil(w.batch) as f64)
        .collect();
    // Labeled vertices stay where the partitioner balanced them.
    let mut protected = vec![false; ds.num_vertices()];
    let split = &ds.split;
    for &v in split.train.iter().chain(&split.val).chain(&split.test) {
        protected[v as usize] = true;
    }
    let refiner = VipRefiner::new().balance_tolerance(1.10);
    let (refined, moves) = refiner.refine(&base, &weights, &vip, &epoch_weight, &protected);

    let title = "VIP-aware partitioning ablation: measured remote vertices/epoch (papers, K=8)";
    let mut g = Grid::new(
        "vip_partition_ablation",
        title,
        "partitioning",
        &["no cache", "VIP cache a=0.16"],
        count,
    );
    // Both placements are measured on the base partitioning's minibatch
    // streams: only where the sampled vertices live differs.
    let seed = ctx.cli.seed ^ 5;
    let counts = AccessCounts::measure(&ds.graph, &train, &fanouts, w.batch, epochs, seed);
    for (name, part) in [("multilevel", &base), ("+ VIP re-homing", &refined)] {
        let run = Measured {
            ds: &ds,
            part,
            train: &train,
            fanouts: &fanouts,
            counts: &counts,
        };
        let vip = run.rankings(CachePolicy::VipAnalytic, seed);
        g.row(
            name,
            vec![counts.no_cache_volume(part), run.cached_volume(&vip, 0.16)],
        );
    }
    let note = format!(
        "VIP-aware re-homing applied {moves} moves; edge cut {} -> {}",
        percent(edge_cut_fraction(&ds.graph, &base)),
        percent(edge_cut_fraction(&ds.graph, &refined))
    );
    Curves {
        grids: vec![g],
        notes: vec![note],
    }
}
