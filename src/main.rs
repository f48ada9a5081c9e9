//! `salientpp` — end-to-end command-line driver.
//!
//! Mirrors the paper artifact's experiment workflow as a single tool:
//! generate (or load) a dataset, partition it, run VIP analysis, train
//! distributed, or simulate per-epoch timing for any system variant.
//!
//! ```text
//! salientpp generate --dataset papers --scale 0.5 --out papers.sppd
//! salientpp partition --input papers.sppd -k 8
//! salientpp analyze  --input papers.sppd -k 8 --alpha 0.32
//! salientpp train    --input papers.sppd -k 4 --epochs 5
//! salientpp simulate --input papers.sppd -k 8 --alpha 0.32 --system salient++
//! ```

use salientpp::prelude::*;
use salientpp::telemetry::PipelineStage as S;
use spp_runtime::SystemSpec;
use std::collections::HashMap;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: salientpp <command> [flags]\n\
         commands:\n\
           generate  --dataset <products|papers|mag240> [--scale f] [--seed n] --out <file>\n\
           stats     --input <file>\n\
           partition --input <file> [-k n] [--seed n]\n\
           analyze   --input <file> [-k n] [--alpha f] [--fanouts a,b,c] [--batch n]\n\
           train     --input <file> [-k n] [--epochs n] [--hidden n] [--lr f]\n\
           simulate  --input <file> [-k n] [--alpha f] [--system salient|partitioned|pipelined|salient++|distdgl]\n\
         run `salientpp <command> --help` is not needed: all flags shown above."
    );
    std::process::exit(2);
}

struct Flags(HashMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Self {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let key = a.trim_start_matches('-').to_string();
            if !a.starts_with('-') {
                eprintln!("unexpected argument {a}");
                usage();
            }
            let val = it.next().cloned().unwrap_or_else(|| {
                eprintln!("flag {a} needs a value");
                usage();
            });
            map.insert(key, val);
        }
        Flags(map)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.get(key) {
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("flag --{key} has an invalid value: {v}");
                std::process::exit(2);
            }),
            None => default,
        }
    }

    fn required(&self, key: &str) -> &str {
        self.get(key).unwrap_or_else(|| {
            eprintln!("missing required flag --{key}");
            usage();
        })
    }
}

fn load_dataset(flags: &Flags) -> Dataset {
    let path = flags.required("input");
    match Dataset::load(path) {
        Ok(ds) => ds,
        Err(e) => {
            eprintln!("cannot load {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn parse_quant(flags: &Flags, key: &str) -> spp_graph::QuantScheme {
    match flags.get(key) {
        Some(s) => spp_graph::QuantScheme::parse(s).unwrap_or_else(|| {
            eprintln!("flag --{key} must be f32, f16, or i8 (got {s})");
            std::process::exit(2);
        }),
        None => spp_graph::QuantScheme::F32,
    }
}

fn parse_fanouts(flags: &Flags, default: &[usize]) -> Fanouts {
    match flags.get("fanouts") {
        Some(s) => Fanouts::new(
            s.split(',')
                .map(|x| {
                    x.trim().parse().unwrap_or_else(|_| {
                        eprintln!("bad fanout entry {x}");
                        std::process::exit(2);
                    })
                })
                .collect(),
        ),
        None => Fanouts::new(default.to_vec()),
    }
}

fn cmd_generate(flags: &Flags) {
    let scale: f64 = flags.num("scale", 1.0);
    let seed: u64 = flags.num("seed", 0);
    let which = flags.required("dataset");
    let ds = match which {
        "products" => products_sim(scale, seed),
        "papers" => papers_sim(scale, seed),
        "mag240" => mag240_sim(scale, seed),
        other => {
            eprintln!("unknown dataset {other} (products|papers|mag240)");
            std::process::exit(2);
        }
    };
    let out = flags.required("out");
    if let Err(e) = ds.save(out) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!(
        "wrote {out}: {} — {} vertices, {} edges, {} features, {} classes, \
         {}/{}/{} train/val/test",
        ds.name,
        ds.num_vertices(),
        ds.graph.num_edges() / 2,
        ds.features.dim(),
        ds.num_classes,
        ds.split.train.len(),
        ds.split.val.len(),
        ds.split.test.len()
    );
}

fn cmd_stats(flags: &Flags) {
    let ds = load_dataset(flags);
    println!("{}:", ds.name);
    println!(
        "  {}",
        salientpp::graph::stats::GraphStats::compute(&ds.graph)
    );
    println!(
        "  features: {} x {} ({:.1} MB); classes: {}; splits: {}/{}/{}",
        ds.features.num_rows(),
        ds.features.dim(),
        ds.feature_bytes() as f64 / 1e6,
        ds.num_classes,
        ds.split.train.len(),
        ds.split.val.len(),
        ds.split.test.len()
    );
}

fn cmd_partition(flags: &Flags) {
    let ds = load_dataset(flags);
    let k: usize = flags.num("k", 8);
    let seed: u64 = flags.num("seed", 0);
    let w = VertexWeights::from_dataset(&ds);
    let t0 = salientpp::telemetry::clock_ns();
    let part = MultilevelPartitioner::new(k)
        .seed(seed)
        .partition(&ds.graph, &w);
    let dt = std::time::Duration::from_nanos(salientpp::telemetry::clock_ns().saturating_sub(t0));
    let imb = spp_partition::metrics::imbalance(&part, &w);
    println!(
        "{k}-way multilevel partition in {dt:.2?}: edge cut {:.2}%, sizes {:?}",
        100.0 * spp_partition::metrics::edge_cut_fraction(&ds.graph, &part),
        part.sizes()
    );
    println!(
        "imbalance (vertices/train/val/edges): {:.3} / {:.3} / {:.3} / {:.3}",
        imb[0], imb[1], imb[2], imb[3]
    );
}

fn cmd_analyze(flags: &Flags) {
    let ds = load_dataset(flags);
    let k: usize = flags.num("k", 8);
    let alpha: f64 = flags.num("alpha", 0.32);
    let batch: usize = flags.num("batch", 8);
    let fanouts = parse_fanouts(flags, &[15, 10, 5]);
    let setup = DistributedSetup::build(
        &ds,
        SetupConfig {
            num_machines: k,
            fanouts: fanouts.clone(),
            batch_size: batch,
            policy: CachePolicy::VipAnalytic,
            alpha,
            beta: 0.5,
            cache_scheme: parse_quant(flags, "quant"),
            vip_reorder: true,
            seed: flags.num("seed", 0),
        },
    );
    println!(
        "{} on {k} machines, fanouts {fanouts}, alpha {alpha}:",
        ds.name
    );
    println!(
        "  memory = {:.2}x unreplicated features (full replication would be {k}.00x)",
        setup.memory_multiple()
    );
    for (m, store) in setup.stores.iter().enumerate() {
        println!(
            "  machine {m}: {} local ({} on GPU), {} cached remote, {} train vertices",
            setup.layout.part_range(m as u32).len(),
            store.gpu_rows(),
            store.cache().len(),
            setup.local_train[m].len()
        );
    }
}

fn cmd_train(flags: &Flags) {
    let ds = load_dataset(flags);
    let k: usize = flags.num("k", 4);
    let epochs: usize = flags.num("epochs", 5);
    let hidden: usize = flags.num("hidden", 32);
    let lr: f32 = flags.num("lr", 0.005);
    let fanouts = parse_fanouts(flags, &[10, 5]);
    let setup = DistributedSetup::build(
        &ds,
        SetupConfig {
            num_machines: k,
            fanouts,
            batch_size: flags.num("batch", 64),
            policy: CachePolicy::VipAnalytic,
            alpha: flags.num("alpha", 0.32),
            beta: 0.5,
            cache_scheme: parse_quant(flags, "quant"),
            vip_reorder: true,
            seed: flags.num("seed", 0),
        },
    );
    let trainer = DistributedTrainer::new(
        &setup,
        spp_runtime::DistTrainConfig {
            hidden_dim: hidden,
            lr,
            epochs,
            seed: flags.num("seed", 0),
            ..spp_runtime::DistTrainConfig::default()
        },
    );
    println!("training on {k} machine-threads …");
    let (report, _) = trainer.train();
    for (e, loss) in report.epoch_losses.iter().enumerate() {
        println!("  epoch {e}: mean loss {loss:.4}");
    }
    println!(
        "val accuracy {:.3}, test accuracy {:.3}, remote fetches {}",
        report.val_accuracy, report.test_accuracy, report.remote_fetches
    );
}

fn cmd_simulate(flags: &Flags) {
    let ds = load_dataset(flags);
    let k: usize = flags.num("k", 8);
    let alpha: f64 = flags.num("alpha", 0.32);
    let hidden: usize = flags.num("hidden", 256);
    let system = flags.get("system").unwrap_or("salient++");
    let fanouts = parse_fanouts(flags, &[15, 10, 5]);
    let (spec, use_cache) = match system {
        "salient" => (SystemSpec::salient(hidden), false),
        "partitioned" => (SystemSpec::partitioned(hidden), false),
        "pipelined" => (SystemSpec::pipelined(hidden), false),
        "salient++" => (SystemSpec::pipelined(hidden), true),
        "distdgl" => (SystemSpec::distdgl(hidden), false),
        other => {
            eprintln!("unknown system {other}");
            std::process::exit(2);
        }
    };
    let setup = DistributedSetup::build(
        &ds,
        SetupConfig {
            num_machines: k,
            fanouts,
            batch_size: flags.num("batch", 8),
            policy: if use_cache {
                CachePolicy::VipAnalytic
            } else {
                CachePolicy::None
            },
            alpha: if use_cache { alpha } else { 0.0 },
            beta: flags.num("beta", 0.5),
            cache_scheme: parse_quant(flags, "quant"),
            vip_reorder: true,
            seed: flags.num("seed", 0),
        },
    );
    let sim = EpochSim::new(&setup, CostModel::mini_calibrated(), spec);
    let t = sim.simulate_epoch(0);
    println!(
        "{system} on {k} machines: simulated per-epoch {:.2} ms over {} rounds \
         (startup {:.2} ms)",
        t.makespan * 1e3,
        t.rounds,
        t.startup * 1e3
    );
    let b = &t.busy;
    println!(
        "per-machine busy (ms): sample {:.2}, slice {:.2}, serve {:.2}, comm {:.2}, \
         h2d {:.2}, train {:.2}, allreduce {:.2}",
        b.get(S::Sample) / k as f64 * 1e3,
        b.get(S::HostSlice) / k as f64 * 1e3,
        b.serve() / k as f64 * 1e3,
        b.get(S::FeatureExchange) / k as f64 * 1e3,
        b.get(S::H2d) / k as f64 * 1e3,
        b.get(S::Train) / k as f64 * 1e3,
        b.get(S::AllReduce) / k as f64 * 1e3
    );
}

fn main() -> ExitCode {
    // SPP_TRACE=1 turns on the telemetry recorder for the whole run;
    // traces land in results/trace_<command>.{json,jsonl}.
    let traced = salientpp::telemetry::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let flags = Flags::parse(&args[1..]);
    match cmd.as_str() {
        "generate" => cmd_generate(&flags),
        "stats" => cmd_stats(&flags),
        "partition" => cmd_partition(&flags),
        "analyze" => cmd_analyze(&flags),
        "train" => cmd_train(&flags),
        "simulate" => cmd_simulate(&flags),
        _ => usage(),
    }
    if traced {
        print!("{}", salientpp::telemetry::summary());
        match salientpp::telemetry::write_trace_files(std::path::Path::new("results"), cmd) {
            Ok(paths) => {
                for p in paths {
                    println!("trace written: {}", p.display());
                }
            }
            Err(e) => eprintln!("cannot write trace files: {e}"),
        }
    }
    ExitCode::SUCCESS
}
