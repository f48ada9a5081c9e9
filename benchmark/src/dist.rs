//! `dist_exchange`: data-parallel training over two machine threads —
//! the only workload where the partitioned store's plan/serve/gather, the
//! all-to-all and the gradient all-gather run, and the one that carries
//! the paper's headline number, bytes on the wire.

use crate::harness::{Harness, PassResult, DEGREE_TAIL, TRACED_PASSES};
use crate::layers::{self, count_mfg};
use crate::stats::ratio;
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use salientpp::core::policies::CachePolicy;
use salientpp::gnn::{Arch, GnnModel, MODEL_STREAM_SALT};
use salientpp::graph::dataset::SyntheticSpec;
use salientpp::graph::{quant, Dataset, FeatureMatrix, QuantScheme, VertexId};
use salientpp::partition::metrics::edge_cut_fraction;
use salientpp::runtime::{
    CostModel, DistTrainConfig, DistributedSetup, DistributedTrainReport, DistributedTrainer,
    EpochSim, SetupConfig, SystemSpec,
};
use salientpp::sampler::{batch_stream_seed, Fanouts, MinibatchIter, NodeWiseSampler};
use salientpp::tensor::{Adam, Optimizer};
use std::sync::Arc;
use std::time::Instant;

const MACHINES: usize = 2;
const ALPHA: f64 = 0.16;
const EPOCHS: usize = 2;

/// products-shaped: 24 k vertices, average degree 51, 100 features, split
/// 5 % / 0.2 % / 0.2 % (1 200 training targets per epoch).
pub fn dataset(seed: u64) -> Dataset {
    SyntheticSpec::new("products-shaped", 24_000, 51.0, 100, 16)
        .split_fractions(0.05, 0.002, 0.002)
        .homophily(0.9)
        .degree_tail(DEGREE_TAIL)
        .seed(seed)
        .build()
}

fn setup_config(seed: u64, policy: CachePolicy, alpha: f64) -> SetupConfig {
    SetupConfig {
        num_machines: MACHINES,
        fanouts: Fanouts::new(vec![15, 10, 5]),
        batch_size: 128,
        policy,
        alpha,
        beta: 0.5,
        cache_scheme: QuantScheme::F32,
        vip_reorder: true,
        seed,
    }
}

fn train_config(seed: u64, epochs: usize) -> DistTrainConfig {
    DistTrainConfig {
        arch: Arch::Sage,
        hidden_dim: 64,
        lr: 0.01,
        epochs,
        seed,
        wire_scheme: QuantScheme::F16,
    }
}

/// What must repeat exactly from pass to pass.
fn fingerprint(r: &DistributedTrainReport) -> (Vec<u64>, usize, u64) {
    (
        r.epoch_losses.iter().map(|l| l.to_bits()).collect(),
        r.remote_fetches,
        r.comm.total_bytes(),
    )
}

pub fn run(h: &mut Harness) {
    let seed = h.args.seed;
    let trace = h.args.trace;
    let cfg = setup_config(seed, CachePolicy::VipAnalytic, ALPHA);
    let (ds, setup) = h.setup(|st| {
        let ds = st.time("graph.dataset_build_s", || dataset(seed));
        if trace {
            layers::time_partition_and_rank(st, &ds, &cfg);
        }
        let setup = st.time("runtime.setup_build_s", || {
            DistributedSetup::build(&ds, cfg.clone())
        });
        (ds, setup)
    });
    let tcfg = train_config(seed, EPOCHS);
    let trainer = DistributedTrainer::new(&setup, tcfg.clone());
    let targets = (EPOCHS * ds.split.train.len()) as u64;
    let verified = trainer.verify_gather(seed);
    h.out.check(
        verified > 0,
        format!("verify_gather compared {verified} gathered rows with the dataset"),
    );

    // A pass trains a fresh model for two epochs and evaluates it, so
    // every pass does identical work.
    let (reference, _) = trainer.train();
    check_losses(h, &reference);
    if trace {
        return run_traced(h, &ds, &setup, &tcfg, &reference);
    }
    let mut drifted = 0u64;
    h.timed_phase(|| {
        let (report, _) = trainer.train();
        let same = fingerprint(&report) == fingerprint(&reference);
        drifted += u64::from(!same);
        let finite = report.epoch_losses.iter().all(|l| l.is_finite());
        PassResult {
            attempted: targets,
            failed: if same && finite { 0 } else { targets },
        }
    });
    h.out.check(
        drifted == 0,
        format!("losses, remote fetches and comm bytes identical on every pass ({drifted} differ)"),
    );
}

fn check_losses(h: &mut Harness, r: &DistributedTrainReport) {
    let (first, last) = (r.epoch_losses[0], r.epoch_losses[EPOCHS - 1]);
    h.out.check(
        r.epoch_losses.iter().all(|l| l.is_finite()),
        "all epoch losses finite",
    );
    h.out.check(
        last < first / 2.0,
        format!("last-epoch loss {last:.4} < half the first {first:.4}"),
    );
}

/// Byte and row tallies of one replayed pass.
#[derive(Default, Debug, PartialEq)]
struct Tally {
    wire_bytes: u64,
    grad_bytes: u64,
    remote_rows: usize,
    cached_rows: usize,
    /// Scalars in one gradient (all parameters, flattened).
    grad_floats: usize,
}

/// One pass of `DistributedTrainer::train`, driven by the harness on one
/// thread: both ranks' work for a round runs back to back, on the RNG
/// streams the engine derives, so the losses must match the engine's bit
/// for bit. Returns rank 0's epoch losses and the tallies.
fn replay_pass(
    tr: &Tracer,
    setup: &DistributedSetup,
    cfg: &DistTrainConfig,
    trainer: &DistributedTrainer<'_>,
) -> (Vec<f64>, Tally) {
    let ds = &setup.dataset;
    let k = setup.num_machines();
    let mut dims = vec![ds.features.dim()];
    dims.extend(std::iter::repeat_n(
        cfg.hidden_dim,
        setup.config.fanouts.num_hops() - 1,
    ));
    dims.push(ds.num_classes);
    let mut replicas: Vec<(GnnModel, Adam)> = (0..k)
        .map(|_| (GnnModel::new(cfg.arch, &dims, cfg.seed), Adam::new(cfg.lr)))
        .collect();
    let sampler = NodeWiseSampler::new(&ds.graph, setup.config.fanouts.clone());
    let sample_seed = |rank: usize| cfg.seed ^ ((rank as u64) << 32);
    let row_bytes = cfg.wire_scheme.row_bytes(ds.features.dim());
    let mut tally = Tally::default();
    let mut epoch_losses = Vec::new();

    for epoch in 0..cfg.epochs as u64 {
        let batches: Vec<Vec<Vec<VertexId>>> = (0..k)
            .map(|rank| {
                MinibatchIter::new(
                    &setup.local_train[rank],
                    setup.config.batch_size,
                    setup.config.seed ^ rank as u64,
                    epoch,
                )
                .collect()
            })
            .collect();
        let (mut loss_sum, mut loss_rounds) = (0.0f64, 0usize);
        for round in 0..setup.rounds_per_epoch() {
            // Sample and classify.
            let mfgs: Vec<_> = (0..k)
                .map(|rank| {
                    batches[rank].get(round).map(|batch| {
                        let mut rng = StdRng::seed_from_u64(batch_stream_seed(
                            sample_seed(rank),
                            epoch,
                            round as u64,
                        ));
                        tr.span(layers::SAMPLE, round, || sampler.sample(batch, &mut rng))
                    })
                })
                .collect();
            let plans: Vec<_> = (0..k)
                .map(|rank| {
                    mfgs[rank]
                        .as_ref()
                        .map(|m| tr.span(layers::PLAN, round, || setup.stores[rank].plan(&m.nodes)))
                })
                .collect();

            // Owners serve what their peers asked for.
            let mut responses: Vec<Vec<Option<FeatureMatrix>>> =
                (0..k).map(|_| (0..k).map(|_| None).collect()).collect();
            for (rank, plan) in plans.iter().enumerate() {
                let Some(plan) = plan else { continue };
                tally.remote_rows += plan.num_remote();
                tally.cached_rows += plan.cached.len();
                for (owner, reqs) in plan.remote.iter().enumerate() {
                    if reqs.is_empty() {
                        continue;
                    }
                    let ids: Vec<VertexId> = reqs.iter().map(|&(_, v)| v).collect();
                    let rows = tr.span(layers::SERVE, round, || {
                        let mut f = setup.stores[owner].serve(&ids);
                        for r in 0..f.num_rows() {
                            quant::wire_roundtrip(f.row_mut(r as VertexId), cfg.wire_scheme);
                        }
                        f
                    });
                    tally.wire_bytes += (4 * ids.len() + rows.num_rows() * row_bytes) as u64;
                    responses[rank][owner] = Some(rows);
                }
            }

            // Gather, forward, backward on each rank's replica.
            let mut grads: Vec<Option<Vec<f32>>> = vec![None; k];
            let mut rank0_loss = None;
            for rank in 0..k {
                let Some(mfg) = &mfgs[rank] else { continue };
                let x = tr.span(layers::GATHER, round, || {
                    setup.stores[rank].gather(&mfg.nodes, |owner, _| {
                        responses[rank][owner as usize]
                            .take()
                            .expect("one response per owner in the plan")
                    })
                });
                let labels: Arc<Vec<u32>> =
                    Arc::new(mfg.seeds().iter().map(|&v| ds.labels[v as usize]).collect());
                let mut model_rng = StdRng::seed_from_u64(batch_stream_seed(
                    sample_seed(rank) ^ MODEL_STREAM_SALT,
                    epoch,
                    round as u64,
                ));
                let model = &mut replicas[rank].0;
                let (mut fwd, loss) = tr.span(layers::FORWARD, round, || {
                    let mut fwd = model.forward(x, mfg, true, &mut model_rng);
                    let loss = fwd.tape.softmax_cross_entropy(fwd.logits, labels);
                    (fwd, loss)
                });
                if rank == 0 {
                    rank0_loss = Some(f64::from(fwd.tape.value(loss).get(0, 0)));
                }
                tr.span(layers::BACKWARD, round, || {
                    fwd.tape.backward(loss);
                    model.accumulate_grads(&fwd);
                });
                let mut flat = Vec::new();
                for p in model.params_mut() {
                    flat.extend_from_slice(p.grad.as_flat());
                    p.zero_grad();
                }
                tally.grad_bytes += (4 * flat.len() * (k - 1)) as u64;
                tally.grad_floats = flat.len();
                grads[rank] = Some(flat);
                count_mfg(tr, mfg, &dims, true);
                tr.count(layers::TAPE_NODES, fwd.tape.len());
            }

            // Average in rank order (the engine's all-gather order) and
            // step every replica.
            let contributors = grads.iter().flatten().count();
            let mut sum: Option<Vec<f32>> = None;
            for g in grads.into_iter().flatten() {
                match &mut sum {
                    Some(s) => s.iter_mut().zip(&g).for_each(|(a, b)| *a += b),
                    None => sum = Some(g),
                }
            }
            let Some(mut mean) = sum else { continue };
            let inv = 1.0 / contributors as f32;
            mean.iter_mut().for_each(|v| *v *= inv);
            for (model, opt) in &mut replicas {
                let mut params = model.params_mut();
                let mut offset = 0;
                for p in params.iter_mut() {
                    let len = p.grad.as_flat().len();
                    p.grad
                        .as_flat_mut()
                        .copy_from_slice(&mean[offset..offset + len]);
                    offset += len;
                }
                tr.span(layers::ADAM, round, || opt.step(&mut params));
            }
            if let Some(l) = rank0_loss {
                loss_sum += l;
                loss_rounds += 1;
            }
        }
        epoch_losses.push(ratio(loss_sum, loss_rounds as f64));
    }
    tally.wire_bytes += tally.grad_bytes;
    tr.span(layers::EVALUATE, 0, || {
        let model = &replicas[0].0;
        std::hint::black_box(trainer.evaluate(model, &ds.split.val));
        std::hint::black_box(trainer.evaluate(model, &ds.split.test));
    });
    (epoch_losses, tally)
}

fn run_traced(
    h: &mut Harness,
    ds: &Dataset,
    setup: &DistributedSetup,
    cfg: &DistTrainConfig,
    reference: &DistributedTrainReport,
) {
    let trainer = DistributedTrainer::new(setup, cfg.clone());
    let (_, untraced_s) = h.baseline_passes(|| trainer.train());

    // The engine always runs its machines on threads, so the untraced
    // pass "at the same single worker" is the harness's own serial
    // replay with the recorder off.
    h.tracer.set_recording(false);
    let (_, serial_untraced_s) = h
        .tracer
        .pass(0, || replay_pass(&h.tracer, setup, cfg, &trainer));
    h.tracer.set_recording(true);

    let mut traced_s = Vec::new();
    let mut replays = Vec::new();
    for pass in 0..TRACED_PASSES {
        let (replay, secs) = h
            .tracer
            .pass(pass, || replay_pass(&h.tracer, setup, cfg, &trainer));
        replays.push(replay);
        traced_s.push(secs);
    }
    let (losses, tally) = &replays[0];
    let targets = (cfg.epochs * ds.split.train.len()) as f64;
    h.out.attempted = u64::from(TRACED_PASSES) * targets as u64;
    h.out.check(
        replays.iter().all(|r| r == &replays[0]),
        "replayed passes identical",
    );
    h.out.check(
        losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>() == fingerprint(reference).0,
        format!(
            "replayed epoch losses {losses:?} bit-equal to the engine's {:?}",
            reference.epoch_losses
        ),
    );
    h.out.check(
        tally.remote_rows == reference.remote_fetches
            && tally.wire_bytes == reference.comm.total_bytes(),
        format!(
            "replay fetched {} rows / {} wire bytes; engine {} / {}",
            tally.remote_rows,
            tally.wire_bytes,
            reference.remote_fetches,
            reference.comm.total_bytes()
        ),
    );

    // The same deployment without a cache, one epoch each.
    let nocache = DistributedSetup::build(ds, setup_config(cfg.seed, CachePolicy::None, 0.0));
    let (nocache_report, _) = DistributedTrainer::new(&nocache, train_config(cfg.seed, 1)).train();
    let epoch0_bytes: u64 = reference.comm.windows[0].bytes.iter().sum();

    let t0 = Instant::now();
    let sim = EpochSim::new(
        setup,
        CostModel::mini_calibrated(),
        SystemSpec::partitioned(cfg.hidden_dim),
    )
    .simulate_epoch(0);
    let sim_wall_s = t0.elapsed().as_secs_f64();

    layers::set_span_metrics(h);
    let stage_sum_s = h.tracer.stage_sum_s() / f64::from(TRACED_PASSES);
    let wire = reference.comm.total_bytes() as f64;
    let grad_floats = tally.grad_floats;
    let out = &mut h.out;
    out.set(
        "partition.edge_cut_ratio",
        edge_cut_fraction(&ds.graph, &setup.partitioning),
    );
    out.set(
        "core.cache_hit_ratio",
        ratio(
            tally.cached_rows as f64,
            (tally.cached_rows + tally.remote_rows) as f64,
        ),
    );
    out.set(
        "core.remote_rows_per_target",
        tally.remote_rows as f64 / targets,
    );
    out.set(
        "core.wire_reduction_vs_nocache",
        ratio(
            epoch0_bytes as f64,
            nocache_report.comm.total_bytes() as f64,
        ),
    );
    out.set("comm.bytes_per_epoch", wire / cfg.epochs as f64);
    out.set("comm.grad_bytes_share", tally.grad_bytes as f64 / wire);
    out.set("comm.wire_bytes_per_target", wire / targets);
    out.set("runtime.pass_over_stage_sum", untraced_s / stage_sum_s);
    out.set("runtime.sim_epoch_virtual_ms", sim.makespan * 1e3);
    out.set("runtime.sim_wall_ms", sim_wall_s * 1e3);
    out.set("gnn.final_loss", reference.epoch_losses[cfg.epochs - 1]);
    h.out
        .set("comm.exchange_us_p50", layers::exchange_us_p50(grad_floats));
    h.finish_traced(serial_untraced_s, &traced_s);
}
