//! `train_compute`: single-machine minibatch training where the tape's
//! forward, backward and Adam are nearly all of a pass.

use crate::harness::{Harness, PassResult, DEGREE_TAIL, TRACED_PASSES};
use crate::layers::{self, count_mfg};
use rand::rngs::StdRng;
use rand::SeedableRng;
use salientpp::gnn::{Arch, GnnModel, TrainConfig, Trainer, MODEL_STREAM_SALT};
use salientpp::graph::dataset::SyntheticSpec;
use salientpp::graph::Dataset;
use salientpp::sampler::{batch_stream_seed, Fanouts, MinibatchIter, NodeWiseSampler};
use salientpp::tensor::{Adam, Optimizer};
use std::sync::Arc;

/// papers100M-shaped: 55 k vertices, average degree 29, 64 features, 32
/// classes, 1.39 % training vertices (764 targets, 3 batches of 256).
pub fn dataset(seed: u64) -> Dataset {
    SyntheticSpec::new("papers-shaped", 55_000, 29.0, 64, 32)
        .split_fractions(0.0139, 0.0011, 0.0019)
        .homophily(0.93)
        .degree_tail(DEGREE_TAIL)
        .seed(seed)
        .build()
}

fn config(seed: u64, workers: usize) -> TrainConfig {
    TrainConfig {
        arch: Arch::Sage,
        hidden_dim: 256,
        fanouts: Fanouts::new(vec![15, 10, 5]),
        batch_size: 256,
        lr: 0.003,
        seed,
        workers: Some(workers),
        ..TrainConfig::default()
    }
}

/// Targets of an epoch whose mean loss is `loss`: all of them fail when
/// it is not finite.
fn epoch_result(targets: u64, loss: f64) -> PassResult {
    PassResult {
        attempted: targets,
        failed: if loss.is_finite() { 0 } else { targets },
    }
}

pub fn run(h: &mut Harness) {
    let seed = h.args.seed;
    let ds = h.setup(|st| st.time("graph.dataset_build_s", || dataset(seed)));
    let cfg = config(seed, h.workers());
    let targets = ds.split.train.len() as u64;
    if h.args.trace {
        return run_traced(h, &ds, &cfg);
    }

    // A pass is one epoch; epochs continue on one model, so every pass
    // does the same amount of work on a different sample.
    let mut trainer = Trainer::new(&ds, cfg.clone());
    let mut opt = Adam::new(cfg.lr);
    let mut losses = vec![trainer.train_epoch(&mut opt, 0).loss];
    h.timed_phase(|| {
        let loss = trainer.train_epoch(&mut opt, losses.len() as u64).loss;
        losses.push(loss);
        epoch_result(targets, loss)
    });
    check_losses(h, &losses);
}

fn check_losses(h: &mut Harness, losses: &[f64]) {
    let (first, last) = (losses[0], losses[losses.len() - 1]);
    h.out.check(
        losses.iter().all(|l| l.is_finite()),
        format!("all {} epoch losses finite", losses.len()),
    );
    h.out.check(
        last < first / 2.0,
        format!("last-epoch loss {last:.4} < half the first {first:.4}"),
    );
}

fn run_traced(h: &mut Harness, ds: &Dataset, cfg: &TrainConfig) {
    // Warm-up, then the untraced reference: epoch 0 of a fresh model
    // through `Trainer`, which the first traced pass must reproduce.
    let epoch0 = || {
        let mut t = Trainer::new(ds, cfg.clone());
        t.train_epoch(&mut Adam::new(cfg.lr), 0).loss
    };
    epoch0();
    let (reference_loss, untraced_s) = h.baseline_passes(epoch0);

    // The harness drives the layers itself, on the same RNG streams as
    // `Trainer::train_epoch`.
    let dims = [
        ds.features.dim(),
        cfg.hidden_dim,
        cfg.hidden_dim,
        ds.num_classes,
    ];
    let mut model = GnnModel::new(cfg.arch, &dims, cfg.seed).with_dropout(cfg.dropout);
    let mut opt = Adam::new(cfg.lr);
    let sampler = NodeWiseSampler::new(&ds.graph, cfg.fanouts.clone());
    let tr = &h.tracer;
    let mut losses = Vec::new();
    let mut traced_s = Vec::new();
    for epoch in 0..u64::from(TRACED_PASSES) {
        let (loss, secs) = tr.pass(epoch as u32, || {
            let batches: Vec<_> =
                MinibatchIter::new(&ds.split.train, cfg.batch_size, cfg.seed, epoch).collect();
            let mut total = 0.0f64;
            for (b, batch) in batches.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(batch_stream_seed(cfg.seed, epoch, b as u64));
                let mfg = tr.span(layers::SAMPLE, b, || sampler.sample(batch, &mut rng));
                let x = tr.span(layers::INRAM_GATHER, b, || {
                    Trainer::gather_features(ds, &mfg)
                });
                let labels: Arc<Vec<u32>> =
                    Arc::new(mfg.seeds().iter().map(|&v| ds.labels[v as usize]).collect());
                let mut model_rng = StdRng::seed_from_u64(batch_stream_seed(
                    cfg.seed ^ MODEL_STREAM_SALT,
                    epoch,
                    b as u64,
                ));
                let (mut fwd, loss) = tr.span(layers::FORWARD, b, || {
                    let mut fwd = model.forward(x, &mfg, true, &mut model_rng);
                    let loss = fwd.tape.softmax_cross_entropy(fwd.logits, labels);
                    (fwd, loss)
                });
                total += f64::from(fwd.tape.value(loss).get(0, 0));
                tr.span(layers::BACKWARD, b, || {
                    fwd.tape.backward(loss);
                    model.accumulate_grads(&fwd);
                });
                tr.span(layers::ADAM, b, || opt.step(&mut model.params_mut()));
                count_mfg(tr, &mfg, &dims, true);
                tr.count(layers::TAPE_NODES, fwd.tape.len());
            }
            total / batches.len() as f64
        });
        losses.push(loss);
        traced_s.push(secs);
    }

    h.out.attempted = u64::from(TRACED_PASSES) * ds.split.train.len() as u64;
    h.out.check(
        losses[0].to_bits() == reference_loss.to_bits(),
        format!(
            "traced epoch 0 loss {} bit-equal to Trainer::train_epoch's {reference_loss}",
            losses[0]
        ),
    );
    h.out
        .check(losses.iter().all(|l| l.is_finite()), "traced losses finite");
    layers::set_span_metrics(h);
    h.out.set("gnn.final_loss", losses[losses.len() - 1]);
    h.finish_traced(untraced_s, &traced_s);
}
