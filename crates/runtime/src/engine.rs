//! Correctness-grade distributed training on real threads.
//!
//! Machines are threads; features move through barriered all-to-all
//! exchanges (requests, then encoded feature rows), gradients are averaged by
//! an all-gather, and every machine applies identical optimizer steps to
//! its model replica — data-parallel training exactly as SALIENT++ runs
//! it over NCCL, minus the wire. Because real feature bytes flow through
//! the partitioned stores and caches, this engine *verifies* that the
//! paper's storage optimizations leave training semantics untouched.

use crate::pool::WorkerPool;
use crate::setup::DistributedSetup;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spp_comm::{run_machines, AllToAll};
use spp_core::BatchRows;
use spp_gnn::metrics::{predictions, AccuracyMeter};
use spp_gnn::{seed_labels, Arch, GnnModel, SageStep, StepInput};
use spp_graph::{QuantScheme, VertexId};
use spp_sampler::{batch_stream_seed, Mfg, MinibatchIter, NodeWiseSampler};
use spp_telemetry::metrics;
use spp_tensor::{Adam, Optimizer, RowTable};

/// One all-to-all payload.
enum Payload {
    /// Feature requests: vertex ids owned by the receiver.
    Ids(Vec<VertexId>),
    /// Feature rows answering the receiver's request, as wire bytes.
    Feats(Vec<u8>),
    /// Flattened local gradients (all parameters concatenated).
    Grads(Vec<f32>),
    /// Nothing (idle machine / empty request).
    Empty,
}

/// The feature exchange the machine threads of one run share: each
/// round is a requests all-to-all followed by a responses all-to-all
/// over the same (barriered, hence reusable) channel.
struct FeatureExchange<'a> {
    setup: &'a DistributedSetup,
    /// Precision of feature rows on the wire.
    wire: QuantScheme,
    channel: AllToAll<Payload>,
}

impl<'a> FeatureExchange<'a> {
    fn new(setup: &'a DistributedSetup, wire: QuantScheme) -> Self {
        Self {
            setup,
            wire,
            channel: AllToAll::new(setup.num_machines()),
        }
    }

    /// Machine `rank`'s side of one round. Classifies `mfg`'s nodes
    /// once, sends each owner the ids the plan lists for it, serves the
    /// peers' requests from the local store, encoded for the wire, and
    /// decodes each response into the batch's [`BatchRows`]. Returns
    /// `None` for a machine without a batch this round, which still
    /// takes part in both barriers. `on_send(peer, bytes)` is told the
    /// length of every payload this machine sends.
    fn round(
        &self,
        rank: usize,
        mfg: Option<&Mfg>,
        mut on_send: impl FnMut(usize, u64),
    ) -> Option<BatchRows> {
        let store = &self.setup.stores[rank];
        let plan = mfg.map(|m| store.plan(&m.nodes));
        let mut outgoing: Vec<Payload> = (0..self.setup.num_machines())
            .map(|_| Payload::Empty)
            .collect();
        for (owner, reqs) in plan.iter().flat_map(|p| p.remote.iter().enumerate()) {
            if !reqs.is_empty() {
                on_send(owner, 4 * reqs.len() as u64);
                outgoing[owner] = Payload::Ids(reqs.iter().map(|&(_, v)| v).collect());
            }
        }
        let incoming = self.channel.exchange(rank, outgoing);

        let served: Vec<Payload> = incoming
            .into_iter()
            .enumerate()
            .map(|(requester, msg)| match msg {
                Payload::Ids(ids) => {
                    let bytes = store.serve_encoded(&ids, self.wire);
                    on_send(requester, bytes.len() as u64);
                    Payload::Feats(bytes)
                }
                _ => Payload::Empty,
            })
            .collect();
        let received = self.channel.exchange(rank, served);

        let mut rows = BatchRows::new(store, plan?, Vec::new());
        // An owner asked for nothing answers with nothing; one that was
        // asked and did not answer is refused, naming it.
        for (owner, msg) in received.into_iter().enumerate() {
            match msg {
                Payload::Feats(bytes) => rows.decode_owner(owner, self.wire, &bytes),
                _ => rows.decode_owner(owner, self.wire, &[]),
            }
        }
        Some(rows)
    }
}

/// Distributed training configuration.
#[derive(Clone, Debug)]
pub struct DistTrainConfig {
    /// Architecture.
    pub arch: Arch,
    /// Hidden width.
    pub hidden_dim: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Epochs.
    pub epochs: usize,
    /// Model init / sampling seed.
    pub seed: u64,
    /// Precision of feature rows on the wire. Non-`F32` schemes shrink
    /// the per-pair comm counters and round every served remote row
    /// through the codec before the forward pass — the same rows on
    /// every machine, so replicas stay bit-identical to each other.
    pub wire_scheme: QuantScheme,
}

impl Default for DistTrainConfig {
    fn default() -> Self {
        Self {
            arch: Arch::Sage,
            hidden_dim: 32,
            lr: 0.005,
            epochs: 5,
            seed: 0,
            wire_scheme: QuantScheme::F32,
        }
    }
}

/// The outcome of a distributed training run.
#[derive(Clone, Debug)]
pub struct DistributedTrainReport {
    /// Mean per-round loss for each epoch (averaged over machines).
    pub epoch_losses: Vec<f64>,
    /// Validation accuracy of the final model (minibatch inference).
    pub val_accuracy: f64,
    /// Test accuracy of the final model.
    pub test_accuracy: f64,
    /// Remote vertices fetched over the run (communication actually
    /// performed, after the cache).
    pub remote_fetches: usize,
    /// Windowed communication matrix: one `machines × machines` window
    /// per epoch, `bytes[src][dst]` = bytes machine `src` sent to `dst`
    /// (requests + feature rows + gradients). Accumulated thread-locally
    /// per machine and merged after the join in rank order, so it is
    /// bit-identical across runs and never reads the (racy) telemetry
    /// counters.
    pub comm: spp_telemetry::CommReport,
}

/// Runs data-parallel GNN training over a [`DistributedSetup`].
pub struct DistributedTrainer<'a> {
    setup: &'a DistributedSetup,
    config: DistTrainConfig,
}

impl<'a> DistributedTrainer<'a> {
    /// Creates a trainer.
    pub fn new(setup: &'a DistributedSetup, config: DistTrainConfig) -> Self {
        Self { setup, config }
    }

    /// Runs the full training loop; returns the report and the final
    /// model (identical on all machines; machine 0's copy is returned).
    // spp-det(runtime.engine_train)
    pub fn train(&self) -> (DistributedTrainReport, GnnModel) {
        let k = self.setup.num_machines();
        let dims = self.setup.model_dims(self.config.hidden_dim);
        let rounds_per_epoch = self.setup.rounds_per_epoch();
        let grads_x = AllToAll::<Payload>::new(k);
        let setup = self.setup;
        let cfg = &self.config;
        let exchange = FeatureExchange::new(setup, cfg.wire_scheme);

        let mut results = run_machines(k, |rank| {
            let mut model = GnnModel::new(cfg.arch, &dims, cfg.seed);
            let mut opt = Adam::new(cfg.lr);
            let sampler = NodeWiseSampler::new(&setup.dataset.graph, setup.config.fanouts.clone());
            // Each machine thread gets an equal share of the global
            // worker budget, as each process of a real run has its own
            // cores: it samples ahead on the share, holding at most its
            // width of MFGs, and runs its forward and backward on it.
            let pool = WorkerPool::global().split(k);
            let store = &setup.stores[rank];
            // Per-round RNG streams are derived from
            // (machine seed, epoch, round), never threaded across
            // rounds: sampling for round r is independent of rounds
            // 0..r, which is what lets rounds be sampled ahead in
            // parallel with identical results.
            let sample_seed = cfg.seed ^ ((rank as u64) << 32);
            let mut epoch_losses = Vec::with_capacity(cfg.epochs);
            let mut remote_fetches = 0usize;
            // Deterministic per-epoch send accounting for the comm
            // matrix: `sent[epoch * k + peer]` = bytes this machine sent
            // to `peer` in `epoch`. Thread-local, merged after the join.
            let mut sent = vec![0u64; cfg.epochs * k];

            for epoch in 0..cfg.epochs as u64 {
                let _epoch_span = spp_telemetry::span!("runtime.engine.epoch");
                let batches: Vec<Vec<VertexId>> = MinibatchIter::new(
                    &setup.local_train[rank],
                    setup.config.batch_size,
                    setup.config.seed ^ rank as u64,
                    epoch,
                )
                .collect();
                let sent = &mut sent[epoch as usize * k..][..k];
                let mut loss_sum = 0.0f64;
                let mut loss_rounds = 0usize;
                // A machine with fewer batches than the epoch has rounds
                // prepares `None` and still joins every collective.
                let sample = |round: usize, prev: Option<Option<Mfg>>| {
                    drop(prev);
                    let batch = batches.get(round)?;
                    let stream = batch_stream_seed(sample_seed, epoch, round as u64);
                    Some(sampler.sample(batch, &mut StdRng::seed_from_u64(stream)))
                };
                pool.prepare_ahead(rounds_per_epoch, sample, |round, mfg| {
                    // Phases 1–2: request, serve and receive features.
                    let gathered = exchange.round(rank, mfg.as_ref(), |peer, bytes| {
                        sent[peer] += bytes;
                    });

                    // Local compute: forward/backward.
                    let mut grads: Option<Vec<f32>> = None;
                    let mut loss_val = 0.0f64;
                    if let (Some(m), Some(rows)) = (&*mfg, gathered) {
                        remote_fetches += rows.plan().num_remote();
                        let labels = seed_labels(&setup.dataset.labels, m);
                        let index = (sample_seed, epoch, round as u64);
                        // A step of its own, freed with the round's rows
                        // before the gradient exchange allocates.
                        loss_val = {
                            let table = rows.table(store, &m.nodes);
                            let x = StepInput::Table(RowTable::new(store.dim(), &table));
                            SageStep::new(&model).train(pool, &mut model, x, m, &labels, index)
                        };
                        drop(rows);
                        let mut flat = Vec::new();
                        for p in model.params_mut() {
                            flat.extend_from_slice(p.grad.as_flat());
                            p.zero_grad();
                        }
                        grads = Some(flat);
                    }

                    // Phase 3: gradient all-gather + average + step.
                    let mut outgoing: Vec<Payload> = Vec::with_capacity(k);
                    for peer in 0..k {
                        outgoing.push(match &grads {
                            Some(g) => {
                                if peer != rank {
                                    sent[peer] += 4 * g.len() as u64;
                                }
                                Payload::Grads(g.clone())
                            }
                            None => Payload::Empty,
                        });
                    }
                    let all_grads = grads_x.exchange(rank, outgoing);
                    let mut sum: Option<Vec<f32>> = None;
                    let mut contributors = 0usize;
                    for g in all_grads {
                        if let Payload::Grads(g) = g {
                            contributors += 1;
                            match &mut sum {
                                Some(s) => {
                                    for (a, b) in s.iter_mut().zip(&g) {
                                        *a += b;
                                    }
                                }
                                None => sum = Some(g),
                            }
                        }
                    }
                    if let Some(mut s) = sum {
                        let inv = 1.0 / contributors as f32;
                        for v in &mut s {
                            *v *= inv;
                        }
                        // Scatter the averaged gradient back into params.
                        let mut offset = 0usize;
                        let mut params = model.params_mut();
                        for p in params.iter_mut() {
                            let len = p.grad.as_flat().len();
                            p.grad
                                .as_flat_mut()
                                .copy_from_slice(&s[offset..offset + len]);
                            offset += len;
                        }
                        opt.step(&mut params);
                        if mfg.is_some() {
                            loss_sum += loss_val;
                            loss_rounds += 1;
                        }
                    }
                });
                epoch_losses.push(if loss_rounds > 0 {
                    loss_sum / loss_rounds as f64
                } else {
                    0.0
                });
            }
            (model, epoch_losses, remote_fetches, sent)
        });

        let remote_fetches: usize = results.iter().map(|(_, _, f, _)| *f).sum();
        // Merge the thread-local send tallies in rank order: one comm
        // window per epoch, bit-identical across runs.
        let mut comm = spp_telemetry::CommReport::with_windows("train", k, cfg.epochs, |e| {
            format!("epoch{e}")
        });
        for (rank, (_, _, _, sent)) in results.iter().enumerate() {
            for epoch in 0..cfg.epochs {
                for peer in 0..k {
                    let bytes = sent[epoch * k + peer];
                    if bytes > 0 {
                        comm.record(epoch, rank, peer, bytes);
                    }
                }
            }
        }
        if metrics::enabled() {
            // The per-pair counters are the report's totals, derived once.
            for src in 0..k {
                for dst in 0..k {
                    let bytes = comm.windows.iter().map(|w| w.bytes[src * k + dst]).sum();
                    metrics::counter(&format!("comm.bytes.m{src}_to_m{dst}")).add(bytes);
                }
            }
            spp_telemetry::publish_comm_report(comm.clone());
        }
        let (model, epoch_losses, _, _) = results.remove(0);

        let val_accuracy = self.evaluate(&model, &self.setup.dataset.split.val);
        let test_accuracy = self.evaluate(&model, &self.setup.dataset.split.test);
        (
            DistributedTrainReport {
                epoch_losses,
                val_accuracy,
                test_accuracy,
                remote_fetches,
                comm,
            },
            model,
        )
    }

    /// Minibatch-inference accuracy of `model` over `ids` (new-id space),
    /// evaluated centrally with the full reordered dataset.
    pub fn evaluate(&self, model: &GnnModel, ids: &[VertexId]) -> f64 {
        let ds = &self.setup.dataset;
        let sampler = NodeWiseSampler::new(&ds.graph, self.setup.config.fanouts.clone());
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xe7a1);
        let mut meter = AccuracyMeter::new();
        for batch in MinibatchIter::new(ids, self.setup.config.batch_size.max(64), 1, 0) {
            let mfg = sampler.sample(&batch, &mut rng);
            // The dataset's rows, read in place.
            let x = StepInput::InPlace {
                feats: &ds.features,
                nodes: &mfg.nodes,
            };
            let preds =
                predictions(SageStep::new(model).infer(WorkerPool::global(), model, x, &mfg));
            meter.update(&preds, &seed_labels(&ds.labels, &mfg));
        }
        meter.value()
    }

    /// Verifies that the distributed gather path (stores + caches +
    /// all-to-all) reproduces the global feature matrix exactly for one
    /// sampled batch per machine: every row of each batch's row table.
    /// Returns the number of vertices checked.
    pub fn verify_gather(&self, seed: u64) -> usize {
        let k = self.setup.num_machines();
        let setup = self.setup;
        let exchange = FeatureExchange::new(setup, QuantScheme::F32);
        let checked = run_machines(k, |rank| {
            let sampler = NodeWiseSampler::new(&setup.dataset.graph, setup.config.fanouts.clone());
            let mut rng = StdRng::seed_from_u64(seed ^ rank as u64);
            let batch: Vec<VertexId> = setup.local_train[rank]
                .iter()
                .take(setup.config.batch_size)
                .copied()
                .collect();
            let mfg = (!batch.is_empty()).then(|| sampler.sample(&batch, &mut rng));
            let gathered = exchange.round(rank, mfg.as_ref(), |_, _| {});
            let (Some(m), Some(rows)) = (&mfg, gathered) else {
                return 0;
            };
            let table = rows.table(&setup.stores[rank], &m.nodes);
            for (i, &v) in m.nodes.iter().enumerate() {
                assert_eq!(
                    table[i],
                    setup.dataset.features.row(v),
                    "machine {rank}: gathered features differ at vertex {v}"
                );
            }
            m.nodes.len()
        });
        checked.into_iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::SetupConfig;
    use spp_core::policies::CachePolicy;
    use spp_graph::dataset::{Dataset, SyntheticSpec};
    use spp_sampler::Fanouts;

    fn setup(k: usize, alpha: f64) -> DistributedSetup {
        let ds = SyntheticSpec::new("t", 800, 10.0, 12, 4)
            .split_fractions(0.4, 0.1, 0.1)
            .feature_signal(2.0)
            .homophily(0.9)
            .seed(11)
            .build();
        setup_on(&ds, k, vec![5, 5], alpha)
    }

    fn setup_on(ds: &Dataset, k: usize, fanouts: Vec<usize>, alpha: f64) -> DistributedSetup {
        DistributedSetup::build(
            ds,
            SetupConfig {
                num_machines: k,
                fanouts: Fanouts::new(fanouts),
                batch_size: 32,
                policy: if alpha > 0.0 {
                    CachePolicy::VipAnalytic
                } else {
                    CachePolicy::None
                },
                alpha,
                beta: 0.5,
                vip_reorder: true,
                seed: 12,
                ..SetupConfig::default()
            },
        )
    }

    #[test]
    fn gather_is_exact_with_and_without_cache() {
        for alpha in [0.0, 0.25] {
            let s = setup(3, alpha);
            let t = DistributedTrainer::new(&s, DistTrainConfig::default());
            let checked = t.verify_gather(99);
            assert!(checked > 100, "too few vertices verified: {checked}");
        }
    }

    /// A round bills what it sends: 4 bytes per requested id and each
    /// response's encoded length.
    #[test]
    fn billed_bytes_are_the_payloads_lengths() {
        let s = setup(3, 0.1);
        for wire in [QuantScheme::F16, QuantScheme::I8] {
            let exchange = FeatureExchange::new(&s, wire);
            let rounds = run_machines(3, |rank| {
                let sampler = NodeWiseSampler::new(&s.dataset.graph, s.config.fanouts.clone());
                let mut rng = StdRng::seed_from_u64(rank as u64);
                let mfg = sampler.sample(&s.local_train[rank][..32], &mut rng);
                let mut billed = 0;
                let rows = exchange.round(rank, Some(&mfg), |_, bytes| billed += bytes);
                (billed, rows.map(|r| r.plan().clone()))
            });
            let mut payloads = 0;
            for plan in rounds.iter().filter_map(|(_, plan)| plan.as_ref()) {
                for (owner, store) in s.stores.iter().enumerate() {
                    let ids = plan.owner_ids(owner);
                    payloads += 4 * ids.len() + store.serve_encoded(&ids, wire).len();
                }
            }
            let billed: u64 = rounds.iter().map(|(b, _)| b).sum();
            assert!(payloads > 0);
            assert_eq!(billed, payloads as u64, "wire {wire:?}");
        }
    }

    #[test]
    fn distributed_training_learns() {
        let s = setup(2, 0.25);
        let t = DistributedTrainer::new(
            &s,
            DistTrainConfig {
                epochs: 6,
                lr: 0.01,
                ..DistTrainConfig::default()
            },
        );
        let (report, _) = t.train();
        assert_eq!(report.epoch_losses.len(), 6);
        assert!(
            report.epoch_losses.last().unwrap() < &report.epoch_losses[0],
            "loss should decrease: {:?}",
            report.epoch_losses
        );
        assert!(
            report.test_accuracy > 0.7,
            "test accuracy {} too low",
            report.test_accuracy
        );
    }

    /// Golden fingerprint captured on the commit before `train` and
    /// `verify_gather` shared one planned exchange (PR 15): f16 wire
    /// rows, a non-empty cache, two machines.
    #[test]
    fn f16_wire_training_matches_golden_fingerprint() {
        let s = setup(2, 0.05);
        let cfg = DistTrainConfig {
            epochs: 2,
            wire_scheme: QuantScheme::F16,
            ..DistTrainConfig::default()
        };
        let (report, _) = DistributedTrainer::new(&s, cfg).train();
        let loss_bits: Vec<u64> = report.epoch_losses.iter().map(|l| l.to_bits()).collect();
        assert_eq!(loss_bits, [4612668619112631501u64, 4603128347361280000]);
        assert_eq!(report.remote_fetches, 593);
        assert_eq!(report.comm.total_bytes(), 109_884);
    }

    /// Every region of the shape above is one job. This wider one
    /// (hidden 128, 64-dim rows, fanouts (10, 10)) has regions of
    /// several jobs, so run at several pool widths it checks that
    /// splitting a region never changes a bit. Its fingerprint is the
    /// one `tests/machine_budget.rs` pins on a 2-worker pool.
    #[test]
    fn wide_training_matches_golden_fingerprint() {
        let ds = SyntheticSpec::new("w", 1200, 10.0, 64, 4)
            .split_fractions(0.2, 0.05, 0.05)
            .seed(13)
            .build();
        let cfg = DistTrainConfig {
            hidden_dim: 128,
            epochs: 1,
            ..DistTrainConfig::default()
        };
        let s = setup_on(&ds, 2, vec![10, 10], 0.1);
        let (report, _) = DistributedTrainer::new(&s, cfg).train();
        let loss_bits: Vec<u64> = report.epoch_losses.iter().map(|l| l.to_bits()).collect();
        assert_eq!(loss_bits, [4603609291666489344u64]);
        assert_eq!(report.remote_fetches, 717);
        assert_eq!(report.comm.total_bytes(), 747_700);
    }

    #[test]
    fn caching_reduces_actual_fetches() {
        let cfg = DistTrainConfig {
            epochs: 2,
            ..DistTrainConfig::default()
        };
        let s0 = setup(3, 0.0);
        let (r0, _) = DistributedTrainer::new(&s0, cfg.clone()).train();
        let s1 = setup(3, 0.5);
        let (r1, _) = DistributedTrainer::new(&s1, cfg).train();
        assert!(
            r1.remote_fetches < r0.remote_fetches,
            "cache must cut real fetches: {} vs {}",
            r1.remote_fetches,
            r0.remote_fetches
        );
    }
}
