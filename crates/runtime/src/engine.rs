//! Correctness-grade distributed training and inference on real threads.
//!
//! Machines are threads; features move through barriered all-to-all
//! exchanges (requests, then encoded feature rows), gradients are averaged
//! by an all-gather, and every machine applies identical optimizer steps
//! to its replica — data-parallel training as SALIENT++ runs it over
//! NCCL, minus the wire. Training, evaluation and the gather check run
//! one per-machine loop, and rows come from the partitioned stores
//! alone, so the engine *verifies* that the paper's storage
//! optimizations leave training and inference semantics untouched.

use crate::pool::WorkerPool;
use crate::setup::DistributedSetup;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spp_comm::{run_machines, AllToAll};
use spp_core::{BatchRows, FeatureLocation, PartitionedFeatureStore};
use spp_gnn::metrics::{predictions, AccuracyMeter};
use spp_gnn::{seed_labels, Arch, GnnModel, SageStep, StepInput};
use spp_graph::{quant, QuantScheme, VertexId};
use spp_sampler::{batch_stream_seed, Mfg, MinibatchIter, NodeWiseSampler};
use spp_telemetry::{metrics, CommReport};
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

/// A machine's batch in one round of a pass: the round's index, the
/// machine's share of the worker budget, its store, the MFG and its rows.
struct Round<'r> {
    index: usize,
    pool: WorkerPool,
    store: &'r PartitionedFeatureStore,
    mfg: &'r Mfg,
    rows: BatchRows,
}

impl Round<'_> {
    /// Runs `f` on the batch's first-layer input, its row table.
    fn input<T>(&self, f: impl FnOnce(StepInput<'_>) -> T) -> T {
        let table = self.rows.table(self.store, &self.mfg.nodes);
        f(StepInput::Table(RowTable::new(self.store.dim(), &table)))
    }
}

impl<'a> FeatureExchange<'a> {
    fn new(setup: &'a DistributedSetup, wire: QuantScheme) -> Self {
        Self {
            setup,
            wire,
            channel: AllToAll::new(setup.num_machines()),
        }
    }

    /// Machine `rank`'s side of a pass of `rounds` rounds, the loop every
    /// engine pass runs: sample `batch(r)` (seeds, stream seed) ahead on
    /// an equal share of the worker budget, as a real run's processes
    /// each have their own cores; exchange, adding each payload's length
    /// to `sent[peer]`; hand `step` the batch with its rows, or `None`.
    fn pass<'b>(
        &self,
        rank: usize,
        rounds: usize,
        batch: impl Fn(usize) -> Option<(&'b [VertexId], u64)> + Sync,
        sent: &mut [u64],
        mut step: impl FnMut(Option<Round<'_>>, &mut [u64]),
    ) {
        let setup = self.setup;
        let sampler = NodeWiseSampler::new(&setup.dataset.graph, setup.config.fanouts.clone());
        let pool = WorkerPool::global().split(setup.num_machines());
        let sample = |round: usize, prev: Option<Option<Mfg>>| {
            drop(prev);
            let (seeds, stream) = batch(round)?;
            Some(sampler.sample(seeds, &mut StdRng::seed_from_u64(stream)))
        };
        pool.prepare_ahead(rounds, sample, |index, mfg| {
            let rows = self.round(rank, mfg.as_ref(), |peer, bytes| sent[peer] += bytes);
            let round = mfg.as_ref().zip(rows).map(|(mfg, rows)| Round {
                index,
                pool,
                store: &setup.stores[rank],
                mfg,
                rows,
            });
            step(round, sent);
        });
    }

    /// Machine `rank`'s side of one round: plans `mfg`'s nodes, asks each
    /// owner for its bucket, serves the peers' requests encoded for the
    /// wire, and decodes each response into the batch's [`BatchRows`]
    /// (`None` without a batch; both barriers are still joined).
    /// `on_send(peer, bytes)` is told the length of every payload sent.
    fn round(
        &self,
        rank: usize,
        mfg: Option<&Mfg>,
        mut on_send: impl FnMut(usize, u64),
    ) -> Option<BatchRows> {
        let store = &self.setup.stores[rank];
        let plan = mfg.map(|m| store.plan(&m.nodes));
        let mut outgoing: Vec<_> = self.setup.stores.iter().map(|_| Payload::Empty).collect();
        for (owner, reqs) in plan.iter().flat_map(|p| p.remote.iter().enumerate()) {
            if !reqs.is_empty() {
                on_send(owner, 4 * reqs.len() as u64);
                outgoing[owner] = Payload::Ids(reqs.iter().map(|&(_, v)| v).collect());
            }
        }
        let incoming = self.channel.exchange(rank, outgoing);

        let served = incoming.into_iter().enumerate().map(|(requester, msg)| {
            let Payload::Ids(ids) = msg else {
                return Payload::Empty;
            };
            let bytes = store.serve_encoded(&ids, self.wire);
            on_send(requester, bytes.len() as u64);
            Payload::Feats(bytes)
        });
        let received = self.channel.exchange(rank, served.collect());

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
    /// Precision of feature rows on the wire, in training and evaluation:
    /// owners encode the rows they send under it, and each is decoded once
    /// on arrival. Non-`F32` schemes shrink the comm counters; replicas
    /// read the same rows, so they stay bit-identical to each other.
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
    /// Validation accuracy of the final model, by minibatch inference
    /// run partitioned ([`DistributedTrainer::evaluate`]).
    pub val_accuracy: f64,
    /// Test accuracy of the final model, from the same pass.
    pub test_accuracy: f64,
    /// Remote vertices fetched while training (communication actually
    /// performed, after the cache); evaluation's are not counted.
    pub remote_fetches: usize,
    /// Windowed communication matrix: one `machines × machines` window
    /// per epoch, `bytes[src][dst]` = bytes machine `src` sent to `dst`
    /// while training (requests + feature rows + gradients; evaluation's
    /// traffic is not in it). Accumulated thread-locally per machine and
    /// merged after the join in rank order, so it is bit-identical across
    /// runs and never reads the (racy) telemetry counters.
    pub comm: CommReport,
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

    /// Runs the full training loop and evaluates the final model on the
    /// validation and test sets in one pass; returns the report and the
    /// model (identical on all machines; machine 0's copy is returned).
    // spp-det(runtime.engine_train)
    pub fn train(&self) -> (DistributedTrainReport, GnnModel) {
        let (setup, cfg, k) = (self.setup, &self.config, self.setup.num_machines());
        let (dims, rounds) = (setup.model_dims(cfg.hidden_dim), setup.rounds_per_epoch());
        let grads_x = AllToAll::<Payload>::new(k);
        let exchange = FeatureExchange::new(setup, cfg.wire_scheme);

        let mut results = run_machines(k, |rank| {
            let (mut model, mut opt) =
                (GnnModel::new(cfg.arch, &dims, cfg.seed), Adam::new(cfg.lr));
            // Per-round RNG streams are derived from (machine seed, epoch,
            // round), so rounds sample ahead with identical results.
            let sample_seed = cfg.seed ^ ((rank as u64) << 32);
            let (mut epoch_losses, mut remote_fetches) = (Vec::with_capacity(cfg.epochs), 0);
            // `sent[epoch * k + peer]` = bytes this machine sent to `peer`
            // in `epoch`: thread-local, merged after the join.
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
                let batch = |round: usize| {
                    let stream = batch_stream_seed(sample_seed, epoch, round as u64);
                    Some((&batches.get(round)?[..], stream))
                };
                let sent = &mut sent[epoch as usize * k..][..k];
                let (mut loss_sum, mut loss_rounds) = (0.0f64, 0usize);
                exchange.pass(rank, rounds, batch, sent, |round, sent| {
                    let grads = round.map(|r| {
                        remote_fetches += r.rows.plan().num_remote();
                        let labels = seed_labels(&setup.dataset.labels, r.mfg);
                        let index = (sample_seed, epoch, r.index as u64);
                        // Step and rows go before the gradient exchange.
                        loss_sum += r.input(|x| {
                            SageStep::new(&model)
                                .train(r.pool, &mut model, x, r.mfg, &labels, index)
                        });
                        loss_rounds += 1;
                        drop(r);
                        let mut flat = Vec::new();
                        for p in model.params_mut() {
                            flat.extend_from_slice(p.grad.as_flat());
                            p.zero_grad();
                        }
                        flat
                    });
                    // Gradient all-gather + average + step.
                    for peer in (0..k).filter(|&peer| peer != rank) {
                        sent[peer] += 4 * grads.as_ref().map_or(0, Vec::len) as u64;
                    }
                    let outgoing =
                        (0..k).map(|_| grads.clone().map_or(Payload::Empty, Payload::Grads));
                    let (mut sum, mut contributors): (Option<Vec<f32>>, usize) = (None, 0);
                    for g in grads_x.exchange(rank, outgoing.collect()) {
                        let Payload::Grads(g) = g else { continue };
                        contributors += 1;
                        match &mut sum {
                            Some(s) => s.iter_mut().zip(&g).for_each(|(a, b)| *a += b),
                            None => sum = Some(g),
                        }
                    }
                    let Some(mut s) = sum else { return };
                    let inv = 1.0 / contributors as f32;
                    s.iter_mut().for_each(|v| *v *= inv);
                    // Scatter the averaged gradient back into params.
                    let (mut params, mut offset) = (model.params_mut(), 0);
                    for p in params.iter_mut() {
                        let len = p.grad.as_flat().len();
                        p.grad.as_flat_mut().copy_from_slice(&s[offset..][..len]);
                        offset += len;
                    }
                    opt.step(&mut params);
                });
                epoch_losses.push(loss_sum / loss_rounds.max(1) as f64);
            }
            (model, epoch_losses, remote_fetches, sent)
        });

        let remote_fetches: usize = results.iter().map(|(_, _, f, _)| *f).sum();
        // Merge the send tallies in rank order, one window per epoch.
        let mut comm = CommReport::with_windows("train", k, cfg.epochs, |e| format!("epoch{e}"));
        for (rank, (_, _, _, sent)) in results.iter().enumerate() {
            for (i, &bytes) in sent.iter().enumerate().filter(|&(_, &b)| b > 0) {
                comm.record(i / k, rank, i % k, bytes);
            }
        }
        if metrics::enabled() {
            // The per-pair counters are the report's totals, derived once.
            for (src, dst) in (0..k).flat_map(|src| (0..k).map(move |dst| (src, dst))) {
                let bytes = comm.windows.iter().map(|w| w.bytes[src * k + dst]).sum();
                metrics::counter(&format!("comm.bytes.m{src}_to_m{dst}")).add(bytes);
            }
            spp_telemetry::publish_comm_report(comm.clone());
        }
        let (model, epoch_losses, _, _) = results.remove(0);

        let split = &setup.dataset.split;
        let [val_accuracy, test_accuracy] = self.accuracies(&model, [&split.val, &split.test]);
        let report = DistributedTrainReport {
            epoch_losses,
            val_accuracy,
            test_accuracy,
            remote_fetches,
            comm,
        };
        (report, model)
    }

    /// Minibatch-inference accuracy of `model` over `ids` (new ids), run
    /// partitioned: machine `m` takes batches `i ≡ m (mod K)` of `batch_size.max(64)`,
    /// batch `i` sampled on stream `batch_stream_seed(seed ^ 0xe7a1, 0, i)`;
    /// rows cross the wire under `wire_scheme`, and the traffic is billed nowhere.
    pub fn evaluate(&self, model: &GnnModel, ids: &[VertexId]) -> f64 {
        let [accuracy] = self.accuracies(model, [ids]);
        accuracy
    }

    /// [`Self::evaluate`] over each of `sets` in one forward-only pass, the
    /// batches dealt round-robin and the counts merged in rank order.
    fn accuracies<const N: usize>(&self, model: &GnnModel, sets: [&[VertexId]; N]) -> [f64; N] {
        let (setup, k) = (self.setup, self.setup.num_machines());
        let size = setup.config.batch_size.max(64);
        let seed = self.config.seed ^ 0xe7a1;
        // (set, stream seed, batch), the sets' batches in turn.
        let batches: Vec<(usize, u64, Vec<VertexId>)> = (0..N)
            .flat_map(|s| {
                let set = MinibatchIter::new(sets[s], size, 1, 0).enumerate();
                set.map(move |(i, b)| (s, batch_stream_seed(seed, 0, i as u64), b))
            })
            .collect();
        let exchange = FeatureExchange::new(setup, self.config.wire_scheme);
        let meters = run_machines(k, |rank| {
            let mine = |round: usize| batches.get(round * k + rank);
            let batch = |round| mine(round).map(|(_, stream, b)| (&b[..], *stream));
            let mut meters = [AccuracyMeter::new(); N];
            let rounds = batches.len().div_ceil(k);
            exchange.pass(rank, rounds, batch, &mut vec![0; k], |round, _| {
                let Some(r) = round else { return };
                let preds =
                    r.input(|x| predictions(SageStep::new(model).infer(r.pool, model, x, r.mfg)));
                let set = mine(r.index).map_or(0, |&(s, _, _)| s);
                meters[set].update(&preds, &seed_labels(&setup.dataset.labels, r.mfg));
            });
            meters
        });
        let mut merged = [AccuracyMeter::new(); N];
        for (i, m) in meters.iter().flatten().enumerate() {
            merged[i % N].merge(m);
        }
        merged.map(|m| m.value())
    }

    /// Verifies the distributed gather path (stores + caches + all-to-all)
    /// over one sampled batch per machine: each row of its table equals
    /// the owner's row ([`PartitionedFeatureStore::serve`]), a static-tier
    /// hit's after the tier's codec. Returns the number of vertices checked.
    pub fn verify_gather(&self, seed: u64) -> usize {
        let (setup, k) = (self.setup, self.setup.num_machines());
        let exchange = FeatureExchange::new(setup, QuantScheme::F32);
        let checked = run_machines(k, |rank| {
            let train = &setup.local_train[rank];
            let batch = &train[..train.len().min(setup.config.batch_size)];
            let mut checked = 0;
            let first = |_| (!batch.is_empty()).then_some((batch, seed ^ rank as u64));
            exchange.pass(rank, 1, first, &mut vec![0; k], |round, _| {
                let Some(r) = round else { return };
                let table = r.rows.table(r.store, &r.mfg.nodes);
                for (i, &v) in r.mfg.nodes.iter().enumerate() {
                    let owner = setup.layout.owner_of(v) as usize;
                    let mut want = setup.stores[owner].serve(&[v]);
                    if r.store.locate(v) == FeatureLocation::Cached {
                        quant::wire_roundtrip(want.row_mut(0), r.store.cache_scheme());
                    }
                    assert_eq!(
                        table[i],
                        want.row(0),
                        "machine {rank}: gathered features differ at vertex {v}"
                    );
                }
                checked = r.mfg.nodes.len();
            });
            checked
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

    /// Golden accuracies of partitioned evaluation, captured when it
    /// replaced the central loop: one epoch (so nothing saturates) at
    /// K = 2 over an `f16` wire and at K = 3 over an `i8` wire.
    #[test]
    fn evaluation_matches_golden_accuracies() {
        let golden = [
            (
                2,
                0.05,
                QuantScheme::F16,
                [4604142489051542323u64, 4604592849014279373],
            ),
            (
                3,
                0.25,
                QuantScheme::I8,
                [4603804719079489536, 4603692129088805274],
            ),
        ];
        for (k, alpha, wire_scheme, want) in golden {
            let s = setup(k, alpha);
            let cfg = DistTrainConfig {
                epochs: 1,
                wire_scheme,
                ..DistTrainConfig::default()
            };
            let t = DistributedTrainer::new(&s, cfg);
            let (r, model) = t.train();
            let got = [r.val_accuracy.to_bits(), r.test_accuracy.to_bits()];
            assert_eq!(
                got,
                want,
                "K = {k}: {:?}",
                [r.val_accuracy, r.test_accuracy]
            );
            // Alone, the set's batches land on other machines: same bits.
            let val = t.evaluate(&model, &s.dataset.split.val);
            assert_eq!(val.to_bits(), want[0], "K = {k}: evaluate alone");
        }
    }
}
