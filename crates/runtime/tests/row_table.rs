//! The engine's first layer reads a batch's rows through its row table
//! (`spp_core::BatchRows::table`): local rows and an `f32` static tier
//! in place, a quantized tier's hits decoded, and each remote row
//! decoded from its owner's wire-encoded response. A training step fed
//! that table must give the logits, the loss and every gradient of the
//! same step fed the batch's rows as one matrix, bit for bit, for every
//! deployment width, static-tier scheme, wire scheme and pool width.
//! That matrix is built here from the dataset, each row through its
//! tier's codec, and `PartitionedFeatureStore::gather` must return it
//! too. A peer's short or wrong-width response must be refused with the
//! owner named.

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use spp_core::policies::CachePolicy;
use spp_core::{BatchRows, FeatureLocation};
use spp_gnn::{seed_labels, Arch, GnnModel, SageStep, StepInput};
use spp_graph::dataset::{Dataset, SyntheticSpec};
use spp_graph::{quant, FeatureMatrix, QuantScheme};
use spp_runtime::pool::WorkerPool;
use spp_runtime::{DistributedSetup, SetupConfig};
use spp_sampler::{Fanouts, Mfg, NodeWiseSampler};
use spp_tensor::{Matrix, RowTable};

fn dataset() -> Dataset {
    SyntheticSpec::new("row-table", 900, 10.0, 19, 4)
        .split_fractions(0.3, 0.1, 0.1)
        .seed(21)
        .build()
}

fn setup(ds: &Dataset, k: usize, cache_scheme: QuantScheme) -> DistributedSetup {
    DistributedSetup::build(
        ds,
        SetupConfig {
            num_machines: k,
            fanouts: Fanouts::new(vec![6, 6]),
            batch_size: 48,
            policy: CachePolicy::VipAnalytic,
            alpha: 0.3,
            beta: 0.5,
            cache_scheme,
            vip_reorder: true,
            seed: 4,
        },
    )
}

/// The batch's rows as this test expects them: each node's dataset row,
/// rounded through the static tier's scheme if it is cached and
/// through the wire's if it is fetched.
fn expected_rows(setup: &DistributedSetup, rank: usize, wire: QuantScheme, mfg: &Mfg) -> Matrix {
    let store = &setup.stores[rank];
    let feats = &setup.dataset.features;
    let mut x = Matrix::zeros(mfg.num_nodes(), feats.dim());
    for (i, &v) in mfg.nodes.iter().enumerate() {
        let row = x.row_mut(i);
        row.copy_from_slice(feats.row(v));
        match store.locate(v) {
            FeatureLocation::LocalGpu | FeatureLocation::LocalCpu => {}
            FeatureLocation::Cached => quant::wire_roundtrip(row, store.cache_scheme()),
            FeatureLocation::Remote(_) => quant::wire_roundtrip(row, wire),
        }
    }
    x
}

/// Bits of the logits, the loss and every parameter gradient of one
/// training step over `x`.
fn step_bits(
    pool: WorkerPool,
    dims: &[usize],
    x: StepInput<'_>,
    mfg: &Mfg,
    labels: &[u32],
) -> Vec<u32> {
    let mut model = GnnModel::new(Arch::Sage, dims, 3).with_dropout(0.3);
    let mut step = SageStep::new(&model);
    let loss = step.train(pool, &mut model, x, mfg, labels, (7, 0, 1));
    let mut bits: Vec<u32> = step
        .logits()
        .as_flat()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    bits.extend([(loss.to_bits() >> 32) as u32, loss.to_bits() as u32]);
    for p in model.params_mut() {
        bits.extend(p.grad.as_flat().iter().map(|v| v.to_bits()));
    }
    bits
}

#[test]
fn a_step_over_the_row_table_is_the_step_over_the_gathered_matrix() {
    let ds = dataset();
    let dims = [19, 16, 4];
    for k in [2, 3] {
        for cache_scheme in [QuantScheme::F32, QuantScheme::F16, QuantScheme::I8] {
            let setup = setup(&ds, k, cache_scheme);
            let sampler = NodeWiseSampler::new(&setup.dataset.graph, setup.config.fanouts.clone());
            for rank in 0..k {
                let store = &setup.stores[rank];
                let batch = &setup.local_train[rank][..48];
                let mfg = sampler.sample(batch, &mut StdRng::seed_from_u64(rank as u64));
                let labels = seed_labels(&setup.dataset.labels, &mfg);
                let plan = store.plan(&mfg.nodes);
                // Every tier shows up in the batch.
                assert!(!plan.local_gpu.is_empty() && !plan.local_cpu.is_empty());
                assert!(
                    !plan.cached.is_empty() && plan.num_remote() > 0,
                    "k={k} rank={rank}"
                );
                for wire in [QuantScheme::F32, QuantScheme::F16, QuantScheme::I8] {
                    let mut rows = BatchRows::new(store, plan.clone(), Vec::new());
                    for owner in 0..k {
                        let ids = plan.owner_ids(owner);
                        let bytes = setup.stores[owner].serve_encoded(&ids, wire);
                        rows.decode_owner(owner, wire, &bytes);
                    }
                    let table = rows.table(store, &mfg.nodes);
                    let x = expected_rows(&setup, rank, wire, &mfg);
                    // Each owner answers with the rows the table decoded.
                    let gathered = store.gather(&mfg.nodes, |owner, _| {
                        let flat = rows.fetched(owner as usize).flat_map(|(_, r)| r.to_vec());
                        FeatureMatrix::from_flat(flat.collect(), x.cols())
                    });
                    let bits =
                        |m: &Matrix| m.as_flat().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert!(bits(&gathered) == bits(&x), "gather: k={k} rank={rank}");
                    for workers in [1, 2] {
                        let pool = WorkerPool::new(workers);
                        let rows = StepInput::Table(RowTable::new(x.cols(), &table));
                        assert!(
                            step_bits(pool, &dims, rows, &mfg, &labels)
                                == step_bits(pool, &dims, StepInput::Gathered(&x), &mfg, &labels),
                            "k={k} cache={cache_scheme:?} wire={wire:?} rank={rank} workers={workers}"
                        );
                    }
                }
            }
        }
    }
}

/// Machine 0's first batch on a two-machine deployment gathered with a
/// response from machine 1 of width `dim`, one row short of its bucket
/// if `short`, in place of the real one.
fn gather_with_response(short: bool, dim: usize) {
    let ds = dataset();
    let setup = setup(&ds, 2, QuantScheme::F32);
    let sampler = NodeWiseSampler::new(&setup.dataset.graph, setup.config.fanouts.clone());
    let mfg = sampler.sample(&setup.local_train[0][..48], &mut StdRng::seed_from_u64(0));
    let store = &setup.stores[0];
    assert!(!store.plan(&mfg.nodes).remote[1].is_empty());
    store.gather(&mfg.nodes, |owner, ids| {
        assert_eq!(owner, 1);
        FeatureMatrix::zeros(ids.len() - usize::from(short), dim)
    });
}

#[test]
#[should_panic(expected = "fetch returned wrong rows from owner 1")]
fn a_short_response_is_refused_naming_its_owner() {
    gather_with_response(true, 19);
}

#[test]
#[should_panic(expected = "fetch returned wrong dim from owner 1")]
fn a_wrong_width_response_is_refused_naming_its_owner() {
    gather_with_response(false, 7);
}
