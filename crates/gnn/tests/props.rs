//! Property-based tests for GNN forward passes over random MFGs, and
//! for [`SageStep`] against the tape it replaces, bit for bit.

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp
)]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spp_gnn::{Arch, GnnModel, SageStep};
use spp_graph::generate::GeneratorConfig;
use spp_pool::WorkerPool;
use spp_sampler::{Fanouts, Mfg, NodeWiseSampler};
use spp_tensor::Matrix;
use std::sync::Arc;

fn forward_shape_for(n: usize, m: usize, seeds: usize, seed: u64) -> (usize, usize) {
    let g = GeneratorConfig::erdos_renyi(n, m).seed(seed).build();
    let sampler = NodeWiseSampler::new(&g, Fanouts::new(vec![4, 3]));
    let ids: Vec<u32> = (0..seeds as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 3);
    let mfg = sampler.sample(&ids, &mut rng);
    let model = GnnModel::new(Arch::Sage, &[5, 8, 4], seed);
    let x = Matrix::zeros(mfg.num_nodes(), 5);
    let fwd = model.forward(x, &mfg, false, &mut rng);
    fwd.logits_value().shape()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn logits_shape_matches_seeds_for_every_arch(
        n in 16usize..100,
        m in 20usize..300,
        seeds in 1usize..8,
        seed in 0u64..200,
    ) {
        let (r, c) = forward_shape_for(n, m, seeds.min(n), seed);
        prop_assert_eq!(r, seeds.min(n));
        prop_assert_eq!(c, 4);
    }

    #[test]
    fn logits_are_finite(
        n in 16usize..100,
        m in 20usize..300,
        seed in 0u64..200,
    ) {
        let g = GeneratorConfig::erdos_renyi(n, m).seed(seed).build();
        let sampler = NodeWiseSampler::new(&g, Fanouts::new(vec![3, 3]));
        let mut rng = StdRng::seed_from_u64(seed);
        let mfg = sampler.sample(&[0, 1], &mut rng);
        let model = GnnModel::new(Arch::Sage, &[4, 6, 3], seed);
        // Random features in a sane range.
        let mut x = Matrix::zeros(mfg.num_nodes(), 4);
        for (i, v) in x.as_flat_mut().iter_mut().enumerate() {
            *v = ((i * 2_654_435_761) % 1000) as f32 / 500.0 - 1.0;
        }
        let fwd = model.forward(x, &mfg, false, &mut rng);
        prop_assert!(fwd.logits_value().as_flat().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn gradients_exist_for_all_parameters(
        n in 24usize..80,
        seed in 0u64..100,
    ) {
        let g = GeneratorConfig::erdos_renyi(n, n * 4).seed(seed).build();
        let sampler = NodeWiseSampler::new(&g, Fanouts::new(vec![3, 3]));
        let mut rng = StdRng::seed_from_u64(seed);
        let mfg = sampler.sample(&[0, 1, 2], &mut rng);
        let model = GnnModel::new(Arch::Sage, &[4, 6, 3], seed);
        let mut x = Matrix::zeros(mfg.num_nodes(), 4);
        for (i, v) in x.as_flat_mut().iter_mut().enumerate() {
            *v = (i % 7) as f32 - 3.0;
        }
        let mut fwd = model.forward(x, &mfg, true, &mut rng);
        let labels = std::sync::Arc::new(vec![0u32, 1, 2]);
        let loss = fwd.tape.softmax_cross_entropy(fwd.logits, labels);
        fwd.tape.backward(loss);
        for &p in &fwd.param_nodes {
            prop_assert!(fwd.tape.grad(p).is_some(), "parameter without gradient");
        }
    }

    #[test]
    fn step_matches_the_tape_bit_for_bit(
        n in 24usize..120,
        fanouts in prop::collection::vec(1usize..6, 1..4usize),
        seeds in 1usize..9,
        hidden in 1usize..90,
        mode in 0u8..3,
        seed in any::<u64>(),
    ) {
        let g = GeneratorConfig::erdos_renyi(n, n * 5).seed(seed).build();
        let sampler = NodeWiseSampler::new(&g, Fanouts::new(fanouts.clone()));
        let ids: Vec<u32> = (0..seeds.min(n) as u32).collect();
        let mfg = sampler.sample(&ids, &mut StdRng::seed_from_u64(seed ^ 1));
        let mut dims = vec![7];
        dims.extend(std::iter::repeat_n(hidden, fanouts.len() - 1));
        dims.push(4);
        let x = awkward(mfg.num_nodes(), 7, seed);
        step_matches_tape(&mfg, &x, &dims, mode, seed);
    }
}

#[test]
fn step_matches_the_tape_when_its_kernels_split() {
    // Wide enough that every kernel of the step splits into several
    // jobs on the wider pools.
    let g = GeneratorConfig::erdos_renyi(3000, 36_000).seed(4).build();
    let sampler = NodeWiseSampler::new(&g, Fanouts::new(vec![10, 10]));
    let ids: Vec<u32> = (0..256).collect();
    let mfg = sampler.sample(&ids, &mut StdRng::seed_from_u64(5));
    let x = awkward(mfg.num_nodes(), 64, 6);
    for mode in 0..3 {
        step_matches_tape(&mfg, &x, &[64, 96, 5], mode, 7);
    }
}

/// Runs `mfg` through the tape (`GnnModel::forward` + `Tape::backward`)
/// and through one [`SageStep`] on pools of 1, 2 and 8 workers, and
/// requires the logits, the loss and every parameter gradient to be
/// equal bit for bit. Mode 0 is evaluation (the model's dropout of 0.3
/// stays off), 1 training without dropout, 2 training with 0.3.
fn step_matches_tape(mfg: &Mfg, x: &Matrix, dims: &[usize], mode: u8, seed: u64) {
    let (train, p) = [(false, 0.3), (true, 0.0), (true, 0.3)][mode as usize];
    let classes = dims[dims.len() - 1] as u32;
    let labels: Vec<u32> = (0..mfg.seeds().len() as u32)
        .map(|i| (i * 3 + 1) % classes)
        .collect();

    let mut model = GnnModel::new(Arch::Sage, dims, seed).with_dropout(p);
    let mut fwd = model.forward(x.clone(), mfg, train, &mut StdRng::seed_from_u64(seed));
    let logits = bits(fwd.logits_value());
    let loss = fwd
        .tape
        .softmax_cross_entropy(fwd.logits, Arc::new(labels.clone()));
    let loss_bits = f64::from(fwd.tape.value(loss).get(0, 0)).to_bits();
    fwd.tape.backward(loss);
    model.accumulate_grads(&fwd);
    let want = (logits, loss_bits, grads(&mut model));

    // One step through every pool width: each run starts from the
    // buffers the run before it left behind.
    let mut step = SageStep::new(&model);
    for workers in [1usize, 2, 8] {
        let pool = WorkerPool::new(workers);
        let mut model = GnnModel::new(Arch::Sage, dims, seed).with_dropout(p);
        let rng = &mut StdRng::seed_from_u64(seed);
        let logits = if train {
            bits(step.forward(pool, &model, x, mfg, rng))
        } else {
            bits(step.infer(pool, &model, x, mfg))
        };
        let loss = step.backward(pool, &mut model, x, mfg, &labels).to_bits();
        let got = (logits, loss, grads(&mut model));
        assert!(got == want, "workers={workers} dims={dims:?} mode={mode}");
    }
}

/// Features with every sign, exact zeros of both signs and values whose
/// sums round, so any change in an accumulation order shows in the bits.
fn awkward(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    let mut s = seed | 1;
    for v in m.as_flat_mut() {
        s = s
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *v = match s >> 60 {
            0 => 0.0,
            1 => -0.0,
            _ => ((s >> 33) % 2001) as f32 / 300.0 - 3.3,
        };
    }
    m
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_flat().iter().map(|v| v.to_bits()).collect()
}

fn grads(model: &mut GnnModel) -> Vec<Vec<u32>> {
    model.params_mut().iter().map(|p| bits(&p.grad)).collect()
}
