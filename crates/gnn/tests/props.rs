//! Property-based tests for GNN forward passes over random MFGs.

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
use spp_gnn::{Arch, GnnModel};
use spp_graph::generate::GeneratorConfig;
use spp_sampler::{Fanouts, NodeWiseSampler};
use spp_tensor::Matrix;

fn forward_shape_for(arch: Arch, n: usize, m: usize, seeds: usize, seed: u64) -> (usize, usize) {
    let g = GeneratorConfig::erdos_renyi(n, m).seed(seed).build();
    let sampler = NodeWiseSampler::new(&g, Fanouts::new(vec![4, 3]));
    let ids: Vec<u32> = (0..seeds as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 3);
    let mfg = sampler.sample(&ids, &mut rng);
    let model = GnnModel::new(arch, &[5, 8, 4], seed);
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
        for arch in [Arch::Sage, Arch::SagePool, Arch::Gin, Arch::GatMultiHead(1), Arch::GatMultiHead(2)] {
            let (r, c) = forward_shape_for(arch, n, m, seeds.min(n), seed);
            prop_assert_eq!(r, seeds.min(n));
            prop_assert_eq!(c, 4);
        }
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
}
