//! Property-based tests for GNN forward passes over random MFGs, and
//! for [`SageStep`] against a plain serial reference, bit for bit, and
//! against finite differences.

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
use rand::{Rng, SeedableRng};
use spp_gnn::{Arch, GnnModel, SageStep, StepInput, Trainer};
use spp_graph::generate::GeneratorConfig;
use spp_graph::{CsrGraph, FeatureMatrix, GraphBuilder, Permutation, QuantScheme};
use spp_pool::WorkerPool;
use spp_sampler::{Fanouts, Mfg, NodeWiseSampler};
use spp_store::{FeatureStore, MmapStore, PermutedStore, StoreBuilder};
use spp_tensor::{Matrix, RowTable, RowView};

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
        let mut model = GnnModel::new(Arch::Sage, &[4, 6, 3], seed).with_dropout(0.3);
        let mut x = Matrix::zeros(mfg.num_nodes(), 4);
        for (i, v) in x.as_flat_mut().iter_mut().enumerate() {
            *v = (i % 7) as f32 - 3.0;
        }
        let mut step = SageStep::new(&model);
        step.train(WorkerPool::serial(), &mut model, &x, &mfg, &[0, 1, 2], (seed, 0, 0));
        for p in model.params_mut() {
            prop_assert_eq!(p.grad.shape(), p.value.shape());
            prop_assert!(p.grad.as_flat().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn softmax_cross_entropy_nonnegative(
        n in 16usize..60,
        scale in 0.01f32..40.0,
        seed in any::<u64>(),
    ) {
        // One layer, so the logits are the affine map's unclamped output.
        let g = GeneratorConfig::erdos_renyi(n, n * 3).seed(seed).build();
        let sampler = NodeWiseSampler::new(&g, Fanouts::new(vec![4]));
        let mfg = sampler.sample(&[0, 1, 2, 3], &mut StdRng::seed_from_u64(seed));
        let mut model = GnnModel::new(Arch::Sage, &[5, 3], seed);
        let mut x = awkward(mfg.num_nodes(), 5, seed);
        x.scale_assign(scale);
        let labels: Vec<u32> = (0..4).map(|i| (seed >> i) as u32 % 3).collect();
        let pool = WorkerPool::serial();
        let mut step = SageStep::new(&model);
        step.infer(pool, &model, &x, &mfg);
        prop_assert!(step.backward(pool, &mut model, &x, &mfg, &labels) >= 0.0);
    }

    #[test]
    fn step_matches_the_reference_bit_for_bit(
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
        step_matches_reference(&mfg, &x, &dims, mode, seed);
    }
}

#[test]
fn step_matches_the_reference_when_its_kernels_split() {
    // Wide enough that every kernel of the step splits into several
    // jobs on the wider pools.
    let g = GeneratorConfig::erdos_renyi(3000, 36_000).seed(4).build();
    let sampler = NodeWiseSampler::new(&g, Fanouts::new(vec![10, 10]));
    let ids: Vec<u32> = (0..256).collect();
    let mfg = sampler.sample(&ids, &mut StdRng::seed_from_u64(5));
    let x = awkward(mfg.num_nodes(), 64, 6);
    for mode in 0..3 {
        step_matches_reference(&mfg, &x, &[64, 96, 5], mode, 7);
    }
}

#[test]
fn step_gradients_match_finite_differences() {
    // Central differences of the loss, on a two-layer model in
    // evaluation mode, against every gradient element the step returns.
    let g = GeneratorConfig::erdos_renyi(40, 160).seed(3).build();
    let sampler = NodeWiseSampler::new(&g, Fanouts::new(vec![3, 3]));
    let mfg = sampler.sample(&[0, 1, 2], &mut StdRng::seed_from_u64(3));
    let x = awkward(mfg.num_nodes(), 3, 11);
    let labels = [0u32, 2, 1];
    let pool = WorkerPool::serial();
    let loss = |model: &mut GnnModel| {
        let mut step = SageStep::new(model);
        step.infer(pool, model, &x, &mfg);
        step.backward(pool, model, &x, &mfg, &labels)
    };
    let mut model = GnnModel::new(Arch::Sage, &[3, 5, 3], 9);
    loss(&mut model);
    let analytic: Vec<Matrix> = model.params_mut().iter().map(|p| p.grad.clone()).collect();
    let eps = 1e-2f32;
    for (pi, want) in analytic.iter().enumerate() {
        for i in 0..want.as_flat().len() {
            let mut at = |delta: f32| {
                model.params_mut()[pi].value.as_flat_mut()[i] += delta;
                let l = loss(&mut model);
                model.params_mut()[pi].value.as_flat_mut()[i] -= delta;
                l
            };
            let numeric = ((at(eps) - at(-eps)) / f64::from(2.0 * eps)) as f32;
            let a = want.as_flat()[i];
            assert!(
                (numeric - a).abs() <= 2e-3 + 2e-2 * a.abs(),
                "parameter {pi} element {i}: numeric {numeric}, analytic {a}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The step reading its first-layer rows where a store keeps them —
    /// in place in an in-RAM matrix, through a table of rows borrowed
    /// from it, or as the stored bytes of an `f32`, `f16` or `i8` paged
    /// store, with and without a reordering view — gives the logits, loss and gradients of the step fed the same
    /// rows gathered into an `f32` matrix, and of the serial reference,
    /// bit for bit.
    #[test]
    fn step_reads_rows_where_the_store_keeps_them(
        dim in 1usize..24,
        mode in 0u8..3,
        seed in any::<u64>(),
    ) {
        let g = ladder_graph(160);
        let sampler = NodeWiseSampler::new(&g, Fanouts::new(vec![9, 9]));
        let ids: Vec<u32> = (0..12).map(|i| i * 13 + 7).collect();
        let mfg = sampler.sample(&ids, &mut StdRng::seed_from_u64(seed));
        // Every list length 0..=9, so every four-row pass count and
        // every remainder shows up in the first layer's mean.
        let hop = mfg.layer_adj(1);
        for len in 0..=9 {
            prop_assert!(
                (0..hop.num_targets).any(|t| hop.neighbors(t).len() == len),
                "no list of length {}", len
            );
        }
        let feats = FeatureMatrix::from_flat(awkward(160, dim, seed).into_flat(), dim);
        let dims = [dim, 11, 4];
        let x = Trainer::gather_features_from(&feats, &mfg);
        let in_place = StepInput::of_store(&feats, &mfg.nodes, &[]);
        let rows: Vec<&[f32]> = mfg.nodes.iter().map(|&v| feats.row(v)).collect();
        let table = StepInput::Table(RowTable::new(dim, &rows));
        step_inputs_match_reference(&mfg, &x, &[in_place, table], &dims, mode, seed);

        let order: Vec<u32> = (0..160u32).map(|v| (v * 37 + 11) % 160).collect();
        let perm = Permutation::from_order(order);
        for scheme in [QuantScheme::F32, QuantScheme::F16, QuantScheme::I8] {
            let dir = std::env::temp_dir().join(format!(
                "spp_gnn_rows_{}_{}_{seed}",
                std::process::id(),
                scheme.name()
            ));
            let builder = StoreBuilder::new(scheme).page_bytes(256);
            builder.build_from_matrix(&dir.join("plain"), &feats, None).unwrap();
            builder.build_from_matrix(&dir.join("perm"), &feats, Some(&perm)).unwrap();
            let plain = MmapStore::open(&dir.join("plain")).unwrap();
            let laid_out = MmapStore::open(&dir.join("perm")).unwrap();
            let permuted = PermutedStore::new(&laid_out, &perm);
            for store in [&plain as &dyn FeatureStore, &permuted] {
                let x = Trainer::gather_features_from(store, &mfg);
                let mut bytes = vec![0u8; mfg.num_nodes() * scheme.row_bytes(dim)];
                store.gather_encoded_into(&mfg.nodes, &mut bytes);
                let encoded = StepInput::of_store(store, &mfg.nodes, &bytes);
                prop_assert!(matches!(encoded, StepInput::Encoded { .. }));
                step_inputs_match_reference(&mfg, &x, &[encoded], &dims, mode, seed);
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// A graph whose vertex `v` has `v % 12` out-neighbors, spread by a
/// multiplicative hash: sampled at fanout 9, its neighbor lists take
/// every length from 0 to 9.
fn ladder_graph(n: u32) -> CsrGraph {
    let mut b = GraphBuilder::new(n as usize);
    for v in 0..n {
        for k in 0..v % 12 {
            b.add_edge(v, (v * 31 + k * 17 + 1) % n);
        }
    }
    b.build()
}

/// Runs `mfg` through [`reference`] and through one [`SageStep`] on
/// pools of 1, 2 and 8 workers, and requires the logits, the loss and
/// every parameter gradient to be equal bit for bit. Mode 0 is
/// evaluation (the model's dropout of 0.3 stays off), 1 training
/// without dropout, 2 training with 0.3.
fn step_matches_reference(mfg: &Mfg, x: &Matrix, dims: &[usize], mode: u8, seed: u64) {
    step_inputs_match_reference(mfg, x, &[], dims, mode, seed);
}

/// [`step_matches_reference`] for the step fed `x` and then each of
/// `inputs` (the same rows read elsewhere), all against the reference
/// over `x`.
fn step_inputs_match_reference(
    mfg: &Mfg,
    x: &Matrix,
    inputs: &[StepInput<'_>],
    dims: &[usize],
    mode: u8,
    seed: u64,
) {
    let (train, p) = [(false, 0.3), (true, 0.0), (true, 0.3)][mode as usize];
    let classes = dims[dims.len() - 1] as u32;
    let labels: Vec<u32> = (0..mfg.seeds().len() as u32)
        .map(|i| (i * 3 + 1) % classes)
        .collect();
    let model = GnnModel::new(Arch::Sage, dims, seed).with_dropout(p);
    let rng = train.then(|| StdRng::seed_from_u64(seed));
    let want = reference(&model, x, mfg, &labels, rng);

    // One step per input through every pool width: each run starts
    // from the buffers the run before it left behind.
    for (i, &x) in std::iter::once(&StepInput::Gathered(x))
        .chain(inputs)
        .enumerate()
    {
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
            assert!(
                got == want,
                "input {i} workers={workers} dims={dims:?} mode={mode}"
            );
        }
    }
}

/// The GraphSAGE composite as plain serial passes over the public
/// kernels, one fresh matrix per value: per layer the neighbor mean,
/// `h[..t]·W_self + neigh·W_neigh`, the bias and on hidden layers the
/// ReLU as separate passes, then inverted dropout when `rng` is given
/// (one draw per element, row-major); softmax cross-entropy; and the
/// backward layer by layer from the last — through dropout and the ReLU
/// mask, the bias, `W_neigh` and `W_self` gradients, `g·W_neighᵀ`
/// scattered target by target into a zeroed buffer, plus `g·W_selfᵀ`
/// over the target prefix. Returns the logits' bits, the loss's (as
/// `f64`) and each parameter gradient's, as accumulated into zeros.
fn reference(
    model: &GnnModel,
    x: &Matrix,
    mfg: &Mfg,
    labels: &[u32],
    mut rng: Option<StdRng>,
) -> (Vec<u32>, u64, Vec<Vec<u32>>) {
    let pool = WorkerPool::serial();
    let params: Vec<&Matrix> = model.params().map(|p| &p.value).collect();
    let (layers, p) = (model.num_layers(), model.dropout_rate());
    // Per layer: its input, neighbor mean, ReLU'd output, dropout factors.
    let mut inputs = vec![x.clone()];
    let (mut neighs, mut acts, mut factors) = (Vec::new(), Vec::new(), Vec::new());
    for l in 0..layers {
        let (hop, h) = (mfg.layer_adj(l + 1), &inputs[l]);
        let (ws, wn, b) = (params[3 * l], params[3 * l + 1], params[3 * l + 2]);
        let mut neigh = Matrix::zeros(hop.num_targets, h.cols());
        for t in 0..hop.num_targets {
            let nbrs = hop.neighbors(t);
            let inv = 1.0 / nbrs.len().max(1) as f32;
            for (j, o) in neigh.row_mut(t).iter_mut().enumerate() {
                let sum = nbrs.iter().fold(0.0f32, |a, &s| a + h.get(s as usize, j));
                *o = if nbrs.is_empty() { 0.0 } else { sum * inv };
            }
        }
        let (mut y, mut yn) = (Matrix::empty(), Matrix::empty());
        h.head_rows(hop.num_targets).matmul_into(pool, ws, &mut y);
        neigh.matmul_into(pool, wn, &mut yn);
        y.add_assign(&yn);
        for r in 0..y.rows() {
            y.row_mut(r)
                .iter_mut()
                .zip(b.row(0))
                .for_each(|(o, &b)| *o += b);
        }
        let hidden = l + 1 < layers;
        if hidden {
            y.as_flat_mut()
                .iter_mut()
                .filter(|v| **v < 0.0)
                .for_each(|v| *v = 0.0);
        }
        let keep = 1.0 - p;
        let f: Option<Vec<f32>> = rng.as_mut().filter(|_| hidden && p > 0.0).map(|rng| {
            let draw = |_| {
                if rng.gen::<f32>() < keep {
                    1.0 / keep
                } else {
                    0.0
                }
            };
            (0..y.as_flat().len()).map(draw).collect()
        });
        let mut next = y.clone();
        if let Some(f) = &f {
            next.as_flat_mut()
                .iter_mut()
                .zip(f)
                .for_each(|(a, &m)| *a *= m);
        }
        neighs.push(neigh);
        acts.push(y);
        factors.push(f);
        inputs.push(next);
    }
    let logits = inputs.pop().unwrap();

    // Softmax cross-entropy; `g` becomes `dL/d logits`.
    let (rows, mut g) = (logits.rows(), logits.clone());
    let mut loss = 0.0f32;
    for (i, &label) in labels.iter().enumerate() {
        let row = g.row_mut(i);
        let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut z = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - mx).exp();
            z += *v;
        }
        row.iter_mut().for_each(|v| *v /= z);
        loss -= row[label as usize].max(1e-30).ln();
        row[label as usize] -= 1.0;
    }
    g.scale_assign(1.0 / rows as f32);
    let loss = f64::from(loss / rows as f32);

    let mut grads = vec![Vec::new(); 3 * layers];
    for l in (0..layers).rev() {
        if l + 1 < layers {
            // Through dropout, then the ReLU mask read off the activation.
            if let Some(f) = &factors[l] {
                g.as_flat_mut()
                    .iter_mut()
                    .zip(f)
                    .for_each(|(a, &m)| *a *= m);
            }
            let act = acts[l].as_flat();
            for (gv, &a) in g.as_flat_mut().iter_mut().zip(act) {
                if a <= 0.0 {
                    *gv = 0.0;
                }
            }
        }
        let (ws, wn) = (params[3 * l], params[3 * l + 1]);
        let (mut gws, mut gwn, mut gb) = (Matrix::empty(), Matrix::empty(), Matrix::empty());
        g.col_sums_into(pool, &mut gb);
        neighs[l].t_matmul_into(pool, &g, &mut gwn);
        RowView::Dense(&inputs[l]).head_t_matmul_into(pool, &g, &mut gws);
        for (k, grad) in [gws, gwn, gb].iter().enumerate() {
            let mut acc = Matrix::zeros(grad.rows(), grad.cols());
            acc.add_assign(grad);
            grads[3 * l + k] = bits(&acc);
        }
        if l == 0 {
            break;
        }
        let (mut gn, mut held) = (Matrix::empty(), Matrix::empty());
        g.matmul_t_into(pool, wn, &mut gn);
        g.matmul_t_into(pool, ws, &mut held);
        let hop = mfg.layer_adj(l + 1);
        let mut gh = Matrix::zeros(inputs[l].rows(), inputs[l].cols());
        for t in 0..hop.num_targets {
            let w = 1.0 / hop.neighbors(t).len() as f32;
            for &s in hop.neighbors(t) {
                for (o, &v) in gh.row_mut(s as usize).iter_mut().zip(gn.row(t)) {
                    *o += w * v;
                }
            }
        }
        for (a, &h) in gh.as_flat_mut().iter_mut().zip(held.as_flat()) {
            *a += h;
        }
        g = gh;
    }
    (bits(&logits), loss.to_bits(), grads)
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
