//! Golden fingerprints of the single-machine [`Trainer`]: two epochs per
//! architecture, with and without dropout, pinned to the bit — every
//! epoch's mean loss and an XOR of every parameter's bits after the run.
//!
//! The values were captured at commit 97d7c1f, before `Tape::linear` and
//! the gather-form `sparse_agg` existed, so they pin the old
//! `matmul → add → add_bias → relu` chains and the scatter backward. A
//! change to the tape, the kernels or `GnnModel::forward` that claims
//! bit-identity must pass this file unedited; a deliberate numerical
//! change re-captures it (the failure message prints the new table).
//!
//! Widths are picked to leave every kernel tile path a remainder: hidden
//! 28 = 16 + 8 + 4 columns, feature dim 10, row counts set by sampling.

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use spp_gnn::{Arch, TrainConfig, Trainer};
use spp_graph::dataset::SyntheticSpec;
use spp_sampler::{Fanouts, NodeWiseSampler};

/// `(arch, dropout, [epoch-0 loss bits, epoch-1 loss bits], parameter XOR)`.
#[rustfmt::skip]
const GOLDEN: &[(Arch, f32, [u64; 2], u32)] = &[
    (Arch::Sage, 0.0, [0x3feb2734c8000000, 0x3fac82a1d6666666], 0x38c2e193),
    (Arch::Sage, 0.2, [0x3ff1c11468000000, 0x3fbf5eaccccccccd], 0xbead30f4),
    (Arch::SagePool, 0.0, [0x3ff60800cccccccd, 0x3fbe277d2ccccccd], 0x387abff4),
    (Arch::SagePool, 0.2, [0x3ffa565376666666, 0x3fc69bb6b999999a], 0xbbff6174),
    (Arch::Gin, 0.0, [0x402026dfc1333333, 0x3fdaa02d7999999a], 0x39153f1e),
    (Arch::Gin, 0.2, [0x401df95ee3333333, 0x3fdf6325cccccccd], 0x86b970d8),
    (Arch::GatMultiHead(1), 0.0, [0x3ff61a3610000000, 0x3fdd6d0e4999999a], 0xb828a973),
    (Arch::GatMultiHead(1), 0.2, [0x3ff65ea0c3333333, 0x3fdbe9cf0ccccccd], 0xb835c704),
    (Arch::GatMultiHead(2), 0.0, [0x3fe3d45880000000, 0x3fcb144eb6666666], 0xb1cd3111),
    (Arch::GatMultiHead(2), 0.2, [0x3fe44eb58999999a, 0x3fcd2f6b38000000], 0xbf46ca39),
];

/// XOR of the bits of every parameter element, read through the public
/// surface: `forward` registers each parameter's value as a tape leaf.
fn param_xor(t: &Trainer<'_>, ds: &spp_graph::Dataset, fanouts: &Fanouts) -> u32 {
    let sampler = NodeWiseSampler::new(&ds.graph, fanouts.clone());
    let mut rng = StdRng::seed_from_u64(0);
    let mfg = sampler.sample(&ds.split.train[..2], &mut rng);
    let x = Trainer::gather_features(ds, &mfg);
    let fwd = t.model().forward(x, &mfg, false, &mut rng);
    fwd.param_nodes
        .iter()
        .flat_map(|&p| fwd.tape.value(p).as_flat())
        .fold(0u32, |acc, v| acc ^ v.to_bits())
}

#[test]
fn two_epoch_training_matches_golden_bits_for_every_arch() {
    let ds = SyntheticSpec::new("golden", 500, 10.0, 10, 3)
        .split_fractions(0.4, 0.1, 0.1)
        .feature_signal(1.5)
        .seed(7)
        .build();
    let mut got = Vec::new();
    for arch in [
        Arch::Sage,
        Arch::SagePool,
        Arch::Gin,
        Arch::GatMultiHead(1),
        Arch::GatMultiHead(2),
    ] {
        for dropout in [0.0f32, 0.2] {
            let cfg = TrainConfig {
                arch,
                hidden_dim: 28,
                fanouts: Fanouts::new(vec![5, 4]),
                eval_fanouts: Fanouts::new(vec![5, 4]),
                batch_size: 48,
                lr: 0.01,
                epochs: 2,
                dropout,
                seed: 7,
                workers: Some(2),
            };
            let fanouts = cfg.fanouts.clone();
            let mut t = Trainer::new(&ds, cfg);
            let report = t.train();
            let losses = [
                report.epochs[0].loss.to_bits(),
                report.epochs[1].loss.to_bits(),
            ];
            assert!(report.epochs.iter().all(|e| e.loss.is_finite()));
            got.push((arch, dropout, losses, param_xor(&t, &ds, &fanouts)));
        }
    }
    let table: String = got
        .iter()
        .map(|(a, d, l, x)| {
            format!(
                "    (Arch::{a:?}, {d:?}, [{:#018x}, {:#018x}], {x:#010x}),\n",
                l[0], l[1]
            )
        })
        .collect();
    assert!(
        got.as_slice() == GOLDEN,
        "trainer fingerprints moved; now:\n{table}"
    );
}
