//! Golden fingerprints and conservation checks for the timing model.
//!
//! The `GOLDEN` constants were captured on the commit *before* the two
//! hand-wired simulators became stage tables over one interpreter
//! (`spp_runtime::stages`), and have not been edited since: every
//! simulated number — makespan, startup, per-category busy sums, the
//! task trace — must stay bit-identical across that refactor and any
//! later one. Traces are compared per resource in start order, the only
//! order `simulate_epoch_traced` promises. The conservation checks (busy sums vs the DES's own
//! per-resource accounting) and the label check are one assertion each
//! because there is one interpreter to ask.

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp
)]

use spp_core::policies::CachePolicy;
use spp_graph::dataset::SyntheticSpec;
use spp_runtime::stages::{simulate, SimOpts, SimResult, StageGraph, RPC, SERVE};
use spp_runtime::workload::measure_streams;
use spp_runtime::{CostModel, DistributedSetup, EpochSim, SetupConfig, SystemSpec};
use spp_sampler::Fanouts;
use spp_telemetry::stage::PipelineStage;

const HIDDEN: usize = 48;

fn fixture(k: usize, alpha: f64) -> DistributedSetup {
    let ds = SyntheticSpec::new("sim-golden", 2_400, 12.0, 24, 6)
        .split_fractions(0.12, 0.02, 0.03)
        .homophily(0.9)
        .degree_tail(1.3)
        .seed(11)
        .build();
    DistributedSetup::build(
        &ds,
        SetupConfig {
            num_machines: k,
            fanouts: Fanouts::new(vec![8, 5, 3]),
            batch_size: 8,
            policy: if alpha > 0.0 {
                CachePolicy::VipAnalytic
            } else {
                CachePolicy::None
            },
            alpha,
            beta: 0.5,
            vip_reorder: true,
            seed: 5,
            ..SetupConfig::default()
        },
    )
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Length and order-robust hash of a task trace: entries are taken per
/// resource in start order (a serial resource's tasks never overlap, so
/// this is the order they ran in), which does not depend on the order
/// the simulator happened to submit tasks on *different* resources.
fn trace_fingerprint(trace: &[(String, String, f64, f64)]) -> [u64; 2] {
    let mut rows: Vec<(&str, u64, u64, &str)> = trace
        .iter()
        .map(|(res, label, s, e)| (res.as_str(), s.to_bits(), e.to_bits(), label.as_str()))
        .collect();
    // Non-negative finite f64s order like their bit patterns.
    rows.sort_unstable();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (res, s, e, label) in rows {
        fnv(&mut h, res.as_bytes());
        fnv(&mut h, label.as_bytes());
        fnv(&mut h, &s.to_le_bytes());
        fnv(&mut h, &e.to_le_bytes());
    }
    [trace.len() as u64, h]
}

/// Makespan, startup, the coarse table's busy slots and the round count.
fn epoch_fingerprint(e: &SimResult) -> Vec<u64> {
    use PipelineStage as S;
    let b = &e.busy;
    vec![
        e.makespan.to_bits(),
        e.startup.to_bits(),
        b.get(S::Sample).to_bits(),
        b.get(S::HostSlice).to_bits(),
        b.serve().to_bits(),
        b.get(S::FeatureExchange).to_bits(),
        b.get(S::H2d).to_bits(),
        b.get(S::Train).to_bits(),
        b.get(S::AllReduce).to_bits(),
        e.rounds as u64,
    ]
}

/// Every scenario of one fixture, in a fixed order.
fn fingerprints(setup: &DistributedSetup) -> Vec<(&'static str, Vec<u64>)> {
    let cost = CostModel::mini_calibrated();
    let mut out = Vec::new();
    for (name, spec) in [
        ("salient", SystemSpec::salient(HIDDEN)),
        ("partitioned", SystemSpec::partitioned(HIDDEN)),
        ("pipelined", SystemSpec::pipelined(HIDDEN)),
        ("distdgl", SystemSpec::distdgl(HIDDEN)),
    ] {
        let e = EpochSim::new(setup, cost, spec).simulate_epoch(0);
        out.push((name, epoch_fingerprint(&e)));
    }
    let sim = EpochSim::new(setup, cost, SystemSpec::pipelined(HIDDEN));
    // Inference over the validation vertices, routed to their owners:
    // shorter, uneven streams than the training split.
    let mut streams = vec![Vec::new(); setup.num_machines()];
    for &v in &setup.dataset.split.val {
        streams[setup.layout.owner_of(v) as usize].push(v);
    }
    let infer = sim.simulate_inference_epoch(&streams, 1);
    out.push(("inference", epoch_fingerprint(&infer)));
    let traced = sim.simulate_epoch_traced(0);
    let mut t = epoch_fingerprint(&traced);
    t.extend(trace_fingerprint(&traced.trace));
    out.push(("traced", t));
    for (name, pipeline_depth) in [("pipeline_d1", 1), ("pipeline_d10", 10)] {
        let spec = SystemSpec {
            pipeline_depth,
            ..SystemSpec::pipelined(HIDDEN)
        };
        let e = EpochSim::new(setup, cost, spec).simulate_appendix_d_epoch(0);
        let mut v = vec![e.makespan.to_bits(), e.rounds as u64];
        v.extend(PipelineStage::ALL.iter().map(|s| e.busy.get(*s).to_bits()));
        out.push((name, v));
    }
    out
}

type Golden = &'static [(&'static str, &'static [u64])];

fn check(k: usize, alpha: f64, golden: Golden) {
    let setup = fixture(k, alpha);
    let got = fingerprints(&setup);
    let mut report = String::new();
    for (name, v) in &got {
        let hex: Vec<String> = v.iter().map(|x| format!("{x:#x}")).collect();
        report.push_str(&format!("    (\"{name}\", &[{}]),\n", hex.join(", ")));
    }
    let same = got.len() == golden.len()
        && got
            .iter()
            .zip(golden)
            .all(|((n, v), (gn, gv))| n == gn && v.as_slice() == *gv);
    assert!(
        same,
        "k={k} alpha={alpha}: simulated numbers moved; current values:\n{report}"
    );
}

#[rustfmt::skip]
const GOLDEN_K2_A0: Golden = &[
    ("salient", &[0x3f61937c72e30cae, 0x3f2e3067a5a90505, 0x3f66e3cace7e3620, 0x3f32af85134fbe02, 0x0, 0x0, 0x3f59f8cf8a166ed8, 0x3f6ec40d8cd71e5d, 0x3f27f37b5d249089, 0x13]),
    ("partitioned", &[0x3f796466b1b95a81, 0x3f34cc5b6ad19773, 0x3f66e3cace7e3620, 0x3f1f01197cf61740, 0x3f1910ae5f34aa10, 0x3f6e4f0b000e42b8, 0x3f5806dce8f9a921, 0x3f6ec40d8cd71e5d, 0x3f27f37b5d249089, 0x13]),
    ("pipelined", &[0x3f624a0165e2af4c, 0x3f34cc5b6ad19773, 0x3f66e3cace7e3620, 0x3f1f01197cf61740, 0x3f1910ae5f34aa10, 0x3f6e4f0b000e42b8, 0x3f5806dce8f9a921, 0x3f6ec40d8cd71e5d, 0x3f27f37b5d249089, 0x13]),
    ("distdgl", &[0x3fc0e2232c538f71, 0x3f7c617c27170ee0, 0x3f7c9cbd821dc3a9, 0x3f1f01197cf61740, 0x3f1910ae5f34aa10, 0x3fcf41f065584970, 0x3f5806dce8f9a921, 0x3f6ec40d8cd71e5d, 0x3f27f37b5d249089, 0x13]),
    ("inference", &[0x3f454e6f7d30ceff, 0x3f3676609198914e, 0x3f40834c97cfdc93, 0x3ef6dee6404080dd, 0x3ef5a9a969edc5c5, 0x3f480d398fc8d453, 0x3f3266c618e4b98f, 0x3f470a011b5435c3, 0x0, 0x4]),
    ("traced", &[0x3f624a0165e2af4c, 0x3f34cc5b6ad19773, 0x3f66e3cace7e3620, 0x3f1f01197cf61740, 0x3f1910ae5f34aa10, 0x3f6e4f0b000e42b8, 0x3f5806dce8f9a921, 0x3f6ec40d8cd71e5d, 0x3f27f37b5d249089, 0x13, 0x102, 0xc201e5abcec54288]),
    ("pipeline_d1", &[0x3f85e58c72e46593, 0x13, 0x3f66e3cace7e3620, 0x3f6758e219652bd3, 0x3f52bb1b7757a83a, 0x3f67a788e7e7fda1, 0x3f524b8712028bf5, 0x3f4375e4c4cc5e7c, 0x3f5884b12a2efd9a, 0x3f2dd92d2310e0ab, 0x3f6e180381eaa653, 0x3f325c54e8db385b, 0x3f6ec40d8cd71e5d, 0x3f27f37b5d249089]),
    ("pipeline_d10", &[0x3f7844fff99fb829, 0x13, 0x3f66e3cace7e3620, 0x3f6758e219652bd3, 0x3f52bb1b7757a83a, 0x3f67a788e7e7fda1, 0x3f524b8712028bf5, 0x3f4375e4c4cc5e7c, 0x3f5884b12a2efd9a, 0x3f2dd92d2310e0ab, 0x3f6e180381eaa653, 0x3f325c54e8db385b, 0x3f6ec40d8cd71e5d, 0x3f27f37b5d249089]),
];
#[rustfmt::skip]
const GOLDEN_K2_A3: Golden = &[
    ("salient", &[0x3f61937c72e30cae, 0x3f2e3067a5a90505, 0x3f66e3cace7e3620, 0x3f32af85134fbe02, 0x0, 0x0, 0x3f59f8cf8a166ed8, 0x3f6ec40d8cd71e5d, 0x3f27f37b5d249089, 0x13]),
    ("partitioned", &[0x3f77e1c2988e1208, 0x3f33bb69740c7b35, 0x3f66e3cace7e3620, 0x3f28a8503d458aee, 0x3efb049d867eaddd, 0x3f68ee3ccdd57a36, 0x3f5806dce8f9a921, 0x3f6ec40d8cd71e5d, 0x3f27f37b5d249089, 0x13]),
    ("pipelined", &[0x3f6227e3270a0bc4, 0x3f33bb69740c7b35, 0x3f66e3cace7e3620, 0x3f28a8503d458aee, 0x3efb049d867eaddd, 0x3f68ee3ccdd57a36, 0x3f5806dce8f9a921, 0x3f6ec40d8cd71e5d, 0x3f27f37b5d249089, 0x13]),
    ("distdgl", &[0x3fc0d60e0b8a352c, 0x3f7c506d07aabd1b, 0x3f7c9cbd821dc3a9, 0x3f28a8503d458aee, 0x3efb049d867eaddd, 0x3fcf2c6d2c8f664f, 0x3f5806dce8f9a921, 0x3f6ec40d8cd71e5d, 0x3f27f37b5d249089, 0x13]),
    ("inference", &[0x3f44323f6f82d8f5, 0x3f34a87417d9c9d8, 0x3f40834c97cfdc93, 0x3f0285a4d649df58, 0x3eddf517f66a1fc5, 0x3f43ab2a261e6bb4, 0x3f3266c618e4b98f, 0x3f470a011b5435c3, 0x0, 0x4]),
    ("traced", &[0x3f6227e3270a0bc4, 0x3f33bb69740c7b35, 0x3f66e3cace7e3620, 0x3f28a8503d458aee, 0x3efb049d867eaddd, 0x3f68ee3ccdd57a36, 0x3f5806dce8f9a921, 0x3f6ec40d8cd71e5d, 0x3f27f37b5d249089, 0x13, 0x102, 0xef2f0fc87aa43f2f]),
    ("pipeline_d1", &[0x3f853a8ae295e785, 0x13, 0x3f66e3cace7e3620, 0x3f6758e219652bd3, 0x3f52bb1b7757a83a, 0x3f676fcebe155942, 0x3f52372eb4e8c9f7, 0x3f4375e4c4cc5e77, 0x3f5884b12a2efd9b, 0x3f2d15dcd88000b9, 0x3f68e1234b27a964, 0x3f325c54e8db385b, 0x3f6ec40d8cd71e5d, 0x3f27f37b5d249089]),
    ("pipeline_d10", &[0x3f7832e4046ac776, 0x13, 0x3f66e3cace7e3620, 0x3f6758e219652bd3, 0x3f52bb1b7757a83a, 0x3f676fcebe155942, 0x3f52372eb4e8c9f7, 0x3f4375e4c4cc5e77, 0x3f5884b12a2efd9b, 0x3f2d15dcd88000b9, 0x3f68e1234b27a964, 0x3f325c54e8db385b, 0x3f6ec40d8cd71e5d, 0x3f27f37b5d249089]),
];
#[rustfmt::skip]
const GOLDEN_K4_A0: Golden = &[
    ("salient", &[0x3f54759b66b70394, 0x3f2ff7bc1132d2d7, 0x3f66fd728706191f, 0x3f3177b4880096b4, 0x0, 0x0, 0x3f59f4b791401d96, 0x3f6f8f1896dd263f, 0x3f392ea6e6c70f6b, 0xa]),
    ("partitioned", &[0x3f6fb813290557d6, 0x3f3b12237d1957ab, 0x3f66fd728706191f, 0x3f12332e36bc5820, 0x3f2fd5b3504ef7e2, 0x3f7559b99cd3bca9, 0x3f5b34b12f03f0f3, 0x3f6f8f1896dd263f, 0x3f392ea6e6c70f6b, 0xa]),
    ("pipelined", &[0x3f5b0796f26debfb, 0x3f3b12237d1957ab, 0x3f66fd728706191f, 0x3f12332e36bc5820, 0x3f2fd5b3504ef7e2, 0x3f7559b99cd3bca9, 0x3f5b34b12f03f0f3, 0x3f6f8f1896dd263f, 0x3f392ea6e6c70f6b, 0xa]),
    ("distdgl", &[0x3fb1ed51b63b808e, 0x3f7ccf2dbb93567c, 0x3f7cbccf28c79f67, 0x3f12332e36bc5820, 0x3f2fd5b3504ef7e2, 0x3fd0243ffcfa79f7, 0x3f5b34b12f03f0f3, 0x3f6f8f1896dd263f, 0x3f392ea6e6c70f6b, 0xa]),
    ("inference", &[0x3f407f2077701c54, 0x3f38832705c8196a, 0x3f420e6712a565c7, 0x3eec1aede0fc563d, 0x3f08e24ba5750e01, 0x3f51505a41873756, 0x3f366069a230161d, 0x3f4a5038c7c98cd6, 0x0, 0x2]),
    ("traced", &[0x3f5b0796f26debfb, 0x3f3b12237d1957ab, 0x3f66fd728706191f, 0x3f12332e36bc5820, 0x3f2fd5b3504ef7e2, 0x3f7559b99cd3bca9, 0x3f5b34b12f03f0f3, 0x3f6f8f1896dd263f, 0x3f392ea6e6c70f6b, 0xa, 0x10c, 0x747d984d3a39c9a8]),
    ("pipeline_d1", &[0x3f798dc73b193fef, 0xa, 0x3f66fd728706191f, 0x3f689374bc6a7ef9, 0x3f53c5cc442d731f, 0x3f6960b3a5dd955f, 0x3f53efe8a25cfe51, 0x3f47574410796a93, 0x3f5c3059b16e99dc, 0x3f2f4925cbb213bd, 0x3f75168fffe0f808, 0x3f32481096cf5a8a, 0x3f6f8f1896dd263f, 0x3f392ea6e6c70f6b]),
    ("pipeline_d10", &[0x3f6b86da7e6a9fd7, 0xa, 0x3f66fd728706191f, 0x3f689374bc6a7ef9, 0x3f53c5cc442d731f, 0x3f6960b3a5dd955f, 0x3f53efe8a25cfe51, 0x3f47574410796a93, 0x3f5c3059b16e99dc, 0x3f2f4925cbb213bd, 0x3f75168fffe0f808, 0x3f32481096cf5a8a, 0x3f6f8f1896dd263f, 0x3f392ea6e6c70f6b]),
];
#[rustfmt::skip]
const GOLDEN_K4_A3: Golden = &[
    ("salient", &[0x3f54759b66b70394, 0x3f2ff7bc1132d2d7, 0x3f66fd728706191f, 0x3f3177b4880096b4, 0x0, 0x0, 0x3f59f4b791401d96, 0x3f6f8f1896dd263f, 0x3f392ea6e6c70f6b, 0xa]),
    ("partitioned", &[0x3f6d5ff4cef02bc8, 0x3f38f0e47cce3a3e, 0x3f66fd728706191f, 0x3f2641b4201ab717, 0x3f22ad964b926cdb, 0x3f7190ea262c9817, 0x3f5b34b12f03f0f3, 0x3f6f8f1896dd263f, 0x3f392ea6e6c70f6b, 0xa]),
    ("pipelined", &[0x3f5727f6723303aa, 0x3f38f0e47cce3a3e, 0x3f66fd728706191f, 0x3f2641b4201ab717, 0x3f22ad964b926cdb, 0x3f7190ea262c9817, 0x3f5b34b12f03f0f3, 0x3f6f8f1896dd263f, 0x3f392ea6e6c70f6b, 0xa]),
    ("distdgl", &[0x3fb1da90c36ad72c, 0x3f7cad19cb8ea4a5, 0x3f7cbccf28c79f67, 0x3f2641b4201ab717, 0x3f22ad964b926cdb, 0x3fd0151cbf1fdd64, 0x3f5b34b12f03f0f3, 0x3f6f8f1896dd263f, 0x3f392ea6e6c70f6b, 0xa]),
    ("inference", &[0x3f3e43ad5de9f3cc, 0x3f373681d8d5dc9c, 0x3f420e6712a565c7, 0x3efdb73efebffa5c, 0x3f010d679e542663, 0x3f4df85098a5a710, 0x3f366069a230161d, 0x3f4a5038c7c98cd6, 0x0, 0x2]),
    ("traced", &[0x3f5727f6723303aa, 0x3f38f0e47cce3a3e, 0x3f66fd728706191f, 0x3f2641b4201ab717, 0x3f22ad964b926cdb, 0x3f7190ea262c9817, 0x3f5b34b12f03f0f3, 0x3f6f8f1896dd263f, 0x3f392ea6e6c70f6b, 0xa, 0x10c, 0xf936bfc4055cb67b]),
    ("pipeline_d1", &[0x3f78694c78a2ab9d, 0xa, 0x3f66fd728706191f, 0x3f689374bc6a7ef9, 0x3f53c5cc442d731f, 0x3f6910a77ffcb39d, 0x3f53d2abf0199437, 0x3f47574410796a92, 0x3f5c3059b16e99dd, 0x3f2e3078b5f7b2d0, 0x3f716be5bbb7facf, 0x3f32481096cf5a8a, 0x3f6f8f1896dd263f, 0x3f392ea6e6c70f6b]),
    ("pipeline_d10", &[0x3f6b3fe7a6581ca7, 0xa, 0x3f66fd728706191f, 0x3f689374bc6a7ef9, 0x3f53c5cc442d731f, 0x3f6910a77ffcb39d, 0x3f53d2abf0199437, 0x3f47574410796a92, 0x3f5c3059b16e99dd, 0x3f2e3078b5f7b2d0, 0x3f716be5bbb7facf, 0x3f32481096cf5a8a, 0x3f6f8f1896dd263f, 0x3f392ea6e6c70f6b]),
];

#[test]
fn two_machines_no_cache() {
    check(2, 0.0, GOLDEN_K2_A0);
}

#[test]
fn two_machines_cached() {
    check(2, 0.3, GOLDEN_K2_A3);
}

#[test]
fn four_machines_no_cache() {
    check(4, 0.0, GOLDEN_K4_A0);
}

#[test]
fn four_machines_cached() {
    check(4, 0.3, GOLDEN_K4_A3);
}

/// `(machines, alpha, [trace length, per-resource start-order hash])` of
/// a traced epoch under the DistDGL-like spec, captured on the same
/// parent commit as `GOLDEN_*`. There the per-hop RPC task was submitted
/// without a label and so left no trace entry; the stage table labels it
/// [`RPC`], so the comparison drops those entries and checks separately
/// that there is exactly one per batch.
#[rustfmt::skip]
const GOLDEN_DISTDGL_TRACE: &[(usize, f64, [u64; 2])] = &[
    (2, 0.0, [0x102, 0xebddf0dd0e721f60]),
    (2, 0.3, [0x102, 0xf6d0dce2c4c936b2]),
    (4, 0.0, [0x10c, 0x50fcb0dd1c174dc7]),
    (4, 0.3, [0x10c, 0xfc5b3a3cbe4e663b]),
];

#[test]
fn distdgl_trace_matches_parent_apart_from_rpc_entries() {
    for &(k, alpha, golden) in GOLDEN_DISTDGL_TRACE {
        let setup = fixture(k, alpha);
        let sim = EpochSim::new(
            &setup,
            CostModel::mini_calibrated(),
            SystemSpec::distdgl(HIDDEN),
        );
        let trace = sim.simulate_epoch_traced(0).trace;
        let (rpc, rest): (Vec<_>, Vec<_>) = trace.into_iter().partition(|t| t.1 == RPC);
        let batches: usize = measure_streams(&setup, false, 0, &setup.local_train)
            .iter()
            .map(Vec::len)
            .sum();
        assert_eq!(rpc.len(), batches, "k={k} alpha={alpha}: one rpc per batch");
        assert!(rpc.iter().all(|t| t.0.starts_with("nic")));
        assert_eq!(
            trace_fingerprint(&rest),
            golden,
            "k={k} alpha={alpha}: DistDGL trace moved"
        );
    }
}

/// The fixtures exercise the round-close fallback: at least one machine
/// runs out of batches before the epoch ends (it only serves, or idles,
/// in the last rounds).
#[test]
fn fixture_has_uneven_streams() {
    let setup = fixture(4, 0.3);
    let bs = setup.config.batch_size;
    let rounds: Vec<usize> = setup
        .local_train
        .iter()
        .map(|s| s.len().div_ceil(bs))
        .collect();
    assert!(
        rounds.iter().min() < rounds.iter().max(),
        "streams are even: {rounds:?}"
    );
}

/// Both tables over the 4-machine cached fixture, traced; the coarse
/// one under the DistDGL-like spec so its `rpc` row runs too.
fn both_graphs() -> Vec<(&'static str, StageGraph, SimResult)> {
    let setup = fixture(4, 0.3);
    let stats = measure_streams(&setup, false, 0, &setup.local_train);
    let opts = SimOpts {
        cost: CostModel::mini_calibrated(),
        hidden_dim: HIDDEN,
        depth: 4,
        inference: false,
        trace: true,
    };
    [
        ("coarse", StageGraph::coarse(&SystemSpec::distdgl(HIDDEN))),
        ("appendix_d", StageGraph::appendix_d()),
    ]
    .into_iter()
    .map(|(name, graph)| {
        let result = simulate(&graph, &setup, &stats, &opts);
        (name, graph, result)
    })
    .collect()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// What the `submit` site billed is what the DES says its resources
/// were busy for, and no resource is busier than the epoch is long.
#[test]
fn busy_time_is_conserved() {
    for (name, _, r) in both_graphs() {
        let des_busy: f64 = r.resources.iter().map(|(_, b)| b).sum();
        assert!(des_busy > 0.0, "{name}: nothing ran");
        assert!(
            close(r.busy.total(), des_busy),
            "{name}: billed {} vs DES {des_busy}",
            r.busy.total()
        );
        for (res, b) in &r.resources {
            assert!(*b <= r.makespan, "{name}: {res} busy {b} > {}", r.makespan);
        }
    }
}

/// No stage name is spelled outside the enum: every label either graph
/// declares, and every label that reaches a trace, is a
/// `PipelineStage::short()` or one of the two coarse-only rows.
#[test]
fn labels_come_from_the_stage_enum() {
    let known: Vec<&str> = PipelineStage::ALL
        .iter()
        .map(|s| s.short())
        .chain([SERVE, RPC])
        .collect();
    for (name, graph, r) in both_graphs() {
        for label in graph.labels() {
            assert!(known.contains(&label), "{name}: declared label {label}");
        }
        assert!(!r.trace.is_empty(), "{name}: no trace");
        for (_, label, _, _) in &r.trace {
            assert!(
                graph.labels().any(|l| l == label),
                "{name}: traced label {label} not declared"
            );
        }
    }
    let coarse: Vec<&str> = StageGraph::coarse(&SystemSpec::pipelined(HIDDEN))
        .labels()
        .collect();
    assert!(!coarse.contains(&RPC), "rpc row only with rpc_per_hop > 0");
}
