//! Pins `MultilevelPartitioner` and `hierarchical_partition` bit for
//! bit: the FNV-1a hash of every assignment over K ∈ {2, 3, 4, 8} ×
//! seeds 0–2 on small papers-, products- and serving-shaped graphs,
//! weighted by their splits. A change to the partitioner's storage
//! (how its levels keep edges and weights) must leave every hash as it
//! is; a change that means to move a cut updates this table and says
//! why.

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use spp_graph::dataset::SyntheticSpec;
use spp_graph::Dataset;
use spp_partition::hierarchical::hierarchical_partition;
use spp_partition::multilevel::MultilevelPartitioner;
use spp_partition::{Partitioning, VertexWeights};

/// The three graph shapes, small: the benchmark's papers-, products- and
/// serving-shaped degrees, tails and splits.
fn datasets() -> [Dataset; 3] {
    [
        SyntheticSpec::new("papers-shaped", 1500, 29.0, 4, 8)
            .split_fractions(0.05, 0.01, 0.01)
            .homophily(0.93)
            .degree_tail(2.0)
            .seed(11)
            .build(),
        SyntheticSpec::new("products-shaped", 1200, 51.0, 4, 16)
            .split_fractions(0.05, 0.002, 0.002)
            .homophily(0.9)
            .degree_tail(2.0)
            .seed(12)
            .build(),
        SyntheticSpec::new("serving-shaped", 2000, 10.0, 4, 16)
            .split_fractions(0.08, 0.02, 0.9)
            .homophily(0.93)
            .degree_tail(3.0)
            .seed(13)
            .build(),
    ]
}

/// FNV-1a over the part count and each vertex's part, little-endian.
fn fnv1a(p: &Partitioning) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let words = std::iter::once(p.num_parts() as u32).chain(p.assignment().iter().copied());
    for byte in words.flat_map(u32::to_le_bytes) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

const KS: [usize; 4] = [2, 3, 4, 8];
const SEEDS: [u64; 3] = [0, 1, 2];

/// Hashes in (graph, K, seed) order: multilevel K-way, then
/// hierarchical over K machines × 2 GPUs.
fn hashes() -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for ds in datasets() {
        let w = VertexWeights::from_dataset(&ds);
        for k in KS {
            for seed in SEEDS {
                let flat = MultilevelPartitioner::new(k)
                    .seed(seed)
                    .partition(&ds.graph, &w);
                let hier = hierarchical_partition(&ds.graph, &w, k, 2, seed);
                out.push((fnv1a(&flat), fnv1a(&hier.flat)));
            }
        }
    }
    out
}

#[rustfmt::skip]
const EXPECTED: [(u64, u64); 36] = [
    // papers-shaped: K = 2, 3, 4, 8 (rows) × seeds 0, 1, 2
    (0xbb5b67383657aa57, 0x8834b423c004f811), (0x6f247bf05c4ce9a6, 0xf5db39443475ab73), (0x118cd5f1f3df5ba7, 0xd63fd14a7db73220),
    (0xd1af17aa0365b214, 0x4c772a6fa433c256), (0x7e5696754e5a6376, 0xe3fa681490727872), (0xe468c6517e8f1407, 0x38a941efc031bcb0),
    (0x8918f98b4de39501, 0x691ee184084165ed), (0x1e590e6db3e0b6f3, 0x1848ac9b8de31968), (0x7bc9e9f102ca5e32, 0x14ed41d836b54bba),
    (0x64fbbcbf4dbc40a, 0x82d08e40275046ab), (0x5156579e36eb53af, 0xb5e96edf94424b0), (0xa29b1da5f8e1ba9a, 0x7be955cd1a633eda),
    // products-shaped: K = 2, 3, 4, 8 (rows) × seeds 0, 1, 2
    (0x8932d004aa8a4567, 0x5999e1c527515310), (0x7dda43c573c810f7, 0xc8ec297d7df9a6d1), (0x609020dacce3b437, 0x4431f852748432e1),
    (0x3fe250a268ee19a4, 0x2cd81501c1385387), (0x9f6a77343509cee4, 0x53a5390994f3c3a7), (0x674e8aac610d62c4, 0x83e607e8a33e6f36),
    (0xe97f67d1a5d413b0, 0x7fcbc4e883d2e27f), (0xf476395da7af8451, 0x5c3424e4ab18d18c), (0x652105571e65d1f1, 0xb2b0aebaa6174dd),
    (0xbb1e9c347f2ef0ed, 0x2afdb1c4d036b044), (0x8f6c2511fd1e433f, 0x168460d04b0cb6a0), (0xb2e47508b7f60c89, 0x19e02a4e56e4875c),
    // serving-shaped: K = 2, 3, 4, 8 (rows) × seeds 0, 1, 2
    (0x51e4ebbd045fc717, 0x4daf77f5dfd5241), (0x34246db3b0c31597, 0x5a970f28c0e532f0), (0x5d41d6a3e23f0596, 0x67c144e12c1c4d03),
    (0x93839dc68c820e25, 0xacb89248867f1f84), (0x74c07f1c8c799dc7, 0x1a6b0946b5e23741), (0x7d41678ec78b8f35, 0x82076ab8619daaa4),
    (0x61589fb884f58870, 0x1a95fae00dfabc7f), (0x6341d1806a6de103, 0x1ba9f5b507100058), (0x383ae658545e1802, 0x6cde9c639dc3a45b),
    (0x6c87d042eda68b7d, 0x442a06238c2903c5), (0x23ffdc99aacdec19, 0x23fb948366a8f65c), (0xd8c2973e1b41bfa8, 0xa0993db2ed9b7df),
];

#[test]
fn assignments_match_their_pinned_hashes() {
    let got = hashes();
    let names = ["papers", "products", "serving"];
    let mut wrong = Vec::new();
    for (i, (&g, &e)) in got.iter().zip(&EXPECTED).enumerate() {
        if g != e {
            let (graph, k, seed) = (i / 12, KS[i / 3 % 4], SEEDS[i % 3]);
            wrong.push(format!(
                "{}-shaped K={k} seed={seed}: {g:#x?} != {e:#x?}",
                names[graph]
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "assignments moved:\n{}\nall: {got:#x?}",
        wrong.join("\n")
    );
}
