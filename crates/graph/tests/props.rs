//! Property-based tests for the graph substrate.

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp
)]

use proptest::prelude::*;
use spp_graph::{CsrGraph, GraphBuilder, Permutation};

fn arb_edges(max_n: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2..max_n).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n as u32, 0..n as u32), 0..200);
        (Just(n), edges)
    })
}

fn build(n: usize, edges: &[(u32, u32)]) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    for &(s, d) in edges {
        b.add_edge(s, d);
    }
    b.build()
}

proptest! {
    #[test]
    fn csr_neighbors_sorted_unique_no_self_loops((n, edges) in arb_edges(64)) {
        let g = build(n, &edges);
        for v in 0..n as u32 {
            let neigh = g.neighbors(v);
            prop_assert!(neigh.windows(2).all(|w| w[0] < w[1]), "sorted+unique");
            prop_assert!(!neigh.contains(&v), "no self loop");
        }
    }

    #[test]
    fn csr_edge_membership_matches_input((n, edges) in arb_edges(64)) {
        let g = build(n, &edges);
        for &(s, d) in &edges {
            if s != d {
                prop_assert!(g.has_edge(s, d));
            }
        }
        prop_assert!(g.num_edges() <= edges.len());
    }

    #[test]
    fn transpose_is_involution((n, edges) in arb_edges(64)) {
        let g = build(n, &edges);
        prop_assert_eq!(g.transpose().transpose(), g);
    }

    #[test]
    fn permutation_roundtrip_preserves_graph(
        (n, edges) in arb_edges(48),
        seed in 0u64..1000,
    ) {
        let g = build(n, &edges);
        // Derive a pseudo-random permutation from the seed.
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut s = seed.wrapping_add(1);
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let p = Permutation::from_forward(order);
        let gp = p.apply_to_graph(&g);
        let back = p.inverse().apply_to_graph(&gp);
        prop_assert_eq!(back, g.clone());
        // Degrees preserved under relabeling.
        for v in 0..n as u32 {
            prop_assert_eq!(g.degree(v), gp.degree(p.to_new(v)));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Fuzz the dataset loader: arbitrary bytes must never panic — they
    /// either parse (vanishingly unlikely) or produce a clean error.
    #[test]
    fn dataset_loader_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let path = std::env::temp_dir().join(format!(
            "spp-fuzz-{}-{}",
            std::process::id(),
            bytes.len()
        ));
        std::fs::write(&path, &bytes).unwrap();
        let _ = spp_graph::Dataset::load(&path);
        std::fs::remove_file(&path).ok();
    }

    /// Same, but starting from a VALID file with one corrupted byte.
    #[test]
    fn dataset_loader_survives_single_byte_corruption(
        pos_frac in 0.0f64..1.0,
        value in any::<u8>(),
    ) {
        use spp_graph::dataset::SyntheticSpec;
        let ds = SyntheticSpec::new("fz", 60, 4.0, 3, 2).seed(9).build();
        let path = std::env::temp_dir().join(format!(
            "spp-fuzz2-{}-{}",
            std::process::id(),
            (pos_frac * 1e6) as u64
        ));
        ds.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[idx] = value;
        std::fs::write(&path, &bytes).unwrap();
        let _ = spp_graph::Dataset::load(&path); // must not panic
        std::fs::remove_file(&path).ok();
    }
}

// ---------------------------------------------------------------------
// Quantized feature storage (DESIGN.md §14)
// ---------------------------------------------------------------------

proptest! {
    /// f32 -> f16 -> f32 stays within half a ULP of the f16 grid:
    /// relative error <= 2^-11 for normals, absolute error <= 2^-25
    /// inside the subnormal range, and saturation only past f16::MAX.
    #[test]
    fn f16_round_trip_error_bounds(v in -70000.0f32..70000.0) {
        use spp_graph::quant::{f16_bits_to_f32, f32_to_f16_bits};
        let rt = f16_bits_to_f32(f32_to_f16_bits(v));
        if v.abs() >= 65520.0 {
            // Beyond the f16 overflow threshold: rounds to infinity.
            prop_assert!(rt.is_infinite() && rt.signum() == v.signum());
        } else if v.abs() >= 6.104e-5 {
            prop_assert!(((rt - v) / v).abs() <= 2.0f32.powi(-11), "v={v} rt={rt}");
        } else {
            prop_assert!((rt - v).abs() <= 2.0f32.powi(-25), "v={v} rt={rt}");
        }
    }

    /// The i8 affine codec inverts to within half a quantization step
    /// of the row's own (min, scale) codebook.
    #[test]
    fn i8_round_trip_within_half_step(
        row in prop::collection::vec(-100.0f32..100.0, 1..96),
    ) {
        use spp_graph::{QuantScheme, QuantizedFeatures};
        let dim = row.len();
        let mut q = QuantizedFeatures::with_rows(1, dim, QuantScheme::I8);
        q.set_row(0, &row);
        let mut back = vec![0.0f32; dim];
        q.read_row_into(0, &mut back);
        let lo = row.iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        // Half a step plus FP slack from the decode multiply-add.
        let tol = (hi - lo) / 255.0 * 0.5001 + (hi - lo).abs() * 1e-6 + 1e-6;
        for (a, b) in row.iter().zip(&back) {
            prop_assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
        }
    }

    /// Rows with `NaN` / `±inf` elements: the tier and the wire round
    /// trip agree bit-for-bit, `NaN` and `-inf` decode to the row's
    /// finite minimum, `+inf` to what its finite maximum decodes to, and
    /// the finite elements keep the half-step bound of the finite range.
    #[test]
    fn i8_defines_non_finite_elements(
        finite in prop::collection::vec(-100.0f32..100.0, 0..48),
        injected in prop::collection::vec((0usize..64, 0usize..3), 1..8),
    ) {
        use spp_graph::quant::wire_roundtrip;
        use spp_graph::{QuantScheme, QuantizedFeatures};
        let mut row = finite.clone();
        for &(at, kind) in &injected {
            let v = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][kind];
            row.insert(at.min(row.len()), v);
        }
        let dim = row.len();
        let mut q = QuantizedFeatures::with_rows(1, dim, QuantScheme::I8);
        q.set_row(0, &row);
        let mut tier = vec![0.0f32; dim];
        q.read_row_into(0, &mut tier);
        let mut wire = row.clone();
        wire_roundtrip(&mut wire, QuantScheme::I8);
        let bits = |r: &[f32]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&tier), bits(&wire));

        // No finite element: the codebook is (0, 0) and all decode to 0.
        let (lo, hi) = if finite.is_empty() {
            (0.0, 0.0)
        } else {
            let range = (f32::INFINITY, f32::NEG_INFINITY);
            finite.iter().fold(range, |(l, h), &v| (l.min(v), h.max(v)))
        };
        let top = row.iter().position(|&v| v == hi).map_or(lo, |i| tier[i]);
        let tol = (hi - lo) / 255.0 * 0.5001 + (hi - lo).abs() * 1e-6 + 1e-6;
        for (&v, &back) in row.iter().zip(&tier) {
            if v.is_finite() {
                prop_assert!((v - back).abs() <= tol, "{v} vs {back} (tol {tol})");
            } else if v == f32::INFINITY {
                prop_assert_eq!(back.to_bits(), top.to_bits(), "+inf");
            } else {
                prop_assert_eq!(back.to_bits(), lo.to_bits(), "{}", v);
            }
        }
    }

    /// Encoding is deterministic and set_row slots are independent.
    #[test]
    fn quantized_rows_are_independent_and_deterministic(
        rows in prop::collection::vec(
            prop::collection::vec(-50.0f32..50.0, 8), 1..12),
        scheme_idx in 0usize..3,
    ) {
        use spp_graph::{QuantScheme, QuantizedFeatures};
        let scheme = [QuantScheme::F32, QuantScheme::F16, QuantScheme::I8][scheme_idx];
        let n = rows.len();
        let mut q = QuantizedFeatures::with_rows(n, 8, scheme);
        // Write in reverse order; reads must still match a fresh
        // forward-order encoding row for row.
        for (i, r) in rows.iter().enumerate().rev() {
            q.set_row(i, r);
        }
        let mut q2 = QuantizedFeatures::with_rows(n, 8, scheme);
        for (i, r) in rows.iter().enumerate() {
            q2.set_row(i, r);
        }
        let mut a = vec![0.0f32; 8];
        let mut b = vec![0.0f32; 8];
        for i in 0..n {
            q.read_row_into(i, &mut a);
            q2.read_row_into(i, &mut b);
            prop_assert_eq!(&a, &b, "row {} diverged", i);
        }
    }
}
