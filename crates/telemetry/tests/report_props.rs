//! Property tests: every attribution report and the quantile sketch
//! read back exactly what they write (`from_json(&r.to_json()) == r`),
//! through both the one-line and the pretty rendering, so the writer
//! and the decoder cannot drift apart.

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use proptest::prelude::*;
use spp_telemetry::json::{parse, Json};
use spp_telemetry::{CacheReport, CommReport, QuantileSketch, StoreReport, TierStats};

/// Labels drawn from an alphabet that exercises escaping: quotes,
/// backslashes, control bytes and non-ASCII text.
fn label(picks: &[u8]) -> String {
    const ALPHABET: [&str; 8] = ["a", "Z", "\"", "\\", "\n", "\u{1}", "µ", "漢"];
    picks
        .iter()
        .map(|&p| ALPHABET[usize::from(p) % ALPHABET.len()])
        .collect()
}

fn sketch(values: &[u64]) -> QuantileSketch {
    let mut s = QuantileSketch::new();
    for &v in values {
        s.observe(v);
    }
    s
}

/// Both renderings parse back to the value that was rendered.
fn reparse(v: &Json) -> Json {
    let one_line = parse(&v.to_string()).unwrap();
    assert_eq!(parse(&v.pretty()).unwrap(), one_line);
    one_line
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sketch_round_trips(values in proptest::collection::vec(any::<u64>(), 0..60)) {
        let s = sketch(&values);
        prop_assert_eq!(QuantileSketch::from_json(&reparse(&s.to_json())), Ok(s));
    }

    #[test]
    fn cache_report_round_trips(
        picks in proptest::collection::vec(any::<u8>(), 0..12),
        hits in proptest::collection::vec(any::<u32>(), 0..4),
        local in any::<u64>(),
        latencies in proptest::collection::vec(any::<u64>(), 0..20),
    ) {
        let tiers: Vec<TierStats> = hits
            .iter()
            .enumerate()
            .map(|(t, &h)| TierStats {
                tier: label(&picks[t.min(picks.len())..]),
                hits: u64::from(h),
                misses: t as u64,
                evictions: u64::MAX - t as u64,
                insertions: 3,
                bytes: local ^ u64::from(h),
            })
            .collect();
        let r = CacheReport {
            label: label(&picks),
            scheme: label(&picks[picks.len() / 2..]),
            lookups: tiers.iter().map(|t| t.hits).sum(),
            local,
            tiers,
            latency_ns: sketch(&latencies),
        };
        prop_assert_eq!(CacheReport::from_json(&reparse(&r.to_json())), Ok(r));
    }

    #[test]
    fn comm_report_round_trips(
        picks in proptest::collection::vec(any::<u8>(), 0..12),
        machines in 1usize..5,
        windows in 0usize..4,
        cells in proptest::collection::vec((0usize..5, 0usize..5, 0usize..4, 0u64..1 << 40), 0..30),
    ) {
        let mut r = CommReport::with_windows(&label(&picks), machines, windows, |w| {
            label(&picks[w.min(picks.len())..])
        });
        for (src, dst, w, bytes) in cells {
            r.record(w, src, dst, bytes);
        }
        prop_assert_eq!(CommReport::from_json(&reparse(&r.to_json())), Ok(r));
    }

    #[test]
    fn store_report_round_trips(
        picks in proptest::collection::vec(any::<u8>(), 0..12),
        page_rows in 1u64..1 << 20,
        page_bytes in 1u64..1 << 24,
        pages_faulted in any::<u32>(),
        pages_hit in any::<u32>(),
    ) {
        let (faulted, hit) = (u64::from(pages_faulted), u64::from(pages_hit));
        let r = StoreReport {
            label: label(&picks),
            backend: label(&picks[picks.len() / 3..]),
            scheme: label(&picks[picks.len() / 2..]),
            page_rows,
            page_bytes,
            pages_read: faulted + hit,
            pages_faulted: faulted,
            pages_hit: hit,
            bytes_read: faulted * page_bytes,
        };
        prop_assert_eq!(StoreReport::from_json(&reparse(&r.to_json())), Ok(r));
    }
}
