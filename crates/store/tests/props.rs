//! Property tests for the out-of-core store: backend bit-identity and
//! streaming-vs-in-RAM CSR builder equivalence.

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp
)]
#![allow(
    clippy::disallowed_types,
    reason = "DIR_SEQ hands every proptest case its own temp dir: a test-only tally that publishes nothing"
)]

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spp_graph::generate::{citation_edges, citation_graph, GeneratorConfig};
use spp_graph::{CsrGraph, FeatureMatrix, Permutation, QuantScheme, VertexId};
use spp_store::format::{decode_row, encode_row, PAGES_FILE};
use spp_store::tracker::PageTracker;
use spp_store::{
    FeatureStore, InRamStore, MmapStore, PermutedStore, StoreBuilder, StoreError, StoreMeta,
    StoreStats, StreamingCsrBuilder,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "spp_store_props_{}_{}_{}",
        name,
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn feature_fixture(rows: usize, dim: usize) -> FeatureMatrix {
    let mut f = FeatureMatrix::zeros(rows, dim);
    for v in 0..rows {
        for j in 0..dim {
            // Below 2048 so the f16 tier is exact; varied enough that
            // every (row, scheme) pair exercises distinct bit patterns.
            f.row_mut(v as u32)[j] = ((v * 31 + j * 7) % 1997) as f32 + 0.25;
        }
    }
    f
}

/// Streams a generator's edge list through the spill-and-merge builder.
fn stream_build(cfg: &GeneratorConfig, chunk_edges: usize, dir: &Path) -> CsrGraph {
    let stream = cfg.edges();
    let mut b = StreamingCsrBuilder::new(stream.num_vertices(), dir).chunk_edges(chunk_edges);
    for (src, dst) in stream {
        b.add_edge(src, dst).unwrap();
    }
    b.finish().unwrap()
}

fn families(n: usize, e: usize) -> Vec<GeneratorConfig> {
    vec![
        GeneratorConfig::rmat(n, e),
        GeneratorConfig::erdos_renyi(n, e),
        GeneratorConfig::planted_partition(n, e, 4, 0.8),
        GeneratorConfig::chung_lu(n, e, 2.5),
    ]
}

const SCHEMES: [QuantScheme; 3] = [QuantScheme::F32, QuantScheme::F16, QuantScheme::I8];

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Seeded id list over `0..rows` in one of four shapes: random with
/// duplicates, descending, all on the first page, every id twice.
fn id_pattern(
    pattern: usize,
    seed: u64,
    len: usize,
    rows: usize,
    page_rows: usize,
) -> Vec<VertexId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next = |bound: usize| rng.gen_range(0..bound) as VertexId;
    match pattern {
        0 => (0..len).map(|_| next(rows)).collect(),
        1 => {
            let mut ids: Vec<VertexId> = (0..len).map(|_| next(rows)).collect();
            ids.sort_unstable_by(|a, b| b.cmp(a));
            ids
        }
        2 => (0..len).map(|_| next(rows.min(page_rows))).collect(),
        _ => (0..len).flat_map(|_| [next(rows); 2]).collect(),
    }
}

/// What a gather of `ids` must produce, computed without the store:
/// each original row through the scheme's encode → decode round trip.
fn expected_gather(feats: &FeatureMatrix, scheme: QuantScheme, ids: &[VertexId]) -> Vec<f32> {
    let dim = feats.dim();
    let mut bytes = vec![0u8; scheme.row_bytes(dim)];
    let mut out = vec![0.0f32; ids.len() * dim];
    for (&v, row) in ids.iter().zip(out.chunks_exact_mut(dim)) {
        encode_row(scheme, feats.row(v), &mut bytes);
        decode_row(scheme, &bytes, row);
    }
    out
}

/// The per-row accounting model: one `record` per requested row.
fn per_row_stats(meta: &StoreMeta, physical_ids: impl Iterator<Item = VertexId>) -> StoreStats {
    let t = PageTracker::new(meta);
    for v in physical_ids {
        t.record(meta.page_of(v as usize));
    }
    t.stats()
}

/// Row-by-row reads of `ids` through `store`.
fn read_rows(store: &dyn FeatureStore, ids: &[VertexId]) -> Vec<f32> {
    let dim = store.dim();
    let mut out = vec![0.0f32; ids.len() * dim];
    for (&v, row) in ids.iter().zip(out.chunks_exact_mut(dim)) {
        store.read_row_into(v, row);
    }
    out
}

/// Checks one backend: a batched `gather_into` returns the expected
/// bits, equals its own row-by-row reads, and (for tracked backends)
/// charges exactly the per-row accounting model.
fn check_backend(
    what: &str,
    store: &dyn FeatureStore,
    ids: &[VertexId],
    want: &[f32],
    model: Option<StoreStats>,
) -> Result<(), TestCaseError> {
    let before = store.stats();
    let mut got = vec![f32::NAN; want.len()];
    store.gather_into(ids, &mut got);
    let charged = store.stats().since(&before);
    prop_assert_eq!(bits(&got), bits(want), "{}: gather_into bits", what);
    prop_assert_eq!(charged, model.unwrap_or_default(), "{}: stats", what);
    prop_assert_eq!(
        bits(&read_rows(store, ids)),
        bits(want),
        "{}: per-row bits",
        what
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The streaming builder's spill/merge pipeline is invisible: for
    /// every generator family, seed, and chunk size (including chunks
    /// far smaller than the edge count, forcing many spill runs), the
    /// graph equals the in-RAM `GraphBuilder` compaction bit for bit.
    #[test]
    fn streaming_csr_matches_in_ram_builder(
        seed in 0u64..1000,
        chunk_ix in 0usize..4,
    ) {
        let chunk = [7usize, 64, 1009, 1 << 20][chunk_ix];
        for cfg in families(300, 1200) {
            let cfg = cfg.seed(seed);
            let in_ram = cfg.build();
            let streamed = stream_build(&cfg, chunk, &tmp("csr"));
            prop_assert_eq!(&in_ram, &streamed, "chunk {}", chunk);
        }
    }

    /// Mmap and InRam backends decode identical bits for every scheme:
    /// the page file is the single source of truth, regardless of
    /// whether it is resident or read through the file.
    #[test]
    fn mmap_and_inram_backends_are_bit_identical(
        rows in 1usize..200,
        dim in 1usize..17,
        scheme_ix in 0usize..3,
    ) {
        let scheme = [QuantScheme::F32, QuantScheme::F16, QuantScheme::I8][scheme_ix];
        let feats = feature_fixture(rows, dim);
        let dir = tmp("backend");
        StoreBuilder::new(scheme)
            .page_bytes(512)
            .build_from_matrix(&dir, &feats, None)
            .unwrap();
        let inram = InRamStore::open(&dir).unwrap();
        let mmap = MmapStore::open(&dir).unwrap();
        let mut a = vec![0.0f32; dim];
        let mut b = vec![0.0f32; dim];
        for v in 0..rows as u32 {
            inram.read_row_into(v, &mut a);
            mmap.read_row_into(v, &mut b);
            prop_assert_eq!(
                a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "row {} under {:?}", v, scheme
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `gather_into` ≡ per-row `read_row_into`, bit for bit and stat for
    /// stat, on every backend: the trait's default loop
    /// (`FeatureMatrix`), the page-run walker (`InRamStore`,
    /// `MmapStore`) and the id-mapping view (`PermutedStore`) — across
    /// schemes, page sizes down to one row per page, a zero-padded last
    /// page, and unsorted / duplicated / single-page id lists.
    #[test]
    fn gather_into_matches_per_row_reads(
        rows in 1usize..150,
        dim in 1usize..10,
        scheme_ix in 0usize..3,
        page_ix in 0usize..4,
        pattern in 0usize..4,
        len in 0usize..200,
        seed in any::<u64>(),
    ) {
        let scheme = SCHEMES[scheme_ix];
        let page_bytes = [1usize, 64, 200, 4096][page_ix];
        let feats = feature_fixture(rows, dim);
        // Physical slot s holds original row order[s]: a rotation, so
        // logical neighbors straddle page boundaries differently.
        let perm = Permutation::from_order(
            (0..rows).map(|s| ((s + rows / 3) % rows) as VertexId).collect(),
        );
        let (plain_dir, perm_dir) = (tmp("gather"), tmp("gather_perm"));
        let builder = StoreBuilder::new(scheme).page_bytes(page_bytes);
        let meta = builder.build_from_matrix(&plain_dir, &feats, None).unwrap();
        builder.build_from_matrix(&perm_dir, &feats, Some(&perm)).unwrap();
        let ids = id_pattern(pattern, seed, len, rows, meta.page_rows);
        let want = expected_gather(&feats, scheme, &ids);
        let model = per_row_stats(&meta, ids.iter().copied());

        if scheme == QuantScheme::F32 {
            check_backend("matrix", &feats, &ids, &want, None)?;
        }
        let inram = InRamStore::open(&plain_dir).unwrap();
        check_backend("inram", &inram, &ids, &want, Some(model))?;
        let mmap = MmapStore::open(&plain_dir).unwrap();
        check_backend("mmap", &mmap, &ids, &want, Some(model))?;
        let laid_out = MmapStore::open(&perm_dir).unwrap();
        let view = PermutedStore::new(&laid_out, &perm);
        let physical = per_row_stats(&meta, ids.iter().map(|&v| perm.to_new(v)));
        check_backend("permuted", &view, &ids, &want, Some(physical))?;

        std::fs::remove_dir_all(&plain_dir).unwrap();
        std::fs::remove_dir_all(&perm_dir).unwrap();
    }
}

/// `citation_graph` (the io_bench workload) streams bit-identically
/// too — its edge iterator replicates the builder-path RNG draws.
#[test]
fn citation_graph_streams_bit_identically() {
    let (n, e) = (500, 2000);
    for seed in [0u64, 7, 42] {
        let in_ram = citation_graph(n, e, 8, 0.7, 1.4, seed);
        let dir = tmp("cite");
        let mut b = StreamingCsrBuilder::new(n, &dir).chunk_edges(977);
        for (src, dst) in citation_edges(n, e, 8, 0.7, 1.4, seed) {
            b.add_edge(src, dst).unwrap();
        }
        let streamed = b.finish().unwrap();
        assert_eq!(in_ram, streamed, "seed {seed}");
    }
}

/// A graph too big for any single spill run builds correctly and the
/// result matches the reference compaction (multi-run k-way merge).
#[test]
fn many_spill_runs_merge_correctly() {
    let cfg = GeneratorConfig::rmat(2000, 12_000).seed(3);
    let in_ram = cfg.build();
    // ~24k directed inserts over 1k-edge chunks: ≥ 20 run files.
    let streamed = stream_build(&cfg, 1000, &tmp("runs"));
    assert_eq!(in_ram, streamed);
}

/// A payload far longer than the walker's run cap with every page
/// touched: the gather must split into several capped runs and still
/// match the expected bits and the per-row accounting, over two epochs.
#[test]
fn runs_longer_than_the_cap_split_and_still_match() {
    // 6000 rows × 16 f32 = 384 KB of payload; the cap is 256 KiB.
    let (rows, dim) = (6000usize, 16usize);
    let feats = feature_fixture(rows, dim);
    let dir = tmp("cap");
    let meta = StoreBuilder::new(QuantScheme::F32)
        .page_bytes(512)
        .build_from_matrix(&dir, &feats, None)
        .unwrap();
    assert!(meta.payload_bytes() > 256 << 10);
    // Every row once plus a strided second helping, in a scrambled order.
    let mut ids: Vec<VertexId> = (0..rows as VertexId)
        .chain((0..rows as VertexId).step_by(7))
        .collect();
    let n = ids.len();
    for i in 0..n {
        ids.swap(i, (i * 7919 + 13) % n);
    }
    let want = expected_gather(&feats, QuantScheme::F32, &ids);
    let inram = InRamStore::open(&dir).unwrap();
    let mmap = MmapStore::open(&dir).unwrap();
    let model = PageTracker::new(&meta);
    for epoch in 0..2 {
        for &v in &ids {
            model.record(meta.page_of(v as usize));
        }
        for (what, store) in [("inram", &inram as &dyn FeatureStore), ("mmap", &mmap)] {
            let mut got = vec![f32::NAN; want.len()];
            store.gather_into(&ids, &mut got);
            assert_eq!(bits(&got), bits(&want), "{what} epoch {epoch}");
            assert_eq!(store.stats(), model.stats(), "{what} epoch {epoch}");
            store.begin_epoch();
        }
        model.begin_epoch();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

fn small_store(name: &str) -> (PathBuf, FeatureMatrix) {
    let feats = feature_fixture(40, 6);
    let dir = tmp(name);
    StoreBuilder::new(QuantScheme::F16)
        .page_bytes(64)
        .build_from_matrix(&dir, &feats, None)
        .unwrap();
    (dir, feats)
}

fn panic_message(r: std::thread::Result<()>) -> String {
    let payload = r.expect_err("the call must panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// Empty id lists are a no-op; a wrong-sized output or an out-of-range
/// id panics with the documented message before anything is read or
/// charged.
#[test]
fn gather_into_edge_cases() {
    let (dir, feats) = small_store("edges");
    let inram = InRamStore::open(&dir).unwrap();
    let mmap = MmapStore::open(&dir).unwrap();
    let perm = Permutation::identity(40);
    let view = PermutedStore::new(&mmap, &perm);
    let stores: [(&str, &dyn FeatureStore); 4] = [
        ("matrix", &feats),
        ("inram", &inram),
        ("mmap", &mmap),
        ("permuted", &view),
    ];
    for (what, store) in stores {
        store.gather_into(&[], &mut []);
        assert_eq!(store.gather(&[]).num_rows(), 0, "{what}");

        let mut short = vec![0.0f32; 2 * 6 - 1];
        let msg = panic_message(catch_unwind(AssertUnwindSafe(|| {
            store.gather_into(&[1, 2], &mut short);
        })));
        assert!(
            msg.contains("gather output length mismatch"),
            "{what}: {msg}"
        );

        if what != "matrix" {
            let mut out = vec![0.0f32; 3 * 6];
            let msg = panic_message(catch_unwind(AssertUnwindSafe(|| {
                store.gather_into(&[0, 40, 1], &mut out);
            })));
            assert!(msg.contains("row 40 out of range"), "{what}: {msg}");
        }
        assert_eq!(
            store.stats(),
            StoreStats::default(),
            "{what}: charged before failing"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// ROADMAP 5a, the open side: a `pages.bin` shorter or longer than the
/// header implies is a typed error from both backends, not a panic and
/// not a store that reads zeros.
#[test]
fn open_rejects_short_and_over_long_payloads() {
    let (dir, _) = small_store("open_len");
    let pages = dir.join(PAGES_FILE);
    let good = std::fs::read(&pages).unwrap();
    let mut long = good.clone();
    long.extend_from_slice(&[0u8; 64]);
    for (what, bytes) in [
        ("short", &good[..good.len() - 1]),
        ("long", long.as_slice()),
    ] {
        std::fs::write(&pages, bytes).unwrap();
        assert!(
            matches!(MmapStore::open(&dir), Err(StoreError::Corrupt(_))),
            "mmap/{what}"
        );
        assert!(
            matches!(InRamStore::open(&dir), Err(StoreError::Corrupt(_))),
            "inram/{what}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// ROADMAP 5a, the read side: truncating `pages.bin` after `open` makes
/// the first run that reaches past the new end fail loudly with its
/// offset and length; rows are never silently zero.
#[test]
fn truncation_after_open_fails_the_first_affected_run() {
    let (dir, feats) = small_store("truncate");
    let mmap = MmapStore::open(&dir).unwrap();
    let meta = *mmap.meta();
    let keep_pages = 3usize;
    std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join(PAGES_FILE))
        .unwrap()
        .set_len((keep_pages * meta.page_bytes()) as u64)
        .unwrap();

    // Rows wholly inside the surviving prefix still read correctly …
    let intact: Vec<VertexId> = (0..(keep_pages * meta.page_rows) as VertexId).collect();
    let mut got = vec![0.0f32; intact.len() * 6];
    mmap.gather_into(&intact, &mut got);
    assert_eq!(
        bits(&got),
        bits(&expected_gather(&feats, QuantScheme::F16, &intact))
    );

    // … and a run that crosses the cut panics instead of returning.
    let crossing: Vec<VertexId> = vec![0, 39];
    let mut out = vec![f32::NAN; 2 * 6];
    let msg = panic_message(catch_unwind(AssertUnwindSafe(|| {
        mmap.gather_into(&crossing, &mut out);
    })));
    let off = meta.row_offset(39);
    assert!(
        msg.contains("store payload read of") && msg.contains(&format!("at offset {off} failed")),
        "{msg}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
