//! Bit-identity of deployment assembly through the `FeatureStore`
//! trait: `DistributedSetup::build_with_feature_store` with a lossless
//! f32 store (original-id order) must produce the same deployment as
//! the historical `build` path — same layout, same caches, same served
//! feature rows to the bit, same memory footprint.

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp
)]

use spp_graph::dataset::SyntheticSpec;
use spp_graph::{Dataset, QuantScheme, VertexId};
use spp_runtime::{DistributedSetup, SetupConfig};
use spp_sampler::Fanouts;
use spp_store::{MmapStore, StoreBuilder};

fn fixture() -> (Dataset, SetupConfig) {
    let ds = SyntheticSpec::new("store-setup", 500, 8.0, 8, 4)
        .split_fractions(0.3, 0.1, 0.1)
        .seed(7)
        .build();
    let cfg = SetupConfig {
        num_machines: 3,
        fanouts: Fanouts::new(vec![4, 3]),
        alpha: 0.15,
        ..SetupConfig::default()
    };
    (ds, cfg)
}

fn assert_setups_identical(a: &DistributedSetup, b: &DistributedSetup, what: &str) {
    assert_eq!(a.local_train, b.local_train, "{what}: local train sets");
    assert_eq!(
        a.dataset.features.as_flat(),
        b.dataset.features.as_flat(),
        "{what}: reordered features"
    );
    assert!(
        (a.memory_multiple() - b.memory_multiple()).abs() == 0.0,
        "{what}: memory multiple {} != {}",
        a.memory_multiple(),
        b.memory_multiple()
    );
    assert_eq!(a.stores.len(), b.stores.len(), "{what}: machine count");
    let n = a.dataset.graph.num_vertices() as VertexId;
    // Probe a spread of new-id rows through every machine's store
    // (serve only answers for local vertices); the static-cache fill
    // and the cold path must both produce identical bits.
    for (p, (sa, sb)) in a.stores.iter().zip(&b.stores).enumerate() {
        assert_eq!(
            sa.cache().members(),
            sb.cache().members(),
            "{what}: cache {p}"
        );
        assert_eq!(sa.cache_scheme(), sb.cache_scheme(), "{what}: scheme {p}");
        let probe: Vec<VertexId> = (0..n)
            .step_by(7)
            .filter(|&v| a.layout.is_local(v, p as u32))
            .collect();
        assert!(!probe.is_empty(), "{what}: no local probe ids for {p}");
        let ra = sa.serve(&probe);
        let rb = sb.serve(&probe);
        for (i, &v) in probe.iter().enumerate() {
            let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(ra.row(i as VertexId)),
                bits(rb.row(i as VertexId)),
                "{what}: machine {p} row {v}"
            );
        }
    }
}

/// An f32 store over the original-order feature matrix feeds `assemble`
/// the same bits as the matrix itself, so the whole deployment —
/// caches, quantized tiers, reordered dataset — matches, with the
/// features living on disk: the store pages are written once by
/// `StoreBuilder` and every cache fill reads through `MmapStore`
/// positioned reads.
#[test]
fn setup_through_mmap_store_matches_build() {
    let (ds, cfg) = fixture();
    let baseline = DistributedSetup::build(&ds, cfg.clone());

    let dir = std::env::temp_dir().join(format!("spp_runtime_store_setup_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    StoreBuilder::new(QuantScheme::F32)
        .page_bytes(2048)
        .build_from_matrix(&dir, &ds.features, None)
        .unwrap();
    let store = MmapStore::open(&dir).unwrap();
    let through = DistributedSetup::build_with_feature_store(&ds, cfg, &store);
    let stats = spp_store::FeatureStore::stats(&store);
    std::fs::remove_dir_all(&dir).unwrap();

    assert_setups_identical(&baseline, &through, "mmap/f32");
    assert!(
        stats.pages_read > 0,
        "assembly never read through the store"
    );
}
