//! Bit-identity of deployment assembly through the `FeatureStore`
//! trait: `DistributedSetup::build_with_feature_store` with a lossless
//! f32 store (original-id order) must produce the same deployment as
//! the historical `build` path — same layout, same caches, same served
//! feature rows to the bit, same memory footprint. And a deployment
//! whose stores hold other rows than the dataset's is trained, evaluated
//! and gather-checked on its stores' rows alone.

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp
)]

use spp_graph::dataset::SyntheticSpec;
use spp_graph::{Dataset, FeatureMatrix, QuantScheme, VertexId};
use spp_runtime::{
    DistTrainConfig, DistributedSetup, DistributedTrainReport, DistributedTrainer, SetupConfig,
};
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

/// The gather check compares each row with where the deployment keeps
/// it, not with the dataset's matrix: over an `f16` store, with the
/// static tier `f16` or `i8`, every row differs from the dataset's and
/// the check still passes.
#[test]
fn verify_gather_passes_on_a_quantized_deployment() {
    let (ds, cfg) = fixture();
    let dir = std::env::temp_dir().join(format!("spp_runtime_store_f16_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    StoreBuilder::new(QuantScheme::F16)
        .page_bytes(2048)
        .build_from_matrix(&dir, &ds.features, None)
        .unwrap();
    let store = MmapStore::open(&dir).unwrap();
    for cache_scheme in [QuantScheme::F16, QuantScheme::I8] {
        let cfg = SetupConfig {
            cache_scheme,
            ..cfg.clone()
        };
        let setup = DistributedSetup::build_with_feature_store(&ds, cfg, &store);
        let trainer = DistributedTrainer::new(&setup, DistTrainConfig::default());
        let checked = trainer.verify_gather(3);
        assert!(checked > 100, "{cache_scheme:?}: {checked} rows checked");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// What must match between two runs: losses, traffic and accuracies.
fn fingerprint(r: &DistributedTrainReport) -> (Vec<u64>, usize, u64, [u64; 2]) {
    (
        r.epoch_losses.iter().map(|l| l.to_bits()).collect(),
        r.remote_fetches,
        r.comm.total_bytes(),
        [r.val_accuracy.to_bits(), r.test_accuracy.to_bits()],
    )
}

/// Evaluation reads the rows training reads. A deployment built from
/// the dataset's rows negated, through `build_with_feature_store`, runs
/// as one built from a dataset that carries the negated rows: same
/// losses, fetches, bytes and accuracies, to the bit.
#[test]
fn evaluation_reads_the_rows_training_reads() {
    let ds = SyntheticSpec::new("negated", 800, 10.0, 12, 4)
        .split_fractions(0.4, 0.1, 0.1)
        .feature_signal(2.0)
        .homophily(0.9)
        .seed(11)
        .build();
    let cfg = SetupConfig {
        num_machines: 2,
        fanouts: Fanouts::new(vec![5, 5]),
        alpha: 0.2,
        ..SetupConfig::default()
    };
    let flat = ds.features.as_flat().iter().map(|x| -x).collect();
    let negated = FeatureMatrix::from_flat(flat, ds.features.dim());
    let through_store = DistributedSetup::build_with_feature_store(&ds, cfg.clone(), &negated);
    let carried = DistributedSetup::build(
        &Dataset {
            features: negated,
            ..ds.clone()
        },
        cfg,
    );
    let tcfg = DistTrainConfig {
        epochs: 3,
        lr: 0.01,
        ..DistTrainConfig::default()
    };
    let (a, _) = DistributedTrainer::new(&through_store, tcfg.clone()).train();
    let (b, _) = DistributedTrainer::new(&carried, tcfg).train();
    assert!(
        b.test_accuracy > 0.7,
        "the fixture learns: {}",
        b.test_accuracy
    );
    assert_eq!(fingerprint(&a), fingerprint(&b));
}
