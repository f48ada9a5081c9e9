//! Building a distributed deployment from a dataset.

use spp_core::policies::{CachePolicy, PolicyContext};
use spp_core::{CacheBuilder, PartitionedFeatureStore, ReorderedLayout, VipModel};
use spp_graph::{Dataset, QuantScheme, VertexId};
use spp_partition::multilevel::MultilevelPartitioner;
use spp_partition::{Partitioning, VertexWeights};
use spp_sampler::Fanouts;
use spp_store::{FeatureStore, PermutedStore};

/// Configuration for [`DistributedSetup::build`].
#[derive(Clone, Debug)]
pub struct SetupConfig {
    /// Number of machines K (one partition each).
    pub num_machines: usize,
    /// Training fanouts.
    pub fanouts: Fanouts,
    /// Per-machine minibatch size.
    pub batch_size: usize,
    /// Remote-feature caching policy.
    pub policy: CachePolicy,
    /// Replication factor α (cache holds αN/K vertices per machine).
    pub alpha: f64,
    /// Fraction β of each machine's local features kept on GPU.
    pub beta: f64,
    /// Storage precision of the static cache tier. Quantized schemes
    /// roughly double (`F16`) or quadruple (`I8`) the vertices cached
    /// per byte at a bounded per-element error; local partition rows
    /// stay full precision.
    pub cache_scheme: QuantScheme,
    /// Order local vertices by VIP (true) or keep input order within each
    /// partition (false, Figure 6's "no reorder").
    pub vip_reorder: bool,
    /// Master seed (partitioning, policies).
    pub seed: u64,
}

impl Default for SetupConfig {
    fn default() -> Self {
        Self {
            num_machines: 4,
            fanouts: Fanouts::new(vec![15, 10, 5]),
            batch_size: 32,
            policy: CachePolicy::VipAnalytic,
            alpha: 0.16,
            beta: 1.0,
            cache_scheme: QuantScheme::F32,
            vip_reorder: true,
            seed: 0,
        }
    }
}

/// A fully materialized distributed deployment: partitioned, reordered,
/// cached feature stores plus per-machine training-vertex streams.
///
/// All vertex ids in `dataset`, `stores`, and `local_train` are in the
/// *reordered* (new) id space; `partitioning` is kept in the original id
/// space for reference.
///
/// # Example
///
/// ```
/// use spp_graph::dataset::SyntheticSpec;
/// use spp_runtime::{DistributedSetup, SetupConfig};
/// use spp_sampler::Fanouts;
///
/// let ds = SyntheticSpec::new("d", 300, 8.0, 8, 4)
///     .split_fractions(0.2, 0.05, 0.05)
///     .seed(1)
///     .build();
/// let setup = DistributedSetup::build(&ds, SetupConfig {
///     num_machines: 2,
///     fanouts: Fanouts::new(vec![4, 3]),
///     alpha: 0.2,
///     ..SetupConfig::default()
/// });
/// assert_eq!(setup.num_machines(), 2);
/// assert!(setup.memory_multiple() <= 1.2);
/// ```
#[derive(Clone, Debug)]
pub struct DistributedSetup {
    /// The configuration used to build this deployment.
    pub config: SetupConfig,
    /// The reordered dataset (new ids).
    pub dataset: Dataset,
    /// The two-level layout (owners, offsets, GPU prefixes).
    pub layout: ReorderedLayout,
    /// The partitioning over original ids.
    pub partitioning: Partitioning,
    /// One feature store per machine.
    pub stores: Vec<PartitionedFeatureStore>,
    /// Per-machine training vertex ids (new id space, sorted).
    pub local_train: Vec<Vec<VertexId>>,
}

impl DistributedSetup {
    /// Partitions, analyzes, reorders, and caches. Each machine's
    /// partition is a row range of the reordered matrix
    /// (`dataset.features`), shared, not copied, so the deployment holds
    /// (1 + α)·N·d feature values: the matrix and the static caches.
    ///
    /// # Panics
    ///
    /// Panics if `config.policy` is [`CachePolicy::Oracle`] (the oracle
    /// needs measured access counts — use [`DistributedSetup::build_with_rankings`]).
    pub fn build(ds: &Dataset, config: SetupConfig) -> Self {
        Self::build_from(ds, config, None)
    }

    /// [`DistributedSetup::build`] filling each machine's feature slices
    /// (local partition rows and static-cache rows) from any
    /// [`FeatureStore`] addressed by *original* vertex ids — e.g. an
    /// out-of-core store (DESIGN.md §16). Each machine touches only its
    /// own pages and copies its rows out, since they may differ from the
    /// dataset's; an f32 store yields a deployment bit-identical to the
    /// resident matrix's.
    ///
    /// # Panics
    ///
    /// Panics if the store's shape disagrees with the dataset or if
    /// `config.policy` is [`CachePolicy::Oracle`].
    // spp-det(runtime.setup_feature_store)
    pub fn build_with_feature_store(
        ds: &Dataset,
        config: SetupConfig,
        store: &dyn FeatureStore,
    ) -> Self {
        assert_eq!(
            store.num_rows(),
            ds.num_vertices(),
            "feature store row count must match the dataset"
        );
        assert_eq!(
            store.dim(),
            ds.features.dim(),
            "feature store dim must match the dataset"
        );
        Self::build_from(ds, config, Some(store))
    }

    /// Builds with the machines' rows read from `store` (original ids),
    /// or from the reordered matrix itself when there is none.
    fn build_from(ds: &Dataset, config: SetupConfig, store: Option<&dyn FeatureStore>) -> Self {
        assert!(
            config.policy != CachePolicy::Oracle,
            "oracle policy needs measured counts; use build_with_rankings"
        );
        let (partitioning, train_of_part) = Self::partition(ds, &config);
        let rankings = Self::policy_rankings(ds, &config, &partitioning, &train_of_part);
        Self::assemble(ds, config, partitioning, train_of_part, rankings, store)
    }

    /// Per-machine cache rankings under `config.policy` (original ids).
    fn policy_rankings(
        ds: &Dataset,
        config: &SetupConfig,
        partitioning: &Partitioning,
        train_of_part: &[Vec<VertexId>],
    ) -> Vec<Vec<VertexId>> {
        (0..config.num_machines as u32)
            .map(|p| {
                let ctx = PolicyContext {
                    graph: &ds.graph,
                    partitioning,
                    part: p,
                    local_train: &train_of_part[p as usize],
                    fanouts: config.fanouts.clone(),
                    batch_size: config.batch_size,
                    seed: config.seed ^ 0x5eed,
                    oracle_counts: &[],
                };
                ctx.rank(config.policy)
            })
            .collect()
    }

    /// Like [`DistributedSetup::build`] but with externally supplied
    /// per-machine cache rankings (original vertex ids) — used for the
    /// oracle policy and for policy-comparison experiments.
    // spp-det(runtime.setup_rankings)
    pub fn build_with_rankings(
        ds: &Dataset,
        config: SetupConfig,
        rankings: Vec<Vec<VertexId>>,
    ) -> Self {
        let (partitioning, train_of_part) = Self::partition(ds, &config);
        Self::assemble(ds, config, partitioning, train_of_part, rankings, None)
    }

    /// Partitions the original dataset and splits its training set by part.
    pub fn partition(ds: &Dataset, config: &SetupConfig) -> (Partitioning, Vec<Vec<VertexId>>) {
        let w = VertexWeights::from_dataset(ds);
        let partitioning = MultilevelPartitioner::new(config.num_machines)
            .seed(config.seed)
            .partition(&ds.graph, &w);
        let mut train_of_part: Vec<Vec<VertexId>> = vec![Vec::new(); config.num_machines];
        for &v in &ds.split.train {
            train_of_part[partitioning.part_of(v) as usize].push(v);
        }
        (partitioning, train_of_part)
    }

    /// `store` holds the feature rows, addressed by original ids; with
    /// none, the machines read the reordered matrix.
    fn assemble(
        ds: &Dataset,
        config: SetupConfig,
        partitioning: Partitioning,
        train_of_part: Vec<Vec<VertexId>>,
        rankings: Vec<Vec<VertexId>>,
        store: Option<&dyn FeatureStore>,
    ) -> Self {
        // Local ordering scores: each partition ranks its own vertices by
        // its local VIP values.
        let layout = if config.vip_reorder {
            let vip = VipModel::new(config.fanouts.clone(), config.batch_size)
                .partition_scores(&ds.graph, &train_of_part);
            ReorderedLayout::build(&partitioning, Some(&vip))
        } else {
            ReorderedLayout::build(&partitioning, None)
        };

        let dataset = ds.permuted(layout.perm());

        // Machine builds address rows by new ids. The reordered matrix is
        // in that order, and lends each machine its partition's rows;
        // `store` is in original-id order: view.read(new) =
        // store.read(to_old(new)), each machine's rows copied out.
        let (inv, view);
        let feats: &dyn FeatureStore = match store {
            None => &dataset.features,
            Some(store) => {
                inv = layout.perm().inverse();
                view = PermutedStore::new(store, &inv);
                &view
            }
        };

        let cache_builder = CacheBuilder::new(config.alpha, ds.num_vertices(), config.num_machines);
        let stores: Vec<PartitionedFeatureStore> = (0..config.num_machines as u32)
            .map(|p| {
                // Rankings are in original ids; relabel into the new space.
                let mut ranking = rankings[p as usize].clone();
                layout.perm().relabel(&mut ranking);
                let cache = cache_builder.build(&ranking);
                PartitionedFeatureStore::build(
                    p,
                    &layout,
                    feats,
                    config.beta,
                    cache,
                    config.cache_scheme,
                )
            })
            .collect();

        let local_train: Vec<Vec<VertexId>> = (0..config.num_machines as u32)
            .map(|p| {
                let mut t: Vec<VertexId> = train_of_part[p as usize]
                    .iter()
                    .map(|&v| layout.perm().to_new(v))
                    .collect();
                t.sort_unstable();
                t
            })
            .collect();

        Self {
            config,
            dataset,
            layout,
            partitioning,
            stores,
            local_train,
        }
    }

    /// Number of machines.
    pub fn num_machines(&self) -> usize {
        self.config.num_machines
    }

    /// Layer widths of the model trained on this deployment with the
    /// given hidden width ([`spp_gnn::model_dims`]).
    pub fn model_dims(&self, hidden_dim: usize) -> Vec<usize> {
        spp_gnn::model_dims(
            self.dataset.features.dim(),
            hidden_dim,
            self.config.fanouts.num_hops(),
            self.dataset.num_classes,
        )
    }

    /// Rounds per epoch: the maximum per-machine batch count (machines
    /// with fewer batches idle in the tail rounds, as in the paper's
    /// partition-wise distributed minibatches).
    pub fn rounds_per_epoch(&self) -> usize {
        self.local_train
            .iter()
            .map(|t| t.len().div_ceil(self.config.batch_size))
            .max()
            .unwrap_or(0)
    }

    /// Total feature memory across machines as a multiple of the
    /// unreplicated dataset (Figure 5's right plot; `1 + α` in expectation).
    pub fn memory_multiple(&self) -> f64 {
        let total: usize = self.stores.iter().map(|s| s.memory_bytes()).sum();
        total as f64 / self.dataset.feature_bytes() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_graph::dataset::SyntheticSpec;

    fn tiny_ds() -> Dataset {
        SyntheticSpec::new("t", 600, 10.0, 8, 4)
            .split_fractions(0.3, 0.1, 0.1)
            .seed(7)
            .build()
    }

    fn tiny_cfg() -> SetupConfig {
        SetupConfig {
            num_machines: 3,
            fanouts: Fanouts::new(vec![4, 3]),
            batch_size: 16,
            alpha: 0.2,
            beta: 0.5,
            ..SetupConfig::default()
        }
    }

    #[test]
    fn build_produces_consistent_deployment() {
        let ds = tiny_ds();
        let s = DistributedSetup::build(&ds, tiny_cfg());
        assert_eq!(s.stores.len(), 3);
        // Every training vertex appears in exactly one machine's stream.
        let total: usize = s.local_train.iter().map(Vec::len).sum();
        assert_eq!(total, ds.split.train.len());
        for (k, t) in s.local_train.iter().enumerate() {
            for &v in t {
                assert!(
                    s.layout.is_local(v, k as u32),
                    "train vertex on wrong machine"
                );
            }
        }
    }

    #[test]
    fn caches_sized_by_alpha() {
        let ds = tiny_ds();
        let cfg = tiny_cfg();
        let s = DistributedSetup::build(&ds, cfg.clone());
        let cap = (cfg.alpha * 600.0 / 3.0).round() as usize;
        for store in &s.stores {
            assert!(store.cache().len() <= cap);
            assert!(!store.cache().is_empty(), "cache unexpectedly empty");
        }
    }

    #[test]
    fn memory_multiple_close_to_one_plus_alpha() {
        let ds = tiny_ds();
        let s = DistributedSetup::build(&ds, tiny_cfg());
        let m = s.memory_multiple();
        assert!((1.0..=1.0 + 0.2 + 1e-9).contains(&m), "memory multiple {m}");
    }

    #[test]
    fn zero_alpha_means_no_cache() {
        let ds = tiny_ds();
        let mut cfg = tiny_cfg();
        cfg.alpha = 0.0;
        cfg.policy = CachePolicy::None;
        let s = DistributedSetup::build(&ds, cfg);
        assert!(s.stores.iter().all(|st| st.cache().is_empty()));
        assert!((s.memory_multiple() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rounds_per_epoch_is_max() {
        let ds = tiny_ds();
        let s = DistributedSetup::build(&ds, tiny_cfg());
        let expect = s
            .local_train
            .iter()
            .map(|t| t.len().div_ceil(16))
            .max()
            .unwrap();
        assert_eq!(s.rounds_per_epoch(), expect);
    }

    #[test]
    fn reordered_features_match_originals() {
        let ds = tiny_ds();
        let s = DistributedSetup::build(&ds, tiny_cfg());
        for old in (0..600u32).step_by(37) {
            let new = s.layout.perm().to_new(old);
            assert_eq!(ds.features.row(old), s.dataset.features.row(new));
        }
    }

    #[test]
    #[should_panic(expected = "oracle policy needs measured counts")]
    fn oracle_requires_rankings() {
        let ds = tiny_ds();
        let mut cfg = tiny_cfg();
        cfg.policy = CachePolicy::Oracle;
        DistributedSetup::build(&ds, cfg);
    }
}
