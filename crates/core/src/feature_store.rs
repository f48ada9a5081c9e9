//! The per-machine partitioned feature store (paper §4.1–4.2).
//!
//! Each machine holds: its partition's feature rows (a GPU-resident
//! prefix plus a CPU-resident remainder, per the two-level ordering), and
//! a static cache of remote features. Given a sampled MFG's node list the
//! store classifies every vertex into local-GPU / local-CPU / cached /
//! remote-by-owner — exactly the split SALIENT++'s batch-preparation
//! pipeline performs right after sampling — and gathers the full feature
//! tensor given a remote-fetch callback.
//!
//! This module is the one owner of "where does vertex `v`'s row live on
//! this machine and how is it read". A batch is classified once
//! ([`PartitionedFeatureStore::plan`]); the distributed engine uses the
//! plan to build its requests and the server to probe its overlay, and
//! both hand the same plan to [`PartitionedFeatureStore::gather_planned`]
//! for the reads. Rows enter through one constructor from any
//! `spp_store::FeatureStore` — the resident matrix and the paged
//! out-of-core stores are backends of the same path.

use crate::cache::StaticCache;
use crate::reorder::ReorderedLayout;
use spp_graph::{FeatureMatrix, QuantScheme, QuantizedFeatures, VertexId};
use spp_store::FeatureStore;
use spp_tensor::Matrix;

/// Where a vertex's features live relative to one machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FeatureLocation {
    /// Local partition, GPU-resident prefix.
    LocalGpu,
    /// Local partition, CPU-resident remainder.
    LocalCpu,
    /// Remote vertex present in the static cache.
    Cached,
    /// Remote vertex owned by the given partition; must be fetched.
    Remote(u32),
}

/// The classification of one MFG's node list against a machine's storage.
#[derive(Clone, Debug, Default)]
pub struct BatchPlan {
    /// Positions (into the MFG node list) of local GPU-resident vertices.
    pub local_gpu: Vec<u32>,
    /// Positions of local CPU-resident vertices.
    pub local_cpu: Vec<u32>,
    /// Positions of cache hits.
    pub cached: Vec<u32>,
    /// Per-owner lists of `(position, vertex)` that must be fetched.
    pub remote: Vec<Vec<(u32, VertexId)>>,
}

impl BatchPlan {
    /// Total number of vertices that must be fetched over the network.
    pub fn num_remote(&self) -> usize {
        self.remote.iter().map(Vec::len).sum()
    }

    /// Number of vertices needing a host-to-device copy (CPU-resident
    /// locals plus received remote features staged through the host).
    pub fn num_host_to_device(&self) -> usize {
        self.local_cpu.len() + self.num_remote()
    }

    /// Total classified vertices.
    pub fn num_vertices(&self) -> usize {
        self.local_gpu.len() + self.local_cpu.len() + self.cached.len() + self.num_remote()
    }
}

/// One machine's feature storage under the reordered layout.
#[derive(Clone, Debug)]
pub struct PartitionedFeatureStore {
    part: u32,
    layout: ReorderedLayout,
    /// Local feature rows, indexed by local index (new id − part offset).
    local: FeatureMatrix,
    /// Number of local rows resident on GPU (prefix of `local`).
    gpu_rows: usize,
    /// Static cache of remote features.
    cache: StaticCache,
    /// Cached feature rows, aligned with `cache` slots; optionally
    /// quantized (DESIGN.md §14) so the same RAM holds ~2× (`f16`) or
    /// ~4× (`i8`) the entries.
    cache_feats: QuantizedFeatures,
}

impl PartitionedFeatureStore {
    /// Builds machine `part`'s store, reading rows through `feats`.
    ///
    /// `feats` must be addressed by *reordered* (new) ids and cover all
    /// vertices: the resident reordered matrix, or an out-of-core store
    /// (DESIGN.md §16; one built in original-id order wants a
    /// `spp_store::PermutedStore` wrapper). Only the machine's own rows
    /// and its cache members are read and copied out, mirroring a real
    /// deployment where each machine materializes only its slice.
    ///
    /// `cache_scheme` is the storage scheme of the static cache tier:
    /// `F32` keeps rows bit-for-bit; `F16`/`I8` store compressed rows
    /// that are dequantized on every cached-row gather
    /// (allocation-free).
    ///
    /// # Panics
    ///
    /// Panics if `beta` is outside `[0,1]`, the cache contains local
    /// vertices, or shapes mismatch.
    pub fn build(
        part: u32,
        layout: &ReorderedLayout,
        feats: &dyn FeatureStore,
        beta: f64,
        cache: StaticCache,
        cache_scheme: QuantScheme,
    ) -> Self {
        assert_eq!(
            feats.num_rows(),
            layout.num_vertices(),
            "feature store must cover all vertices"
        );
        let range = layout.part_range(part);
        let ids: Vec<VertexId> = (range.start as VertexId..range.end as VertexId).collect();
        let local = feats.gather(&ids);
        let gpu_rows = layout.gpu_rows(part, beta);
        for &v in cache.members() {
            assert!(
                !layout.is_local(v, part),
                "cache must not contain local vertex {v}"
            );
        }
        let cache_feats =
            QuantizedFeatures::from_matrix(&feats.gather(cache.members()), cache_scheme);
        Self {
            part,
            layout: layout.clone(),
            local,
            gpu_rows,
            cache,
            cache_feats,
        }
    }

    /// This machine's partition id.
    pub fn part(&self) -> u32 {
        self.part
    }

    /// The layout the store was built against.
    pub fn layout(&self) -> &ReorderedLayout {
        &self.layout
    }

    /// The cache.
    pub fn cache(&self) -> &StaticCache {
        &self.cache
    }

    /// Storage scheme of the static cache tier.
    pub fn cache_scheme(&self) -> QuantScheme {
        self.cache_feats.scheme()
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.local.dim()
    }

    /// Number of GPU-resident local rows.
    pub fn gpu_rows(&self) -> usize {
        self.gpu_rows
    }

    /// Total feature bytes stored by this machine (local + cached) — the
    /// quantity Figure 5's memory plot sums over machines.
    pub fn memory_bytes(&self) -> usize {
        self.local.memory_bytes() + self.cache_feats.memory_bytes()
    }

    /// Classifies a single (new-id) vertex.
    #[inline]
    pub fn locate(&self, v: VertexId) -> FeatureLocation {
        if self.layout.is_local(v, self.part) {
            if self.layout.local_index(v) < self.gpu_rows {
                FeatureLocation::LocalGpu
            } else {
                FeatureLocation::LocalCpu
            }
        } else if self.cache.contains(v) {
            FeatureLocation::Cached
        } else {
            FeatureLocation::Remote(self.layout.owner_of(v))
        }
    }

    /// Classifies an MFG node list into the four storage groups.
    pub fn plan(&self, nodes: &[VertexId]) -> BatchPlan {
        let mut plan = BatchPlan {
            remote: vec![Vec::new(); self.layout.num_parts()], // spp-hot: alloc(per-owner request lists, one per partition; the plan IS the batch output)
            ..BatchPlan::default()
        };
        for (i, &v) in nodes.iter().enumerate() {
            match self.locate(v) {
                FeatureLocation::LocalGpu => plan.local_gpu.push(i as u32), // spp-hot: alloc(plan bucket, one u32 per batch node)
                FeatureLocation::LocalCpu => plan.local_cpu.push(i as u32), // spp-hot: alloc(plan bucket, one u32 per batch node)
                FeatureLocation::Cached => plan.cached.push(i as u32), // spp-hot: alloc(plan bucket, one u32 per batch node)
                FeatureLocation::Remote(owner) => {
                    // spp-hot: alloc(plan bucket, one entry per remote batch node)
                    plan.remote[owner as usize].push((i as u32, v));
                }
            }
        }
        plan
    }

    /// Serves a peer's fetch request: features of local (new-id) vertices.
    ///
    /// # Panics
    ///
    /// Panics if any requested vertex is not local to this machine.
    pub fn serve(&self, ids: &[VertexId]) -> FeatureMatrix {
        let local_ids: Vec<VertexId> = ids
            .iter()
            .map(|&v| {
                assert!(
                    self.layout.is_local(v, self.part),
                    "vertex {v} not local to partition {}",
                    self.part
                );
                self.layout.local_index(v) as VertexId
            })
            .collect();
        self.local.gather(&local_ids)
    }

    /// Gathers the full feature tensor for an MFG node list: classifies
    /// it and hands the plan to
    /// [`PartitionedFeatureStore::gather_planned`]. A caller that
    /// already holds the batch's plan calls that directly.
    // spp-hot(feature.gather)
    pub fn gather<F>(&self, nodes: &[VertexId], fetch: F) -> Matrix
    where
        F: FnMut(u32, &[VertexId]) -> FeatureMatrix,
    {
        self.gather_planned(nodes, &self.plan(nodes), fetch)
    }

    /// Reads every row `plan` lists into a `nodes.len() × dim` tensor
    /// whose rows align with `nodes`: local rows from the partition
    /// slice, cache hits decoded from the static tier, and each owner's
    /// remote rows through one `fetch(owner, ids) -> FeatureMatrix` call
    /// (rows aligned with `ids`).
    ///
    /// `plan` must be [`PartitionedFeatureStore::plan`] of `nodes`,
    /// possibly with entries removed from `remote`: a position no bucket
    /// lists is left zero for the caller to fill (the serving overlay
    /// answers part of the remote residue itself).
    ///
    /// # Panics
    ///
    /// Panics if a fetch response has the wrong row count or dimension.
    pub fn gather_planned<F>(&self, nodes: &[VertexId], plan: &BatchPlan, mut fetch: F) -> Matrix
    where
        F: FnMut(u32, &[VertexId]) -> FeatureMatrix,
    {
        let d = self.dim();
        let mut out = Matrix::zeros(nodes.len(), d);
        for &pos in plan.local_gpu.iter().chain(&plan.local_cpu) {
            let li = self.layout.local_index(nodes[pos as usize]);
            out.row_mut(pos as usize)
                .copy_from_slice(self.local.row(li as VertexId));
        }
        for &pos in &plan.cached {
            let Some(slot) = self.cache.slot_of(nodes[pos as usize]) else {
                debug_assert!(false, "planned cache hit must be cached");
                continue;
            };
            self.cache_feats
                .read_row_into(slot as usize, out.row_mut(pos as usize));
        }
        for (owner, requests) in plan.remote.iter().enumerate() {
            if requests.is_empty() {
                continue;
            }
            let ids: Vec<VertexId> = requests.iter().map(|&(_, v)| v).collect(); // spp-hot: alloc(remote fetch id list, one per off-partition owner touched)
            let feats = fetch(owner as u32, &ids);
            assert_eq!(feats.num_rows(), ids.len(), "fetch returned wrong rows");
            assert_eq!(feats.dim(), d, "fetch returned wrong dim");
            for (r, &(pos, _)) in requests.iter().enumerate() {
                out.row_mut(pos as usize)
                    .copy_from_slice(feats.row(r as VertexId));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_partition::Partitioning;

    /// 6 vertices, 2 parts: p0 = {0,1,2}, p1 = {3,4,5} (identity layout).
    /// Features: row v = [v, v].
    fn fixture(beta: f64, cache_members: &[VertexId]) -> (PartitionedFeatureStore, FeatureMatrix) {
        let part = Partitioning::new(vec![0, 0, 0, 1, 1, 1], 2);
        let layout = ReorderedLayout::build(&part, None);
        let mut feats = FeatureMatrix::zeros(6, 2);
        for v in 0..6u32 {
            feats.row_mut(v).copy_from_slice(&[v as f32, v as f32]);
        }
        let cache = StaticCache::from_members(cache_members);
        let store =
            PartitionedFeatureStore::build(0, &layout, &feats, beta, cache, QuantScheme::F32);
        (store, feats)
    }

    #[test]
    fn locate_all_classes() {
        let (store, _) = fixture(0.34, &[4]); // gpu_rows = 1
        assert_eq!(store.locate(0), FeatureLocation::LocalGpu);
        assert_eq!(store.locate(1), FeatureLocation::LocalCpu);
        assert_eq!(store.locate(4), FeatureLocation::Cached);
        assert_eq!(store.locate(5), FeatureLocation::Remote(1));
    }

    #[test]
    fn plan_partitions_positions() {
        let (store, _) = fixture(0.34, &[4]);
        let nodes = vec![0, 1, 4, 5, 2, 3];
        let plan = store.plan(&nodes);
        assert_eq!(plan.local_gpu, vec![0]);
        assert_eq!(plan.local_cpu, vec![1, 4]);
        assert_eq!(plan.cached, vec![2]);
        assert_eq!(plan.remote[1], vec![(3, 5), (5, 3)]);
        assert_eq!(plan.num_remote(), 2);
        assert_eq!(plan.num_vertices(), 6);
        assert_eq!(plan.num_host_to_device(), 4);
    }

    #[test]
    fn gather_matches_global_features() {
        let (store, feats) = fixture(0.5, &[3]);
        let nodes = vec![5, 0, 3, 2];
        let out = store.gather(&nodes, |owner, ids| {
            assert_eq!(owner, 1);
            feats.gather(ids)
        });
        for (i, &v) in nodes.iter().enumerate() {
            assert_eq!(out.row(i), feats.row(v), "row {i} mismatch");
        }
    }

    #[test]
    fn gather_planned_fills_only_what_the_plan_lists() {
        let (store, feats) = fixture(0.5, &[3]);
        let nodes = vec![5, 0, 4];
        let mut plan = store.plan(&nodes);
        // The caller answers vertex 5 from a tier of its own.
        plan.remote[1].retain(|&(_, v)| v != 5);
        let out = store.gather_planned(&nodes, &plan, |owner, ids| {
            assert_eq!((owner, ids), (1, &[4][..]));
            feats.gather(ids)
        });
        assert_eq!(out.row(0), [0.0, 0.0]);
        assert_eq!(out.row(1), feats.row(0));
        assert_eq!(out.row(2), feats.row(4));
    }

    #[test]
    fn gather_without_remote_never_fetches() {
        let (store, _) = fixture(1.0, &[3, 4, 5]);
        let nodes = vec![0, 1, 2, 3, 4, 5];
        let out = store.gather(&nodes, |_, _| panic!("unexpected fetch"));
        assert_eq!(out.rows(), 6);
    }

    #[test]
    fn serve_returns_local_rows() {
        let (store, feats) = fixture(0.0, &[]);
        let served = store.serve(&[2, 0]);
        assert_eq!(served.row(0), feats.row(2));
        assert_eq!(served.row(1), feats.row(0));
    }

    #[test]
    #[should_panic(expected = "not local to partition")]
    fn serve_rejects_remote_ids() {
        let (store, _) = fixture(0.0, &[]);
        store.serve(&[4]);
    }

    #[test]
    #[should_panic(expected = "cache must not contain local vertex")]
    fn cache_of_local_vertex_rejected() {
        fixture(0.0, &[1]);
    }

    #[test]
    #[should_panic(expected = "fetch returned wrong rows")]
    fn gather_rejects_short_fetch_response() {
        // Failure injection: a peer answering with too few rows must be
        // detected, not silently corrupt the batch tensor.
        let (store, _) = fixture(0.0, &[]);
        store.gather(&[5], |_, _| FeatureMatrix::zeros(0, 2));
    }

    #[test]
    #[should_panic(expected = "fetch returned wrong dim")]
    fn gather_rejects_wrong_dim_response() {
        let (store, _) = fixture(0.0, &[]);
        store.gather(&[5], |_, _| FeatureMatrix::zeros(1, 7));
    }

    #[test]
    fn memory_bytes_counts_local_and_cache() {
        let (store, _) = fixture(0.0, &[3, 4]);
        // 3 local rows + 2 cached rows, dim 2, f32.
        assert_eq!(store.memory_bytes(), (3 + 2) * 2 * 4);
    }

    #[test]
    fn quantized_cache_tier_halves_cache_bytes_and_stays_close() {
        let part = Partitioning::new(vec![0, 0, 0, 1, 1, 1], 2);
        let layout = ReorderedLayout::build(&part, None);
        let mut feats = FeatureMatrix::zeros(6, 2);
        for v in 0..6u32 {
            feats
                .row_mut(v)
                .copy_from_slice(&[v as f32 / 3.0, -(v as f32) / 7.0]);
        }
        let cache = StaticCache::from_members(&[3, 4]);
        let build =
            |scheme| PartitionedFeatureStore::build(0, &layout, &feats, 0.0, cache.clone(), scheme);
        let f32_store = build(QuantScheme::F32);
        let f16_store = build(QuantScheme::F16);
        assert_eq!(f16_store.cache_scheme(), QuantScheme::F16);
        assert_eq!(f32_store.cache_scheme(), QuantScheme::F32);
        // Cache tier bytes halve; local rows are unchanged.
        assert_eq!(
            f16_store.memory_bytes(),
            f32_store.memory_bytes() - 2 * 2 * 2
        );
        // Gathered cached rows agree within the f16 error bound.
        let nodes = vec![3, 4];
        let exact = f32_store.gather(&nodes, |_, _| panic!("no fetch"));
        let lossy = f16_store.gather(&nodes, |_, _| panic!("no fetch"));
        for i in 0..2 {
            for (a, b) in exact.row(i).iter().zip(lossy.row(i)) {
                assert!((a - b).abs() <= a.abs().max(1.0) * 2.0f32.powi(-11));
            }
        }
    }
}
