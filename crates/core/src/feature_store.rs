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
//! plan to build its requests and the server to probe its overlay. The
//! reads come in two halves: [`PartitionedFeatureStore::read_resident`]
//! (local rows and the static tier, immutable after build) and
//! [`PartitionedFeatureStore::read_remote`] (each owner's fetch). The
//! engine runs both through [`PartitionedFeatureStore::gather_planned`];
//! the server runs the remote half while preparing a batch and the
//! resident half beside its forward pass. Rows enter through one
//! constructor from any `spp_store::FeatureStore` — the resident matrix
//! and the paged out-of-core stores are backends of the same path.

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
    /// Cache hits as `(position, static-tier slot)`.
    pub cached: Vec<(u32, u32)>,
    /// Per-owner lists of `(position, vertex)` that must be fetched.
    pub remote: Vec<Vec<(u32, VertexId)>>,
}

impl BatchPlan {
    /// Total number of vertices that must be fetched over the network.
    pub fn num_remote(&self) -> usize {
        self.remote.iter().map(Vec::len).sum()
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
        self.locate_slot(v).0
    }

    /// [`Self::locate`], with the static-tier slot of a cached vertex (0
    /// for the other classes) from the same search of the cache index.
    #[inline]
    fn locate_slot(&self, v: VertexId) -> (FeatureLocation, u32) {
        if self.layout.is_local(v, self.part) {
            if self.layout.local_index(v) < self.gpu_rows {
                (FeatureLocation::LocalGpu, 0)
            } else {
                (FeatureLocation::LocalCpu, 0)
            }
        } else if let Some(slot) = self.cache.slot_of(v) {
            (FeatureLocation::Cached, slot)
        } else {
            (FeatureLocation::Remote(self.layout.owner_of(v)), 0)
        }
    }

    /// Classifies an MFG node list into the four storage groups.
    // spp-hot(feature.plan)
    pub fn plan(&self, nodes: &[VertexId]) -> BatchPlan {
        let mut plan = BatchPlan {
            remote: vec![Vec::new(); self.layout.num_parts()], // spp-hot: alloc(per-owner request lists, one per partition; the plan IS the batch output)
            ..BatchPlan::default()
        };
        for (i, &v) in nodes.iter().enumerate() {
            let (location, slot) = self.locate_slot(v);
            match location {
                FeatureLocation::LocalGpu => plan.local_gpu.push(i as u32), // spp-hot: alloc(plan bucket, one u32 per batch node)
                FeatureLocation::LocalCpu => plan.local_cpu.push(i as u32), // spp-hot: alloc(plan bucket, one u32 per batch node)
                FeatureLocation::Cached => plan.cached.push((i as u32, slot)), // spp-hot: alloc(plan bucket, one (position, slot) pair per cached batch node)
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
    /// [`PartitionedFeatureStore::gather_planned`] with a fresh slot. A
    /// caller that already holds the batch's plan calls that directly.
    pub fn gather<F>(&self, nodes: &[VertexId], fetch: F) -> Matrix
    where
        F: FnMut(u32, &[VertexId]) -> FeatureMatrix,
    {
        self.gather_planned(nodes, &self.plan(nodes), Vec::new(), fetch)
    }

    /// Reads every row `plan` lists into a `nodes.len() × dim` tensor
    /// whose rows align with `nodes`, built on `slot` — a recycled buffer
    /// of any length: [`PartitionedFeatureStore::read_resident`] reads the
    /// local rows and static-tier hits, and
    /// [`PartitionedFeatureStore::read_remote`] each owner's rows through
    /// `fetch`.
    ///
    /// `plan` must be [`PartitionedFeatureStore::plan`] of `nodes`,
    /// possibly with entries removed from `remote`. The slot is not
    /// zero-filled: a position no bucket lists keeps whatever `slot` held
    /// there (zero where it had to grow), for the caller to fill — the
    /// serving overlay answers part of the remote residue itself. A slot
    /// too small for the batch is replaced, not grown
    /// ([`Matrix::from_recycled`]).
    ///
    /// # Panics
    ///
    /// Panics if a fetch response has the wrong row count or dimension.
    // spp-hot(feature.gather)
    pub fn gather_planned<F>(
        &self,
        nodes: &[VertexId],
        plan: &BatchPlan,
        slot: Vec<f32>,
        fetch: F,
    ) -> Matrix
    where
        F: FnMut(u32, &[VertexId]) -> FeatureMatrix,
    {
        let mut out = Matrix::from_recycled(nodes.len(), self.dim(), slot);
        self.read_resident(nodes, plan, &mut out);
        self.read_remote(plan, &mut out, fetch);
        out
    }

    /// Reads the plan's resident rows into `out` (rows aligned with
    /// `nodes`): local GPU/CPU rows from the partition slice and cache
    /// hits decoded from the static tier. Both are fixed at build, so a
    /// read needs only `&self` and may run beside anything that mutates
    /// other state. Positions outside `local_gpu`, `local_cpu` and
    /// `cached` are not touched.
    // spp-hot(feature.read_resident)
    pub fn read_resident(&self, nodes: &[VertexId], plan: &BatchPlan, out: &mut Matrix) {
        for &pos in plan.local_gpu.iter().chain(&plan.local_cpu) {
            let li = self.layout.local_index(nodes[pos as usize]);
            out.row_mut(pos as usize)
                .copy_from_slice(self.local.row(li as VertexId));
        }
        for &(pos, slot) in &plan.cached {
            self.cache_feats
                .read_row_into(slot as usize, out.row_mut(pos as usize));
        }
    }

    /// Reads the plan's remote rows into `out`: one `fetch(owner, ids) ->
    /// FeatureMatrix` call (rows aligned with `ids`) per owner with a
    /// non-empty bucket, in owner order. Positions outside `remote` are
    /// not touched.
    ///
    /// # Panics
    ///
    /// Panics if a fetch response has the wrong row count or dimension.
    // spp-hot(feature.read_remote)
    pub fn read_remote<F>(&self, plan: &BatchPlan, out: &mut Matrix, mut fetch: F)
    where
        F: FnMut(u32, &[VertexId]) -> FeatureMatrix,
    {
        for (owner, requests) in plan.remote.iter().enumerate() {
            if requests.is_empty() {
                continue;
            }
            let ids: Vec<VertexId> = requests.iter().map(|&(_, v)| v).collect(); // spp-hot: alloc(remote fetch id list, one per off-partition owner touched)
            let feats = fetch(owner as u32, &ids);
            assert_eq!(feats.num_rows(), ids.len(), "fetch returned wrong rows");
            assert_eq!(feats.dim(), self.dim(), "fetch returned wrong dim");
            for (r, &(pos, _)) in requests.iter().enumerate() {
                out.row_mut(pos as usize)
                    .copy_from_slice(feats.row(r as VertexId));
            }
        }
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
        assert_eq!(plan.cached, vec![(2, 0)]);
        assert_eq!(plan.remote[1], vec![(3, 5), (5, 3)]);
        assert_eq!(plan.num_remote(), 2);
        assert_eq!(plan.num_vertices(), 6);
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
        let out = store.gather_planned(&nodes, &plan, Vec::new(), |owner, ids| {
            assert_eq!((owner, ids), (1, &[4][..]));
            feats.gather(ids)
        });
        assert_eq!(out.row(0), [0.0, 0.0]);
        assert_eq!(out.row(1), feats.row(0));
        assert_eq!(out.row(2), feats.row(4));
    }

    /// Bit patterns of a tensor, so NaN rows compare too.
    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_flat().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn gather_planned_overwrites_a_stale_slot_under_a_full_plan() {
        let (store, feats) = fixture(0.34, &[4]);
        let nodes = vec![5, 0, 4, 1, 3];
        let plan = store.plan(&nodes);
        let fetch = |_: u32, ids: &[VertexId]| feats.gather(ids);
        let fresh = store.gather_planned(&nodes, &plan, Vec::new(), fetch);
        let stale = store.gather_planned(&nodes, &plan, vec![f32::NAN; 3 * 2 * 2], fetch);
        assert_eq!(bits(&stale), bits(&fresh));
    }

    #[test]
    fn slot_reused_for_a_larger_batch_fits_it_exactly() {
        let (store, feats) = fixture(0.34, &[4]);
        let fetch = |_: u32, ids: &[VertexId]| feats.gather(ids);
        let (small, large) = (vec![0, 4, 5, 1], vec![5, 0, 4, 1, 3, 2]);
        let slot = store
            .gather_planned(&small, &store.plan(&small), Vec::new(), fetch)
            .into_flat();
        let out = store.gather_planned(&large, &store.plan(&large), slot, fetch);
        assert_eq!(out.into_flat().capacity(), 6 * 2);
    }

    #[test]
    fn resident_read_plus_remote_read_is_gather_planned() {
        let (store, feats) = fixture(0.34, &[4]);
        let nodes = vec![5, 0, 4, 1, 3, 2];
        let plan = store.plan(&nodes);
        let fetch = |_: u32, ids: &[VertexId]| feats.gather(ids);
        let whole = store.gather_planned(&nodes, &plan, Vec::new(), fetch);
        let mut halves = Matrix::from_flat(nodes.len(), 2, vec![f32::NAN; nodes.len() * 2]);
        store.read_remote(&plan, &mut halves, fetch);
        store.read_resident(&nodes, &plan, &mut halves);
        assert_eq!(bits(&halves), bits(&whole));
        for (i, &v) in nodes.iter().enumerate() {
            assert_eq!(whole.row(i), feats.row(v), "row {i} mismatch");
        }
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
