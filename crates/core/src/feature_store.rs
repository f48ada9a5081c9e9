//! The per-machine partitioned feature store (paper §4.1–4.2).
//!
//! Each machine holds: its partition's feature rows (a GPU-resident
//! prefix plus a CPU-resident remainder, per the two-level ordering), and
//! a static cache of remote features. Given a sampled MFG's node list the
//! store classifies every vertex into local-GPU / local-CPU / cached /
//! remote-by-owner — exactly the split SALIENT++'s batch-preparation
//! pipeline performs right after sampling.
//!
//! This module is the one owner of "where does vertex `v`'s row live on
//! this machine and how is it read". A batch is classified once
//! ([`PartitionedFeatureStore::plan`]); the distributed engine uses the
//! plan to build its requests and the server to probe its overlay. Its
//! rows are one [`BatchRows`], which decodes once each row it cannot
//! borrow in place (a quantized static tier's hit, a fetched or an
//! overlay row). No batch copies its rows into an input tensor: the row
//! table ([`BatchRows::table`]) borrows every row where it is kept, and
//! the model's first layer reads it ([`spp_tensor::RowTable`]);
//! [`PartitionedFeatureStore::gather`] copies it into one matrix for
//! callers that want one. Rows enter through one constructor from any
//! `spp_store::FeatureStore` — the resident matrix and the paged
//! out-of-core stores are backends of the same path.

use crate::cache::StaticCache;
use crate::reorder::ReorderedLayout;
use spp_graph::{quant, FeatureMatrix, QuantScheme, QuantizedFeatures, VertexId};
use spp_store::FeatureStore;
use spp_tensor::Matrix;

/// The static tier's rows: `f32` rows are kept as a matrix, so a batch
/// reads them in place; quantized ones as their encoded bytes.
#[derive(Clone, Debug)]
enum StaticRows {
    F32(FeatureMatrix),
    Coded(QuantizedFeatures),
}

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

    /// The vertex ids of `owner`'s bucket, in order: the request sent to
    /// `owner`.
    pub fn owner_ids(&self, owner: usize) -> Vec<VertexId> {
        self.remote[owner].iter().map(|&(_, v)| v).collect()
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
    cache_feats: StaticRows,
}

impl PartitionedFeatureStore {
    /// Builds machine `part`'s store, reading rows through `feats`.
    ///
    /// `feats` must be addressed by *reordered* (new) ids and cover all
    /// vertices: the resident reordered matrix, or an out-of-core store
    /// (DESIGN.md §16; one built in original-id order wants a
    /// `spp_store::PermutedStore` wrapper). Only the machine's own rows
    /// and its cache members are read, mirroring a real deployment where
    /// each machine materializes only its slice. A resident matrix
    /// ([`FeatureStore::in_ram`]) lends the partition's rows as a shared
    /// row range ([`FeatureMatrix::row_range`]); any other store's are
    /// copied out. The cache members' rows are always copied.
    ///
    /// `cache_scheme` is the storage scheme of the static cache tier:
    /// `F32` keeps rows bit-for-bit, read in place; `F16`/`I8` store
    /// compressed rows that every batch that hits them decodes
    /// ([`BatchRows::new`]).
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
        let local = match feats.in_ram() {
            Some(matrix) => matrix.row_range(range),
            None => {
                feats.gather(&(range.start as VertexId..range.end as VertexId).collect::<Vec<_>>())
            }
        };
        let gpu_rows = layout.gpu_rows(part, beta);
        for &v in cache.members() {
            assert!(
                !layout.is_local(v, part),
                "cache must not contain local vertex {v}"
            );
        }
        let cached = feats.gather(cache.members());
        let cache_feats = match cache_scheme {
            QuantScheme::F32 => StaticRows::F32(cached),
            scheme => StaticRows::Coded(QuantizedFeatures::from_matrix(&cached, scheme)),
        };
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
        match &self.cache_feats {
            StaticRows::F32(_) => QuantScheme::F32,
            StaticRows::Coded(q) => q.scheme(),
        }
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
        let cached = match &self.cache_feats {
            StaticRows::F32(m) => m.memory_bytes(),
            StaticRows::Coded(q) => q.memory_bytes(),
        };
        self.local.memory_bytes() + cached
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
        let (mut out, part) = (Vec::with_capacity(ids.len() * self.dim()), self.part);
        for &v in ids {
            assert!(
                self.layout.is_local(v, part),
                "vertex {v} not local to partition {part}"
            );
            out.extend_from_slice(self.local.row(self.layout.local_index(v) as VertexId));
        }
        FeatureMatrix::from_flat(out, self.dim())
    }

    /// [`Self::serve`] as it goes on the wire: each row encoded under
    /// `scheme` ([`quant::encode_row`]), for [`BatchRows::decode_owner`].
    /// Panics as `serve`.
    pub fn serve_encoded(&self, ids: &[VertexId], scheme: QuantScheme) -> Vec<u8> {
        // Gathered first: encoded in place, serving took ~15 % more CPU.
        let rows = self.serve(ids);
        let row_bytes = scheme.row_bytes(self.dim());
        let mut out = Vec::with_capacity(ids.len() * row_bytes);
        for r in 0..ids.len() {
            out.resize((r + 1) * row_bytes, 0);
            quant::encode_row(scheme, rows.row(r as VertexId), &mut out[r * row_bytes..]);
        }
        out
    }

    /// Gathers the full feature tensor for an MFG node list: its
    /// [`BatchRows`], each owner's rows fetched with one `fetch(owner,
    /// ids)` call (rows aligned with `ids`) per owner with a non-empty
    /// bucket, in owner order, and its table copied into one matrix.
    ///
    /// # Panics
    ///
    /// Panics, naming the owner, if a response has the wrong row count
    /// or dimension.
    pub fn gather<F>(&self, nodes: &[VertexId], mut fetch: F) -> Matrix
    where
        F: FnMut(u32, &[VertexId]) -> FeatureMatrix,
    {
        let mut rows = BatchRows::new(self, self.plan(nodes), Vec::new());
        for (owner, reqs) in rows.plan.remote.iter().enumerate() {
            if !reqs.is_empty() {
                let response = fetch(owner as u32, &rows.plan.owner_ids(owner));
                let ok = response.num_rows() == reqs.len();
                assert!(ok, "fetch returned wrong rows from owner {owner}");
                let ok = response.dim() == self.dim();
                assert!(ok, "fetch returned wrong dim from owner {owner}");
                let flat = response.as_flat().to_vec();
                rows.fetched[owner] = Matrix::from_flat(reqs.len(), self.dim(), flat);
            }
        }
        Matrix::from_flat(nodes.len(), self.dim(), rows.table(self, nodes).concat())
    }
}

/// One batch's first-layer rows: its [`BatchPlan`], and each row the
/// batch cannot borrow in place from the store decoded once — a
/// quantized static tier's hits, each owner's response from its wire
/// bytes, and the rows of `held` positions no bucket lists, which the
/// caller reads in by its own key (the serving overlay's hits by slot,
/// copied while the batch is prepared because later admissions change
/// the overlay). Each owner's rows are a matrix of their own, so no
/// allocation grows with the whole remote residue.
#[derive(Clone, Debug)]
pub struct BatchRows {
    plan: BatchPlan,
    /// `(position, key)` of each held row.
    held: Vec<(u32, u32)>,
    /// The static-tier hits if the tier is quantized (`plan.cached`
    /// order), then the held rows.
    rows: Matrix,
    /// Each owner's rows, aligned with its bucket.
    fetched: Vec<Matrix>,
}

impl BatchRows {
    /// The rows of a batch planned on `store`, with the `held` positions
    /// moved out of `plan`'s buckets. Decodes the static-tier hits of a
    /// quantized tier; each owner's rows are its decoded response, and
    /// the held rows zero until read in.
    // spp-hot(feature.decode_cached)
    pub fn new(store: &PartitionedFeatureStore, plan: BatchPlan, held: Vec<(u32, u32)>) -> Self {
        let dim = store.dim();
        let coded = match &store.cache_feats {
            StaticRows::Coded(tier) => Some(tier),
            StaticRows::F32(_) => None,
        };
        let mut rows = Matrix::zeros(coded.map_or(0, |_| plan.cached.len()) + held.len(), dim);
        if let Some(tier) = coded {
            for (i, &(_, slot)) in plan.cached.iter().enumerate() {
                tier.read_row_into(slot as usize, rows.row_mut(i));
            }
        }
        let buckets = plan.remote.iter();
        let fetched = buckets.map(|_| Matrix::empty()).collect(); // spp-hot: alloc(one matrix per owner's response, the rows the batch reads there)
        Self {
            plan,
            held,
            rows,
            fetched,
        }
    }

    /// The batch's plan.
    pub fn plan(&self) -> &BatchPlan {
        &self.plan
    }

    /// Decodes `owner`'s response, `scheme.row_bytes(dim)` bytes per row
    /// of its bucket ([`quant::decode_row`]; none for an empty bucket).
    ///
    /// # Panics
    ///
    /// Panics, naming the owner, if `bytes` is not one row per entry.
    pub fn decode_owner(&mut self, owner: usize, scheme: QuantScheme, bytes: &[u8]) {
        let (len, dim) = (self.plan.remote[owner].len(), self.rows.cols());
        let row_bytes = scheme.row_bytes(dim);
        let ok = bytes.len() == len * row_bytes;
        assert!(ok, "fetch returned wrong rows from owner {owner}");
        // Decoded row by row into a fresh buffer: nothing is zeroed first.
        let mut data = Vec::with_capacity(len * dim);
        for (r, row) in (0..len).map(|r| (r, &bytes[r * row_bytes..(r + 1) * row_bytes])) {
            data.resize((r + 1) * dim, 0.0);
            quant::decode_row(scheme, row, &mut data[r * dim..]);
        }
        self.fetched[owner] = Matrix::from_flat(len, dim, data);
    }

    /// `owner`'s fetched vertices with their rows, in bucket order.
    pub fn fetched(&self, owner: usize) -> impl Iterator<Item = (VertexId, &[f32])> {
        let (reqs, rows) = (&self.plan.remote[owner], &self.fetched[owner]);
        (0..rows.rows()).map(move |r| (reqs[r].1, rows.row(r)))
    }

    /// Reads each held row in with `read(key, row)`.
    pub fn read_held(&mut self, mut read: impl FnMut(u32, &mut [f32])) {
        let at = self.rows.rows() - self.held.len();
        for (i, &(_, key)) in self.held.iter().enumerate() {
            read(key, self.rows.row_mut(at + i));
        }
    }

    /// The batch's row table over `nodes` on `store`, the one it was
    /// planned on: entry `i` borrows `nodes[i]`'s row, a local or `f32`
    /// static-tier row in place and every other row in this batch's
    /// matrices. In debug builds, checks that the buckets and the held
    /// positions fill every position exactly once.
    // spp-hot(feature.row_table)
    pub fn table<'r>(
        &'r self,
        store: &'r PartitionedFeatureStore,
        nodes: &[VertexId],
    ) -> Vec<&'r [f32]> {
        let mut table: Vec<&[f32]> = vec![&[]; nodes.len()]; // spp-hot: alloc(the batch's row table, one borrowed row per MFG node in place of a copied f32 row)
        let mut fill = |pos: u32, row: &'r [f32]| {
            let entry = &mut table[pos as usize];
            debug_assert!(entry.is_empty(), "row table position {pos} is filled twice");
            *entry = row;
        };
        for &pos in self.plan.local_gpu.iter().chain(&self.plan.local_cpu) {
            let li = store.layout.local_index(nodes[pos as usize]);
            fill(pos, store.local.row(li as VertexId));
        }
        for (i, &(pos, slot)) in self.plan.cached.iter().enumerate() {
            let row = match &store.cache_feats {
                StaticRows::F32(tier) => tier.row(slot),
                StaticRows::Coded(_) => self.rows.row(i),
            };
            fill(pos, row);
        }
        for (bucket, rows) in self.plan.remote.iter().zip(&self.fetched) {
            for (r, &(pos, _)) in bucket.iter().enumerate() {
                fill(pos, rows.row(r));
            }
        }
        let at = self.rows.rows() - self.held.len();
        for (i, &(pos, _)) in self.held.iter().enumerate() {
            fill(pos, self.rows.row(at + i));
        }
        let empty = |r: &&[f32]| r.is_empty() && store.dim() > 0;
        debug_assert!(!table.iter().any(empty), "unfilled row table position");
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_partition::Partitioning;

    /// 6 vertices, 2 parts: p0 = {0,1,2}, p1 = {3,4,5} (identity layout).
    /// Features: row v = [v, v].
    fn fixture(beta: f64, cache_members: &[VertexId]) -> (PartitionedFeatureStore, FeatureMatrix) {
        fixture_with(beta, cache_members, QuantScheme::F32)
    }

    /// [`fixture`] with its static tier stored under `scheme`.
    fn fixture_with(
        beta: f64,
        cache_members: &[VertexId],
        scheme: QuantScheme,
    ) -> (PartitionedFeatureStore, FeatureMatrix) {
        let part = Partitioning::new(vec![0, 0, 0, 1, 1, 1], 2);
        let layout = ReorderedLayout::build(&part, None);
        let mut feats = FeatureMatrix::zeros(6, 2);
        for v in 0..6u32 {
            feats.row_mut(v).copy_from_slice(&[v as f32, v as f32]);
        }
        let cache = StaticCache::from_members(cache_members);
        let store = PartitionedFeatureStore::build(0, &layout, &feats, beta, cache, scheme);
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

    /// `nodes`' rows with owner 1's bucket answered from `feats`, vertex 5
    /// moved out of it if `take_5`, and each held row filled with its key.
    fn rows_with(
        (store, feats): &(PartitionedFeatureStore, FeatureMatrix),
        nodes: &[VertexId],
        take_5: bool,
        held: &[(u32, u32)],
    ) -> BatchRows {
        let mut plan = store.plan(nodes);
        plan.remote[1].retain(|&(_, v)| v != 5 || !take_5);
        let mut rows = BatchRows::new(store, plan, held.to_vec());
        rows.read_held(|key, row| row.fill(key as f32));
        let response = feats.gather(&rows.plan.owner_ids(1)).as_flat().to_vec();
        rows.fetched[1] = Matrix::from_flat(response.len() / 2, 2, response);
        rows
    }

    #[test]
    fn gather_planned_fills_only_what_the_plan_lists() {
        // A vertex taken out of its bucket is requested from no owner; its
        // row is the one the caller reads in for its held position.
        let fixture = fixture(0.5, &[3]);
        let (store, feats) = &fixture;
        let nodes = [5, 0, 4];
        let rows = rows_with(&fixture, &nodes, true, &[(0, 50)]);
        assert_eq!(rows.plan().owner_ids(1), [4]);
        assert_eq!(rows.fetched(1).collect::<Vec<_>>(), [(4, feats.row(4))]);
        let table = rows.table(store, &nodes);
        assert_eq!(table[0], [50.0, 50.0]);
        assert_eq!(table[1], feats.row(0));
        assert_eq!(table[2], feats.row(4));
    }

    #[test]
    fn resident_read_plus_remote_read_is_gather_planned() {
        // The row table reads the resident rows in place and each remote
        // row in its owner's response: the rows `gather` copies.
        for scheme in [QuantScheme::F32, QuantScheme::F16, QuantScheme::I8] {
            let fixture = fixture_with(0.34, &[4], scheme);
            let (store, feats) = &fixture;
            let nodes = [5, 0, 4, 1, 3, 2];
            let rows = rows_with(&fixture, &nodes, false, &[]);
            let table = rows.table(store, &nodes);
            let whole = store.gather(&nodes, |_, ids| feats.gather(ids));
            for (i, &v) in nodes.iter().enumerate() {
                // Small integers: every codec keeps them exactly.
                assert_eq!(table[i], whole.row(i), "row {i} mismatch");
                assert_eq!(whole.row(i), feats.row(v), "row {i} mismatch");
            }
            // Local rows and an f32 static tier are borrowed, not copied.
            assert!(std::ptr::eq(table[1], store.local.row(0)));
            assert!(std::ptr::eq(table[0], rows.fetched[1].row(0)));
            if let StaticRows::F32(tier) = &store.cache_feats {
                assert!(std::ptr::eq(table[2], tier.row(0)));
            }
        }
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "checks a debug assertion")]
    #[should_panic(expected = "row table position 0 is filled twice")]
    fn a_held_position_left_in_its_bucket_is_refused() {
        let fixture = fixture(0.5, &[3]);
        rows_with(&fixture, &[5, 0, 4], false, &[(0, 50)]).table(&fixture.0, &[5, 0, 4]);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "checks a debug assertion")]
    #[should_panic(expected = "unfilled row table position")]
    fn a_position_no_bucket_lists_is_refused() {
        let fixture = fixture(0.5, &[3]);
        rows_with(&fixture, &[5, 0, 4], true, &[]).table(&fixture.0, &[5, 0, 4]);
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
    #[should_panic(expected = "fetch returned wrong rows from owner 1")]
    fn gather_rejects_short_fetch_response() {
        // Failure injection: a peer answering with too few rows must be
        // detected, not silently corrupt the batch.
        let (store, _) = fixture(0.0, &[]);
        store.gather(&[5], |_, _| FeatureMatrix::zeros(0, 2));
    }

    #[test]
    #[should_panic(expected = "fetch returned wrong dim from owner 1")]
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
