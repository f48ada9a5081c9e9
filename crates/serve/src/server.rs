//! The online inference server: admission → micro-batching → sampling →
//! two-tier gather → virtual-time pipeline → forward pass.
//!
//! One [`InferenceServer`] models a single machine of a SALIENT++
//! deployment answering per-vertex inference queries. Time is *virtual*:
//! request arrivals carry virtual timestamps, batch deadlines fire in
//! virtual time, and pipeline latency comes from the `spp-comm` DES with
//! `spp-runtime`'s calibrated cost model — so every latency number is a
//! pure function of the trace and the configuration, never of the host
//! machine's load.
//!
//! # Determinism contract (DESIGN.md §11)
//!
//! Given a fixed request trace and config, the following are bit-identical
//! across runs and across worker-pool sizes: batch composition and close
//! times, cache tier classification and overlay eviction order, every
//! completion's latency, label, and logits checksum. The load-bearing
//! rules: batching triggers are pure functions of arrival times; each
//! batch samples from its own [`batch_stream_seed`] stream; a batch is
//! planned once, its overlay probe and touches run in node order, and
//! its admissions in fetch order after the gather read every hit.
//!
//! # Preparation overlaps the forward pass
//!
//! Everything that reads or writes server state — sampling, the plan, the
//! overlay, the remote fetch, the DES, the accounting and the batch's
//! completion records with their `finish` — is *preparation*. The
//! forward pass builds the batch's row table over its resident rows
//! (local partition rows and the static tier, both immutable after
//! build) and the rows preparation left it, and runs the model on the
//! table and the MFG; its label and checksum are written into the
//! batch's completions by index. So a run is one
//! [`WorkerPool::lane`] region of [`ServeConfig::pool`]: the whole
//! request loop runs on the caller and submits each prepared batch,
//! while one helper runs the forward passes. The lane is one deep: a
//! batch that finds the previous one still queued runs that one's
//! forward pass on the caller, so preparation never waits. On a
//! one-worker pool, or inside another region, the lane runs inline and
//! gives the same report. No batch has an input tensor: each row is
//! read where it lives.
//!
//! # One feature-row path
//!
//! Where a vertex's row lives on this machine is decided by
//! `PartitionedFeatureStore::plan` alone (local GPU / local CPU / static
//! tier / remote by owner). The server owns only the overlay: it probes
//! the plan's remote residue and moves the hits out of the plan into
//! the batch's `spp_core::BatchRows` as held positions, whose rows it
//! decodes from the overlay while preparing, since later admissions
//! change the overlay. It fetches the misses the plan still lists —
//! each owner's with one `PartitionedFeatureStore::serve_encoded` on
//! that owner's store, as the training engine fetches them — and
//! decodes each response's wire bytes into the same `BatchRows`. The
//! forward piece's `BatchRows::table` reads the resident rows in place
//! and every other row where it was decoded. Every row a batch reads
//! therefore comes from the deployment's partitioned stores, whatever
//! backend filled them.

use crate::batcher::{BatchPolicy, CloseTrigger, MicroBatch, MicroBatcher};
use crate::overlay::DynamicOverlay;
use crate::queue::{AdmissionQueue, InferenceRequest, Rejection};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spp_comm::{DesEngine, ResourceId};
use spp_core::{BatchRows, PartitionedFeatureStore};
use spp_gnn::{GnnModel, SageStep, StepInput};
use spp_graph::{QuantScheme, VertexId};
use spp_pool::{Lane, WorkerPool};
use spp_runtime::{CostModel, DistributedSetup};
use spp_sampler::{batch_stream_seed, Fanouts, Mfg, NodeWiseSampler, VertexIndexer};
use spp_telemetry as tel;
use spp_telemetry::metrics::{Counter, Gauge, Histogram};
use spp_tensor::{Matrix, RowTable};
use std::collections::VecDeque;
use std::sync::OnceLock;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Batch size trigger (requests per micro-batch).
    pub max_batch_size: usize,
    /// Batch delay trigger (virtual seconds the oldest request may wait).
    pub max_delay: f64,
    /// Bound on admitted-but-unfinished requests (queued + in flight).
    pub queue_capacity: usize,
    /// Dynamic LRU overlay capacity in feature rows (0 disables the tier).
    pub overlay_capacity: usize,
    /// Storage precision of the dynamic overlay tier. Quantized schemes
    /// hold more rows per byte at a bounded per-element error.
    pub overlay_scheme: QuantScheme,
    /// Precision of feature rows on the wire. Non-`F32` schemes shrink
    /// `bytes_fetched` (and the DES network leg) and round fetched rows
    /// through the codec before use.
    pub wire_scheme: QuantScheme,
    /// Inference sampling fanouts (length must match the model depth).
    pub fanouts: Fanouts,
    /// Master seed for per-batch sampling streams.
    pub seed: u64,
    /// Worker pool whose lane region runs the forward passes beside the
    /// preparation of later batches; with one worker they run back to
    /// back.
    pub pool: WorkerPool,
    /// Cost model driving the virtual-time pipeline.
    pub cost: CostModel,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch_size: 16,
            max_delay: 0.02,
            queue_capacity: 256,
            overlay_capacity: 0,
            overlay_scheme: QuantScheme::F32,
            wire_scheme: QuantScheme::F32,
            fanouts: Fanouts::new(vec![10, 5]),
            seed: 0,
            pool: WorkerPool::global(),
            cost: CostModel::mini_calibrated(),
        }
    }
}

/// Aggregate feature-access accounting across both cache tiers.
///
/// Invariant: `static_hits + overlay_hits + misses == lookups`, where a
/// *lookup* is one non-local MFG node classified against the tiers
/// (local vertices never consult a cache and are counted in `local`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Non-local nodes classified (tier probes).
    pub lookups: u64,
    /// Local nodes (GPU- or CPU-resident partition rows).
    pub local: u64,
    /// Lookups answered by the pinned VIP static tier.
    pub static_hits: u64,
    /// Lookups answered by the dynamic LRU overlay.
    pub overlay_hits: u64,
    /// Lookups that went to the network.
    pub misses: u64,
    /// Overlay entries evicted.
    pub evictions: u64,
    /// Overlay rows admitted.
    pub insertions: u64,
    /// Feature bytes fetched from remote machines.
    pub bytes_fetched: u64,
}

impl CacheStats {
    /// Fraction of lookups answered by either tier.
    pub fn combined_hit_rate(&self) -> f64 {
        self.rate(self.static_hits + self.overlay_hits)
    }

    /// Fraction of lookups answered by the static tier.
    pub fn static_hit_rate(&self) -> f64 {
        self.rate(self.static_hits)
    }

    /// Fraction of lookups answered by the overlay tier.
    pub fn overlay_hit_rate(&self) -> f64 {
        self.rate(self.overlay_hits)
    }

    fn rate(&self, n: u64) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            n as f64 / self.lookups as f64
        }
    }
}

/// One answered request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Completion {
    /// Request id.
    pub id: u64,
    /// Target vertex.
    pub vertex: VertexId,
    /// Micro-batch that carried it.
    pub batch_id: u64,
    /// Virtual arrival time.
    pub arrival: f64,
    /// Issuing client (copied from the request).
    pub client: u32,
    /// Virtual completion time (its batch's GPU task finished).
    pub finish: f64,
    /// End-to-end virtual latency (`finish - arrival`): queueing +
    /// batching delay + pipeline time.
    pub latency: f64,
    /// Predicted class (argmax of the logits row; ties to the lowest
    /// index).
    pub label: usize,
    /// Order-sensitive checksum of the raw logits bits — equal checksums
    /// mean bit-identical logits (the determinism test's witness).
    pub checksum: u64,
}

/// One executed micro-batch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchRecord {
    /// Batch id (close order).
    pub id: u64,
    /// Requests carried.
    pub size: usize,
    /// What closed the batch.
    pub trigger: CloseTrigger,
    /// Virtual close time (pipeline release).
    pub close_time: f64,
    /// Virtual completion time.
    pub finish: f64,
    /// Distinct vertices in the sampled MFG.
    pub mfg_nodes: usize,
    /// Sampled edges.
    pub mfg_edges: usize,
    /// Feature rows fetched over the network.
    pub remote_fetched: usize,
}

/// Everything a serving run produced.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Answered requests, in batch-completion order.
    pub completions: Vec<Completion>,
    /// Rejected requests with reasons.
    pub rejections: Vec<Rejection>,
    /// Executed micro-batches.
    pub batches: Vec<BatchRecord>,
    /// Two-tier cache accounting.
    pub cache: CacheStats,
    /// Virtual makespan (last pipeline completion).
    pub makespan: f64,
    /// End-to-end latency sketch (virtual nanoseconds, completion
    /// order). Virtual time makes this bit-identical across runs and
    /// worker counts (§11).
    pub latency_sketch: tel::QuantileSketch,
    /// Wire precision the run used (labels the cache report).
    pub wire_scheme: QuantScheme,
    /// Overlay storage precision (sizes the overlay tier's bytes).
    pub overlay_scheme: QuantScheme,
    /// Feature dimension (sizes per-tier byte accounting).
    pub feature_dim: usize,
    /// This server's machine id.
    pub part: u32,
    /// Machines in the deployment (comm-matrix side length).
    pub machines: usize,
    /// Per-batch remote-fetch events `(batch close time, owner machine,
    /// wire bytes)`, in batch order — the raw material of
    /// [`ServeReport::comm_report`].
    pub fetch_events: Vec<(f64, u32, u64)>,
}

impl ServeReport {
    /// Requests that entered admission (completed + rejected).
    pub fn total_requests(&self) -> usize {
        self.completions.len() + self.rejections.len()
    }

    /// Completed requests per virtual second.
    pub fn throughput(&self) -> f64 {
        if self.makespan > 0.0 {
            self.completions.len() as f64 / self.makespan
        } else {
            0.0
        }
    }

    /// Structured per-tier cache attribution for this run (DESIGN.md
    /// §15). Tier hit counts partition `lookups` (the `remote` tier
    /// counts every fetch as a hit — the network always answers), and
    /// per-tier bytes reflect each tier's storage precision: the static
    /// tier is device-resident `f32`, the overlay holds
    /// [`Self::overlay_scheme`] rows, and the remote tier moves
    /// [`Self::wire_scheme`] rows. Built from deterministic accounting,
    /// so `to_json()` is bit-identical across runs and worker counts.
    pub fn cache_report(&self, label: &str) -> tel::CacheReport {
        let dim = self.feature_dim;
        let mut st = tel::TierStats::named("static");
        st.hits = self.cache.static_hits;
        st.misses = self.cache.lookups - self.cache.static_hits;
        st.bytes = self.cache.static_hits * (dim * 4) as u64;
        let mut ov = tel::TierStats::named("overlay");
        ov.hits = self.cache.overlay_hits;
        ov.misses = self.cache.misses;
        ov.evictions = self.cache.evictions;
        ov.insertions = self.cache.insertions;
        ov.bytes = self.cache.overlay_hits * self.overlay_scheme.row_bytes(dim) as u64;
        let mut re = tel::TierStats::named("remote");
        re.hits = self.cache.misses;
        re.insertions = self.cache.misses;
        re.bytes = self.cache.bytes_fetched;
        tel::CacheReport {
            label: label.to_string(),
            scheme: self.wire_scheme.name().to_string(),
            lookups: self.cache.lookups,
            local: self.cache.local,
            tiers: vec![st, ov, re],
            latency_ns: self.latency_sketch.clone(),
        }
    }

    /// Windowed communication-matrix view of this run's remote fetches:
    /// the virtual makespan is cut into `windows` equal slices and each
    /// fetch's wire bytes are attributed `owner → this machine` in the
    /// slice holding its batch's close time. Deterministic for the same
    /// reason the cache report is.
    pub fn comm_report(&self, label: &str, windows: usize) -> tel::CommReport {
        let windows = windows.max(1);
        let mut r = tel::CommReport::with_windows(label, self.machines.max(1), windows, |w| {
            format!("w{w}")
        });
        let span = self.makespan.max(f64::MIN_POSITIVE);
        for &(t, owner, bytes) in &self.fetch_events {
            let w = (((t / span) * windows as f64) as usize).min(windows - 1);
            r.record(w, owner as usize, self.part as usize, bytes);
        }
        r
    }
}

/// Overlay lookup of one remote-residue entry `(position, owner,
/// vertex)` — the per-entry kernel of the residue probe. Runs once per
/// remote MFG node of every batch, so it must stay allocation- and
/// lock-free.
// spp-hot(serve.classify)
// spp-det(serve.classify)
#[inline]
fn probe_entry(overlay: &DynamicOverlay, entry: &(u32, u32, VertexId)) -> Option<u32> {
    overlay.probe(entry.2)
}

/// Telemetry handles, resolved once (no-ops while telemetry is off).
struct ServeMetrics {
    queue_depth: Gauge,
    batch_size: Histogram,
    latency_ns: Histogram,
    admitted: Counter,
    rejected: Counter,
    completed: Counter,
    static_hits: Counter,
    overlay_hits: Counter,
    overlay_evictions: Counter,
    misses: Counter,
    net_bytes: Counter,
    /// Forward passes the caller ran, taking its batch back from the lane.
    caller_forwards: Counter,
    /// Forward passes the lane's consumer ran (on the caller too when the
    /// region ran inline).
    helper_forwards: Counter,
}

fn serve_metrics() -> Option<&'static ServeMetrics> {
    if !tel::enabled() {
        return None;
    }
    static METRICS: OnceLock<ServeMetrics> = OnceLock::new();
    Some(METRICS.get_or_init(|| ServeMetrics {
        queue_depth: tel::gauge("serve.queue_depth"),
        batch_size: tel::histogram("serve.batch_size"),
        latency_ns: tel::histogram("serve.latency_ns"),
        admitted: tel::counter("serve.requests.admitted"),
        rejected: tel::counter("serve.requests.rejected"),
        completed: tel::counter("serve.requests.completed"),
        static_hits: tel::counter("serve.cache.static_hits"),
        overlay_hits: tel::counter("serve.cache.overlay_hits"),
        overlay_evictions: tel::counter("serve.cache.overlay_evictions"),
        misses: tel::counter("serve.cache.misses"),
        net_bytes: tel::counter("serve.net.bytes"),
        caller_forwards: tel::counter("serve.lane.caller_forwards"),
        helper_forwards: tel::counter("serve.lane.helper_forwards"),
    }))
}

/// Order-sensitive checksum over raw `f32` bit patterns.
fn logits_checksum(row: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &x in row {
        h ^= u64::from(x.to_bits());
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Argmax with ties to the lowest index.
fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in row.iter().enumerate() {
        if x > row[best] {
            best = i;
        }
    }
    best
}

/// The lane of a serving run: prepared batches in, answered ones out.
type ForwardLane<'l> = Lane<'l, Prepared, Answered>;

/// A batch that is prepared but has not had its forward pass. Its
/// completions are recorded, with `finish` and `latency`; the forward
/// pass fills in their `label` and `checksum`.
struct Prepared {
    mfg: Mfg,
    /// The batch's rows: its plan, with the overlay hits moved out of
    /// its remote buckets and held, and every row not read in place.
    rows: BatchRows,
    /// Each request's row in the logits (seeds are deduplicated).
    seed_row: Vec<usize>,
    /// Index of the batch's first completion in the server's list.
    first: usize,
}

/// A forward pass's logits and the completions they answer.
struct Answered {
    logits: Matrix,
    seed_row: Vec<usize>,
    first: usize,
}

impl Prepared {
    /// Builds the batch's row table and runs the forward pass on the
    /// global pool. The store's local rows and static tier never change
    /// after build, so this reads nothing preparation writes.
    fn run_model(self, model: &GnnModel, store: &PartitionedFeatureStore) -> Answered {
        let table = self.rows.table(store, &self.mfg.nodes);
        let x = StepInput::Table(RowTable::new(store.dim(), &table));
        // A step of its own, as `GnnModel::infer`.
        let mut step = SageStep::new(model);
        step.infer(WorkerPool::global(), model, x, &self.mfg);
        Answered {
            logits: step.into_logits(),
            seed_row: self.seed_row,
            first: self.first,
        }
    }
}

/// One machine's online inference server. Single-use: build, call
/// [`InferenceServer::run`], read the report.
pub struct InferenceServer<'a> {
    model: &'a GnnModel,
    /// Every machine's store: remote rows are served by their owner's.
    stores: &'a [PartitionedFeatureStore],
    /// This machine's store.
    store: &'a PartitionedFeatureStore,
    cfg: ServeConfig,
    overlay: DynamicOverlay,
    sampler: NodeWiseSampler<'a>,
    queue: AdmissionQueue,
    batcher: MicroBatcher,
    des: DesEngine,
    res_cpu: ResourceId,
    res_net: ResourceId,
    res_copy: ResourceId,
    res_gpu: ResourceId,
    /// In-flight batches as `(finish, size)`, finish-ordered (the GPU is
    /// a serial DES resource, so completions are monotone in batch id).
    inflight: VecDeque<(f64, usize)>,
    local: u64,
    static_hits: u64,
    bytes_fetched: u64,
    /// `(batch close time, owner machine, wire bytes)` per remote
    /// fetch, in batch order (feeds [`ServeReport::comm_report`]).
    fetch_events: Vec<(f64, u32, u64)>,
    /// Overlay evictions already forwarded to telemetry.
    reported_evictions: u64,
    completions: Vec<Completion>,
    rejections: Vec<Rejection>,
    batches: Vec<BatchRecord>,
}

impl<'a> InferenceServer<'a> {
    /// A server for machine `part` of `setup`, answering with `model`.
    ///
    /// # Panics
    ///
    /// Panics if the model's input dim does not match the features, its
    /// depth does not match `cfg.fanouts`, or config bounds are invalid
    /// (zero batch size / queue capacity, negative delay).
    pub fn new(
        setup: &'a DistributedSetup,
        model: &'a GnnModel,
        part: u32,
        cfg: ServeConfig,
    ) -> Self {
        let store = &setup.stores[part as usize];
        assert_eq!(
            model.dims().first().copied(),
            Some(setup.dataset.features.dim()),
            "model input dim must match feature dim"
        );
        assert_eq!(
            model.num_layers(),
            cfg.fanouts.num_hops(),
            "model depth must match serving fanouts"
        );
        let num_vertices = store.layout().num_vertices();
        let policy = BatchPolicy::new(cfg.max_batch_size, cfg.max_delay);
        let mut des = DesEngine::new();
        if tel::enabled() {
            des.enable_trace();
        }
        let res_cpu = des.add_resource("serve-cpu");
        let res_net = des.add_resource("serve-net");
        let res_copy = des.add_resource("serve-copy");
        let res_gpu = des.add_resource("serve-gpu");
        Self {
            model,
            stores: &setup.stores,
            store,
            overlay: DynamicOverlay::with_scheme(
                cfg.overlay_capacity,
                store.dim(),
                cfg.overlay_scheme,
            ),
            sampler: NodeWiseSampler::new(&setup.dataset.graph, cfg.fanouts.clone()),
            queue: AdmissionQueue::new(cfg.queue_capacity, num_vertices),
            batcher: MicroBatcher::new(policy),
            cfg,
            des,
            res_cpu,
            res_net,
            res_copy,
            res_gpu,
            inflight: VecDeque::new(),
            local: 0,
            static_hits: 0,
            bytes_fetched: 0,
            fetch_events: Vec::new(),
            reported_evictions: 0,
            completions: Vec::new(),
            rejections: Vec::new(),
            batches: Vec::new(),
        }
    }

    /// Replays an open-loop trace (arrivals must be time-ordered) as the
    /// producer of one lane region of the pool: each batch it closes is
    /// prepared on the caller and submitted, and its forward pass runs on
    /// the lane's helper, or on the caller when the next batch takes it
    /// back from the queue. Every batch is answered when the report is
    /// built.
    ///
    /// # Panics
    ///
    /// Panics if the trace's arrival times are not non-decreasing.
    pub fn run(mut self, trace: &[InferenceRequest]) -> ServeReport {
        let (model, store, pool) = (self.model, self.store, self.cfg.pool);
        let rest = pool.lane(
            |batch: Prepared| batch.run_model(model, store),
            |lane| {
                let mut last = 0.0f64;
                for req in trace {
                    assert!(req.arrival >= last, "trace must be time-ordered");
                    last = req.arrival;
                    self.handle_arrival(lane, *req);
                }
                while let Some(b) = self.batcher.flush(&mut self.queue) {
                    self.process_batch(lane, &b);
                }
            },
        );
        for done in rest {
            self.answer(done);
        }
        if let Some(m) = serve_metrics() {
            if !self.batches.is_empty() {
                // No batch came after the last one to take it back.
                m.helper_forwards.inc();
            }
        }
        self.finish()
    }

    /// Admits or rejects one arrival, after running every batch whose
    /// deadline fell at or before it and retiring the completed ones.
    fn handle_arrival(&mut self, lane: &ForwardLane<'_>, req: InferenceRequest) {
        while let Some(b) = self
            .batcher
            .try_close_on_deadline(&mut self.queue, req.arrival)
        {
            self.process_batch(lane, &b);
        }
        self.drain_inflight(req.arrival);
        let inflight = self.inflight_requests();
        match self.queue.offer(req, inflight) {
            Ok(()) => {
                if let Some(m) = serve_metrics() {
                    m.admitted.inc();
                }
                if let Some(b) = self.batcher.try_close_on_size(&mut self.queue, req.arrival) {
                    self.process_batch(lane, &b);
                }
            }
            Err(rej) => {
                if let Some(m) = serve_metrics() {
                    m.rejected.inc();
                }
                self.rejections.push(*rej);
            }
        }
        if let Some(m) = serve_metrics() {
            m.queue_depth.set(self.queue.depth() as u64);
        }
    }

    /// Drops in-flight batches that completed at or before `now`.
    fn drain_inflight(&mut self, now: f64) {
        while self.inflight.front().is_some_and(|&(t, _)| t <= now) {
            self.inflight.pop_front();
        }
    }

    /// Requests riding in not-yet-completed batches.
    fn inflight_requests(&self) -> usize {
        self.inflight.iter().map(|&(_, n)| n).sum()
    }

    /// Answers every batch whose forward pass is done, then prepares
    /// `batch` and submits it to the lane.
    fn process_batch(&mut self, lane: &ForwardLane<'_>, batch: &MicroBatch) {
        while let Some(done) = lane.take_done() {
            self.answer(done);
        }
        let prepared = self.prepare(batch);
        let caller_ran_previous = lane.submit(prepared);
        if let Some(m) = serve_metrics() {
            // The batch before this one left the queue either here or by
            // the helper.
            if caller_ran_previous {
                m.caller_forwards.inc();
            } else if self.batches.len() > 1 {
                m.helper_forwards.inc();
            }
        }
    }

    /// Fills in the label and logits checksum of a forwarded batch's
    /// completions.
    fn answer(&mut self, done: Answered) {
        let rows = self.completions.iter_mut().skip(done.first);
        for (c, &row_idx) in rows.zip(&done.seed_row) {
            let row = done.logits.row(row_idx);
            c.label = argmax(row);
            c.checksum = logits_checksum(row);
        }
    }

    /// Runs one micro-batch through sampling, the two-tier gather of its
    /// non-resident rows and the virtual-time pipeline, and records its
    /// completions; the resident reads and the forward pass are left to
    /// the lane.
    fn prepare(&mut self, batch: &MicroBatch) -> Prepared {
        // Deduplicate seeds (first-occurrence order): a minibatch is a
        // set, but two requests for one vertex still get two result rows.
        let mut dedup = VertexIndexer::with_capacity(batch.requests.len());
        let seed_row: Vec<usize> = batch
            .requests
            .iter()
            .map(|req| dedup.insert(req.vertex) as usize)
            .collect();
        let mut rng = StdRng::seed_from_u64(batch_stream_seed(self.cfg.seed, 0, batch.id));
        let mfg = self.sampler.sample(dedup.nodes(), &mut rng);

        // Classify once: local rows, the static tier, and the remote
        // residue by owner. The overlay answers part of the residue, so
        // probe it in node order and give the plan back only the true
        // misses. Hits become most-recently-used in the same order: part
        // of the eviction-order determinism contract. A touch reorders
        // recency only, so it cannot change a later probe's answer.
        let store = self.store;
        let mut plan = store.plan(&mfg.nodes);
        let mut residue: Vec<(u32, u32, VertexId)> = Vec::with_capacity(plan.num_remote());
        for (owner, reqs) in plan.remote.iter_mut().enumerate() {
            residue.extend(reqs.drain(..).map(|(pos, v)| (pos, owner as u32, v)));
        }
        residue.sort_unstable();
        let mut hits: Vec<(u32, u32)> = Vec::new();
        for entry @ &(pos, owner, v) in &residue {
            match probe_entry(&self.overlay, entry) {
                Some(slot) => {
                    self.overlay.touch(v);
                    hits.push((pos, slot));
                }
                None => plan.remote[owner as usize].push((pos, v)),
            }
        }

        // Read the batch's non-resident rows: the overlay hits by their
        // probed slot, then each owner's misses decoded from the wire
        // bytes of one `serve_encoded` on its store and admitted as
        // those bytes where the overlay keeps the same encoding. So the
        // overlay read is the one the probe saw. The comm events, the
        // DES network leg, `bytes_fetched` and `serve.net.bytes` bill
        // the bytes' lengths.
        let dim = store.dim();
        let wire = self.cfg.wire_scheme;
        let n_overlay = hits.len();
        let mut rows = BatchRows::new(store, plan, hits);
        rows.read_held(|slot, row| self.overlay.read_row_into(slot, row));
        let (mut fetched_bytes, row_bytes) = (0u64, wire.row_bytes(dim));
        for (owner, owner_store) in self.stores.iter().enumerate() {
            if rows.plan().remote[owner].is_empty() {
                continue;
            }
            let bytes = owner_store.serve_encoded(&rows.plan().owner_ids(owner), wire);
            rows.decode_owner(owner, wire, &bytes);
            self.fetch_events
                .push((batch.close_time, owner as u32, bytes.len() as u64));
            fetched_bytes += bytes.len() as u64;
            for (r, (v, row)) in rows.fetched(owner).enumerate() {
                let coded = &bytes[r * row_bytes..(r + 1) * row_bytes];
                self.overlay.insert_wire(v, row, Some((wire, coded)));
            }
        }
        let plan = rows.plan();
        let (n_cpu, n_static) = (plan.local_cpu.len(), plan.cached.len());
        let n_local = plan.local_gpu.len() + n_cpu;
        let n_fetch = plan.num_remote();
        // Rows staged through host RAM before the device copy: CPU-resident
        // locals, overlay rows (host memory), and freshly fetched rows.
        // Static-tier and GPU-resident rows are already on device.
        let host_rows = n_cpu + n_overlay + n_fetch;

        // Virtual-time pipeline: sample (CPU, released at the batch's
        // close time) → remote fetch (NIC) → slice + host-to-device copy
        // (copy engine) → forward (GPU). Serial DES resources pipeline
        // consecutive batches exactly like the training simulator.
        let layer_rows = mfg.layer_rows();
        let cost = &self.cfg.cost;
        // Labels are only ever read back from the DES trace.
        let traced = self.des.tracing();
        let label = |s: &str| {
            if traced {
                format!("serve.{s} b{}", batch.id)
            } else {
                String::new()
            }
        };
        let t_sample = self.des.submit_labeled_released(
            self.res_cpu,
            cost.sample_time(mfg.num_edges()),
            &[],
            &label("sample"),
            batch.close_time,
        );
        let mut dep = t_sample;
        if fetched_bytes > 0 {
            dep = self.des.submit_labeled(
                self.res_net,
                cost.network.transfer_time(fetched_bytes as f64),
                &[dep],
                &label("fetch"),
            );
        }
        let t_copy = self.des.submit_labeled(
            self.res_copy,
            cost.slice_time(mfg.num_nodes(), dim) + cost.pcie_time((host_rows * dim * 4) as f64),
            &[dep],
            &label("copy"),
        );
        let t_gpu = self.des.submit_labeled(
            self.res_gpu,
            cost.infer_time(&layer_rows, self.model.dims()),
            &[t_copy],
            &label("infer"),
        );
        let finish = self.des.completion(t_gpu);
        debug_assert!(
            self.inflight.back().is_none_or(|&(t, _)| t <= finish),
            "serial GPU completions must be monotone"
        );
        self.inflight.push_back((finish, batch.requests.len()));

        // Completions are recorded now, with their virtual `finish`; the
        // forward pass fills in label and checksum.
        let first = self.completions.len();
        self.completions
            .extend(batch.requests.iter().map(|req| Completion {
                id: req.id,
                vertex: req.vertex,
                batch_id: batch.id,
                arrival: req.arrival,
                client: req.client,
                finish,
                latency: finish - req.arrival,
                label: 0,
                checksum: 0,
            }));

        // Accounting.
        self.local += n_local as u64;
        self.static_hits += n_static as u64;
        self.bytes_fetched += fetched_bytes;
        self.batches.push(BatchRecord {
            id: batch.id,
            size: batch.requests.len(),
            trigger: batch.trigger,
            close_time: batch.close_time,
            finish,
            mfg_nodes: mfg.num_nodes(),
            mfg_edges: mfg.num_edges(),
            remote_fetched: n_fetch,
        });
        if let Some(m) = serve_metrics() {
            m.batch_size.observe(batch.requests.len() as u64);
            m.completed.add(batch.requests.len() as u64);
            m.static_hits.add(n_static as u64);
            m.overlay_hits.add(n_overlay as u64);
            let evictions = self.overlay.counters().evictions;
            m.overlay_evictions.add(evictions - self.reported_evictions);
            self.reported_evictions = evictions;
            m.misses.add(n_fetch as u64);
            m.net_bytes.add(fetched_bytes);
            for req in &batch.requests {
                let lat_ns = ((finish - req.arrival) * 1e9).max(0.0) as u64;
                m.latency_ns.observe(lat_ns);
            }
        }
        Prepared {
            mfg,
            rows,
            seed_row,
            first,
        }
    }

    /// Final accounting and (when telemetry is on) sim-span export.
    fn finish(self) -> ServeReport {
        if tel::enabled() {
            for e in self.des.trace() {
                let track = tel::sim_track(self.des.resource_name(e.resource));
                tel::record_sim_span(track, e.label.clone(), e.start, e.end - e.start);
            }
        }
        let mut latency_sketch = tel::QuantileSketch::new();
        for c in &self.completions {
            latency_sketch.observe_secs(c.latency);
        }
        let oc = self.overlay.counters();
        let cache = CacheStats {
            lookups: self.static_hits + oc.hits + oc.misses,
            local: self.local,
            static_hits: self.static_hits,
            overlay_hits: oc.hits,
            misses: oc.misses,
            evictions: oc.evictions,
            insertions: oc.insertions,
            bytes_fetched: self.bytes_fetched,
        };
        debug_assert_eq!(
            cache.static_hits + cache.overlay_hits + cache.misses,
            cache.lookups,
            "tier accounting must partition lookups"
        );
        ServeReport {
            completions: self.completions,
            rejections: self.rejections,
            batches: self.batches,
            cache,
            makespan: self.des.makespan(),
            latency_sketch,
            wire_scheme: self.cfg.wire_scheme,
            overlay_scheme: self.cfg.overlay_scheme,
            feature_dim: self.store.dim(),
            part: self.store.part(),
            machines: self.store.layout().num_parts(),
            fetch_events: self.fetch_events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_gnn::Arch;
    use spp_graph::dataset::SyntheticSpec;
    use spp_runtime::SetupConfig;

    #[test]
    fn duplicate_requests_get_their_seed_rows_answer() {
        let ds = SyntheticSpec::new("serve-dedup", 300, 8.0, 8, 4)
            .split_fractions(0.3, 0.1, 0.1)
            .seed(5)
            .build();
        let fanouts = Fanouts::new(vec![4, 3]);
        let setup = DistributedSetup::build(
            &ds,
            SetupConfig {
                num_machines: 2,
                fanouts: fanouts.clone(),
                alpha: 0.1,
                ..SetupConfig::default()
            },
        );
        let model = GnnModel::new(Arch::Sage, &[8, 16, 4], 5);
        // Two size-closed batches, each naming some vertices twice or
        // more; the first batch's forward pass may overlap the second's
        // preparation.
        let vertices: [VertexId; 12] = [7, 3, 7, 250, 3, 7, 11, 11, 11, 120, 4, 120];
        let trace: Vec<InferenceRequest> = (0..vertices.len())
            .map(|i| InferenceRequest {
                id: i as u64,
                vertex: vertices[i],
                arrival: i as f64 * 1e-4,
                client: 0,
            })
            .collect();
        let seed = 9;
        let cfg = ServeConfig {
            max_batch_size: 6,
            max_delay: 1.0,
            fanouts: fanouts.clone(),
            seed,
            pool: WorkerPool::new(2),
            ..ServeConfig::default()
        };
        let report = InferenceServer::new(&setup, &model, 0, cfg).run(&trace);
        assert_eq!(report.batches.len(), 2);
        assert_eq!(report.completions.len(), trace.len());

        // Each batch's answers are a direct inference over its distinct
        // vertices in first-occurrence order.
        let sampler = NodeWiseSampler::new(&setup.dataset.graph, fanouts);
        let features = &setup.dataset.features;
        for (b, answers) in report.completions.chunks(6).enumerate() {
            let mut seeds: Vec<VertexId> = Vec::new();
            for c in answers {
                if !seeds.contains(&c.vertex) {
                    seeds.push(c.vertex);
                }
            }
            let mut rng = StdRng::seed_from_u64(batch_stream_seed(seed, 0, b as u64));
            let mfg = sampler.sample(&seeds, &mut rng);
            let x = Matrix::from_flat(
                mfg.num_nodes(),
                features.dim(),
                features.gather(&mfg.nodes).as_flat().to_vec(),
            );
            let logits = model.infer(x, &mfg);
            for (c, &v) in answers.iter().zip(&vertices[b * 6..]) {
                assert_eq!((c.batch_id, c.vertex), (b as u64, v));
                let row = logits.row(seeds.iter().position(|&s| s == v).unwrap_or(0));
                assert_eq!(c.label, argmax(row), "request {}", c.id);
                assert_eq!(c.checksum, logits_checksum(row), "request {}", c.id);
            }
        }
    }
}
