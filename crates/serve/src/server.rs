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
//! planned once, the overlay probe of the plan's remote residue runs on
//! the worker pool but merges in node order, and all overlay mutation
//! happens sequentially afterwards (touches in node order, admissions in
//! fetch order, after the gather read every hit).
//!
//! # One feature-row path
//!
//! Where a vertex's row lives on this machine is decided by
//! `PartitionedFeatureStore::plan` alone (local GPU / local CPU / static
//! tier / remote by owner). The server owns only the overlay: it probes
//! the plan's remote residue, moves the hits out of the plan, lets
//! `gather_planned` read everything the plan still lists — remote rows
//! through the one `remote` [`FeatureStore`], the resident matrix by
//! default — and fills the overlay hits into the same tensor.

use crate::batcher::{BatchPolicy, CloseTrigger, MicroBatch, MicroBatcher};
use crate::loadgen::PopularitySampler;
use crate::overlay::DynamicOverlay;
use crate::queue::{AdmissionQueue, InferenceRequest, Rejection};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spp_comm::{DesEngine, ResourceId};
use spp_core::PartitionedFeatureStore;
use spp_gnn::GnnModel;
use spp_graph::{quant, QuantScheme, VertexId};
use spp_pool::WorkerPool;
use spp_runtime::{CostModel, DistributedSetup};
use spp_sampler::{batch_stream_seed, Fanouts, NodeWiseSampler};
use spp_store::FeatureStore;
use spp_telemetry as tel;
use spp_telemetry::metrics::{Counter, Gauge, Histogram};
use std::collections::{BinaryHeap, VecDeque};
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
    /// Worker pool for the overlay probe of a batch's remote residue.
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
    /// Per-pipeline-stage duration sketches (`serve.sample`,
    /// `serve.fetch`, `serve.copy`, `serve.infer`), folded from the DES
    /// trace in stage-name order. Empty when telemetry was off at
    /// server construction (the DES trace is not recorded then).
    pub stage_sketches: Vec<(String, tel::QuantileSketch)>,
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

    /// Latency quantile `q` in `[0,1]` (virtual seconds; 0 when empty).
    pub fn latency_quantile(&self, q: f64) -> f64 {
        if self.completions.is_empty() {
            return 0.0;
        }
        let mut lat: Vec<f64> = self.completions.iter().map(|c| c.latency).collect();
        lat.sort_by(f64::total_cmp);
        let idx = ((lat.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        lat[idx]
    }

    /// Mean latency (virtual seconds; 0 when empty).
    pub fn mean_latency(&self) -> f64 {
        if self.completions.is_empty() {
            return 0.0;
        }
        self.completions.iter().map(|c| c.latency).sum::<f64>() / self.completions.len() as f64
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

/// Closed-loop load configuration for
/// [`InferenceServer::run_closed_loop`].
#[derive(Clone, Debug)]
pub struct ClosedLoopConfig {
    /// Concurrent clients.
    pub clients: usize,
    /// Virtual think time between a client's response and its next
    /// request (also the retry delay after a rejection).
    pub think_time: f64,
    /// Total requests to issue across all clients.
    pub total_requests: usize,
    /// Popularity skew exponent (see [`PopularitySampler`]).
    pub skew: f64,
    /// Seed for vertex choices (independent of the server seed).
    pub seed: u64,
}

/// Overlay lookup of one remote-residue entry `(position, owner,
/// vertex)` — the per-entry kernel of the residue probe. Runs under
/// [`WorkerPool::par_map`], so it must stay allocation- and lock-free.
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

/// One machine's online inference server. Single-use: build, call one
/// `run_*` method, read the report.
pub struct InferenceServer<'a> {
    model: &'a GnnModel,
    store: &'a PartitionedFeatureStore,
    /// Where fetched rows are read (new-id addressed, standing in for
    /// the owners): the deployment's resident matrix unless
    /// [`InferenceServer::with_remote_store`] replaced it.
    remote: &'a dyn FeatureStore,
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
            store,
            remote: &setup.dataset.features,
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

    /// Reads fetched rows from `remote` (addressed by the deployment's
    /// reordered ids) instead of the resident matrix — e.g. an
    /// out-of-core store modeling owners that page features from disk
    /// (DESIGN.md §16). Tier classification, wire-byte accounting, and
    /// the DES timeline do not depend on the backend; an f32 store
    /// serves bit-identical rows.
    ///
    /// # Panics
    ///
    /// Panics if the store's shape disagrees with the deployment.
    pub fn with_remote_store(mut self, remote: &'a dyn FeatureStore) -> Self {
        assert_eq!(
            remote.num_rows(),
            self.store.layout().num_vertices(),
            "remote store row count must match the deployment"
        );
        assert_eq!(
            remote.dim(),
            self.store.dim(),
            "remote store dim must match the feature dim"
        );
        self.remote = remote;
        self
    }

    /// Replays an open-loop trace (arrivals must be time-ordered).
    ///
    /// # Panics
    ///
    /// Panics if the trace's arrival times are not non-decreasing.
    pub fn run(mut self, trace: &[InferenceRequest]) -> ServeReport {
        let mut last = 0.0f64;
        for req in trace {
            assert!(req.arrival >= last, "trace must be time-ordered");
            last = req.arrival;
            self.handle_arrival(*req);
        }
        self.flush_all();
        self.finish()
    }

    /// Runs a closed loop: `cl.clients` clients each issue a request,
    /// wait for its response (or rejection), think, repeat — until
    /// `cl.total_requests` have been issued. Offered load adapts to
    /// service capacity, so rejections only occur when the queue bound is
    /// tighter than the client count.
    ///
    /// # Panics
    ///
    /// Panics if `cl.clients` is zero or `cl.think_time` is negative.
    pub fn run_closed_loop(mut self, cl: &ClosedLoopConfig) -> ServeReport {
        assert!(cl.clients > 0, "closed loop needs at least one client");
        assert!(cl.think_time >= 0.0, "think time must be non-negative");
        let sampler = PopularitySampler::new(self.store.layout().num_vertices(), cl.skew, cl.seed);
        let mut rng = StdRng::seed_from_u64(cl.seed);
        let mut issued = 0u64;
        // Min-heap of pending client wake-ups. Times are non-negative, so
        // the `to_bits` order matches numeric order; client id breaks ties
        // deterministically.
        let mut wakeups: BinaryHeap<std::cmp::Reverse<(u64, u32)>> = (0..cl.clients as u32)
            .map(|c| {
                let t = cl.think_time * c as f64 / cl.clients as f64;
                std::cmp::Reverse((t.to_bits(), c))
            })
            .collect();
        loop {
            while let Some(&std::cmp::Reverse((bits, client))) = wakeups.peek() {
                let now = f64::from_bits(bits);
                // A batch deadline before this wake-up fires first; its
                // completions may schedule earlier wake-ups.
                if self
                    .batcher
                    .deadline_for(&self.queue)
                    .is_some_and(|d| d <= now)
                {
                    let from = self.completions.len();
                    self.fire_deadlines_until(now);
                    Self::requeue(&mut wakeups, &self.completions[from..], cl);
                    continue;
                }
                wakeups.pop();
                if issued >= cl.total_requests as u64 {
                    continue; // client retires
                }
                let req = InferenceRequest {
                    id: issued,
                    vertex: sampler.sample(&mut rng),
                    arrival: now,
                    client,
                };
                issued += 1;
                let from = self.completions.len();
                let admitted = self.handle_arrival(req);
                Self::requeue(&mut wakeups, &self.completions[from..], cl);
                if !admitted {
                    // Rejected: the client backs off one think time.
                    let t = now + cl.think_time;
                    wakeups.push(std::cmp::Reverse((t.to_bits(), client)));
                }
            }
            if self.queue.depth() == 0 {
                break;
            }
            let from = self.completions.len();
            if let Some(b) = self.batcher.flush(&mut self.queue) {
                self.process_batch(&b);
            }
            Self::requeue(&mut wakeups, &self.completions[from..], cl);
        }
        self.finish()
    }

    /// Schedules the issuing clients of fresh completions to wake after
    /// their think time.
    fn requeue(
        wakeups: &mut BinaryHeap<std::cmp::Reverse<(u64, u32)>>,
        fresh: &[Completion],
        cl: &ClosedLoopConfig,
    ) {
        for c in fresh {
            let t = c.finish + cl.think_time;
            wakeups.push(std::cmp::Reverse((t.to_bits(), c.client)));
        }
    }

    /// Admits one arrival (after settling earlier deadlines and
    /// completions); returns whether it was admitted.
    fn handle_arrival(&mut self, req: InferenceRequest) -> bool {
        self.fire_deadlines_until(req.arrival);
        self.drain_inflight(req.arrival);
        let inflight = self.inflight_requests();
        let admitted = match self.queue.offer(req, inflight) {
            Ok(()) => {
                if let Some(m) = serve_metrics() {
                    m.admitted.inc();
                }
                if let Some(b) = self.batcher.try_close_on_size(&mut self.queue, req.arrival) {
                    self.process_batch(&b);
                }
                true
            }
            Err(rej) => {
                if let Some(m) = serve_metrics() {
                    m.rejected.inc();
                }
                self.rejections.push(*rej);
                false
            }
        };
        if let Some(m) = serve_metrics() {
            m.queue_depth.set(self.queue.depth() as u64);
        }
        admitted
    }

    /// Fires every batch deadline at or before `now`, oldest first.
    fn fire_deadlines_until(&mut self, now: f64) {
        while let Some(b) = self.batcher.try_close_on_deadline(&mut self.queue, now) {
            self.process_batch(&b);
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

    /// Runs one micro-batch through sampling, the two-tier gather, the
    /// virtual-time pipeline, and the forward pass.
    fn process_batch(&mut self, batch: &MicroBatch) {
        // Deduplicate seeds (first-occurrence order): a minibatch is a
        // set, but two requests for one vertex still get two result rows.
        let mut seed_row: Vec<usize> = Vec::with_capacity(batch.requests.len());
        let mut seeds: Vec<VertexId> = Vec::with_capacity(batch.requests.len());
        for req in &batch.requests {
            match seeds.iter().position(|&s| s == req.vertex) {
                Some(i) => seed_row.push(i),
                None => {
                    seed_row.push(seeds.len());
                    seeds.push(req.vertex);
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(batch_stream_seed(self.cfg.seed, 0, batch.id));
        let mfg = self.sampler.sample(&seeds, &mut rng);

        // Classify once: local rows, the static tier, and the remote
        // residue by owner. The overlay answers part of the residue, so
        // probe it — read-only, on the worker pool, in node order (the
        // hit/miss tallies are per-probe atomics, so the result does not
        // depend on the worker count) — and give the plan back only the
        // true misses. Hits become most-recently-used, sequentially and
        // in node order: part of the eviction-order determinism
        // contract.
        let store = self.store;
        let mut plan = store.plan(&mfg.nodes);
        let mut residue: Vec<(u32, u32, VertexId)> = Vec::with_capacity(plan.num_remote());
        for (owner, reqs) in plan.remote.iter_mut().enumerate() {
            residue.extend(reqs.drain(..).map(|(pos, v)| (pos, owner as u32, v)));
        }
        residue.sort_unstable();
        let overlay = &self.overlay;
        let slots = self
            .cfg
            .pool
            .par_map(&residue, 512, |_, entry| probe_entry(overlay, entry));
        let mut hits: Vec<(u32, u32)> = Vec::new();
        for (&(pos, owner, v), slot) in residue.iter().zip(slots) {
            match slot {
                Some(slot) => {
                    self.overlay.touch(v);
                    hits.push((pos, slot));
                }
                None => plan.remote[owner as usize].push((pos, v)),
            }
        }

        // Gather the feature tensor: the store reads what the plan still
        // lists, fetching each owner's misses with one read through
        // `remote`; overlay hits are decoded by their probed slot.
        // Admissions wait until every hit is read, so the overlay read
        // here is exactly the overlay the probe saw.
        let dim = store.dim();
        let remote = self.remote;
        let wire = self.cfg.wire_scheme;
        let mut x = store.gather_planned(&mfg.nodes, &plan, |owner, ids| {
            for &v in ids {
                debug_assert_eq!(
                    store.layout().owner_of(v),
                    owner,
                    "row {v} asked of a non-owner"
                );
            }
            let mut rows = remote.gather(ids);
            // The wire codec is applied at the requester: the row the
            // model (and the overlay admission) sees is what survived
            // the quantized transfer.
            for r in 0..ids.len() {
                quant::wire_roundtrip(rows.row_mut(r as VertexId), wire);
            }
            rows
        });
        for &(pos, slot) in &hits {
            self.overlay.read_row_into(slot, x.row_mut(pos as usize));
        }
        // Fetched wire bytes, computed once: the comm events, the DES
        // network leg, `bytes_fetched` and the `serve.net.bytes` counter
        // all bill this.
        let wire_row_bytes = wire.row_bytes(dim);
        let mut fetched_bytes = 0u64;
        for (owner, reqs) in plan.remote.iter().enumerate() {
            if reqs.is_empty() {
                continue;
            }
            let bytes = (reqs.len() * wire_row_bytes) as u64;
            self.fetch_events
                .push((batch.close_time, owner as u32, bytes));
            fetched_bytes += bytes;
            for &(pos, v) in reqs {
                self.overlay.insert(v, x.row(pos as usize));
            }
        }
        let (n_cpu, n_static) = (plan.local_cpu.len(), plan.cached.len());
        let n_local = plan.local_gpu.len() + n_cpu;
        let (n_overlay, n_fetch) = (hits.len(), plan.num_remote());
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

        // Forward pass; map each request to its (deduplicated) seed row.
        let logits = self.model.infer(x, &mfg);
        for (req, &row_idx) in batch.requests.iter().zip(&seed_row) {
            let row = logits.row(row_idx);
            self.completions.push(Completion {
                id: req.id,
                vertex: req.vertex,
                batch_id: batch.id,
                arrival: req.arrival,
                client: req.client,
                finish,
                latency: finish - req.arrival,
                label: argmax(row),
                checksum: logits_checksum(row),
            });
        }

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
    }

    /// Closes and runs every remaining batch (end of trace).
    fn flush_all(&mut self) {
        while let Some(b) = self.batcher.flush(&mut self.queue) {
            self.process_batch(&b);
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
        // Fold the virtual-time pipeline stages into per-stage duration
        // sketches. Stage = the span label minus its ` b<id>` suffix;
        // names are collected in first-appearance order then sorted, so
        // the result is a pure function of the (deterministic) DES
        // trace.
        let mut stage_sketches: Vec<(String, tel::QuantileSketch)> = Vec::new();
        for e in self.des.trace() {
            let stage = e.label.split(" b").next().unwrap_or(&e.label);
            if !stage_sketches.iter().any(|(n, _)| n == stage) {
                stage_sketches.push((stage.to_string(), tel::QuantileSketch::new()));
            }
            if let Some((_, sk)) = stage_sketches.iter_mut().find(|(n, _)| n == stage) {
                sk.observe_secs(e.end - e.start);
            }
        }
        stage_sketches.sort_by(|a, b| a.0.cmp(&b.0));
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
            stage_sketches,
            wire_scheme: self.cfg.wire_scheme,
            overlay_scheme: self.cfg.overlay_scheme,
            feature_dim: self.store.dim(),
            part: self.store.part(),
            machines: self.store.layout().num_parts(),
            fetch_events: self.fetch_events,
        }
    }
}
