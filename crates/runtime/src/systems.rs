//! Per-epoch timing simulation of the paper's system ladder.
//!
//! Every variant runs the same stage table — [`StageGraph::coarse`]:
//! rpc? → sample → serve → slice → comm → h2d → train, on a CPU, a GPU,
//! a PCIe copy engine and a NIC per machine, the four lanes of the
//! paper's Figure 1 — through the one round interpreter
//! [`crate::stages::simulate`]. A [`SystemSpec`] only chooses what the
//! batches contain, how many rounds may be in flight, and three cost
//! knobs:
//!
//! 1. **SALIENT (full replication)** — batches have no remote rows, so
//!    the serve and comm rows never run; batch prep overlaps training.
//! 2. **+ Partitioned features** — per-batch all-to-all feature exchange,
//!    one round in flight (communication exposed).
//! 3. **+ Pipelined communication** — same costs, up to
//!    [`SystemSpec::pipeline_depth`] rounds in flight.
//! 4. **+ Feature caching** — the setup's cache shrinks the exchanged
//!    bytes; communication hides under compute.
//!
//! A DistDGL-like synchronous baseline (the per-hop RPC row, no
//! pipelining, no cache, heavyweight communication layer, slower
//! sampler) provides the Table 4 comparison.
//!
//! [`EpochSim::simulate_appendix_d_epoch`] runs the explicit ten-stage
//! Appendix-D table ([`StageGraph::appendix_d`]) through the same
//! interpreter. Every method returns the interpreter's [`SimResult`];
//! per-stage busy time is read from its [`crate::stages::StageBusy`] by
//! [`spp_telemetry::stage::PipelineStage`].

use crate::cost::CostModel;
use crate::setup::DistributedSetup;
use crate::stages::{simulate, SimOpts, SimResult, StageGraph};
use crate::workload::measure_streams;
use spp_graph::VertexId;

/// Which system variant to simulate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SystemSpec {
    /// Replicate all features on every machine (no feature communication).
    pub full_replication: bool,
    /// Maximum batches in flight: 1 runs each batch's preparation,
    /// communication and training in turn; more overlap them
    /// (SALIENT++ uses 10).
    pub pipeline_depth: usize,
    /// Hidden-layer width (sets GPU FLOPs and gradient bytes).
    pub hidden_dim: usize,
    /// DistDGL-like overheads: per-hop RPC sampling latency (s).
    pub rpc_per_hop: f64,
    /// DistDGL-like extra software overhead per communication round (s).
    pub comm_overhead: f64,
    /// CPU sampling slowdown factor (DistDGL's sampler).
    pub sample_slowdown: f64,
}

impl SystemSpec {
    /// SALIENT: full replication, pipelined (Table 1 row 1).
    pub fn salient(hidden_dim: usize) -> Self {
        Self {
            full_replication: true,
            ..Self::pipelined(hidden_dim)
        }
    }

    /// Partitioned features, bulk-synchronous communication (row 2).
    pub fn partitioned(hidden_dim: usize) -> Self {
        Self {
            full_replication: false,
            pipeline_depth: 1,
            hidden_dim,
            rpc_per_hop: 0.0,
            comm_overhead: 0.0,
            sample_slowdown: 1.0,
        }
    }

    /// Partitioned + pipelined communication (row 3; row 4 = same spec
    /// with a caching setup).
    pub fn pipelined(hidden_dim: usize) -> Self {
        Self {
            pipeline_depth: 10,
            ..Self::partitioned(hidden_dim)
        }
    }

    /// A DistDGL-like synchronous baseline (Table 4): per-hop RPC
    /// sampling against remote graph servers, no pipelining, heavyweight
    /// communication layer, slower sampler.
    pub fn distdgl(hidden_dim: usize) -> Self {
        Self {
            rpc_per_hop: 1.5e-3,
            comm_overhead: 2e-3,
            sample_slowdown: 2.5,
            ..Self::partitioned(hidden_dim)
        }
    }
}

/// Simulates per-epoch time for a system variant over a deployment.
///
/// # Example
///
/// ```
/// use spp_graph::dataset::SyntheticSpec;
/// use spp_runtime::{CostModel, DistributedSetup, EpochSim, SetupConfig, SystemSpec};
/// use spp_sampler::Fanouts;
///
/// let ds = SyntheticSpec::new("d", 300, 8.0, 8, 4)
///     .split_fractions(0.2, 0.05, 0.05)
///     .seed(1)
///     .build();
/// let setup = DistributedSetup::build(&ds, SetupConfig {
///     num_machines: 2,
///     fanouts: Fanouts::new(vec![4, 3]),
///     batch_size: 16,
///     ..SetupConfig::default()
/// });
/// let sim = EpochSim::new(&setup, CostModel::mini_calibrated(), SystemSpec::pipelined(32));
/// let epoch = sim.simulate_epoch(0);
/// assert!(epoch.makespan > 0.0);
/// assert!(epoch.rounds > 0);
/// ```
pub struct EpochSim<'a> {
    setup: &'a DistributedSetup,
    cost: CostModel,
    spec: SystemSpec,
}

impl<'a> EpochSim<'a> {
    /// Creates a simulator.
    pub fn new(setup: &'a DistributedSetup, cost: CostModel, spec: SystemSpec) -> Self {
        Self { setup, cost, spec }
    }

    /// Runs `graph` over one epoch of batches drawn from `streams`, at
    /// the spec's depth and hidden width.
    fn run(
        &self,
        graph: &StageGraph,
        streams: &[Vec<VertexId>],
        epoch: u64,
        inference: bool,
        trace: bool,
    ) -> SimResult {
        let stats = measure_streams(self.setup, self.spec.full_replication, epoch, streams);
        let opts = SimOpts {
            cost: self.cost,
            hidden_dim: self.spec.hidden_dim,
            depth: self.spec.pipeline_depth.max(1),
            inference,
            trace,
        };
        simulate(graph, self.setup, &stats, &opts)
    }

    /// Simulates one epoch and returns its timing.
    pub fn simulate_epoch(&self, epoch: u64) -> SimResult {
        let train = &self.setup.local_train;
        self.run(&StageGraph::coarse(&self.spec), train, epoch, false, false)
    }

    /// Like [`EpochSim::simulate_epoch`] but with [`SimResult::trace`]
    /// filled — `(machine resource name, stage label, start, end)` per
    /// task — for rendering Figure-1-style computation profiles; see
    /// [`crate::stages::Trace`] for its ordering contract.
    pub fn simulate_epoch_traced(&self, epoch: u64) -> SimResult {
        let train = &self.setup.local_train;
        self.run(&StageGraph::coarse(&self.spec), train, epoch, false, true)
    }

    /// Simulates a minibatch-*inference* epoch over caller-supplied
    /// per-machine seed streams (e.g. validation or test vertices):
    /// forward pass only — no backward, no gradient all-reduce, no
    /// synchronous-SGD ordering between rounds (paper §2.4).
    pub fn simulate_inference_epoch(&self, streams: &[Vec<VertexId>], epoch: u64) -> SimResult {
        self.run(&StageGraph::coarse(&self.spec), streams, epoch, true, false)
    }

    /// Simulates one training epoch through the explicit Appendix-D
    /// table ([`StageGraph::appendix_d`]), which shows the per-stage
    /// structure the coarse table fuses (metadata round trips, the
    /// masked-selection thread, GPU-side slicing, the final permute).
    ///
    /// With telemetry on ([`spp_telemetry::enabled`]) the task trace is
    /// replayed into the event log as virtual-time spans, one track per
    /// simulated resource, and the returned trace is left empty. Only
    /// this method replays: the coarse table runs hundreds of times per
    /// sweep, and its spans would push these out of the bounded event
    /// ring. Nothing is read back, so the result is the same either way.
    pub fn simulate_appendix_d_epoch(&self, epoch: u64) -> SimResult {
        let _span = spp_telemetry::span!("runtime.systems.appendix_d_epoch");
        let train = &self.setup.local_train;
        let traced = spp_telemetry::enabled();
        let mut result = self.run(&StageGraph::appendix_d(), train, epoch, false, traced);
        for (resource, label, start, end) in result.trace.drain(..) {
            let track = spp_telemetry::sim_track(&resource);
            spp_telemetry::record_sim_span(track, label, start, end - start);
        }
        result
    }

    /// Mean per-epoch time over `epochs` simulated epochs.
    pub fn mean_epoch_time(&self, epochs: usize) -> f64 {
        (0..epochs)
            .map(|e| self.simulate_epoch(e as u64).makespan)
            .sum::<f64>()
            / epochs.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::SetupConfig;
    use spp_core::policies::CachePolicy;
    use spp_graph::dataset::SyntheticSpec;
    use spp_graph::Dataset;
    use spp_sampler::Fanouts;
    use spp_telemetry::stage::PipelineStage as S;

    fn ds() -> Dataset {
        SyntheticSpec::new("t", 1200, 12.0, 16, 4)
            .split_fractions(0.4, 0.05, 0.05)
            .seed(3)
            .build()
    }

    fn cfg(k: usize, policy: CachePolicy, alpha: f64) -> SetupConfig {
        SetupConfig {
            num_machines: k,
            fanouts: Fanouts::new(vec![5, 5]),
            batch_size: 24,
            policy,
            alpha,
            beta: 1.0,
            vip_reorder: true,
            seed: 9,
            ..SetupConfig::default()
        }
    }

    #[test]
    fn system_ladder_ordering() {
        let ds = ds();
        let cached = DistributedSetup::build(&ds, cfg(4, CachePolicy::VipAnalytic, 0.3));
        let bare = DistributedSetup::build(&ds, cfg(4, CachePolicy::None, 0.0));
        let cost = CostModel::default();
        let h = 32;

        let t_full = EpochSim::new(&bare, cost, SystemSpec::salient(h)).simulate_epoch(0);
        let t_part = EpochSim::new(&bare, cost, SystemSpec::partitioned(h)).simulate_epoch(0);
        let t_pipe = EpochSim::new(&bare, cost, SystemSpec::pipelined(h)).simulate_epoch(0);
        let t_spp = EpochSim::new(&cached, cost, SystemSpec::pipelined(h)).simulate_epoch(0);

        // Table 1's ordering: partitioned slowest, pipelining helps,
        // caching + pipelining approaches full replication.
        assert!(
            t_part.makespan > t_pipe.makespan,
            "pipelining must help: {} vs {}",
            t_part.makespan,
            t_pipe.makespan
        );
        assert!(
            t_pipe.makespan > t_spp.makespan,
            "caching must help: {} vs {}",
            t_pipe.makespan,
            t_spp.makespan
        );
        assert!(
            t_spp.makespan < t_full.makespan * 1.6,
            "SALIENT++ should approach full replication: {} vs {}",
            t_spp.makespan,
            t_full.makespan
        );
    }

    #[test]
    fn full_replication_has_no_comm() {
        let ds = ds();
        let s = DistributedSetup::build(&ds, cfg(2, CachePolicy::None, 0.0));
        let t = EpochSim::new(&s, CostModel::default(), SystemSpec::salient(32)).simulate_epoch(0);
        assert_eq!(t.busy.get(S::FeatureExchange), 0.0);
        assert_eq!(t.busy.serve(), 0.0);
        assert!(t.busy.get(S::AllReduce) > 0.0);
    }

    #[test]
    fn distdgl_slower_than_salient_pp() {
        let ds = ds();
        let cached = DistributedSetup::build(&ds, cfg(4, CachePolicy::VipAnalytic, 0.3));
        let bare = DistributedSetup::build(&ds, cfg(4, CachePolicy::None, 0.0));
        let cost = CostModel::default();
        let spp = EpochSim::new(&cached, cost, SystemSpec::pipelined(32)).simulate_epoch(0);
        let dgl = EpochSim::new(&bare, cost, SystemSpec::distdgl(32)).simulate_epoch(0);
        assert!(
            dgl.makespan > 3.0 * spp.makespan,
            "DistDGL-like should be much slower: {} vs {}",
            dgl.makespan,
            spp.makespan
        );
    }

    #[test]
    fn more_machines_scale_down_epoch_time() {
        let ds = ds();
        let cost = CostModel::default();
        let t2 = EpochSim::new(
            &DistributedSetup::build(&ds, cfg(2, CachePolicy::VipAnalytic, 0.2)),
            cost,
            SystemSpec::pipelined(32),
        )
        .simulate_epoch(0);
        let t4 = EpochSim::new(
            &DistributedSetup::build(&ds, cfg(4, CachePolicy::VipAnalytic, 0.2)),
            cost,
            SystemSpec::pipelined(32),
        )
        .simulate_epoch(0);
        assert!(
            t4.makespan < t2.makespan,
            "scaling 2→4 machines must reduce epoch time: {} vs {}",
            t2.makespan,
            t4.makespan
        );
    }

    #[test]
    fn makespan_at_least_gpu_busy_per_machine() {
        let ds = ds();
        let s = DistributedSetup::build(&ds, cfg(2, CachePolicy::VipAnalytic, 0.2));
        let t =
            EpochSim::new(&s, CostModel::default(), SystemSpec::pipelined(32)).simulate_epoch(0);
        // Total GPU busy across 2 machines / 2 is a lower bound.
        assert!(t.makespan >= t.busy.get(S::Train) / 2.0 - 1e-9);
        assert!(t.startup > 0.0 && t.startup <= t.makespan);
    }

    #[test]
    fn inference_epoch_is_cheaper_than_training() {
        let ds = ds();
        let s = DistributedSetup::build(&ds, cfg(4, CachePolicy::VipAnalytic, 0.2));
        let sim = EpochSim::new(&s, CostModel::default(), SystemSpec::pipelined(32));
        let train = sim.simulate_epoch(0);
        // Infer over the same seed streams for a like-for-like comparison.
        let infer = sim.simulate_inference_epoch(&s.local_train, 0);
        assert_eq!(infer.busy.get(S::AllReduce), 0.0);
        assert!(
            infer.makespan < train.makespan,
            "inference {} should beat training {}",
            infer.makespan,
            train.makespan
        );
        assert!(infer.busy.get(S::Train) < train.busy.get(S::Train));
    }

    #[test]
    fn inference_over_test_split_runs() {
        let ds = ds();
        let s = DistributedSetup::build(&ds, cfg(2, CachePolicy::VipAnalytic, 0.2));
        // Route each (new-id) test vertex to its owning machine's stream.
        let mut streams: Vec<Vec<spp_graph::VertexId>> = vec![Vec::new(); 2];
        for &v in &s.dataset.split.test {
            streams[s.layout.owner_of(v) as usize].push(v);
        }
        let sim = EpochSim::new(&s, CostModel::default(), SystemSpec::pipelined(32));
        let e = sim.simulate_inference_epoch(&streams, 0);
        assert!(e.makespan > 0.0 && e.rounds > 0);
    }

    #[test]
    fn deterministic_simulation() {
        let ds = ds();
        let s = DistributedSetup::build(&ds, cfg(2, CachePolicy::VipAnalytic, 0.2));
        let sim = EpochSim::new(&s, CostModel::default(), SystemSpec::pipelined(32));
        let a = sim.simulate_epoch(1);
        let b = sim.simulate_epoch(1);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.busy, b.busy);
    }

    /// The 4-machine fixture the Appendix-D tests share.
    fn appendix_d_setup(alpha: f64) -> DistributedSetup {
        let ds = SyntheticSpec::new("pipe", 3_000, 14.0, 32, 8)
            .split_fractions(0.1, 0.01, 0.02)
            .homophily(0.93)
            .degree_tail(1.2)
            .seed(4)
            .build();
        DistributedSetup::build(
            &ds,
            SetupConfig {
                num_machines: 4,
                fanouts: Fanouts::new(vec![10, 5]),
                batch_size: 8,
                policy: if alpha > 0.0 {
                    CachePolicy::VipAnalytic
                } else {
                    CachePolicy::None
                },
                alpha,
                beta: 0.5,
                vip_reorder: true,
                seed: 5,
                ..SetupConfig::default()
            },
        )
    }

    /// The Appendix-D table over `setup` at `depth` rounds in flight.
    fn appendix_d(setup: &DistributedSetup, depth: usize) -> SimResult {
        let spec = SystemSpec {
            pipeline_depth: depth,
            ..SystemSpec::pipelined(64)
        };
        EpochSim::new(setup, CostModel::mini_calibrated(), spec).simulate_appendix_d_epoch(0)
    }

    #[test]
    fn detailed_model_tracks_coarse_model() {
        // The 10-stage model carries the per-stage fixed costs (three
        // PCIe ops, two GPU kernels, three NIC messages per round) that
        // the coarse model fuses into single tasks. At mini scale those
        // fixed overheads are a large share of a ~100 µs round, so the
        // detailed model runs up to ~3x slower — which is precisely why
        // the real SALIENT++ fuses and pipelines these stages. The two
        // models must still agree within that fixed-cost envelope.
        let s = appendix_d_setup(0.3);
        let sim = EpochSim::new(&s, CostModel::mini_calibrated(), SystemSpec::pipelined(64));
        let detailed = sim.simulate_appendix_d_epoch(0);
        let coarse = sim.simulate_epoch(0);
        let ratio = detailed.makespan / coarse.makespan;
        assert!(
            (0.8..=3.5).contains(&ratio),
            "detailed {} vs coarse {} (ratio {ratio:.2})",
            detailed.makespan,
            coarse.makespan
        );
    }

    #[test]
    fn depth_one_is_slower_than_depth_ten() {
        let s = appendix_d_setup(0.3);
        let (d1, d10) = (appendix_d(&s, 1), appendix_d(&s, 10));
        assert!(
            d1.makespan > d10.makespan,
            "{} vs {}",
            d1.makespan,
            d10.makespan
        );
    }

    #[test]
    fn caching_reduces_stage9_busy() {
        let b = appendix_d(&appendix_d_setup(0.0), 10);
        let c = appendix_d(&appendix_d_setup(0.5), 10);
        assert!(
            c.busy.get(S::FeatureExchange) < b.busy.get(S::FeatureExchange),
            "feature all-to-all busy must drop: {} vs {}",
            b.busy.get(S::FeatureExchange),
            c.busy.get(S::FeatureExchange)
        );
    }

    #[test]
    fn busy_total_bounds_makespan_per_machine() {
        let e = appendix_d(&appendix_d_setup(0.3), 10);
        assert!(e.makespan > 0.0);
        assert!(e.rounds > 0);
        // Makespan cannot exceed fully-serial execution.
        assert!(e.makespan <= e.busy.total() + 1e-9);
    }
}
