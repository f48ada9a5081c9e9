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

use crate::cost::CostModel;
use crate::setup::DistributedSetup;
use crate::stages::{simulate, SimOpts, StageBusy, StageGraph, Trace};
use crate::workload::{measure_epoch, measure_streams, BatchStats};
use spp_telemetry::stage::PipelineStage;

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

/// Busy-time sums per stage category, across machines (seconds): the
/// coarse graph's projection of the interpreter's [`StageBusy`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Breakdown {
    /// Neighborhood sampling (MFG construction).
    pub sample: f64,
    /// Local + cached feature slicing.
    pub slice: f64,
    /// Slicing performed to serve peers' requests.
    pub serve: f64,
    /// Feature all-to-all communication.
    pub comm: f64,
    /// Host-to-device transfers.
    pub h2d: f64,
    /// GPU forward+backward.
    pub train: f64,
    /// Gradient all-reduce.
    pub allreduce: f64,
}

impl From<&StageBusy> for Breakdown {
    fn from(busy: &StageBusy) -> Self {
        use PipelineStage as S;
        Self {
            sample: busy.get(S::Sample),
            slice: busy.get(S::HostSlice),
            serve: busy.serve(),
            comm: busy.get(S::FeatureExchange),
            h2d: busy.get(S::H2d),
            train: busy.get(S::Train),
            allreduce: busy.get(S::AllReduce),
        }
    }
}

impl Breakdown {
    /// Total busy seconds across categories.
    pub fn total(&self) -> f64 {
        self.sample + self.slice + self.serve + self.comm + self.h2d + self.train + self.allreduce
    }
}

/// The result of simulating one epoch.
#[derive(Clone, Copy, Debug)]
pub struct EpochTime {
    /// Simulated wall-clock per-epoch time (slowest machine).
    pub makespan: f64,
    /// Rounds (distributed minibatches) in the epoch.
    pub rounds: usize,
    /// Completion time of the first round (pipeline fill / startup).
    pub startup: f64,
    /// Per-category busy time summed over machines.
    pub breakdown: Breakdown,
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

    /// Runs the coarse stage table over measured batches and projects
    /// the interpreter's result: the epoch's timing and its task trace
    /// (empty unless `trace`).
    fn run(&self, stats: &[Vec<BatchStats>], inference: bool, trace: bool) -> (EpochTime, Trace) {
        let opts = SimOpts {
            cost: self.cost,
            hidden_dim: self.spec.hidden_dim,
            depth: self.spec.pipeline_depth.max(1),
            inference,
            trace,
        };
        let r = simulate(&StageGraph::coarse(&self.spec), self.setup, stats, &opts);
        let time = EpochTime {
            makespan: r.makespan,
            rounds: r.rounds,
            startup: r.startup,
            breakdown: Breakdown::from(&r.busy),
        };
        (time, r.trace)
    }

    /// Simulates one epoch and returns its timing.
    pub fn simulate_epoch(&self, epoch: u64) -> EpochTime {
        let stats = measure_epoch(self.setup, self.spec.full_replication, epoch);
        self.run(&stats, false, false).0
    }

    /// Like [`EpochSim::simulate_epoch`] but also returns the task trace
    /// — `(machine resource name, stage label, start, end)` per task —
    /// for rendering Figure-1-style computation profiles.
    ///
    /// Ordering contract: the entries of one resource appear in the
    /// order they ran on it (start order); how entries of *different*
    /// resources interleave is unspecified, so group by resource name
    /// before relying on order.
    pub fn simulate_epoch_traced(&self, epoch: u64) -> (EpochTime, Trace) {
        let stats = measure_epoch(self.setup, self.spec.full_replication, epoch);
        self.run(&stats, false, true)
    }

    /// Simulates a minibatch-*inference* epoch over caller-supplied
    /// per-machine seed streams (e.g. validation or test vertices):
    /// forward pass only — no backward, no gradient all-reduce, no
    /// synchronous-SGD ordering between rounds (paper §2.4).
    pub fn simulate_inference_epoch(
        &self,
        streams: &[Vec<spp_graph::VertexId>],
        epoch: u64,
    ) -> EpochTime {
        let stats = measure_streams(self.setup, self.spec.full_replication, epoch, streams);
        self.run(&stats, true, false).0
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
        assert_eq!(t.breakdown.comm, 0.0);
        assert_eq!(t.breakdown.serve, 0.0);
        assert!(t.breakdown.allreduce > 0.0);
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
        assert!(t.makespan >= t.breakdown.train / 2.0 - 1e-9);
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
        assert_eq!(infer.breakdown.allreduce, 0.0);
        assert!(
            infer.makespan < train.makespan,
            "inference {} should beat training {}",
            infer.makespan,
            train.makespan
        );
        assert!(infer.breakdown.train < train.breakdown.train);
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
        assert_eq!(a.breakdown, b.breakdown);
    }
}
