//! The one place a sweep point becomes a data set, a deployment and a
//! simulated time. Rows name points; this module owns the
//! `SetupConfig`, the machine cost model, and a memo so that a point
//! shared by several rows (Table 1's ladder is Figure 4's papers
//! column) is partitioned, ranked and filled once per `--all`.

use spp_bench::{Cli, Workload};
use spp_core::policies::CachePolicy;
use spp_graph::Dataset;
use spp_partition::metrics::edge_cut_fraction;
use spp_runtime::{CostModel, DistributedSetup, EpochSim, SetupConfig, SystemSpec};
use spp_sampler::Fanouts;
use std::cell::RefCell;
use std::rc::Rc;

/// One deployment of a workload: what every sweep varies.
#[derive(Clone, Copy)]
pub struct Point {
    pub w: &'static Workload,
    /// Machines (= partitions).
    pub k: usize,
    /// Replication factor; 0 builds no cache whatever `policy` says.
    pub alpha: f64,
    /// Fraction of local features on the GPU.
    pub beta: f64,
    /// Cache ranking used when `alpha > 0`.
    pub policy: CachePolicy,
    /// VIP-order local vertices (false: Figure 6's "no reorder").
    pub reorder: bool,
    /// Sampling fanouts (the workload's, except for inference).
    pub fanouts: &'static [usize],
}

impl Point {
    /// `w` on `k` machines at replication factor `alpha` with `beta` of
    /// the local features on the GPU: VIP-analytic cache, VIP order, the
    /// workload's fanouts. The few sweeps that vary those override them.
    pub fn new(w: &'static Workload, k: usize, alpha: f64, beta: f64) -> Self {
        Self {
            w,
            k,
            alpha,
            beta,
            policy: CachePolicy::VipAnalytic,
            reorder: true,
            fanouts: w.fanouts,
        }
    }

    fn policy(&self) -> CachePolicy {
        if self.alpha == 0.0 {
            CachePolicy::None
        } else {
            self.policy
        }
    }

    fn key(&self) -> Key {
        (
            self.w.name,
            self.k,
            self.alpha.to_bits(),
            self.beta.to_bits(),
            self.policy(),
            self.reorder,
            self.fanouts,
        )
    }
}

type Key = (
    &'static str,
    usize,
    u64,
    u64,
    CachePolicy,
    bool,
    &'static [usize],
);

/// Feature bytes of the deployments the memo may keep alive (a
/// deployment holds ≈ 2.3× its data set's feature bytes). Sized so a
/// papers-sim ladder stays resident across rows at default scale while
/// at most two mag240-sim deployments do — what the widest single bin
/// (`fig4`) held before there was a memo.
const SETUP_MEMO_FEATURE_BYTES: usize = 256 << 20;

pub struct Ctx {
    pub cli: Cli,
    /// The A10G-testbed machine model every timing row runs under.
    pub cost: CostModel,
    datasets: RefCell<Vec<(&'static str, Rc<Dataset>)>>,
    /// Least recently used first.
    setups: RefCell<Vec<(Key, Rc<DistributedSetup>)>>,
}

impl Ctx {
    pub fn new(cli: Cli) -> Self {
        Self {
            cli,
            cost: CostModel::mini_calibrated(),
            datasets: RefCell::default(),
            setups: RefCell::default(),
        }
    }

    /// The workload's stand-in at the run's scale and seed.
    pub fn dataset(&self, w: &'static Workload) -> Rc<Dataset> {
        let mut memo = self.datasets.borrow_mut();
        if let Some((_, ds)) = memo.iter().find(|(name, _)| *name == w.name) {
            return Rc::clone(ds);
        }
        let ds = Rc::new((w.build)(self.cli.scale, self.cli.seed));
        memo.push((w.name, Rc::clone(&ds)));
        ds
    }

    pub fn config(&self, p: Point) -> SetupConfig {
        SetupConfig {
            num_machines: p.k,
            fanouts: Fanouts::new(p.fanouts.to_vec()),
            batch_size: p.w.batch,
            policy: p.policy(),
            alpha: p.alpha,
            beta: p.beta,
            vip_reorder: p.reorder,
            seed: self.cli.seed,
            ..SetupConfig::default()
        }
    }

    /// The deployment at `p`, built on first use.
    pub fn setup(&self, p: Point) -> Rc<DistributedSetup> {
        let key = p.key();
        let mut memo = self.setups.borrow_mut();
        let entry = match memo.iter().position(|(k, _)| *k == key) {
            Some(i) => memo.remove(i),
            None => {
                let built = DistributedSetup::build(&self.dataset(p.w), self.config(p));
                (key, Rc::new(built))
            }
        };
        let setup = Rc::clone(&entry.1);
        memo.push(entry);
        let held = |m: &[(Key, Rc<DistributedSetup>)]| -> usize {
            m.iter().map(|(_, s)| s.dataset.feature_bytes()).sum()
        };
        while memo.len() > 1 && held(&memo) > SETUP_MEMO_FEATURE_BYTES {
            memo.remove(0);
        }
        setup
    }

    /// Mean simulated epoch time of system `spec` on the deployment at `p`.
    pub fn mean_time(&self, p: Point, spec: SystemSpec, epochs: usize) -> f64 {
        EpochSim::new(&self.setup(p), self.cost, spec).mean_epoch_time(epochs)
    }

    /// Edge-cut fraction of the partitioning behind the deployment at `p`.
    pub fn edge_cut(&self, p: Point) -> f64 {
        edge_cut_fraction(&self.dataset(p.w).graph, &self.setup(p).partitioning)
    }
}
