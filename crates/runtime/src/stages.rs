//! One stage graph for the timing model: how a round is wired onto the
//! DES, and nothing else.
//!
//! A [`StageGraph`] is an ordered table of rows. Each row is one stage
//! of batch preparation or training as one machine runs it in one round:
//!
//! | field | meaning |
//! |---|---|
//! | label | the DES task label, [`PipelineStage::short`] of the stage it models — or [`SERVE`] / [`RPC`], the two rows only the coarse graph has |
//! | bills | the [`StageBusy`] slot its duration is added to (two rows may share one: `rpc` bills to the feature exchange) |
//! | resource | which of the machine's serial resources (`Res`: cpu, gpu, copy, nic, nic-grad, nic-ctl) runs it |
//! | cost | a closure over the machine's measured [`BatchStats`], the rows it serves to peers and the [`CostModel`], asked of every machine that has a batch or serves rows this round: `None` = the row does not run here, `Some(seconds)` = it does |
//! | deps | earlier rows it waits for (`Dep`, below) |
//!
//! Dependency kinds, resolved per machine and round:
//!
//! - `Own(i)` — this machine's row-`i` task, if it ran. A row
//!   that can be skipped is bypassed by also naming the rows before it:
//!   a task starts at the *latest* of its dependencies, so naming an
//!   ancestor of another dependency is harmless.
//! - `All(i)` — every machine's row-`i` task (an all-to-all
//!   cannot complete before every participant has produced its share).
//! - `OwnElseAll(i)` — this machine's row-`i` task, or every
//!   machine's when it has none (a machine that only serves this round
//!   still waits for the requesters).
//!
//! [`simulate`] interprets a table: per round it computes `served`,
//! walks the rows in table order and the machines in index order, and
//! submits each active row at one `submit` site, where its duration is
//! billed. Both tables end with the same two rows — the model step and
//! the gradient all-reduce (more than one machine trained, not
//! inference). Around the table the interpreter adds what every training
//! pipeline shares: the first row waits for the round `depth` back to
//! close (bounded batches in flight), the model step waits for the
//! previous round (synchronous SGD; dropped for inference), and a
//! machine's round closes at the last task it ran (an idle machine's
//! round therefore ends when it finishes serving).
//!
//! **Per-resource order is the invariant.** The DES is a list
//! scheduler: a task starts at `max(deps done, resource free)`, so start
//! times depend on the order tasks are submitted *to the same resource*
//! and on nothing else about submission order. Every resource belongs to
//! one machine, and row-major submission visits one machine's rows in
//! table order, so the table order *is* each resource's queue order.
//! Reordering rows that share a resource kind changes simulated times;
//! reordering rows that do not, cannot.

use crate::cost::{grad_bytes, CostModel};
use crate::setup::DistributedSetup;
use crate::systems::SystemSpec;
use crate::workload::BatchStats;
use spp_comm::{DesEngine, ResourceId, TaskId};
use spp_telemetry::stage::PipelineStage;
use Dep::{All, Own, OwnElseAll};
use PipelineStage as S;
use Res::{Cpu, Gpu, Nic, NicCtl, NicGrad, Pcie};

/// Label of the coarse graph's serving row: slicing done on behalf of
/// peers, the coarse model's own subdivision of Appendix-D stage 6.
pub const SERVE: &str = "serve";
/// Label of the coarse graph's per-hop sampling RPC row (DistDGL-like
/// baseline only); billed to the feature exchange.
pub const RPC: &str = "rpc";

/// A per-machine serial resource kind; machine `m`'s instance is
/// registered as `"{name}{m}"` (`cpu0`, `copy1`, `nic-grad0`, …).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Res {
    /// CPU: sampling and host-side slicing.
    Cpu,
    /// GPU compute stream.
    Gpu,
    /// PCIe copy engine.
    Pcie,
    /// NIC, feature payloads.
    Nic,
    /// Gradient all-reduces ride a separate NCCL stream; on their own
    /// resource a pending all-reduce (waiting on peers' GPUs) cannot
    /// falsely block the next round's feature exchange on the wire.
    NicGrad,
    /// Metadata all-to-alls (Appendix-D stages 2 and 4) ride their own
    /// NCCL channel; serializing them behind the payload transfers on
    /// one NIC resource would triple-count the per-message latency.
    NicCtl,
}

/// Resource name prefixes, indexed by `Res as usize`.
const RES_NAMES: [&str; 6] = ["cpu", "gpu", "copy", "nic", "nic-grad", "nic-ctl"];

/// A dependency of one row on an earlier row (by table index); see the
/// module docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dep {
    /// This machine's task, if it ran.
    Own(usize),
    /// Every machine's task.
    All(usize),
    /// This machine's task, or every machine's when it has none.
    OwnElseAll(usize),
}

/// What a row's cost closure sees for one machine in one round.
struct Ctx<'a> {
    /// The machine's batch this round (`None` once its stream ran out).
    batch: Option<&'a BatchStats>,
    /// Feature rows this machine serves to peers this round.
    served: usize,
    /// Machines that have a batch — and so train — this round.
    training: usize,
    /// Number of machines.
    k: usize,
    /// Hardware constants.
    cost: &'a CostModel,
    /// Model dims `[feature_dim, hidden…, classes]`.
    dims: &'a [usize],
    /// Gradient bytes one all-reduce moves.
    grad_bytes: f64,
    /// Forward-only epoch.
    inference: bool,
}

impl Ctx<'_> {
    /// Bytes of one f32 feature row (`dims[0]` is the feature dim).
    fn row_bytes(&self) -> f64 {
        4.0 * self.dims[0] as f64
    }
}

/// `None`: the row does not run on this machine this round.
type Cost = Box<dyn Fn(&Ctx<'_>) -> Option<f64>>;

struct Row {
    label: &'static str,
    slot: usize,
    res: Res,
    deps: Vec<Dep>,
    cost: Cost,
}

/// The label and billing slot of a row that models `stage`.
fn of(stage: PipelineStage) -> (&'static str, usize) {
    (stage.short(), stage.index())
}

/// An ordered stage table; see the module docs.
#[derive(Default)]
pub struct StageGraph {
    rows: Vec<Row>,
}

impl StageGraph {
    /// Appends a row carrying the given `(label, billing slot)` — [`of`]
    /// a stage for all but the two coarse-only rows — and returns its
    /// index.
    fn push_row(
        &mut self,
        (label, slot): (&'static str, usize),
        res: Res,
        deps: &[Dep],
        cost: impl Fn(&Ctx<'_>) -> Option<f64> + 'static,
    ) -> usize {
        self.rows.push(Row {
            label,
            slot,
            res,
            deps: deps.to_vec(),
            cost: Box::new(cost),
        });
        self.rows.len() - 1
    }

    /// The two rows that close both tables: the model step on the
    /// batch's features (`inputs`), then the gradient all-reduce across
    /// the machines that trained.
    fn train_and_allreduce(mut self, inputs: &[Dep]) -> Self {
        let train = self.push_row(of(S::Train), Gpu, inputs, |c| {
            let time = if c.inference {
                CostModel::infer_time
            } else {
                CostModel::train_time
            };
            c.batch.map(|s| time(c.cost, &s.layer_rows, c.dims))
        });
        self.push_row(of(S::AllReduce), NicGrad, &[All(train)], |c| {
            (c.batch.is_some() && c.training > 1 && !c.inference)
                .then(|| c.cost.allreduce_time(c.training, c.grad_bytes))
        });
        self
    }

    /// Every label [`simulate`] can emit for this graph.
    pub fn labels(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.rows.iter().map(|r| r.label)
    }

    /// The coarse graph behind Table 1 / Table 4 / Figures 4–9, the
    /// paper's Figure-1 profile lanes:
    ///
    /// | row | resource | runs when | duration | waits for |
    /// |---|---|---|---|---|
    /// | `rpc` (only if `rpc_per_hop > 0`) | nic | batch | `rpc_per_hop × hops` | — |
    /// | sample | cpu | batch | sample(edges) × `sample_slowdown` | own rpc |
    /// | `serve` | cpu | serves rows | slice(served) | all sample |
    /// | slice | cpu | batch, host rows | slice(local-cpu + cached) | own sample |
    /// | comm | nic | batch, sends or receives | exchange(out, in) + `comm_overhead` | own sample, all serve |
    /// | h2d | copy | batch, host or fetched rows | pcie(rows) | own slice, comm (else sample) |
    /// | train | gpu | batch | train (infer) time | own h2d (else slice, comm, sample) |
    /// | allreduce | nic-grad | trained with a peer | ring all-reduce | all train |
    ///
    /// `full_replication` needs no row of its own: the measured batches
    /// then have no remote rows, so `serve` and comm never run.
    pub fn coarse(spec: &SystemSpec) -> Self {
        let spec = *spec;
        let mut g = Self::default();
        let mut sample_deps = Vec::new();
        if spec.rpc_per_hop > 0.0 {
            let rpc = g.push_row((RPC, S::FeatureExchange.index()), Nic, &[], move |c| {
                c.batch
                    .map(|_| spec.rpc_per_hop * (c.dims.len() - 1) as f64)
            });
            sample_deps.push(Own(rpc));
        }
        let sample = g.push_row(of(S::Sample), Cpu, &sample_deps, move |c| {
            c.batch
                .map(|s| c.cost.sample_time(s.edges) * spec.sample_slowdown)
        });
        let serve = g.push_row((SERVE, StageBusy::SERVE_SLOT), Cpu, &[All(sample)], |c| {
            (c.served > 0).then(|| c.cost.slice_time(c.served, c.dims[0]))
        });
        let slice = g.push_row(of(S::HostSlice), Cpu, &[Own(sample)], |c| {
            let rows = c.batch.map_or(0, |s| s.local_cpu + s.cached);
            (rows > 0).then(|| c.cost.slice_time(rows, c.dims[0]))
        });
        let comm = g.push_row(
            of(S::FeatureExchange),
            Nic,
            &[Own(sample), All(serve)],
            move |c| {
                let s = c.batch?;
                // Features one way, 4-byte vertex ids the other.
                let (served, remote) = (c.served as f64, s.remote_total as f64);
                let out = served * c.row_bytes() + remote * 4.0;
                let inb = remote * c.row_bytes() + served * 4.0;
                (s.remote_total > 0 || c.served > 0)
                    .then(|| c.cost.exchange_time(out, inb) + spec.comm_overhead)
            },
        );
        let h2d = g.push_row(
            of(S::H2d),
            Pcie,
            &[Own(slice), Own(comm), Own(sample)],
            |c| {
                let s = c.batch?;
                let rows = s.local_cpu + s.cached + s.remote_total;
                (rows > 0).then(|| c.cost.pcie_time(rows as f64 * c.row_bytes()))
            },
        );
        g.train_and_allreduce(&[Own(h2d), Own(slice), Own(comm), Own(sample)])
    }

    /// The explicit Appendix-D pipeline. "Participates" = the machine
    /// has a batch or serves rows this round (one that does neither runs
    /// no row of either table):
    ///
    /// | # | row | resource | runs when | duration | waits for |
    /// |---|---|---|---|---|---|
    /// | 1 | sample: next sampled minibatch | cpu | batch | sample(edges) | — |
    /// | 2 | counts: all-to-all of send/receive counts | nic-ctl | participates | latency + software overhead | own 1, else all 1 |
    /// | 3 | meta: counts to the CPU to size tensors | copy | participates | pcie(64 B × K) | own 2 |
    /// | 4 | requests: all-to-all of requested ids, 4 B/vertex | nic-ctl | participates | exchange(ids out, ids in) | own 3, all 1 |
    /// | 5 | map: global→local ids, D2H of the request lists | copy | participates | pcie(ids in) | own 4 |
    /// | 6 | slice: background thread, masked selection + host slicing of served, local-CPU and cached rows | cpu | participates | slice(rows) + 10 µs | own 5, own 1 |
    /// | 7 | h2d: stage-6 output to the device | copy | participates | pcie(rows) | own 6 |
    /// | 8 | gpu_slice: slice GPU-resident rows, stage the payload | gpu | participates | device copy + 5 µs | own 7 |
    /// | 9 | comm: all-to-all of the feature payloads | nic | batch, sends or receives | exchange(out, in) | all 8 |
    /// | 10 | permute: combine and permute into MFG order | gpu | batch | 2 × device copy + 5 µs | own 9 (else 8) |
    /// | | train | gpu | batch | train time | own 10 |
    /// | | allreduce | nic-grad | trained with a peer | ring all-reduce | all train |
    pub fn appendix_d() -> Self {
        // GPU-side memory ops run ~20x faster than PCIe.
        let gpu_mem_rate = |c: &Ctx<'_>| c.cost.pcie_bytes_per_sec * 20.0;
        let host_rows = |c: &Ctx<'_>| c.served + c.batch.map_or(0, |s| s.local_cpu + s.cached);
        let mut g = Self::default();
        let s1 = g.push_row(of(S::Sample), Cpu, &[], |c| {
            c.batch.map(|s| c.cost.sample_time(s.edges))
        });
        let s2 = g.push_row(of(S::CountExchange), NicCtl, &[OwnElseAll(s1)], |c| {
            Some(c.cost.network.latency + c.cost.comm_software_overhead)
        });
        let s3 = g.push_row(of(S::MetaToHost), Pcie, &[Own(s2)], |c| {
            Some(c.cost.pcie_time(64.0 * c.k as f64))
        });
        // Requests can only arrive once every peer has sampled.
        let s4 = g.push_row(of(S::RequestExchange), NicCtl, &[Own(s3), All(s1)], |c| {
            let req_out = c.batch.map_or(0, |s| s.remote_total) as f64 * 4.0;
            Some(c.cost.exchange_time(req_out, c.served as f64 * 4.0))
        });
        let s5 = g.push_row(of(S::MapD2h), Pcie, &[Own(s4)], |c| {
            Some(c.cost.pcie_time(c.served as f64 * 4.0))
        });
        let s6 = g.push_row(of(S::HostSlice), Cpu, &[Own(s5), Own(s1)], move |c| {
            Some(c.cost.slice_time(host_rows(c), c.dims[0]) + 10e-6)
        });
        let s7 = g.push_row(of(S::H2d), Pcie, &[Own(s6)], move |c| {
            Some(c.cost.pcie_time(host_rows(c) as f64 * c.row_bytes()))
        });
        let s8 = g.push_row(of(S::GpuSlice), Gpu, &[Own(s7)], move |c| {
            let rows = c.batch.map_or(0, |s| s.local_gpu) + c.served;
            Some(rows as f64 * c.row_bytes() / gpu_mem_rate(c) + 5e-6)
        });
        // The payload exchange needs every serving machine's staged
        // output; a machine that neither sends nor receives skips it.
        let s9 = g.push_row(of(S::FeatureExchange), Nic, &[All(s8)], |c| {
            let out = c.served as f64 * c.row_bytes();
            let inb = c.batch?.remote_total as f64 * c.row_bytes();
            (out > 0.0 || inb > 0.0).then(|| c.cost.exchange_time(out, inb))
        });
        let s10 = g.push_row(of(S::CombinePermute), Gpu, &[Own(s9), Own(s8)], move |c| {
            let rows = c.batch?.layer_rows[0];
            Some(rows as f64 * c.row_bytes() * 2.0 / gpu_mem_rate(c) + 5e-6)
        });
        g.train_and_allreduce(&[Own(s10)])
    }
}

/// Busy seconds per stage, summed over machines and rounds: one slot per
/// [`PipelineStage`] plus one for the coarse graph's [`SERVE`] row
/// (always zero under the Appendix-D graph, whose stage 6 includes the
/// served rows).
///
/// Stage identity comes from [`PipelineStage`] — the same enum that
/// names telemetry spans and DES task labels — and the only writer is
/// [`simulate`]'s `submit` site, so simulator accounting, trace output
/// and metrics cannot drift apart.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StageBusy {
    busy: [f64; PipelineStage::COUNT + 1],
}

impl StageBusy {
    const SERVE_SLOT: usize = PipelineStage::COUNT;

    /// Busy seconds of `stage`.
    pub fn get(&self, stage: PipelineStage) -> f64 {
        self.busy[stage.index()]
    }

    /// Busy seconds of the coarse graph's [`SERVE`] row.
    pub fn serve(&self) -> f64 {
        self.busy[Self::SERVE_SLOT]
    }

    /// Total busy seconds.
    pub fn total(&self) -> f64 {
        self.busy.iter().sum()
    }
}

/// What [`simulate`] needs besides the table, the deployment and the
/// measured batches.
#[derive(Clone, Copy, Debug)]
pub struct SimOpts {
    /// Hardware constants.
    pub cost: CostModel,
    /// Hidden-layer width (sets GPU FLOPs and gradient bytes).
    pub hidden_dim: usize,
    /// Maximum rounds in flight per machine (1 = no pipelining).
    pub depth: usize,
    /// Forward only: no synchronous-SGD edge, no all-reduce.
    pub inference: bool,
    /// Record the task trace.
    pub trace: bool,
}

/// A task trace: `(resource name, label, start, end)` per task. One
/// resource's entries are in the order they ran on it; how entries of
/// different resources interleave is unspecified.
pub type Trace = Vec<(String, String, f64, f64)>;

/// The outcome of one simulated epoch.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Simulated wall-clock per-epoch time (slowest machine).
    pub makespan: f64,
    /// Rounds (distributed minibatches) in the epoch.
    pub rounds: usize,
    /// Completion time of the first round (pipeline fill).
    pub startup: f64,
    /// Busy seconds billed per stage at the `submit` site.
    pub busy: StageBusy,
    /// The DES's own `(resource name, busy seconds)` accounting.
    pub resources: Vec<(String, f64)>,
    /// The task trace; empty unless [`SimOpts::trace`].
    pub trace: Trace,
}

/// Runs one epoch of `graph` on `setup`'s deployment over the measured
/// per-machine, per-round batches `stats[machine][round]`; see the
/// module docs.
pub fn simulate(
    graph: &StageGraph,
    setup: &DistributedSetup,
    stats: &[Vec<BatchStats>],
    opts: &SimOpts,
) -> SimResult {
    let k = stats.len();
    let rounds = stats.iter().map(Vec::len).max().unwrap_or(0);
    let dims = setup.model_dims(opts.hidden_dim);
    let grad_bytes = grad_bytes(&dims, setup.config.batch_size);

    let mut des = DesEngine::new();
    if opts.trace {
        des.enable_trace();
    }
    // One resource per machine for each kind the graph names.
    let res: Vec<Vec<ResourceId>> = (0..RES_NAMES.len())
        .map(|kind| {
            let used = graph.rows.iter().any(|row| row.res as usize == kind);
            (0..if used { k } else { 0 })
                .map(|m| des.add_resource(&format!("{}{m}", RES_NAMES[kind])))
                .collect()
        })
        .collect();

    let mut busy = StageBusy::default();
    // done[r][m]: the synchronization point closing machine m's round r.
    let mut done: Vec<Vec<TaskId>> = Vec::with_capacity(rounds);
    let mut deps: Vec<TaskId> = Vec::new();
    for r in 0..rounds {
        // Rows each machine serves: what its peers fetch from it.
        let served: Vec<usize> = (0..k)
            .map(|owner| {
                (0..k)
                    .filter(|&j| j != owner)
                    .filter_map(|j| stats[j].get(r))
                    .map(|s| s.remote_per_owner[owner])
                    .sum()
            })
            .collect();
        let training = stats.iter().filter(|s| s.get(r).is_some()).count();
        // tasks[i * k + m]: row i's task on machine m this round, if it
        // ran; last[m]: the latest task machine m ran this round.
        let mut tasks: Vec<Option<TaskId>> = vec![None; graph.rows.len() * k];
        let mut last: Vec<Option<TaskId>> = vec![None; k];
        for (i, row) in graph.rows.iter().enumerate() {
            for m in 0..k {
                let batch = stats[m].get(r);
                if batch.is_none() && served[m] == 0 {
                    // Nothing to prepare and nothing to serve: the
                    // machine sits the round out.
                    continue;
                }
                let ctx = Ctx {
                    batch,
                    served: served[m],
                    training,
                    k,
                    cost: &opts.cost,
                    dims: &dims,
                    grad_bytes,
                    inference: opts.inference,
                };
                let Some(dur) = (row.cost)(&ctx) else {
                    continue;
                };
                deps.clear();
                let own = |j: usize| tasks[j * k + m];
                for &dep in &row.deps {
                    match dep {
                        Own(j) => deps.extend(own(j)),
                        OwnElseAll(j) if own(j).is_some() => deps.extend(own(j)),
                        All(j) | OwnElseAll(j) => deps.extend(tasks[j * k..][..k].iter().flatten()),
                    }
                }
                if i == 0 && r >= opts.depth {
                    deps.push(done[r - opts.depth][m]);
                }
                if row.slot == S::Train.index() && r > 0 && !opts.inference {
                    // Synchronous SGD: step r-1 must be applied first.
                    deps.push(done[r - 1][m]);
                }
                // The one place a task enters the DES and is billed.
                let t = des.submit_labeled(res[row.res as usize][m], dur, &deps, row.label);
                busy.busy[row.slot] += dur;
                tasks[i * k + m] = Some(t);
                last[m] = Some(t);
            }
        }
        done.push(last.iter().map(|t| des.join(t.as_slice())).collect());
    }
    let startup = done.first().map_or(0.0, |first| {
        first.iter().map(|&t| des.completion(t)).fold(0.0, f64::max)
    });

    let name = |id| des.resource_name(id).to_string();
    let resources = res
        .iter()
        .flatten()
        .map(|&id| (name(id), des.busy_time(id)))
        .collect();
    let trace = des
        .trace()
        .iter()
        .map(|e| (name(e.resource), e.label.clone(), e.start, e.end))
        .collect();
    SimResult {
        makespan: des.makespan(),
        rounds,
        startup,
        busy,
        resources,
        trace,
    }
}
