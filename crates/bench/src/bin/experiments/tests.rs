//! Table invariants, every shape predicate on a hand-written passing
//! and a hand-written failing `Curves`, and a two-row smoke run.

use crate::ctx::Ctx;
use crate::curves::{Curves, Grid};
use crate::{run_row, table, Row};
use spp_bench::report::fmt_secs;
use spp_bench::Cli;
use std::collections::HashSet;

/// One block per CSV, laid out as the CSV is (name in the corner, `-`
/// for a cell the experiment does not run, `;` between cells because
/// labels hold commas): curves on which every claim of the owning row
/// holds. Times are the --quick run's, in ms;
/// Figures 1 and 8 and the accuracy block are default scale, where their last claims apply, and so are the serving and
/// out-of-core store blocks (those rows' goldens).
const PASSING: &str = "\
fig1;epoch;CPU (sample/slice);PCIe copy;NIC (features);NIC (gradients);GPU (train)
partitioned (no pipeline, no cache);30.29;0.171;0.134;0.364;0.012;0.166
+ pipelining;12.99;0.325;0.272;1.000;0.028;0.323
+ VIP caching (SALIENT++);8.32;0.965;0.451;1.000;0.044;0.510

table1;K=1;K=2;K=4;K=8
SALIENT (full replication);13.09;7.02;3.82;2.20
+ Partitioned features;-;21.61;14.38;7.57
+ Pipeline communication;-;7.97;6.70;4.15
+ Feature caching;-;7.50;4.88;2.97

fig2_d;a=0.05;a=0.10;a=0.20;a=0.50;a=1.00
deg.;1.25;1.36;1.51;1.85;2.34
1-hop;1.25;1.36;1.52;1.90;2.24
wPR;1.27;1.39;1.59;2.08;2.94
#paths;1.25;1.35;1.50;1.78;2.14
sim.;1.23;1.32;1.43;1.70;1.96
VIP;1.28;1.41;1.62;2.18;3.15
oracle;1.31;1.50;1.84;4.26;95.21

table2_datasets;#vertices;#edges;#feat
products-sim;24000;429168;50
papers-sim;110000;932094;64
mag240-sim;60000;418368;384

fig4;products K=4;papers K=8;mag240 K=16
partitioned (no pipeline, no cache);14.47;7.57;5.39
+ pipelining;7.76;4.15;3.86
+ VIP caching (SALIENT++);6.94;2.97;2.91

fig5_time;K=2;K=4;K=8;K=16
products;8.63;6.92;4.49;3.04
papers;6.48;4.16;2.91;2.13
mag240;6.05;3.66;2.80;2.50

fig5_mem;K=2;K=4;K=8;K=16
products;1.16;1.16;1.16;1.16
papers;1.32;1.32;1.32;1.32
mag240;1.32;1.32;1.32;1.324

fig6;0%;10%;25%;50%;75%;90%
no reorder;5.08;5.05;5.02;4.99;4.90;4.84
VIP reorder;4.93;4.87;4.83;4.77;4.73;4.72

fig6_h2d;0%;10%;25%;50%;75%;90%
no reorder;2.83;2.66;2.43;1.99;1.56;1.30
VIP reorder;2.76;2.33;1.93;1.48;1.20;1.12

fig7;a=0;a=0.04;a=0.08;a=0.16;a=0.32
papers K=4;6.62;5.69;5.28;4.66;3.90
papers K=8;3.95;3.58;3.37;3.09;2.76
mag240 K=8;4.40;3.82;3.49;3.08;2.80
mag240 K=16;3.82;3.63;3.49;3.23;2.83

fig8;batch prep (comp);batch prep (comm);train (GPU);allreduce;startup;epoch
pipelining off a=0;4.42;11.74;4.42;0.35;1.57;29.06
pipelining off a=0.32;4.42;7.18;4.42;0.35;1.23;22.77
pipelining on a=0;4.42;11.74;4.42;0.35;1.57;12.93
pipelining on a=0.32;4.42;7.18;4.42;0.35;1.23;8.26

fig9;a=0;a=0.16;a=0.32;a=0.48;a=0.64
papers VIP (analytic);9.03;6.84;5.76;5.02;4.65
papers VIP (simulation);9.03;8.02;6.46;6.24;6.21
mag240 VIP (analytic);11.02;8.65;7.09;6.02;5.17
mag240 VIP (simulation);11.02;9.05;7.61;6.84;6.29

table4;time
SALIENT++;2.91
DistDGL-like;41.15

accuracy;dist val;dist test;single-machine test;paper test
products;1.000;1.000;1.000;0.785
papers;0.999;1.000;1.000;0.646
mag240;0.998;1.000;1.000;0.651

inference;train epoch;inference epoch;infer comm busy
no cache;12.69;16.87;13.09
VIP a=0.32;10.54;13.69;10.54

pipeline_depth;per-epoch time;vs depth=10
1;6.04;2.08
2;3.51;1.21
4;2.91;1.00
10;2.91;1.00

pipeline_stages;a=0;a=0.32
1 sample minibatch (CPU);674.9;674.9
2 all-to-all counts (NIC);375.0;375.0
3 metadata to CPU (PCIe);151.7;151.7
4 all-to-all node lists (NIC);413.2;399.4
5 map ids + D2H lists (PCIe);156.9;154.4
6 masked select + CPU slice;424.0;424.0
7 H2D sliced features (PCIe);773.3;773.3
8 GPU slice + combine (GPU);73.2;65.3
9 all-to-all features (NIC);2700.0;1840.0
10 combine + permute (GPU);136.7;136.7

partition_ablation;edge cut;no cache;VIP a=0.16;VIP a=0.32
random;0.736;56754;49210;43705
hash;0.875;58571;51102;45642
LDG;0.320;33252;26295;21948
multilevel;0.097;21318;16200;13709

hierarchical;intra-machine;inter-machine;weighted comm cost
flat 8-way;3663;23094;23460
hierarchical 4x2;3489;18481;18830

vip_partition_ablation;no cache;VIP cache a=0.16
multilevel;20717;15754
+ VIP re-homing;20640;15681

layerwise_vip;a=0.10;a=0.30;a=0.60
empirical layer-wise (sim.);1827;1819;1819
node-wise analytic VIP;1748;1557;1372

serving;requests;completed;rejected;req/s;p50 ms;p99 ms;p999 ms;makespan s
static-only;2000;2000;0;19895.36;0.6226;1.2452;1.2452;0.100526
two-tier;2000;2000;0;19895.20;0.6226;1.2452;1.2452;0.100527
two-tier f16 (equal RAM);2000;2000;0;19897.77;0.5898;1.2452;1.2452;0.100514

serving_cache;static rows;overlay rows;static hit;overlay hit;combined hit;evictions;bytes fetched;bytes/request
static-only;51;0;0.2562;0.0000;0.2562;0;1168200;584.1
two-tier;26;25;0.1556;0.1415;0.2971;5495;1104000;552.0
two-tier f16 (equal RAM);51;50;0.2562;0.3149;0.5711;3318;336800;168.4

serving_burstiness;p99 ms;combined hit
0;1.2452;0.2477
0.45;1.2452;0.2755
0.9;1.1796;0.4224

io_locality;bytes/epoch;pages faulted/epoch;pages read/epoch;fault rate;bytes vs vip
vip;754806784;184279;655861;0.280973;1.0000
random;937676800;228925;655861;0.349045;1.2423
";

/// `row id;claim index;grid;row;column;value` — that one cell, set to
/// `value` in the row's passing curves, breaks that claim.
const BREAKS: &str = "\
fig1;0;fig1;+ pipelining;epoch;31.0
fig1;1;fig1;+ VIP caching (SALIENT++);GPU (train);0.2
fig1;2;fig1;+ VIP caching (SALIENT++);NIC (features);0.9
table1;0;table1;+ Partitioned features;K=8;2.0
table1;1;table1;+ Pipeline communication;K=8;7.6
table1;2;table1;+ Feature caching;K=8;4.5
table1;3;table1;SALIENT (full replication);K=1;5.0
table1;4;table1;+ Pipeline communication;K=4;9.0
fig2;0;fig2_d;wPR;a=0.50;2.5
fig2;1;fig2_d;oracle;a=0.20;2.5
fig2;2;fig2_d;sim.;a=1.00;3.0
table2;0;table2_datasets;mag240-sim;#feat;128
fig4;0;fig4;+ VIP caching (SALIENT++);papers K=8;4.2
fig4;1;fig4;+ VIP caching (SALIENT++);products K=4;3.0
fig5;0;fig5_time;products;K=4;9.0
fig5;1;fig5_time;mag240;K=16;2.83
fig5;2;fig5_mem;papers;K=8;2.0
fig6;0;fig6_h2d;VIP reorder;10%;2.75
fig6;1;fig6_h2d;no reorder;10%;2.0
fig7;0;fig7;papers K=4;a=0.16;5.5
fig7;1;fig7;mag240 K=16;a=0.32;1.0
fig8;0;fig8;pipelining off a=0;batch prep (comm);4.0
fig8;1;fig8;pipelining on a=0;batch prep (comm);8.0
fig8;2;fig8;pipelining on a=0.32;epoch;13.0
fig8;3;fig8;pipelining on a=0.32;batch prep (comm);9.0
fig9;0;fig9;papers VIP (simulation);a=0.16;6.0
fig9;1;fig9;mag240 VIP (analytic);a=0.64;6.5
table4;0;table4;DistDGL-like;time;5.0
accuracy;0;accuracy;products;dist test;0.537
accuracy;1;accuracy;mag240;single-machine test;0.2
inference;0;inference;VIP a=0.32;infer comm busy;14.0
pipeline_depth;0;pipeline_depth;4;vs depth=10;1.2
pipeline_stages;0;pipeline_stages;7 H2D sliced features (PCIe);a=0;3000.0
pipeline_stages;1;pipeline_stages;6 masked select + CPU slice;a=0.32;500.0
partition_ablation;0;partition_ablation;multilevel;no cache;40000.0
partition_ablation;1;partition_ablation;LDG;VIP a=0.32;30000.0
hierarchical;0;hierarchical;hierarchical 4x2;weighted comm cost;30000.0
vip_partition_ablation;0;vip_partition_ablation;+ VIP re-homing;no cache;21000.0
layerwise_vip;0;layerwise_vip;node-wise analytic VIP;a=0.10;1900.0
layerwise_vip;1;layerwise_vip;empirical layer-wise (sim.);a=0.60;1500.0
serving;0;serving;two-tier f16 (equal RAM);rejected;1.0
serving;1;serving_cache;two-tier;combined hit;0.25
serving;2;serving_cache;two-tier f16 (equal RAM);overlay rows;40.0
serving;3;serving_burstiness;0.9;p99 ms;1.3
io_locality;0;io_locality;vip;pages faulted/epoch;300000.0
";

fn row(id: &str) -> &'static Row {
    table().find(|r| r.id == id).unwrap()
}

/// The passing curves of `row`: its CSVs' blocks of [`PASSING`] (a CSV
/// no claim reads, like Figure 2's per-fanout panels, has none).
fn passing(row: &Row) -> Curves {
    let block_of = |csv: &'static str| {
        let block = PASSING
            .split("\n\n")
            .find(|b| b.starts_with(&format!("{csv};")));
        let mut lines = block?.lines();
        let cols: Vec<&str> = lines.next().unwrap().split(';').skip(1).collect();
        let mut g = Grid::new(csv, csv, "", &cols, fmt_secs);
        for line in lines {
            let mut cells = line.split(';');
            let label = cells.next().unwrap();
            g.row(
                label,
                cells.map(|c| c.parse().unwrap_or(f64::NAN)).collect(),
            );
        }
        Some(g)
    };
    Curves::of(row.csv.iter().filter_map(|csv| block_of(csv)).collect())
}

#[test]
fn every_claim_holds_on_its_rows_passing_curves() {
    for r in table() {
        let c = passing(r);
        for s in r.shapes {
            let v = (s.check)(&c);
            assert!(v.is_ok(), "{} / {}: {v:?}", r.id, s.claim);
        }
    }
}

#[test]
fn every_claim_fails_on_a_curve_that_breaks_it() {
    let mut broken = HashSet::new();
    for line in BREAKS.lines() {
        let f: Vec<&str> = line.split(';').collect();
        let (id, claim, csv, label, col) = (f[0], f[1].parse::<usize>().unwrap(), f[2], f[3], f[4]);
        let mut c = passing(row(id));
        let g = c.grids.iter_mut().find(|g| g.csv == csv).unwrap();
        let j = g.col_index(col);
        g.rows.iter_mut().find(|(l, _)| l == label).unwrap().1[j] = f[5].parse().unwrap();
        let s = &row(id).shapes[claim];
        let v = (s.check)(&c);
        assert!(v.is_err(), "{id} / {}: {v:?}", s.claim);
        broken.insert((id, claim));
    }
    let claims: usize = table().map(|r| r.shapes.len()).sum();
    assert_eq!(broken.len(), claims, "a claim has no failing curve");
}

#[test]
fn a_rising_time_over_k_reports_the_edge_cuts_behind_it() {
    let mut c = passing(row("table1"));
    c.grids[0].rows[2].1[2] = 9.0;
    c.grids[0].cuts = vec![vec![f64::NAN, 0.053, 0.303, 0.088]; 4];
    let why = (row("table1").shapes[4].check)(&c).unwrap_err();
    let want =
        "+ Pipeline communication: K=2 7.97s -> K=4 9.00s [edge cut K=2 5.3%, K=4 30.3%, K=8 8.8%]";
    assert_eq!(why, want);
}

#[test]
fn table_invariants() {
    let ids: Vec<&str> = table().map(|r| r.id).collect();
    assert_eq!(
        ids.iter().collect::<HashSet<_>>().len(),
        ids.len(),
        "{ids:?}"
    );
    let csvs: Vec<&str> = table().flat_map(|r| r.csv.iter().copied()).collect();
    assert_eq!(
        csvs.iter().collect::<HashSet<_>>().len(),
        csvs.len(),
        "{csvs:?}"
    );
    for r in table() {
        assert!(!r.csv.is_empty() && !r.title.is_empty(), "{}", r.id);
        // No row is exempt from asserting something; a claim that only
        // default scale can carry says why.
        assert!(!r.shapes.is_empty(), "{} asserts nothing", r.id);
        for s in r.shapes {
            assert!(
                s.default_scale_only.is_none_or(|why| why.len() > 20),
                "{}",
                s.claim
            );
        }
    }
}

#[test]
fn grid_renders_unrun_cells_and_the_text_column() {
    let mut g = Grid::new("t", "t", "", &["K=1", "K=2"], fmt_secs);
    g.row("a", vec![f64::NAN, 0.002]);
    g.text.push(("notes", vec!["n".to_string()]));
    let rendered = g.table().render();
    let words = |i: usize| {
        rendered
            .lines()
            .nth(i)
            .unwrap()
            .split_whitespace()
            .collect::<Vec<_>>()
    };
    assert_eq!(words(1), ["K=1", "K=2", "notes"]);
    assert_eq!(words(3), ["a", "-", "2.00ms", "n"]);
}

#[test]
fn smoke_two_rows_end_to_end() {
    let cli = Cli::from_args(
        ["--scale", "0.05", "--epochs", "1", "table1", "fig7"].map(String::from),
        &["table1", "fig7"],
    );
    let ctx = Ctx::new(cli.unwrap());
    for id in &ctx.cli.ids {
        let r = row(id);
        let out = run_row(&ctx, r);
        let written: Vec<&str> = out.tables.iter().map(|(csv, _)| *csv).collect();
        assert_eq!(written, r.csv);
        assert!(
            out.tables.iter().all(|(_, t)| t.num_rows() == 4),
            "{}",
            out.text
        );
        let judged = ["  PASS  ", "  FAIL  ", "  SKIP  "].map(|s| out.text.matches(s).count());
        assert_eq!(judged.iter().sum::<usize>(), r.shapes.len(), "{}", out.text);
        assert_eq!(judged[1], out.failed);
    }
}
