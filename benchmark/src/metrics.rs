//! The metric tables (name and unit) and the result a run prints.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a unit
//! test keeps the two in step.

use std::collections::BTreeMap;

/// The five workloads, in the order `run.sh` runs them.
pub const WORKLOADS: &[&str] = &[
    "train_compute",
    "infer_gather",
    "dist_exchange",
    "serve_hot",
    "serve_cold",
];

/// End-to-end metrics: printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("targets_per_s", "targets/s"),
    ("cpu_ms_per_target", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: printed by every traced run. A metric that does
/// not apply to a workload reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.dataset_build_s", "s"),
    ("partition.partition_s", "s"),
    ("partition.edge_cut_ratio", "ratio"),
    ("core.vip_rank_s", "s"),
    ("core.plan_us_per_batch", "us"),
    ("core.serve_us_per_batch", "us"),
    ("core.gather_us_per_batch", "us"),
    ("core.gather_allocs_per_batch", "count"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.remote_rows_per_target", "count"),
    ("core.wire_reduction_vs_nocache", "ratio"),
    ("sampler.sample_us_per_batch", "us"),
    ("sampler.edges_per_s", "edges/s"),
    ("sampler.mfg_nodes_per_target", "count"),
    ("sampler.mfg_edges_per_target", "count"),
    ("sampler.sample_allocs_per_batch", "count"),
    ("store.build_s", "s"),
    ("store.gather_us_per_batch", "us"),
    ("store.inram_gather_us_per_batch", "us"),
    ("store.decode_melem_per_s", "Melem/s"),
    ("store.gather_allocs_per_batch", "count"),
    ("store.page_fault_ratio", "ratio"),
    ("gnn.forward_ms_per_batch", "ms"),
    ("gnn.backward_ms_per_batch", "ms"),
    ("gnn.infer_ms_per_batch", "ms"),
    ("gnn.forward_allocs_per_batch", "count"),
    ("gnn.backward_allocs_per_batch", "count"),
    ("gnn.mflop_per_target", "MFLOP"),
    ("gnn.final_loss", "loss"),
    ("tensor.adam_ms_per_batch", "ms"),
    ("tensor.gflops", "GFLOP/s"),
    ("tensor.tape_nodes_per_batch", "count"),
    ("comm.exchange_us_p50", "us"),
    ("comm.bytes_per_epoch", "bytes"),
    ("comm.grad_bytes_share", "ratio"),
    ("comm.wire_bytes_per_target", "bytes"),
    ("pool.dispatch_us_p50", "us"),
    ("runtime.setup_build_s", "s"),
    ("runtime.evaluate_ms", "ms"),
    ("runtime.pass_over_stage_sum", "ratio"),
    ("runtime.sim_epoch_virtual_ms", "ms"),
    ("runtime.sim_wall_ms", "ms"),
    ("serve.admit_us_per_batch", "us"),
    ("serve.overlay_probe_ns", "ns"),
    ("serve.overlay_insert_ns", "ns"),
    ("serve.overlay_hit_ratio", "ratio"),
    ("serve.static_hit_ratio", "ratio"),
    ("serve.evictions_per_target", "count"),
    ("serve.batch_size_mean", "count"),
    ("serve.rejected_share", "ratio"),
    ("serve.virtual_latency_ms_p50", "ms"),
    ("serve.virtual_latency_ms_p99", "ms"),
    ("serve.virtual_rps", "req/s"),
    ("serve.batch_allocs", "count"),
    ("serve.unattributed_share", "ratio"),
    ("telemetry.on_overhead_ratio", "ratio"),
    ("bench.passes", "count"),
    ("bench.pass_ms_p50", "ms"),
    ("bench.pass_ms_min", "ms"),
    ("bench.pass_ms_max", "ms"),
    ("bench.calib_ms_p50", "ms"),
    ("bench.calib_spread", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.stage_sum_ratio", "ratio"),
];

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name. The harness fills every name of the table
    /// the run reports; names a workload did not set read 0.
    pub values: BTreeMap<&'static str, f64>,
    /// Targets attempted over the timed passes.
    pub attempted: u64,
    /// Targets that failed: rejected requests, targets of a batch with a
    /// non-finite loss, targets of a pass whose output check failed.
    pub failed: u64,
    /// Output checks, `(what, held)`.
    pub checks: Vec<(String, bool)>,
}

impl Outcome {
    /// # Panics
    ///
    /// Panics if `name` is in neither metric table: every name printed
    /// must be one `BENCHMARK.json` lists.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not in a table");
        self.values.insert(name, value);
    }

    pub fn check(&mut self, held: bool, what: impl Into<String>) {
        self.checks.push((what.into(), held));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|&(_, ok)| ok)
    }

    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, with every metric of `table` and no other.
    pub fn result_json(&self, table: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(self.value(name))
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// A JSON number with all the digits measured; non-finite values (which
/// JSON cannot carry) read 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The unit of `name` in either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|&&(n, _)| n == name)
        .map(|&(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(name), "bad metric name {name:?}");
            assert!(unit_ok(unit), "bad unit {unit:?} for {name}");
            assert!(seen.insert(name), "metric {name} listed twice");
        }
        for &w in WORKLOADS {
            assert!(name_ok(w), "bad workload name {w:?}");
            assert!(seen.insert(w), "name {w} used twice");
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    /// The strings that follow `"key":` inside the top-level array
    /// `"section": [...]` of `BENCHMARK.json`. The file is flat enough
    /// (no nested arrays inside a section) that scanning to the section's
    /// closing bracket is exact.
    fn strings_in_section(json: &str, section: &str, key: &str) -> Vec<String> {
        let head = format!("\"{section}\"");
        let at = json.find(&head).unwrap_or_else(|| panic!("no {section}"));
        let body = &json[at + head.len()..];
        let body = &body[body.find('[').expect("section is an array") + 1..];
        let body = &body[..body.find(']').expect("array closes")];
        let needle = format!("\"{key}\"");
        let mut out = Vec::new();
        let mut rest = body;
        while let Some(i) = rest.find(&needle) {
            rest = &rest[i + needle.len()..];
            let open = rest.find('"').expect("string value") + 1;
            let close = open + rest[open..].find('"').expect("string closes");
            out.push(rest[open..close].to_string());
            rest = &rest[close + 1..];
        }
        out
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let pairs = |section: &str| -> Vec<(String, String)> {
            strings_in_section(&json, section, "name")
                .into_iter()
                .zip(strings_in_section(&json, section, "unit"))
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs("end_to_end"), own(END_TO_END));
        assert_eq!(pairs("per_layer"), own(PER_LAYER));
        assert_eq!(strings_in_section(&json, "workloads", "name"), WORKLOADS);
        for bound in strings_in_section(&json, "workloads", "why") {
            assert!(bound.len() <= 200 && !bound.contains('\n'));
        }
    }

    #[test]
    fn result_json_has_exactly_the_table() {
        let mut o = Outcome::default();
        o.set("setup_s", 1.5);
        o.set("targets_per_s", f64::NAN);
        o.attempted = 10;
        let line = o.result_json(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"targets_per_s\": {\"value\": 0, \"unit\": \"targets/s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        o.check(false, "x");
        assert!(o.result_json(END_TO_END).starts_with("{\"correct\": false"));
    }
}
