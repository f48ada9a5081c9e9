//! Per-module exploration reports and their text/JSON rendering.

use spp_telemetry::json::Json;

/// One invariant violation, with the scheduler trace that led to it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// What failed (assertion text, deadlock description, ...).
    pub message: String,
    /// Scheduler steps of the violating execution, oldest first
    /// (`t<tid> <op>` lines; locations use per-execution aliases).
    pub trace: Vec<String>,
    /// Index of the violating schedule within the module's exploration.
    pub schedule: u64,
}

/// What a module's exploration is expected to produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Production invariant harness: zero violations required.
    Clean,
    /// Mutation fixture with a seeded bug: at least one violation must
    /// be found within the schedule bound, or the checker is broken.
    Caught,
}

/// Result of exploring one module.
#[derive(Clone, Debug)]
pub struct ModuleReport {
    /// Module name (`telemetry-shards`, `mutant-weak-order`, ...).
    pub name: String,
    /// Expected outcome.
    pub expect: Expect,
    /// Completed (non-pruned) schedules explored.
    pub schedules: u64,
    /// Schedules cut short by sleep-set pruning (their behavior is
    /// equivalent to an already-explored schedule).
    pub pruned: u64,
    /// Total scheduled operations executed across all schedules — the
    /// explored-state count.
    pub states: u64,
    /// Deepest decision stack seen (scheduling + weak-memory choices).
    pub max_depth: usize,
    /// True when the schedule budget ran out before the tree was
    /// exhausted.
    pub truncated: bool,
    /// Violations found (capped; `violation_count` has the true total).
    pub violations: Vec<Violation>,
    /// Total violations found, including those beyond the cap.
    pub violation_count: u64,
}

/// At most this many violations keep their full trace per module.
pub const VIOLATION_CAP: usize = 3;

impl ModuleReport {
    /// An empty report for `name`.
    pub fn new(name: &str, expect: Expect) -> Self {
        Self {
            name: name.to_string(),
            expect,
            schedules: 0,
            pruned: 0,
            states: 0,
            max_depth: 0,
            truncated: false,
            violations: Vec::new(),
            violation_count: 0,
        }
    }

    /// Whether the module met its expectation.
    pub fn pass(&self) -> bool {
        match self.expect {
            Expect::Clean => self.violation_count == 0,
            Expect::Caught => self.violation_count > 0,
        }
    }

    /// One human-readable block.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let verdict = match (self.expect, self.pass()) {
            (Expect::Clean, true) => "ok (no violations)",
            (Expect::Clean, false) => "FAIL (invariant violated)",
            (Expect::Caught, true) => "ok (seeded bug caught)",
            (Expect::Caught, false) => "FAIL (seeded bug NOT caught)",
        };
        out.push_str(&format!(
            "{:<22} {:>7} schedules  {:>6} pruned  {:>8} states  depth {:<3} {}{}\n",
            self.name,
            self.schedules,
            self.pruned,
            self.states,
            self.max_depth,
            verdict,
            if self.truncated { " [truncated]" } else { "" },
        ));
        let shown = match self.expect {
            // A caught mutant prints its first counterexample (that is
            // the point of the fixture); a failing clean module prints
            // everything captured.
            Expect::Caught => usize::from(self.pass()),
            Expect::Clean => self.violations.len(),
        };
        for v in self.violations.iter().take(shown) {
            out.push_str(&format!(
                "    schedule {}: {}\n",
                v.schedule,
                v.message.replace('\n', " ")
            ));
            for step in &v.trace {
                out.push_str(&format!("      {step}\n"));
            }
        }
        out
    }

    /// One JSON object.
    pub fn to_json(&self) -> Json {
        let violations = self.violations.iter().map(|v| {
            Json::obj([
                ("schedule", v.schedule.into()),
                ("message", v.message.as_str().into()),
                ("trace", v.trace.iter().map(|s| s.as_str().into()).collect()),
            ])
        });
        let expect = match self.expect {
            Expect::Clean => "clean",
            Expect::Caught => "caught",
        };
        Json::obj([
            ("name", self.name.as_str().into()),
            ("expect", expect.into()),
            ("pass", self.pass().into()),
            ("schedules", self.schedules.into()),
            ("pruned", self.pruned.into()),
            ("states", self.states.into()),
            ("max_depth", self.max_depth.into()),
            ("truncated", self.truncated.into()),
            ("violation_count", self.violation_count.into()),
            ("violations", violations.collect()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_logic_follows_expectation() {
        let mut clean = ModuleReport::new("m", Expect::Clean);
        assert!(clean.pass());
        clean.violation_count = 1;
        assert!(!clean.pass());

        let mut mutant = ModuleReport::new("m", Expect::Caught);
        assert!(!mutant.pass());
        mutant.violation_count = 2;
        assert!(mutant.pass());
    }

    #[test]
    fn json_escapes_and_renders() {
        let mut r = ModuleReport::new("overlay-probe", Expect::Clean);
        r.schedules = 12;
        r.violations.push(Violation {
            message: "hits \"torn\"\nline2".to_string(),
            trace: vec!["t0 lock(m0)".to_string()],
            schedule: 7,
        });
        r.violation_count = 1;
        let j = r.to_json().to_string();
        assert!(j.contains("\\\"torn\\\"\\nline2"));
        let doc = spp_telemetry::json::parse(&j).unwrap();
        assert_eq!(doc.str_field("name"), Ok("overlay-probe"));
        assert_eq!(doc.field("pass"), Some(&Json::Bool(false)));
        assert_eq!(doc.uint_field::<u64>("schedules"), Ok(12));
        // Text render shows the trace of the failing schedule.
        let t = r.render_text();
        assert!(t.contains("schedule 7"));
        assert!(t.contains("t0 lock(m0)"));
    }
}
