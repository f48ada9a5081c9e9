//! Property-based tests for the DES engine and network models.

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp
)]

use proptest::prelude::*;
use spp_comm::{DesEngine, NetworkModel};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn des_invariants_hold_for_random_task_graphs(
        num_resources in 1usize..5,
        tasks in prop::collection::vec((0usize..5, 0.0f64..0.01, 0usize..8), 1..60),
    ) {
        let mut des = DesEngine::new();
        let resources: Vec<_> = (0..num_resources)
            .map(|i| des.add_resource(&format!("r{i}")))
            .collect();
        let mut ids = Vec::new();
        let mut total = 0.0f64;
        for (ri, dur, ndeps) in tasks {
            let r = resources[ri % num_resources];
            // Dependencies: a sample of previously submitted tasks.
            let deps: Vec<_> = ids
                .iter()
                .rev()
                .take(ndeps.min(ids.len()))
                .copied()
                .collect();
            let t = des.submit(r, dur, &deps);
            total += dur;
            // Completion respects duration and dependencies.
            prop_assert!(des.completion(t) >= des.start(t));
            prop_assert!((des.completion(t) - des.start(t) - dur).abs() < 1e-12);
            for &d in &deps {
                prop_assert!(des.start(t) >= des.completion(d) - 1e-12);
            }
            ids.push(t);
        }
        // Makespan bounded below by the busiest resource and above by the
        // serial sum.
        let busiest = resources
            .iter()
            .map(|&r| des.busy_time(r))
            .fold(0.0f64, f64::max);
        prop_assert!(des.makespan() >= busiest - 1e-12);
        prop_assert!(des.makespan() <= total + 1e-12);
        for &r in &resources {
            let u = des.utilization(r);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&u));
        }
    }

    #[test]
    fn transfer_time_monotone_in_bytes(
        bw in 1.0f64..1e12,
        lat in 0.0f64..1.0,
        a in 0.0f64..1e9,
        b in 0.0f64..1e9,
    ) {
        let net = NetworkModel::new(bw, lat);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(net.transfer_time(lo) <= net.transfer_time(hi) + 1e-12);
        prop_assert!(net.transfer_time(lo) >= lat);
    }
}

#[test]
fn machine_panic_propagates() {
    // Failure injection: a panicking machine must fail the whole run, not
    // silently hang or drop its result.
    let result = std::panic::catch_unwind(|| {
        spp_comm::run_machines(3, |rank| {
            if rank == 1 {
                panic!("injected failure");
            }
            rank
        })
    });
    assert!(result.is_err(), "panic must propagate to the caller");
}
