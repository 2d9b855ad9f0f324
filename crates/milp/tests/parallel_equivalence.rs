//! Equivalence suite for the parallel window-size sweep of the `lp.k`
//! pipeline: it must produce the results (and the error) of solving each
//! window size on its own.

use dts_core::instances::{random_instance_decoupled_memory, table3, table5};
use dts_core::prelude::*;
use dts_milp::{lp_k, lp_k_sweep, LpKConfig, PARALLEL_SWEEP_MIN_TASKS};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn parallel_sweep_matches_per_size_runs() {
    // Large enough to cross PARALLEL_SWEEP_MIN_TASKS, so the sweep takes the
    // threaded path; the small paper fixtures exercise the sequential path.
    let mut rng = StdRng::seed_from_u64(11);
    let big = random_instance_decoupled_memory(&mut rng, PARALLEL_SWEEP_MIN_TASKS + 9, 1.25);
    for instance in [table3(), table5(), big] {
        let sweep = lp_k_sweep(&instance).unwrap();
        assert_eq!(sweep.len(), LpKConfig::PAPER_WINDOW_SIZES.len());
        for (i, &k) in LpKConfig::PAPER_WINDOW_SIZES.iter().enumerate() {
            assert_eq!(sweep[i].0, k, "sweep rows must stay in size order");
            let reference = lp_k(&instance, LpKConfig { window: k })
                .unwrap()
                .makespan(&instance);
            assert_eq!(sweep[i].1, reference, "lp.{k} on {}", instance.label);
        }
    }
}

#[test]
fn parallel_sweep_reports_the_earliest_failing_size() {
    // A malformed (deserialized) instance fails every window size with the
    // same error; the sweep must report it exactly like a sequential run.
    let json = format!(
        r#"{{
            "tasks": [{}],
            "capacity": 4,
            "label": "malformed"
        }}"#,
        (0..PARALLEL_SWEEP_MIN_TASKS + 1)
            .map(|i| format!(
                r#"{{"name": "t{i}", "comm_time": 1000, "comp_time": 1000, "mem": {}}}"#,
                if i == 3 { 9 } else { 2 }
            ))
            .collect::<Vec<_>>()
            .join(",")
    );
    let instance: Instance = serde_json::from_str(&json).unwrap();
    let parallel_err = lp_k_sweep(&instance).unwrap_err();
    let sequential_err = lp_k(&instance, LpKConfig { window: 3 }).unwrap_err();
    assert_eq!(parallel_err, sequential_err);
}
