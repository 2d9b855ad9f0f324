//! One [`Plan`] reused across capacities, execution models and heuristics
//! must give the schedules of fresh [`run_heuristic`] calls.
//!
//! A plan shares its orders and candidate indexes between runs; a run that
//! mutated shared state (say, removed tasks from the plan's own index
//! instead of a copy) would change every later run. Each check therefore
//! visits all 14 heuristics × 9 capacity factors × 4 execution models in a
//! seeded shuffled order, so every heuristic runs after others that share
//! its structures, and compares each schedule (or error) with a fresh run
//! on the same instance.

use dts_chem::ccsd::generate_ccsd_trace;
use dts_chem::hf::generate_hf_trace;
use dts_chem::{SuiteConfig, Trace};
use dts_core::instances::{table4, table5};
use dts_core::prelude::*;
use dts_core::testgen;
use dts_heuristics::{run_heuristic, Heuristic, Plan};
use microcheck::Gen;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The paper's capacity sweep: `mc` to `2·mc` in steps of `0.125·mc`.
const FACTORS: [f64; 9] = [1.0, 1.125, 1.25, 1.375, 1.5, 1.625, 1.75, 1.875, 2.0];

const MODELS: [ExecutionModel; 4] = [
    ExecutionModel::Explicit,
    ExecutionModel::Duplex,
    ExecutionModel::Streams { k: 4 },
    ExecutionModel::IMPLICIT_FULL,
];

/// Runs every (factor, model, heuristic) triple through one plan built
/// from `base`, in an order shuffled by `seed`, against fresh runs.
/// `at_factor` builds the instance at a capacity factor; it must keep
/// `base`'s tasks.
fn check_reuse(label: &str, base: &Instance, seed: u64, at_factor: impl Fn(f64) -> Instance) {
    let instances: Vec<Vec<Instance>> = FACTORS
        .iter()
        .map(|&factor| {
            let scaled = at_factor(factor);
            MODELS
                .iter()
                .map(|&model| scaled.clone().with_model(model).expect("model is valid"))
                .collect()
        })
        .collect();
    let mut runs = Vec::new();
    for f in 0..FACTORS.len() {
        for m in 0..MODELS.len() {
            for heuristic in Heuristic::ALL {
                runs.push((f, m, heuristic));
            }
        }
    }
    runs.shuffle(&mut StdRng::seed_from_u64(seed));

    let plan = Plan::new(base);
    for (f, m, heuristic) in runs {
        let instance = &instances[f][m];
        assert_eq!(
            plan.run(instance, heuristic),
            run_heuristic(instance, heuristic),
            "{label}: {heuristic} at {} x mc under {} diverged from a fresh run",
            FACTORS[f],
            MODELS[m],
        );
    }
}

fn check_trace(trace: &Trace, seed: u64) {
    let label = format!("{} rank {}", trace.kernel, trace.rank);
    let unbounded = trace
        .to_instance(MemSize::UNBOUNDED)
        .expect("paper traces convert");
    check_reuse(&label, &unbounded, seed, |factor| {
        trace
            .to_instance_scaled(factor)
            .expect("paper traces convert")
    });
}

/// `count` instances from `gen`, each checked at multiples of its own
/// largest task.
fn check_generated(label: &str, gen: &testgen::InstanceGen, count: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for round in 0..count {
        let base = gen.generate(&mut rng).build();
        let mc = base.min_capacity();
        check_reuse(
            &format!("{label} #{round}"),
            &base,
            seed + round as u64,
            |factor| {
                base.with_capacity(mc.scale(factor))
                    .expect("scaled capacity holds every task")
            },
        );
    }
}

#[test]
fn paper_hf_ranks_reuse_one_plan() {
    let suite = SuiteConfig::default();
    for rank in [0, 41, 97, 149] {
        let trace = generate_hf_trace(&suite.hf, suite.topology, suite.transfer, suite.cost, rank);
        check_trace(&trace, 100 + rank as u64);
    }
}

#[test]
fn paper_ccsd_ranks_reuse_one_plan() {
    let suite = SuiteConfig::default();
    for rank in [0, 23, 88, 149] {
        let trace = generate_ccsd_trace(
            &suite.ccsd,
            suite.topology,
            suite.transfer,
            suite.cost,
            rank,
        );
        check_trace(&trace, 200 + rank as u64);
    }
}

#[test]
fn generated_instances_reuse_one_plan() {
    check_generated("default", &testgen::instance_gen(1..=60), 6, 300);
    let tie_heavy = testgen::instance_gen_with(testgen::tie_heavy_task_gen(), 1..=60, 0..=8);
    check_generated("tie-heavy", &tie_heavy, 6, 400);
    let transfer_bound = testgen::transfer_bound_instance_gen(1..=60);
    check_generated("transfer-bound", &transfer_bound, 6, 500);
}

#[test]
fn another_task_table_is_refused() {
    let instance = table5();
    let plan = Plan::new(&instance);
    let other = table4();
    let err = plan.run(&other, Heuristic::OOMAMR).unwrap_err();
    assert_eq!(
        err,
        CoreError::TaskTableMismatch {
            expected: 5,
            got: 4
        }
    );
    assert_eq!(plan.static_order(&other, Heuristic::GG).unwrap_err(), err);

    // Same length, one task's memory changed: still another table.
    let mut builder = InstanceBuilder::new().capacity(instance.capacity());
    for (id, task) in instance.iter() {
        let mem = if id.index() == 2 {
            task.mem.bytes() - 1
        } else {
            task.mem.bytes()
        };
        let task = Task {
            mem: MemSize::from_bytes(mem),
            ..*task
        };
        builder = builder.task(instance.name(id), task);
    }
    let edited = builder.build().unwrap();
    for heuristic in Heuristic::ALL {
        assert_eq!(
            plan.run(&edited, heuristic).unwrap_err(),
            CoreError::TaskTableMismatch {
                expected: 5,
                got: 5
            },
            "{heuristic}"
        );
    }
}

#[test]
fn names_play_no_part_in_the_table() {
    let instance = table5();
    let plan = Plan::new(&instance);
    let mut builder = InstanceBuilder::new().capacity(instance.capacity());
    for (id, task) in instance.iter() {
        builder = builder.task(&format!("renamed-{}", id.index()), *task);
    }
    let renamed = builder.build().unwrap();
    for heuristic in Heuristic::ALL {
        assert_eq!(
            plan.run(&renamed, heuristic),
            run_heuristic(&renamed, heuristic),
            "{heuristic}"
        );
    }
}
