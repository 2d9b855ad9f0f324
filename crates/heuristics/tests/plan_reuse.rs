//! One [`Plan`] reused across capacities, execution models and heuristics
//! must give the schedules of fresh [`run_heuristic`] calls.
//!
//! A plan shares its orders and candidate indexes between runs; a run that
//! mutated shared state (say, removed tasks from the plan's own index
//! instead of a copy) would change every later run. Each check therefore
//! visits all 14 heuristics × 9 capacity factors × 5 execution models in a
//! seeded shuffled order, so every heuristic runs after others that share
//! its structures, and compares each schedule (or error) with a fresh run
//! on the same instance. Each schedule must also be feasible under its
//! model.
//!
//! A plan accepts an instance whose task table is its own, shared (the
//! pointer check), or equal in another allocation (the full comparison);
//! the checks visit both.

use dts_chem::ccsd::generate_ccsd_trace;
use dts_chem::hf::generate_hf_trace;
use dts_chem::{SuiteConfig, Trace};
use dts_core::feasibility::validate;
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

/// The execution models every check visits (`streams:1` runs the
/// explicit model's schedules, see `model_equivalence.rs`).
fn models() -> [ExecutionModel; 5] {
    [
        ExecutionModel::Explicit,
        ExecutionModel::Duplex,
        ExecutionModel::Streams { k: 4 },
        ExecutionModel::IMPLICIT_FULL,
        ExecutionModel::parse("implicit:0.5").expect("valid model"),
    ]
}

/// Runs every (factor, model, heuristic) triple through one plan built
/// from `base`, in an order shuffled by `seed`, against fresh runs, and
/// checks each schedule feasible under its model. `at_factor` builds the
/// instance at a capacity factor; it must keep `base`'s tasks, in `base`'s
/// own table when `shared` and in an equal copy otherwise.
fn check_reuse(
    label: &str,
    base: &Instance,
    seed: u64,
    shared: bool,
    at_factor: impl Fn(f64) -> Instance,
) {
    let models = models();
    let instances: Vec<Vec<Instance>> = FACTORS
        .iter()
        .map(|&factor| {
            let scaled = at_factor(factor);
            assert_eq!(
                std::ptr::eq(scaled.tasks(), base.tasks()),
                shared,
                "{label}: table shared at {factor} x mc"
            );
            models
                .iter()
                .map(|&model| scaled.clone().with_model(model).expect("model is valid"))
                .collect()
        })
        .collect();
    let mut runs = Vec::new();
    for f in 0..FACTORS.len() {
        for m in 0..models.len() {
            for heuristic in Heuristic::ALL {
                runs.push((f, m, heuristic));
            }
        }
    }
    runs.shuffle(&mut StdRng::seed_from_u64(seed));

    let plan = Plan::new(base);
    for (f, m, heuristic) in runs {
        let instance = &instances[f][m];
        let fresh = run_heuristic(instance, heuristic);
        let at = format!(
            "{label}: {heuristic} at {} x mc under {}",
            FACTORS[f], models[m]
        );
        assert_eq!(
            plan.run(instance, heuristic),
            fresh,
            "{at} diverged from a fresh run"
        );
        if let Ok(schedule) = fresh {
            let violations = validate(instance, &schedule);
            assert!(violations.is_empty(), "{at}: {violations:?}");
        }
    }
}

fn check_trace(trace: &Trace, seed: u64) {
    let label = format!("{} rank {}", trace.kernel, trace.rank);
    let unbounded = trace
        .to_instance(MemSize::UNBOUNDED)
        .expect("paper traces convert");
    check_reuse(&label, &unbounded, seed, true, |factor| {
        trace
            .to_instance_scaled(factor)
            .expect("paper traces convert")
    });
}

/// `count` instances from `gen`, each checked at multiples of its own
/// largest task: rescaled from the plan's own table, then from an equal
/// copy of it.
fn check_generated(label: &str, gen: &testgen::InstanceGen, count: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for round in 0..count {
        let base = gen.generate(&mut rng).build();
        let copy = base
            .sub_instance(&base.task_ids())
            .expect("every task id is valid");
        for (source, shared) in [(&base, true), (&copy, false)] {
            let mc = source.min_capacity();
            check_reuse(
                &format!("{label} #{round} (shared {shared})"),
                &base,
                seed + round as u64,
                shared,
                |factor| {
                    source
                        .with_capacity(mc.scale(factor))
                        .expect("scaled capacity holds every task")
                },
            );
        }
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
    let u64_scale = testgen::instance_gen_with(
        testgen::task_gen(0..=3, 0..=3, u64::MAX - 3..=u64::MAX),
        1..=8,
        0..=3,
    );
    check_generated("u64-scale", &u64_scale, 6, 600);
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
    // Rescaling the other table shares it, and it is still refused.
    let rescaled = other
        .with_capacity(other.capacity().scale(2.0))
        .expect("more memory holds every task");
    assert!(std::ptr::eq(rescaled.tasks(), other.tasks()));
    for heuristic in Heuristic::ALL {
        assert_eq!(
            plan.run(&rescaled, heuristic).unwrap_err(),
            err,
            "{heuristic}"
        );
    }

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
