//! Property tests for the execution-model layer: dominance of the overlap
//! models over the explicit baseline, exact equivalence of single-stream
//! execution, and feasibility under every model.
//!
//! The broken-claim tests at the bottom deliberately check false lemmas
//! ("duplex is never worse than two streams", "zero-efficiency implicit
//! overlap equals explicit transfers") and pin the minimal counterexamples
//! the shrinker reaches, so regressions in either the models or the
//! shrinker surface as readable witnesses.

use dts_core::feasibility::validate;
use dts_core::prelude::*;
use dts_core::testgen::{self, InstanceSpec};
use rand::prelude::*;

/// The seeded order the properties replay: a shuffle of the task ids, a
/// pure function of `(instance size, order_seed)` so failures shrink with
/// the instance.
fn seeded_order(instance: &Instance, order_seed: u64) -> Vec<TaskId> {
    let mut order = instance.task_ids();
    order.shuffle(&mut StdRng::seed_from_u64(order_seed));
    order
}

fn makespan_under(
    spec: &InstanceSpec,
    order_seed: u64,
    model: ExecutionModel,
) -> std::result::Result<Time, String> {
    let instance = spec
        .build()
        .with_model(model)
        .map_err(|e| format!("{model}: {e}"))?;
    let order = seeded_order(&instance, order_seed);
    let schedule = simulate_sequence(&instance, &order).map_err(|e| format!("{model}: {e}"))?;
    Ok(schedule.makespan(&instance))
}

microcheck::property! {
    /// A full-duplex link never lengthens a schedule: for any instance and
    /// any order, the duplex makespan is at most the explicit one.
    fn duplex_never_worse_than_explicit(
        (spec, order_seed) in (
            testgen::transfer_bound_instance_gen(1..=24),
            microcheck::gens::u64_in(0..=u64::MAX),
        ),
        cases = 120,
    ) {
        let explicit = makespan_under(&spec, order_seed, ExecutionModel::Explicit)?;
        let duplex = makespan_under(&spec, order_seed, ExecutionModel::Duplex)?;
        microcheck::prop_assert!(
            duplex <= explicit,
            "duplex {duplex} > explicit {explicit}"
        );
    }

    /// More streams never hurt either: for every `k >= 2`, the k-stream
    /// makespan is at most the explicit one.
    fn streams_never_worse_than_explicit(
        (spec, order_seed) in (
            testgen::transfer_bound_instance_gen(1..=24),
            microcheck::gens::u64_in(0..=u64::MAX),
        ),
        cases = 80,
    ) {
        let explicit = makespan_under(&spec, order_seed, ExecutionModel::Explicit)?;
        for k in [2usize, 3, 8] {
            let streams = makespan_under(&spec, order_seed, ExecutionModel::Streams { k })?;
            microcheck::prop_assert!(
                streams <= explicit,
                "streams:{k} {streams} > explicit {explicit}"
            );
        }
    }

    /// A single stream is not merely equal in makespan — it produces the
    /// byte-identical schedule of the explicit model, on both executors.
    fn single_stream_is_exactly_explicit(
        (spec, order_seed) in (
            testgen::transfer_bound_tie_heavy_instance_gen(1..=20),
            microcheck::gens::u64_in(0..=u64::MAX),
        ),
        cases = 120,
    ) {
        let instance = spec.build();
        let order = seeded_order(&instance, order_seed);
        let explicit = simulate_sequence(&instance, &order).map_err(|e| e.to_string())?;
        let one_stream = instance
            .with_model(ExecutionModel::Streams { k: 1 })
            .and_then(|one| simulate_sequence(&one, &order))
            .map_err(|e| e.to_string())?;
        microcheck::prop_assert_eq!(explicit.entries(), one_stream.entries());
    }

    /// Every model's schedules are feasible under that model: the link,
    /// the processing unit, precedence and the memory capacity, on both
    /// executors (the infinite-memory one against an unbounded capacity).
    fn all_models_respect_memory_feasibility(
        (spec, order_seed) in (
            testgen::transfer_bound_instance_gen(1..=24),
            microcheck::gens::u64_in(0..=u64::MAX),
        ),
        cases = 80,
    ) {
        let instance = spec.build();
        let order = seeded_order(&instance, order_seed);
        for model in [
            ExecutionModel::Explicit,
            ExecutionModel::Duplex,
            ExecutionModel::Streams { k: 1 },
            ExecutionModel::Streams { k: 3 },
            ExecutionModel::IMPLICIT_FULL,
            ExecutionModel::Implicit {
                efficiency: OverlapEfficiency::from_ppm(500_000).expect("half is in range"),
            },
        ] {
            let modeled = instance
                .clone()
                .with_model(model)
                .map_err(|e| format!("{model}: {e}"))?;
            let unbounded = modeled
                .with_capacity(MemSize::UNBOUNDED)
                .map_err(|e| format!("{model}: {e}"))?;
            for (executor, instance, schedule) in [
                ("bounded", &modeled, simulate_sequence(&modeled, &order)),
                ("unbounded", &unbounded, simulate_sequence_infinite(&unbounded, &order)),
            ] {
                let schedule = schedule.map_err(|e| format!("{model} {executor}: {e}"))?;
                let violations = validate(instance, &schedule);
                microcheck::prop_assert!(
                    violations.is_empty(),
                    "{model} {executor}: {violations:?}"
                );
            }
        }
    }
}

/// The false lemma "strict round-robin duplex is never worse than two
/// earliest-free streams" must fail — round-robin can park a short
/// transfer behind a long one while the other direction sits idle — and
/// shrink to the smallest witness of the transfer-bound domain: three
/// minimum-length transfers with one bumped to 9 units, so the third is
/// forced onto the busy channel. All memories shrink to one byte and the
/// capacity slack stays large enough (2) to keep memory out of the
/// picture.
#[test]
fn broken_duplex_beats_streams_claim_shrinks_to_the_round_robin_witness() {
    let gen = (
        testgen::transfer_bound_instance_gen(1..=16),
        microcheck::gens::u64_in(0..=u64::MAX),
    );
    let failure = microcheck::check(
        &microcheck::Config::default(),
        &gen,
        |(spec, order_seed)| {
            let duplex = makespan_under(spec, *order_seed, ExecutionModel::Duplex)?;
            let streams = makespan_under(spec, *order_seed, ExecutionModel::Streams { k: 2 })?;
            microcheck::prop_assert!(duplex <= streams, "duplex {duplex} > streams:2 {streams}");
            Ok(())
        },
    )
    .expect_err("round-robin duplex can lose to earliest-free streams");

    let (minimal, order_seed) = failure.minimal;
    // Still a counterexample after minimization...
    let duplex = makespan_under(&minimal, order_seed, ExecutionModel::Duplex).unwrap();
    let streams = makespan_under(&minimal, order_seed, ExecutionModel::Streams { k: 2 }).unwrap();
    assert!(
        duplex > streams,
        "minimal witness lost: {duplex} vs {streams}"
    );
    // ...and minimal: any two-transfer instance assigns one transfer per
    // direction under both policies, so three transfers are necessary, and
    // the round-robin penalty needs exactly one comm above the domain
    // minimum of 8.
    assert_eq!(minimal.tasks.len(), 3, "witness: {:?}", minimal.tasks);
    let mut comms: Vec<u64> = minimal.tasks.iter().map(|t| t.comm).collect();
    comms.sort_unstable();
    assert_eq!(comms, vec![8, 8, 9], "witness comms: {:?}", minimal.tasks);
    assert!(minimal.tasks.iter().all(|t| t.comp == 0 && t.mem == 1));
}

/// The false lemma "implicit overlap at zero efficiency equals the
/// explicit model" must fail — a fused transfer+compute phase cannot
/// overlap the next transfer with the previous computation the way the
/// explicit model does — and shrink to the smallest witness: two
/// minimum-length transfers where only the first computes (for one unit),
/// with one byte of capacity slack so the second transfer may start while
/// the first task still holds its memory.
#[test]
fn broken_zero_efficiency_implicit_claim_shrinks_to_the_overlap_witness() {
    let gen = (
        testgen::transfer_bound_instance_gen(1..=16),
        microcheck::gens::u64_in(0..=u64::MAX),
    );
    let failure = microcheck::check(
        &microcheck::Config::default(),
        &gen,
        |(spec, order_seed)| {
            let explicit = makespan_under(spec, *order_seed, ExecutionModel::Explicit)?;
            let fused = makespan_under(
                spec,
                *order_seed,
                ExecutionModel::Implicit {
                    efficiency: OverlapEfficiency::NONE,
                },
            )?;
            microcheck::prop_assert_eq!(explicit, fused);
            Ok(())
        },
    )
    .expect_err("zero-efficiency implicit overlap serializes what explicit overlaps");

    let (minimal, order_seed) = failure.minimal;
    let explicit = makespan_under(&minimal, order_seed, ExecutionModel::Explicit).unwrap();
    let fused = makespan_under(
        &minimal,
        order_seed,
        ExecutionModel::Implicit {
            efficiency: OverlapEfficiency::NONE,
        },
    )
    .unwrap();
    assert!(
        explicit < fused,
        "minimal witness lost: {explicit} vs {fused}"
    );
    assert_eq!(minimal.tasks.len(), 2, "witness: {:?}", minimal.tasks);
    let mut tasks = minimal.tasks.clone();
    tasks.sort_by_key(|t| std::cmp::Reverse(t.comp));
    assert_eq!(tasks[0].comm, 8);
    assert_eq!(
        tasks[0].comp, 1,
        "one task must compute: {:?}",
        minimal.tasks
    );
    assert_eq!(tasks[1].comm, 8);
    assert_eq!(tasks[1].comp, 0);
    assert!(minimal.tasks.iter().all(|t| t.mem == 1));
    assert_eq!(minimal.slack, 1, "slack must let the transfers overlap");
}

/// Both executors agree under every model (the infinite-memory executor on
/// instances whose capacity never binds).
#[test]
fn finite_and_infinite_executors_agree_when_memory_never_binds() {
    let mut rng = StdRng::seed_from_u64(31);
    for trial in 0..40 {
        let n = rng.gen_range(1..=15);
        let mut tasks = TaskTable::new();
        for i in 0..n {
            let task = Task::new(
                Time::units_int(rng.gen_range(0..=20)),
                Time::units_int(rng.gen_range(0..=20)),
                MemSize::from_bytes(rng.gen_range(1..=4)),
            );
            tasks.push(&format!("t{i}"), task);
        }
        // Capacity covers every task at once, so memory waits never occur.
        let instance = Instance::new(tasks, MemSize::from_bytes(4 * n as u64)).unwrap();
        let order = seeded_order(&instance, trial);
        for model in [
            ExecutionModel::Explicit,
            ExecutionModel::Duplex,
            ExecutionModel::Streams { k: 2 },
            ExecutionModel::IMPLICIT_FULL,
        ] {
            let modeled = instance.clone().with_model(model).unwrap();
            let finite = simulate_sequence(&modeled, &order).unwrap();
            let infinite = simulate_sequence_infinite(&modeled, &order).unwrap();
            assert_eq!(
                finite.entries(),
                infinite.entries(),
                "{model} diverges on trial {trial}"
            );
        }
    }
}
