//! Equivalence suite: the incremental engine must produce byte-identical
//! schedules to the original full-rescan implementation.
//!
//! The reference model below is a line-for-line port of the seed engine
//! (`active: Vec<(Time, MemSize)>` rescanned in full by every memory query,
//! `Vec::remove(0)`/`retain` pending sets). The production engine replaced
//! those with a running `held` counter, a pruned release queue and
//! swap-removal; these tests pin the refactor to the exact seed behavior on
//! the paper fixtures (Tables 3–5 / Figs. 4–6) and on seeded random
//! instances.

use dts_core::instances::{
    random_instance, random_instance_decoupled_memory, table3, table4, table5, RandomInstanceConfig,
};
use dts_core::prelude::*;
use dts_flowshop::johnson::johnson_order;
use dts_heuristics::corrected::run_corrected;
use dts_heuristics::{run_heuristic, Heuristic, SelectionCriterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The seed implementation of `EngineState`, kept verbatim as the oracle.
mod reference {
    use dts_core::prelude::*;

    pub struct EngineState {
        pub link_free: Time,
        pub cpu_free: Time,
        active: Vec<(Time, MemSize)>,
        capacity: MemSize,
        pub schedule: Schedule,
    }

    impl EngineState {
        pub fn new(instance: &Instance) -> Self {
            EngineState {
                link_free: Time::ZERO,
                cpu_free: Time::ZERO,
                active: Vec::new(),
                capacity: instance.capacity(),
                schedule: Schedule::with_capacity(instance.len()),
            }
        }

        pub fn held_at(&self, t: Time) -> MemSize {
            self.active
                .iter()
                .filter(|(end, _)| *end > t)
                .map(|(_, mem)| *mem)
                .sum()
        }

        pub fn fits_at(&self, task: &Task, t: Time) -> bool {
            self.held_at(t).saturating_add(task.mem) <= self.capacity
        }

        pub fn induced_cpu_idle(&self, task: &Task, t: Time) -> Time {
            (t + task.comm_time).saturating_sub(self.cpu_free)
        }

        pub fn next_release_after(&self, t: Time) -> Option<Time> {
            self.active
                .iter()
                .map(|(end, _)| *end)
                .filter(|end| *end > t)
                .min()
        }

        pub fn commit(&mut self, instance: &Instance, id: TaskId, t: Time) -> Time {
            let task = instance.task(id);
            let comm_start = t;
            let comm_end = comm_start + task.comm_time;
            let comp_start = comm_end.max(self.cpu_free);
            let comp_end = comp_start + task.comp_time;
            self.link_free = comm_end;
            self.cpu_free = comp_end;
            self.active.push((comp_end, task.mem));
            self.schedule.push(ScheduleEntry {
                task: id,
                comm_start,
                comp_start,
            });
            comp_end
        }
    }

    pub fn filter_minimum_cpu_idle(
        instance: &Instance,
        state: &EngineState,
        candidates: &[TaskId],
        t: Time,
    ) -> Vec<TaskId> {
        let min_idle = candidates
            .iter()
            .map(|&id| state.induced_cpu_idle(instance.task(id), t))
            .min();
        match min_idle {
            None => Vec::new(),
            Some(min) => candidates
                .iter()
                .copied()
                .filter(|&id| state.induced_cpu_idle(instance.task(id), t) == min)
                .collect(),
        }
    }

    pub fn run_dynamic(
        instance: &Instance,
        criterion: dts_heuristics::SelectionCriterion,
    ) -> Schedule {
        let mut state = EngineState::new(instance);
        let mut remaining: Vec<TaskId> = instance.task_ids();
        let mut now = Time::ZERO;
        while !remaining.is_empty() {
            now = now.max(state.link_free);
            let fitting: Vec<TaskId> = remaining
                .iter()
                .copied()
                .filter(|id| state.fits_at(instance.task(*id), now))
                .collect();
            if fitting.is_empty() {
                now = state
                    .next_release_after(now)
                    .expect("reference: some task holds memory");
                continue;
            }
            let best_idle = filter_minimum_cpu_idle(instance, &state, &fitting, now);
            let chosen = criterion
                .choose(instance, &best_idle)
                .expect("reference: candidates are non-empty");
            state.commit(instance, chosen, now);
            remaining.retain(|id| *id != chosen);
        }
        state.schedule
    }

    pub fn run_corrected_with_order(
        instance: &Instance,
        order: &[TaskId],
        selection: dts_heuristics::SelectionCriterion,
    ) -> Schedule {
        let mut state = EngineState::new(instance);
        let mut pending: Vec<TaskId> = order.to_vec();
        let mut now = Time::ZERO;
        while !pending.is_empty() {
            now = now.max(state.link_free);
            let next = pending[0];
            if state.fits_at(instance.task(next), now) {
                state.commit(instance, next, now);
                pending.remove(0);
                continue;
            }
            let fitting: Vec<TaskId> = pending
                .iter()
                .copied()
                .filter(|id| state.fits_at(instance.task(*id), now))
                .collect();
            if fitting.is_empty() {
                now = state
                    .next_release_after(now)
                    .expect("reference: some task holds memory");
                continue;
            }
            let best_idle = filter_minimum_cpu_idle(instance, &state, &fitting, now);
            let chosen = selection
                .choose(instance, &best_idle)
                .expect("reference: candidates are non-empty");
            state.commit(instance, chosen, now);
            pending.retain(|id| *id != chosen);
        }
        state.schedule
    }
}

const SELECTIONS: [SelectionCriterion; 3] = [
    SelectionCriterion::LargestCommunication,
    SelectionCriterion::SmallestCommunication,
    SelectionCriterion::MaximumAcceleration,
];

/// The dynamic heuristic that breaks ties by `criterion`.
fn dynamic(criterion: SelectionCriterion) -> Heuristic {
    match criterion {
        SelectionCriterion::LargestCommunication => Heuristic::LCMR,
        SelectionCriterion::SmallestCommunication => Heuristic::SCMR,
        SelectionCriterion::MaximumAcceleration => Heuristic::MAMR,
    }
}

/// Asserts that both engines produce the exact same schedule (same comm and
/// comp orders and instants, hence the same makespan) on `instance`.
fn assert_engines_agree(instance: &Instance, context: &str) {
    for criterion in SELECTIONS {
        let new = run_heuristic(instance, dynamic(criterion)).expect("dynamic heuristic runs");
        let old = reference::run_dynamic(instance, criterion);
        assert_eq!(new, old, "dynamic {criterion:?} diverged on {context}");
    }
    for criterion in SELECTIONS {
        let johnson = johnson_order(instance);
        let new = run_corrected(instance, &johnson, criterion).expect("corrected heuristic runs");
        let old = reference::run_corrected_with_order(instance, &johnson, criterion);
        assert_eq!(new, old, "corrected {criterion:?} diverged on {context}");

        // Also exercise a non-Johnson precomputed order (submission order).
        let submission = instance.task_ids();
        let new = run_corrected(instance, &submission, criterion)
            .expect("corrected-with-order heuristic runs");
        let old = reference::run_corrected_with_order(instance, &submission, criterion);
        assert_eq!(
            new, old,
            "corrected {criterion:?} on submission order diverged on {context}"
        );
    }
}

#[test]
fn engines_agree_on_paper_fixtures() {
    for instance in [table3(), table4(), table5()] {
        assert_engines_agree(&instance, &instance.label.clone());
    }
}

#[test]
fn engines_agree_on_seeded_random_instances() {
    // ≥ 50 instances over a grid of sizes and capacity tightness, both with
    // paper-convention memory (mem = comm volume) and decoupled memory.
    let mut count = 0;
    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        for n_tasks in [1usize, 2, 5, 12, 30] {
            for factor in [1.0, 1.2, 1.6] {
                let coupled = random_instance(
                    &mut rng,
                    RandomInstanceConfig {
                        n_tasks,
                        capacity_factor: factor,
                        ..Default::default()
                    },
                );
                assert_engines_agree(&coupled, &format!("coupled seed={seed} n={n_tasks}"));
                let decoupled = random_instance_decoupled_memory(&mut rng, n_tasks, factor);
                assert_engines_agree(&decoupled, &format!("decoupled seed={seed} n={n_tasks}"));
                count += 2;
            }
        }
    }
    assert!(count >= 50, "the suite must cover at least 50 instances");
}

#[test]
fn engines_agree_on_tie_heavy_instances() {
    // Tiny value domains force many tasks to share communication times,
    // acceleration ratios and memory footprints, so the id tie-breaking of
    // the memory-indexed candidate selection is the only thing separating
    // candidates. Zero-communication tasks (infinite ratio, and ratio 1 for
    // zero-comm/zero-comp tasks) are included on purpose.
    let mut rng = StdRng::seed_from_u64(7777);
    for round in 0..40 {
        let n = rng.gen_range(1usize..=16);
        let capacity = rng.gen_range(4u64..=8);
        let mut builder = dts_core::InstanceBuilder::new()
            .capacity(MemSize::from_bytes(capacity))
            .label(format!("tie-heavy-{round}"));
        for i in 0..n {
            builder = builder.task(
                &format!("t{i}"),
                Task::new(
                    Time::units_int(rng.gen_range(0..=2u64)),
                    Time::units_int(rng.gen_range(0..=2u64)),
                    MemSize::from_bytes(rng.gen_range(0..=4u64)),
                ),
            );
        }
        let instance = builder.build().expect("mem <= 4 fits capacity >= 4");
        assert_engines_agree(&instance, &format!("tie-heavy round {round}"));
    }
}

#[test]
fn engines_agree_on_transfer_bound_instances() {
    // The adversarial domains of the execution-model layer: communication
    // dominates computation (so the link is the bottleneck) and capacity
    // slack is tight. The explicit engine must still match the seed
    // reference exactly on them — the model-aware commit rule may not
    // perturb the pinned baseline.
    use microcheck::Gen;

    let mut rng = StdRng::seed_from_u64(4242);
    let transfer_bound = dts_core::testgen::transfer_bound_instance_gen(1..=20);
    let tie_heavy = dts_core::testgen::transfer_bound_tie_heavy_instance_gen(1..=20);
    for round in 0..30 {
        let instance = transfer_bound.generate(&mut rng).build();
        assert_engines_agree(&instance, &format!("transfer-bound round {round}"));
        let instance = tie_heavy.generate(&mut rng).build();
        assert_engines_agree(
            &instance,
            &format!("transfer-bound tie-heavy round {round}"),
        );
    }
}

#[test]
fn sequence_executor_agrees_with_reference_on_random_orders() {
    // `simulate_sequence` swapped its front-popped Vec for a VecDeque; replay
    // shuffled orders against a naive full-scan executor.
    use rand::prelude::SliceRandom;

    fn naive_simulate(instance: &Instance, order: &[TaskId]) -> Schedule {
        let capacity = instance.capacity();
        let mut schedule = Schedule::with_capacity(order.len());
        let mut link_free = Time::ZERO;
        let mut cpu_free = Time::ZERO;
        let mut active: Vec<(Time, u64)> = Vec::new();
        for &id in order {
            let task = instance.task(id);
            let need = task.mem.bytes();
            let mut start = link_free;
            // Earliest start >= link_free at which the task fits, scanning
            // release instants.
            loop {
                let held: u64 = active
                    .iter()
                    .filter(|(end, _)| *end > start)
                    .map(|(_, mem)| mem)
                    .sum();
                if held + need <= capacity.bytes() {
                    break;
                }
                start = active
                    .iter()
                    .map(|(end, _)| *end)
                    .filter(|end| *end > start)
                    .min()
                    .expect("some release must be pending");
            }
            let comm_start = start;
            let comm_end = comm_start + task.comm_time;
            let comp_start = comm_end.max(cpu_free);
            let comp_end = comp_start + task.comp_time;
            link_free = comm_end;
            cpu_free = comp_end;
            active.push((comp_end, need));
            schedule.push(ScheduleEntry {
                task: id,
                comm_start,
                comp_start,
            });
        }
        schedule
    }

    let mut rng = StdRng::seed_from_u64(2024);
    for instance in [table3(), table4(), table5()] {
        let mut order = instance.task_ids();
        for _ in 0..20 {
            order.shuffle(&mut rng);
            let fast = dts_core::simulate::simulate_sequence(&instance, &order)
                .expect("valid order simulates");
            assert_eq!(
                fast,
                naive_simulate(&instance, &order),
                "{}",
                instance.label
            );
        }
    }
    for _ in 0..30 {
        let instance = random_instance_decoupled_memory(&mut rng, 25, 1.25);
        let mut order = instance.task_ids();
        order.shuffle(&mut rng);
        let fast = dts_core::simulate::simulate_sequence(&instance, &order)
            .expect("valid order simulates");
        assert_eq!(fast, naive_simulate(&instance, &order));
    }
}

#[test]
fn u64_scale_memory_never_overlaps_the_full_memory_task() {
    // Every task fits the capacity on its own, but the MAX-byte task plus
    // any other overflows the exact sum. The engine must treat the overflow
    // as "does not fit" (matching `simulate_sequence`) and keep the small
    // tasks strictly outside the big task's active interval, instead of a
    // saturating comparison silently admitting them concurrently.
    let huge = MemSize::from_bytes(u64::MAX);
    let tick = Time::from_ticks(1000);
    let instance = InstanceBuilder::new()
        .capacity(huge)
        .label("u64-scale")
        .task("a", Task::new(tick, tick, huge))
        .task("b", Task::new(tick, tick, MemSize::from_bytes(2)))
        .task("c", Task::new(tick, tick, MemSize::from_bytes(2)))
        .build()
        .expect("every task fits");
    let active_interval = |sched: &Schedule, id: TaskId| {
        let entry = sched.entry(id).expect("task is scheduled");
        (
            entry.comm_start,
            entry.comp_start + instance.task(id).comp_time,
        )
    };
    let mut schedules: Vec<(String, Schedule)> = Vec::new();
    for criterion in SELECTIONS {
        let sched = run_heuristic(&instance, dynamic(criterion)).expect("dynamic heuristic runs");
        schedules.push((format!("dynamic {criterion:?}"), sched));
    }
    for correction in SELECTIONS {
        let sched = run_corrected(&instance, &instance.task_ids(), correction)
            .expect("corrected heuristic runs");
        schedules.push((format!("corrected {correction:?}"), sched));
    }
    for (context, sched) in schedules {
        assert_eq!(sched.len(), 3, "{context}");
        let (big_start, big_end) = active_interval(&sched, TaskId(0));
        for id in [TaskId(1), TaskId(2)] {
            let (start, end) = active_interval(&sched, id);
            assert!(
                end <= big_start || start >= big_end,
                "{context}: task {id} overlaps the full-memory task"
            );
        }
    }
}
