//! The shared machine (`dts_core::simulate::Machine` and its `Timing`)
//! against the executors it replaced.
//!
//! The `oracle` module keeps three executors as they were before every
//! executor ran on one machine: the fixed-order executor with its own
//! channel pool and release queue, the infinite-memory executor with its
//! explicit-model fast path, and the explicit-only window simulator of
//! `lp.k` with its full scan of the active tasks. The tests check the
//! machine-based executors against them schedule for schedule, under the
//! six model points the equivalence suites use, and pin what `lp.k` gains
//! from running on the machine: the instance's execution model. Every
//! schedule the machine-based executors produce must also pass the
//! feasibility checker under its model, and the pruned same-order search
//! (`dts_flowshop::exact::best_same_order`) must pick the order an
//! exhaustive enumeration over the same machine picks, under every model.
//! The free-order optimum runs on the same machine: under every model its
//! schedule must pass the checker and be no worse than the same-order
//! optimum.

use dts_core::feasibility::validate;
use dts_core::instances::{random_instance_decoupled_memory, table2, table3};
use dts_core::prelude::*;
use dts_core::simulate::{simulate_sequence, simulate_sequence_infinite, Machine};
use dts_core::testgen;
use dts_flowshop::exact::{best_same_order, optimal_free_order, optimal_same_order};
use dts_milp::{lp_k, LpKConfig};
use microcheck::Gen;
use rand::prelude::*;

mod oracle {
    use dts_core::exec::ExecutionModel;
    use dts_core::prelude::*;
    use dts_core::simulate::check_permutation;

    fn earliest_free_channel(channels: &[Time]) -> usize {
        let mut best = 0;
        for (i, &free) in channels.iter().enumerate().skip(1) {
            if free < channels[best] {
                best = i;
            }
        }
        best
    }

    struct Channels {
        free: Vec<Time>,
        next_duplex: usize,
        last_issue: Time,
    }

    impl Channels {
        fn new(model: ExecutionModel) -> Self {
            Channels {
                free: vec![Time::ZERO; model.channel_count()],
                next_duplex: 0,
                last_issue: Time::ZERO,
            }
        }

        fn next_slot(&mut self, model: ExecutionModel) -> (usize, Time) {
            let channel = match model {
                ExecutionModel::Duplex => {
                    let c = self.next_duplex;
                    self.next_duplex = (self.next_duplex + 1) % self.free.len();
                    c
                }
                _ => earliest_free_channel(&self.free),
            };
            (channel, self.last_issue.max(self.free[channel]))
        }

        fn commit(&mut self, channel: usize, start: Time, end: Time) {
            self.last_issue = start;
            self.free[channel] = end;
        }
    }

    pub fn simulate_sequence_infinite(instance: &Instance, order: &[TaskId]) -> Result<Schedule> {
        check_permutation(instance, order)?;
        let model = instance.model();
        let mut schedule = Schedule::with_capacity(order.len());
        if model.is_explicit() {
            let mut link_free = Time::ZERO;
            let mut cpu_free = Time::ZERO;
            for &id in order {
                let task = instance.task(id);
                let comm_start = link_free;
                let comm_end = comm_start + task.comm_time;
                let comp_start = comm_end.max(cpu_free);
                link_free = comm_end;
                cpu_free = comp_start + task.comp_time;
                schedule.push(ScheduleEntry {
                    task: id,
                    comm_start,
                    comp_start,
                });
            }
            return Ok(schedule);
        }
        let mut channels = Channels::new(model);
        let mut cpu_free = Time::ZERO;
        for &id in order {
            let task = instance.task(id);
            let entry = if let ExecutionModel::Implicit { .. } = model {
                let start = channels.last_issue.max(cpu_free);
                let end = start + model.fused_duration(task.comm_time, task.comp_time);
                channels.commit(0, start, end);
                cpu_free = end;
                ScheduleEntry {
                    task: id,
                    comm_start: start,
                    comp_start: end - task.comp_time,
                }
            } else {
                let (channel, start) = channels.next_slot(model);
                let comm_end = start + task.comm_time;
                channels.commit(channel, start, comm_end);
                let comp_start = comm_end.max(cpu_free);
                cpu_free = comp_start + task.comp_time;
                ScheduleEntry {
                    task: id,
                    comm_start: start,
                    comp_start,
                }
            };
            schedule.push(entry);
        }
        Ok(schedule)
    }

    pub fn simulate_sequence(instance: &Instance, order: &[TaskId]) -> Result<Schedule> {
        check_permutation(instance, order)?;
        let model = instance.model();
        let capacity = instance.capacity();
        let mut schedule = Schedule::with_capacity(order.len());
        let explicit = model.is_explicit();
        let implicit = matches!(model, ExecutionModel::Implicit { .. });
        let mut channels = Channels::new(model);
        let mut link_free = Time::ZERO;
        let mut cpu_free = Time::ZERO;
        let mut active: std::collections::VecDeque<(Time, u64)> = std::collections::VecDeque::new();
        let mut held: u64 = 0;

        for &id in order {
            let task = instance.task(id);
            let need = task.mem.bytes();
            let (channel, floor) = if explicit {
                (0, link_free)
            } else if implicit {
                (0, channels.last_issue.max(cpu_free))
            } else {
                channels.next_slot(model)
            };
            let mut start = floor;
            while let Some(&(release, mem)) = active.front() {
                if release <= start {
                    held -= mem;
                    active.pop_front();
                } else {
                    break;
                }
            }
            while held
                .checked_add(need)
                .is_none_or(|total| total > capacity.bytes())
            {
                let (release, mem) = active.pop_front().ok_or_else(|| {
                    CoreError::Internal(
                        "memory accounting desynchronized from the active set".into(),
                    )
                })?;
                held -= mem;
                start = start.max(release);
            }

            let comm_start = start;
            let (comp_start, comp_end) = if implicit {
                let end = comm_start + model.fused_duration(task.comm_time, task.comp_time);
                channels.commit(0, comm_start, end);
                cpu_free = end;
                (end - task.comp_time, end)
            } else {
                let comm_end = comm_start + task.comm_time;
                channels.commit(channel, comm_start, comm_end);
                link_free = comm_end;
                let comp_start = comm_end.max(cpu_free);
                let comp_end = comp_start + task.comp_time;
                cpu_free = comp_end;
                (comp_start, comp_end)
            };
            held += need;
            active.push_back((comp_end, need));
            schedule.push(ScheduleEntry {
                task: id,
                comm_start,
                comp_start,
            });
        }
        Ok(schedule)
    }

    #[derive(Debug, Clone, Default)]
    pub struct WindowState {
        pub link_free: Time,
        pub cpu_free: Time,
        pub pending_releases: Vec<(Time, MemSize)>,
    }

    pub struct WindowSolution {
        pub entries: Vec<ScheduleEntry>,
        pub state: WindowState,
    }

    pub fn simulate_window(
        instance: &Instance,
        state: &WindowState,
        order: &[TaskId],
    ) -> (Vec<ScheduleEntry>, WindowState) {
        let capacity = instance.capacity();
        let mut link_free = state.link_free;
        let mut cpu_free = state.cpu_free;
        let mut active: Vec<(Time, MemSize)> = state.pending_releases.clone();
        active.sort();
        let mut entries = Vec::with_capacity(order.len());

        for &id in order {
            let task = instance.task(id);
            let mut start = link_free;
            loop {
                let held: MemSize = active
                    .iter()
                    .filter(|(end, _)| *end > start)
                    .map(|(_, m)| *m)
                    .sum();
                if held.saturating_add(task.mem) <= capacity {
                    break;
                }
                let next_release = active
                    .iter()
                    .map(|(end, _)| *end)
                    .filter(|end| *end > start)
                    .min()
                    .expect("memory exceeded but nothing to release: task larger than capacity");
                start = next_release;
            }
            let comm_start = start;
            let comm_end = comm_start + task.comm_time;
            let comp_start = comm_end.max(cpu_free);
            let comp_end = comp_start + task.comp_time;
            link_free = comm_end;
            cpu_free = comp_end;
            active.push((comp_end, task.mem));
            entries.push(ScheduleEntry {
                task: id,
                comm_start,
                comp_start,
            });
        }

        let state_after = WindowState {
            link_free,
            cpu_free,
            pending_releases: active
                .into_iter()
                .filter(|(end, _)| *end > link_free)
                .collect(),
        };
        (entries, state_after)
    }

    pub fn solve_window(
        instance: &Instance,
        state: &WindowState,
        window: &[TaskId],
    ) -> WindowSolution {
        let mut best: Option<WindowSolution> = None;
        let mut order: Vec<TaskId> = window.to_vec();
        permute(&mut order, 0, &mut |candidate| {
            let (entries, state) = simulate_window(instance, state, candidate);
            if best.as_ref().is_none_or(|b| {
                (state.cpu_free, state.link_free) < (b.state.cpu_free, b.state.link_free)
            }) {
                best = Some(WindowSolution { entries, state });
            }
        });
        best.expect("window is non-empty")
    }

    pub fn permute<F: FnMut(&[TaskId])>(order: &mut Vec<TaskId>, k: usize, f: &mut F) {
        if k == order.len() {
            f(order);
            return;
        }
        for i in k..order.len() {
            order.swap(k, i);
            permute(order, k + 1, f);
            order.swap(k, i);
        }
    }

    pub fn lp_k(instance: &Instance, window: usize) -> Schedule {
        let ids = instance.task_ids();
        let mut state = WindowState::default();
        let mut schedule = Schedule::with_capacity(instance.len());
        for window in ids.chunks(window) {
            let solution = solve_window(instance, &state, window);
            for entry in solution.entries {
                schedule.push(entry);
            }
            state = solution.state;
        }
        schedule
    }
}

/// The six model points of the equivalence suites.
fn models() -> [ExecutionModel; 6] {
    [
        ExecutionModel::Explicit,
        ExecutionModel::Duplex,
        ExecutionModel::Streams { k: 1 },
        ExecutionModel::Streams { k: 3 },
        ExecutionModel::IMPLICIT_FULL,
        ExecutionModel::parse("implicit:0.5").expect("valid model"),
    ]
}

/// Seeded instances: random decoupled-memory instances of 2–31 tasks at
/// 1.0–2.0 × the largest task, the tie-heavy, transfer-bound and
/// memory-cliff generator domains, and u64-scale memories whose sums
/// overflow.
fn seeded_instances(seed: u64, rounds: usize) -> Vec<Instance> {
    let mut rng = StdRng::seed_from_u64(seed);
    let tie_heavy = testgen::instance_gen_with(testgen::tie_heavy_task_gen(), 1..=16, 0..=4);
    let transfer_bound = testgen::transfer_bound_instance_gen(1..=20);
    let cliff = testgen::memory_cliff_instance_gen(1..=16);
    let u64_scale = testgen::instance_gen_with(
        testgen::task_gen(0..=3, 0..=3, u64::MAX - 3..=u64::MAX),
        1..=8,
        0..=3,
    );
    let mut instances = Vec::new();
    for _ in 0..rounds {
        let n = rng.gen_range(2..=31);
        let factor = 1.0 + f64::from(rng.gen_range(0..=20u32)) / 20.0;
        instances.push(random_instance_decoupled_memory(&mut rng, n, factor));
        instances.push(tie_heavy.generate(&mut rng).build());
        instances.push(transfer_bound.generate(&mut rng).build());
        instances.push(cliff.generate(&mut rng).build());
        instances.push(u64_scale.generate(&mut rng).build());
    }
    instances
}

fn under(instance: &Instance, model: ExecutionModel) -> Instance {
    instance.clone().with_model(model).expect("valid model")
}

#[test]
fn sequence_executors_match_the_oracles_under_every_model() {
    let mut rng = StdRng::seed_from_u64(19);
    for (round, instance) in seeded_instances(1901, 80).into_iter().enumerate() {
        let mut order = instance.task_ids();
        for _ in 0..3 {
            order.shuffle(&mut rng);
            for model in models() {
                let modeled = under(&instance, model);
                let bounded = simulate_sequence(&modeled, &order);
                assert_eq!(
                    bounded,
                    oracle::simulate_sequence(&modeled, &order),
                    "bounded executor, round {round}, {model}, order {order:?}"
                );
                let unbounded = simulate_sequence_infinite(&modeled, &order);
                assert_eq!(
                    unbounded,
                    oracle::simulate_sequence_infinite(&modeled, &order),
                    "unbounded executor, round {round}, {model}, order {order:?}"
                );
                // Both schedules are feasible under the model, the
                // unbounded one against an unbounded capacity.
                let without_limit = modeled
                    .with_capacity(MemSize::UNBOUNDED)
                    .expect("an unbounded capacity holds every task");
                for (instance, schedule) in [(&modeled, bounded), (&without_limit, unbounded)] {
                    let violations = validate(instance, &schedule.expect("order runs"));
                    assert!(
                        violations.is_empty(),
                        "round {round}, {model}, order {order:?}: {violations:?}"
                    );
                }
            }
        }
    }
}

/// The seeded instances whose memories sum to at most `u64::MAX` bytes.
/// The window oracle fits with a saturating sum, which differs from the
/// machine's exact sum only past `u64::MAX`.
fn window_instances(seed: u64) -> Vec<Instance> {
    seeded_instances(seed, 25)
        .into_iter()
        .filter(|instance| {
            instance
                .tasks()
                .iter()
                .try_fold(0u64, |sum, task| sum.checked_add(task.mem.bytes()))
                .is_some()
        })
        .collect()
}

#[test]
fn lp_k_matches_the_window_oracle_under_the_explicit_model() {
    for (round, instance) in window_instances(1902).into_iter().enumerate() {
        for k in 1..=LpKConfig::PAPER_WINDOW_SIZES[3] {
            let ours = lp_k(&instance, LpKConfig { window: k }).expect("lp.k runs");
            assert_eq!(
                ours,
                oracle::lp_k(&instance, k),
                "lp.{k}, round {round} ({})",
                instance.label
            );
        }
    }
}

/// Appends `order` to a copy of `machine`: the entries and the machine
/// after them.
fn append_all(
    instance: &Instance,
    machine: &Machine,
    order: &[TaskId],
) -> (Vec<ScheduleEntry>, Machine) {
    let mut machine = machine.clone();
    let entries = order
        .iter()
        .map(|&id| machine.append(id, instance.task(id)))
        .collect();
    (entries, machine)
}

#[test]
fn warm_started_windows_match_the_window_oracle() {
    // Run a prefix of the submission order, then simulate and solve the
    // next few tasks from the state it left, on both sides.
    let mut rng = StdRng::seed_from_u64(23);
    for (round, instance) in window_instances(1903).into_iter().enumerate() {
        let ids = instance.task_ids();
        let split = rng.gen_range(0..ids.len());
        let (prefix, rest) = ids.split_at(split);
        let window = &rest[..rest.len().min(4)];

        let (_, state) = oracle::simulate_window(&instance, &Default::default(), prefix);
        let (_, machine) = append_all(&instance, &Machine::new(&instance), prefix);
        assert_eq!(
            (machine.cpu_free(), machine.link_free()),
            (state.cpu_free, state.link_free),
            "round {round}: prefix of {split}"
        );

        let (entries, after) = append_all(&instance, &machine, window);
        let (expected, expected_after) = oracle::simulate_window(&instance, &state, window);
        assert_eq!(entries, expected, "round {round}: simulated window");
        assert_eq!(
            (after.cpu_free(), after.link_free()),
            (expected_after.cpu_free, expected_after.link_free),
            "round {round}: state after the simulated window"
        );

        let (entries, after) = best_same_order(&instance, &machine, window);
        let expected = oracle::solve_window(&instance, &state, window);
        assert_eq!(entries, expected.entries, "round {round}: solved");
        assert_eq!(
            (after.cpu_free(), after.link_free()),
            (expected.state.cpu_free, expected.state.link_free),
            "round {round}: state after the solved window"
        );
    }
}

#[test]
fn pruned_search_matches_exhaustive_enumeration_under_every_model() {
    // The search cuts prefixes; an exhaustive first-wins enumeration over
    // the same machine appends must pick the same order, from warm-started
    // windows of up to 6 tasks.
    let mut rng = StdRng::seed_from_u64(29);
    for (round, instance) in seeded_instances(1905, 40).into_iter().enumerate() {
        for model in models() {
            let modeled = under(&instance, model);
            let ids = modeled.task_ids();
            let split = rng.gen_range(0..ids.len());
            let (prefix, rest) = ids.split_at(split);
            let window = &rest[..rest.len().min(rng.gen_range(1..=6))];
            let (_, machine) = append_all(&modeled, &Machine::new(&modeled), prefix);
            let key = |m: &Machine| (m.cpu_free(), m.link_free());
            let mut best: Option<(Vec<ScheduleEntry>, Machine)> = None;
            oracle::permute(&mut window.to_vec(), 0, &mut |order| {
                let (entries, after) = append_all(&modeled, &machine, order);
                if best.as_ref().is_none_or(|(_, b)| key(&after) < key(b)) {
                    best = Some((entries, after));
                }
            });
            let (expected, expected_after) = best.expect("a window is non-empty");
            let (entries, after) = best_same_order(&modeled, &machine, window);
            let context = format!("round {round}, {model}, prefix of {split}, window {window:?}");
            assert_eq!(entries, expected, "{context}");
            assert_eq!(key(&after), key(&expected_after), "{context}");
        }
    }
}

#[test]
fn lp_k_runs_under_the_instance_model() {
    // Eight lp.k runs per window size and instance, so a shorter list:
    // five instances of each domain, u64-scale memories included.
    for (round, instance) in seeded_instances(1904, 5).into_iter().enumerate() {
        for k in LpKConfig::PAPER_WINDOW_SIZES {
            let config = LpKConfig { window: k };
            let explicit = lp_k(&instance, config).expect("lp.k runs");
            let one_stream = under(&instance, ExecutionModel::Streams { k: 1 });
            assert_eq!(
                lp_k(&one_stream, config).expect("lp.k runs"),
                explicit,
                "lp.{k} under streams:1, round {round}"
            );
            for model in models() {
                let modeled = under(&instance, model);
                let schedule = lp_k(&modeled, config).expect("lp.k runs");
                let violations = validate(&modeled, &schedule);
                assert!(
                    violations.is_empty(),
                    "lp.{k} under {model}, round {round}: {violations:?}"
                );
            }
        }
    }
}

#[test]
fn free_order_optimum_is_feasible_and_no_worse_than_same_order_under_every_model() {
    // Tables 2 and 3 and 50 random instances of 2–5 tasks. Under the
    // implicit model the two orders are one, so the optima are equal.
    let mut rng = StdRng::seed_from_u64(31);
    let mut instances = vec![table2(), table3()];
    for _ in 0..50 {
        let n = rng.gen_range(2..=5);
        let factor = 1.0 + f64::from(rng.gen_range(0..=10u32)) / 10.0;
        instances.push(random_instance_decoupled_memory(&mut rng, n, factor));
    }
    for (round, instance) in instances.iter().enumerate() {
        for model in models() {
            let modeled = under(instance, model);
            let free = optimal_free_order(&modeled);
            let same = optimal_same_order(&modeled);
            let violations = validate(&modeled, &free.schedule);
            assert!(
                violations.is_empty(),
                "round {round}, {model}: {violations:?}"
            );
            assert_eq!(free.makespan, free.schedule.makespan(&modeled));
            if matches!(model, ExecutionModel::Implicit { .. }) {
                assert_eq!(free.makespan, same.makespan, "round {round}, {model}");
            } else {
                assert!(free.makespan <= same.makespan, "round {round}, {model}");
            }
        }
    }
}
