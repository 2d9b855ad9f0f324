//! The free-order scheduler on the shared machine against the event loop
//! it replaced.
//!
//! `oracle::schedule_for_orders` is the greedy two-order scheduler as it
//! was before it ran on `dts_core::simulate::Machine`: its own event loop,
//! explicit model only, with the memory held recomputed at every event.
//! Under the explicit model `dts_flowshop::exact::schedule_for_orders` must
//! return the same `Option<Schedule>` for every pair of orders, deadlocks
//! included, and `optimal_free_order` the same optimum, ties included, as
//! the enumeration over the event loop.

use dts_core::instances::random_instance_decoupled_memory;
use dts_core::prelude::*;
use dts_flowshop::exact::{optimal_free_order, schedule_for_orders};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

mod oracle {
    use dts_core::prelude::*;

    /// Every pair of orders through the event loop; the first strictly
    /// best pair wins.
    pub fn optimal_free_order(instance: &Instance) -> (Time, Schedule) {
        let ids = instance.task_ids();
        let mut best: Option<(Time, Schedule)> = None;
        for comm_order in permutations(&ids) {
            for comp_order in permutations(&ids) {
                if let Some(schedule) = schedule_for_orders(instance, &comm_order, &comp_order) {
                    let makespan = schedule.makespan(instance);
                    if best.as_ref().is_none_or(|(b, _)| makespan < *b) {
                        best = Some((makespan, schedule));
                    }
                }
            }
        }
        best.expect("same-order schedules are always feasible")
    }

    /// Every order of `ids`, in the swap enumeration's order.
    fn permutations(ids: &[TaskId]) -> Vec<Vec<TaskId>> {
        fn permute(order: &mut Vec<TaskId>, k: usize, out: &mut Vec<Vec<TaskId>>) {
            if k == order.len() {
                out.push(order.clone());
                return;
            }
            for i in k..order.len() {
                order.swap(k, i);
                permute(order, k + 1, out);
                order.swap(k, i);
            }
        }
        let mut out = Vec::new();
        permute(&mut ids.to_vec(), 0, &mut out);
        out
    }

    /// Greedy earliest-start schedule for a fixed pair of orders (communication
    /// order, computation order). Returns `None` when the pair deadlocks: the
    /// next computation's data cannot be transferred because memory is full and
    /// can only be released by computations that are ordered after it.
    pub fn schedule_for_orders(
        instance: &Instance,
        comm_order: &[TaskId],
        comp_order: &[TaskId],
    ) -> Option<Schedule> {
        let n = instance.len();
        let capacity = instance.capacity().bytes();

        let mut comm_start = vec![Time::MAX; n];
        let mut comm_end = vec![Time::MAX; n];
        let mut comp_start = vec![Time::MAX; n];
        let mut comp_end = vec![Time::MAX; n];

        let mut next_comm = 0usize; // index into comm_order
        let mut next_comp = 0usize; // index into comp_order
        let mut link_free = Time::ZERO;
        let mut cpu_free = Time::ZERO;
        let mut now = Time::ZERO;

        // Event loop: at each step start whatever can start, otherwise advance
        // time to the next completion event.
        loop {
            if next_comm == n && next_comp == n {
                break;
            }
            // Memory held at `now`: tasks whose transfer started and whose
            // computation has not finished by `now`. A release at exactly `now`
            // frees memory, including that of a zero-length computation started
            // at `now` in the previous step, which no later event would release.
            let held: u64 = (0..n)
                .filter(|&i| comm_start[i] != Time::MAX && comp_end[i] > now)
                .map(|i| instance.task(TaskId(i)).mem.bytes())
                .sum();
            let mut progressed = false;

            // Start the next computation if possible (does not consume memory —
            // the task already holds it — so always do this first).
            if next_comp < n {
                let id = comp_order[next_comp];
                let i = id.index();
                if comm_end[i] != Time::MAX {
                    let ready = comm_end[i].max(cpu_free).max(now);
                    if ready <= now {
                        let t = instance.task(id);
                        comp_start[i] = now;
                        comp_end[i] = now + t.comp_time;
                        cpu_free = comp_end[i];
                        next_comp += 1;
                        progressed = true;
                    }
                }
            }

            // Start the next communication if the link is free and memory fits.
            if next_comm < n {
                let id = comm_order[next_comm];
                let i = id.index();
                let t = instance.task(id);
                if link_free <= now && held + t.mem.bytes() <= capacity {
                    comm_start[i] = now;
                    comm_end[i] = now + t.comm_time;
                    link_free = comm_end[i];
                    next_comm += 1;
                    progressed = true;
                }
            }

            if progressed {
                continue;
            }

            // Advance to the next event: link release, a communication end
            // enabling the next computation, a computation end releasing memory
            // or the CPU.
            let mut next_event = Time::MAX;
            if link_free > now {
                next_event = next_event.min(link_free);
            }
            if cpu_free > now {
                next_event = next_event.min(cpu_free);
            }
            if next_comp < n {
                let i = comp_order[next_comp].index();
                if comm_end[i] != Time::MAX && comm_end[i] > now {
                    next_event = next_event.min(comm_end[i]);
                }
            }
            for &end in comp_end.iter().take(n) {
                if end != Time::MAX && end > now {
                    next_event = next_event.min(end);
                }
            }
            if next_event == Time::MAX {
                // Nothing can ever progress again: deadlock.
                return None;
            }
            now = next_event;
        }

        let mut schedule = Schedule::with_capacity(n);
        for i in 0..n {
            if comm_start[i] == Time::MAX || comp_start[i] == Time::MAX {
                return None;
            }
            schedule.push(ScheduleEntry {
                task: TaskId(i),
                comm_start: comm_start[i],
                comp_start: comp_start[i],
            });
        }
        schedule.normalize();
        Some(schedule)
    }
}

/// `n` tasks with times drawn from 0..=9, so zero-length transfers and
/// computations are common, and memories of 1..=6 bytes under a capacity
/// between the largest task and their sum.
fn zero_heavy_instance(rng: &mut StdRng, n: usize) -> Instance {
    let mut builder = InstanceBuilder::new();
    let mut mems = Vec::new();
    for i in 0..n {
        let mem = rng.gen_range(1..=6u64);
        mems.push(mem);
        builder = builder.task_units(
            &format!("t{i}"),
            rng.gen_range(0..=9) as f64,
            rng.gen_range(0..=9) as f64,
            mem,
        );
    }
    let largest = *mems.iter().max().unwrap();
    let capacity = rng.gen_range(largest..=mems.iter().sum::<u64>());
    builder
        .capacity(MemSize::from_bytes(capacity))
        .build()
        .unwrap()
}

#[test]
fn machine_scheduler_matches_the_event_loop() {
    // 1–6 tasks, half of the instances zero-length-heavy, each with four
    // random pairs of orders: 120 000 pairs.
    let mut rng = StdRng::seed_from_u64(2027);
    let (mut pairs, mut deadlocks) = (0, 0);
    for round in 0..30_000 {
        let n = rng.gen_range(1..=6);
        let inst = if round % 2 == 0 {
            let factor = 1.0 + f64::from(rng.gen_range(0..=10u32)) / 10.0;
            random_instance_decoupled_memory(&mut rng, n, factor)
        } else {
            zero_heavy_instance(&mut rng, n)
        };
        let mut comm = inst.task_ids();
        let mut comp = inst.task_ids();
        for _ in 0..4 {
            comm.shuffle(&mut rng);
            comp.shuffle(&mut rng);
            let expected = oracle::schedule_for_orders(&inst, &comm, &comp);
            deadlocks += usize::from(expected.is_none());
            pairs += 1;
            assert_eq!(
                schedule_for_orders(&inst, &comm, &comp),
                expected,
                "{inst:?}, orders {comm:?} / {comp:?}"
            );
        }
    }
    assert_eq!(pairs, 120_000);
    // Both outcomes are exercised in bulk.
    assert!(deadlocks > 10_000, "only {deadlocks} deadlocks");
    assert!(pairs - deadlocks > 10_000);
}

#[test]
fn free_order_optimum_matches_the_event_loop_enumeration() {
    // The incumbent is seeded from the identity pair by appends; the
    // optimum and the schedule that wins ties must not change.
    let mut rng = StdRng::seed_from_u64(2028);
    for round in 0..60 {
        let n = rng.gen_range(1..=5);
        let inst = if round % 2 == 0 {
            let factor = 1.0 + f64::from(rng.gen_range(0..=10u32)) / 10.0;
            random_instance_decoupled_memory(&mut rng, n, factor)
        } else {
            zero_heavy_instance(&mut rng, n)
        };
        let (makespan, schedule) = oracle::optimal_free_order(&inst);
        let free = optimal_free_order(&inst);
        assert_eq!(
            (free.makespan, free.schedule),
            (makespan, schedule),
            "{inst:?}"
        );
    }
}
