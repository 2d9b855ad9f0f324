//! Exact solvers for small instances.
//!
//! Two flavours are provided:
//!
//! * [`optimal_same_order`] — best *permutation schedule* (same order of
//!   tasks on the communication link and on the processing unit), found by
//!   branch-and-bound over sequences evaluated with the memory-constrained
//!   executor;
//! * [`optimal_free_order`] — best schedule when the two orders may differ
//!   (the general problem; Proposition 1 shows this can be strictly better).
//!   Found by enumerating pairs of orders and scheduling each pair greedily,
//!   which is optimal for fixed orders because starting a transfer earlier
//!   never delays later events.
//!
//! Both are exponential and intended for instances of at most ~10 tasks
//! (permutation) / ~7 tasks (free order); they exist to validate heuristics
//! and to reproduce the paper's Fig. 3.

use dts_core::prelude::*;
use dts_core::simulate::simulate_sequence;

/// An exact solution: the best schedule found together with its makespan.
#[derive(Debug, Clone)]
pub struct ExactSolution {
    /// The optimal schedule.
    pub schedule: Schedule,
    /// Its makespan.
    pub makespan: Time,
}

/// Exhaustive/branch-and-bound search over permutation schedules.
///
/// The search explores sequences depth-first, pruning a partial sequence as
/// soon as its partial makespan (a lower bound on any completion, since
/// appending tasks never reduces it) reaches the best makespan found so far.
pub fn optimal_same_order(instance: &Instance) -> ExactSolution {
    let n = instance.len();
    assert!(
        n <= 12,
        "optimal_same_order is exponential; refusing more than 12 tasks (got {n})"
    );
    let mut best_makespan = Time::MAX;
    let mut best_order: Vec<TaskId> = instance.task_ids();

    // Depth-first enumeration with pruning on the partial schedule makespan.
    let mut order: Vec<TaskId> = instance.task_ids();
    fn rec(
        instance: &Instance,
        order: &mut Vec<TaskId>,
        depth: usize,
        best_makespan: &mut Time,
        best_order: &mut Vec<TaskId>,
    ) {
        let prefix = &order[..depth];
        if depth > 0 {
            // Evaluate the prefix alone: its makespan only grows when more
            // tasks are appended, so it is a valid pruning bound.
            let sub = instance
                .sub_instance(prefix)
                .expect("prefix tasks belong to the instance");
            let prefix_order: Vec<TaskId> = (0..depth).map(TaskId).collect();
            let prefix_makespan = simulate_sequence(&sub, &prefix_order)
                .expect("prefix order is a permutation")
                .makespan(&sub);
            if prefix_makespan >= *best_makespan {
                return;
            }
        }
        if depth == order.len() {
            let makespan = simulate_sequence(instance, order)
                .expect("full order is a permutation")
                .makespan(instance);
            if makespan < *best_makespan {
                *best_makespan = makespan;
                best_order.copy_from_slice(order);
            }
            return;
        }
        for i in depth..order.len() {
            order.swap(depth, i);
            rec(instance, order, depth + 1, best_makespan, best_order);
            order.swap(depth, i);
        }
    }
    rec(instance, &mut order, 0, &mut best_makespan, &mut best_order);

    let schedule = simulate_sequence(instance, &best_order).expect("best order is a permutation");
    let makespan = schedule.makespan(instance);
    ExactSolution { schedule, makespan }
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

/// Exhaustive search over *pairs* of orders (communication, computation).
/// Optimal for the general problem `DT` restricted to left-shifted schedules,
/// which always contain an optimum.
pub fn optimal_free_order(instance: &Instance) -> ExactSolution {
    let n = instance.len();
    assert!(
        n <= 7,
        "optimal_free_order enumerates pairs of permutations; refusing more than 7 tasks (got {n})"
    );
    let ids = instance.task_ids();
    let mut best: Option<(Time, Schedule)> = None;

    let mut comm_perm = ids.clone();
    permute_all(&mut comm_perm, 0, &mut |comm_order| {
        let mut comp_perm = ids.clone();
        permute_all(&mut comp_perm, 0, &mut |comp_order| {
            if let Some(schedule) = schedule_for_orders(instance, comm_order, comp_order) {
                let makespan = schedule.makespan(instance);
                if best.as_ref().is_none_or(|(b, _)| makespan < *b) {
                    best = Some((makespan, schedule));
                }
            }
        });
    });

    let (makespan, schedule) = best.expect("same-order schedules are always feasible");
    ExactSolution { schedule, makespan }
}

fn permute_all<F: FnMut(&[TaskId])>(order: &mut Vec<TaskId>, k: usize, f: &mut F) {
    if k == order.len() {
        f(order);
        return;
    }
    for i in k..order.len() {
        order.swap(k, i);
        permute_all(order, k + 1, f);
        order.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::johnson::johnson_makespan;
    use dts_core::feasibility::is_feasible;
    use dts_core::instance::InstanceBuilder;
    use dts_core::instances::{random_instance_decoupled_memory, table2, table3};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn table2_permutation_optimum() {
        // Fig. 3a of the paper reports 23 as the best schedule with a common
        // order on both resources. Our left-shifted executor finds the order
        // A B D F C E with makespan 22.5 (B's memory is released at t = 8,
        // the very instant F's transfer starts — the same release-then-
        // acquire convention the paper itself uses in Fig. 4b), so the
        // permutation optimum here is 22.5. The substance of Proposition 1
        // is preserved: see `table2_free_order_beats_same_order`.
        let inst = table2();
        let sol = optimal_same_order(&inst);
        assert_eq!(sol.makespan, Time::units(22.5));
        assert!(is_feasible(&inst, &sol.schedule));
        assert!(sol.schedule.is_permutation_schedule());
    }

    #[test]
    fn table2_free_order_beats_same_order() {
        // Fig. 3b / Proposition 1: allowing different orders reaches
        // makespan 22 (the OMIM bound), strictly better than any common
        // ordering.
        let inst = table2();
        let free = optimal_free_order(&inst);
        assert_eq!(free.makespan, Time::units_int(22));
        assert!(is_feasible(&inst, &free.schedule));
        assert!(!free.schedule.is_permutation_schedule());
        let same = optimal_same_order(&inst);
        assert!(free.makespan < same.makespan);
    }

    #[test]
    fn table3_constrained_optimum() {
        // With capacity 6 the best permutation schedule of Table 3 is 13:
        // the DOCPS schedule of Fig. 4b reaches 14 and OMIM is 12.
        let inst = table3();
        let sol = optimal_same_order(&inst);
        assert!(sol.makespan >= johnson_makespan(&inst));
        assert!(sol.makespan <= Time::units_int(14));
        assert!(is_feasible(&inst, &sol.schedule));
    }

    #[test]
    fn free_order_never_worse_than_same_order() {
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..10 {
            let inst = random_instance_decoupled_memory(&mut rng, 5, 1.4);
            let same = optimal_same_order(&inst);
            let free = optimal_free_order(&inst);
            assert!(free.makespan <= same.makespan, "instance {:?}", inst);
            assert!(free.makespan >= johnson_makespan(&inst));
            assert!(is_feasible(&inst, &free.schedule));
            assert!(is_feasible(&inst, &same.schedule));
        }
    }

    #[test]
    fn fixed_orders_scheduler_matches_sequence_executor() {
        // When both orders are equal, the greedy two-order scheduler must
        // reproduce the same makespan as the sequence executor.
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let inst = random_instance_decoupled_memory(&mut rng, 6, 1.5);
            let order = inst.task_ids();
            let a = simulate_sequence(&inst, &order).unwrap().makespan(&inst);
            let b = schedule_for_orders(&inst, &order, &order)
                .unwrap()
                .makespan(&inst);
            assert_eq!(a, b, "instance {:?}", inst);
        }
    }

    #[test]
    fn zero_computation_tasks_release_memory_at_once() {
        // Both tasks cannot be resident together (2 + 1 > 2), and neither
        // computes: each transfer must start the instant the other task's
        // zero-length computation releases its memory, so the optimum is
        // the serialized transfers, 6 + 2 = 8.
        let inst = InstanceBuilder::new()
            .capacity(MemSize::from_bytes(2))
            .task_units("A", 6.0, 0.0, 2)
            .task_units("B", 2.0, 0.0, 1)
            .build()
            .unwrap();
        let free = optimal_free_order(&inst);
        assert_eq!(free.makespan, Time::units_int(8));
        assert!(is_feasible(&inst, &free.schedule));
        assert_eq!(optimal_same_order(&inst).makespan, Time::units_int(8));
        for order in [inst.task_ids(), vec![TaskId(1), TaskId(0)]] {
            let schedule = schedule_for_orders(&inst, &order, &order).unwrap();
            assert_eq!(schedule.makespan(&inst), Time::units_int(8));
        }
    }

    #[test]
    fn free_order_handles_zero_length_phases() {
        // Times drawn from 0..=9 make zero-length transfers and computations
        // common; the free-order optimum must exist and sit between OMIM and
        // the permutation optimum.
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..300 {
            let n = rng.gen_range(2..=4);
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
            let inst = builder
                .capacity(MemSize::from_bytes(capacity))
                .build()
                .unwrap();
            let free = optimal_free_order(&inst);
            assert!(is_feasible(&inst, &free.schedule), "{inst:?}");
            assert!(free.makespan >= johnson_makespan(&inst), "{inst:?}");
            assert!(
                free.makespan <= optimal_same_order(&inst).makespan,
                "{inst:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "refusing")]
    fn same_order_guard_rails() {
        let mut rng = StdRng::seed_from_u64(1);
        let inst = random_instance_decoupled_memory(&mut rng, 13, 2.0);
        let _ = optimal_same_order(&inst);
    }
}
