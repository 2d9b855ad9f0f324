//! Exact solvers for small instances, on the one [`Machine`] of
//! `dts_core::simulate`, under the instance's execution model.
//!
//! Two flavours are provided:
//!
//! * [`best_same_order`] — best common order of some tasks on the link and
//!   the processing unit, by a pruned depth-first search over appends to a
//!   [`Machine`]. [`optimal_same_order`] (the best *permutation schedule*)
//!   and each `lp.k` window of `dts_milp` run it;
//! * [`optimal_free_order`] — best schedule when the two orders may differ
//!   (the general problem; Proposition 1 shows this can be strictly better).
//!   Found by enumerating pairs of orders and scheduling each pair greedily
//!   on the machine ([`schedule_for_orders`]), which is optimal for fixed
//!   orders because starting a transfer earlier never delays later events.
//!
//! Both are exponential and intended for instances of at most ~10 tasks
//! (permutation) / ~7 tasks (free order); they exist to validate heuristics
//! and to reproduce the paper's Fig. 3.

use dts_core::prelude::*;
use dts_core::simulate::Machine;

/// An exact solution: the best schedule found together with its makespan.
#[derive(Debug, Clone)]
pub struct ExactSolution {
    /// The optimal schedule.
    pub schedule: Schedule,
    /// Its makespan.
    pub makespan: Time,
}

/// The best order of `tasks` appended to `machine`, the same order on both
/// resources: the one whose last computation ends first, ties broken by
/// the earlier link release (earlier transfers leave more slack for what
/// follows), then by the swap-enumeration order (the first order found
/// wins; `tasks` as given is the first). Returns the tasks' entries in
/// that order and the machine after them.
///
/// The search goes depth-first over the swap enumeration, with one machine
/// per depth. It cuts a prefix as soon as its `(cpu_free, link_free)` is
/// no better than the best complete order's: appending a task never moves
/// either back, under every execution model, so no cut order could have
/// been strictly better. It panics past 12 tasks: the search is factorial.
pub fn best_same_order(
    instance: &Instance,
    machine: &Machine,
    tasks: &[TaskId],
) -> (Vec<ScheduleEntry>, Machine) {
    let mut search = SameOrderSearch::new(machine);
    search.run(instance, machine, tasks);
    (search.entries, search.best)
}

/// The working state of [`best_same_order`], kept across searches so that
/// a caller running many (the `lp.k` windows) allocates only when a search
/// is deeper or a machine's queue longer than any before.
#[derive(Debug)]
pub struct SameOrderSearch {
    /// `machines[d]` is `machines[0]` after the prefix `order[..d]`.
    machines: Vec<Machine>,
    /// The order being permuted in place.
    order: Vec<TaskId>,
    /// The incumbent: its entries and the machine after them.
    entries: Vec<ScheduleEntry>,
    best: Machine,
}

impl SameOrderSearch {
    /// Empty buffers; `machine` is any machine of the instances to search.
    pub fn new(machine: &Machine) -> Self {
        SameOrderSearch {
            machines: Vec::new(),
            order: Vec::new(),
            entries: Vec::new(),
            best: machine.clone(),
        }
    }

    /// [`best_same_order`] in these buffers: the best order's entries and
    /// the machine after them, borrowed until the next search.
    pub fn run(
        &mut self,
        instance: &Instance,
        machine: &Machine,
        tasks: &[TaskId],
    ) -> (&[ScheduleEntry], &Machine) {
        let n = tasks.len();
        assert!(
            n <= 12,
            "the same-order search is exponential; refusing more than 12 tasks (got {n})"
        );
        if self.machines.len() <= n {
            self.machines.resize(n + 1, machine.clone());
        }
        self.machines[0].clone_from(machine);
        let SameOrderSearch {
            machines,
            order,
            entries,
            best,
        } = self;
        // `tasks` as given is the first order enumerated: the first
        // incumbent.
        append_all(instance, &machines[0], tasks, entries, best);
        order.clear();
        order.extend_from_slice(tasks);
        descend(instance, order, 0, machines, entries, best);
        (entries, best)
    }
}

/// `order` appended to `start`, into the incumbent: its entries and the
/// machine after them.
fn append_all(
    instance: &Instance,
    start: &Machine,
    order: &[TaskId],
    entries: &mut Vec<ScheduleEntry>,
    best: &mut Machine,
) {
    best.clone_from(start);
    entries.clear();
    entries.extend(order.iter().map(|&id| best.append(id, instance.task(id))));
}

/// One level of [`best_same_order`]'s search: `machines[depth]` is
/// `machines[0]` after the prefix `order[..depth]`, which below the root
/// is strictly better than the incumbent (`entries` and the machine `best`
/// after them).
fn descend(
    instance: &Instance,
    order: &mut [TaskId],
    depth: usize,
    machines: &mut [Machine],
    entries: &mut Vec<ScheduleEntry>,
    best: &mut Machine,
) {
    if depth == order.len() {
        append_all(instance, &machines[0], order, entries, best);
        return;
    }
    let key = |m: &Machine| (m.cpu_free(), m.link_free());
    for i in depth..order.len() {
        order.swap(depth, i);
        let (done, next) = machines.split_at_mut(depth + 1);
        next[0].clone_from(&done[depth]);
        next[0].append(order[depth], instance.task(order[depth]));
        if key(&next[0]) < key(best) {
            descend(instance, order, depth + 1, machines, entries, best);
        }
        order.swap(depth, i);
    }
}

/// The best permutation schedule: [`best_same_order`] over every task from
/// the idle machine, under the instance's execution model (so it panics
/// past 12 tasks). Its makespan is the end of the last computation.
pub fn optimal_same_order(instance: &Instance) -> ExactSolution {
    let (entries, machine) =
        best_same_order(instance, &Machine::new(instance), &instance.task_ids());
    ExactSolution {
        schedule: entries.into_iter().collect(),
        makespan: machine.cpu_free(),
    }
}

/// Greedy earliest-start schedule for a fixed pair of orders (communication
/// order, computation order) on the [`Machine`]. Returns `None` when the
/// pair deadlocks: the next computation's data cannot be transferred
/// because memory is full and can only be released by computations that
/// are ordered after it. Under the implicit model the orders must agree.
pub fn schedule_for_orders(
    instance: &Instance,
    comm_order: &[TaskId],
    comp_order: &[TaskId],
) -> Option<Schedule> {
    let mut buffers = PairBuffers::new(instance);
    buffers.schedule(instance, comm_order, comp_order)?;
    let mut schedule: Schedule = buffers.entries.into_iter().collect();
    schedule.normalize();
    Some(schedule)
}

/// The working state of [`schedule_for_orders`], reused across the pairs
/// of [`optimal_free_order`] so that a pair allocates nothing.
struct PairBuffers {
    /// The idle machine every pair starts from.
    idle: Machine,
    machine: Machine,
    /// `(transfer start, instant the computation may start)` once issued.
    issued: Vec<Option<(Time, Time)>>,
    /// The entries in computation order.
    entries: Vec<ScheduleEntry>,
}

impl PairBuffers {
    fn new(instance: &Instance) -> Self {
        let idle = Machine::new(instance);
        PairBuffers {
            machine: idle.clone(),
            idle,
            issued: vec![None; instance.len()],
            entries: Vec::with_capacity(instance.len()),
        }
    }

    /// Schedules the pair into `entries` and `machine` from the idle
    /// machine; `None` when the pair deadlocks.
    fn schedule(
        &mut self,
        instance: &Instance,
        comm_order: &[TaskId],
        comp_order: &[TaskId],
    ) -> Option<()> {
        let PairBuffers {
            idle,
            machine,
            issued,
            entries,
        } = self;
        machine.clone_from(idle);
        issued.fill(None);
        entries.clear();
        let mut transfers = comm_order.iter();
        for &id in comp_order {
            // Transfers issued before this computation wait only on placed ones.
            while issued[id.index()].is_none() {
                let &next = transfers.next()?;
                let task = instance.task(next);
                let t = machine.wait_to_fit(task)?;
                issued[next.index()] = Some((t, machine.transfer(task, t)));
            }
            let (comm_start, ready) = issued[id.index()]?;
            entries.push(ScheduleEntry {
                task: id,
                comm_start,
                comp_start: machine.compute(instance.task(id), ready),
            });
        }
        Some(())
    }
}

/// Exhaustive search over *pairs* of orders (communication, computation).
/// Optimal for the general problem `DT` restricted to left-shifted schedules,
/// which always contain an optimum. Under the implicit model each
/// computation is the tail of its own fused phase, so the two orders are
/// one and this is [`optimal_same_order`].
pub fn optimal_free_order(instance: &Instance) -> ExactSolution {
    let n = instance.len();
    assert!(
        n <= 7,
        "optimal_free_order enumerates pairs of permutations; refusing more than 7 tasks (got {n})"
    );
    if matches!(instance.model(), ExecutionModel::Implicit { .. }) {
        return optimal_same_order(instance);
    }
    let ids = instance.task_ids();
    // The identity pair, the first one enumerated, seeds the incumbent: a
    // common order never deadlocks, and its entries are in normalized order.
    let mut machine = Machine::new(instance);
    let mut best = ExactSolution {
        schedule: ids
            .iter()
            .map(|&id| machine.append(id, instance.task(id)))
            .collect(),
        makespan: machine.cpu_free(),
    };

    // The makespan of a pair is the end of its last computation; only a
    // strictly better pair's entries are copied out.
    let mut buffers = PairBuffers::new(instance);
    let mut comm_perm = ids.clone();
    let mut comp_perm = ids.clone();
    permute_all(&mut comm_perm, 0, &mut |comm_order| {
        permute_all(&mut comp_perm, 0, &mut |comp_order| {
            if buffers.schedule(instance, comm_order, comp_order).is_some()
                && buffers.machine.cpu_free() < best.makespan
            {
                let mut schedule: Schedule = buffers.entries.iter().copied().collect();
                schedule.normalize();
                best = ExactSolution {
                    makespan: buffers.machine.cpu_free(),
                    schedule,
                };
            }
        });
    });
    best
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
    use dts_core::simulate::simulate_sequence;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// `n` tasks with times drawn from 0..=9, so zero-length transfers and
    /// computations are common, and memories of 1..=6 bytes under a
    /// capacity between the largest task and their sum.
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
        let order: Vec<&str> = sol
            .schedule
            .entries()
            .iter()
            .map(|entry| inst.name(entry.task))
            .collect();
        assert_eq!(order, ["A", "B", "D", "F", "C", "E"]);
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
        // reproduce the sequence executor's schedule, zero-length phases
        // included.
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1500 {
            let n = rng.gen_range(1..=7);
            let factor = 1.0 + f64::from(rng.gen_range(0..=10u32)) / 10.0;
            for inst in [
                random_instance_decoupled_memory(&mut rng, n, factor),
                zero_heavy_instance(&mut rng, n),
            ] {
                let mut order = inst.task_ids();
                order.shuffle(&mut rng);
                let mut expected = simulate_sequence(&inst, &order).unwrap();
                expected.normalize();
                let schedule = schedule_for_orders(&inst, &order, &order);
                assert_eq!(schedule, Some(expected), "{inst:?}, order {order:?}");
            }
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
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..300 {
            let n = rng.gen_range(2..=4);
            let inst = zero_heavy_instance(&mut rng, n);
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
    fn warm_started_search_respects_prior_memory() {
        // Table 3 (capacity 6). A previous window left 5 bytes held until
        // t = 10 and the link free at t = 4: one task of 5 bytes with
        // transfer [0, 4) and computation [4, 10).
        let inst = table3();
        let earlier = InstanceBuilder::new()
            .capacity(inst.capacity())
            .task_units("P", 4.0, 6.0, 5)
            .build()
            .unwrap();
        let mut machine = Machine::new(&earlier);
        machine.append(TaskId(0), earlier.task(TaskId(0)));
        assert_eq!(machine.link_free(), Time::units_int(4));
        // Task C (mem 4) cannot start before t = 10.
        let (entries, _) = best_same_order(&inst, &machine, &[TaskId(2)]);
        assert_eq!(entries[0].comm_start, Time::units_int(10));
        // Task B (mem 1) fits immediately at t = 4.
        let (entries, _) = best_same_order(&inst, &machine, &[TaskId(1)]);
        assert_eq!(entries[0].comm_start, Time::units_int(4));
    }

    #[test]
    fn same_order_search_finds_the_best_order() {
        // Every order of Table 3 run from the idle machine: none ends its
        // computations earlier than the search's order.
        let inst = table3();
        let (entries, machine) = best_same_order(&inst, &Machine::new(&inst), &inst.task_ids());
        assert_eq!(entries.len(), 4);
        let mut order = inst.task_ids();
        permute_all(&mut order, 0, &mut |order| {
            let reference = simulate_sequence(&inst, order).unwrap();
            assert!(machine.cpu_free() <= reference.makespan(&inst), "{order:?}");
        });
    }

    #[test]
    #[should_panic(expected = "refusing")]
    fn same_order_guard_rails() {
        let mut rng = StdRng::seed_from_u64(1);
        let inst = random_instance_decoupled_memory(&mut rng, 13, 2.0);
        let _ = optimal_same_order(&inst);
    }
}
