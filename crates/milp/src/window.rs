//! Exact solver for one window of the iterative `lp.k` heuristic.
//!
//! The paper solves the MILP on a small subset of tasks (k = 3..6) at a
//! time, freezing the events of tasks that started before the window
//! boundary. Here the same role is played by a branch-and-bound over the
//! orderings of the window, warm-started from the [`Machine`] (link and
//! processor availability, memory still held by earlier tasks) left by the
//! previous windows. For the window sizes the paper uses, enumerating
//! orderings is exact over permutation schedules and takes microseconds.

use dts_core::prelude::*;
use dts_core::simulate::Machine;

/// Result of scheduling one window.
#[derive(Debug, Clone)]
pub struct WindowSolution {
    /// Entries for the window's tasks (global task ids).
    pub entries: Vec<ScheduleEntry>,
    /// The machine after the window, to warm-start the next one.
    pub machine: Machine,
}

/// Executes `order` (tasks of the window, same order on both resources)
/// on a copy of `machine`, as [`simulate_sequence`] would continue it.
/// Returns the produced entries and the machine after them.
pub fn simulate_window(
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

/// Finds the best ordering of the window tasks by exhaustive enumeration
/// (exact for the small windows used by `lp.k`). "Best" minimizes the
/// completion time of the window's computations, breaking ties by the link
/// completion time (earlier transfers leave more slack for the next window),
/// then by enumeration order (first permutation found wins).
///
/// # Errors
///
/// [`CoreError::Internal`] if no order was enumerated.
pub fn solve_window(
    instance: &Instance,
    machine: &Machine,
    window: &[TaskId],
) -> Result<WindowSolution> {
    assert!(
        window.len() <= 8,
        "window enumeration is factorial; refusing windows larger than 8 tasks"
    );
    let mut best: Option<WindowSolution> = None;
    let mut order: Vec<TaskId> = window.to_vec();
    permute(&mut order, 0, &mut |candidate| {
        let (entries, machine) = simulate_window(instance, machine, candidate);
        // Strictly better only: among key-tied orderings the first one
        // enumerated wins.
        let key = |m: &Machine| (m.cpu_free(), m.link_free());
        if best
            .as_ref()
            .is_none_or(|b| key(&machine) < key(&b.machine))
        {
            best = Some(WindowSolution { entries, machine });
        }
    });
    best.ok_or_else(|| CoreError::Internal("no window order was enumerated".into()))
}

fn permute<F>(order: &mut Vec<TaskId>, k: usize, f: &mut F)
where
    F: FnMut(&[TaskId]),
{
    if k == order.len() {
        return f(order);
    }
    for i in k..order.len() {
        order.swap(k, i);
        permute(order, k + 1, f);
        order.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dts_core::instances::table3;
    use dts_core::simulate::simulate_sequence;

    #[test]
    fn window_simulation_matches_sequence_executor_from_scratch() {
        let inst = table3();
        let order = inst.task_ids();
        let (entries, after) = simulate_window(&inst, &Machine::new(&inst), &order);
        let reference = simulate_sequence(&inst, &order).unwrap();
        assert_eq!(entries, reference.entries());
        assert_eq!(after.cpu_free(), reference.makespan(&inst));
    }

    #[test]
    fn warm_started_window_respects_prior_memory() {
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
        let (entries, _) = simulate_window(&inst, &machine, &[TaskId(2)]);
        assert_eq!(entries[0].comm_start, Time::units_int(10));
        // Task B (mem 1) fits immediately at t = 4.
        let (entries, _) = simulate_window(&inst, &machine, &[TaskId(1)]);
        assert_eq!(entries[0].comm_start, Time::units_int(4));
    }

    #[test]
    fn solve_window_finds_the_best_order() {
        let inst = table3();
        let window = inst.task_ids();
        let solution = solve_window(&inst, &Machine::new(&inst), &window).unwrap();
        // Exhaustive over the same executor: must be at least as good as any
        // fixed order.
        for order in [
            vec![TaskId(0), TaskId(1), TaskId(2), TaskId(3)],
            vec![TaskId(1), TaskId(2), TaskId(0), TaskId(3)],
            vec![TaskId(2), TaskId(1), TaskId(0), TaskId(3)],
        ] {
            let reference = simulate_sequence(&inst, &order).unwrap();
            assert!(solution.machine.cpu_free() <= reference.makespan(&inst));
        }
        assert_eq!(solution.entries.len(), 4);
    }

    #[test]
    #[should_panic(expected = "refusing windows larger")]
    fn oversized_window_rejected() {
        let inst = table3();
        let window: Vec<TaskId> = (0..9).map(TaskId).collect();
        let _ = solve_window(&inst, &Machine::new(&inst), &window);
    }
}
