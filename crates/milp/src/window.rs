//! Exact solver for one window of the iterative `lp.k` heuristic.
//!
//! The paper solves the MILP on a small subset of tasks (k = 3..6) at a
//! time, freezing the events of tasks that started before the window
//! boundary. Here the same role is played by a branch-and-bound over the
//! orderings of the window, warm-started from the *runtime state* (link and
//! processor availability, memory still held by earlier tasks) left by the
//! previous windows. For the window sizes the paper uses, enumerating
//! orderings is exact over permutation schedules and takes microseconds.

use dts_core::prelude::*;

/// Runtime state carried across windows: availability of both resources and
/// the memory still held by tasks scheduled in previous windows.
#[derive(Debug, Clone, Default)]
pub struct WindowState {
    /// Instant at which the communication link becomes free.
    pub link_free: Time,
    /// Instant at which the processing unit becomes free.
    pub cpu_free: Time,
    /// Releases pending from previous windows: `(computation end, memory)`.
    pub pending_releases: Vec<(Time, MemSize)>,
}

impl WindowState {
    /// Memory still held at instant `t`.
    pub fn held_at(&self, t: Time) -> MemSize {
        self.pending_releases
            .iter()
            .filter(|(end, _)| *end > t)
            .map(|(_, m)| *m)
            .sum()
    }
}

/// Result of scheduling one window.
#[derive(Debug, Clone)]
pub struct WindowSolution {
    /// Entries for the window's tasks (global task ids).
    pub entries: Vec<ScheduleEntry>,
    /// State after the window, to warm-start the next one.
    pub state: WindowState,
}

/// Simulates the execution of `order` (tasks of the window, same order on
/// both resources) starting from `state`. Returns the produced entries and
/// the resulting state.
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
        // Wait for enough memory, stepping through release instants.
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

    // Releases still pending after the window (computations that end after
    // the link becomes free are the only ones that can constrain the future).
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

/// Finds the best ordering of the window tasks by exhaustive enumeration
/// (exact for the small windows used by `lp.k`). "Best" minimizes the
/// completion time of the window's computations, breaking ties by the link
/// completion time (earlier transfers leave more slack for the next window),
/// then by enumeration order (first permutation found wins).
pub fn solve_window(instance: &Instance, state: &WindowState, window: &[TaskId]) -> WindowSolution {
    assert!(
        window.len() <= 8,
        "window enumeration is factorial; refusing windows larger than 8 tasks"
    );
    let mut best: Option<WindowSolution> = None;
    let mut order: Vec<TaskId> = window.to_vec();
    permute(&mut order, 0, &mut |candidate| {
        let (entries, state) = simulate_window(instance, state, candidate);
        // Strictly better only: among key-tied orderings the first one
        // enumerated wins.
        if best.as_ref().is_none_or(|b| {
            (state.cpu_free, state.link_free) < (b.state.cpu_free, b.state.link_free)
        }) {
            best = Some(WindowSolution { entries, state });
        }
    });
    best.expect("window is non-empty")
}

fn permute<F: FnMut(&[TaskId])>(order: &mut Vec<TaskId>, k: usize, f: &mut F) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use dts_core::instances::table3;
    use dts_core::simulate::simulate_sequence;

    #[test]
    fn window_simulation_matches_sequence_executor_from_scratch() {
        let inst = table3();
        let order = inst.task_ids();
        let (entries, after) = simulate_window(&inst, &WindowState::default(), &order);
        let reference = simulate_sequence(&inst, &order).unwrap();
        assert_eq!(entries, reference.entries());
        assert_eq!(after.cpu_free, reference.makespan(&inst));
    }

    #[test]
    fn warm_started_window_respects_prior_memory() {
        // Table 3 (capacity 6). Pretend a previous window left 5 bytes
        // held until t = 10 and the link free at t = 4.
        let inst = table3();
        let state = WindowState {
            link_free: Time::units_int(4),
            cpu_free: Time::units_int(10),
            pending_releases: vec![(Time::units_int(10), MemSize::from_bytes(5))],
        };
        // Task C (mem 4) cannot start before t = 10.
        let (entries, _) = simulate_window(&inst, &state, &[TaskId(2)]);
        assert_eq!(entries[0].comm_start, Time::units_int(10));
        // Task B (mem 1) fits immediately at t = 4.
        let (entries, _) = simulate_window(&inst, &state, &[TaskId(1)]);
        assert_eq!(entries[0].comm_start, Time::units_int(4));
    }

    #[test]
    fn solve_window_finds_the_best_order() {
        let inst = table3();
        let window = inst.task_ids();
        let solution = solve_window(&inst, &WindowState::default(), &window);
        // Exhaustive over the same executor: must be at least as good as any
        // fixed order.
        for order in [
            vec![TaskId(0), TaskId(1), TaskId(2), TaskId(3)],
            vec![TaskId(1), TaskId(2), TaskId(0), TaskId(3)],
            vec![TaskId(2), TaskId(1), TaskId(0), TaskId(3)],
        ] {
            let reference = simulate_sequence(&inst, &order).unwrap();
            assert!(solution.state.cpu_free <= reference.makespan(&inst));
        }
        assert_eq!(solution.entries.len(), 4);
    }

    #[test]
    #[should_panic(expected = "refusing windows larger")]
    fn oversized_window_rejected() {
        let inst = table3();
        let window: Vec<TaskId> = (0..9).map(TaskId).collect();
        let _ = solve_window(&inst, &WindowState::default(), &window);
    }
}
