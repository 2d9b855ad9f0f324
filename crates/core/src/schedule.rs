//! Schedules: complete assignments of communication and computation start
//! times to every task.

use crate::instance::Instance;
use crate::task::TaskId;
use crate::time::Time;
use serde::Serialize;

/// Start times of one task on the two resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ScheduleEntry {
    /// The task being scheduled.
    pub task: TaskId,
    /// `SCOMM(i)`: start of the input-data transfer on the communication
    /// link.
    pub comm_start: Time,
    /// `SCOMP(i)`: start of the computation on the processing unit.
    pub comp_start: Time,
}

/// A complete schedule: one [`ScheduleEntry`] per task.
///
/// Entries are kept in the order in which they were produced, which for all
/// heuristics in this workspace is the communication order. Use
/// [`Schedule::comm_order`] / [`Schedule::comp_order`] when an explicit
/// resource order is needed (they sort by start time and are therefore
/// correct even for schedules built in arbitrary entry order, e.g. by the
/// MILP solver).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize)]
pub struct Schedule {
    entries: Vec<ScheduleEntry>,
}

impl Schedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Schedule::default()
    }

    /// Creates an empty schedule with room for `n` entries.
    pub fn with_capacity(n: usize) -> Self {
        Schedule {
            entries: Vec::with_capacity(n),
        }
    }

    /// Appends an entry.
    pub fn push(&mut self, entry: ScheduleEntry) {
        self.entries.push(entry);
    }

    /// Number of scheduled tasks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff no task has been scheduled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries in insertion order.
    pub fn entries(&self) -> &[ScheduleEntry] {
        &self.entries
    }

    /// The entry for a given task, if scheduled.
    pub fn entry(&self, task: TaskId) -> Option<&ScheduleEntry> {
        self.entries.iter().find(|e| e.task == task)
    }

    /// Makespan: the latest computation completion time.
    pub fn makespan(&self, instance: &Instance) -> Time {
        self.entries
            .iter()
            .map(|e| e.comp_start + instance.task(e.task).comp_time)
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Latest communication completion time (always at most the makespan in
    /// a feasible schedule with non-zero computations, but useful for link
    /// utilization metrics).
    pub fn comm_finish(&self, instance: &Instance) -> Time {
        self.entries
            .iter()
            .map(|e| e.comm_start + instance.task(e.task).comm_time)
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Task ids sorted by communication start time (ties broken by task id,
    /// which only matters for zero-length communications).
    pub fn comm_order(&self) -> Vec<TaskId> {
        let mut order: Vec<&ScheduleEntry> = self.entries.iter().collect();
        order.sort_by_key(|e| (e.comm_start, e.task));
        order.iter().map(|e| e.task).collect()
    }

    /// Task ids sorted by computation start time.
    pub fn comp_order(&self) -> Vec<TaskId> {
        let mut order: Vec<&ScheduleEntry> = self.entries.iter().collect();
        order.sort_by_key(|e| (e.comp_start, e.task));
        order.iter().map(|e| e.task).collect()
    }

    /// `true` iff communications and computations happen in the same order
    /// (a *permutation schedule*). All heuristics of the paper except the
    /// MILP produce permutation schedules; Proposition 1 shows the optimum
    /// may require breaking this property.
    pub fn is_permutation_schedule(&self) -> bool {
        self.comm_order() == self.comp_order()
    }

    /// Sorts entries by communication start time in place (normalization
    /// used before rendering or comparing schedules built out of order).
    pub fn normalize(&mut self) {
        self.entries.sort_by_key(|e| (e.comm_start, e.task));
    }
}

impl FromIterator<ScheduleEntry> for Schedule {
    fn from_iter<I: IntoIterator<Item = ScheduleEntry>>(iter: I) -> Self {
        Schedule {
            entries: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::memory::MemSize;

    fn instance() -> Instance {
        InstanceBuilder::new()
            .capacity(MemSize::from_bytes(100))
            .task_units("A", 2.0, 3.0, 2)
            .task_units("B", 1.0, 4.0, 1)
            .build()
            .unwrap()
    }

    fn entry(task: usize, comm: f64, comp: f64) -> ScheduleEntry {
        ScheduleEntry {
            task: TaskId(task),
            comm_start: Time::units(comm),
            comp_start: Time::units(comp),
        }
    }

    #[test]
    fn makespan_and_orders() {
        let inst = instance();
        let sched: Schedule = vec![entry(0, 0.0, 2.0), entry(1, 2.0, 5.0)]
            .into_iter()
            .collect();
        assert_eq!(sched.len(), 2);
        assert_eq!(sched.makespan(&inst), Time::units_int(9)); // B: 5 + 4
        assert_eq!(sched.comm_finish(&inst), Time::units_int(3)); // B: 2 + 1
        assert_eq!(sched.comm_order(), vec![TaskId(0), TaskId(1)]);
        assert_eq!(sched.comp_order(), vec![TaskId(0), TaskId(1)]);
        assert!(sched.is_permutation_schedule());
        assert_eq!(
            sched.entry(TaskId(1)).unwrap().comp_start,
            Time::units_int(5)
        );
        assert!(sched.entry(TaskId(7)).is_none());
    }

    #[test]
    fn non_permutation_detected() {
        let sched: Schedule = vec![entry(0, 0.0, 10.0), entry(1, 2.0, 3.0)]
            .into_iter()
            .collect();
        // A communicates first but computes second.
        assert!(!sched.is_permutation_schedule());
    }

    #[test]
    fn normalize_sorts_by_comm_start() {
        let mut sched: Schedule = vec![entry(1, 5.0, 6.0), entry(0, 0.0, 2.0)]
            .into_iter()
            .collect();
        sched.normalize();
        assert_eq!(sched.entries()[0].task, TaskId(0));
        assert_eq!(sched.entries()[1].task, TaskId(1));
    }

    #[test]
    fn empty_schedule_makespan_is_zero() {
        let inst = instance();
        let sched = Schedule::new();
        assert!(sched.is_empty());
        assert_eq!(sched.makespan(&inst), Time::ZERO);
    }

    #[test]
    fn serde_round_trip() {
        let sched: Schedule = vec![entry(0, 0.0, 2.0), entry(1, 2.0, 5.0)]
            .into_iter()
            .collect();
        // Only the render half: schedules are written, never read back.
        assert_eq!(
            serde_json::to_string(&sched).unwrap(),
            r#"{"entries":[{"task":0,"comm_start":0,"comp_start":2000},{"task":1,"comm_start":2000,"comp_start":5000}]}"#
        );
    }
}
