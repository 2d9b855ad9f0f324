//! Makespan, idle-time and overlap metrics for schedules.

use crate::instance::Instance;
use crate::schedule::{Schedule, ScheduleEntry};
use crate::time::Time;

/// Summary metrics of a schedule.
///
/// The paper's headline metric is the *ratio to optimal*
/// `r(H) = makespan(H) / OMIM`; [`ScheduleMetrics::ratio_to`] computes it
/// given the `OMIM` bound. The other fields quantify how much
/// communication/computation overlap the schedule achieves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleMetrics {
    /// Completion time of the last computation.
    pub makespan: Time,
    /// Total time the communication link is busy (sum of transfer times).
    pub comm_busy: Time,
    /// Total time the processing unit is busy (sum of computation times).
    pub comp_busy: Time,
    /// Time during which both resources are busy simultaneously — the
    /// achieved communication/computation overlap.
    pub overlap: Time,
    /// Idle time on the communication link before its last transfer ends.
    pub comm_idle: Time,
    /// Idle time on the processing unit before the makespan.
    pub comp_idle: Time,
}

impl ScheduleMetrics {
    /// Computes the metrics of `schedule` on `instance`.
    ///
    /// The schedule is assumed feasible (exclusive resources); overlapping
    /// intervals would make the busy-time accounting meaningless.
    pub fn of(instance: &Instance, schedule: &Schedule) -> Self {
        // A task's transfer and computation as half-open intervals.
        let intervals = |e: &ScheduleEntry| {
            let task = instance.task(e.task);
            (
                (e.comm_start, e.comm_start + task.comm_time),
                (e.comp_start, e.comp_start + task.comp_time),
            )
        };
        let nonempty = |&(start, end): &(Time, Time)| end > start;

        // One pass for the busy sums and the last ends, which also finds
        // whether both streams of nonempty intervals are already in start
        // order, as executor schedules list them.
        let (mut comm_busy, mut comp_busy) = (Time::ZERO, Time::ZERO);
        let (mut comm_finish, mut makespan) = (Time::ZERO, Time::ZERO);
        let (mut last_comm, mut last_comp) = (None, None);
        let mut in_order = true;
        for e in schedule.entries() {
            let (comm, comp) = intervals(e);
            comm_busy += comm.1 - comm.0;
            comp_busy += comp.1 - comp.0;
            comm_finish = comm_finish.max(comm.1);
            makespan = makespan.max(comp.1);
            for (interval, last) in [(comm, &mut last_comm), (comp, &mut last_comp)] {
                if nonempty(&interval) {
                    in_order &= *last <= Some(interval);
                    *last = Some(interval);
                }
            }
        }

        // Overlap: total measure of instants where a transfer and a
        // computation are simultaneously in progress, merged from the two
        // interval lists in start order. Streams already in that order
        // are merged as they stand, since sorting would change nothing;
        // any other schedule is sorted first.
        let comm_intervals = || {
            schedule
                .entries()
                .iter()
                .map(|e| intervals(e).0)
                .filter(nonempty)
        };
        let comp_intervals = || {
            schedule
                .entries()
                .iter()
                .map(|e| intervals(e).1)
                .filter(nonempty)
        };
        let overlap = if in_order {
            interval_intersection(comm_intervals(), comp_intervals())
        } else {
            let mut comm: Vec<(Time, Time)> = comm_intervals().collect();
            let mut comp: Vec<(Time, Time)> = comp_intervals().collect();
            comm.sort();
            comp.sort();
            interval_intersection(comm, comp)
        };

        ScheduleMetrics {
            makespan,
            comm_busy,
            comp_busy,
            overlap,
            comm_idle: comm_finish.saturating_sub(comm_busy),
            comp_idle: makespan.saturating_sub(comp_busy),
        }
    }

    /// Ratio of this schedule's makespan to a reference makespan (usually
    /// `OMIM`). Returns `1.0` when both are zero.
    pub fn ratio_to(&self, reference: Time) -> f64 {
        self.makespan.ratio(reference)
    }

    /// Fraction of the total communication time that is overlapped with
    /// computation, in `[0, 1]`.
    pub fn overlap_fraction(&self) -> f64 {
        if self.comm_busy.is_zero() {
            0.0
        } else {
            self.overlap.ticks() as f64 / self.comm_busy.ticks() as f64
        }
    }
}

/// Total measure of the intersection of two sorted lists of disjoint
/// half-open intervals.
fn interval_intersection(
    a: impl IntoIterator<Item = (Time, Time)>,
    b: impl IntoIterator<Item = (Time, Time)>,
) -> Time {
    let (mut a, mut b) = (a.into_iter(), b.into_iter());
    let (mut x, mut y) = (a.next(), b.next());
    let mut total = Time::ZERO;
    while let (Some((x_start, x_end)), Some((y_start, y_end))) = (x, y) {
        let start = x_start.max(y_start);
        let end = x_end.min(y_end);
        if end > start {
            total += end - start;
        }
        if x_end <= y_end {
            x = a.next();
        } else {
            y = b.next();
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecutionModel;
    use crate::instance::InstanceBuilder;
    use crate::instances::{random_instance, RandomInstanceConfig};
    use crate::memory::MemSize;
    use crate::simulate::{simulate_sequence, simulate_sequence_infinite};
    use crate::task::TaskId;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn table3() -> Instance {
        InstanceBuilder::new()
            .capacity(MemSize::from_bytes(6))
            .task_units("A", 3.0, 2.0, 3)
            .task_units("B", 1.0, 3.0, 1)
            .task_units("C", 4.0, 4.0, 4)
            .task_units("D", 2.0, 1.0, 2)
            .build()
            .unwrap()
    }

    #[test]
    fn metrics_on_omim_schedule() {
        let inst = table3();
        let order = [TaskId(1), TaskId(2), TaskId(0), TaskId(3)];
        let sched = simulate_sequence_infinite(&inst, &order).unwrap();
        let m = ScheduleMetrics::of(&inst, &sched);
        assert_eq!(m.makespan, Time::units_int(12));
        assert_eq!(m.comm_busy, Time::units_int(10));
        assert_eq!(m.comp_busy, Time::units_int(10));
        // Fig. 4a: comm [0,10), comp busy [1,12) except idle [4,5):
        // overlap = comm time after t=1 minus the comp idle slot [4,5).
        assert_eq!(m.overlap, Time::units_int(8));
        assert_eq!(m.comm_idle, Time::ZERO);
        assert_eq!(m.comp_idle, Time::units_int(2));
        assert!((m.ratio_to(Time::units_int(12)) - 1.0).abs() < 1e-12);
        assert!((m.overlap_fraction() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn ratio_to_reference() {
        let inst = table3();
        let order = [TaskId(1), TaskId(2), TaskId(0), TaskId(3)];
        let sched = simulate_sequence(&inst, &order).unwrap();
        let m = ScheduleMetrics::of(&inst, &sched);
        assert_eq!(m.makespan, Time::units_int(15));
        assert!((m.ratio_to(Time::units_int(12)) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn interval_intersection_basic() {
        let a = vec![(Time::units_int(0), Time::units_int(5))];
        let b = vec![
            (Time::units_int(1), Time::units_int(2)),
            (Time::units_int(4), Time::units_int(9)),
        ];
        assert_eq!(
            interval_intersection(a.clone(), b.clone()),
            Time::units_int(2)
        );
        assert_eq!(interval_intersection(b, a.clone()), Time::units_int(2));
        assert_eq!(interval_intersection(a, []), Time::ZERO);
    }

    /// The overlap by the collect-and-sort computation: both interval
    /// lists collected, sorted and merged by index.
    fn sorted_overlap(instance: &Instance, schedule: &Schedule) -> Time {
        let intervals = |span: fn(&ScheduleEntry, &Instance) -> (Time, Time)| {
            let mut list: Vec<(Time, Time)> = schedule
                .entries()
                .iter()
                .map(|e| span(e, instance))
                .filter(|(s, e)| e > s)
                .collect();
            list.sort();
            list
        };
        let a = intervals(|e, inst| (e.comm_start, e.comm_start + inst.task(e.task).comm_time));
        let b = intervals(|e, inst| (e.comp_start, e.comp_start + inst.task(e.task).comp_time));
        let mut total = Time::ZERO;
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let start = a[i].0.max(b[j].0);
            let end = a[i].1.min(b[j].1);
            if end > start {
                total += end - start;
            }
            if a[i].1 <= b[j].1 {
                i += 1;
            } else {
                j += 1;
            }
        }
        total
    }

    #[test]
    fn entry_order_does_not_change_the_metrics() {
        // Executor schedules take the in-place merge; their shuffled
        // entries take the sorting path, as do `streams:2` schedules
        // whose transfers start together and end out of order. Both
        // paths must read what collect-and-sort reads.
        let mut rng = StdRng::seed_from_u64(17);
        for spec in ["explicit", "duplex", "streams:2", "implicit:0.5"] {
            let model = ExecutionModel::parse(spec).unwrap();
            for n in [1, 3, 8, 30] {
                let inst = random_instance(
                    &mut rng,
                    RandomInstanceConfig {
                        n_tasks: n,
                        capacity_factor: 1.5,
                        ..Default::default()
                    },
                )
                .with_model(model)
                .unwrap();
                let mut order = inst.task_ids();
                order.shuffle(&mut rng);
                for sched in [
                    simulate_sequence(&inst, &order).unwrap(),
                    simulate_sequence_infinite(&inst, &order).unwrap(),
                ] {
                    let m = ScheduleMetrics::of(&inst, &sched);
                    assert_eq!(
                        m.overlap,
                        sorted_overlap(&inst, &sched),
                        "{spec}, {n} tasks"
                    );
                    let mut entries = sched.entries().to_vec();
                    entries.shuffle(&mut rng);
                    let shuffled: Schedule = entries.into_iter().collect();
                    assert_eq!(
                        ScheduleMetrics::of(&inst, &shuffled),
                        m,
                        "{spec}, {n} tasks"
                    );
                }
            }
        }
    }

    #[test]
    fn sequential_schedule_has_zero_overlap() {
        let inst = InstanceBuilder::new()
            .capacity(MemSize::from_bytes(1))
            .task_units("A", 2.0, 3.0, 1)
            .task_units("B", 4.0, 1.0, 1)
            .build()
            .unwrap();
        // Capacity 1 forces fully sequential execution.
        let sched = simulate_sequence(&inst, &[TaskId(0), TaskId(1)]).unwrap();
        let m = ScheduleMetrics::of(&inst, &sched);
        assert_eq!(m.overlap, Time::ZERO);
        assert_eq!(m.makespan, Time::units_int(10));
        assert_eq!(m.overlap_fraction(), 0.0);
    }
}
