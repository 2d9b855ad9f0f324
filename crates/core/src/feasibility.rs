//! Feasibility checking of schedules.
//!
//! A schedule is feasible (Section 3 of the paper) when:
//!
//! 1. every task of the instance is scheduled exactly once;
//! 2. each task's computation starts no earlier than its data is there;
//! 3. at most as many transfers are in progress at any time as the link
//!    has channels;
//! 4. at most one computation is in progress at any time (single processing
//!    unit);
//! 5. at every instant, the total memory held by *active* tasks — those with
//!    `SCOMM(i) <= t < SCOMP(i) + CP_i` — does not exceed the capacity `C`.
//!
//! Rules 2 and 3 read the instance's [`ExecutionModel`](crate::exec::ExecutionModel):
//!
//! | Model | Channels | Link held for | Computation starts from |
//! | --- | --- | --- | --- |
//! | explicit (the paper's), duplex, `streams:k` | 1, 2, `k` | `CM_i` | `SCOMM(i) + CM_i` |
//! | implicit | 1 | the fused phase `F_i` | `SCOMM(i) + F_i - CP_i` |
//!
//! where `F_i = CM_i + CP_i - efficiency * min(CM_i, CP_i)`: the
//! computation runs at the tail of the fused phase.

use crate::instance::Instance;
use crate::memory::{MemSize, MemoryProfile};
use crate::schedule::Schedule;
use crate::task::TaskId;
use crate::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// A single feasibility violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A task of the instance is missing from the schedule.
    MissingTask(TaskId),
    /// A task appears more than once in the schedule.
    DuplicateTask(TaskId),
    /// The schedule references a task id not present in the instance.
    UnknownTask(TaskId),
    /// A computation starts before its input data is there.
    ComputationBeforeTransfer {
        /// Offending task.
        task: TaskId,
        /// Earliest instant the computation may start: the end of the
        /// task's communication, or the start of its fused phase's
        /// computation tail under the implicit model.
        comm_end: Time,
        /// Start of the task's computation.
        comp_start: Time,
    },
    /// A communication starts while every channel of the link is busy.
    CommunicationOverlap {
        /// A task whose communication is still in progress (the first of
        /// them to end).
        first: TaskId,
        /// The task whose communication starts on the busy link.
        second: TaskId,
        /// Instant at which the overlap begins.
        at: Time,
    },
    /// Two computations overlap on the single processing unit.
    ComputationOverlap {
        /// A task whose computation is still in progress (the first of
        /// them to end).
        first: TaskId,
        /// The task whose computation starts on the busy processing unit.
        second: TaskId,
        /// Instant at which the overlap begins.
        at: Time,
    },
    /// Memory occupation exceeds the capacity.
    MemoryExceeded {
        /// Instant of the first violation.
        at: Time,
        /// Memory in use at that instant.
        used: MemSize,
        /// Capacity of the instance.
        capacity: MemSize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::MissingTask(t) => write!(f, "task {t} is not scheduled"),
            Violation::DuplicateTask(t) => write!(f, "task {t} is scheduled more than once"),
            Violation::UnknownTask(t) => write!(f, "schedule references unknown task {t}"),
            Violation::ComputationBeforeTransfer {
                task,
                comm_end,
                comp_start,
            } => write!(
                f,
                "task {task} computes at {comp_start} before its transfer completes at {comm_end}"
            ),
            Violation::CommunicationOverlap { first, second, at } => write!(
                f,
                "communications of {first} and {second} overlap on the link at {at}"
            ),
            Violation::ComputationOverlap { first, second, at } => write!(
                f,
                "computations of {first} and {second} overlap on the processor at {at}"
            ),
            Violation::MemoryExceeded { at, used, capacity } => {
                write!(f, "memory use {used} exceeds capacity {capacity} at {at}")
            }
        }
    }
}

/// Checks a schedule against an instance and returns every violation found.
/// An empty vector means the schedule is feasible.
pub fn validate(instance: &Instance, schedule: &Schedule) -> Vec<Violation> {
    let mut violations = Vec::new();

    // 1. Permutation of the task set.
    let mut seen = vec![false; instance.len()];
    for entry in schedule.entries() {
        match seen.get_mut(entry.task.index()) {
            None => violations.push(Violation::UnknownTask(entry.task)),
            Some(true) => violations.push(Violation::DuplicateTask(entry.task)),
            Some(slot) => *slot = true,
        }
    }
    for id in instance.task_ids() {
        if !seen[id.index()] {
            violations.push(Violation::MissingTask(id));
        }
    }
    // If the entries do not even form a permutation, the resource checks
    // below would be misleading; still run them on the known tasks so the
    // caller gets as much information as possible.

    let known: Schedule = schedule
        .entries()
        .iter()
        .filter(|e| e.task.index() < instance.len())
        .copied()
        .collect();

    // 2. Precedence: the computation starts no earlier than the end of
    // the transfer, or under the implicit model than the tail of the fused
    // phase, which lasts at least the computation.
    let model = instance.model();
    for entry in known.entries() {
        let task = instance.task(entry.task);
        let ready = entry.comm_start
            + (model.fused_duration(task.comm_time, task.comp_time) - task.comp_time);
        if entry.comp_start < ready {
            violations.push(Violation::ComputationBeforeTransfer {
                task: entry.task,
                comm_end: ready,
                comp_start: entry.comp_start,
            });
        }
    }

    // 3 & 4. Resource capacity: the link's channels and the processing
    // unit.
    let link = known.entries().iter().map(|e| {
        let task = instance.task(e.task);
        (
            e.comm_start,
            model.link_hold(task.comm_time, task.comp_time),
            e.task,
        )
    });
    for (first, second, at) in overlaps(link, model.channel_count()) {
        violations.push(Violation::CommunicationOverlap { first, second, at });
    }
    let cpu = known
        .entries()
        .iter()
        .map(|e| (e.comp_start, instance.task(e.task).comp_time, e.task));
    for (first, second, at) in overlaps(cpu, 1) {
        violations.push(Violation::ComputationOverlap { first, second, at });
    }

    // 5. Memory envelope (computed over the entries that reference known
    // tasks, so that an UnknownTask violation does not prevent reporting the
    // remaining problems).
    if instance.capacity() != MemSize::UNBOUNDED {
        let profile = MemoryProfile::of_schedule(instance, &known);
        if let Some(at) = profile.first_violation(instance.capacity()) {
            violations.push(Violation::MemoryExceeded {
                at,
                used: profile.usage_at(at),
                capacity: instance.capacity(),
            });
        }
    }

    violations
}

/// The instants at which more than `cap` of the half-open intervals
/// `[start, start + length)` overlap, as `(first, second, at)`: each
/// interval `second` that starts, at `at`, while `cap` others are still in
/// progress is reported once, with `first` the one of those that ends
/// first. Zero-length intervals occupy nothing and never conflict.
fn overlaps(
    intervals: impl Iterator<Item = (Time, Time, TaskId)>,
    cap: usize,
) -> Vec<(TaskId, TaskId, Time)> {
    let mut sorted: Vec<(Time, Time, TaskId)> = intervals
        .filter(|&(_, length, _)| length > Time::ZERO)
        .map(|(start, length, id)| (start, start + length, id))
        .collect();
    sorted.sort_unstable();
    let mut in_progress: BinaryHeap<Reverse<(Time, TaskId)>> = BinaryHeap::new();
    let mut found = Vec::new();
    for (start, end, id) in sorted {
        while in_progress
            .peek()
            .is_some_and(|&Reverse((busy_until, _))| busy_until <= start)
        {
            in_progress.pop();
        }
        if in_progress.len() >= cap {
            if let Some(&Reverse((_, first))) = in_progress.peek() {
                found.push((first, id, start));
            }
        }
        in_progress.push(Reverse((end, id)));
    }
    found
}

/// Convenience wrapper: `true` iff [`validate`] finds no violation.
pub fn is_feasible(instance: &Instance, schedule: &Schedule) -> bool {
    validate(instance, schedule).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecutionModel;
    use crate::instance::InstanceBuilder;
    use crate::schedule::ScheduleEntry;

    fn instance() -> Instance {
        InstanceBuilder::new()
            .capacity(MemSize::from_bytes(6))
            .task_units("A", 3.0, 2.0, 3)
            .task_units("B", 1.0, 3.0, 1)
            .task_units("C", 4.0, 4.0, 4)
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
    fn valid_schedule_passes() {
        let inst = instance();
        // B [0,1)+[1,4), A [1,4)+[4,6), C [6,10)+[10,14): B+A = 4 <= 6,
        // then C alone.
        let sched: Schedule = vec![entry(1, 0.0, 1.0), entry(0, 1.0, 4.0), entry(2, 6.0, 10.0)]
            .into_iter()
            .collect();
        assert!(is_feasible(&inst, &sched), "{:?}", validate(&inst, &sched));
    }

    #[test]
    fn missing_and_duplicate_tasks_detected() {
        let inst = instance();
        let sched: Schedule = vec![entry(1, 0.0, 1.0), entry(1, 5.0, 6.0)]
            .into_iter()
            .collect();
        let v = validate(&inst, &sched);
        assert!(v.contains(&Violation::DuplicateTask(TaskId(1))));
        assert!(v.contains(&Violation::MissingTask(TaskId(0))));
        assert!(v.contains(&Violation::MissingTask(TaskId(2))));
    }

    #[test]
    fn unknown_task_detected() {
        let inst = instance();
        let sched: Schedule = vec![
            entry(0, 0.0, 3.0),
            entry(1, 3.0, 5.0),
            entry(2, 5.0, 9.0),
            entry(9, 20.0, 30.0),
        ]
        .into_iter()
        .collect();
        let v = validate(&inst, &sched);
        assert!(v.contains(&Violation::UnknownTask(TaskId(9))));
    }

    #[test]
    fn precedence_violation_detected() {
        let inst = instance();
        // A computes before its 3-unit transfer completes.
        let sched: Schedule = vec![entry(0, 0.0, 2.0), entry(1, 3.0, 4.0), entry(2, 4.0, 8.0)]
            .into_iter()
            .collect();
        let v = validate(&inst, &sched);
        assert!(v.iter().any(
            |x| matches!(x, Violation::ComputationBeforeTransfer { task, .. } if *task == TaskId(0))
        ));

        // Under the implicit model the computation runs at the tail of the
        // fused phase. A (comm 3, comp 2) at full efficiency fuses into
        // [0, 3), so its computation may start at 1 but not at 0.5; at
        // half efficiency the phase lasts 4 and the tail starts at 2.
        let lone = InstanceBuilder::new()
            .task_units("A", 3.0, 2.0, 3)
            .build()
            .unwrap();
        for (spec, ready) in [("implicit:1", 1.0), ("implicit:0.5", 2.0)] {
            let model = ExecutionModel::parse(spec).unwrap();
            let fused = lone.clone().with_model(model).unwrap();
            let on_time: Schedule = vec![entry(0, 0.0, ready)].into_iter().collect();
            assert!(
                is_feasible(&fused, &on_time),
                "{spec}: {:?}",
                validate(&fused, &on_time)
            );
            let early: Schedule = vec![entry(0, 0.0, ready - 0.5)].into_iter().collect();
            assert_eq!(
                validate(&fused, &early),
                vec![Violation::ComputationBeforeTransfer {
                    task: TaskId(0),
                    comm_end: Time::units(ready),
                    comp_start: Time::units(ready - 0.5),
                }],
                "{spec}"
            );
        }
        // The explicit model waits for the whole transfer.
        let early: Schedule = vec![entry(0, 0.0, 1.0)].into_iter().collect();
        assert!(!is_feasible(&lone, &early));
    }

    #[test]
    fn link_overlap_detected() {
        let inst = instance();
        let sched: Schedule = vec![entry(0, 0.0, 3.0), entry(1, 2.0, 5.0), entry(2, 5.0, 9.0)]
            .into_iter()
            .collect();
        let v = validate(&inst, &sched);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::CommunicationOverlap { .. })));

        // Two short transfers inside one long one: both overlap it,
        // although the first short one ends before the second starts.
        let nested = InstanceBuilder::new()
            .task_units("A", 10.0, 1.0, 1)
            .task_units("B", 1.0, 1.0, 1)
            .task_units("C", 1.0, 1.0, 1)
            .build()
            .unwrap();
        let sched: Schedule = vec![
            entry(0, 0.0, 10.0),
            entry(1, 1.0, 11.0),
            entry(2, 3.0, 12.0),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            validate(&nested, &sched),
            vec![
                Violation::CommunicationOverlap {
                    first: TaskId(0),
                    second: TaskId(1),
                    at: Time::units_int(1),
                },
                Violation::CommunicationOverlap {
                    first: TaskId(0),
                    second: TaskId(2),
                    at: Time::units_int(3),
                },
            ]
        );

        // `n` transfers of [0, 10) with their computations one after the
        // other: feasible iff the link has `n` channels.
        let transfers_at_once = |n: usize, model: ExecutionModel| -> Vec<Violation> {
            let mut builder = InstanceBuilder::new();
            for i in 0..n {
                builder = builder.task_units(&format!("t{i}"), 10.0, 1.0, 1);
            }
            let inst = builder.build().unwrap().with_model(model).unwrap();
            let sched: Schedule = (0..n).map(|i| entry(i, 0.0, 10.0 + i as f64)).collect();
            validate(&inst, &sched)
        };
        let rejects = |v: &[Violation]| {
            !v.is_empty()
                && v.iter()
                    .all(|x| matches!(x, Violation::CommunicationOverlap { .. }))
        };
        for (model, channels) in [
            (ExecutionModel::Explicit, 1),
            (ExecutionModel::Duplex, 2),
            (ExecutionModel::Streams { k: 1 }, 1),
            (ExecutionModel::Streams { k: 3 }, 3),
            (ExecutionModel::IMPLICIT_FULL, 1),
        ] {
            assert_eq!(transfers_at_once(channels, model), vec![], "{model}");
            let over = transfers_at_once(channels + 1, model);
            assert!(rejects(&over), "{model}: {over:?}");
        }
        // The implicit model holds the link for the whole fused phase:
        // comm 2, comp 4 at half efficiency fuses into [0, 5), so a second
        // transfer at 4 still finds the link busy.
        let inst = InstanceBuilder::new()
            .task_units("A", 2.0, 4.0, 1)
            .task_units("B", 1.0, 1.0, 1)
            .build()
            .unwrap();
        let sched: Schedule = vec![entry(0, 0.0, 2.0), entry(1, 4.0, 6.0)]
            .into_iter()
            .collect();
        assert!(is_feasible(&inst, &sched), "{:?}", validate(&inst, &sched));
        let half = inst
            .with_model(ExecutionModel::parse("implicit:0.5").unwrap())
            .unwrap();
        let v = validate(&half, &sched);
        assert!(v.contains(&Violation::CommunicationOverlap {
            first: TaskId(0),
            second: TaskId(1),
            at: Time::units_int(4),
        }));
    }

    #[test]
    fn cpu_overlap_detected() {
        let inst = instance();
        let sched: Schedule = vec![entry(1, 0.0, 1.0), entry(0, 1.0, 3.5), entry(2, 6.0, 10.0)]
            .into_iter()
            .collect();
        // B computes [1,4), A computes [3.5,5.5): overlap.
        let v = validate(&inst, &sched);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::ComputationOverlap { .. })));
    }

    #[test]
    fn memory_violation_detected() {
        let inst = instance();
        // A and C both held from t=0/3: 3 + 4 = 7 > 6.
        let sched: Schedule = vec![entry(0, 0.0, 3.0), entry(2, 3.0, 7.0), entry(1, 7.0, 11.0)]
            .into_iter()
            .collect();
        let v = validate(&inst, &sched);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::MemoryExceeded { .. })));

        // Past `i64::MAX` bytes: two tasks that each fill the capacity
        // overlap from t=1, and their sum exceeds even `u64::MAX`.
        let huge = u64::MAX - 10;
        let inst = InstanceBuilder::new()
            .capacity(MemSize::from_bytes(huge))
            .task_units("A", 1.0, 2.0, huge)
            .task_units("B", 1.0, 2.0, huge)
            .build()
            .unwrap();
        let sched: Schedule = vec![entry(0, 0.0, 1.0), entry(1, 1.0, 3.0)]
            .into_iter()
            .collect();
        assert_eq!(
            validate(&inst, &sched),
            vec![Violation::MemoryExceeded {
                at: Time::units_int(1),
                used: MemSize::UNBOUNDED,
                capacity: MemSize::from_bytes(huge),
            }]
        );
        let one_at_a_time: Schedule = vec![entry(0, 0.0, 1.0), entry(1, 3.0, 4.0)]
            .into_iter()
            .collect();
        assert!(is_feasible(&inst, &one_at_a_time));
    }

    #[test]
    fn zero_length_tasks_do_not_conflict() {
        // Tasks with zero communication (like K0 in the NP-hardness
        // reduction) may share a start instant with a real transfer.
        let inst = InstanceBuilder::new()
            .capacity(MemSize::from_bytes(10))
            .task_units("K0", 0.0, 3.0, 0)
            .task_units("A", 2.0, 1.0, 2)
            .build()
            .unwrap();
        let sched: Schedule = vec![entry(0, 0.0, 0.0), entry(1, 0.0, 3.0)]
            .into_iter()
            .collect();
        assert!(is_feasible(&inst, &sched), "{:?}", validate(&inst, &sched));
    }

    #[test]
    fn unbounded_capacity_skips_memory_check() {
        let inst = InstanceBuilder::new()
            .task_units("A", 3.0, 2.0, u64::MAX / 4)
            .task_units("B", 1.0, 3.0, u64::MAX / 4)
            .build()
            .unwrap();
        let sched: Schedule = vec![entry(0, 0.0, 3.0), entry(1, 3.0, 5.0)]
            .into_iter()
            .collect();
        assert!(is_feasible(&inst, &sched));
    }

    #[test]
    fn violations_display() {
        let v = Violation::MemoryExceeded {
            at: Time::units_int(3),
            used: MemSize::from_bytes(7),
            capacity: MemSize::from_bytes(6),
        };
        assert!(v.to_string().contains("exceeds capacity"));
        assert!(Violation::MissingTask(TaskId(1)).to_string().contains("T1"));
    }
}
