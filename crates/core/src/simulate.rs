//! Event-driven executors.
//!
//! The heuristics of the paper (except the MILP) all produce a *sequence* of
//! tasks which is then executed in the same order on the communication link
//! and on the processing unit. This module contains the two executors that
//! turn a sequence into a concrete [`Schedule`]:
//!
//! * [`simulate_sequence_infinite`] ignores the memory capacity; with the
//!   Johnson order it produces the `OMIM` lower bound (Algorithm 1 of the
//!   paper);
//! * [`simulate_sequence`] enforces the memory capacity: a task's
//!   communication is delayed until enough previously-acquired memory has
//!   been released by finished computations. This is the executor used by
//!   all the static heuristics of Section 4.1.
//!
//! Both executors honor the instance's [`ExecutionModel`] (the paper's
//! half-duplex [`ExecutionModel::Explicit`] unless one was attached with
//! [`Instance::with_model`]). Under the multi-channel models (duplex,
//! streams) transfers are still *issued* in sequence order — transfer
//! `i + 1` never starts before transfer `i` — but may proceed concurrently
//! on different channels; under the implicit model each task's transfer
//! and computation fuse into a single phase.

use crate::error::{CoreError, Result};
use crate::exec::ExecutionModel;
use crate::instance::Instance;
use crate::schedule::{Schedule, ScheduleEntry};
use crate::task::TaskId;
use crate::time::Time;

/// Index of the earliest-free channel, ties broken toward the lowest
/// index (the deterministic stream-assignment rule).
fn earliest_free_channel(channels: &[Time]) -> usize {
    let mut best = 0;
    for (i, &free) in channels.iter().enumerate().skip(1) {
        if free < channels[best] {
            best = i;
        }
    }
    best
}

/// Transfer-channel occupancy under a (non-explicit) execution model:
/// per-channel free instants plus the round-robin cursor of the duplex
/// model and the instant the last transfer was issued (transfers are
/// issued in sequence order, so the next one never starts earlier).
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

    /// Picks the channel the next transfer uses and returns it with the
    /// earliest instant the transfer may start on it.
    fn next_slot(&mut self, model: ExecutionModel) -> (usize, Time) {
        let channel = match model {
            // Consecutive transfers alternate directions.
            ExecutionModel::Duplex => {
                let c = self.next_duplex;
                self.next_duplex = (self.next_duplex + 1) % self.free.len();
                c
            }
            _ => earliest_free_channel(&self.free),
        };
        (channel, self.last_issue.max(self.free[channel]))
    }

    /// Records a transfer occupying `channel` from `start` to `end`.
    fn commit(&mut self, channel: usize, start: Time, end: Time) {
        self.last_issue = start;
        self.free[channel] = end;
    }
}

/// Checks that `order` is a permutation of the instance's task set.
///
/// A wrong-length order is reported as [`CoreError::NotAPermutation`], an
/// out-of-range id as [`CoreError::UnknownTask`] and a repeated id as
/// [`CoreError::DuplicateTask`], so callers can tell the failure modes
/// apart.
pub fn check_permutation(instance: &Instance, order: &[TaskId]) -> Result<()> {
    if order.len() != instance.len() {
        return Err(CoreError::NotAPermutation {
            expected: instance.len(),
            got: order.len(),
        });
    }
    let mut seen = vec![false; instance.len()];
    for id in order {
        if id.index() >= instance.len() {
            return Err(CoreError::UnknownTask(*id));
        }
        if seen[id.index()] {
            return Err(CoreError::DuplicateTask(*id));
        }
        seen[id.index()] = true;
    }
    Ok(())
}

/// Executes `order` on both resources assuming unlimited memory
/// (Algorithm 1, lines 5–13) under the instance's execution model. The
/// resulting makespan for the Johnson order under the explicit model is
/// the `OMIM` lower bound used throughout the paper's evaluation.
pub fn simulate_sequence_infinite(instance: &Instance, order: &[TaskId]) -> Result<Schedule> {
    check_permutation(instance, order)?;
    let model = instance.model();
    model.validate()?;
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
            // The fused phase holds link and CPU together.
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

/// Executes `order` on both resources under the instance's memory capacity.
///
/// The executor keeps the set of *active* tasks (communication started,
/// computation not yet finished). The next task's communication starts at the
/// earliest instant `t >= link_free` such that the memory still held at `t`
/// plus the task's requirement fits in the capacity; releases happening
/// exactly at `t` are counted as already freed (matching the schedules of
/// Figs. 4–6 of the paper, where a transfer may start at the very instant a
/// computation releases its memory). Computations run in the same order,
/// each starting as soon as its transfer is done and the processing unit is
/// free.
///
/// # Errors
///
/// Returns [`CoreError::NotAPermutation`], [`CoreError::DuplicateTask`] or
/// [`CoreError::UnknownTask`] for an invalid order, and
/// [`CoreError::TaskExceedsCapacity`] if a task can never fit in the
/// instance's memory, and [`CoreError::InvalidExecutionModel`] for an
/// invalid model (both possible only for instances that bypassed
/// [`Instance::new`] and [`Instance::with_model`] validation, e.g.
/// deserialized ones).
pub fn simulate_sequence(instance: &Instance, order: &[TaskId]) -> Result<Schedule> {
    check_permutation(instance, order)?;
    let model = instance.model();
    model.validate()?;
    // A task larger than the whole memory can never fit; waiting for
    // releases would drain the queue and underflow. Construction enforces
    // this, but deserialized instances can violate it.
    instance.check_tasks_fit()?;
    let capacity = instance.capacity();
    let mut schedule = Schedule::with_capacity(order.len());
    let explicit = model.is_explicit();
    let implicit = matches!(model, ExecutionModel::Implicit { .. });
    let mut channels = Channels::new(model);
    let mut link_free = Time::ZERO;
    let mut cpu_free = Time::ZERO;
    // Active tasks as (computation end, memory held). Computation ends are
    // non-decreasing because computations run in sequence order on a single
    // processing unit (fused phases likewise end in issue order), so this
    // behaves like a FIFO of pending releases.
    let mut active: std::collections::VecDeque<(Time, u64)> = std::collections::VecDeque::new();
    let mut held: u64 = 0;

    for &id in order {
        let task = instance.task(id);
        let need = task.mem.bytes();

        // Earliest start on the transfer medium.
        let (channel, floor) = if explicit {
            (0, link_free)
        } else if implicit {
            // The fused phase needs the CPU too.
            (0, channels.last_issue.max(cpu_free))
        } else {
            channels.next_slot(model)
        };
        let mut start = floor;
        // Release everything that completes no later than `start`.
        while let Some(&(release, mem)) = active.front() {
            if release <= start {
                held -= mem;
                active.pop_front();
            } else {
                break;
            }
        }
        // If the task still does not fit, wait for further releases. Memory
        // only decreases until we acquire, so stepping through release
        // instants finds the earliest feasible start. The queue cannot run
        // dry: `need <= capacity` was checked above, so a non-fitting task
        // implies some memory is still held. An overflowing u64 sum cannot
        // fit either (`capacity <= u64::MAX`), so treat it as over capacity;
        // `held` then stays an exact sum, acquisitions are bounded by the
        // capacity, and the release subtractions below cannot underflow.
        while held
            .checked_add(need)
            .is_none_or(|total| total > capacity.bytes())
        {
            let (release, mem) = active.pop_front().ok_or_else(|| {
                CoreError::Internal("memory accounting desynchronized from the active set".into())
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

/// Makespan of [`simulate_sequence`] without materializing the schedule.
/// Convenience for solvers that evaluate many orders.
pub fn sequence_makespan(instance: &Instance, order: &[TaskId]) -> Result<Time> {
    Ok(simulate_sequence(instance, order)?.makespan(instance))
}

/// Makespan of [`simulate_sequence_infinite`] without materializing the
/// schedule.
pub fn sequence_makespan_infinite(instance: &Instance, order: &[TaskId]) -> Result<Time> {
    Ok(simulate_sequence_infinite(instance, order)?.makespan(instance))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::is_feasible;
    use crate::instance::InstanceBuilder;
    use crate::memory::MemSize;

    /// Table 3 of the paper: A(3,2,3), B(1,3,1), C(4,4,4), D(2,1,2), C = 6.
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

    fn ids(v: &[usize]) -> Vec<TaskId> {
        v.iter().map(|&i| TaskId(i)).collect()
    }

    #[test]
    fn infinite_memory_johnson_order_matches_fig4a() {
        // Johnson order for Table 3 is B, C, A, D with OMIM = 12 (Fig. 4a).
        let inst = table3();
        let sched = simulate_sequence_infinite(&inst, &ids(&[1, 2, 0, 3])).unwrap();
        assert_eq!(sched.makespan(&inst), Time::units_int(12));
    }

    #[test]
    fn constrained_oosim_matches_fig4b() {
        // Same order under capacity 6 gives makespan 15 (Fig. 4b, OOSIM).
        let inst = table3();
        let sched = simulate_sequence(&inst, &ids(&[1, 2, 0, 3])).unwrap();
        assert_eq!(sched.makespan(&inst), Time::units_int(15));
        assert!(is_feasible(&inst, &sched));
        // A's transfer is delayed until C's computation releases memory at 9.
        let a = sched.entry(TaskId(0)).unwrap();
        assert_eq!(a.comm_start, Time::units_int(9));
    }

    #[test]
    fn constrained_iocms_matches_fig4b() {
        // IOCMS order B, D, A, C gives makespan 16 (Fig. 4b).
        let inst = table3();
        let sched = simulate_sequence(&inst, &ids(&[1, 3, 0, 2])).unwrap();
        assert_eq!(sched.makespan(&inst), Time::units_int(16));
        assert!(is_feasible(&inst, &sched));
    }

    #[test]
    fn constrained_docps_matches_fig4b() {
        // DOCPS order C, B, A, D gives makespan 14 (Fig. 4b).
        let inst = table3();
        let sched = simulate_sequence(&inst, &ids(&[2, 1, 0, 3])).unwrap();
        assert_eq!(sched.makespan(&inst), Time::units_int(14));
    }

    #[test]
    fn constrained_doccs_matches_fig4b() {
        // DOCCS order C, A, B, D gives makespan 17 (Fig. 4b).
        let inst = table3();
        let sched = simulate_sequence(&inst, &ids(&[2, 0, 1, 3])).unwrap();
        assert_eq!(sched.makespan(&inst), Time::units_int(17));
    }

    #[test]
    fn constrained_never_beats_infinite() {
        let inst = table3();
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut order = inst.task_ids();
        for _ in 0..50 {
            order.shuffle(&mut rng);
            let finite = sequence_makespan(&inst, &order).unwrap();
            let infinite = sequence_makespan_infinite(&inst, &order).unwrap();
            assert!(finite >= infinite);
        }
    }

    #[test]
    fn produced_schedules_are_feasible_and_permutation_ordered() {
        let inst = table3();
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut order = inst.task_ids();
        for _ in 0..50 {
            order.shuffle(&mut rng);
            let sched = simulate_sequence(&inst, &order).unwrap();
            assert!(is_feasible(&inst, &sched), "{:?}", order);
            assert_eq!(sched.comm_order(), order);
            assert!(sched.is_permutation_schedule());
        }
    }

    #[test]
    fn bad_sequences_rejected() {
        let inst = table3();
        assert!(matches!(
            simulate_sequence(&inst, &ids(&[0, 1])),
            Err(CoreError::NotAPermutation { .. })
        ));
        assert!(matches!(
            simulate_sequence(&inst, &ids(&[0, 1, 2, 2])),
            Err(CoreError::DuplicateTask(TaskId(2)))
        ));
        assert!(matches!(
            simulate_sequence(&inst, &ids(&[0, 1, 2, 9])),
            Err(CoreError::UnknownTask(_))
        ));
    }

    #[test]
    fn duplicates_rejected_by_every_entry_point() {
        // The duplicated id (not the wrong length) must be reported by every
        // public function that validates an order.
        let inst = table3();
        let dup = ids(&[0, 1, 1, 3]);
        assert_eq!(
            simulate_sequence(&inst, &dup).unwrap_err(),
            CoreError::DuplicateTask(TaskId(1))
        );
        assert_eq!(
            simulate_sequence_infinite(&inst, &dup).unwrap_err(),
            CoreError::DuplicateTask(TaskId(1))
        );
        assert_eq!(
            sequence_makespan(&inst, &dup).unwrap_err(),
            CoreError::DuplicateTask(TaskId(1))
        );
        assert_eq!(
            sequence_makespan_infinite(&inst, &dup).unwrap_err(),
            CoreError::DuplicateTask(TaskId(1))
        );
        assert_eq!(
            check_permutation(&inst, &dup).unwrap_err(),
            CoreError::DuplicateTask(TaskId(1))
        );
    }

    #[test]
    fn oversized_task_returns_error_instead_of_panicking() {
        // `Instance::new` rejects tasks larger than the capacity, but an
        // instance deserialized from untrusted JSON can carry one; the
        // executor must fail cleanly rather than drain the release queue and
        // panic.
        let json = r#"{
            "tasks": [
                {"name": "small", "comm_time": 1000, "comp_time": 1000, "mem": 2},
                {"name": "huge", "comm_time": 2000, "comp_time": 1000, "mem": 9}
            ],
            "capacity": 4,
            "label": "malformed"
        }"#;
        let inst: Instance = serde_json::from_str(json).unwrap();
        let order = inst.task_ids();
        assert_eq!(
            simulate_sequence(&inst, &order).unwrap_err(),
            CoreError::TaskExceedsCapacity {
                task: TaskId(1),
                name: "huge".into(),
            }
        );
        assert_eq!(
            sequence_makespan(&inst, &order).unwrap_err(),
            CoreError::TaskExceedsCapacity {
                task: TaskId(1),
                name: "huge".into(),
            }
        );
        // The infinite-memory executor ignores the capacity by design.
        assert!(simulate_sequence_infinite(&inst, &order).is_ok());
    }

    #[test]
    fn u64_scale_memory_does_not_overflow_the_accounting() {
        // Each task fits the capacity on its own, but their sum overflows
        // u64. The overflowing sum must count as "does not fit" (an exact
        // sum would exceed any u64 capacity), so the executor serializes the
        // tasks instead of panicking or wrapping into a full-memory-is-free
        // schedule; the release bookkeeping must then drain exactly.
        let huge = u64::MAX;
        let json = format!(
            r#"{{
                "tasks": [
                    {{"name": "a", "comm_time": 1000, "comp_time": 1000, "mem": {huge}}},
                    {{"name": "b", "comm_time": 1000, "comp_time": 1000, "mem": 2}},
                    {{"name": "c", "comm_time": 1000, "comp_time": 1000, "mem": 2}}
                ],
                "capacity": {huge},
                "label": "u64-scale"
            }}"#
        );
        let inst: Instance = serde_json::from_str(&json).unwrap();
        let sched = simulate_sequence(&inst, &inst.task_ids()).unwrap();
        assert_eq!(sched.len(), 3);
        // b must wait for a's computation to release the whole memory.
        assert_eq!(
            sched.entry(TaskId(1)).unwrap().comm_start,
            Time::from_ticks(2000)
        );
        // b and c (2 bytes each) overlap fine afterwards.
        assert_eq!(
            sched.entry(TaskId(2)).unwrap().comm_start,
            Time::from_ticks(3000)
        );
    }

    #[test]
    fn streams_one_is_exactly_explicit() {
        use crate::exec::ExecutionModel;
        let inst = table3();
        let one = inst
            .clone()
            .with_model(ExecutionModel::Streams { k: 1 })
            .unwrap();
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut order = inst.task_ids();
        for _ in 0..20 {
            order.shuffle(&mut rng);
            assert_eq!(
                simulate_sequence(&inst, &order).unwrap(),
                simulate_sequence(&one, &order).unwrap()
            );
            assert_eq!(
                simulate_sequence_infinite(&inst, &order).unwrap(),
                simulate_sequence_infinite(&one, &order).unwrap()
            );
        }
    }

    #[test]
    fn duplex_pipelines_table3_by_hand() {
        use crate::exec::ExecutionModel;
        // Order B, C, A, D under duplex round-robin (B→ch0, C→ch1, A→ch0,
        // D→ch1): B comm [0,1) comp [1,4); C comm [0,4) (other direction,
        // no contention) comp [4,8). A needs 3 bytes: after B's release at
        // 4 the held 4 (C) + 3 > 6, so A waits for C's release at 8 —
        // comm [8,11), comp [11,13). D issues at max(issue 8, ch1 free 4)
        // = 8: comm [8,10), comp [13,14). Makespan 14 < explicit's 15
        // (Fig. 4b, OOSIM).
        let inst = table3();
        let duplex = inst.clone().with_model(ExecutionModel::Duplex).unwrap();
        let order = ids(&[1, 2, 0, 3]);
        let sched = simulate_sequence(&duplex, &order).unwrap();
        assert_eq!(sched.makespan(&inst), Time::units_int(14));
        assert_eq!(
            sched.entry(TaskId(2)).unwrap().comm_start,
            Time::units_int(0)
        );
        assert_eq!(
            sched.entry(TaskId(0)).unwrap().comm_start,
            Time::units_int(8)
        );
        assert_eq!(
            sched.entry(TaskId(3)).unwrap().comm_start,
            Time::units_int(8)
        );
        let explicit = simulate_sequence(&inst, &order).unwrap();
        assert_eq!(explicit.makespan(&inst), Time::units_int(15));
        assert!(sched.makespan(&inst) <= explicit.makespan(&inst));
    }

    #[test]
    fn implicit_full_overlap_fuses_phases() {
        use crate::exec::ExecutionModel;
        // Under full-efficiency implicit overlap each task occupies both
        // resources for max(comm, comp): A 3, B 3, C 4, D 2 ⇒ makespan 12
        // for any order that never waits on memory.
        let inst = table3().with_model(ExecutionModel::IMPLICIT_FULL).unwrap();
        let sched = simulate_sequence(&inst, &ids(&[1, 2, 0, 3])).unwrap();
        // B [0,3), C [3,7) (B releases at 3), A [7,10), D [10,12).
        assert_eq!(sched.makespan(&inst), Time::units_int(12));
        // Each entry's computation ends when its fused phase does.
        for (id, task) in inst.iter() {
            let entry = sched.entry(id).unwrap();
            assert!(entry.comp_start >= entry.comm_start);
            let fused =
                ExecutionModel::IMPLICIT_FULL.fused_duration(task.comm_time, task.comp_time);
            assert_eq!(entry.comp_start + task.comp_time, entry.comm_start + fused);
        }
    }

    #[test]
    fn model_carried_by_the_instance_is_honored() {
        use crate::exec::ExecutionModel;
        // The executors learn the model from the instance alone, including
        // one that arrives through the serialized form.
        let inst = table3();
        let duplex = inst.clone().with_model(ExecutionModel::Duplex).unwrap();
        let back: Instance =
            serde_json::from_str(&serde_json::to_string(&duplex).unwrap()).unwrap();
        let order = ids(&[1, 2, 0, 3]);
        let sched = simulate_sequence(&duplex, &order).unwrap();
        assert_eq!(sched.makespan(&inst), Time::units_int(14));
        assert_eq!(simulate_sequence(&back, &order).unwrap(), sched);
        // Unlimited memory: A issues on the free upload channel at 1 while C
        // still transfers, so duplex ends at 11 against explicit's 12.
        let infinite = simulate_sequence_infinite(&duplex, &order).unwrap();
        assert_eq!(infinite.makespan(&inst), Time::units_int(11));
        assert_eq!(simulate_sequence_infinite(&back, &order).unwrap(), infinite);
    }

    #[test]
    fn invalid_model_rejected_not_panicking() {
        // `with_model` refuses a zero stream count, but a deserialized
        // instance can still carry one; both executors must reject it.
        let json = serde_json::to_string(
            &table3()
                .with_model(crate::exec::ExecutionModel::Streams { k: 1 })
                .unwrap(),
        )
        .unwrap()
        .replace(r#""k":1"#, r#""k":0"#);
        let inst: Instance = serde_json::from_str(&json).unwrap();
        let order = inst.task_ids();
        assert!(matches!(
            simulate_sequence(&inst, &order),
            Err(CoreError::InvalidExecutionModel(_))
        ));
        assert!(matches!(
            simulate_sequence_infinite(&inst, &order),
            Err(CoreError::InvalidExecutionModel(_))
        ));
    }

    #[test]
    fn single_task_instance() {
        let inst = InstanceBuilder::new()
            .capacity(MemSize::from_bytes(5))
            .task_units("only", 2.0, 3.0, 5)
            .build()
            .unwrap();
        let sched = simulate_sequence(&inst, &[TaskId(0)]).unwrap();
        assert_eq!(sched.makespan(&inst), Time::units_int(5));
    }
}
