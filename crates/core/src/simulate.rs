//! The machine every schedule runs on, and the executors built on it.
//!
//! Problem `DT` has one machine: a communication link, a processing unit,
//! and a local memory that a task holds from the start of its transfer to
//! the end of its computation. The heuristics of the paper only choose the
//! order in which tasks go to that machine, so it is written once, here,
//! in two parts:
//!
//! * `Timing`: when the link (or each channel of a multi-channel model)
//!   and the processing unit become free, and the one rule, per execution
//!   model, that commits a task's transfer and computation;
//! * [`Machine`]: a `Timing` plus the memory ledger, the queue of pending
//!   releases and the running total of memory held.
//!
//! Every executor is a loop over it:
//!
//! * [`simulate_sequence_infinite`] drives the `Timing` alone and ignores
//!   the memory capacity; with the Johnson order it produces the `OMIM`
//!   lower bound (Algorithm 1 of the paper);
//! * [`simulate_sequence`] appends the tasks in order with
//!   [`Machine::append`]: a task's communication is delayed until enough
//!   previously-acquired memory has been released by finished
//!   computations. This is the executor behind all the static heuristics
//!   of Section 4.1;
//! * the dynamic and corrected heuristics (`dts_heuristics`) release,
//!   select and [`commit`](Machine::commit) one decision at a time, and the
//!   `lp.k` windows (`dts_milp`) each run on a clone of the machine the
//!   previous window left.
//!
//! Every executor honors the instance's [`ExecutionModel`] (the paper's
//! half-duplex [`ExecutionModel::Explicit`] unless one was attached with
//! [`Instance::with_model`]). Under the multi-channel models (duplex,
//! streams) transfers are still *issued* in order — transfer `i + 1` never
//! starts before transfer `i` — but may proceed concurrently on different
//! channels; under the implicit model each task's transfer and computation
//! fuse into a single phase.

use crate::error::{CoreError, Result};
use crate::exec::ExecutionModel;
use crate::instance::Instance;
use crate::memory::MemSize;
use crate::schedule::{Schedule, ScheduleEntry};
use crate::task::{Task, TaskId};
use crate::time::Time;
use std::collections::VecDeque;

/// The link (or channels) and the processing unit of the machine, under
/// one execution model.
#[derive(Debug, Clone)]
struct Timing {
    model: ExecutionModel,
    /// Earliest instant the next transfer may be issued: the end of the
    /// last transfer under the explicit model, the end of the last fused
    /// phase under the implicit model, and under duplex and streams the
    /// instant the next transfer's channel frees up, but no earlier than
    /// the last issue (transfers are issued in order).
    link_free: Time,
    /// Instant the processing unit becomes free: the end of the last
    /// computation.
    cpu_free: Time,
    /// Free instants of the channels of the duplex and streams models
    /// (empty under the single-link models).
    channels: Vec<Time>,
    /// The channel the next transfer uses: the duplex model's round-robin
    /// cursor, or the earliest-free stream (ties to the lowest index).
    next_channel: usize,
}

impl Timing {
    /// Both resources free at instant zero under `model`, which must be
    /// valid ([`ExecutionModel::validate`]).
    fn new(model: ExecutionModel) -> Self {
        debug_assert!(model.validate().is_ok(), "unvalidated execution model");
        let channels = match model {
            ExecutionModel::Duplex | ExecutionModel::Streams { .. } => {
                vec![Time::ZERO; model.channel_count()]
            }
            ExecutionModel::Explicit | ExecutionModel::Implicit { .. } => Vec::new(),
        };
        Timing {
            model,
            link_free: Time::ZERO,
            cpu_free: Time::ZERO,
            channels,
            next_channel: 0,
        }
    }

    /// Starts `task`'s transfer at instant `t` (at least `link_free`) and
    /// its computation as soon as the data is there and the processing
    /// unit is free, and returns the task's entry; `cpu_free` is then the
    /// end of that computation.
    ///
    /// This is each execution model's one rule (see [`Machine::commit`]).
    #[inline]
    fn commit(&mut self, id: TaskId, task: &Task, t: Time) -> ScheduleEntry {
        debug_assert!(t >= self.link_free, "transfer would start on a busy link");
        let comm_end = t + task.comm_time;
        let comp_start = match self.model {
            ExecutionModel::Explicit => {
                self.link_free = comm_end;
                comm_end.max(self.cpu_free)
            }
            ExecutionModel::Duplex | ExecutionModel::Streams { .. } => {
                self.channels[self.next_channel] = comm_end;
                self.next_channel = if self.model == ExecutionModel::Duplex {
                    (self.next_channel + 1) % self.channels.len()
                } else {
                    earliest_free_channel(&self.channels)
                };
                self.link_free = t.max(self.channels[self.next_channel]);
                comm_end.max(self.cpu_free)
            }
            ExecutionModel::Implicit { .. } => {
                let end = t + self.model.link_hold(task.comm_time, task.comp_time);
                self.link_free = end;
                // The fused phase lasts at least the computation, which
                // runs at its tail.
                end - task.comp_time
            }
        };
        self.cpu_free = comp_start + task.comp_time;
        ScheduleEntry {
            task: id,
            comm_start: t,
            comp_start,
        }
    }
}

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

/// The whole machine: a `Timing` plus the memory ledger, the tasks that
/// hold memory (transfer started, computation not finished) as a queue of
/// pending releases.
///
/// Releases are queued in commit order, which is also their order in time:
/// computations run one at a time in commit order (fused phases likewise
/// end in issue order). So the ledger is a FIFO: [`release_up_to`]
/// pops its front, and after it [`available`] and [`next_release`] are
/// O(1).
///
/// [`release_up_to`]: Machine::release_up_to
/// [`available`]: Machine::available
/// [`next_release`]: Machine::next_release
#[derive(Debug, Clone)]
pub struct Machine {
    timing: Timing,
    /// Pending releases as `(computation end, memory held)`, in
    /// non-decreasing order of computation end.
    releases: VecDeque<(Time, MemSize)>,
    /// Sum of the memory of the pending releases. Every commit fits, so it
    /// never exceeds the capacity.
    held: MemSize,
    capacity: MemSize,
}

impl Machine {
    /// An idle machine with `instance`'s memory capacity, under the
    /// execution model the instance carries. Callers must validate the
    /// model first ([`ExecutionModel::validate`]); the public executors and
    /// heuristics do.
    pub fn new(instance: &Instance) -> Self {
        Machine {
            timing: Timing::new(instance.model()),
            releases: VecDeque::new(),
            held: MemSize::ZERO,
            capacity: instance.capacity(),
        }
    }

    /// Earliest instant the next transfer may start: a transfer committed
    /// at this instant or later always finds its channel free.
    #[inline]
    pub fn link_free(&self) -> Time {
        self.timing.link_free
    }

    /// Instant the processing unit becomes free. Right after a
    /// [`commit`](Machine::commit) it is the end of that task's
    /// computation.
    #[inline]
    pub fn cpu_free(&self) -> Time {
        self.timing.cpu_free
    }

    /// Frees the memory of every task whose computation ends at or before
    /// `t`: a release at exactly `t` is already effective, matching the
    /// schedules of Figs. 4–6 of the paper, where a transfer may start at
    /// the very instant a computation releases its memory.
    #[inline]
    pub fn release_up_to(&mut self, t: Time) {
        while let Some(&(end, mem)) = self.releases.front() {
            if end > t {
                break;
            }
            self.held = self.held.saturating_sub(mem);
            self.releases.pop_front();
        }
    }

    /// Memory free once the releases passed to
    /// [`release_up_to`](Machine::release_up_to) are done, in O(1). A task
    /// fits at that instant iff its requirement is at most this value,
    /// which is what lets the dynamic heuristics select through threshold
    /// queries on a candidate index.
    #[inline]
    pub fn available(&self) -> MemSize {
        self.capacity.saturating_sub(self.held)
    }

    /// `true` iff `task` fits in the [`available`](Machine::available)
    /// memory. Tasks fit one at a time, so the memory held stays an exact
    /// sum bounded by the capacity.
    #[inline]
    pub fn fits(&self, task: &Task) -> bool {
        task.mem <= self.available()
    }

    /// The earliest pending release, if any task holds memory. After
    /// [`release_up_to`](Machine::release_up_to)`(t)` it is the next instant
    /// after `t` at which memory frees up.
    #[inline]
    pub fn next_release(&self) -> Option<Time> {
        self.releases.front().map(|&(end, _)| end)
    }

    /// Commits `task` (with id `id`) to start its transfer at instant `t`,
    /// and its computation as soon as the data is there and the processing
    /// unit is free, and holds its memory until the computation ends.
    ///
    /// Each execution model has one rule here. Explicit: the single link
    /// is busy until the transfer ends. Duplex and streams: only the chosen
    /// channel is; the next transfer takes the other direction (duplex) or
    /// the earliest-free stream. Implicit: transfer and computation fuse
    /// into one phase that holds the link and the processing unit together.
    ///
    /// The caller must have released memory up to `t` and checked that the
    /// task [`fits`](Machine::fits) (checked in debug builds), and `t` must
    /// be at least [`link_free`](Machine::link_free).
    #[inline]
    pub fn commit(&mut self, id: TaskId, task: &Task, t: Time) -> ScheduleEntry {
        debug_assert!(self.fits(task), "task does not fit in memory");
        let entry = self.timing.commit(id, task, t);
        self.releases.push_back((self.timing.cpu_free, task.mem));
        self.held = self.held.saturating_add(task.mem);
        entry
    }

    /// Commits `task` next in a fixed order: its transfer starts at the
    /// earliest instant, from [`link_free`](Machine::link_free) on, at
    /// which it fits in memory. Memory only frees up until the task is
    /// committed, so waiting on the releases one by one finds that
    /// instant.
    ///
    /// # Errors
    ///
    /// [`CoreError::Internal`] if the task cannot fit even in an empty
    /// memory; callers rule that out with [`Instance::check_tasks_fit`].
    #[inline]
    pub fn append(&mut self, id: TaskId, task: &Task) -> Result<ScheduleEntry> {
        let mut t = self.timing.link_free;
        self.release_up_to(t);
        while !self.fits(task) {
            let (end, mem) = self.releases.pop_front().ok_or_else(|| {
                CoreError::Internal("task does not fit in an empty memory".into())
            })?;
            self.held = self.held.saturating_sub(mem);
            t = t.max(end);
        }
        Ok(self.commit(id, task, t))
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
/// (Algorithm 1, lines 5–13) under the instance's execution model: each
/// transfer starts as soon as the link lets it. The resulting makespan for
/// the Johnson order under the explicit model is the `OMIM` lower bound
/// used throughout the paper's evaluation.
pub fn simulate_sequence_infinite(instance: &Instance, order: &[TaskId]) -> Result<Schedule> {
    check_permutation(instance, order)?;
    let model = instance.model();
    model.validate()?;
    let mut timing = Timing::new(model);
    Ok(order
        .iter()
        .map(|&id| timing.commit(id, instance.task(id), timing.link_free))
        .collect())
}

/// Executes `order` on both resources under the instance's memory capacity.
///
/// Each task's communication starts at the earliest instant, once the link
/// lets it, at which the memory still held plus the task's requirement fits
/// in the capacity ([`Machine::append`]). Computations run in the same
/// order, each starting as soon as its transfer is done and the processing
/// unit is free.
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
    instance.model().validate()?;
    // A task larger than the whole memory can never fit. Construction
    // enforces this, but deserialized instances can violate it.
    instance.check_tasks_fit()?;
    let mut machine = Machine::new(instance);
    let mut schedule = Schedule::with_capacity(order.len());
    for &id in order {
        schedule.push(machine.append(id, instance.task(id))?);
    }
    Ok(schedule)
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
            let finite = simulate_sequence(&inst, &order).unwrap().makespan(&inst);
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
