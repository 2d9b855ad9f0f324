//! The machine every schedule runs on, and the executors built on it.
//!
//! Problem `DT` has one machine: a communication link, a processing unit,
//! and a local memory that a task holds from the start of its transfer to
//! the end of its computation. The heuristics of the paper only choose the
//! order in which tasks go to that machine, so it is written once, here,
//! in two parts:
//!
//! * `Timing`: when the link (or each channel of a multi-channel model)
//!   and the processing unit become free, the one transfer rule per
//!   execution model and the model-free compute rule;
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
//!   exact same-order search (`dts_flowshop::exact::best_same_order`, behind
//!   the permutation optimum and every `lp.k` window of `dts_milp`) appends
//!   tasks to one clone of the machine per search depth;
//! * the free-order optimum (`dts_flowshop::exact::schedule_for_orders`)
//!   issues [`Machine::transfer`]s, which hold memory before their release
//!   is known, ahead of their [`Machine::compute`]s.
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
#[derive(Debug)]
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

impl Clone for Timing {
    fn clone(&self) -> Self {
        Timing {
            channels: self.channels.clone(),
            ..*self
        }
    }

    /// Field-wise, so the copy keeps its own channel buffer.
    fn clone_from(&mut self, source: &Self) {
        self.model = source.model;
        self.link_free = source.link_free;
        self.cpu_free = source.cpu_free;
        self.channels.clone_from(&source.channels);
        self.next_channel = source.next_channel;
    }
}

impl Timing {
    /// Both resources free at instant zero under `model`.
    fn new(model: ExecutionModel) -> Self {
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
    /// returns the instant its computation may start. This is each
    /// execution model's one rule (see [`Machine::commit`]).
    #[inline]
    fn transfer(&mut self, task: &Task, t: Time) -> Time {
        debug_assert!(t >= self.link_free, "transfer would start on a busy link");
        let comm_end = t + task.comm_time;
        match self.model {
            ExecutionModel::Explicit => {
                self.link_free = comm_end;
                comm_end
            }
            ExecutionModel::Duplex | ExecutionModel::Streams { .. } => {
                self.channels[self.next_channel] = comm_end;
                self.next_channel = if self.model == ExecutionModel::Duplex {
                    (self.next_channel + 1) % self.channels.len()
                } else {
                    earliest_free_channel(&self.channels)
                };
                self.link_free = t.max(self.channels[self.next_channel]);
                comm_end
            }
            ExecutionModel::Implicit { .. } => {
                let end = t + self.model.link_hold(task.comm_time, task.comp_time);
                self.link_free = end;
                // The fused phase lasts at least the computation, which
                // runs at its tail.
                end - task.comp_time
            }
        }
    }

    /// Starts `task`'s computation once it is `ready` and the processing
    /// unit is free, under every model, and returns that instant.
    #[inline]
    fn compute(&mut self, task: &Task, ready: Time) -> Time {
        let comp_start = ready.max(self.cpu_free);
        self.cpu_free = comp_start + task.comp_time;
        comp_start
    }

    /// `transfer` then `compute`: the task's entry.
    #[inline]
    fn commit(&mut self, id: TaskId, task: &Task, t: Time) -> ScheduleEntry {
        let ready = self.transfer(task, t);
        ScheduleEntry {
            task: id,
            comm_start: t,
            comp_start: self.compute(task, ready),
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
/// hold memory (transfer started, computation not finished) with a queue
/// of pending releases for those whose computation is placed.
///
/// Releases are queued in computation order, which is also their order in
/// time: computations run one at a time in that order (fused phases
/// likewise end in issue order). So the ledger is a FIFO:
/// [`release_up_to`] pops its front, and after it [`available`] and
/// [`next_release`] are O(1).
///
/// [`release_up_to`]: Machine::release_up_to
/// [`available`]: Machine::available
/// [`next_release`]: Machine::next_release
///
/// `clone_from` copies field by field into the target's own buffers, so a
/// search that resets one machine from another allocates nothing.
#[derive(Debug)]
pub struct Machine {
    timing: Timing,
    /// Pending releases as `(computation end, memory held)`, in
    /// non-decreasing order of computation end.
    releases: VecDeque<(Time, MemSize)>,
    /// Memory of the pending releases and of the transfers whose
    /// computation is not placed yet. Every transfer fits, so it never
    /// exceeds the capacity.
    held: MemSize,
    capacity: MemSize,
}

impl Clone for Machine {
    fn clone(&self) -> Self {
        Machine {
            timing: self.timing.clone(),
            releases: self.releases.clone(),
            held: self.held,
            capacity: self.capacity,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.timing.clone_from(&source.timing);
        self.releases.clone_from(&source.releases);
        self.held = source.held;
        self.capacity = source.capacity;
    }
}

impl Machine {
    /// An idle machine with `instance`'s memory capacity, under the
    /// execution model the instance carries.
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

    /// The earliest pending release, if a placed computation still holds
    /// memory. After [`release_up_to`](Machine::release_up_to)`(t)` it is
    /// the next instant after `t` at which memory frees up.
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
        let ready = self.transfer(task, t);
        ScheduleEntry {
            task: id,
            comm_start: t,
            comp_start: self.compute(task, ready),
        }
    }

    /// The transfer half of [`commit`](Machine::commit), with its
    /// preconditions: holds `task`'s memory and returns the instant its
    /// computation may start. The release waits for its
    /// [`compute`](Machine::compute).
    #[inline]
    pub fn transfer(&mut self, task: &Task, t: Time) -> Time {
        debug_assert!(self.fits(task), "task does not fit in memory");
        self.held = self.held.saturating_add(task.mem);
        self.timing.transfer(task, t)
    }

    /// The computation half of [`commit`](Machine::commit): starts it at
    /// `ready` (what the transfer returned) or once the processing unit is
    /// free, queues the release, and returns the start. Computations run in
    /// call order; under the implicit model each must follow its transfer.
    #[inline]
    pub fn compute(&mut self, task: &Task, ready: Time) -> Time {
        let comp_start = self.timing.compute(task, ready);
        self.releases.push_back((self.timing.cpu_free, task.mem));
        comp_start
    }

    /// The earliest instant from [`link_free`](Machine::link_free) on at
    /// which `task` fits in memory, found by waiting on the releases one by
    /// one (memory is released up to it); `None` if they run out first.
    #[inline]
    pub fn wait_to_fit(&mut self, task: &Task) -> Option<Time> {
        let mut t = self.timing.link_free;
        self.release_up_to(t);
        while !self.fits(task) {
            let (end, mem) = self.releases.pop_front()?;
            self.held = self.held.saturating_sub(mem);
            t = t.max(end);
        }
        Some(t)
    }

    /// Commits `task` next in a fixed order, at the instant
    /// [`wait_to_fit`](Machine::wait_to_fit) finds. `task` must fit in the
    /// machine's capacity, as every task of an [`Instance`] with that
    /// capacity does; with every computation placed, the releases then
    /// cannot run out first, so the fallback is never taken.
    #[inline]
    pub fn append(&mut self, id: TaskId, task: &Task) -> ScheduleEntry {
        let t = self.wait_to_fit(task).unwrap_or(self.timing.link_free);
        self.commit(id, task, t)
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
    Ok(commits_infinite(instance, order)?
        .map(|(entry, _)| entry)
        .collect())
}

/// Makespan of [`simulate_sequence_infinite`] without materializing the
/// schedule: the same commits, folded into the latest computation end.
pub fn sequence_makespan_infinite(instance: &Instance, order: &[TaskId]) -> Result<Time> {
    Ok(
        commits_infinite(instance, order)?.fold(Time::ZERO, |makespan, (entry, task)| {
            makespan.max(entry.comp_start + task.comp_time)
        }),
    )
}

/// The commits of the infinite-memory executors: each task of `order`,
/// with its entry, as the `Timing` alone places it.
fn commits_infinite<'a>(
    instance: &'a Instance,
    order: &'a [TaskId],
) -> Result<impl Iterator<Item = (ScheduleEntry, &'a Task)> + 'a> {
    check_permutation(instance, order)?;
    let mut timing = Timing::new(instance.model());
    Ok(order.iter().map(move |&id| {
        let task = instance.task(id);
        (timing.commit(id, task, timing.link_free), task)
    }))
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
/// [`CoreError::UnknownTask`] for an invalid order. The instance itself
/// needs no check: construction guarantees that every task fits and that
/// the model is valid.
pub fn simulate_sequence(instance: &Instance, order: &[TaskId]) -> Result<Schedule> {
    check_permutation(instance, order)?;
    let mut machine = Machine::new(instance);
    let mut schedule = Schedule::with_capacity(order.len());
    for &id in order {
        schedule.push(machine.append(id, instance.task(id)));
    }
    Ok(schedule)
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
    fn u64_scale_memory_does_not_overflow_the_accounting() {
        // Each task fits the capacity on its own, but their sum overflows
        // u64. The overflowing sum must count as "does not fit" (an exact
        // sum would exceed any u64 capacity), so the executor serializes the
        // tasks instead of panicking or wrapping into a full-memory-is-free
        // schedule; the release bookkeeping must then drain exactly.
        let huge = MemSize::from_bytes(u64::MAX);
        let tick = Time::from_ticks(1000);
        let inst = InstanceBuilder::new()
            .capacity(huge)
            .label("u64-scale")
            .task("a", Task::new(tick, tick, huge))
            .task("b", Task::new(tick, tick, MemSize::from_bytes(2)))
            .task("c", Task::new(tick, tick, MemSize::from_bytes(2)))
            .build()
            .unwrap();
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
        // The executors learn the model from the instance alone.
        let inst = table3();
        let duplex = inst.clone().with_model(ExecutionModel::Duplex).unwrap();
        let order = ids(&[1, 2, 0, 3]);
        let sched = simulate_sequence(&duplex, &order).unwrap();
        assert_eq!(sched.makespan(&inst), Time::units_int(14));
        // Unlimited memory: A issues on the free upload channel at 1 while C
        // still transfers, so duplex ends at 11 against explicit's 12.
        let infinite = simulate_sequence_infinite(&duplex, &order).unwrap();
        assert_eq!(infinite.makespan(&inst), Time::units_int(11));
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
