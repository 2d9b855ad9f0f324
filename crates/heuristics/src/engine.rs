//! Shared event-driven machinery for the dynamic and corrected heuristics.
//!
//! The engine models the runtime state of problem `DT` while a schedule is
//! being constructed task by task: availability of the communication link
//! and of the processing unit, and the set of *active* tasks (transfer
//! started, computation not yet finished) that currently hold memory.
//!
//! # Complexity
//!
//! The engine maintains a running total of the memory held
//! (`EngineState::held`) next to a queue of pending releases ordered by
//! computation end. Callers advance the engine with
//! [`EngineState::release_up_to`] as their clock moves forward; after that,
//! [`EngineState::held_at`] at the current instant is O(1),
//! [`EngineState::available`] is O(1) and
//! [`EngineState::next_release_after`] is O(log n).
//!
//! The decision loops of [`run_dynamic`](crate::dynamic::run_dynamic) and
//! [`run_corrected`](crate::corrected::run_corrected)
//! do not probe candidates one by one: [`select_candidate`] resolves each
//! decision with O(log n) queries against a
//! [`CandidateIndex`] of the remaining
//! tasks, so a whole run costs O(n log n) instead of the O(n²) of scanning
//! every remaining task per decision. (The ratio query behind MAMR/OOMAMR
//! is output-sensitive — O(log n) per decision when communication times
//! are quantized, as in the paper's traces; see
//! [`CandidateIndex::best_ratio_candidate_within`] for the general
//! bound.) [`filter_minimum_cpu_idle`] remains
//! the executable specification of the selection rule: the
//! `select_candidate_matches_the_specification_filter` test below replays
//! whole runs comparing the two decision for decision, and the
//! `engine_equivalence` integration suite pins the resulting schedules
//! byte-identical to the seed engine.

use crate::SelectionCriterion;
use dts_core::index::CandidateIndex;
use dts_core::prelude::*;
use std::collections::VecDeque;

/// Mutable scheduling state used by the decision-driven heuristics.
#[derive(Debug, Clone)]
pub struct EngineState {
    /// Earliest instant at which the next transfer may be *issued*. Under
    /// the explicit model this is when the single link frees up; under the
    /// multi-channel models it accounts for the channel the next transfer
    /// would use (transfers are issued in decision order, so it is also at
    /// least the last issue instant); under the implicit model it is the
    /// end of the running fused phase.
    pub link_free: Time,
    /// Instant at which the processing unit becomes free.
    pub cpu_free: Time,
    /// Pending memory releases as `(computation end, memory held)`, ordered
    /// by computation end (computations run one at a time, so pushes are
    /// already in non-decreasing order — fused phases likewise end in
    /// issue order). Entries released by [`EngineState::release_up_to`]
    /// are popped from the front.
    releases: VecDeque<(Time, MemSize)>,
    /// Sum of the memory held by the queued releases.
    held: MemSize,
    /// Every release at or before this instant has been pruned from the
    /// queue; memory queries must not go back before it.
    released_up_to: Time,
    /// Capacity of the local memory.
    capacity: MemSize,
    /// Execution model the engine commits under.
    model: ExecutionModel,
    /// Per-channel free instants of the multi-channel models (empty for
    /// explicit/implicit, which track the medium through `link_free`).
    channels: Vec<Time>,
    /// Round-robin cursor of the duplex model: the direction the next
    /// transfer uses.
    next_duplex: usize,
    /// Schedule built so far.
    pub schedule: Schedule,
}

impl EngineState {
    /// Creates the initial state for an instance, honoring the execution
    /// model the instance carries ([`ExecutionModel::Explicit`] unless one
    /// was attached). Callers must validate the model first
    /// ([`ExecutionModel::validate`]); the public heuristic entry points
    /// do.
    pub fn new(instance: &Instance) -> Self {
        let model = instance.model();
        debug_assert!(model.validate().is_ok(), "unvalidated execution model");
        let channels = match model {
            ExecutionModel::Duplex | ExecutionModel::Streams { .. } => {
                vec![Time::ZERO; model.channel_count()]
            }
            _ => Vec::new(),
        };
        EngineState {
            link_free: Time::ZERO,
            cpu_free: Time::ZERO,
            releases: VecDeque::new(),
            held: MemSize::ZERO,
            released_up_to: Time::ZERO,
            capacity: instance.capacity(),
            model,
            channels,
            next_duplex: 0,
            schedule: Schedule::with_capacity(instance.len()),
        }
    }

    /// The execution model the engine commits under.
    #[inline]
    pub fn model(&self) -> ExecutionModel {
        self.model
    }

    /// Drops every pending release happening at or before `t` and folds it
    /// into the running `held` total. The heuristic loops call this once per
    /// decision instant, which makes every subsequent [`held_at`] probe at
    /// `t` O(1).
    ///
    /// [`held_at`]: EngineState::held_at
    pub fn release_up_to(&mut self, t: Time) {
        while let Some(&(end, mem)) = self.releases.front() {
            if end <= t {
                self.held = self.held.saturating_sub(mem);
                self.releases.pop_front();
            } else {
                break;
            }
        }
        self.released_up_to = self.released_up_to.max(t);
    }

    /// Memory still held at instant `t`: active tasks whose computation ends
    /// strictly after `t` (a release at exactly `t` is already effective,
    /// matching the schedules of the paper's figures).
    ///
    /// Queries at the pruning point cost O(1); queries further in the future
    /// scan only the releases in between.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes an instant already passed to
    /// [`release_up_to`](EngineState::release_up_to) — releases before that
    /// point have been discarded, so the state cannot answer for the past
    /// and silently under-reporting would let infeasible commits through.
    pub fn held_at(&self, t: Time) -> MemSize {
        assert!(
            t >= self.released_up_to,
            "memory query at {t} precedes releases already pruned at {}",
            self.released_up_to
        );
        let released: MemSize = self
            .releases
            .iter()
            .take_while(|(end, _)| *end <= t)
            .map(|(_, mem)| *mem)
            .sum();
        self.held.saturating_sub(released)
    }

    /// Memory still free at the pruning instant (the last instant passed to
    /// [`release_up_to`](EngineState::release_up_to)): the capacity minus
    /// the running held-memory total, in O(1). A task fits at that instant
    /// iff its requirement is at most this value, which is what lets the
    /// selection work as threshold queries on a [`CandidateIndex`].
    #[inline]
    pub fn available(&self) -> MemSize {
        MemSize::from_bytes(self.capacity.bytes().saturating_sub(self.held.bytes()))
    }

    /// `true` iff `task` fits in the memory remaining at instant `t`. An
    /// exact sum that overflows `u64` cannot fit under any capacity, so it
    /// counts as not fitting — the same convention as
    /// [`simulate_sequence`], which
    /// also keeps the engine's held-memory counter an exact sum.
    pub fn fits_at(&self, task: &Task, t: Time) -> bool {
        self.held_at(t)
            .bytes()
            .checked_add(task.mem.bytes())
            .is_some_and(|total| total <= self.capacity.bytes())
    }

    /// Idle time that starting `task`'s transfer at instant `t` would induce
    /// on the processing unit: the gap between the moment the unit becomes
    /// free and the moment this task's data would be ready.
    ///
    /// Exact under the explicit, duplex and streams models — a transfer
    /// committed at `t` always finds its channel free (that is what
    /// [`link_free`](EngineState::link_free) guarantees), so the data is
    /// ready at `t + comm`. Under the implicit model the selection rule
    /// deliberately keeps this communication-time proxy (the paper's
    /// heuristics are defined on task transfer times): it is exact at
    /// overlap efficiency 0 and keeps every criterion distinguishable and
    /// O(log n) via the [`CandidateIndex`] threshold queries.
    pub fn induced_cpu_idle(&self, task: &Task, t: Time) -> Time {
        (t + task.comm_time).saturating_sub(self.cpu_free)
    }

    /// The next instant after `t` at which some active task releases its
    /// memory, if any. Used to advance time when nothing fits. O(log n) by
    /// binary search on the sorted release queue.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes an instant already passed to
    /// [`release_up_to`](EngineState::release_up_to), for the same reason as
    /// [`held_at`](EngineState::held_at): pruned releases cannot be
    /// reported, and silently skipping them would make callers jump past
    /// real release instants.
    pub fn next_release_after(&self, t: Time) -> Option<Time> {
        assert!(
            t >= self.released_up_to,
            "release query at {t} precedes releases already pruned at {}",
            self.released_up_to
        );
        let idx = self.releases.partition_point(|(end, _)| *end <= t);
        self.releases.get(idx).map(|(end, _)| *end)
    }

    /// Commits `task` (with id `id`) to start its transfer at instant `t`.
    /// Returns the completion time of its computation.
    ///
    /// Model-aware: under the explicit model the single link is busy until
    /// the transfer ends (the paper's semantics, byte-identical to the
    /// seed engine); under duplex/streams only the chosen channel is, and
    /// [`link_free`](EngineState::link_free) advances to when the *next*
    /// transfer could be issued; under the implicit model the task's
    /// transfer and computation fuse into one phase holding link and CPU.
    ///
    /// # Panics
    /// Panics in debug builds if the transfer would overlap the link busy
    /// period or overflow the memory — callers must only commit decisions
    /// validated with [`EngineState::fits_at`].
    pub fn commit(&mut self, instance: &Instance, id: TaskId, t: Time) -> Time {
        let task = instance.task(id);
        debug_assert!(t >= self.link_free, "transfer would overlap the link");
        debug_assert!(self.fits_at(task, t), "task does not fit in memory");
        self.release_up_to(t);
        let comm_start = t;
        let (comp_start, comp_end) = match self.model {
            ExecutionModel::Explicit => {
                let comm_end = comm_start + task.comm_time;
                let comp_start = comm_end.max(self.cpu_free);
                let comp_end = comp_start + task.comp_time;
                self.link_free = comm_end;
                self.cpu_free = comp_end;
                (comp_start, comp_end)
            }
            ExecutionModel::Duplex => {
                let comm_end = comm_start + task.comm_time;
                debug_assert!(
                    self.channels[self.next_duplex] <= t,
                    "chosen direction is busy"
                );
                self.channels[self.next_duplex] = comm_end;
                self.next_duplex = (self.next_duplex + 1) % self.channels.len();
                // Transfers are issued in decision order, so the next one
                // starts no earlier than this one and no earlier than its
                // (round-robin) direction frees up.
                self.link_free = comm_start.max(self.channels[self.next_duplex]);
                let comp_start = comm_end.max(self.cpu_free);
                let comp_end = comp_start + task.comp_time;
                self.cpu_free = comp_end;
                (comp_start, comp_end)
            }
            ExecutionModel::Streams { .. } => {
                let comm_end = comm_start + task.comm_time;
                let channel = Self::earliest_free_channel(&self.channels);
                debug_assert!(self.channels[channel] <= t, "chosen stream is busy");
                self.channels[channel] = comm_end;
                let earliest = self.channels[Self::earliest_free_channel(&self.channels)];
                self.link_free = comm_start.max(earliest);
                let comp_start = comm_end.max(self.cpu_free);
                let comp_end = comp_start + task.comp_time;
                self.cpu_free = comp_end;
                (comp_start, comp_end)
            }
            ExecutionModel::Implicit { .. } => {
                let end = comm_start + self.model.fused_duration(task.comm_time, task.comp_time);
                self.link_free = end;
                self.cpu_free = end;
                // fused >= comp, so the computation tail starts within the
                // phase.
                (end - task.comp_time, end)
            }
        };
        self.releases.push_back((comp_end, task.mem));
        self.held = self.held.saturating_add(task.mem);
        self.schedule.push(ScheduleEntry {
            task: id,
            comm_start,
            comp_start,
        });
        comp_end
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
}

/// Among `candidates` (tasks that fit in memory at instant `t`), keeps only
/// those inducing the minimum idle time on the processing unit — the common
/// pre-filter of every dynamic selection rule of the paper.
pub fn filter_minimum_cpu_idle(
    instance: &Instance,
    state: &EngineState,
    candidates: &[TaskId],
    t: Time,
) -> Vec<TaskId> {
    let min_idle = candidates
        .iter()
        .map(|&id| state.induced_cpu_idle(instance.task(id), t))
        .min();
    match min_idle {
        None => Vec::new(),
        Some(min) => candidates
            .iter()
            .copied()
            .filter(|&id| state.induced_cpu_idle(instance.task(id), t) == min)
            .collect(),
    }
}

/// Resolves one dynamic selection decision against a [`CandidateIndex`]:
/// among the remaining tasks that fit in the free memory at instant `now`,
/// keep those inducing the minimum idle time on the processing unit, then
/// apply `criterion` — the exact rule of
/// `criterion.choose(filter_minimum_cpu_idle(fitting))`, without
/// materializing either set.
///
/// Returns `None` iff no remaining task fits, in which case callers wait
/// for the next memory release. The caller must have called
/// [`EngineState::release_up_to`]`(now)` beforehand so that
/// [`EngineState::available`] reflects the decision instant.
///
/// # How the index queries map onto the paper's rule
///
/// A fitting task induces zero CPU idle time iff its communication time is
/// at most `slack = cpu_free − now`; otherwise the induced idle time grows
/// strictly with the communication time. Hence, with `cmin` the smallest
/// communication time among fitting tasks:
///
/// * if `cmin <= slack`, the minimum-idle candidates are the fitting tasks
///   with communication time at most `slack`;
/// * otherwise they are the fitting tasks with communication time exactly
///   `cmin`, and restricting a `<= cmin` query to fitting tasks yields the
///   same set (no fitting task has a smaller communication time).
///
/// Each criterion then reduces to one ordered query on that set, with ties
/// broken by smallest id exactly as [`SelectionCriterion::choose`] does.
pub fn select_candidate(
    instance: &Instance,
    state: &EngineState,
    index: &CandidateIndex,
    now: Time,
    criterion: SelectionCriterion,
) -> Option<TaskId> {
    let free = state.available();
    let cheapest = index.min_comm_candidate(free)?;
    let cmin = instance.task(cheapest).comm_time;
    let slack = state.cpu_free.saturating_sub(now);
    if cmin > slack {
        // Every fitting task induces CPU idle time; the candidates are the
        // fitting tasks with the smallest communication time `cmin`. A
        // `<= cmin` query would return the same task — no fitting task has
        // a shorter communication time — but the exact-`cmin` form lets the
        // index skip the shorter-communication positions entirely instead
        // of walking their (never-fitting, often high-ratio) tasks as
        // search blockers.
        return match criterion {
            // All candidates share the same communication time, so both
            // communication criteria pick the smallest id among them —
            // which is `cheapest` by the `(comm, id)` index order.
            SelectionCriterion::LargestCommunication
            | SelectionCriterion::SmallestCommunication => Some(cheapest),
            SelectionCriterion::MaximumAcceleration => index.best_ratio_candidate_at(free, cmin),
        };
    }
    // Some fitting task induces no idle time: the candidates are the fitting
    // tasks with communication time at most `slack`.
    match criterion {
        SelectionCriterion::LargestCommunication => index.max_comm_candidate_within(free, slack),
        SelectionCriterion::SmallestCommunication => Some(cheapest),
        SelectionCriterion::MaximumAcceleration => index.best_ratio_candidate_within(free, slack),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dts_core::instances::{random_instance_decoupled_memory, table4};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Replays whole scheduling runs, comparing `select_candidate` against
    /// the executable specification it replaces — `criterion.choose` over
    /// `filter_minimum_cpu_idle` over the fitting remaining tasks — at
    /// every single decision instant.
    #[test]
    fn select_candidate_matches_the_specification_filter() {
        let mut rng = StdRng::seed_from_u64(31);
        let criteria = [
            SelectionCriterion::LargestCommunication,
            SelectionCriterion::SmallestCommunication,
            SelectionCriterion::MaximumAcceleration,
        ];
        for round in 0..15 {
            let inst = random_instance_decoupled_memory(&mut rng, 14, 1.2);
            for criterion in criteria {
                let mut state = EngineState::new(&inst);
                let mut index = CandidateIndex::new(&inst);
                let mut remaining: Vec<TaskId> = inst.task_ids();
                let mut now = Time::ZERO;
                while !remaining.is_empty() {
                    now = now.max(state.link_free);
                    state.release_up_to(now);
                    let fitting: Vec<TaskId> = remaining
                        .iter()
                        .copied()
                        .filter(|id| state.fits_at(inst.task(*id), now))
                        .collect();
                    let spec = criterion.choose(
                        &inst,
                        &filter_minimum_cpu_idle(&inst, &state, &fitting, now),
                    );
                    let fast = select_candidate(&inst, &state, &index, now, criterion);
                    assert_eq!(fast, spec, "round {round}, {criterion:?}, t = {now}");
                    match fast {
                        Some(chosen) => {
                            state.commit(&inst, chosen, now);
                            index.remove(chosen);
                            remaining.retain(|id| *id != chosen);
                        }
                        None => {
                            now = state
                                .next_release_after(now)
                                .expect("some task holds memory");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn held_memory_tracks_commits_and_releases() {
        let inst = table4();
        let mut state = EngineState::new(&inst);
        assert_eq!(state.held_at(Time::ZERO), MemSize::ZERO);
        // Commit B (comm 1, comp 6, mem 1) at t = 0: active until 7.
        let end = state.commit(&inst, TaskId(1), Time::ZERO);
        assert_eq!(end, Time::units_int(7));
        assert_eq!(state.held_at(Time::units_int(3)), MemSize::from_bytes(1));
        assert_eq!(state.held_at(Time::units_int(7)), MemSize::ZERO);
        assert_eq!(state.link_free, Time::units_int(1));
        assert_eq!(state.cpu_free, Time::units_int(7));
        assert_eq!(
            state.next_release_after(Time::ZERO),
            Some(Time::units_int(7))
        );
        assert_eq!(state.next_release_after(Time::units_int(7)), None);
    }

    #[test]
    fn release_up_to_prunes_and_preserves_queries() {
        let inst = table4();
        let mut state = EngineState::new(&inst);
        // B (comp ends at 7, mem 1) then D (comm [1,6), comp [7,8), mem 5).
        state.commit(&inst, TaskId(1), Time::ZERO);
        state.commit(&inst, TaskId(3), Time::units_int(1));
        assert_eq!(state.held_at(Time::units_int(6)), MemSize::from_bytes(6));
        // Pruning at 7 releases B but keeps D queued.
        state.release_up_to(Time::units_int(7));
        assert_eq!(state.held_at(Time::units_int(7)), MemSize::from_bytes(5));
        assert_eq!(
            state.next_release_after(Time::units_int(7)),
            Some(Time::units_int(8))
        );
        // Pruning at 8 empties the queue.
        state.release_up_to(Time::units_int(8));
        assert_eq!(state.held_at(Time::units_int(8)), MemSize::ZERO);
        assert_eq!(state.next_release_after(Time::units_int(8)), None);
        // Pruning past the end stays consistent.
        state.release_up_to(Time::units_int(100));
        assert_eq!(state.held_at(Time::units_int(100)), MemSize::ZERO);
    }

    #[test]
    fn fits_at_respects_capacity() {
        let inst = table4(); // capacity 6
        let mut state = EngineState::new(&inst);
        // B holds mem 1 until t = 7, then D holds mem 5 until t = 8.
        state.commit(&inst, TaskId(1), Time::ZERO);
        state.commit(&inst, TaskId(3), Time::units_int(1));
        // At t = 6 nothing else fits (held 6).
        assert!(!state.fits_at(inst.task(TaskId(0)), Time::units_int(6)));
        // At t = 8 both releases happened.
        assert!(state.fits_at(inst.task(TaskId(2)), Time::units_int(8)));
    }

    #[test]
    fn induced_idle_measures_cpu_gap() {
        let inst = table4();
        let mut state = EngineState::new(&inst);
        // B first: cpu_free = 7.
        state.commit(&inst, TaskId(1), Time::ZERO);
        // Starting A (comm 3) at t = 1 ends its transfer at 4 < 7: no idle.
        assert_eq!(
            state.induced_cpu_idle(inst.task(TaskId(0)), Time::units_int(1)),
            Time::ZERO
        );
        // Starting A at t = 8 ends at 11: 4 units of CPU idle.
        assert_eq!(
            state.induced_cpu_idle(inst.task(TaskId(0)), Time::units_int(8)),
            Time::units_int(4)
        );
    }

    #[test]
    fn min_idle_filter_keeps_ties() {
        let inst = table4();
        let mut state = EngineState::new(&inst);
        state.commit(&inst, TaskId(1), Time::ZERO); // cpu busy until 7
        let candidates = vec![TaskId(0), TaskId(2), TaskId(3)];
        // At t = 1 every remaining transfer finishes before 7: all tie at 0.
        let kept = filter_minimum_cpu_idle(&inst, &state, &candidates, Time::units_int(1));
        assert_eq!(kept, candidates);
        // At t = 5, A (comm 3) ends at 8 (idle 1), C (comm 4) at 9 (idle 2),
        // D (comm 5) at 10 (idle 3): only A is kept.
        let kept = filter_minimum_cpu_idle(&inst, &state, &candidates, Time::units_int(5));
        assert_eq!(kept, vec![TaskId(0)]);
        assert!(filter_minimum_cpu_idle(&inst, &state, &[], Time::ZERO).is_empty());
    }
}
