//! The decision loop of the dynamic and corrected heuristics, and the
//! selection rule it applies.
//!
//! The machine the decisions run on — link, processing unit and memory
//! ledger — is [`dts_core::simulate::Machine`], the one every executor
//! shares; this module only decides which task goes to it next. A dynamic
//! run is a corrected run with no order to follow, so both heuristics of
//! Sections 4.2 and 4.3 are one loop, `run_decisions`.
//!
//! # Complexity
//!
//! The loop advances the machine with
//! [`Machine::release_up_to`] as its clock moves forward; after that,
//! [`Machine::available`] and [`Machine::next_release`] are O(1).
//! Decisions do not probe candidates one by one: [`select_candidate`]
//! resolves each decision with O(log n) queries against a
//! [`CandidateIndex`] of the remaining tasks, so a whole run costs
//! O(n log n) instead of the O(n²) of scanning every remaining task per
//! decision. (The ratio query behind MAMR/OOMAMR is output-sensitive —
//! O(log n) per decision when communication times are quantized, as in the
//! paper's traces; see [`CandidateIndex::best_ratio_candidate_within`] for
//! the general bound.) [`filter_minimum_cpu_idle`] remains the executable
//! specification of the selection rule: the
//! `select_candidate_matches_the_specification_filter` test below replays
//! whole runs comparing the two decision for decision, and the
//! `engine_equivalence` integration suite pins the resulting schedules
//! byte-identical to the seed engine.

use crate::SelectionCriterion;
use dts_core::index::CandidateIndex;
use dts_core::prelude::*;
use dts_core::simulate::Machine;

/// Runs the decision loop to completion: whenever the link is free, commit
/// the next task of `order` if it fits in memory, and otherwise the task
/// `criterion` selects among the remaining ones that fit
/// ([`select_candidate`]); if nothing fits, wait for the next release.
/// `order` is `None` for a dynamic run, which always selects.
///
/// `index` holds every task of `instance` and must suit `criterion`
/// ([`SelectionCriterion::build_index`]).
pub(crate) fn run_decisions(
    instance: &Instance,
    order: Option<&[TaskId]>,
    criterion: SelectionCriterion,
    mut index: CandidateIndex,
) -> Result<Schedule> {
    if let Some(order) = order {
        dts_core::simulate::check_permutation(instance, order)?;
    }
    let order = order.unwrap_or_default();
    let mut machine = Machine::new(instance);
    let mut schedule = Schedule::with_capacity(instance.len());
    // The pending part of `order` is its suffix from `cursor`, minus the
    // positions a selection already took; `index` holds the same tasks.
    let mut scheduled = vec![false; order.len()];
    let mut position_of = vec![0usize; order.len()];
    for (pos, id) in order.iter().enumerate() {
        position_of[id.index()] = pos;
    }
    let mut cursor = 0usize;
    let mut now = Time::ZERO;

    while !index.is_empty() {
        now = now.max(machine.link_free());
        machine.release_up_to(now);
        while cursor < order.len() && scheduled[cursor] {
            cursor += 1;
        }
        if let Some(&next) = order.get(cursor) {
            let task = instance.task(next);
            if machine.fits(task) {
                schedule.push(machine.commit(next, task, now));
                scheduled[cursor] = true;
                index.remove(next);
                cursor += 1;
                continue;
            }
        }
        // The index still holds the blocked task of the order, but a
        // selection only returns tasks that fit.
        match select_candidate(instance, &machine, &index, now, criterion) {
            Some(chosen) => {
                schedule.push(machine.commit(chosen, instance.task(chosen), now));
                if let Some(&pos) = position_of.get(chosen.index()) {
                    scheduled[pos] = true;
                }
                index.remove(chosen);
            }
            None => {
                // A release exists: with no memory held, every task would
                // fit (every task of an instance fits in its capacity).
                now = machine.next_release().ok_or_else(|| {
                    CoreError::Internal("no task fits yet no memory is held".into())
                })?;
            }
        }
    }
    Ok(schedule)
}

/// Idle time that starting `task`'s transfer at instant `t` would induce
/// on the processing unit: the gap between the moment the unit becomes
/// free and the moment this task's data would be ready.
///
/// Exact under the explicit, duplex and streams models — a transfer
/// committed at `t >= link_free` always finds its channel free, so the
/// data is ready at `t + comm`. Under the implicit model the selection
/// rule deliberately keeps this communication-time proxy (the paper's
/// heuristics are defined on task transfer times): it is exact at overlap
/// efficiency 0 and keeps every criterion distinguishable and O(log n) via
/// the [`CandidateIndex`] threshold queries.
pub fn induced_cpu_idle(machine: &Machine, task: &Task, t: Time) -> Time {
    // lint: allow(L005) the engine tests' executable spec; reads materialized time
    (t + task.comm_time).saturating_sub(machine.cpu_free())
}

/// Among `candidates` (tasks that fit in memory at instant `t`), keeps only
/// those inducing the minimum idle time on the processing unit — the common
/// pre-filter of every dynamic selection rule of the paper.
pub fn filter_minimum_cpu_idle(
    instance: &Instance,
    machine: &Machine,
    candidates: &[TaskId],
    t: Time,
) -> Vec<TaskId> {
    let min_idle = candidates
        .iter()
        .map(|&id| induced_cpu_idle(machine, instance.task(id), t))
        .min();
    match min_idle {
        None => Vec::new(),
        Some(min) => candidates
            .iter()
            .copied()
            .filter(|&id| induced_cpu_idle(machine, instance.task(id), t) == min)
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
/// [`Machine::release_up_to`]`(now)` beforehand so that
/// [`Machine::available`] reflects the decision instant.
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
    machine: &Machine,
    index: &CandidateIndex,
    now: Time,
    criterion: SelectionCriterion,
) -> Option<TaskId> {
    let free = machine.available();
    let cheapest = index.min_comm_candidate(free)?;
    // lint: allow(L005) the index's cheapest fitting task; reads the materialized time
    let cmin = instance.task(cheapest).comm_time;
    let slack = machine.cpu_free().saturating_sub(now);
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
                let mut machine = Machine::new(&inst);
                let mut index = CandidateIndex::new(&inst);
                let mut remaining: Vec<TaskId> = inst.task_ids();
                let mut now = Time::ZERO;
                while !remaining.is_empty() {
                    now = now.max(machine.link_free());
                    machine.release_up_to(now);
                    let fitting: Vec<TaskId> = remaining
                        .iter()
                        .copied()
                        .filter(|id| machine.fits(inst.task(*id)))
                        .collect();
                    let spec = criterion.choose(
                        &inst,
                        &filter_minimum_cpu_idle(&inst, &machine, &fitting, now),
                    );
                    let fast = select_candidate(&inst, &machine, &index, now, criterion);
                    assert_eq!(fast, spec, "round {round}, {criterion:?}, t = {now}");
                    match fast {
                        Some(chosen) => {
                            machine.commit(chosen, inst.task(chosen), now);
                            index.remove(chosen);
                            remaining.retain(|id| *id != chosen);
                        }
                        None => {
                            now = machine.next_release().expect("some task holds memory");
                        }
                    }
                }
            }
        }
    }

    fn commit(machine: &mut Machine, inst: &Instance, id: usize, t: Time) -> ScheduleEntry {
        machine.commit(TaskId(id), inst.task(TaskId(id)), t)
    }

    #[test]
    fn held_memory_tracks_commits_and_releases() {
        let inst = table4(); // capacity 6
        let mut machine = Machine::new(&inst);
        assert_eq!(machine.available(), MemSize::from_bytes(6));
        // Commit B (comm 1, comp 6, mem 1) at t = 0: active until 7.
        let entry = commit(&mut machine, &inst, 1, Time::ZERO);
        assert_eq!(entry.comp_start, Time::units_int(1));
        assert_eq!(machine.link_free(), Time::units_int(1));
        assert_eq!(machine.cpu_free(), Time::units_int(7));
        machine.release_up_to(Time::units_int(3));
        assert_eq!(machine.available(), MemSize::from_bytes(5));
        assert_eq!(machine.next_release(), Some(Time::units_int(7)));
        machine.release_up_to(Time::units_int(7));
        assert_eq!(machine.available(), MemSize::from_bytes(6));
        assert_eq!(machine.next_release(), None);
    }

    #[test]
    fn release_up_to_prunes_and_preserves_queries() {
        let inst = table4();
        let mut machine = Machine::new(&inst);
        // B (comp ends at 7, mem 1) then D (comm [1,6), comp [7,8), mem 5).
        commit(&mut machine, &inst, 1, Time::ZERO);
        commit(&mut machine, &inst, 3, Time::units_int(1));
        machine.release_up_to(Time::units_int(6));
        assert_eq!(machine.available(), MemSize::ZERO);
        // Pruning at 7 releases B but keeps D queued.
        machine.release_up_to(Time::units_int(7));
        assert_eq!(machine.available(), MemSize::from_bytes(1));
        assert_eq!(machine.next_release(), Some(Time::units_int(8)));
        // Pruning at 8 empties the queue.
        machine.release_up_to(Time::units_int(8));
        assert_eq!(machine.available(), MemSize::from_bytes(6));
        assert_eq!(machine.next_release(), None);
        // Pruning past the end stays consistent.
        machine.release_up_to(Time::units_int(100));
        assert_eq!(machine.available(), MemSize::from_bytes(6));
    }

    #[test]
    fn fits_at_respects_capacity() {
        let inst = table4(); // capacity 6
        let mut machine = Machine::new(&inst);
        // B holds mem 1 until t = 7, then D holds mem 5 until t = 8.
        commit(&mut machine, &inst, 1, Time::ZERO);
        commit(&mut machine, &inst, 3, Time::units_int(1));
        // At t = 6 nothing else fits (held 6).
        machine.release_up_to(Time::units_int(6));
        assert!(!machine.fits(inst.task(TaskId(0))));
        // At t = 8 both releases happened.
        machine.release_up_to(Time::units_int(8));
        assert!(machine.fits(inst.task(TaskId(2))));
    }

    #[test]
    fn induced_idle_measures_cpu_gap() {
        let inst = table4();
        let mut machine = Machine::new(&inst);
        // B first: cpu_free = 7.
        commit(&mut machine, &inst, 1, Time::ZERO);
        // Starting A (comm 3) at t = 1 ends its transfer at 4 < 7: no idle.
        assert_eq!(
            induced_cpu_idle(&machine, inst.task(TaskId(0)), Time::units_int(1)),
            Time::ZERO
        );
        // Starting A at t = 8 ends at 11: 4 units of CPU idle.
        assert_eq!(
            induced_cpu_idle(&machine, inst.task(TaskId(0)), Time::units_int(8)),
            Time::units_int(4)
        );
    }

    #[test]
    fn min_idle_filter_keeps_ties() {
        let inst = table4();
        let mut machine = Machine::new(&inst);
        commit(&mut machine, &inst, 1, Time::ZERO); // cpu busy until 7
        let candidates = vec![TaskId(0), TaskId(2), TaskId(3)];
        // At t = 1 every remaining transfer finishes before 7: all tie at 0.
        let kept = filter_minimum_cpu_idle(&inst, &machine, &candidates, Time::units_int(1));
        assert_eq!(kept, candidates);
        // At t = 5, A (comm 3) ends at 8 (idle 1), C (comm 4) at 9 (idle 2),
        // D (comm 5) at 10 (idle 3): only A is kept.
        let kept = filter_minimum_cpu_idle(&inst, &machine, &candidates, Time::units_int(5));
        assert_eq!(kept, vec![TaskId(0)]);
        assert!(filter_minimum_cpu_idle(&inst, &machine, &[], Time::ZERO).is_empty());
    }
}
