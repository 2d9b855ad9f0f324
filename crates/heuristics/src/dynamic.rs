//! Dynamic selection heuristics (Section 4.2 of the paper).
//!
//! Whenever the communication link becomes idle, the next task is chosen
//! among the not-yet-scheduled tasks that (a) fit in the currently available
//! memory and (b) induce the minimum idle time on the processing unit; the
//! selection criterion then breaks the tie. If no task fits, the link is
//! left idle until the next memory release. Communications and computations
//! happen in the same order.

use crate::engine::{select_candidate, EngineState};
use dts_core::index::CandidateIndex;
use dts_core::prelude::*;
use serde::{Deserialize, Serialize};

/// Tie-break criterion applied after the minimum-CPU-idle filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SelectionCriterion {
    /// `LCMR`: pick the task with the largest communication time.
    LargestCommunication,
    /// `SCMR`: pick the task with the smallest communication time.
    SmallestCommunication,
    /// `MAMR`: pick the task with the largest computation/communication
    /// ratio.
    MaximumAcceleration,
}

impl SelectionCriterion {
    /// `true` iff the criterion asks the candidate index ratio queries
    /// (only MAMR does), so its index needs the ratio trees.
    pub(crate) fn needs_ratio_trees(self) -> bool {
        self == SelectionCriterion::MaximumAcceleration
    }

    /// The candidate index this criterion queries: the full index for
    /// MAMR, the cheaper communication-only one otherwise.
    pub(crate) fn build_index(self, instance: &Instance) -> CandidateIndex {
        if self.needs_ratio_trees() {
            CandidateIndex::new(instance)
        } else {
            CandidateIndex::comm_only(instance)
        }
    }

    /// Chooses one task among the filtered candidates. Ties are broken by
    /// task id so the heuristics are deterministic.
    pub fn choose(self, instance: &Instance, candidates: &[TaskId]) -> Option<TaskId> {
        match self {
            SelectionCriterion::LargestCommunication => candidates
                .iter()
                .copied()
                .max_by_key(|id| (instance.task(*id).comm_time, std::cmp::Reverse(id.index()))),
            SelectionCriterion::SmallestCommunication => candidates
                .iter()
                .copied()
                .min_by_key(|id| (instance.task(*id).comm_time, id.index())),
            SelectionCriterion::MaximumAcceleration => candidates.iter().copied().max_by(|a, b| {
                let ra = instance.task(*a).acceleration_ratio();
                let rb = instance.task(*b).acceleration_ratio();
                ra.partial_cmp(&rb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.index().cmp(&a.index()))
            }),
        }
    }
}

/// Runs a dynamic heuristic to completion and returns the schedule, under
/// the execution model the instance carries ([`ExecutionModel::Explicit`]
/// unless one was attached). The selection rule is shared by all models —
/// tasks are filtered by fit and minimum induced CPU idle, then tie-broken
/// by `criterion` — while the commit timing is model-specific (see
/// [`EngineState::commit`]).
///
/// # Errors
///
/// Returns [`CoreError::TaskExceedsCapacity`] if a task can never fit in the
/// instance's memory — such a task would otherwise stall the selection loop
/// forever — and [`CoreError::InvalidExecutionModel`] for an invalid model
/// (both possible only for instances that bypassed [`Instance::new`] and
/// [`Instance::with_model`] validation, e.g. deserialized ones).
pub fn run_dynamic(instance: &Instance, criterion: SelectionCriterion) -> Result<Schedule> {
    run_dynamic_with(instance, criterion, criterion.build_index(instance))
}

/// [`run_dynamic`]'s loop over a fresh `index` of every task of
/// `instance`, built by [`SelectionCriterion::build_index`] here or
/// cloned from a [`Plan`](crate::Plan).
pub(crate) fn run_dynamic_with(
    instance: &Instance,
    criterion: SelectionCriterion,
    mut index: CandidateIndex,
) -> Result<Schedule> {
    instance.model().validate()?;
    instance.check_tasks_fit()?;
    let mut state = EngineState::new(instance);
    // Remaining tasks, indexed by memory footprint: each decision is
    // resolved with O(log n) threshold queries instead of scanning every
    // remaining task (see `select_candidate`).
    let mut now = Time::ZERO;

    while !index.is_empty() {
        now = now.max(state.link_free);
        state.release_up_to(now);
        match select_candidate(instance, &state, &index, now, criterion) {
            Some(chosen) => {
                state.commit(instance, chosen, now);
                index.remove(chosen);
            }
            None => {
                // No remaining task fits: leave the link idle until the next
                // memory release. A release always exists here, otherwise
                // the memory would be empty and every task would fit
                // (oversized tasks were rejected above).
                now = state.next_release_after(now).ok_or_else(|| {
                    CoreError::Internal("no task fits yet no memory is held".into())
                })?;
            }
        }
    }
    Ok(state.schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dts_core::feasibility::is_feasible;
    use dts_core::instances::{random_instance_decoupled_memory, table4};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn comm_order_names(inst: &Instance, sched: &Schedule) -> Vec<String> {
        sched
            .comm_order()
            .iter()
            .map(|id| inst.name(*id).to_string())
            .collect()
    }

    /// Fig. 5 of the paper: the three dynamic heuristics on Table 4 with a
    /// memory capacity of 6.
    #[test]
    fn fig5_lcmr_schedule() {
        let inst = table4();
        let sched = run_dynamic(&inst, SelectionCriterion::LargestCommunication).unwrap();
        assert_eq!(comm_order_names(&inst, &sched), vec!["B", "D", "A", "C"]);
        assert_eq!(sched.makespan(&inst), Time::units_int(23));
        assert!(is_feasible(&inst, &sched));
    }

    #[test]
    fn fig5_scmr_schedule() {
        let inst = table4();
        let sched = run_dynamic(&inst, SelectionCriterion::SmallestCommunication).unwrap();
        assert_eq!(comm_order_names(&inst, &sched), vec!["B", "A", "C", "D"]);
        assert_eq!(sched.makespan(&inst), Time::units_int(25));
        assert!(is_feasible(&inst, &sched));
    }

    #[test]
    fn fig5_mamr_schedule() {
        let inst = table4();
        let sched = run_dynamic(&inst, SelectionCriterion::MaximumAcceleration).unwrap();
        assert_eq!(comm_order_names(&inst, &sched), vec!["B", "C", "A", "D"]);
        assert_eq!(sched.makespan(&inst), Time::units_int(24));
        assert!(is_feasible(&inst, &sched));
    }

    #[test]
    fn fig5_lcmr_detailed_timeline() {
        // Cross-check the exact event times read off Fig. 5 (LCMR row):
        // B comm [0,1) comp [1,7); D comm [1,6) comp [7,8);
        // A comm [8,11) comp [11,13); C comm [13,17) comp [17,23).
        let inst = table4();
        let sched = run_dynamic(&inst, SelectionCriterion::LargestCommunication).unwrap();
        let by_name = |n: &str| {
            let id = inst
                .task_ids()
                .into_iter()
                .find(|&id| inst.name(id) == n)
                .unwrap();
            *sched.entry(id).unwrap()
        };
        assert_eq!(by_name("B").comm_start, Time::ZERO);
        assert_eq!(by_name("D").comm_start, Time::units_int(1));
        assert_eq!(by_name("D").comp_start, Time::units_int(7));
        assert_eq!(by_name("A").comm_start, Time::units_int(8));
        assert_eq!(by_name("C").comm_start, Time::units_int(13));
        assert_eq!(by_name("C").comp_start, Time::units_int(17));
    }

    #[test]
    fn dynamic_schedules_are_feasible_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(1234);
        for _ in 0..30 {
            let inst = random_instance_decoupled_memory(&mut rng, 20, 1.2);
            for criterion in [
                SelectionCriterion::LargestCommunication,
                SelectionCriterion::SmallestCommunication,
                SelectionCriterion::MaximumAcceleration,
            ] {
                let sched = run_dynamic(&inst, criterion).unwrap();
                assert_eq!(sched.len(), inst.len());
                assert!(is_feasible(&inst, &sched), "{criterion:?}");
                assert!(sched.is_permutation_schedule());
            }
        }
    }

    #[test]
    fn criteria_choose_expected_tasks() {
        let inst = table4();
        let all = inst.task_ids();
        assert_eq!(
            SelectionCriterion::LargestCommunication.choose(&inst, &all),
            Some(TaskId(3)) // D: comm 5
        );
        assert_eq!(
            SelectionCriterion::SmallestCommunication.choose(&inst, &all),
            Some(TaskId(1)) // B: comm 1
        );
        assert_eq!(
            SelectionCriterion::MaximumAcceleration.choose(&inst, &all),
            Some(TaskId(1)) // B: ratio 6
        );
        assert_eq!(
            SelectionCriterion::LargestCommunication.choose(&inst, &[]),
            None
        );
    }
}
