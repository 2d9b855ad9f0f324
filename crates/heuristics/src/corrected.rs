//! Static order with dynamic corrections (Section 4.3 of the paper).
//!
//! The Johnson (OMIM) order is precomputed and followed as long as the next
//! task of the order fits in the available memory. When it does not, a task
//! is selected dynamically — among the remaining tasks that fit and induce
//! minimum idle time on the processing unit — and removed from the pending
//! order. If nothing fits, the link stays idle until the next memory
//! release.

use crate::engine::{select_candidate, EngineState};
use crate::SelectionCriterion;
use dts_core::index::CandidateIndex;
use dts_core::prelude::*;
use serde::{Deserialize, Serialize};

/// Criterion used when a dynamic correction is needed. The options mirror
/// [`SelectionCriterion`]; a separate type keeps
/// the heuristic names (`OOLCMR`/`OOSCMR`/`OOMAMR`) self-documenting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CorrectionCriterion {
    /// `OOLCMR`: largest communication time.
    LargestCommunication,
    /// `OOSCMR`: smallest communication time.
    SmallestCommunication,
    /// `OOMAMR`: largest computation/communication ratio.
    MaximumAcceleration,
}

impl From<CorrectionCriterion> for SelectionCriterion {
    fn from(c: CorrectionCriterion) -> SelectionCriterion {
        match c {
            CorrectionCriterion::LargestCommunication => SelectionCriterion::LargestCommunication,
            CorrectionCriterion::SmallestCommunication => SelectionCriterion::SmallestCommunication,
            CorrectionCriterion::MaximumAcceleration => SelectionCriterion::MaximumAcceleration,
        }
    }
}

/// Runs a static-order-with-dynamic-corrections heuristic following the
/// precomputed `order`, under the execution model the instance carries
/// ([`ExecutionModel::Explicit`] unless one was attached). The paper's
/// OOLCMR/OOSCMR/OOMAMR follow the Johnson order
/// ([`dts_flowshop::johnson::johnson_order`]); the ablation benchmarks
/// apply corrections on top of other static orders. As for the dynamic
/// heuristics, the order-following and correction rules are shared by all
/// models; only the commit timing differs (see [`EngineState::commit`]).
pub fn run_corrected(
    instance: &Instance,
    order: &[TaskId],
    criterion: CorrectionCriterion,
) -> Result<Schedule> {
    instance.model().validate()?;
    dts_core::simulate::check_permutation(instance, order)?;
    instance.check_tasks_fit()?;
    let selection: SelectionCriterion = criterion.into();
    let mut state = EngineState::new(instance);
    // The pending set is the suffix of `order` starting at `cursor`, minus
    // the positions already scheduled by a dynamic correction; `index`
    // mirrors it as a memory-indexed structure so a correction is resolved
    // with O(log n) threshold queries (see `select_candidate`) instead of
    // scanning the whole suffix.
    let mut scheduled = vec![false; order.len()];
    let mut position_of = vec![0usize; order.len()];
    for (pos, id) in order.iter().enumerate() {
        position_of[id.index()] = pos;
    }
    let mut index = match selection {
        SelectionCriterion::MaximumAcceleration => CandidateIndex::new(instance),
        _ => CandidateIndex::comm_only(instance),
    };
    let mut cursor = 0usize;
    let mut now = Time::ZERO;

    while !index.is_empty() {
        now = now.max(state.link_free);
        state.release_up_to(now);
        while cursor < order.len() && scheduled[cursor] {
            cursor += 1;
        }
        let next = order[cursor];
        if state.fits_at(instance.task(next), now) {
            // Follow the precomputed order.
            state.commit(instance, next, now);
            scheduled[cursor] = true;
            index.remove(next);
            cursor += 1;
            continue;
        }
        // The next task of the order does not fit: correct dynamically. The
        // index still contains `next`, but it is never returned here since
        // the queries only consider tasks that fit.
        match select_candidate(instance, &state, &index, now, selection) {
            Some(chosen) => {
                state.commit(instance, chosen, now);
                scheduled[position_of[chosen.index()]] = true;
                index.remove(chosen);
            }
            None => {
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
    use dts_core::instances::{random_instance_decoupled_memory, table5};
    use dts_core::simulate::simulate_sequence;
    use dts_flowshop::johnson::johnson_order;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The paper's OO* heuristics: corrections on top of the Johnson order.
    fn johnson_corrected(inst: &Instance, criterion: CorrectionCriterion) -> Schedule {
        run_corrected(inst, &johnson_order(inst), criterion).unwrap()
    }

    fn comm_order_names(inst: &Instance, sched: &Schedule) -> Vec<String> {
        sched
            .comm_order()
            .iter()
            .map(|id| inst.name(*id).to_string())
            .collect()
    }

    /// Fig. 6 of the paper: the three corrected heuristics on Table 5 with a
    /// memory capacity of 9 (Johnson order B C D E A).
    #[test]
    fn fig6_oolcmr_schedule() {
        let inst = table5();
        let sched = johnson_corrected(&inst, CorrectionCriterion::LargestCommunication);
        assert_eq!(
            comm_order_names(&inst, &sched),
            vec!["B", "D", "A", "E", "C"]
        );
        assert_eq!(sched.makespan(&inst), Time::units_int(33));
        assert!(is_feasible(&inst, &sched));
    }

    #[test]
    fn fig6_ooscmr_schedule() {
        let inst = table5();
        let sched = johnson_corrected(&inst, CorrectionCriterion::SmallestCommunication);
        assert_eq!(
            comm_order_names(&inst, &sched),
            vec!["B", "E", "A", "D", "C"]
        );
        assert_eq!(sched.makespan(&inst), Time::units_int(35));
        assert!(is_feasible(&inst, &sched));
    }

    #[test]
    fn fig6_oomamr_schedule() {
        let inst = table5();
        let sched = johnson_corrected(&inst, CorrectionCriterion::MaximumAcceleration);
        assert_eq!(
            comm_order_names(&inst, &sched),
            vec!["B", "D", "E", "A", "C"]
        );
        assert_eq!(sched.makespan(&inst), Time::units_int(33));
        assert!(is_feasible(&inst, &sched));
    }

    #[test]
    fn fig6_oolcmr_detailed_timeline() {
        // Event times read off Fig. 6 (OOLCMR row): B comm [0,2) comp [2,8);
        // D comm [2,7) comp [8,12); A comm [8,12) comp [12,13);
        // E comm [12,15) comp [15,17); C comm [17,25) comp [25,33).
        let inst = table5();
        let sched = johnson_corrected(&inst, CorrectionCriterion::LargestCommunication);
        let by_name = |n: &str| {
            let id = inst
                .task_ids()
                .into_iter()
                .find(|&id| inst.name(id) == n)
                .unwrap();
            *sched.entry(id).unwrap()
        };
        assert_eq!(by_name("D").comm_start, Time::units_int(2));
        assert_eq!(by_name("A").comm_start, Time::units_int(8));
        assert_eq!(by_name("E").comm_start, Time::units_int(12));
        assert_eq!(by_name("C").comm_start, Time::units_int(17));
        assert_eq!(by_name("C").comp_start, Time::units_int(25));
    }

    #[test]
    fn with_unconstrained_memory_corrected_equals_johnson() {
        // When memory is never a restriction the corrected heuristics follow
        // the Johnson order exactly and reach OMIM.
        let mut rng = StdRng::seed_from_u64(55);
        for _ in 0..20 {
            let inst = random_instance_decoupled_memory(&mut rng, 12, 1000.0);
            let omim = dts_flowshop::johnson::johnson_makespan(&inst);
            for criterion in [
                CorrectionCriterion::LargestCommunication,
                CorrectionCriterion::SmallestCommunication,
                CorrectionCriterion::MaximumAcceleration,
            ] {
                let sched = johnson_corrected(&inst, criterion);
                assert_eq!(sched.makespan(&inst), omim);
            }
        }
    }

    #[test]
    fn corrected_never_worse_than_uncorrected_on_table5() {
        // On Table 5 the plain OOSIM (no corrections) is blocked by C and
        // ends later than every corrected variant.
        let inst = table5();
        let johnson = johnson_order(&inst);
        let uncorrected = simulate_sequence(&inst, &johnson).unwrap().makespan(&inst);
        for criterion in [
            CorrectionCriterion::LargestCommunication,
            CorrectionCriterion::SmallestCommunication,
            CorrectionCriterion::MaximumAcceleration,
        ] {
            let corrected = johnson_corrected(&inst, criterion).makespan(&inst);
            assert!(corrected <= uncorrected);
        }
    }

    #[test]
    fn corrected_with_custom_order_is_feasible() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let inst = random_instance_decoupled_memory(&mut rng, 15, 1.25);
            // Apply corrections on top of the submission order.
            let order = inst.task_ids();
            let sched =
                run_corrected(&inst, &order, CorrectionCriterion::MaximumAcceleration).unwrap();
            assert!(is_feasible(&inst, &sched));
            assert_eq!(sched.len(), inst.len());
        }
    }

    #[test]
    fn invalid_order_rejected() {
        let inst = table5();
        let err = run_corrected(
            &inst,
            &[TaskId(0), TaskId(1)],
            CorrectionCriterion::LargestCommunication,
        );
        assert!(err.is_err());
    }

    #[test]
    fn duplicated_order_reports_the_repeated_task() {
        let inst = table5();
        let err = run_corrected(
            &inst,
            &[TaskId(0), TaskId(1), TaskId(1), TaskId(3), TaskId(4)],
            CorrectionCriterion::LargestCommunication,
        )
        .unwrap_err();
        assert_eq!(err, CoreError::DuplicateTask(TaskId(1)));
    }
}
