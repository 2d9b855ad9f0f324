//! Static order with dynamic corrections (Section 4.3 of the paper).
//!
//! The Johnson (OMIM) order is precomputed and followed as long as the next
//! task of the order fits in the available memory. When it does not, a task
//! is selected dynamically — among the remaining tasks that fit and induce
//! minimum idle time on the processing unit — and removed from the pending
//! order. If nothing fits, the link stays idle until the next memory
//! release.

use crate::engine::run_decisions;
use crate::SelectionCriterion;
use dts_core::prelude::*;

/// Runs a static-order-with-dynamic-corrections heuristic following the
/// precomputed `order`, correcting with `criterion`, under the execution
/// model the instance carries ([`ExecutionModel::Explicit`] unless one was
/// attached). The paper's OOLCMR/OOSCMR/OOMAMR follow the Johnson order
/// ([`dts_flowshop::johnson::johnson_order`]) and correct with the
/// criterion of LCMR/SCMR/MAMR; the ablation benchmarks apply corrections
/// on top of other static orders. As for the dynamic heuristics, the
/// order-following and correction rules are shared by all models; only the
/// commit timing differs (see
/// [`Machine::commit`](dts_core::simulate::Machine::commit)).
pub fn run_corrected(
    instance: &Instance,
    order: &[TaskId],
    criterion: SelectionCriterion,
) -> Result<Schedule> {
    run_decisions(
        instance,
        Some(order),
        criterion,
        criterion.build_index(instance),
    )
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
    fn johnson_corrected(inst: &Instance, criterion: SelectionCriterion) -> Schedule {
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
        let sched = johnson_corrected(&inst, SelectionCriterion::LargestCommunication);
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
        let sched = johnson_corrected(&inst, SelectionCriterion::SmallestCommunication);
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
        let sched = johnson_corrected(&inst, SelectionCriterion::MaximumAcceleration);
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
        let sched = johnson_corrected(&inst, SelectionCriterion::LargestCommunication);
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
                SelectionCriterion::LargestCommunication,
                SelectionCriterion::SmallestCommunication,
                SelectionCriterion::MaximumAcceleration,
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
            SelectionCriterion::LargestCommunication,
            SelectionCriterion::SmallestCommunication,
            SelectionCriterion::MaximumAcceleration,
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
                run_corrected(&inst, &order, SelectionCriterion::MaximumAcceleration).unwrap();
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
            SelectionCriterion::LargestCommunication,
        );
        assert!(err.is_err());
    }

    #[test]
    fn duplicated_order_reports_the_repeated_task() {
        let inst = table5();
        let err = run_corrected(
            &inst,
            &[TaskId(0), TaskId(1), TaskId(1), TaskId(3), TaskId(4)],
            SelectionCriterion::LargestCommunication,
        )
        .unwrap_err();
        assert_eq!(err, CoreError::DuplicateTask(TaskId(1)));
    }
}
