//! Static ordering heuristics (Section 4.1 and 4.4 of the paper).
//!
//! A static heuristic computes the full processing order in advance from the
//! task characteristics; the order is then executed on both resources by the
//! memory-constrained executor
//! ([`simulate_sequence`]).

use crate::Heuristic;
use dts_core::prelude::*;
use dts_flowshop::gilmore_gomory::gilmore_gomory_order;
use dts_flowshop::johnson::johnson_order;

/// Computes the task order used by a static heuristic.
///
/// # Errors
/// Returns an error if `heuristic` is not a static heuristic.
pub fn static_order(instance: &Instance, heuristic: Heuristic) -> Result<Vec<TaskId>> {
    let order = match heuristic {
        Heuristic::OS => instance.task_ids(),
        Heuristic::OOSIM => johnson_order(instance),
        Heuristic::IOCMS => sorted_by(instance, |t| t.comm_time, false),
        Heuristic::DOCPS => sorted_by(instance, |t| t.comp_time, true),
        Heuristic::IOCCS => sorted_by(instance, |t| t.total_time(), false),
        Heuristic::DOCCS => sorted_by(instance, |t| t.total_time(), true),
        Heuristic::GG => gilmore_gomory_order(instance),
        Heuristic::BP => first_fit_order(instance),
        other => {
            return Err(CoreError::Infeasible(format!(
                "{other} is not a static heuristic"
            )))
        }
    };
    Ok(order)
}

/// Sorts task ids by a key extracted from the task, ascending or descending.
/// The sort is stable, so ties keep the submission order (deterministic and
/// matching the paper's examples).
fn sorted_by<K: Ord>(
    instance: &Instance,
    key: impl Fn(&Task) -> K,
    descending: bool,
) -> Vec<TaskId> {
    let mut ids = instance.task_ids();
    if descending {
        ids.sort_by_key(|a| std::cmp::Reverse(key(instance.task(*a))));
    } else {
        ids.sort_by_key(|a| key(instance.task(*a)));
    }
    ids
}

/// The `BP` heuristic: First-Fit bin packing of the tasks' memory
/// requirements into bins of the memory capacity, then the concatenation of
/// the bins in creation order. Tasks are considered in submission order, as
/// in the paper ("tasks are considered in an arbitrary order").
pub fn first_fit_order(instance: &Instance) -> Vec<TaskId> {
    let capacity = instance.capacity();
    let mut bins: Vec<(MemSize, Vec<TaskId>)> = Vec::new();
    for (id, task) in instance.iter() {
        match bins
            .iter_mut()
            .find(|(used, _)| used.saturating_add(task.mem) <= capacity)
        {
            Some((used, members)) => {
                *used += task.mem;
                members.push(id);
            }
            None => bins.push((task.mem, vec![id])),
        }
    }
    bins.into_iter().flat_map(|(_, members)| members).collect()
}

/// Groups produced by the First-Fit packing (exposed for inspection and for
/// the bin-packing tests).
pub fn first_fit_bins(instance: &Instance) -> Vec<Vec<TaskId>> {
    let capacity = instance.capacity();
    let mut bins: Vec<(MemSize, Vec<TaskId>)> = Vec::new();
    for (id, task) in instance.iter() {
        match bins
            .iter_mut()
            .find(|(used, _)| used.saturating_add(task.mem) <= capacity)
        {
            Some((used, members)) => {
                *used += task.mem;
                members.push(id);
            }
            None => bins.push((task.mem, vec![id])),
        }
    }
    bins.into_iter().map(|(_, members)| members).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dts_core::instances::{random_instance_decoupled_memory, table3};
    use dts_core::simulate::simulate_sequence;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn names(inst: &Instance, order: &[TaskId]) -> Vec<String> {
        order.iter().map(|id| inst.name(*id).to_string()).collect()
    }

    /// Fig. 4 of the paper: the static orders and the makespans they reach
    /// on Table 3 with a memory capacity of 6.
    #[test]
    fn fig4_static_orders_and_makespans() {
        let inst = table3();
        let cases = [
            (Heuristic::OOSIM, vec!["B", "C", "A", "D"], 15),
            (Heuristic::IOCMS, vec!["B", "D", "A", "C"], 16),
            (Heuristic::DOCPS, vec!["C", "B", "A", "D"], 14),
            (Heuristic::IOCCS, vec!["D", "B", "A", "C"], 16),
            (Heuristic::DOCCS, vec!["C", "A", "B", "D"], 17),
        ];
        for (h, expected_order, expected_makespan) in cases {
            let order = static_order(&inst, h).unwrap();
            assert_eq!(names(&inst, &order), expected_order, "{h} order");
            let sched = simulate_sequence(&inst, &order).unwrap();
            assert_eq!(
                sched.makespan(&inst),
                Time::units_int(expected_makespan),
                "{h} makespan"
            );
        }
    }

    #[test]
    fn os_keeps_submission_order() {
        let inst = table3();
        let order = static_order(&inst, Heuristic::OS).unwrap();
        assert_eq!(order, inst.task_ids());
    }

    #[test]
    fn ioccs_and_doccs_are_reverses_up_to_ties() {
        let inst = table3();
        let inc = static_order(&inst, Heuristic::IOCCS).unwrap();
        let dec = static_order(&inst, Heuristic::DOCCS).unwrap();
        let inc_keys: Vec<Time> = inc.iter().map(|id| inst.task(*id).total_time()).collect();
        let dec_keys: Vec<Time> = dec.iter().map(|id| inst.task(*id).total_time()).collect();
        assert!(inc_keys.windows(2).all(|w| w[0] <= w[1]));
        assert!(dec_keys.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn bin_packing_groups_respect_capacity() {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..20 {
            let inst = random_instance_decoupled_memory(&mut rng, 15, 1.8);
            let bins = first_fit_bins(&inst);
            // Every task appears exactly once.
            let mut all: Vec<usize> = bins.iter().flatten().map(|id| id.index()).collect();
            all.sort_unstable();
            assert_eq!(all, (0..inst.len()).collect::<Vec<_>>());
            // Every bin fits in the capacity.
            for bin in &bins {
                let used: MemSize = bin.iter().map(|id| inst.task(*id).mem).sum();
                assert!(used <= inst.capacity());
            }
            // first_fit_order is the concatenation of the bins.
            let order = first_fit_order(&inst);
            let concat: Vec<TaskId> = bins.into_iter().flatten().collect();
            assert_eq!(order, concat);
        }
    }

    #[test]
    fn every_static_order_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(23);
        let inst = random_instance_decoupled_memory(&mut rng, 30, 1.4);
        for h in [
            Heuristic::OS,
            Heuristic::OOSIM,
            Heuristic::IOCMS,
            Heuristic::DOCPS,
            Heuristic::IOCCS,
            Heuristic::DOCCS,
            Heuristic::GG,
            Heuristic::BP,
        ] {
            let order = static_order(&inst, h).unwrap();
            let mut sorted: Vec<usize> = order.iter().map(|id| id.index()).collect();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..inst.len()).collect::<Vec<_>>(), "{h}");
        }
    }

    #[test]
    fn dynamic_heuristics_rejected() {
        let inst = table3();
        assert!(static_order(&inst, Heuristic::LCMR).is_err());
        assert!(static_order(&inst, Heuristic::OOMAMR).is_err());
    }
}
