//! Static ordering heuristics (Section 4.1 and 4.4 of the paper).
//!
//! A static heuristic computes the full processing order in advance from the
//! task characteristics; the order is then executed on both resources by the
//! memory-constrained executor
//! ([`simulate_sequence`]).

use crate::{Heuristic, Plan};
use dts_core::prelude::*;
use std::borrow::Cow;

/// Computes the task order used by a static heuristic: one
/// [`Plan::static_order`] call on a fresh plan.
///
/// # Errors
/// Returns an error if `heuristic` is not a static heuristic.
pub fn static_order(instance: &Instance, heuristic: Heuristic) -> Result<Vec<TaskId>> {
    Plan::new(instance)
        .static_order(instance, heuristic)
        .map(Cow::into_owned)
}

/// The `IOCMS` order: increasing communication time.
pub(crate) fn increasing_comm_order(instance: &Instance) -> Vec<TaskId> {
    sorted_by(instance, |t| t.comm_time, false)
}

/// The `DOCPS` order: decreasing computation time.
pub(crate) fn decreasing_comp_order(instance: &Instance) -> Vec<TaskId> {
    sorted_by(instance, |t| t.comp_time, true)
}

/// The `IOCCS` order: increasing communication plus computation time.
pub(crate) fn increasing_total_order(instance: &Instance) -> Vec<TaskId> {
    sorted_by(instance, |t| t.total_time(), false)
}

/// The `DOCCS` order: decreasing communication plus computation time.
pub(crate) fn decreasing_total_order(instance: &Instance) -> Vec<TaskId> {
    sorted_by(instance, |t| t.total_time(), true)
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
    let (bin_of, bins) = first_fit(instance);
    // Counting pass: bin `b`'s tasks start at the total size of the bins
    // before it, and keep their submission order within it.
    let mut next = vec![0usize; bins + 1];
    for &b in &bin_of {
        next[b + 1] += 1;
    }
    for b in 1..=bins {
        next[b] += next[b - 1];
    }
    let mut order = vec![TaskId(0); bin_of.len()];
    for (i, &b) in bin_of.iter().enumerate() {
        order[next[b]] = TaskId(i);
        next[b] += 1;
    }
    order
}

/// Groups produced by the First-Fit packing (exposed for inspection and for
/// the bin-packing tests).
pub fn first_fit_bins(instance: &Instance) -> Vec<Vec<TaskId>> {
    let (bin_of, bins) = first_fit(instance);
    let mut groups = vec![Vec::new(); bins];
    for (i, &b) in bin_of.iter().enumerate() {
        groups[b].push(TaskId(i));
    }
    groups
}

/// First-Fit packing in submission order: the bin of every task and the
/// number of bins. A task goes to the first bin whose load plus the task's
/// memory (saturating) is at most the capacity, or opens a new bin. A task
/// larger than the capacity opens its own bin, which then takes nothing
/// more, not even a zero-size task.
///
/// A min-load tree over the bins finds that first bin in O(log n): the
/// leaves are the bins in creation order (unopened bins hold load 0), and
/// a task of size `m` fits in the leftmost bin whose load is at most
/// `capacity - m`. O(n log n) in all, against O(n · bins) for a scan.
fn first_fit(instance: &Instance) -> (Vec<usize>, usize) {
    let capacity = instance.capacity().bytes();
    let n = instance.len();
    let base = n.next_power_of_two().max(1);
    let mut min_load = vec![0u64; 2 * base];
    let mut bins = 0usize;
    let mut bin_of = Vec::with_capacity(n);
    for (_, task) in instance.iter() {
        let mem = task.mem.bytes();
        // The largest load the task still fits on; with an unbounded
        // capacity the saturating sum fits everywhere.
        let limit = if capacity == u64::MAX {
            Some(u64::MAX)
        } else {
            capacity.checked_sub(mem)
        };
        let bin = match limit {
            Some(limit) if min_load[1] <= limit => {
                let mut node = 1;
                while node < base {
                    node = if min_load[2 * node] <= limit {
                        2 * node
                    } else {
                        2 * node + 1
                    };
                }
                node - base
            }
            // Fits nowhere, not even in an empty bin: a bin of its own.
            _ => bins,
        };
        bins = bins.max(bin + 1);
        let mut node = base + bin;
        min_load[node] = min_load[node].saturating_add(mem);
        while node > 1 {
            node /= 2;
            min_load[node] = min_load[2 * node].min(min_load[2 * node + 1]);
        }
        bin_of.push(bin);
    }
    (bin_of, bins)
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

    /// The First-Fit scan `first_fit` replaced: every task probes the bins
    /// in creation order.
    fn first_fit_bins_by_scan(instance: &Instance) -> Vec<Vec<TaskId>> {
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

    /// An instance with the given task sizes and capacity, through the
    /// deserializer so that tasks larger than the capacity get in.
    fn packing_instance(mems: &[u64], capacity: u64) -> Instance {
        let tasks: Vec<String> = mems
            .iter()
            .enumerate()
            .map(|(i, m)| {
                format!(r#"{{"name": "t{i}", "comm_time": 1, "comp_time": 1, "mem": {m}}}"#)
            })
            .collect();
        let json = format!(
            r#"{{"tasks": [{}], "capacity": {capacity}, "label": ""}}"#,
            tasks.join(",")
        );
        serde_json::from_str(&json).expect("instance parses")
    }

    /// A size drawn as `(kind, raw)`: zero, small, or anywhere in `u64`.
    fn size_of((kind, raw): (u64, u64)) -> u64 {
        match kind {
            0 => 0,
            1 => raw % 16,
            _ => raw,
        }
    }

    microcheck::property! {
        /// The min-load tree packs every task into the bin the scan picks,
        /// and the order is the bins' concatenation. Sizes mix zero-size
        /// tasks, small ones and `u64`-scale ones, so bins overflow `u64`
        /// sums and tasks larger than the capacity occur. The capacity
        /// stays below `u64::MAX`, where the scan's own sum could wrap.
        fn first_fit_matches_the_scan(
            (sizes, capacity) in (
                microcheck::gens::vec_of(
                    (microcheck::gens::u64_in(0..=2), microcheck::gens::u64_in(0..=u64::MAX)),
                    1..=40,
                ),
                (microcheck::gens::u64_in(1..=2), microcheck::gens::u64_in(0..=u64::MAX - 1)),
            )
        ) {
            let mems: Vec<u64> = sizes.iter().copied().map(size_of).collect();
            let inst = packing_instance(&mems, size_of(capacity));
            let expected = first_fit_bins_by_scan(&inst);
            microcheck::prop_assert_eq!(first_fit_bins(&inst), expected.clone());
            let concat: Vec<TaskId> = expected.into_iter().flatten().collect();
            microcheck::prop_assert_eq!(first_fit_order(&inst), concat);
        }
    }

    #[test]
    fn oversized_task_bin_takes_nothing_more() {
        // Capacity 4: `big` opens bin 1 past the capacity, and neither the
        // zero-size task nor the one-byte task may join it.
        let inst = packing_instance(&[3, 9, 0, 1, 1], 4);
        let bins = first_fit_bins(&inst);
        assert_eq!(bins, first_fit_bins_by_scan(&inst));
        assert_eq!(
            bins,
            vec![
                vec![TaskId(0), TaskId(2), TaskId(3)],
                vec![TaskId(1)],
                vec![TaskId(4)]
            ]
        );
        let inst = packing_instance(&[9, 0], 4);
        assert_eq!(
            first_fit_bins(&inst),
            vec![vec![TaskId(0)], vec![TaskId(1)]]
        );
        // Zero-size tasks fit in the first bin, even a full one.
        let inst = packing_instance(&[4, 0, 0], 4);
        assert_eq!(first_fit_bins(&inst), vec![inst.task_ids()]);
    }

    #[test]
    fn unbounded_capacity_packs_one_bin() {
        let inst = packing_instance(&[u64::MAX / 2, u64::MAX / 2, 1], u64::MAX);
        assert_eq!(first_fit_bins(&inst), first_fit_bins_by_scan(&inst));
        assert_eq!(first_fit_order(&inst), inst.task_ids());
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
