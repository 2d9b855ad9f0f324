//! Gilmore–Gomory sequencing for the 2-machine *no-wait* flowshop.
//!
//! The paper's `GG` heuristic (Section 4.4) orders tasks with the classical
//! Gilmore–Gomory algorithm: in the no-wait flowshop, the makespan of a
//! sequence equals the total communication time plus the "non-overlap" cost
//! accumulated between adjacent tasks, which turns the sequencing problem
//! into a solvable special case of the travelling salesman problem.
//!
//! Mapping used here (with `a_i` = communication time, `b_i` = computation
//! time and a dummy job with `a = b = 0` closing the tour): the cost of
//! scheduling `j` immediately after `i` is `max(0, b_i - a_j)`, and the
//! no-wait makespan of a sequence is
//! `sum_i a_i + sum_(i -> j) max(0, b_i - a_j) + b_last`.
//!
//! The algorithm proceeds exactly as sketched in the paper: build the
//! minimum-cost assignment by rank-matching the sorted `b` values with the
//! sorted `a` values, then greedily patch the resulting cycles with
//! minimum-cost interchanges between adjacent ranks until the successor
//! function forms a single tour.

use dts_core::prelude::*;

/// Returns the Gilmore–Gomory task order for `instance`.
///
/// The order minimizes the *no-wait* 2-machine flowshop makespan. It ignores
/// the memory capacity (like the paper's `GG` heuristic, which applies the
/// sequence under the capacity constraint afterwards).
pub fn gilmore_gomory_order(instance: &Instance) -> Vec<TaskId> {
    let n = instance.len();
    if n <= 1 {
        return instance.task_ids();
    }

    // Job n is the dummy job (a = b = 0) that closes the tour.
    let a_of = |j: usize| -> Time {
        if j == n {
            Time::ZERO
        } else {
            instance.task(TaskId(j)).comm_time
        }
    };
    let b_of = |j: usize| -> Time {
        if j == n {
            Time::ZERO
        } else {
            instance.task(TaskId(j)).comp_time
        }
    };
    // Rank-matching assignment: the job with the k-th smallest b gets as
    // successor the job with the k-th smallest a.
    let mut by_b: Vec<usize> = (0..=n).collect();
    by_b.sort_by_key(|&j| (b_of(j), j));
    let mut by_a: Vec<usize> = (0..=n).collect();
    by_a.sort_by_key(|&j| (a_of(j), j));
    let mut successor = vec![0usize; n + 1];
    for k in 0..=n {
        successor[by_b[k]] = by_a[k];
    }

    // Union-find over the cycles of the successor permutation.
    let mut cycle_of = vec![usize::MAX; n + 1];
    let mut n_cycles = 0;
    for start in 0..=n {
        if cycle_of[start] != usize::MAX {
            continue;
        }
        let mut j = start;
        while cycle_of[j] == usize::MAX {
            cycle_of[j] = n_cycles;
            j = successor[j];
        }
        n_cycles += 1;
    }

    if n_cycles > 1 {
        // Candidate interchanges between adjacent ranks: interchange `k`
        // swaps the successors of the elements with b-ranks `k` and `k + 1`,
        // merging their cycles. Its cost depends only on the sorted rank
        // values: the overlap of [A_k, A_{k+1}] and [B_k, B_{k+1}], where
        // A_k (resp. B_k) is the k-th smallest communication (resp.
        // computation) time.
        let rank_a: Vec<Time> = by_a.iter().map(|&j| a_of(j)).collect();
        let rank_b: Vec<Time> = by_b.iter().map(|&j| b_of(j)).collect();
        let interchange_cost = |k: usize| -> Time {
            let low = rank_a[k].max(rank_b[k]);
            let high = rank_a[k + 1].min(rank_b[k + 1]);
            high.saturating_sub(low)
        };

        // Kruskal selection of a minimum-cost set of interchanges connecting
        // every cycle (the "minimal spanning set" of Gilmore–Gomory).
        let mut parent: Vec<usize> = (0..n_cycles).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        let mut candidates: Vec<(Time, usize)> = (0..n).map(|k| (interchange_cost(k), k)).collect();
        candidates.sort();
        let mut selected: Vec<usize> = Vec::with_capacity(n_cycles - 1);
        for (_, k) in candidates {
            let (p, q) = (by_b[k], by_b[k + 1]);
            let (cp, cq) = (
                find(&mut parent, cycle_of[p]),
                find(&mut parent, cycle_of[q]),
            );
            if cp != cq {
                parent[cp] = cq;
                selected.push(k);
                if selected.len() == n_cycles - 1 {
                    break;
                }
            }
        }

        // Apply the selected interchanges in an order that preserves the
        // selected total cost. Two interchanges interact only when they share
        // a rank (k and k + 1): if A_{k+1} >= B_{k+1}, interchange k + 1 must
        // be applied before interchange k, otherwise k before k + 1. These
        // pairwise constraints form a DAG along the rank axis; a simple
        // topological order (Kahn) realizes them.
        selected.sort_unstable();
        let pos: std::collections::HashMap<usize, usize> =
            selected.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        let mut indegree = vec![0usize; selected.len()];
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); selected.len()];
        for (i, &k) in selected.iter().enumerate() {
            if let Some(&j) = pos.get(&(k + 1)) {
                // Shared rank is k + 1.
                if rank_a[k + 1] >= rank_b[k + 1] {
                    // Apply interchange k + 1 (node j) before k (node i).
                    adj[j].push(i);
                    indegree[i] += 1;
                } else {
                    adj[i].push(j);
                    indegree[j] += 1;
                }
            }
        }
        let mut queue: Vec<usize> = (0..selected.len()).filter(|&i| indegree[i] == 0).collect();
        let mut applied = 0;
        while let Some(i) = queue.pop() {
            let k = selected[i];
            successor.swap(by_b[k], by_b[k + 1]);
            applied += 1;
            for &next in &adj[i] {
                indegree[next] -= 1;
                if indegree[next] == 0 {
                    queue.push(next);
                }
            }
        }
        debug_assert_eq!(
            applied,
            selected.len(),
            "interchange constraints form a DAG"
        );
    }

    // Read the tour starting after the dummy job.
    let mut order = Vec::with_capacity(n);
    let mut j = successor[n];
    while j != n {
        order.push(TaskId(j));
        j = successor[j];
    }
    debug_assert_eq!(
        order.len(),
        n,
        "patched successor function must be a single tour"
    );
    order
}

/// Makespan of `order` in the *no-wait* 2-machine flowshop (each task starts
/// computing immediately when its transfer completes). Used to evaluate the
/// quality of the Gilmore–Gomory sequence in isolation from the memory
/// constraint.
pub fn no_wait_makespan(instance: &Instance, order: &[TaskId]) -> Time {
    let mut start = Time::ZERO;
    let mut makespan = Time::ZERO;
    for (pos, &id) in order.iter().enumerate() {
        let t = instance.task(id);
        makespan = start + t.comm_time + t.comp_time;
        if pos + 1 < order.len() {
            let next = instance.task(order[pos + 1]);
            // The next transfer may not start before the link is free, and
            // must be timed so that the next computation starts exactly when
            // its transfer ends while the processor is free.
            start = start + t.comm_time + t.comp_time.saturating_sub(next.comm_time);
        }
    }
    makespan
}

#[cfg(test)]
mod tests {
    use super::*;
    use dts_core::instances::{random_instance, table3, RandomInstanceConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn brute_force_no_wait(inst: &Instance) -> Time {
        let mut best = Time::MAX;
        let mut perm = inst.task_ids();
        fn rec(inst: &Instance, perm: &mut Vec<TaskId>, k: usize, best: &mut Time) {
            if k == perm.len() {
                let m = no_wait_makespan(inst, perm);
                if m < *best {
                    *best = m;
                }
                return;
            }
            for i in k..perm.len() {
                perm.swap(k, i);
                rec(inst, perm, k + 1, best);
                perm.swap(k, i);
            }
        }
        rec(inst, &mut perm, 0, &mut best);
        best
    }

    #[test]
    fn no_wait_makespan_hand_check() {
        // Table 3, order B C A D:
        // B starts 0, finishes comm 1, comp [1,4). C must start so that its
        // comp starts when B's comp ends: start C = 0 + 1 + max(0, 3-4) = 1?
        // comp C would start at 1+4 = 5 > 4: fine (no-wait only requires the
        // task's own comp to directly follow its comm; the processor is free).
        let inst = table3();
        let order: Vec<TaskId> = ["B", "C", "A", "D"]
            .iter()
            .map(|n| {
                inst.task_ids()
                    .into_iter()
                    .find(|&id| inst.name(id) == *n)
                    .unwrap()
            })
            .collect();
        // start B = 0; start C = 0 + 1 + max(0, 3 - 4) = 1; C spans [1, 9).
        // start A = 1 + 4 + max(0, 4 - 3) = 6; A spans [6, 11).
        // start D = 6 + 3 + max(0, 2 - 2) = 9; D spans [9, 12).
        assert_eq!(no_wait_makespan(&inst, &order), Time::units_int(12));
    }

    #[test]
    fn gg_is_optimal_for_no_wait_on_small_instances() {
        let mut rng = StdRng::seed_from_u64(31);
        for n in 2..=7usize {
            for _ in 0..8 {
                let inst = random_instance(
                    &mut rng,
                    RandomInstanceConfig {
                        n_tasks: n,
                        ..Default::default()
                    },
                );
                let gg = gilmore_gomory_order(&inst);
                assert_eq!(gg.len(), n);
                let gg_makespan = no_wait_makespan(&inst, &gg);
                let best = brute_force_no_wait(&inst);
                assert_eq!(
                    gg_makespan, best,
                    "GG not optimal on {:?}: {} vs {}",
                    inst, gg_makespan, best
                );
            }
        }
    }

    #[test]
    fn gg_order_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(8);
        for n in [1usize, 2, 3, 10, 40] {
            let inst = random_instance(
                &mut rng,
                RandomInstanceConfig {
                    n_tasks: n,
                    ..Default::default()
                },
            );
            let order = gilmore_gomory_order(&inst);
            let mut sorted: Vec<usize> = order.iter().map(|t| t.index()).collect();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn single_task_instance() {
        let inst = dts_core::InstanceBuilder::new()
            .capacity(MemSize::from_bytes(10))
            .task_units("only", 2.0, 5.0, 2)
            .build()
            .unwrap();
        assert_eq!(gilmore_gomory_order(&inst), vec![TaskId(0)]);
        assert_eq!(no_wait_makespan(&inst, &[TaskId(0)]), Time::units_int(7));
    }
}
