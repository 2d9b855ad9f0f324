//! Johnson's rule for the 2-machine flowshop (Algorithm 1 of the paper).
//!
//! With unlimited memory, the data-transfer problem is exactly the 2-machine
//! flowshop: the communication time is the processing time on the first
//! machine and the computation time the processing time on the second.
//! Johnson's rule orders the tasks optimally; its makespan is the `OMIM`
//! (*optimal makespan, infinite memory*) lower bound against which every
//! heuristic of the paper is normalized.

use dts_core::prelude::*;
use dts_core::simulate::{sequence_makespan_infinite, simulate_sequence_infinite};

/// Returns the Johnson order for `instance`.
///
/// Compute-intensive tasks (`CP >= CM`) come first, sorted by non-decreasing
/// communication time; communication-intensive tasks follow, sorted by
/// non-increasing computation time. Ties keep the submission order (the sort
/// is stable), matching the deterministic behaviour expected by the paper's
/// examples.
pub fn johnson_order(instance: &Instance) -> Vec<TaskId> {
    let mut s1: Vec<TaskId> = Vec::new();
    let mut s2: Vec<TaskId> = Vec::new();
    for (id, task) in instance.iter() {
        if task.comp_time >= task.comm_time {
            s1.push(id);
        } else {
            s2.push(id);
        }
    }
    s1.sort_by_key(|id| instance.task(*id).comm_time);
    s2.sort_by_key(|id| std::cmp::Reverse(instance.task(*id).comp_time));
    s1.extend(s2);
    s1
}

/// Builds the (infinite-memory) schedule produced by Algorithm 1.
pub fn johnson_schedule(instance: &Instance) -> Schedule {
    let order = johnson_order(instance);
    simulate_sequence_infinite(instance, &order)
        .expect("johnson_order is a permutation of the instance's tasks")
}

/// The `OMIM` lower bound: optimal makespan of the infinite-memory
/// relaxation, under the instance's execution model. The Johnson order
/// is executed without materializing its schedule.
pub fn johnson_makespan(instance: &Instance) -> Time {
    sequence_makespan_infinite(instance, &johnson_order(instance))
        // lint: allow(L001) the order is a permutation by construction, as in `johnson_schedule`
        .expect("johnson_order is a permutation of the instance's tasks")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dts_core::instances::{
        random_instance, table2, table3, table4, table5, RandomInstanceConfig,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn table3_johnson_order_and_makespan() {
        // S1 = {B, C} by increasing comm, S2 = {A, D} by decreasing comp:
        // B C A D, makespan 12 (Fig. 4a).
        let inst = table3();
        let order = johnson_order(&inst);
        let names: Vec<&str> = order.iter().map(|id| inst.name(*id)).collect();
        assert_eq!(names, vec!["B", "C", "A", "D"]);
        assert_eq!(johnson_makespan(&inst), Time::units_int(12));
    }

    #[test]
    fn table4_johnson_makespan() {
        // S1 = {B, C}, S2 = {A, D} by decreasing comp → B C A D.
        // comm: B[0,1) C[1,5) A[5,8) D[8,13); comp: B[1,7) C[7,13) A[13,15) D[15,16).
        let inst = table4();
        let order = johnson_order(&inst);
        let names: Vec<&str> = order.iter().map(|id| inst.name(*id)).collect();
        assert_eq!(names, vec!["B", "C", "A", "D"]);
        assert_eq!(johnson_makespan(&inst), Time::units_int(16));
    }

    #[test]
    fn table5_johnson_order() {
        // S1 = {B, C} by increasing comm; S2 = {A, D, E} by decreasing comp:
        // D (4), E (2), A (1) → B C D E A.
        // (The caption of Fig. 6 prints "BCDAE"; the schedules shown in the
        // figure are only reproduced by the order B C D E A, which is what
        // Algorithm 1 yields — see the fig6 tests in dts-heuristics.)
        let inst = table5();
        let order = johnson_order(&inst);
        let names: Vec<&str> = order.iter().map(|id| inst.name(*id)).collect();
        assert_eq!(names, vec!["B", "C", "D", "E", "A"]);
    }

    #[test]
    fn table2_omim() {
        // Johnson on Table 2: S1 = {A(0,5), C(1,6), D(3,7)} sorted by comm →
        // A C D; S2 = {B(4,3), E(6,0.5), F(7,0.5)} by decreasing comp → B E F
        // (stable for the tie between E and F).
        let inst = table2();
        let order = johnson_order(&inst);
        let names: Vec<&str> = order.iter().map(|id| inst.name(*id)).collect();
        assert_eq!(names, vec!["A", "C", "D", "B", "E", "F"]);
        // comm: A 0, C[0,1) D[1,4) B[4,8) E[8,14) F[14,21)
        // comp: A[0,5) C[5,11) D[11,18) B[18,21) E[21,21.5) F[21.5,22)
        assert_eq!(johnson_makespan(&inst), Time::units(22.0));
    }

    #[test]
    fn johnson_is_optimal_against_brute_force() {
        // Exhaustive check of Theorem 1 on random instances of size <= 7.
        let mut rng = StdRng::seed_from_u64(2024);
        for n in 2..=7usize {
            for _ in 0..10 {
                let inst = random_instance(
                    &mut rng,
                    RandomInstanceConfig {
                        n_tasks: n,
                        ..Default::default()
                    },
                );
                let johnson = johnson_makespan(&inst);
                let mut best = Time::MAX;
                let mut perm: Vec<TaskId> = inst.task_ids();
                permute(&mut perm, 0, &mut |order| {
                    let m = sequence_makespan_infinite(&inst, order).unwrap();
                    if m < best {
                        best = m;
                    }
                });
                assert_eq!(johnson, best, "instance {:?}", inst);
            }
        }
    }

    #[test]
    fn johnson_schedule_is_feasible_for_unbounded_capacity() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let inst = random_instance(&mut rng, RandomInstanceConfig::default());
            // Re-interpret with unbounded capacity so the memory check is
            // irrelevant to feasibility.
            let unbounded = inst.with_capacity(MemSize::UNBOUNDED).unwrap();
            let sched = johnson_schedule(&unbounded);
            assert!(dts_core::feasibility::is_feasible(&unbounded, &sched));
            assert!(sched.is_permutation_schedule());
        }
    }

    #[test]
    fn omim_at_least_resource_lower_bound() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let inst = random_instance(&mut rng, RandomInstanceConfig::default());
            let stats = inst.stats();
            assert!(johnson_makespan(&inst) >= stats.resource_lower_bound());
            assert!(johnson_makespan(&inst) <= stats.sequential_upper_bound());
        }
    }

    #[test]
    fn omim_folds_follow_the_execution_model() {
        // Both folds must equal the makespan of the materialized
        // infinite-memory schedule under every model, not only the
        // explicit link.
        let mut rng = StdRng::seed_from_u64(31);
        for spec in [
            "explicit",
            "duplex",
            "streams:2",
            "streams:3",
            "implicit:1",
            "implicit:0.5",
        ] {
            let model = ExecutionModel::parse(spec).unwrap();
            for n in [1, 2, 5, 12, 40] {
                let inst = random_instance(
                    &mut rng,
                    RandomInstanceConfig {
                        n_tasks: n,
                        ..Default::default()
                    },
                )
                .with_model(model)
                .unwrap();
                let order = johnson_order(&inst);
                let want = simulate_sequence_infinite(&inst, &order)
                    .unwrap()
                    .makespan(&inst);
                assert_eq!(johnson_makespan(&inst), want, "{spec}, {n} tasks");
                let mut shuffled = order.clone();
                shuffled.rotate_left(n / 2);
                shuffled.swap(0, n - 1);
                assert_eq!(
                    sequence_makespan_infinite(&inst, &shuffled).unwrap(),
                    simulate_sequence_infinite(&inst, &shuffled)
                        .unwrap()
                        .makespan(&inst),
                    "{spec}, {n} tasks"
                );
            }
        }
    }

    fn permute<F: FnMut(&[TaskId])>(order: &mut Vec<TaskId>, k: usize, f: &mut F) {
        if k == order.len() {
            f(order);
            return;
        }
        for i in k..order.len() {
            order.swap(k, i);
            permute(order, k + 1, f);
            order.swap(k, i);
        }
    }
}
