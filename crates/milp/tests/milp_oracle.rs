//! The MILP of Section 4.5 of the paper as an independent oracle for
//! `dts_core::feasibility::validate`.
//!
//! The formulation minimizes `l` subject to, for all tasks `i` and `j ≠ i`:
//!
//! ```text
//! e'_i <= l                                  (task i completes)
//! e_i  <= s'_i                               (transfer before computation)
//! e_j  <= s_i  + (1 - a_ij) L                (link exclusivity)
//! e_i  <= s_j  + a_ij L
//! e'_j <= s'_i + (1 - b_ij) L                (processor exclusivity)
//! e'_i <= s'_j + b_ij L
//! e'_j <= s_i  + (1 - c_ij) L                (definition of c_ij)
//! s_i  <  e'_j + c_ij L
//! Σ_{r≠i} (a_ir − c_ir) MC(r) + MC(i) <= C   (memory constraint)
//! a_ij + a_ji = 1,  b_ij + b_ji = 1
//! c_ij <= a_ij,  c_ij <= b_ij,  c_ij + c_ji <= 1
//! ```
//!
//! where `s_i`/`e_i` are the start/end of task `i`'s transfer, `s'_i`/`e'_i`
//! the start/end of its computation and `L = Σ_i (CM_i + CP_i)`.
//!
//! [`check`] reads a concrete schedule as a point of that MILP and lists
//! the rows it violates. It is the paper's explicit-model formulation, and
//! it counts a zero-length task's own memory, which `validate`'s half-open
//! intervals do not; so the two must give the same verdict on explicit
//! instances with positive times, which is what the tests draw.

use dts_core::feasibility::validate;
use dts_core::instances::{random_instance_decoupled_memory, table2, table3};
use dts_core::prelude::*;
use dts_core::simulate::{simulate_sequence, simulate_sequence_infinite};
use dts_flowshop::exact::schedule_for_orders;
use rand::prelude::*;

/// Assignment of the MILP decision variables induced by a concrete schedule.
struct MilpAssignment {
    /// `a_ij`: task `i`'s transfer precedes task `j`'s transfer.
    a: Vec<Vec<bool>>,
    /// `b_ij`: task `i`'s computation precedes task `j`'s computation.
    b: Vec<Vec<bool>>,
    /// `c_ij`: task `i`'s transfer starts at or after the end of task `j`'s
    /// computation.
    c: Vec<Vec<bool>>,
    /// Objective value (makespan).
    objective: Time,
}

/// Extracts the boolean assignment induced by a schedule.
fn assignment(instance: &Instance, schedule: &Schedule) -> Option<MilpAssignment> {
    let n = instance.len();
    if schedule.len() != n {
        return None;
    }
    let mut comm_start = vec![Time::ZERO; n];
    let mut comp_start = vec![Time::ZERO; n];
    let mut comp_end = vec![Time::ZERO; n];
    for entry in schedule.entries() {
        let i = entry.task.index();
        if i >= n {
            return None;
        }
        let task = instance.task(entry.task);
        comm_start[i] = entry.comm_start;
        comp_start[i] = entry.comp_start;
        comp_end[i] = entry.comp_start + task.comp_time;
    }
    let mut a = vec![vec![false; n]; n];
    let mut b = vec![vec![false; n]; n];
    let mut c = vec![vec![false; n]; n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            // Order by start times; ties broken by index so that
            // a_ij + a_ji = 1 holds even for zero-length transfers.
            a[i][j] = (comm_start[i], i) < (comm_start[j], j);
            b[i][j] = (comp_start[i], i) < (comp_start[j], j);
            c[i][j] = comm_start[i] >= comp_end[j];
        }
    }
    Some(MilpAssignment {
        a,
        b,
        c,
        objective: schedule.makespan(instance),
    })
}

/// Checks a schedule against the MILP constraints. Returns the list of
/// violated constraint names (empty means the schedule is a feasible MILP
/// point).
fn check(instance: &Instance, schedule: &Schedule) -> Vec<String> {
    let n = instance.len();
    let mut violations = Vec::new();
    let Some(assignment) = assignment(instance, schedule) else {
        return vec!["schedule does not cover every task exactly once".to_string()];
    };
    let mut comm_start = vec![Time::ZERO; n];
    let mut comm_end = vec![Time::ZERO; n];
    let mut comp_start = vec![Time::ZERO; n];
    let mut comp_end = vec![Time::ZERO; n];
    for entry in schedule.entries() {
        let i = entry.task.index();
        let task = instance.task(entry.task);
        comm_start[i] = entry.comm_start;
        comm_end[i] = entry.comm_start + task.comm_time;
        comp_start[i] = entry.comp_start;
        comp_end[i] = entry.comp_start + task.comp_time;
    }

    for i in 0..n {
        if comp_end[i] > assignment.objective {
            violations.push(format!("completion of task {i} exceeds the objective"));
        }
        if comm_end[i] > comp_start[i] {
            violations.push(format!("task {i} computes before its transfer ends"));
        }
    }
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            if assignment.a[i][j] && comm_end[i] > comm_start[j] && comm_end[i] > comm_start[i] {
                // i's transfer precedes j's: link exclusivity requires
                // e_i <= s_j (zero-length transfers never conflict).
                if comm_start[j] < comm_end[i] && comm_end[j] > comm_start[j] {
                    violations.push(format!("transfers of {i} and {j} overlap"));
                }
            }
            if assignment.b[i][j]
                && comp_end[i] > comp_start[j]
                && comp_end[i] > comp_start[i]
                && comp_end[j] > comp_start[j]
            {
                violations.push(format!("computations of {i} and {j} overlap"));
            }
            if assignment.c[i][j] && comm_start[i] < comp_end[j] {
                violations.push(format!("c[{i}][{j}] set but transfer starts early"));
            }
        }
    }
    // Memory constraint: for every task i, the tasks whose transfer
    // precedes i's and whose computation has not finished when i's
    // transfer starts must fit together with i.
    let capacity = instance.capacity();
    for i in 0..n {
        let mut used = instance.task(TaskId(i)).mem;
        for r in 0..n {
            if r == i {
                continue;
            }
            if assignment.a[r][i] && !assignment.c[i][r] {
                used += instance.task(TaskId(r)).mem;
            }
        }
        if used > capacity {
            violations.push(format!(
                "memory constraint violated when task {i} starts its transfer"
            ));
        }
    }
    violations
}

#[test]
fn milp_check_agrees_with_validate_on_executor_schedules_and_mutations() {
    // 1 000 explicit instances of 1–7 tasks with positive times, three
    // executor schedules each (a bounded order, an unbounded order that
    // may overflow the memory, a free pair of orders), and seven mutations
    // of each that move one start by ±1–4 units.
    let mut rng = StdRng::seed_from_u64(45);
    let (mut schedules, mut feasible) = (0, 0);
    for round in 0..1000 {
        let n = rng.gen_range(1..=7);
        let factor = 1.0 + f64::from(rng.gen_range(0..=10u32)) / 10.0;
        let instance = random_instance_decoupled_memory(&mut rng, n, factor);
        let mut order = instance.task_ids();
        order.shuffle(&mut rng);
        let bounded = simulate_sequence(&instance, &order).unwrap();
        order.shuffle(&mut rng);
        let unbounded = simulate_sequence_infinite(&instance, &order).unwrap();
        // A random pair may deadlock; then the common order stands in.
        let mut comp_order = order.clone();
        comp_order.shuffle(&mut rng);
        let paired = schedule_for_orders(&instance, &order, &comp_order)
            .or_else(|| schedule_for_orders(&instance, &order, &order))
            .unwrap();
        for schedule in [bounded, unbounded, paired] {
            let mut drawn = vec![schedule.clone()];
            for _ in 0..7 {
                let mut entries = schedule.entries().to_vec();
                let k = rng.gen_range(0..entries.len());
                let entry = &mut entries[k];
                let field = if rng.gen_bool(0.5) {
                    &mut entry.comm_start
                } else {
                    &mut entry.comp_start
                };
                let delta = Time::units_int(rng.gen_range(1..=4));
                if rng.gen_bool(0.5) || *field < delta {
                    *field += delta;
                } else {
                    *field -= delta;
                }
                drawn.push(entries.into_iter().collect());
            }
            for schedule in drawn {
                let milp = check(&instance, &schedule);
                let violations = validate(&instance, &schedule);
                assert_eq!(
                    milp.is_empty(),
                    violations.is_empty(),
                    "round {round}, {instance:?}, {schedule:?}: MILP {milp:?}, validate {violations:?}"
                );
                schedules += 1;
                feasible += usize::from(violations.is_empty());
            }
        }
    }
    assert_eq!(schedules, 24_000);
    // Both verdicts are drawn in bulk.
    assert!(feasible > 3_000, "only {feasible} feasible schedules");
    assert!(
        schedules - feasible > 3_000,
        "only {} infeasible",
        schedules - feasible
    );
}

#[test]
fn feasible_schedule_satisfies_the_milp() {
    let inst = table3();
    for h in [
        dts_heuristics::Heuristic::OOSIM,
        dts_heuristics::Heuristic::DOCPS,
        dts_heuristics::Heuristic::MAMR,
    ] {
        let sched = dts_heuristics::run_heuristic(&inst, h).unwrap();
        assert!(
            check(&inst, &sched).is_empty(),
            "{h}: {:?}",
            check(&inst, &sched)
        );
    }
}

#[test]
fn memory_violation_detected_by_milp_check() {
    // Execute the Table 3 OOSIM order as if memory were unbounded; the
    // resulting schedule violates the memory row of the MILP.
    let inst = table3();
    let order = dts_flowshop::johnson::johnson_order(&inst);
    let sched = simulate_sequence_infinite(&inst, &order).unwrap();
    let violations = check(&inst, &sched);
    assert!(
        violations.iter().any(|v| v.contains("memory")),
        "{violations:?}"
    );
}

#[test]
fn assignment_booleans_are_consistent() {
    let inst = table2();
    let order = inst.task_ids();
    let sched = simulate_sequence(&inst, &order).unwrap();
    let asg = assignment(&inst, &sched).unwrap();
    let n = inst.len();
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            assert!(asg.a[i][j] ^ asg.a[j][i], "a[{i}][{j}] consistency");
            assert!(asg.b[i][j] ^ asg.b[j][i], "b[{i}][{j}] consistency");
            // c_ij <= a_ij and c_ij <= b_ij (helper constraints).
            if asg.c[i][j] {
                assert!(asg.a[j][i], "c[{i}][{j}] implies j's transfer precedes");
            }
            assert!(!(asg.c[i][j] && asg.c[j][i]));
        }
    }
    assert_eq!(asg.objective, sched.makespan(&inst));
}

#[test]
fn incomplete_schedule_rejected() {
    let inst = table3();
    assert!(!check(&inst, &Schedule::new()).is_empty());
}
