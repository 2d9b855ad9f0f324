//! Proposition 1 demo (Table 2 / Fig. 3): with a memory constraint, the best
//! schedule may need *different* orders on the communication link and on the
//! processing unit — something no permutation heuristic can produce.
//!
//! Run with `cargo run --release --example order_mismatch`.

use transfer_sched::core::gantt;
use transfer_sched::core::instances::table2;
use transfer_sched::flowshop::exact::{optimal_free_order, optimal_same_order};
use transfer_sched::prelude::*;

fn main() {
    let instance = table2();
    println!(
        "Table 2 instance (capacity {}), OMIM = {}",
        instance.capacity(),
        johnson_makespan(&instance)
    );

    let same = optimal_same_order(&instance);
    println!(
        "\nBest schedule with the SAME order on both resources: makespan {}",
        same.makespan
    );
    println!(
        "{}",
        gantt::render(
            &instance,
            &same.schedule,
            gantt::GanttOptions {
                width: 66,
                with_table: true
            }
        )
    );

    let free = optimal_free_order(&instance);
    println!(
        "Best schedule when the orders MAY DIFFER: makespan {} (communication order {:?}, computation order {:?})",
        free.makespan,
        names(&instance, &free.schedule.comm_order()),
        names(&instance, &free.schedule.comp_order()),
    );
    println!(
        "{}",
        gantt::render(
            &instance,
            &free.schedule,
            gantt::GanttOptions {
                width: 66,
                with_table: true
            }
        )
    );

    assert!(free.makespan < same.makespan);
    println!(
        "=> allowing different orders saves {} time units on this instance (Proposition 1).",
        same.makespan - free.makespan
    );
}

fn names(instance: &Instance, order: &[TaskId]) -> Vec<String> {
    order
        .iter()
        .map(|id| instance.name(*id).to_string())
        .collect()
}
