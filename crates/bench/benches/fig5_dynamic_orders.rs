//! Fig. 5 / Table 4: schedules of the dynamic heuristics with a memory
//! capacity of 6.

use criterion::{criterion_group, Criterion};
use dts_core::instances::table4;
use dts_heuristics::{run_heuristic, Heuristic};

fn report() {
    let inst = table4();
    println!("Fig. 5 — Table 4 instance, capacity 6");
    for h in [Heuristic::LCMR, Heuristic::SCMR, Heuristic::MAMR] {
        let sched = run_heuristic(&inst, h).unwrap();
        let order: Vec<String> = sched
            .comm_order()
            .iter()
            .map(|id| inst.name(*id).to_string())
            .collect();
        println!(
            "  {:<5} order {:?} makespan {}",
            h.name(),
            order,
            sched.makespan(&inst)
        );
    }
}

fn bench(c: &mut Criterion) {
    report();
    let inst = table4();
    c.bench_function("fig5/dynamic_heuristics_table4", |b| {
        b.iter(|| {
            [Heuristic::LCMR, Heuristic::SCMR, Heuristic::MAMR]
                .iter()
                .map(|&h| run_heuristic(&inst, h).unwrap().makespan(&inst))
                .max()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
dts_bench::harness_main!("fig5_dynamic_orders", benches);
