//! Fig. 6 / Table 5: schedules of the static-order-with-dynamic-corrections
//! heuristics with a memory capacity of 9 (Johnson order B C D E A).

use criterion::{criterion_group, Criterion};
use dts_core::instances::table5;
use dts_flowshop::johnson::johnson_order;
use dts_heuristics::{run_heuristic, Heuristic};

fn report() {
    let inst = table5();
    let johnson: Vec<String> = johnson_order(&inst)
        .iter()
        .map(|id| inst.name(*id).to_string())
        .collect();
    println!("Fig. 6 — Table 5 instance, capacity 9, OMIM order {johnson:?}");
    for h in [Heuristic::OOLCMR, Heuristic::OOSCMR, Heuristic::OOMAMR] {
        let sched = run_heuristic(&inst, h).unwrap();
        let order: Vec<String> = sched
            .comm_order()
            .iter()
            .map(|id| inst.name(*id).to_string())
            .collect();
        println!(
            "  {:<7} order {:?} makespan {}",
            h.name(),
            order,
            sched.makespan(&inst)
        );
    }
}

fn bench(c: &mut Criterion) {
    report();
    let inst = table5();
    c.bench_function("fig6/corrected_heuristics_table5", |b| {
        b.iter(|| {
            [Heuristic::OOLCMR, Heuristic::OOSCMR, Heuristic::OOMAMR]
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
dts_bench::harness_main!("fig6_corrected_orders", benches);
