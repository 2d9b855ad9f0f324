//! Fig. 4 / Table 3: schedules of the static-order heuristics with a memory
//! capacity of 6 (OMIM = 12).

use criterion::{criterion_group, Criterion};
use dts_core::instances::table3;
use dts_flowshop::johnson::johnson_makespan;
use dts_heuristics::{run_heuristic, Heuristic};

fn report() {
    let inst = table3();
    println!(
        "Fig. 4 — Table 3 instance, capacity 6 (OMIM = {})",
        johnson_makespan(&inst)
    );
    for h in [
        Heuristic::OOSIM,
        Heuristic::IOCMS,
        Heuristic::DOCPS,
        Heuristic::IOCCS,
        Heuristic::DOCCS,
    ] {
        let sched = run_heuristic(&inst, h).unwrap();
        let order: Vec<String> = sched
            .comm_order()
            .iter()
            .map(|id| inst.name(*id).to_string())
            .collect();
        println!(
            "  {:<6} order {:?} makespan {}",
            h.name(),
            order,
            sched.makespan(&inst)
        );
    }
}

fn bench(c: &mut Criterion) {
    report();
    let inst = table3();
    c.bench_function("fig4/all_static_heuristics_table3", |b| {
        b.iter(|| {
            [
                Heuristic::OOSIM,
                Heuristic::IOCMS,
                Heuristic::DOCPS,
                Heuristic::IOCCS,
                Heuristic::DOCCS,
            ]
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
dts_bench::harness_main!("fig4_static_orders", benches);
