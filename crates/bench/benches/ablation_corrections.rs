//! Ablation: what the dynamic-correction step buys on top of each static
//! order (not a paper figure — a design-choice ablation listed in
//! ARCHITECTURE.md). Compares every static order executed as-is against the same
//! order with dynamic corrections.

use criterion::{criterion_group, Criterion};
use dts_bench::bench_traces;
use dts_chem::Kernel;
use dts_core::simulate::simulate_sequence;
use dts_flowshop::johnson::johnson_makespan;
use dts_heuristics::corrected::run_corrected;
use dts_heuristics::{Heuristic, Plan, SelectionCriterion};

fn report() {
    let trace = bench_traces(Kernel::Ccsd).into_iter().next().unwrap();
    let instance = trace.to_instance_scaled(1.25).unwrap();
    let omim = johnson_makespan(&instance);
    println!("Ablation — corrections on top of each static order (one CCSD trace, 1.25 mc)");
    println!("| static order | ratio as-is | ratio with corrections |");
    println!("|---|---|---|");
    let plan = Plan::new(&instance);
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
        let order = plan.static_order(&instance, h).unwrap();
        let plain = simulate_sequence(&instance, &order)
            .unwrap()
            .makespan(&instance);
        let corrected = run_corrected(&instance, &order, SelectionCriterion::MaximumAcceleration)
            .unwrap()
            .makespan(&instance);
        println!(
            "| {} | {:.4} | {:.4} |",
            h.name(),
            plain.ratio(omim),
            corrected.ratio(omim)
        );
    }
}

fn bench(c: &mut Criterion) {
    report();
    let trace = bench_traces(Kernel::Ccsd).into_iter().next().unwrap();
    let instance = trace.to_instance_scaled(1.25).unwrap();
    let plan = Plan::new(&instance);
    let order = plan.static_order(&instance, Heuristic::OOSIM).unwrap();
    c.bench_function("ablation/corrections_on_johnson_order", |b| {
        b.iter(|| {
            run_corrected(&instance, &order, SelectionCriterion::MaximumAcceleration)
                .unwrap()
                .makespan(&instance)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
dts_bench::harness_main!("ablation_corrections", benches);
