//! The paper's capacity sweep on one trace pair: `run_trace_sweep` (the
//! function behind `dts sweep`) with all 14 heuristics × 9 capacity
//! factors on rank 0 of the 150-rank paper topology, HF then CCSD.
//!
//! * `sweep/run_trace_sweep_hf_ccsd_rank0` — both sweeps, one iteration:
//!   the op of the `sweep_paper` repository benchmark on a fixed pair.
//! * `sweep/<heuristic>_hf_ccsd_rank0` — one heuristic's share of that op:
//!   the 9 factors of each trace run serially through one fresh `Plan` per
//!   trace, so whatever the heuristic builds (orders, candidate index) is
//!   built once per trace, as in the sweep. Setting the MAMR/LCMR and
//!   OOMAMR/OOLCMR pairs side by side prices the ratio machinery.

use criterion::{criterion_group, Criterion};
use dts_analysis::sweep::{capacity_factors, run_trace_sweep, SweepConfig};
use dts_chem::ccsd::generate_ccsd_trace;
use dts_chem::hf::generate_hf_trace;
use dts_chem::SuiteConfig;
use dts_core::prelude::*;
use dts_heuristics::{Heuristic, Plan};

fn bench(c: &mut Criterion) {
    let suite = SuiteConfig::default();
    let traces = [
        generate_hf_trace(&suite.hf, suite.topology, suite.transfer, suite.cost, 0),
        generate_ccsd_trace(&suite.ccsd, suite.topology, suite.transfer, suite.cost, 0),
    ];
    let config = SweepConfig::default();
    let rows: usize = traces
        .iter()
        .map(|trace| run_trace_sweep(trace, &config).unwrap().len())
        .sum();
    println!(
        "sweep: HF rank 0 ({} tasks) + CCSD rank 0 ({} tasks), {rows} rows",
        traces[0].len(),
        traces[1].len()
    );
    c.bench_function("sweep/run_trace_sweep_hf_ccsd_rank0", |b| {
        b.iter(|| {
            traces
                .iter()
                .map(|trace| run_trace_sweep(trace, &config).unwrap().len())
                .sum::<usize>()
        })
    });

    let factors = capacity_factors();
    let unbounded: Vec<Instance> = traces
        .iter()
        .map(|trace| trace.to_instance(MemSize::UNBOUNDED).unwrap())
        .collect();
    let scaled: Vec<Vec<Instance>> = traces
        .iter()
        .map(|trace| {
            factors
                .iter()
                .map(|&factor| trace.to_instance_scaled(factor).unwrap())
                .collect()
        })
        .collect();
    for heuristic in Heuristic::ALL {
        c.bench_function(&format!("sweep/{heuristic}_hf_ccsd_rank0"), |b| {
            b.iter(|| {
                let mut total = Time::ZERO;
                for (base, instances) in unbounded.iter().zip(&scaled) {
                    let plan = Plan::new(base);
                    for instance in instances {
                        total =
                            total.max(plan.run(instance, heuristic).unwrap().makespan(instance));
                    }
                }
                total
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
dts_bench::harness_main!("sweep", benches);
