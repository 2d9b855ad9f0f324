//! Overlap strategies: the four execution models (explicit half-duplex,
//! duplex, k-stream, implicit overlap) under the dynamic and corrected
//! heuristics on tiled HF/CCSD traces.
//!
//! The paper's case study measures the *explicit* model only; Snippet-style
//! runtime schemes (duplex directions, k concurrent streams, fused implicit
//! overlap) change both the timeline and — through earlier memory releases —
//! the decisions of the dynamic heuristics. This bench prints a paper-style
//! comparison table (makespan ratio of each model to the explicit baseline
//! per kernel and heuristic) and then pins the engine's throughput on each
//! model at the 10k tier (smoke and full) and the 100k tier (full runs
//! only). Set `DTS_BENCH_SCALE_MAX` (tasks, default 100000) to cap the
//! largest tier attempted.

use criterion::{criterion_group, Criterion};
use dts_bench::tiled_trace_instance;
use dts_chem::Kernel;
use dts_core::ExecutionModel;
use dts_heuristics::{run_heuristic, Heuristic};

/// Same widened allowance as the other scale benches: allocator and cache
/// behavior dominates at tens of thousands of tasks.
const SCALE_NOISE_THRESHOLD: f64 = 6.0;

const HEURISTICS: [Heuristic; 3] = [Heuristic::LCMR, Heuristic::MAMR, Heuristic::OOLCMR];

const MODELS: [(&str, ExecutionModel); 4] = [
    ("explicit", ExecutionModel::Explicit),
    ("duplex", ExecutionModel::Duplex),
    ("streams4", ExecutionModel::Streams { k: 4 }),
    ("implicit", ExecutionModel::IMPLICIT_FULL),
];

const KERNELS: [Kernel; 2] = [Kernel::HartreeFock, Kernel::Ccsd];

fn user_cap() -> Option<usize> {
    std::env::var("DTS_BENCH_SCALE_MAX")
        .ok()
        .and_then(|v| v.parse().ok())
}

fn max_tasks() -> usize {
    let default = if criterion::smoke_mode() {
        // The 10k tier is the smallest size where the channel bookkeeping
        // of the stream models is visible over the decision loop; it runs
        // in tens of milliseconds per heuristic, cheap enough for CI.
        10_000
    } else {
        100_000
    };
    user_cap().unwrap_or(default)
}

/// One copy of `instance` per model, each stamped with it.
fn stamped(
    instance: &dts_core::Instance,
    models: &[(&'static str, ExecutionModel)],
) -> Vec<(&'static str, dts_core::Instance)> {
    models
        .iter()
        .map(|&(name, model)| {
            let modeled = instance.clone().with_model(model).expect("model is valid");
            (name, modeled)
        })
        .collect()
}

/// Prints the Table 3-style strategy comparison: the makespan of every
/// model relative to the explicit baseline, per kernel and heuristic, on
/// the 10k-task tiled traces.
fn print_strategy_comparison(n_tasks: usize) {
    println!("overlap strategies — makespan ratio to the explicit model ({n_tasks} tasks):");
    println!("| kernel | heuristic | explicit | duplex | streams:4 | implicit |");
    println!("|---|---|---|---|---|---|");
    for kernel in KERNELS {
        let instance = tiled_trace_instance(kernel, n_tasks, 1.5).expect("tiled trace converts");
        let overlapped = stamped(&instance, &MODELS[1..]);
        for heuristic in HEURISTICS {
            let explicit = run_heuristic(&instance, heuristic)
                .expect("explicit run succeeds")
                .makespan(&instance);
            let mut row = format!("| {} | {} | 1.0000", kernel.name(), heuristic.name());
            for (_, modeled) in &overlapped {
                let makespan = run_heuristic(modeled, heuristic)
                    .expect("model run succeeds")
                    .makespan(modeled);
                row.push_str(&format!(" | {:.4}", makespan.ratio(explicit)));
            }
            println!("{row} |");
        }
    }
}

fn bench(c: &mut Criterion) {
    let cap = max_tasks();
    print_strategy_comparison(10_000.min(cap.max(1)));
    for n_tasks in [10_000usize, 100_000] {
        if n_tasks > cap {
            println!("overlap: skipping the {n_tasks}-task tier (cap {cap})");
            continue;
        }
        for kernel in KERNELS {
            let instance =
                tiled_trace_instance(kernel, n_tasks, 1.5).expect("tiled trace converts");
            let modeled = stamped(&instance, &MODELS);
            let kname = kernel.name().to_lowercase();
            for heuristic in HEURISTICS {
                for (mname, instance) in &modeled {
                    c.bench_function(
                        &format!(
                            "overlap/{kname}_{}_{mname}_{n_tasks}tasks",
                            heuristic.name()
                        ),
                        |b| {
                            b.iter(|| {
                                run_heuristic(instance, heuristic)
                                    .expect("heuristic runs")
                                    .makespan(instance)
                            })
                        },
                    );
                }
            }
        }
    }
}

criterion_group! {
    name = benches;
    // Five samples keep the smoke tier's confidence interval meaningful at
    // tens of milliseconds per pass; full runs take two samples so the
    // 100k tier finishes in seconds.
    config = Criterion::default()
        .sample_size(if criterion::smoke_mode() { 5 } else { 2 })
        .noise_threshold(SCALE_NOISE_THRESHOLD);
    targets = bench
}
dts_bench::harness_main!("overlap_strategies", benches);
