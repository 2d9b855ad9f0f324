//! Model accuracy: predicted vs simulated makespan error for the three
//! cost-model backends (analytic, history, regression) on the chemistry
//! traces and the corpus families.
//!
//! For each workload the bench calibrates the fitted backends from the
//! workload's own analytic observations ([`observations_of`]), materializes
//! an instance per backend with [`Instance::with_cost_model`], and compares
//! the makespan the paper's best dynamic heuristic reaches under the
//! modeled durations against the makespan under the native analytic
//! durations. The error table is printed in basis points (analytic is the
//! identity, so its row pins 0 and guards the normalization invariant);
//! the timed kernel is the full materialize → schedule → makespan pipeline
//! the `--cost-model` CLI path runs.
//!
//! [`observations_of`]: dts_core::perfmodel::observations_of
//! [`Instance::with_cost_model`]: dts_core::Instance::with_cost_model

use criterion::{criterion_group, Criterion};
use dts_bench::bench_traces;
use dts_chem::Kernel;
use dts_core::perfmodel::{observations_of, CostModelSpec};
use dts_core::Instance;
use dts_heuristics::{run_heuristic, Heuristic};
use dts_workloads::families::{generate_trace, GeneratorConfig, WorkloadFamily};

/// Fitted-model materialization re-walks every task, so allocator noise is
/// the same order as on the other corpus benches.
const NOISE_THRESHOLD: f64 = 6.0;

/// The accuracy probe uses the paper's best dynamic heuristic: it is the
/// variant whose decisions a miscalibrated model would actually steer.
const HEURISTIC: Heuristic = Heuristic::OOMAMR;

/// Per-family capacity factors of the corpus scenarios (bench-local, like
/// `corpus_scale`, so scenario changes surface as explicit bench diffs).
fn capacity_factor(family: WorkloadFamily) -> f64 {
    match family {
        WorkloadFamily::MdLike => 24.0,
        WorkloadFamily::DenseLa => 1.25,
        WorkloadFamily::TieHeavy => 2.0,
        WorkloadFamily::MemoryCliff => 1.0,
        WorkloadFamily::TransferBound => 1.5,
    }
}

/// One analytic instance per workload: the first bench trace of each
/// chemistry kernel plus every corpus family at the corpus capacity.
fn workloads() -> Vec<(String, Instance)> {
    let mut out = Vec::new();
    for (label, kernel) in [("hf", Kernel::HartreeFock), ("ccsd", Kernel::Ccsd)] {
        let trace = bench_traces(kernel)
            .into_iter()
            .next()
            .expect("the bench suite has at least one rank");
        let instance = trace
            .to_instance_scaled(1.25)
            .expect("the bench factor is feasible");
        out.push((label.to_string(), instance));
    }
    let n_tasks = if criterion::smoke_mode() { 500 } else { 2_000 };
    for family in WorkloadFamily::ALL {
        let mut config = GeneratorConfig::new(family);
        config.n_tasks = n_tasks;
        config.seed = 42;
        let instance = generate_trace(&config, 0)
            .expect("seeded generation succeeds")
            .to_instance_scaled(capacity_factor(family))
            .expect("corpus factors are feasible");
        out.push((family.to_string(), instance));
    }
    out
}

/// The three backends, calibrated against the given workload's own
/// analytic durations. Self-calibration bounds the *representation* error
/// of each backend (bucketing for history, the linear collapse for
/// regression) rather than cross-trace generalization, which the corpus
/// scenarios cover.
fn backends(instance: &Instance) -> Vec<(&'static str, CostModelSpec)> {
    let observations = observations_of(instance);
    vec![
        ("analytic", CostModelSpec::Analytic),
        (
            "history",
            observations
                .fit_history()
                .expect("bench workloads have transfer and compute samples"),
        ),
        (
            "regression",
            observations
                .fit_regression()
                .expect("bench workloads have transfer and compute samples"),
        ),
    ]
}

fn makespan_under(instance: &Instance) -> u64 {
    run_heuristic(instance, HEURISTIC)
        .expect("the heuristic runs")
        .makespan(instance)
        .ticks()
}

fn bench(c: &mut Criterion) {
    println!(
        "model_accuracy: |modeled - analytic| makespan error under {}, in basis points",
        HEURISTIC.name()
    );
    for (workload, instance) in workloads() {
        let actual = makespan_under(&instance);
        for (backend, spec) in backends(&instance) {
            let modeled = instance
                .clone()
                .with_cost_model(&spec)
                .expect("an analytic instance accepts any valid model");
            let predicted = makespan_under(&modeled);
            let err_bp = predicted.abs_diff(actual) * 10_000 / actual;
            println!(
                "model_accuracy: {workload:<14} {backend:<10} analytic_us={actual} \
                 predicted_us={predicted} abs_rel_err_bp={err_bp}"
            );
            c.bench_function(&format!("model_accuracy/{workload}_{backend}"), |b| {
                b.iter(|| {
                    let modeled = instance
                        .clone()
                        .with_cost_model(&spec)
                        .expect("an analytic instance accepts any valid model");
                    makespan_under(&modeled)
                })
            });
        }
    }
}

criterion_group! {
    name = benches;
    // Mirrors the corpus benches: five smoke samples for meaningful
    // confidence intervals, two full-run samples so the 2k-task grid
    // finishes in seconds.
    config = Criterion::default()
        .sample_size(if criterion::smoke_mode() { 5 } else { 2 })
        .noise_threshold(NOISE_THRESHOLD);
    targets = bench
}
dts_bench::harness_main!("model_accuracy", benches);
