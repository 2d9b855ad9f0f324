//! # dts-bench
//!
//! Experiment harness shared by the Criterion benchmarks. Each benchmark
//! target regenerates one table or figure of the paper: it computes the data
//! series with the functions of this library, prints them in the same layout
//! the paper reports (so that `cargo bench` output can be compared side by
//! side with the publication), and then measures a representative kernel
//! with Criterion.
//!
//! The default data sizes are scaled down (a handful of trace ranks instead
//! of 150) so that `cargo bench --workspace` finishes in minutes; set the
//! environment variable `DTS_BENCH_RANKS` to a larger value (up to 150) to
//! run the experiments at paper scale.

#![warn(missing_docs)]

pub mod harness;

use dts_analysis::experiment::{best_variant_experiment, heuristic_experiment};
use dts_analysis::report::experiment_to_markdown;
use dts_analysis::sweep::{capacity_factors, SweepConfig};
use dts_analysis::ExperimentRow;
use dts_chem::suite::{generate_partial_suite, SuiteConfig};
use dts_chem::{characterize, Kernel, Trace};
use dts_core::prelude::*;
use dts_heuristics::batch::BatchConfig;

/// Number of trace ranks used by the suite-level experiments. Controlled by
/// the `DTS_BENCH_RANKS` environment variable (default 4, the paper uses
/// 150; the `--smoke` profile drops to 1 unless the variable overrides it).
pub fn bench_ranks() -> usize {
    let default = if criterion::smoke_mode() { 1 } else { 4 };
    std::env::var("DTS_BENCH_RANKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
        .clamp(1, 150)
}

/// Suite configuration used by the benchmarks: paper-scale topology but
/// reduced tile counts so a single rank stays a few hundred tasks.
pub fn bench_suite_config() -> SuiteConfig {
    let mut config = SuiteConfig::small();
    // Use a larger HF problem than the unit tests so each rank executes a
    // few hundred tasks, like the paper's traces.
    config.hf.n_shell_tiles = 90;
    config.ccsd.n_occ_tiles = 8;
    config.ccsd.n_virt_tiles = 14;
    config
}

/// Generates the benchmark trace suite for a kernel.
pub fn bench_traces(kernel: Kernel) -> Vec<Trace> {
    let ranks = bench_ranks();
    let mut config = bench_suite_config();
    if ranks > config.topology.n_processes() {
        // Paper-scale runs (DTS_BENCH_RANKS > 6) use the full Cascade
        // topology so that up to 150 distinct ranks exist.
        config.topology = dts_ga::Topology::cascade_10_nodes();
    }
    generate_partial_suite(kernel, &config, ranks)
}

/// The subset of capacity factors used by the quick benchmark runs (the full
/// paper sweep has nine points; three are enough to show the trend and keep
/// `cargo bench` fast).
pub fn quick_factors() -> Vec<f64> {
    vec![1.0, 1.5, 2.0]
}

/// Runs the Fig. 9 / Fig. 11 experiment (all heuristics across the capacity
/// sweep) for a kernel and prints the aggregated rows.
pub fn run_all_heuristics_experiment(kernel: Kernel, full_sweep: bool) -> Vec<ExperimentRow> {
    let traces = bench_traces(kernel);
    let config = SweepConfig {
        heuristics: dts_heuristics::Heuristic::ALL.to_vec(),
        factors: if full_sweep {
            capacity_factors()
        } else {
            quick_factors()
        },
    };
    let rows = heuristic_experiment(&traces, &config).expect("experiment succeeds");
    println!(
        "{}",
        experiment_to_markdown(
            &format!(
                "{} — ratio to optimal of every heuristic ({} traces)",
                kernel.name(),
                traces.len()
            ),
            &rows
        )
    );
    rows
}

/// Runs the Fig. 10 / Fig. 12 / Fig. 13 experiment (best variant per
/// category) for a kernel, optionally in batches of 100 tasks, and prints
/// the aggregated rows.
pub fn run_best_variant_experiment(kernel: Kernel, batched: bool) -> Vec<ExperimentRow> {
    let traces = bench_traces(kernel);
    let batch = batched.then_some(BatchConfig { batch_size: 100 });
    let rows =
        best_variant_experiment(&traces, &quick_factors(), batch).expect("experiment succeeds");
    println!(
        "{}",
        experiment_to_markdown(
            &format!(
                "{} — best variant per category{} ({} traces)",
                kernel.name(),
                if batched { " (batches of 100)" } else { "" },
                traces.len()
            ),
            &rows
        )
    );
    rows
}

/// Prints the Fig. 8 workload characterization of a kernel's traces and
/// returns the per-trace characterizations.
pub fn run_characterization(kernel: Kernel) -> Vec<dts_chem::WorkloadCharacterization> {
    let traces = bench_traces(kernel);
    println!(
        "{} workload characteristics (ratios to OMIM):",
        kernel.name()
    );
    println!("| rank | tasks | sum comm | sum comp | max | sum | mc |");
    println!("|---|---|---|---|---|---|---|");
    let mut out = Vec::new();
    for trace in &traces {
        let c = characterize(trace).expect("characterization succeeds");
        println!(
            "| {} | {} | {:.3} | {:.3} | {:.3} | {:.3} | {} |",
            trace.rank,
            c.n_tasks,
            c.sum_comm_ratio,
            c.sum_comp_ratio,
            c.max_ratio,
            c.sum_ratio,
            c.min_capacity
        );
        out.push(c);
    }
    out
}

/// Builds an `n_tasks`-task instance by tiling a kernel's first bench trace
/// (the real per-task time/memory distribution of the chemistry workload)
/// until the target size is reached, at a capacity of `factor · mc`. Used
/// by the scale tiers of the overlap-strategy benchmarks, where synthetic
/// uniform instances would hide the duplex/stream contention patterns of
/// the real traces.
pub fn tiled_trace_instance(kernel: Kernel, n_tasks: usize, factor: f64) -> Result<Instance> {
    let base = bench_traces(kernel)
        .into_iter()
        .find(|t| !t.is_empty())
        .ok_or_else(|| CoreError::Internal("bench suite produced no non-empty trace".into()))?;
    let mut tiled = Trace::with_capacity(base.kernel.clone(), base.rank, n_tasks);
    tiled.extend(base.iter().cycle().take(n_tasks));
    tiled.to_instance_scaled(factor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_ranks_is_bounded() {
        let n = bench_ranks();
        assert!((1..=150).contains(&n));
    }

    #[test]
    fn quick_experiments_produce_rows() {
        let rows = run_best_variant_experiment(Kernel::HartreeFock, false);
        assert!(!rows.is_empty());
        let characterizations = run_characterization(Kernel::HartreeFock);
        assert_eq!(
            characterizations.len(),
            bench_traces(Kernel::HartreeFock).len()
        );
    }
}
