//! End-to-end experiments reproducing the evaluation figures.

use crate::stats::BoxplotStats;
use crate::sweep::{run_suite_sweep, SweepConfig, SweepRow};
use dts_chem::Trace;
use dts_core::prelude::*;
use dts_core::simulate::sequence_makespan_infinite;
use dts_heuristics::{
    batch::{run_heuristic_batched, BatchConfig},
    Heuristic, HeuristicCategory, Plan,
};
use dts_milp::lp_k_sweep;
use serde::Serialize;

/// One aggregated experiment data point: a heuristic (or category/lp.k
/// label) at a capacity factor, summarized over all traces of a suite.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExperimentRow {
    /// Kernel of the suite (`"HF"` / `"CCSD"`).
    pub kernel: String,
    /// Capacity factor (multiple of each trace's own `mc`).
    pub factor: f64,
    /// Label of the series (heuristic name, category name or `lp.k`).
    pub label: String,
    /// Distribution of the ratio-to-optimal over the traces.
    pub ratios: BoxplotStats,
}

/// Figs. 9 and 11: every heuristic, every capacity factor, distribution of
/// the ratio-to-optimal over the traces of a suite.
pub fn heuristic_experiment(traces: &[Trace], config: &SweepConfig) -> Result<Vec<ExperimentRow>> {
    let rows = run_suite_sweep(traces, config)?;
    Ok(aggregate(&rows))
}

fn aggregate(rows: &[SweepRow]) -> Vec<ExperimentRow> {
    let mut grouped: std::collections::BTreeMap<(String, String, u64), Vec<f64>> =
        std::collections::BTreeMap::new();
    for row in rows {
        grouped
            .entry((
                row.kernel.clone(),
                row.heuristic.clone(),
                (row.factor * 1000.0).round() as u64,
            ))
            .or_default()
            .push(row.ratio);
    }
    grouped
        .into_iter()
        .filter_map(|((kernel, label, factor_millis), ratios)| {
            nan_free_stats(ratios).map(|ratios| ExperimentRow {
                kernel,
                factor: factor_millis as f64 / 1000.0,
                label,
                ratios,
            })
        })
        .collect()
}

/// Summarizes a group of ratios, dropping NaN observations first: NaN has no
/// place in an ordered summary, and a single degenerate ratio must not drop
/// the whole group from a report. Returns `None` only when nothing remains.
fn nan_free_stats(mut ratios: Vec<f64>) -> Option<BoxplotStats> {
    ratios.retain(|r| !r.is_nan());
    BoxplotStats::of(&ratios)
}

/// Figs. 10, 12 and 13: the best variant of each category (plus OS) at every
/// capacity factor. When `batch` is provided the heuristics are applied in
/// batches (Fig. 13), otherwise on the whole trace.
///
/// Each trace gets one [`Plan`] and one OMIM bound, used at every factor,
/// and its instances at every factor share its task table.
pub fn best_variant_experiment(
    traces: &[Trace],
    factors: &[f64],
    batch: Option<BatchConfig>,
) -> Result<Vec<ExperimentRow>> {
    let unbounded = traces
        .iter()
        .map(|trace| trace.to_instance(MemSize::UNBOUNDED))
        .collect::<Result<Vec<_>>>()?;
    let plans: Vec<Plan<'_>> = unbounded.iter().map(Plan::new).collect();
    let omims = unbounded
        .iter()
        .zip(&plans)
        .map(|(instance, plan)| sequence_makespan_infinite(instance, plan.johnson_order()))
        .collect::<Result<Vec<_>>>()?;
    let mut out = Vec::new();
    for &factor in factors {
        let mut per_category: std::collections::BTreeMap<String, Vec<f64>> =
            std::collections::BTreeMap::new();
        for ((trace, plan), &omim) in traces.iter().zip(&plans).zip(&omims) {
            let instance = trace.to_instance_scaled(factor)?;
            for category in HeuristicCategory::ALL {
                let best = match batch {
                    None => plan.best_in_category(&instance, category)?,
                    Some(cfg) => {
                        let mut best = Time::MAX;
                        for heuristic in Heuristic::in_category(category) {
                            let makespan = run_heuristic_batched(&instance, heuristic, cfg)?
                                .makespan(&instance);
                            if makespan < best {
                                best = makespan;
                            }
                        }
                        best
                    }
                };
                per_category
                    .entry(category.to_string())
                    .or_default()
                    .push(best.ratio(omim));
            }
        }
        for (label, ratios) in per_category {
            let Some(ratios) = nan_free_stats(ratios) else {
                continue;
            };
            out.push(ExperimentRow {
                kernel: traces.first().map(|t| t.kernel.clone()).unwrap_or_default(),
                factor,
                label,
                ratios,
            });
        }
    }
    Ok(out)
}

/// Fig. 7: the proposed heuristics against the iterative MILP heuristic
/// `lp.k` (k = 3..6) on a single trace across the capacity sweep. Returns
/// `(label, factor, ratio)` tuples.
pub fn lp_comparison_experiment(
    trace: &Trace,
    factors: &[f64],
    heuristics: &[Heuristic],
) -> Result<Vec<(String, f64, f64)>> {
    let unbounded = trace.to_instance(MemSize::UNBOUNDED)?;
    let plan = Plan::new(&unbounded);
    let omim = sequence_makespan_infinite(&unbounded, plan.johnson_order())?;
    let mut out = Vec::new();
    for &factor in factors {
        let instance = trace.to_instance_scaled(factor)?;
        out.push(("OMIM".to_string(), factor, 1.0));
        for &heuristic in heuristics {
            let makespan = plan.run(&instance, heuristic)?.makespan(&instance);
            out.push((heuristic.name().to_string(), factor, makespan.ratio(omim)));
        }
        // The sweep solves the four window sizes on parallel workers; rows
        // come back in the paper's `lp.3`..`lp.6` order either way.
        for (k, makespan) in lp_k_sweep(&instance)? {
            out.push((format!("lp.{k}"), factor, makespan.ratio(omim)));
        }
    }
    Ok(out)
}

/// Per-capacity-factor list of `(category label, mean ratio)` pairs, as
/// produced by [`category_means`].
pub type CategoryMeans = Vec<(f64, Vec<(String, f64)>)>;

/// Table 6: checks that each heuristic family behaves as expected in its
/// favorable situation. Returns, per capacity factor, the mean ratio of the
/// three categories — used by the `table6_favorable` bench and the tests to
/// confirm e.g. that corrected heuristics win at moderate capacities.
pub fn category_means(traces: &[Trace], factors: &[f64]) -> Result<CategoryMeans> {
    let rows = best_variant_experiment(traces, factors, None)?;
    let mut out: CategoryMeans = Vec::new();
    for &factor in factors {
        let means: Vec<(String, f64)> = rows
            .iter()
            .filter(|r| (r.factor - factor).abs() < 1e-9)
            .map(|r| (r.label.clone(), r.ratios.mean))
            .collect();
        out.push((factor, means));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dts_chem::{suite::generate_partial_suite, suite::SuiteConfig, Kernel};

    fn traces(kernel: Kernel, n: usize) -> Vec<Trace> {
        generate_partial_suite(kernel, &SuiteConfig::small(), n)
    }

    #[test]
    fn heuristic_experiment_produces_one_row_per_cell() {
        let traces = traces(Kernel::HartreeFock, 2);
        let config = SweepConfig {
            heuristics: vec![Heuristic::OS, Heuristic::OOLCMR],
            factors: vec![1.0, 2.0],
        };
        let rows = heuristic_experiment(&traces, &config).unwrap();
        assert_eq!(rows.len(), 4); // 2 heuristics x 2 factors
        for row in &rows {
            assert_eq!(row.ratios.count, 2); // two traces
            assert!(row.ratios.min >= 1.0 - 1e-12);
        }
    }

    #[test]
    fn best_variant_experiment_covers_all_categories() {
        let traces = traces(Kernel::HartreeFock, 2);
        let rows = best_variant_experiment(&traces, &[1.0, 1.5], None).unwrap();
        assert_eq!(rows.len(), 2 * HeuristicCategory::ALL.len());
        let labels: std::collections::BTreeSet<_> = rows.iter().map(|r| r.label.clone()).collect();
        assert!(labels.contains("Static"));
        assert!(labels.contains("Dynamic"));
        assert!(labels.contains("Static+Dynamic"));
        assert!(labels.contains("OS"));
    }

    #[test]
    fn batched_experiment_runs() {
        let traces = traces(Kernel::Ccsd, 1);
        let rows = best_variant_experiment(&traces, &[1.25], Some(BatchConfig { batch_size: 50 }))
            .unwrap();
        assert_eq!(rows.len(), HeuristicCategory::ALL.len());
        assert!(rows.iter().all(|r| r.ratios.min >= 1.0 - 1e-12));
    }

    #[test]
    fn lp_comparison_includes_every_series() {
        let traces = traces(Kernel::HartreeFock, 1);
        let series = lp_comparison_experiment(
            &traces[0],
            &[1.0, 1.5],
            &[Heuristic::OOSIM, Heuristic::SCMR],
        )
        .unwrap();
        // Per factor: OMIM + 2 heuristics + 4 lp.k series.
        assert_eq!(series.len(), 2 * (1 + 2 + 4));
        assert!(series.iter().all(|(_, _, ratio)| *ratio >= 1.0 - 1e-12));
    }

    #[test]
    fn ample_memory_lets_corrected_category_reach_the_bound() {
        let traces = traces(Kernel::HartreeFock, 2);
        let means = category_means(&traces, &[8.0]).unwrap();
        let (_, labels) = &means[0];
        let corrected = labels
            .iter()
            .find(|(l, _)| l == "Static+Dynamic")
            .map(|(_, m)| *m)
            .unwrap();
        assert!((corrected - 1.0).abs() < 1e-9);
    }
}
