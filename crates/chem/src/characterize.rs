//! Workload characterization (Fig. 8 of the paper).
//!
//! For every trace the paper reports four quantities normalized to the OMIM
//! lower bound: the total communication time, the total computation time,
//! the maximum of the two (a lower bound on any makespan) and their sum (the
//! makespan of the fully sequential, zero-overlap schedule).

use crate::trace::Trace;
use dts_core::prelude::*;
use dts_flowshop::johnson::johnson_makespan;
use serde::Serialize;

/// Fig. 8 characterization of one trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WorkloadCharacterization {
    /// Number of tasks in the trace.
    pub n_tasks: usize,
    /// OMIM lower bound (optimal makespan with infinite memory).
    pub omim: Time,
    /// Sum of communication times, as a ratio to OMIM.
    pub sum_comm_ratio: f64,
    /// Sum of computation times, as a ratio to OMIM.
    pub sum_comp_ratio: f64,
    /// `max(sum comm, sum comp) / OMIM` — lower bound on any makespan ratio.
    pub max_ratio: f64,
    /// `(sum comm + sum comp) / OMIM` — the zero-overlap (sequential) ratio.
    pub sum_ratio: f64,
    /// Minimum memory capacity `mc` of the trace.
    pub min_capacity: MemSize,
}

impl WorkloadCharacterization {
    /// Maximum fraction of the sequential schedule that overlapping can ever
    /// remove: `1 - max_ratio / sum_ratio`. For HF this is at most ~20 %,
    /// for CCSD it approaches 50 % (Fig. 8 discussion).
    pub fn max_overlap_gain(&self) -> f64 {
        if self.sum_ratio == 0.0 {
            0.0
        } else {
            1.0 - self.max_ratio / self.sum_ratio
        }
    }
}

/// Characterizes a trace: converts it to an instance (the capacity does not
/// influence any of the reported quantities) and normalizes the aggregate
/// times by the OMIM bound.
pub fn characterize(trace: &Trace) -> Result<WorkloadCharacterization> {
    let instance = trace.to_instance(MemSize::UNBOUNDED)?;
    Ok(characterize_instance(&instance))
}

/// Characterizes an already-built instance.
pub fn characterize_instance(instance: &Instance) -> WorkloadCharacterization {
    let stats = instance.stats();
    let omim = johnson_makespan(instance);
    WorkloadCharacterization {
        n_tasks: instance.len(),
        omim,
        sum_comm_ratio: stats.sum_comm.ratio(omim),
        sum_comp_ratio: stats.sum_comp.ratio(omim),
        max_ratio: stats.resource_lower_bound().ratio(omim),
        sum_ratio: stats.sequential_upper_bound().ratio(omim),
        min_capacity: stats.min_capacity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{generate_partial_suite, Kernel, SuiteConfig};

    #[test]
    fn ratios_are_consistent() {
        let config = SuiteConfig::small();
        let traces = generate_partial_suite(Kernel::HartreeFock, &config, 2);
        for trace in &traces {
            let c = characterize(trace).unwrap();
            assert!(
                c.sum_comm_ratio <= 1.0 + 1e-9,
                "sum comm cannot exceed OMIM... {c:?}"
            );
            assert!(c.max_ratio <= 1.0 + 1e-9);
            assert!(c.sum_ratio >= c.max_ratio);
            assert!((c.sum_ratio - (c.sum_comm_ratio + c.sum_comp_ratio)).abs() < 1e-9);
            assert!(c.max_overlap_gain() >= 0.0 && c.max_overlap_gain() < 1.0);
        }
    }

    #[test]
    fn hf_characterization_matches_fig8_shape() {
        // HF: communication dominates; at most ~20-30 % of the sequential
        // schedule can be removed by overlapping.
        let config = SuiteConfig::small();
        let traces = generate_partial_suite(Kernel::HartreeFock, &config, 3);
        for trace in &traces {
            let c = characterize(trace).unwrap();
            assert!(c.sum_comm_ratio > 0.9, "{c:?}");
            assert!(c.sum_comp_ratio < 0.5, "{c:?}");
            assert!(c.max_overlap_gain() < 0.35, "{c:?}");
        }
    }

    #[test]
    fn ccsd_characterization_matches_fig8_shape() {
        // CCSD: communication and computation are roughly balanced, so a
        // large overlap is possible.
        let config = SuiteConfig::small();
        let traces = generate_partial_suite(Kernel::Ccsd, &config, 3);
        for trace in &traces {
            let c = characterize(trace).unwrap();
            assert!(
                c.sum_comm_ratio > 0.4 && c.sum_comm_ratio <= 1.0 + 1e-9,
                "{c:?}"
            );
            assert!(c.sum_comp_ratio > 0.4, "{c:?}");
            assert!(c.max_overlap_gain() > 0.25, "{c:?}");
        }
    }
}
