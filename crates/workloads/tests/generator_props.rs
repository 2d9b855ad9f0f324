//! Generator-invariant properties of the workload families.
//!
//! Three claims hold for *every* family at *every* seed and size:
//!
//! 1. **Feasible** — the generated trace converts into an instance at
//!    capacity factor 1.0 (no task exceeds the minimum capacity, no
//!    total overflows the clock).
//! 2. **Deterministic** — the same `(config, rank)` produces a
//!    byte-identical trace, so golden corpus metrics are reproducible.
//! 3. **Declared shape** — each family actually has the shape its
//!    documentation claims: the MD spread bounds, the dense-LA skew
//!    ratio, the tie-heavy duplicate-communication fraction, the
//!    transfer-bound communication dominance.

use dts_workloads::families::{
    generate_trace, GeneratorConfig, WorkloadFamily, DEFAULT_DENSE_LA_SKEW, DENSE_LA_MEM_MAX,
    MD_BOUNDS,
};
use microcheck::{gens, prop_assert, prop_assert_eq, property};

/// A drawn `(family index, n_tasks, seed, rank)` quadruple.
fn config_gen() -> (
    gens::IntRange<usize>,
    gens::IntRange<usize>,
    gens::IntRange<u64>,
    gens::IntRange<usize>,
) {
    (
        gens::usize_in(0..=WorkloadFamily::ALL.len() - 1),
        gens::usize_in(1..=200),
        gens::u64_in(0..=u64::MAX),
        gens::usize_in(0..=8),
    )
}

fn config_of(family_idx: usize, n_tasks: usize, seed: u64) -> GeneratorConfig {
    let mut config = GeneratorConfig::new(WorkloadFamily::ALL[family_idx]);
    config.n_tasks = n_tasks;
    config.seed = seed;
    config
}

property! {
    /// Every generated trace is memory-feasible at factor 1.0 (capacity =
    /// the largest task) and simulable (no overflowing totals).
    fn generated_traces_are_feasible((family_idx, n_tasks, seed, rank) in config_gen()) {
        let config = config_of(family_idx, n_tasks, seed);
        let trace = generate_trace(&config, rank).map_err(|e| e.to_string())?;
        prop_assert_eq!(trace.len(), n_tasks);
        let instance = trace.to_instance_scaled(1.0).map_err(|e| {
            format!("family {} infeasible at factor 1.0: {e}", config.family)
        })?;
        prop_assert_eq!(instance.len(), n_tasks);
    }

    /// Same config + rank → byte-identical trace (generation is a pure
    /// function of the seed).
    fn generation_is_seeded_deterministic((family_idx, n_tasks, seed, rank) in config_gen()) {
        let config = config_of(family_idx, n_tasks, seed);
        let a = generate_trace(&config, rank).map_err(|e| e.to_string())?;
        let b = generate_trace(&config, rank).map_err(|e| e.to_string())?;
        prop_assert_eq!(&a, &b);
        let json_a = a.to_json().map_err(|e| e.to_string())?;
        let json_b = b.to_json().map_err(|e| e.to_string())?;
        prop_assert_eq!(json_a, json_b, "serialized traces differ");
    }

    /// The MD-like family keeps its declared narrow spread: every field
    /// inside its documented bounds, max/min comm <= 1.25 and max/min
    /// comp <= 1.5.
    fn md_like_traces_have_a_narrow_spread((n_tasks, seed, rank) in (
        gens::usize_in(2..=500),
        gens::u64_in(0..=u64::MAX),
        gens::usize_in(0..=8),
    )) {
        let mut config = GeneratorConfig::new(WorkloadFamily::MdLike);
        config.n_tasks = n_tasks;
        config.seed = seed;
        let trace = generate_trace(&config, rank).map_err(|e| e.to_string())?;
        let (comm_lo, comm_hi, comp_lo, comp_hi, mem_lo, mem_hi) = MD_BOUNDS;
        for task in trace.iter() {
            prop_assert!(
                (comm_lo..=comm_hi).contains(&task.comm_micros)
                    && (comp_lo..=comp_hi).contains(&task.comp_micros)
                    && (mem_lo..=mem_hi).contains(&task.mem_bytes),
                "task {task:?} outside the MD bounds"
            );
        }
        let comm_max = trace.iter().map(|t| t.comm_micros).max().unwrap_or(0);
        let comm_min = trace.iter().map(|t| t.comm_micros).min().unwrap_or(1);
        let comp_max = trace.iter().map(|t| t.comp_micros).max().unwrap_or(0);
        let comp_min = trace.iter().map(|t| t.comp_micros).min().unwrap_or(1);
        prop_assert!(
            comm_max as f64 / comm_min as f64 <= 1.25,
            "comm spread {comm_min}..{comm_max} wider than 1.25x"
        );
        prop_assert!(
            comp_max as f64 / comp_min as f64 <= 1.5,
            "comp spread {comp_min}..{comp_max} wider than 1.5x"
        );
    }

    /// The dense-LA family keeps its declared skew: with the default
    /// exponent and at least 16 panels, the largest computation is at
    /// least 8x the smallest, while every memory footprint stays within
    /// 75-100 % of the declared maximum (near-capacity pressure).
    fn dense_la_traces_are_skewed_and_memory_heavy((n_tasks, seed, rank) in (
        gens::usize_in(16..=128),
        gens::u64_in(0..=u64::MAX),
        gens::usize_in(0..=8),
    )) {
        let mut config = GeneratorConfig::new(WorkloadFamily::DenseLa);
        config.n_tasks = n_tasks;
        config.seed = seed;
        config.skew = Some(DEFAULT_DENSE_LA_SKEW);
        let trace = generate_trace(&config, rank).map_err(|e| e.to_string())?;
        let comp_max = trace.iter().map(|t| t.comp_micros).max().unwrap_or(0);
        let comp_min = trace.iter().map(|t| t.comp_micros).min().unwrap_or(1);
        prop_assert!(
            comp_max as f64 / comp_min as f64 >= 8.0,
            "skew ratio {comp_max}/{comp_min} below 8x over {n_tasks} panels"
        );
        for task in trace.iter() {
            prop_assert!(
                task.mem_bytes >= DENSE_LA_MEM_MAX * 3 / 4 && task.mem_bytes <= DENSE_LA_MEM_MAX,
                "panel footprint {} outside 75-100 % of {DENSE_LA_MEM_MAX}",
                task.mem_bytes
            );
        }
    }

    /// The tie-heavy family forces ties: at 50+ tasks, at least 90 % of
    /// tasks share their communication time with some other task.
    fn tie_heavy_traces_are_tie_heavy((n_tasks, seed, rank) in (
        gens::usize_in(50..=500),
        gens::u64_in(0..=u64::MAX),
        gens::usize_in(0..=8),
    )) {
        let mut config = GeneratorConfig::new(WorkloadFamily::TieHeavy);
        config.n_tasks = n_tasks;
        config.seed = seed;
        let trace = generate_trace(&config, rank).map_err(|e| e.to_string())?;
        let mut counts = std::collections::HashMap::new();
        for task in trace.iter() {
            *counts.entry(task.comm_micros).or_insert(0usize) += 1;
        }
        let tied: usize = counts.values().filter(|&&c| c >= 2).sum();
        prop_assert!(
            tied as f64 / n_tasks as f64 >= 0.9,
            "only {tied}/{n_tasks} tasks share a communication time"
        );
    }

    /// The transfer-bound family is transfer-bound: total communication
    /// time dominates total computation time.
    fn transfer_bound_traces_are_transfer_bound((n_tasks, seed, rank) in (
        gens::usize_in(50..=500),
        gens::u64_in(0..=u64::MAX),
        gens::usize_in(0..=8),
    )) {
        let mut config = GeneratorConfig::new(WorkloadFamily::TransferBound);
        config.n_tasks = n_tasks;
        config.seed = seed;
        let trace = generate_trace(&config, rank).map_err(|e| e.to_string())?;
        let comm: u64 = trace.iter().map(|t| t.comm_micros).sum();
        let comp: u64 = trace.iter().map(|t| t.comp_micros).sum();
        prop_assert!(
            comm >= 2 * comp,
            "total comm {comm} does not dominate total comp {comp}"
        );
    }
}
