//! # dts-heuristics
//!
//! The data-transfer ordering heuristics of Section 4 of the paper, grouped
//! in the same three categories:
//!
//! * **static orderings** ([`static_order`]): the complete processing order
//!   is computed in advance from task characteristics and executed (in the
//!   same order on both resources) under the memory capacity — `OS`,
//!   `OOSIM`, `IOCMS`, `DOCPS`, `IOCCS`, `DOCCS`, plus the `GG`
//!   (Gilmore–Gomory) and `BP` (First-Fit bin packing) heuristics from
//!   previous work;
//! * **dynamic selection** ([`dynamic`]): whenever the communication link is
//!   free, the next task is chosen among those that fit in the remaining
//!   memory and induce minimum idle time on the processing unit — `LCMR`,
//!   `SCMR`, `MAMR`;
//! * **static order with dynamic corrections** ([`corrected`]): the Johnson
//!   (OMIM) order is followed as long as the next task fits in memory and a
//!   dynamic selection is used to fill the gap otherwise — `OOLCMR`,
//!   `OOSCMR`, `OOMAMR`.
//!
//! [`Heuristic`] enumerates all of them, [`run_heuristic`] executes any of
//! them on an [`Instance`], a [`Plan`] shares their capacity-independent
//! set-up (orders, candidate indexes) across many runs on one task table,
//! and [`batch`] applies a heuristic to successive batches of tasks
//! (Section 6.3).

#![warn(missing_docs)]

pub mod batch;
pub mod corrected;
pub mod dynamic;
pub mod engine;
pub mod plan;
pub mod static_order;

use dts_core::prelude::*;
use serde::Serialize;
use std::fmt;

pub use batch::{run_heuristic_batched, BatchConfig};
pub use dynamic::SelectionCriterion;
pub use plan::Plan;

/// The category of a heuristic, used by the "best variant of each category"
/// experiments (Figs. 10, 12 and 13 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum HeuristicCategory {
    /// The arbitrary submission order, plotted separately in the paper.
    SubmissionOrder,
    /// Static orderings computed in advance.
    Static,
    /// Dynamic selection at runtime.
    Dynamic,
    /// Static order with dynamic corrections.
    StaticDynamic,
}

impl HeuristicCategory {
    /// The four categories in presentation order.
    pub const ALL: [HeuristicCategory; 4] = [
        HeuristicCategory::SubmissionOrder,
        HeuristicCategory::Static,
        HeuristicCategory::Dynamic,
        HeuristicCategory::StaticDynamic,
    ];
}

impl fmt::Display for HeuristicCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeuristicCategory::SubmissionOrder => write!(f, "OS"),
            HeuristicCategory::Static => write!(f, "Static"),
            HeuristicCategory::Dynamic => write!(f, "Dynamic"),
            HeuristicCategory::StaticDynamic => write!(f, "Static+Dynamic"),
        }
    }
}

/// Every ordering heuristic evaluated in the paper (Figs. 9–13).
///
/// The MILP-based `lp.k` heuristics live in the `dts-milp` crate since they
/// need the branch-and-bound solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
#[allow(clippy::upper_case_acronyms)]
pub enum Heuristic {
    /// Order of submission: the arbitrary order in which tasks are given.
    OS,
    /// Order of the optimal strategy for infinite memory (Johnson order),
    /// executed under the memory constraint.
    OOSIM,
    /// Increasing order of communication time.
    IOCMS,
    /// Decreasing order of computation time.
    DOCPS,
    /// Increasing order of communication plus computation time.
    IOCCS,
    /// Decreasing order of communication plus computation time.
    DOCCS,
    /// Gilmore–Gomory no-wait flowshop sequence.
    GG,
    /// First-Fit bin-packing groups.
    BP,
    /// Dynamic: largest communication task that respects the memory
    /// restriction.
    LCMR,
    /// Dynamic: smallest communication task that respects the memory
    /// restriction.
    SCMR,
    /// Dynamic: maximum-acceleration task (computation/communication ratio)
    /// that respects the memory restriction.
    MAMR,
    /// Johnson order with dynamic corrections, choosing the largest
    /// communication task when correcting.
    OOLCMR,
    /// Johnson order with dynamic corrections, choosing the smallest
    /// communication task when correcting.
    OOSCMR,
    /// Johnson order with dynamic corrections, choosing the maximum
    /// acceleration task when correcting.
    OOMAMR,
}

impl Heuristic {
    /// All heuristics, in the order the paper lists them on its plots.
    pub const ALL: [Heuristic; 14] = [
        Heuristic::OS,
        Heuristic::GG,
        Heuristic::BP,
        Heuristic::OOSIM,
        Heuristic::IOCMS,
        Heuristic::DOCPS,
        Heuristic::IOCCS,
        Heuristic::DOCCS,
        Heuristic::LCMR,
        Heuristic::SCMR,
        Heuristic::MAMR,
        Heuristic::OOLCMR,
        Heuristic::OOSCMR,
        Heuristic::OOMAMR,
    ];

    /// The category this heuristic belongs to.
    pub fn category(self) -> HeuristicCategory {
        match self {
            Heuristic::OS => HeuristicCategory::SubmissionOrder,
            Heuristic::OOSIM
            | Heuristic::IOCMS
            | Heuristic::DOCPS
            | Heuristic::IOCCS
            | Heuristic::DOCCS
            | Heuristic::GG
            | Heuristic::BP => HeuristicCategory::Static,
            Heuristic::LCMR | Heuristic::SCMR | Heuristic::MAMR => HeuristicCategory::Dynamic,
            Heuristic::OOLCMR | Heuristic::OOSCMR | Heuristic::OOMAMR => {
                HeuristicCategory::StaticDynamic
            }
        }
    }

    /// Heuristics belonging to a category.
    pub fn in_category(category: HeuristicCategory) -> Vec<Heuristic> {
        Heuristic::ALL
            .iter()
            .copied()
            .filter(|h| h.category() == category)
            .collect()
    }

    /// Short name as used on the paper's plots.
    pub fn name(self) -> &'static str {
        match self {
            Heuristic::OS => "OS",
            Heuristic::OOSIM => "OOSIM",
            Heuristic::IOCMS => "IOCMS",
            Heuristic::DOCPS => "DOCPS",
            Heuristic::IOCCS => "IOCCS",
            Heuristic::DOCCS => "DOCCS",
            Heuristic::GG => "GG",
            Heuristic::BP => "BP",
            Heuristic::LCMR => "LCMR",
            Heuristic::SCMR => "SCMR",
            Heuristic::MAMR => "MAMR",
            Heuristic::OOLCMR => "OOLCMR",
            Heuristic::OOSCMR => "OOSCMR",
            Heuristic::OOMAMR => "OOMAMR",
        }
    }

    /// Parses a heuristic from its short name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Heuristic> {
        let upper = name.to_ascii_uppercase();
        Heuristic::ALL.iter().copied().find(|h| h.name() == upper)
    }
}

impl fmt::Display for Heuristic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Runs a heuristic on an instance and returns the resulting schedule,
/// under the execution model the instance carries
/// ([`ExecutionModel::Explicit`] unless one was attached). Static orders
/// only look at task characteristics, so they are the same under every
/// model and then executed under it; the dynamic and corrected heuristics
/// take their decisions on the same machine.
///
/// This is [`Plan::run`] on a fresh plan, which builds only what
/// `heuristic` needs; callers running several heuristics or capacities on
/// one task table should keep a [`Plan`] instead.
pub fn run_heuristic(instance: &Instance, heuristic: Heuristic) -> Result<Schedule> {
    Plan::new(instance).run_once(instance, heuristic)
}

/// Runs every heuristic and returns the one with the smallest makespan,
/// together with its schedule. Ties are broken by the order of
/// [`Heuristic::ALL`].
///
/// ```
/// use dts_core::instances::table5;
/// use dts_flowshop::johnson::johnson_makespan;
///
/// let instance = table5();
/// let (winner, schedule) = dts_heuristics::best_heuristic(&instance).unwrap();
/// // No heuristic can beat the infinite-memory (OMIM) lower bound.
/// assert!(schedule.makespan(&instance) >= johnson_makespan(&instance));
/// println!("best heuristic on Table 5: {winner}");
/// ```
pub fn best_heuristic(instance: &Instance) -> Result<(Heuristic, Schedule)> {
    let plan = Plan::new(instance);
    let [first, rest @ ..] = Heuristic::ALL;
    let mut best = (first, plan.run(instance, first)?);
    let mut best_makespan = best.1.makespan(instance);
    for h in rest {
        let schedule = plan.run(instance, h)?;
        let makespan = schedule.makespan(instance);
        if makespan < best_makespan {
            (best, best_makespan) = ((h, schedule), makespan);
        }
    }
    Ok(best)
}

/// Runs every heuristic of a category and returns the smallest makespan
/// achieved (the "best variant" curves of Figs. 10, 12, 13); one
/// [`Plan::best_in_category`] call on a fresh plan.
pub fn best_in_category(instance: &Instance, category: HeuristicCategory) -> Result<Time> {
    Plan::new(instance).best_in_category(instance, category)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dts_core::feasibility::is_feasible;
    use dts_core::instances::{random_instance_decoupled_memory, table3, table4, table5};
    use dts_flowshop::johnson::johnson_makespan;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn all_heuristics_produce_feasible_schedules_on_paper_tables() {
        for inst in [table3(), table4(), table5()] {
            for &h in &Heuristic::ALL {
                let sched = run_heuristic(&inst, h).unwrap();
                assert!(
                    is_feasible(&inst, &sched),
                    "{h} infeasible on {}: {:?}",
                    inst.label,
                    dts_core::feasibility::validate(&inst, &sched)
                );
                assert!(sched.makespan(&inst) >= johnson_makespan(&inst));
                assert!(sched.is_permutation_schedule());
            }
        }
    }

    #[test]
    fn all_heuristics_feasible_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(99);
        let models = [
            "explicit",
            "duplex",
            "streams:1",
            "streams:3",
            "implicit:0.5",
            "implicit:1",
        ]
        .map(|spec| ExecutionModel::parse(spec).unwrap());
        for _ in 0..25 {
            let inst = random_instance_decoupled_memory(&mut rng, 12, 1.3);
            let omim = johnson_makespan(&inst);
            for model in models {
                let modeled = inst.clone().with_model(model).unwrap();
                for &h in &Heuristic::ALL {
                    let sched = run_heuristic(&modeled, h).unwrap();
                    assert!(
                        is_feasible(&modeled, &sched),
                        "{h} infeasible under {model}"
                    );
                    // Johnson's bound holds for the paper's single link.
                    if matches!(
                        model,
                        ExecutionModel::Explicit | ExecutionModel::Streams { k: 1 }
                    ) {
                        assert!(sched.makespan(&inst) >= omim, "{h} beat the lower bound");
                    }
                }
            }
        }
    }

    #[test]
    fn best_heuristic_is_minimum_over_all() {
        let inst = table5();
        let (_, best_sched) = best_heuristic(&inst).unwrap();
        let best = best_sched.makespan(&inst);
        for &h in &Heuristic::ALL {
            assert!(run_heuristic(&inst, h).unwrap().makespan(&inst) >= best);
        }
    }

    #[test]
    fn best_in_category_covers_all_categories() {
        let inst = table4();
        for cat in HeuristicCategory::ALL {
            let best = best_in_category(&inst, cat).unwrap();
            assert!(best >= johnson_makespan(&inst));
            assert!(!Heuristic::in_category(cat).is_empty());
        }
    }

    #[test]
    fn names_round_trip() {
        for &h in &Heuristic::ALL {
            assert_eq!(Heuristic::from_name(h.name()), Some(h));
            assert_eq!(Heuristic::from_name(&h.name().to_lowercase()), Some(h));
        }
        assert_eq!(Heuristic::from_name("nope"), None);
    }

    #[test]
    fn categories_partition_the_heuristics() {
        let total: usize = HeuristicCategory::ALL
            .iter()
            .map(|&c| Heuristic::in_category(c).len())
            .sum();
        assert_eq!(total, Heuristic::ALL.len());
        assert_eq!(Heuristic::OOSIM.category(), HeuristicCategory::Static);
        assert_eq!(Heuristic::MAMR.category(), HeuristicCategory::Dynamic);
        assert_eq!(
            Heuristic::OOMAMR.category(),
            HeuristicCategory::StaticDynamic
        );
    }
}
