//! Per-task-table set-up shared by every run of every heuristic.
//!
//! Most of what a heuristic computes before its first decision depends on
//! the tasks alone: the Johnson order that OOSIM executes and the OO*
//! heuristics correct, the sorted static orders, the Gilmore–Gomory
//! sequence and the [`CandidateIndex`] the dynamic and corrected
//! heuristics query. None of it depends on the memory capacity or on the
//! execution model, so a capacity sweep (the paper's evaluation runs 14
//! heuristics at 9 capacities) can build it once per trace instead of
//! once per run. A [`Plan`] holds that work for one task table; each part
//! is built on first use, so a single run builds only what its heuristic
//! needs. Only `BP` depends on the capacity; it is packed at every run.
//!
//! ```
//! use dts_core::instances::table5;
//! use dts_heuristics::{run_heuristic, Heuristic, Plan};
//!
//! let instance = table5();
//! let plan = Plan::new(&instance);
//! for factor in [1.0, 1.5, 2.0] {
//!     let capacity = instance.capacity().scale(factor);
//!     let scaled = instance.with_capacity(capacity).unwrap();
//!     for heuristic in Heuristic::ALL {
//!         // Same schedules as one-shot runs, without rebuilding the
//!         // orders and indexes at each capacity.
//!         assert_eq!(
//!             plan.run(&scaled, heuristic).unwrap(),
//!             run_heuristic(&scaled, heuristic).unwrap()
//!         );
//!     }
//! }
//! ```

use crate::dynamic::SelectionCriterion;
use crate::engine::run_decisions;
use crate::static_order::{
    decreasing_comp_order, decreasing_total_order, first_fit_order, increasing_comm_order,
    increasing_total_order,
};
use crate::{Heuristic, HeuristicCategory};
use dts_core::index::CandidateIndex;
use dts_core::prelude::*;
use dts_flowshop::gilmore_gomory::gilmore_gomory_order;
use dts_flowshop::johnson::johnson_order;
use std::borrow::Cow;
use std::sync::OnceLock;

/// The capacity- and model-independent set-up of every heuristic for one
/// task table, built lazily and reused by every [`run`](Plan::run).
///
/// A plan borrows the instance it was built from and accepts any instance
/// with the same tasks in the same order: the same trace at another
/// capacity or under another execution model. Task names play no part.
///
/// A plan is `Sync`, so the workers of a sweep share one: the first run
/// that needs a part builds it, and runs that need it meanwhile wait for
/// that build.
#[derive(Debug)]
pub struct Plan<'a> {
    instance: &'a Instance,
    johnson: OnceLock<Vec<TaskId>>,
    /// OS, IOCMS, DOCPS, IOCCS, DOCCS and GG, in that order: every static
    /// order but OOSIM's (the Johnson order above) and BP's (which
    /// depends on the capacity).
    orders: [OnceLock<Vec<TaskId>>; 6],
    comm_index: OnceLock<CandidateIndex>,
    full_index: OnceLock<CandidateIndex>,
}

// Sweeps share one plan across pool workers.
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<Plan<'_>>();
};

impl<'a> Plan<'a> {
    /// An empty plan for `instance`'s task table; nothing is built until a
    /// run needs it.
    pub fn new(instance: &'a Instance) -> Self {
        Plan {
            instance,
            johnson: OnceLock::new(),
            orders: Default::default(),
            comm_index: OnceLock::new(),
            full_index: OnceLock::new(),
        }
    }

    /// The Johnson order of the plan's tasks (OOSIM's order, the one the
    /// OO* heuristics correct, and the order behind the OMIM bound).
    pub fn johnson_order(&self) -> &[TaskId] {
        self.johnson.get_or_init(|| johnson_order(self.instance))
    }

    /// The order a static heuristic executes on `instance`.
    ///
    /// # Errors
    ///
    /// [`CoreError::TaskTableMismatch`] if `instance` has other tasks than
    /// the plan's, and [`CoreError::Infeasible`] if `heuristic` is not a
    /// static heuristic.
    pub fn static_order(
        &self,
        instance: &Instance,
        heuristic: Heuristic,
    ) -> Result<Cow<'_, [TaskId]>> {
        self.check_table(instance)?;
        self.order(instance, heuristic)
    }

    /// Runs `heuristic` on `instance` under the execution model it
    /// carries; the schedule is the one [`run_heuristic`](crate::run_heuristic)
    /// returns. Each dynamic or corrected run works on its own copy of the
    /// plan's candidate index.
    ///
    /// # Errors
    ///
    /// [`CoreError::TaskTableMismatch`] if `instance` has other tasks than
    /// the plan's, and the errors of the heuristic itself.
    pub fn run(&self, instance: &Instance, heuristic: Heuristic) -> Result<Schedule> {
        self.check_table(instance)?;
        self.dispatch(instance, heuristic, |criterion| {
            self.index(criterion).clone()
        })
    }

    /// [`run`](Plan::run) on a plan used for one run only: the candidate
    /// index is built for the run and handed over, not kept and copied
    /// (on a 200k-task trace the copy alone costs several milliseconds).
    pub(crate) fn run_once(self, instance: &Instance, heuristic: Heuristic) -> Result<Schedule> {
        self.check_table(instance)?;
        self.dispatch(instance, heuristic, |criterion| {
            criterion.build_index(self.instance)
        })
    }

    /// The one dispatch over every heuristic; `index` yields a fresh
    /// candidate index for the criterion a dynamic or corrected run
    /// queries.
    fn dispatch(
        &self,
        instance: &Instance,
        heuristic: Heuristic,
        index: impl Fn(SelectionCriterion) -> CandidateIndex,
    ) -> Result<Schedule> {
        // The OO* heuristics correct the Johnson order; the dynamic ones
        // follow no order.
        let (corrects_johnson, criterion) = match heuristic {
            Heuristic::LCMR => (false, SelectionCriterion::LargestCommunication),
            Heuristic::SCMR => (false, SelectionCriterion::SmallestCommunication),
            Heuristic::MAMR => (false, SelectionCriterion::MaximumAcceleration),
            Heuristic::OOLCMR => (true, SelectionCriterion::LargestCommunication),
            Heuristic::OOSCMR => (true, SelectionCriterion::SmallestCommunication),
            Heuristic::OOMAMR => (true, SelectionCriterion::MaximumAcceleration),
            _ => return simulate_sequence(instance, &self.order(instance, heuristic)?),
        };
        let order = corrects_johnson.then(|| self.johnson_order());
        run_decisions(instance, order, criterion, index(criterion))
    }

    /// Runs every heuristic of `category` on `instance` and returns the
    /// smallest makespan.
    ///
    /// # Errors
    ///
    /// As [`run`](Plan::run).
    pub fn best_in_category(
        &self,
        instance: &Instance,
        category: HeuristicCategory,
    ) -> Result<Time> {
        let mut best = Time::MAX;
        for heuristic in Heuristic::in_category(category) {
            best = best.min(self.run(instance, heuristic)?.makespan(instance));
        }
        Ok(best)
    }

    /// [`static_order`](Plan::static_order) once the table is checked.
    fn order(&self, instance: &Instance, heuristic: Heuristic) -> Result<Cow<'_, [TaskId]>> {
        let (slot, build): (usize, fn(&Instance) -> Vec<TaskId>) = match heuristic {
            Heuristic::OOSIM => return Ok(Cow::Borrowed(self.johnson_order())),
            Heuristic::BP => return Ok(Cow::Owned(first_fit_order(instance))),
            Heuristic::OS => (0, Instance::task_ids),
            Heuristic::IOCMS => (1, increasing_comm_order),
            Heuristic::DOCPS => (2, decreasing_comp_order),
            Heuristic::IOCCS => (3, increasing_total_order),
            Heuristic::DOCCS => (4, decreasing_total_order),
            Heuristic::GG => (5, gilmore_gomory_order),
            other => {
                return Err(CoreError::Infeasible(format!(
                    "{other} is not a static heuristic"
                )))
            }
        };
        Ok(Cow::Borrowed(
            self.orders[slot].get_or_init(|| build(self.instance)),
        ))
    }

    /// The index `criterion` queries, built on first use.
    fn index(&self, criterion: SelectionCriterion) -> &CandidateIndex {
        let cell = if criterion.needs_ratio_queries() {
            &self.full_index
        } else {
            &self.comm_index
        };
        cell.get_or_init(|| criterion.build_index(self.instance))
    }

    fn check_table(&self, instance: &Instance) -> Result<()> {
        let (ours, theirs) = (self.instance.tasks(), instance.tasks());
        if std::ptr::eq(ours, theirs) || ours == theirs {
            Ok(())
        } else {
            Err(CoreError::TaskTableMismatch {
                expected: ours.len(),
                got: theirs.len(),
            })
        }
    }
}
