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

use crate::corrected::{run_corrected_with, CorrectionCriterion};
use crate::dynamic::{run_dynamic_with, SelectionCriterion};
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
use std::cell::OnceCell;

/// The capacity- and model-independent set-up of every heuristic for one
/// task table, built lazily and reused by every [`run`](Plan::run).
///
/// A plan borrows the instance it was built from and accepts any instance
/// with the same tasks in the same order: the same trace at another
/// capacity or under another execution model. Task names play no part.
#[derive(Debug)]
pub struct Plan<'a> {
    instance: &'a Instance,
    johnson: OnceCell<Vec<TaskId>>,
    /// OS, IOCMS, DOCPS, IOCCS, DOCCS and GG, in that order: every static
    /// order but OOSIM's (the Johnson order above) and BP's (which
    /// depends on the capacity).
    orders: [OnceCell<Vec<TaskId>>; 6],
    comm_index: OnceCell<CandidateIndex>,
    full_index: OnceCell<CandidateIndex>,
}

impl<'a> Plan<'a> {
    /// An empty plan for `instance`'s task table; nothing is built until a
    /// run needs it.
    pub fn new(instance: &'a Instance) -> Self {
        Plan {
            instance,
            johnson: OnceCell::new(),
            orders: Default::default(),
            comm_index: OnceCell::new(),
            full_index: OnceCell::new(),
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
        let dynamic =
            |criterion: SelectionCriterion| run_dynamic_with(instance, criterion, index(criterion));
        let corrected = |criterion: CorrectionCriterion| {
            let index = index(criterion.into());
            run_corrected_with(instance, self.johnson_order(), criterion, index)
        };
        match heuristic {
            Heuristic::LCMR => dynamic(SelectionCriterion::LargestCommunication),
            Heuristic::SCMR => dynamic(SelectionCriterion::SmallestCommunication),
            Heuristic::MAMR => dynamic(SelectionCriterion::MaximumAcceleration),
            Heuristic::OOLCMR => corrected(CorrectionCriterion::LargestCommunication),
            Heuristic::OOSCMR => corrected(CorrectionCriterion::SmallestCommunication),
            Heuristic::OOMAMR => corrected(CorrectionCriterion::MaximumAcceleration),
            _ => simulate_sequence(instance, &self.order(instance, heuristic)?),
        }
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
        let cell = if criterion.needs_ratio_trees() {
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
