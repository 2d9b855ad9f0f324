//! # dts-milp
//!
//! The iterative `lp.k` heuristic built on the mixed-integer
//! linear-programming view of the data-transfer problem (Section 4.5 of the
//! paper).
//!
//! The paper formulates problem `DT` with, for every ordered pair of tasks
//! `(i, j)`, booleans `a_ij` (communication order), `b_ij` (computation
//! order) and `c_ij` (whether `i`'s transfer starts after `j`'s computation
//! ends), plus continuous start times. GLPK could not solve the full MILP at
//! the scale of interest, so the paper solves it *iteratively* on windows of
//! `k = 3..6` tasks, freezing already-started events at each window
//! boundary.
//!
//! This crate reproduces that pipeline without an external solver:
//! [`iterative`] assembles the `lp.k` heuristic: split the submission
//! order into windows of `k` tasks, solve each window exactly, concatenate.
//! The exact search (`dts_flowshop::exact::best_same_order`, over the
//! window's orders from the machine the earlier windows left) plays the
//! role GLPK played in the paper.
//!
//! The formulation itself lives in the crate's `milp_oracle` test, which
//! reads concrete schedules as points of the MILP and checks that its rows
//! give the same verdict as `dts_core::feasibility::validate` on
//! explicit-model schedules.
//!
//! The substitution (an exact search instead of GLPK) is documented in
//! `ARCHITECTURE.md`; for the window sizes used by the paper (≤ 6 tasks) the
//! search is exact over permutation schedules, which is all that matters for
//! reproducing Fig. 7.

#![warn(missing_docs)]

pub mod iterative;

pub use iterative::{lp_k, lp_k_sweep, LpKConfig};
