//! # transfer-sched
//!
//! A library for deciding the **order of data transfers** between two memory
//! nodes so that communication is overlapped with computation and the
//! makespan of a set of independent tasks is minimized. This is a
//! reproduction of *Performance Models for Data Transfers: A Case Study with
//! Molecular Chemistry Kernels* (Kumar, Eyraud-Dubois & Krishnamoorthy,
//! ICPP 2019).
//!
//! The crate is a facade re-exporting the workspace members:
//!
//! * [`core`] — task/instance/schedule model, feasibility checking, the
//!   memory-constrained executor;
//! * [`flowshop`] — Johnson's algorithm (the `OMIM` lower bound),
//!   Gilmore–Gomory sequencing, exact solvers, the 3-Partition reduction;
//! * [`heuristics`] — the static, dynamic and corrected ordering heuristics
//!   of the paper;
//! * [`milp`] — the iterative `lp.k` heuristic (Section 4.5's MILP solved
//!   window by window by an exact search);
//! * [`tensor`] — dense tensor-tile kernels (transpose/contraction) used by
//!   the workload generators;
//! * [`ga`] — a Global-Arrays-like PGAS memory-node substrate with a
//!   transfer-cost model;
//! * [`chem`] — Hartree–Fock and CCSD trace generators and workload
//!   characterization;
//! * [`analysis`] — experiment harness, capacity sweeps, statistics and
//!   report generation.
//!
//! ## Quickstart
//!
//! ```
//! use transfer_sched::prelude::*;
//!
//! // Four independent tasks (Table 3 of the paper), memory capacity 6.
//! let instance = InstanceBuilder::new()
//!     .capacity(MemSize::from_bytes(6))
//!     .task_units("A", 3.0, 2.0, 3)
//!     .task_units("B", 1.0, 3.0, 1)
//!     .task_units("C", 4.0, 4.0, 4)
//!     .task_units("D", 2.0, 1.0, 2)
//!     .build()
//!     .unwrap();
//!
//! // Lower bound: optimal makespan with infinite memory (Johnson's rule).
//! let omim = johnson_makespan(&instance);
//!
//! // Run every heuristic from the paper and pick the best schedule.
//! let (best, schedule) = best_heuristic(&instance).unwrap();
//! let ratio = schedule.makespan(&instance).ratio(omim);
//! println!("best heuristic: {best}, ratio to optimal: {ratio:.3}");
//! assert!(ratio >= 1.0);
//! ```

pub use dts_analysis as analysis;
pub use dts_chem as chem;
pub use dts_core as core;
pub use dts_flowshop as flowshop;
pub use dts_ga as ga;
pub use dts_heuristics as heuristics;
pub use dts_milp as milp;
pub use dts_tensor as tensor;

/// One-stop prelude for applications.
pub mod prelude {
    pub use dts_core::prelude::*;
    pub use dts_flowshop::johnson::{johnson_makespan, johnson_order, johnson_schedule};
    pub use dts_heuristics::{best_heuristic, run_heuristic, Heuristic};
}
