//! # dts-chem
//!
//! Molecular-chemistry workload generators. The paper's evaluation uses
//! traces obtained by running two NWChem kernels — double-precision
//! Hartree–Fock (HF, SiOSi input, tile size 100) and Coupled Cluster Single
//! Double (CCSD, Uracil input, automatically determined heterogeneous
//! tiles) — with 150 processes on 10 nodes of the PNNL Cascade machine, each
//! process executing 300–800 tasks.
//!
//! Those runs are not reproducible without the machine and NWChem, so this
//! crate generates *synthetic traces with the same structure*: tasks are the
//! tensor-transpose/contraction work units of the two kernels, their
//! communication volumes come from one-sided `get`s of tiles of
//! Global-Arrays-distributed tensors (`dts-ga`), their communication times
//! from the single-route transfer model, and their computation times from
//! the roofline cost model of `dts-tensor`. The generator parameters are
//! calibrated so the per-trace aggregate characteristics match Fig. 8 of
//! the paper:
//!
//! * HF — nearly homogeneous tasks, communication-intensive (at most ~20 %
//!   of the communication can be overlapped), minimum memory capacity
//!   `mc ≈ 176 KiB`;
//! * CCSD — strongly heterogeneous tasks, communications and computations
//!   roughly balanced, `mc ≈ 1.8 GiB`.
//!
//! The crate also provides trace (de)serialization and the workload
//! characterization used to regenerate Fig. 8.

#![warn(missing_docs)]

pub mod ccsd;
pub mod characterize;
pub mod hf;
pub mod suite;
pub mod trace;

pub use ccsd::CcsdConfig;
pub use characterize::{characterize, WorkloadCharacterization};
pub use hf::HfConfig;
pub use suite::{Kernel, SuiteConfig};
pub use trace::{Trace, TraceTask};
