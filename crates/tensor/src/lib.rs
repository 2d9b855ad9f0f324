//! # dts-tensor
//!
//! Tile shapes and kernel cost models for the molecular-chemistry workload
//! generators. NWChem's Hartree–Fock and CCSD kernels spend their time in
//! two operations on tiles of distributed tensors: **tensor transposes**
//! (index permutations, memory-bound) and **tensor contractions** (block
//! matrix multiplications, compute-bound). The generators in `dts-chem`
//! never execute these kernels: they describe each task by its tile
//! [`TileShape`]s and [`ContractionSpec`], count its flops and bytes as a
//! [`KernelCost`], and turn the counts into an execution time with the
//! roofline [`CostModel`], which keeps trace generation fast and
//! deterministic.

#![warn(missing_docs)]

pub mod contraction;
pub mod cost;
pub mod tile;

pub use contraction::ContractionSpec;
pub use cost::{CostModel, KernelCost};
pub use tile::TileShape;
