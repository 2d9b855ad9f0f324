//! # dts-ga
//!
//! A small Global-Arrays-like PGAS substrate. NWChem expresses its tensors
//! as *global arrays*: tiled arrays whose tiles are distributed over the
//! memory of all processes; a process that needs a tile it does not own
//! issues a one-sided `get` over the interconnect. The data-transfer traces
//! of the paper are exactly the sequences of such `get`s (communication
//! side) paired with the kernels consuming them (computation side).
//!
//! The real machine (PNNL Cascade) is not available, so this crate models
//! the parts that matter for the traces:
//!
//! * [`topology`] — nodes and worker processes per node (10 nodes × 15
//!   workers in the paper's setup);
//! * [`mod@array`] — tiled global arrays with a deterministic owner map;
//! * [`transfer`] — the single-route transfer-cost model of Section 5
//!   (every transfer between a process and the GA memory takes the same
//!   route, so cost = latency + bytes/bandwidth);
//! * [`runtime`] — the cost of a one-sided `get`, producing the
//!   `(bytes, transfer time)` pairs the trace generators consume.

#![warn(missing_docs)]

pub mod array;
pub mod runtime;
pub mod topology;
pub mod transfer;

pub use array::{GlobalArray, Tiled};
pub use runtime::{GaRuntime, GetOutcome};
pub use topology::Topology;
pub use transfer::TransferModel;
