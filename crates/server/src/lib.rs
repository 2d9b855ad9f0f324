//! Scheduling-as-a-service for the transfer-ordering stack.
//!
//! The per-invocation CLI (`dts run`, `dts corpus`) re-parses, re-builds
//! and re-solves every instance from scratch; a runtime that consults the
//! scheduler on every kernel launch cannot afford that. This crate turns
//! the solver into a long-running daemon:
//!
//! * [`protocol`] — the wire format: length-framed JSON, one typed
//!   [`protocol::ErrorCode`] per failure class, and the content digest
//!   that keys the instance cache;
//! * [`server`] — the daemon: per-connection frame loops that answer
//!   their own requests, admission control (payload ceiling, task
//!   ceiling, an admission gate bounding running and admitted cold
//!   solves with load shedding), and a solve-once instance cache
//!   returning byte-identical schedules for repeated requests;
//! * [`client`] — the blocking client used by `dts request`, the bench
//!   load generator and the end-to-end tests.
//!
//! Everything is std TCP + the vendored serde: no async runtime, no new
//! dependencies.

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use protocol::{
    decode_request, parse_request, ErrorCode, ErrorReply, SolveRequest, TraceSource,
};
pub use server::{Server, ServerConfig, ServerHandle};
