//! Error types shared across the workspace.

use crate::task::TaskId;
use std::fmt;

/// Result alias with [`CoreError`].
pub type Result<T> = std::result::Result<T, CoreError>;

/// Errors produced by instance construction and schedule manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The instance has no tasks.
    EmptyInstance,
    /// A task requires more memory than the instance capacity; no feasible
    /// schedule can exist.
    TaskExceedsCapacity {
        /// Offending task.
        task: TaskId,
        /// Name of the offending task.
        name: String,
    },
    /// A task id referenced by a schedule or sequence is out of range.
    UnknownTask(TaskId),
    /// A sequence or schedule does not contain every task exactly once.
    NotAPermutation {
        /// Number of tasks in the instance.
        expected: usize,
        /// Number of entries supplied.
        got: usize,
    },
    /// A sequence or schedule mentions the same task more than once.
    DuplicateTask(TaskId),
    /// An instance was handed to a structure precomputed for a different
    /// task table (a heuristic plan, say); the precomputed orders and
    /// indexes would describe other tasks.
    TaskTableMismatch {
        /// Number of tasks of the table the structure was built for.
        expected: usize,
        /// Number of tasks of the instance supplied.
        got: usize,
    },
    /// A memory-capacity scale factor is not a finite non-negative number
    /// (NaN, infinite, or negative). Stored pre-formatted so the error
    /// stays `Eq` despite the `f64` origin.
    InvalidCapacityFactor(String),
    /// An execution-model spec is malformed (unknown strategy, zero stream
    /// count, non-finite or out-of-range overlap efficiency). Stored
    /// pre-formatted so the error stays `Eq` despite the `f64` origin.
    InvalidExecutionModel(String),
    /// A trace file is malformed *as a trace*, even though it may be valid
    /// JSON: unknown format version, non-integer or negative task fields,
    /// duplicate task names, or totals that overflow the `u64` tick/byte
    /// arithmetic the simulators rely on. Kept distinct from
    /// [`CoreError::Serialization`] (which covers I/O and JSON syntax) so
    /// the strict trace importer can report *what* is wrong with the data.
    InvalidTrace(String),
    /// A cost-model file or spec is malformed *as a cost model*, even though
    /// it may be valid JSON: unknown format version or backend, float or
    /// negative coefficients, empty history tables, or missing default
    /// entries. The dual of [`CoreError::InvalidTrace`] for the
    /// `dts-cost-model` format; [`CoreError::Serialization`] still covers
    /// I/O and JSON syntax.
    InvalidCostModel(String),
    /// A schedule was found infeasible; the message summarizes the first
    /// violation.
    Infeasible(String),
    /// An I/O or serialization problem (message only, to stay `Eq`).
    Serialization(String),
    /// An internal invariant was violated or a worker crashed — a bug in the
    /// harness, not a property of the input. Kept distinct from
    /// [`CoreError::Infeasible`] so callers never mistake a crash for a
    /// data-dependent modeling outcome.
    Internal(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::EmptyInstance => write!(f, "instance contains no tasks"),
            CoreError::TaskExceedsCapacity { task, name } => write!(
                f,
                "task {task} ({name}) requires more memory than the capacity; instance is infeasible"
            ),
            CoreError::UnknownTask(id) => write!(f, "unknown task id {id}"),
            CoreError::NotAPermutation { expected, got } => write!(
                f,
                "sequence must contain every task exactly once (expected {expected} tasks, got {got})"
            ),
            CoreError::DuplicateTask(id) => {
                write!(f, "sequence mentions task {id} more than once")
            }
            CoreError::TaskTableMismatch { expected, got } => write!(
                f,
                "instance's task table ({got} tasks) is not the one the plan was built for ({expected} tasks)"
            ),
            CoreError::InvalidCapacityFactor(factor) => write!(
                f,
                "invalid capacity factor {factor}: must be a finite non-negative number"
            ),
            CoreError::InvalidExecutionModel(msg) => {
                write!(f, "invalid execution model: {msg}")
            }
            CoreError::InvalidTrace(msg) => write!(f, "invalid trace: {msg}"),
            CoreError::InvalidCostModel(msg) => write!(f, "invalid cost model: {msg}"),
            CoreError::Infeasible(msg) => write!(f, "infeasible schedule: {msg}"),
            CoreError::Serialization(msg) => write!(f, "serialization error: {msg}"),
            CoreError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let e = CoreError::TaskExceedsCapacity {
            task: TaskId(3),
            name: "C".into(),
        };
        assert!(e.to_string().contains("T3"));
        assert!(CoreError::EmptyInstance.to_string().contains("no tasks"));
        let e = CoreError::NotAPermutation {
            expected: 5,
            got: 4,
        };
        assert!(e.to_string().contains("expected 5"));
        assert!(CoreError::DuplicateTask(TaskId(2))
            .to_string()
            .contains("T2"));
        let e = CoreError::TaskTableMismatch {
            expected: 4,
            got: 4,
        };
        assert!(e.to_string().contains("not the one the plan was built for"));
        let e = CoreError::InvalidCapacityFactor("NaN".into());
        assert!(e.to_string().contains("invalid capacity factor NaN"));
        let e = CoreError::InvalidExecutionModel("bad spec".into());
        assert!(e.to_string().contains("invalid execution model: bad spec"));
        let e = CoreError::InvalidTrace("duplicate task name `a`".into());
        assert!(e.to_string().contains("invalid trace: duplicate task name"));
    }
}
