//! Tasks of the data-transfer problem.

use crate::memory::MemSize;
use crate::time::Time;
use serde::Serialize;
use std::fmt;
use std::sync::OnceLock;

/// Index of a task inside its [`Instance`](crate::instance::Instance).
///
/// Task ids are dense indices (`0..n`), which lets schedules and solvers use
/// plain vectors instead of hash maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
#[serde(transparent)]
pub struct TaskId(pub usize);

impl TaskId {
    /// The underlying index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Classification of a task following the paper: a task is *compute
/// intensive* if its computation time is at least its communication time,
/// and *communication intensive* otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskIntensity {
    /// `CP >= CM`.
    ComputeIntensive,
    /// `CP < CM`.
    CommunicationIntensive,
}

impl fmt::Display for TaskIntensity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskIntensity::ComputeIntensive => write!(f, "compute-intensive"),
            TaskIntensity::CommunicationIntensive => write!(f, "communication-intensive"),
        }
    }
}

/// One independent task of problem `DT`.
///
/// A task first occupies the communication link for `comm_time` (its input
/// transfer from the remote memory node), then the processing unit for
/// `comp_time`. It holds `mem` bytes of the local memory from the start of
/// its communication until the end of its computation. Output data is not
/// modelled (the paper assumes it is negligible or stored in a preallocated
/// buffer).
///
/// The record holds exactly the three numbers the heuristics read, 24
/// bytes; the task's name lives in its owner's [`TaskTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Task {
    /// Input-data transfer time `CM_i`.
    pub comm_time: Time,
    /// Computation time `CP_i`.
    pub comp_time: Time,
    /// Memory required to hold the input data, `MC(i)`.
    pub mem: MemSize,
}

impl Task {
    /// Creates a task from raw quantities.
    pub const fn new(comm_time: Time, comp_time: Time, mem: MemSize) -> Self {
        Task {
            comm_time,
            comp_time,
            mem,
        }
    }

    /// Creates a task using the paper's example convention: times are given
    /// in abstract units and the memory requirement (in bytes) equals the
    /// communication volume.
    pub fn from_units(comm: f64, comp: f64, mem_bytes: u64) -> Self {
        Task {
            comm_time: Time::units(comm),
            comp_time: Time::units(comp),
            mem: MemSize::from_bytes(mem_bytes),
        }
    }

    /// Intensity classification (`CP >= CM` ⇒ compute intensive).
    #[inline]
    pub fn intensity(&self) -> TaskIntensity {
        if self.comp_time >= self.comm_time {
            TaskIntensity::ComputeIntensive
        } else {
            TaskIntensity::CommunicationIntensive
        }
    }

    /// Acceleration ratio `CP / CM`, used by the MAMR/OOMAMR heuristics.
    /// Follows the conventions of [`Time::ratio`].
    #[inline]
    pub fn acceleration_ratio(&self) -> f64 {
        self.comp_time.ratio(self.comm_time)
    }

    /// Sum of communication and computation time (IOCCS/DOCCS sort key).
    #[inline]
    pub fn total_time(&self) -> Time {
        self.comm_time + self.comp_time
    }
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "comm {}, comp {}, mem {}",
            self.comm_time, self.comp_time, self.mem
        )
    }
}

/// The task column of a trace and of every instance built from it, and its
/// name arena: task `i` is `tasks()[i]`, and its name is the `i`-th slice
/// of one `String`, cut at `u32` end offsets. Building a table of `n` tasks
/// allocates three growing buffers, never one per task, and cloning it
/// copies three buffers; owners share a finished table behind an `Arc`.
///
/// The two aggregates every instance checks, the largest task
/// ([`max_mem`](TaskTable::max_mem)) and the summed task time
/// ([`total_time`](TaskTable::total_time)), are computed in one pass on
/// first use and kept until the table changes, so every instance over a
/// shared table checks them in O(1).
#[derive(Debug, Clone, Default)]
pub struct TaskTable {
    tasks: Vec<Task>,
    text: String,
    ends: Vec<u32>,
    totals: OnceLock<Totals>,
}

/// The cached aggregates of a [`TaskTable`].
#[derive(Debug, Clone, Copy)]
struct Totals {
    max_mem: MemSize,
    /// `Σ (comm + comp)`, `None` when it overflows the `u64` tick range.
    time: Option<Time>,
}

// Equality is the tasks and their names; the cache plays no part.
impl PartialEq for TaskTable {
    fn eq(&self, other: &Self) -> bool {
        self.tasks == other.tasks && self.ends == other.ends && self.text == other.text
    }
}

impl Eq for TaskTable {}

impl TaskTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table with room for `n` tasks.
    pub fn with_capacity(n: usize) -> Self {
        TaskTable {
            tasks: Vec::with_capacity(n),
            text: String::new(),
            ends: Vec::with_capacity(n),
            totals: OnceLock::new(),
        }
    }

    /// Appends a task named `name`; `false`, with the table unchanged,
    /// when the names would pass `u32::MAX` bytes in total.
    #[must_use]
    pub fn try_push(&mut self, name: &str, task: Task) -> bool {
        let Some(end) = u32::try_from(self.text.len())
            .ok()
            .and_then(|len| len.checked_add(u32::try_from(name.len()).ok()?))
        else {
            return false;
        };
        self.text.push_str(name);
        self.ends.push(end);
        self.tasks.push(task);
        self.totals.take();
        true
    }

    /// Appends a task named `name`.
    ///
    /// # Panics
    ///
    /// Panics when the names would pass `u32::MAX` bytes in total; decoders
    /// of untrusted input use [`try_push`](TaskTable::try_push).
    pub fn push(&mut self, name: &str, task: Task) {
        assert!(
            self.try_push(name, task),
            "task names exceed u32::MAX bytes"
        );
    }

    /// Number of tasks.
    #[inline]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` iff the table has no tasks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The task column.
    #[inline]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The task column, mutably; names stay as they are.
    #[inline]
    pub fn tasks_mut(&mut self) -> &mut [Task] {
        self.totals.take();
        &mut self.tasks
    }

    /// The largest memory requirement of a task (`MemSize::ZERO` for an
    /// empty table): the minimum capacity `mc` of any instance over it.
    pub fn max_mem(&self) -> MemSize {
        self.totals().max_mem
    }

    /// `Σ (comm + comp)` over the tasks, or `None` when the sum overflows
    /// the `u64` tick range.
    pub fn total_time(&self) -> Option<Time> {
        self.totals().time
    }

    fn totals(&self) -> Totals {
        *self.totals.get_or_init(|| {
            let mut max_mem = MemSize::ZERO;
            let mut time = Some(Time::ZERO);
            for task in &self.tasks {
                max_mem = max_mem.max(task.mem);
                time =
                    time.and_then(|t| t.checked_add(task.comm_time)?.checked_add(task.comp_time));
            }
            Totals { max_mem, time }
        })
    }

    /// The name of task `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn name(&self, i: usize) -> &str {
        let start = match i {
            0 => 0,
            _ => self.ends[i - 1] as usize,
        };
        &self.text[start..self.ends[i] as usize]
    }

    /// `(name, task)` pairs in index order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&str, &Task)> + '_ {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, task)| (self.name(i), task))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intensity_classification() {
        let compute = Task::from_units(1.0, 3.0, 1);
        let comm = Task::from_units(3.0, 2.0, 3);
        let balanced = Task::from_units(4.0, 4.0, 4);
        assert_eq!(compute.intensity(), TaskIntensity::ComputeIntensive);
        assert_eq!(comm.intensity(), TaskIntensity::CommunicationIntensive);
        // Equality counts as compute intensive (CP >= CM).
        assert_eq!(balanced.intensity(), TaskIntensity::ComputeIntensive);
    }

    #[test]
    fn acceleration_ratio_and_total() {
        let t = Task::from_units(2.0, 1.0, 2);
        assert!((t.acceleration_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(t.total_time(), Time::units_int(3));
        let zero_comm = Task::from_units(0.0, 3.0, 0);
        assert_eq!(zero_comm.acceleration_ratio(), f64::INFINITY);
    }

    #[test]
    fn task_is_a_24_byte_record() {
        assert_eq!(std::mem::size_of::<Task>(), 24);
    }

    #[test]
    fn table_names_are_slices_of_one_arena() {
        let mut table = TaskTable::with_capacity(3);
        table.push("A", Task::from_units(3.0, 2.0, 3));
        table.push("", Task::from_units(1.0, 3.0, 1));
        table.push("caf\u{e9}", Task::from_units(4.0, 4.0, 4));
        assert_eq!(table.len(), 3);
        assert_eq!(
            table.iter().map(|(name, _)| name).collect::<Vec<_>>(),
            ["A", "", "caf\u{e9}"]
        );
        assert_eq!(table.name(2), "caf\u{e9}");
        assert_eq!(table.tasks()[1], Task::from_units(1.0, 3.0, 1));
        table.tasks_mut()[1].comp_time = Time::ZERO;
        assert_eq!(table.tasks()[1].comp_time, Time::ZERO);
        assert_eq!(table.name(1), "");
        // Equal tables have equal names in equal order.
        let mut other = TaskTable::new();
        other.push("", Task::from_units(3.0, 2.0, 3));
        other.push("A", Task::from_units(1.0, 3.0, 1));
        assert_ne!(other.name(0), table.name(0));
        assert!(TaskTable::new().is_empty());
    }

    #[test]
    fn totals_follow_every_change() {
        let mut table = TaskTable::new();
        assert_eq!(table.max_mem(), MemSize::ZERO);
        assert_eq!(table.total_time(), Some(Time::ZERO));
        table.push("a", Task::from_units(3.0, 2.0, 3));
        table.push("b", Task::from_units(1.0, 3.0, 1));
        assert_eq!(table.max_mem(), MemSize::from_bytes(3));
        assert_eq!(table.total_time(), Some(Time::units_int(9)));
        // A push and a mutable borrow both drop the cached totals.
        table.push("c", Task::from_units(4.0, 4.0, 4));
        assert_eq!(table.max_mem(), MemSize::from_bytes(4));
        table.tasks_mut()[2].comp_time = Time(u64::MAX);
        assert_eq!(table.total_time(), None);
        // The cache plays no part in equality.
        let copy = table.clone();
        table.tasks_mut();
        assert_eq!(copy, table);
    }

    #[test]
    fn task_id_display() {
        assert_eq!(TaskId(4).to_string(), "T4");
        assert_eq!(TaskId(4).index(), 4);
    }
}
