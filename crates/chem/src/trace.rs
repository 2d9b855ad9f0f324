//! Trace model and (de)serialization.
//!
//! A *trace* is the per-process list of independent tasks the runtime
//! scheduler sees: for every task, the time of its input-data transfer, the
//! time of its computation and the memory its input data occupies. This is
//! exactly the information the paper extracts from its NWChem runs.

use dts_core::hash::StableHasher;
use dts_core::prelude::*;
use serde::{Deserialize, Error as SerdeError, Serialize, Sink, Value};
use serde_json::{Container, Reader};
use std::borrow::Cow;
use std::fs::File;
use std::io::{Read, Seek, Write};
use std::path::Path;
use std::sync::Arc;

/// Kind of tensor work a trace task performs (informational; the scheduling
/// heuristics only look at times and memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Deserialize)]
pub enum TaskKind {
    /// Tensor contraction (block matrix multiplication).
    Contraction,
    /// Tensor transpose (index permutation).
    Transpose,
    /// Contraction preceded by one or more transposes of its operands.
    FusedTransposeContraction,
}

/// One task of a trace: a row read from, or pushed into, the trace's
/// columns, with the name borrowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceTask<'a> {
    /// Task label (kernel and tile indices).
    pub name: &'a str,
    /// What the task computes.
    pub kind: TaskKind,
    /// Input-data transfer time in microseconds.
    pub comm_micros: u64,
    /// Computation time in microseconds.
    pub comp_micros: u64,
    /// Memory occupied by the input data, in bytes.
    pub mem_bytes: u64,
}

/// The task's JSON object, keys in file order: `name`, `kind`,
/// `comm_micros`, `comp_micros`, `mem_bytes`. Both trace formats, bare and
/// versioned, write their tasks with it.
impl Serialize for TraceTask<'_> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.begin_object(5);
        sink.field("name", self.name);
        sink.field("kind", self.kind.name());
        sink.field("comm_micros", &self.comm_micros);
        sink.field("comp_micros", &self.comp_micros);
        sink.field("mem_bytes", &self.mem_bytes);
        sink.end_object();
    }
}

impl TraceTask<'_> {
    /// The scheduling record: one tick per microsecond, memory in bytes.
    fn task(&self) -> Task {
        Task::new(
            Time::from_micros(self.comm_micros),
            Time::from_micros(self.comp_micros),
            MemSize::from_bytes(self.mem_bytes),
        )
    }
}

/// A per-process trace.
///
/// The tasks are stored as columns: the [`TaskTable`] (24-byte [`Task`]
/// records and one name arena) plus a [`TaskKind`] column. The table sits
/// behind an `Arc` that every [`Instance`] built from the trace shares, so
/// [`Trace::to_instance`] converts no task and copies no buffer; changing
/// the trace afterwards (pushing or editing tasks) copies the table first
/// if an instance still holds it, and the instance keeps what it saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Kernel that produced the trace (`"HF"` or `"CCSD"`).
    pub kernel: String,
    /// Process rank (0..149 in the paper's setup).
    pub rank: usize,
    /// The independent tasks seen by this process, with their names;
    /// shared with the instances built from the trace.
    table: Arc<TaskTable>,
    /// Each task's kind, indexed like `table`.
    kinds: Vec<TaskKind>,
    /// Execution model the trace targets (stamped by `dts generate
    /// --model`); absent means the paper's explicit half-duplex link.
    /// Threaded into every instance built from the trace.
    pub model: Option<ExecutionModel>,
    /// Cost model to materialize task durations under (stamped by `dts run
    /// --cost-model` before conversion); absent means the analytic default —
    /// the trace's recorded durations verbatim. Applied by
    /// [`Trace::to_instance`].
    pub cost_model: Option<CostModelSpec>,
}

// Hand-written (de)serialization so the `model` key is omitted when absent
// and optional when read: trace files written before the execution-model
// layer existed keep loading unchanged.
impl Serialize for Trace {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        let optional = usize::from(self.model.is_some()) + usize::from(self.cost_model.is_some());
        sink.begin_object(3 + optional);
        sink.field("kernel", &self.kernel);
        sink.field("rank", &self.rank);
        sink.key("tasks");
        self.serialize_tasks(sink);
        if let Some(model) = &self.model {
            sink.field("model", model);
        }
        if let Some(cost_model) = &self.cost_model {
            sink.field("cost_model", cost_model);
        }
        sink.end_object();
    }
}

impl Deserialize for Trace {
    fn from_value(value: &Value) -> std::result::Result<Self, SerdeError> {
        let model = match value.field("model") {
            Ok(v) => Option::<ExecutionModel>::from_value(v)?,
            Err(_) => None,
        };
        let cost_model = match value.field("cost_model") {
            Ok(v) => Option::<CostModelSpec>::from_value(v)?.filter(|m| !m.is_analytic()),
            Err(_) => None,
        };
        let kernel = String::from_value(value.field("kernel")?)?;
        let rank = usize::from_value(value.field("rank")?)?;
        let Value::Array(items) = value.field("tasks")? else {
            return SerdeError::unexpected("array", value.field("tasks")?);
        };
        let mut trace = Trace::with_capacity(kernel, rank, items.len());
        // A task's fields are read, and their errors reported, in key
        // order.
        for item in items {
            let name = match item.field("name")? {
                Value::Str(name) => name,
                other => return SerdeError::unexpected("string", other),
            };
            let task = TraceTask {
                name,
                kind: Deserialize::from_value(item.field("kind")?)?,
                comm_micros: Deserialize::from_value(item.field("comm_micros")?)?,
                comp_micros: Deserialize::from_value(item.field("comp_micros")?)?,
                mem_bytes: Deserialize::from_value(item.field("mem_bytes")?)?,
            };
            if !trace.try_push(task) {
                return Err(names_overflow());
            }
        }
        trace.model = model;
        trace.cost_model = cost_model;
        Ok(trace)
    }
}

impl<'a> Extend<TraceTask<'a>> for Trace {
    fn extend<I: IntoIterator<Item = TraceTask<'a>>>(&mut self, tasks: I) {
        for task in tasks {
            self.push(task);
        }
    }
}

impl Trace {
    /// An empty trace of `kernel` on `rank`, with no model stamped.
    pub fn new(kernel: impl Into<String>, rank: usize) -> Self {
        Self::with_capacity(kernel, rank, 0)
    }

    /// [`Trace::new`] with room for `n_tasks` tasks.
    pub fn with_capacity(kernel: impl Into<String>, rank: usize, n_tasks: usize) -> Self {
        Trace {
            kernel: kernel.into(),
            rank,
            table: Arc::new(TaskTable::with_capacity(n_tasks)),
            kinds: Vec::with_capacity(n_tasks),
            model: None,
            cost_model: None,
        }
    }

    /// Appends a task.
    ///
    /// # Panics
    ///
    /// Panics when the names would pass `u32::MAX` bytes in total (see
    /// [`TaskTable::push`]).
    pub fn push(&mut self, task: TraceTask<'_>) {
        assert!(self.try_push(task), "task names exceed u32::MAX bytes");
    }

    /// Appends a task; `false`, with the trace unchanged, when the names
    /// would pass `u32::MAX` bytes in total. For decoders of untrusted
    /// input.
    #[must_use]
    pub fn try_push(&mut self, task: TraceTask<'_>) -> bool {
        let pushed = Arc::make_mut(&mut self.table).try_push(task.name, task.task());
        if pushed {
            self.kinds.push(task.kind);
        }
        pushed
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` iff the trace has no tasks.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Task `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn task(&self, i: usize) -> TraceTask<'_> {
        let task = &self.table.tasks()[i];
        TraceTask {
            name: self.table.name(i),
            kind: self.kinds[i],
            comm_micros: task.comm_time.ticks(),
            comp_micros: task.comp_time.ticks(),
            mem_bytes: task.mem.bytes(),
        }
    }

    /// The tasks in trace order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = TraceTask<'_>> + Clone + '_ {
        (0..self.len()).map(|i| self.task(i))
    }

    /// Writes the tasks as the `tasks` array of both trace formats, bare
    /// and versioned: one [`TraceTask`] object each, in trace order.
    pub fn serialize_tasks<S: Sink>(&self, sink: &mut S) {
        sink.begin_array(self.len());
        for task in self.iter() {
            task.serialize(sink);
        }
        sink.end_array();
    }

    /// The scheduling records, one tick per microsecond.
    pub fn tasks(&self) -> &[Task] {
        self.table.tasks()
    }

    /// The scheduling records, mutably; names and kinds stay as they are.
    pub fn tasks_mut(&mut self) -> &mut [Task] {
        Arc::make_mut(&mut self.table).tasks_mut()
    }

    /// Minimum memory capacity `mc` needed to execute every task (the
    /// largest single-task memory requirement), cached by the table.
    pub fn min_capacity(&self) -> MemSize {
        self.table.max_mem()
    }

    /// Checks that the total communication-plus-computation time of the
    /// trace fits in the `u64` tick arithmetic of the simulators. Every
    /// schedule time is bounded by the fully sequential sum of all task
    /// durations (no model stretches a task beyond `comm + comp`), so a
    /// finite total guarantees overflow-free simulation; an overflowing
    /// total would otherwise surface as a debug-build panic deep inside an
    /// executor instead of a typed error at the trust boundary. O(1) once
    /// the table's totals are cached; only a failing check scans for the
    /// task it names.
    pub fn check_time_totals(&self) -> Result<()> {
        if self.table.total_time().is_some() {
            return Ok(());
        }
        let mut total = Time::ZERO;
        for (i, task) in self.tasks().iter().enumerate() {
            total = task
                .comm_time
                .checked_add(task.comp_time)
                .and_then(|t| total.checked_add(t))
                .ok_or_else(|| {
                    CoreError::InvalidTrace(format!(
                        "total task time overflows u64 microseconds at task `{}`",
                        self.table.name(i)
                    ))
                })?;
        }
        Ok(())
    }

    /// Converts the trace into a scheduling [`Instance`] with the given
    /// memory capacity. The instance shares the trace's task table, names
    /// included, so the conversion is O(1) once the table's totals are
    /// cached: a sweep converts one trace at every capacity without a copy.
    /// A model carried by the trace is attached to the instance, so every
    /// executor and heuristic honors it; a cost model carried by the trace
    /// is materialized into the task durations here — once per instance,
    /// never per scheduling decision — in the instance's own copy of the
    /// table.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidTrace`] when the summed task times
    /// overflow `u64` (see [`Trace::check_time_totals`]) — such a trace
    /// cannot be simulated without wrapping the clock — and
    /// [`CoreError::InvalidCostModel`] when a stamped cost model is
    /// malformed or its predictions overflow the clock.
    pub fn to_instance(&self, capacity: MemSize) -> Result<Instance> {
        self.check_time_totals()?;
        let instance = Instance::with_label(
            Arc::clone(&self.table),
            capacity,
            format!("{}-rank{}", self.kernel, self.rank),
        )?;
        let instance = match self.model {
            Some(model) => instance.with_model(model)?,
            None => instance,
        };
        match &self.cost_model {
            Some(spec) => instance.with_cost_model(spec),
            None => Ok(instance),
        }
    }

    /// [`Trace::to_instance`] at capacity `factor · mc` (the sweep axis of
    /// Figs. 9–13).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidCapacityFactor`] when `factor` is NaN,
    /// infinite or negative — [`MemSize::scale`] asserts on such factors,
    /// and a user-supplied factor (e.g. from the `dts run` command line)
    /// must surface as an error, not a panic — and otherwise the errors of
    /// [`Trace::to_instance`].
    pub fn to_instance_scaled(&self, factor: f64) -> Result<Instance> {
        self.to_instance(self.scaled_capacity(factor)?)
    }

    /// `factor · mc`, for a finite, non-negative `factor`.
    fn scaled_capacity(&self, factor: f64) -> Result<MemSize> {
        if !factor.is_finite() || factor < 0.0 {
            return Err(CoreError::InvalidCapacityFactor(factor.to_string()));
        }
        Ok(self.min_capacity().scale(factor))
    }

    /// Serializes the trace to JSON.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string_pretty(self).map_err(|e| CoreError::Serialization(e.to_string()))
    }

    /// Deserializes a trace from JSON.
    ///
    /// Decodes straight from the bytes with [`serde_json::Reader`] into
    /// the trace's columns, without building a `Value` tree or a `String`
    /// per task (a name with escape sequences is unescaped through one
    /// temporary), and accepts and rejects exactly the documents the
    /// [`Deserialize`] impl does, with equal results: the first of
    /// duplicate keys wins, unknown keys are skipped (their syntax still
    /// checked), integers follow `u64`'s rules and only the small
    /// `model`/`cost_model` subtrees are read as `Value`s.
    pub fn from_json(json: &str) -> Result<Self> {
        decode_trace(json).map_err(|e| CoreError::Serialization(e.to_string()))
    }

    /// Feeds the trace's content into `h`, field by field: kernel, rank
    /// and task count, then each task's name, kind name, transfer time,
    /// compute time and memory, then the model and cost model (`-` when
    /// absent). Strings are length-prefixed and integers fixed-width, so
    /// two traces feed the same bytes exactly when they are equal; this is
    /// the inline-trace part of the daemon's cache key, and costs no
    /// rendering of the tasks.
    pub fn hash_into(&self, h: &mut StableHasher) {
        // Exhaustive destructuring: a new field fails to compile here
        // until it is hashed.
        let Trace {
            kernel,
            rank,
            table: _,
            kinds: _,
            model,
            cost_model,
        } = self;
        h.write_str(kernel);
        h.write_u64(*rank as u64);
        h.write_u64(self.len() as u64);
        for task in self.iter() {
            let TraceTask {
                name,
                kind,
                comm_micros,
                comp_micros,
                mem_bytes,
            } = task;
            h.write_str(name);
            h.write_str(kind.name());
            h.write_u64(comm_micros);
            h.write_u64(comp_micros);
            h.write_u64(mem_bytes);
        }
        match model {
            Some(model) => h.write_str(&model.to_string()),
            None => h.write_str("-"),
        }
        match cost_model {
            // Cost-model specs hold integers and strings only, which
            // always render.
            Some(spec) => h.write_str(&serde_json::to_string(spec).unwrap_or_default()),
            None => h.write_str("-"),
        }
    }

    /// Writes the trace as JSON to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        let cannot_write = |e: std::io::Error| {
            CoreError::Serialization(format!("cannot write {}: {e}", path.display()))
        };
        let mut file = File::create(path).map_err(cannot_write)?;
        file.write_all(self.to_json()?.as_bytes())
            .map_err(cannot_write)
    }

    /// Reads a trace from a JSON file.
    ///
    /// A regular file is decoded through a 256 KiB window, so
    /// the whole text is never held at once; anything else (a pipe, a
    /// device) is read whole. When the windowed decode fails anywhere —
    /// a malformed or truncated document, invalid UTF-8, an IO error —
    /// the file is read again whole and decoded by
    /// [`Trace::from_json`], so a refusal is worded exactly as that
    /// decoder words it.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let io = |e: std::io::Error| CoreError::Serialization(e.to_string());
        let mut file = File::open(path).map_err(io)?;
        if file.metadata().is_ok_and(|m| m.is_file()) {
            if let Some(trace) = decode_file(&mut file) {
                return Ok(trace);
            }
            file.rewind().map_err(io)?;
        }
        let mut contents = String::new();
        file.read_to_string(&mut contents).map_err(io)?;
        Self::from_json(&contents)
    }
}

impl TaskKind {
    /// Every kind, in declaration order.
    pub const ALL: [TaskKind; 3] = [
        TaskKind::Contraction,
        TaskKind::Transpose,
        TaskKind::FusedTransposeContraction,
    ];

    /// The kind's JSON name: the variant name, which the derived
    /// `Deserialize` accepts.
    pub fn name(self) -> &'static str {
        match self {
            TaskKind::Contraction => "Contraction",
            TaskKind::Transpose => "Transpose",
            TaskKind::FusedTransposeContraction => "FusedTransposeContraction",
        }
    }

    /// The variant a JSON string names. The known names are matched here
    /// without building a `Value`; any other string, and with it the error
    /// text, is left to the derived `Deserialize`, so the two cannot
    /// disagree on which names are accepted.
    fn from_name(name: Cow<'_, str>) -> std::result::Result<Self, SerdeError> {
        match TaskKind::ALL.into_iter().find(|kind| kind.name() == name) {
            Some(kind) => Ok(kind),
            None => TaskKind::from_owned(Value::Str(name.into_owned())),
        }
    }
}

fn missing(field: &str) -> SerdeError {
    SerdeError::custom(format!("missing field `{field}`"))
}

fn names_overflow() -> SerdeError {
    SerdeError::custom("task names exceed u32::MAX bytes")
}

/// The top-level members of a trace document read so far. Each keeps its
/// first occurrence; later duplicates are skipped like unknown keys.
#[derive(Default)]
struct Members {
    kernel: Option<String>,
    rank: Option<usize>,
    tasks: Option<Trace>,
    model: Option<Option<ExecutionModel>>,
    cost_model: Option<Option<CostModelSpec>>,
}

/// One member's decoded value, not yet stored: a decoder that may have to
/// read a member again stores it only once the member is complete.
enum Member {
    Kernel(String),
    Rank(usize),
    Model(Option<ExecutionModel>),
    CostModel(Option<CostModelSpec>),
    Skipped,
}

impl Members {
    /// Whether `key` is the member whose value the caller decodes as the
    /// task array: the first `tasks`.
    fn is_tasks(&self, key: &str) -> bool {
        key == "tasks" && self.tasks.is_none()
    }

    /// Reads the value of member `key`, which is not the first `tasks`.
    fn read(&self, r: &mut Reader<'_>, key: &str) -> serde_json::Result<Member> {
        Ok(match key {
            "kernel" if self.kernel.is_none() => Member::Kernel(r.string()?.into_owned()),
            "rank" if self.rank.is_none() => {
                Member::Rank(usize::try_from(r.u64()?).map_err(SerdeError::custom)?)
            }
            "model" if self.model.is_none() => {
                Member::Model(Option::<ExecutionModel>::from_owned(r.value()?)?)
            }
            "cost_model" if self.cost_model.is_none() => {
                Member::CostModel(Option::<CostModelSpec>::from_owned(r.value()?)?)
            }
            _ => {
                r.skip()?;
                Member::Skipped
            }
        })
    }

    fn store(&mut self, member: Member) {
        match member {
            Member::Kernel(kernel) => self.kernel = Some(kernel),
            Member::Rank(rank) => self.rank = Some(rank),
            Member::Model(model) => self.model = Some(model),
            Member::CostModel(cost_model) => self.cost_model = Some(cost_model),
            Member::Skipped => {}
        }
    }

    /// The trace, once the document is read.
    fn into_trace(self) -> serde_json::Result<Trace> {
        let kernel = self.kernel.ok_or_else(|| missing("kernel"))?;
        let rank = self.rank.ok_or_else(|| missing("rank"))?;
        let mut trace = self.tasks.ok_or_else(|| missing("tasks"))?;
        trace.kernel = kernel;
        trace.rank = rank;
        trace.model = self.model.flatten();
        trace.cost_model = self.cost_model.flatten().filter(|m| !m.is_analytic());
        Ok(trace)
    }
}

/// [`Trace::from_json`]'s decoder: every unit of the document read from
/// one string.
fn decode_trace(json: &str) -> serde_json::Result<Trace> {
    let mut r = Reader::new(json);
    let mut members = Members::default();
    decode_units(&mut r, &mut Next::Open, &mut members, &mut 0)?;
    r.finish()?;
    members.into_trace()
}

fn decode_task(r: &mut Reader<'_>, trace: &mut Trace) -> serde_json::Result<()> {
    let (mut name, mut kind, mut comm, mut comp, mut mem) = (None, None, None, None, None);
    r.object(|r, key| {
        match &*key {
            "name" if name.is_none() => name = Some(r.string()?),
            "kind" if kind.is_none() => kind = Some(TaskKind::from_name(r.string()?)?),
            "comm_micros" if comm.is_none() => comm = Some(r.u64()?),
            "comp_micros" if comp.is_none() => comp = Some(r.u64()?),
            "mem_bytes" if mem.is_none() => mem = Some(r.u64()?),
            _ => r.skip()?,
        }
        Ok(())
    })?;
    let task = TraceTask {
        name: &name.ok_or_else(|| missing("name"))?,
        kind: kind.ok_or_else(|| missing("kind"))?,
        comm_micros: comm.ok_or_else(|| missing("comm_micros"))?,
        comp_micros: comp.ok_or_else(|| missing("comp_micros"))?,
        mem_bytes: mem.ok_or_else(|| missing("mem_bytes"))?,
    };
    if !trace.try_push(task) {
        return Err(names_overflow().into());
    }
    Ok(())
}

/// The bytes of a trace file [`Trace::load`] holds at a time. The window
/// grows (doubling) only while one unit of the document (see [`Next`])
/// does not fit in it.
const WINDOW: usize = 256 * 1024;

/// A unit that fails less than this many bytes before the window's end may
/// have been cut by it. A cut token fails at the end of its input, except
/// a keyword (`false` at most) and a `\u` escape's four hex digits, which
/// fail from their first byte.
const CUT_SLACK: usize = "false".len();

/// The unit [`decode_units`] reads next. Each unit ends on a structural
/// byte it consumes (`{`, `[`, `}`, `]` or `,`), so a unit the window cuts
/// short fails instead of reading short: a number or keyword at the
/// window's end leaves the separator after it unread, and an
/// empty-container check that finds no byte reads as nonempty, which the
/// next unit then fails on. A unit stores what it decoded only once it is
/// complete.
#[derive(Clone, Copy)]
enum Next {
    /// The document's opening `{`.
    Open,
    /// A top-level member with the `,` or `}` after it; for the first
    /// `tasks`, its key and the array's opening `[`.
    Member,
    /// A task object.
    Task,
    /// The `,` or `]` after a task.
    TaskEnd,
    /// The `,` or `}` after the task array.
    TasksEnd,
    /// Whitespace to the end of the file.
    Trailing,
}

/// Decodes units from `r` until the document's closing `}` (`Ok`) or a
/// unit that fails (`Err`: malformed, or cut by the end of `r`'s input),
/// with `done` at the end of the last complete unit and `next` naming the
/// unit after it.
fn decode_units(
    r: &mut Reader<'_>,
    next: &mut Next,
    members: &mut Members,
    done: &mut usize,
) -> serde_json::Result<()> {
    loop {
        *next = match *next {
            Next::Open => {
                if r.open_container(Container::Object)? {
                    Next::Trailing
                } else {
                    Next::Member
                }
            }
            Next::Member => {
                let key = r.member_key()?;
                if members.is_tasks(&key) {
                    let empty = r.open_container(Container::Array)?;
                    members.tasks = Some(Trace::new(String::new(), 0));
                    if empty {
                        Next::TasksEnd
                    } else {
                        Next::Task
                    }
                } else {
                    let member = members.read(r, &key)?;
                    let last = r.item_separator(Container::Object)?;
                    members.store(member);
                    if last {
                        Next::Trailing
                    } else {
                        Next::Member
                    }
                }
            }
            Next::Task => {
                if let Some(trace) = &mut members.tasks {
                    decode_task(r, trace)?;
                }
                Next::TaskEnd
            }
            Next::TaskEnd => {
                if r.item_separator(Container::Array)? {
                    Next::TasksEnd
                } else {
                    Next::Task
                }
            }
            Next::TasksEnd => {
                if r.item_separator(Container::Object)? {
                    Next::Trailing
                } else {
                    Next::Member
                }
            }
            Next::Trailing => return Ok(()),
        };
        *done = r.position();
    }
}

/// The part of a file [`decode_file`] holds: `buf[..len]` was read and
/// not yet consumed.
struct Window {
    buf: Vec<u8>,
    len: usize,
    eof: bool,
}

impl Window {
    /// Drops the first `done` bytes and reads on until the window is full
    /// or the file ends.
    fn fill(&mut self, file: &mut impl Read, done: usize) -> std::io::Result<()> {
        self.buf.copy_within(done..self.len, 0);
        self.len -= done;
        while !self.eof && self.len < self.buf.len() {
            match file.read(&mut self.buf[self.len..]) {
                Ok(0) => self.eof = true,
                Ok(n) => self.len += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// The window's text; a character cut by the window's end stays
    /// unread for the next fill. `None` on invalid UTF-8.
    fn text(&self) -> Option<&str> {
        let bytes = &self.buf[..self.len];
        match std::str::from_utf8(bytes) {
            Ok(text) => Some(text),
            Err(e) if e.error_len().is_none() && !self.eof => {
                std::str::from_utf8(&bytes[..e.valid_up_to()]).ok()
            }
            Err(_) => None,
        }
    }
}

/// [`Trace::load`]'s decoder for a regular file: the document read
/// through a window of [`WINDOW`] bytes by [`decode_units`], the driver
/// [`Trace::from_json`] runs. A unit that fails within [`CUT_SLACK`] bytes
/// of the window's end, before the end of the file, is decoded again after
/// a refill, in a doubled window if it already started the window. `None`
/// as soon as a unit fails anywhere else, and when the file cannot be
/// read as UTF-8.
fn decode_file(file: &mut impl Read) -> Option<Trace> {
    let mut window = Window {
        buf: vec![0; WINDOW],
        len: 0,
        eof: false,
    };
    let (mut next, mut members, mut done) = (Next::Open, Members::default(), 0);
    loop {
        window.fill(file, done).ok()?;
        let text = window.text()?;
        done = 0;
        let mut r = Reader::new(text);
        if decode_units(&mut r, &mut next, &mut members, &mut done).is_ok() {
            Reader::new(text.get(done..)?).finish().ok()?;
            if window.eof {
                return members.into_trace().ok();
            }
            done = text.len();
        } else if window.eof || text.len().saturating_sub(r.position()) >= CUT_SLACK {
            return None;
        } else if done == 0 {
            let size = window.buf.len().checked_mul(2)?;
            window.buf.resize(size, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut trace = Trace::new("HF", 3);
        trace.extend([
            TraceTask {
                name: "fock(0,1)",
                kind: TaskKind::FusedTransposeContraction,
                comm_micros: 110,
                comp_micros: 30,
                mem_bytes: 160_000,
            },
            TraceTask {
                name: "fock(0,2)",
                kind: TaskKind::Contraction,
                comm_micros: 95,
                comp_micros: 25,
                mem_bytes: 176_128,
            },
        ]);
        trace
    }

    #[test]
    fn rows_read_back_as_pushed() {
        let trace = sample();
        assert_eq!(trace.task(1).name, "fock(0,2)");
        assert_eq!(trace.task(1).kind, TaskKind::Contraction);
        assert_eq!(trace.iter().len(), 2);
        assert_eq!(
            trace.tasks()[0],
            Task::new(
                Time::from_micros(110),
                Time::from_micros(30),
                MemSize::from_bytes(160_000)
            )
        );
        let mut rebuilt = Trace::new("HF", 3);
        rebuilt.extend(trace.iter());
        assert_eq!(rebuilt, trace);
    }

    #[test]
    fn json_bytes_are_pinned() {
        // The file format keeps one object per task, keys in this order,
        // whatever the in-memory layout.
        let mut trace = Trace::new("HF", 3);
        trace.extend([
            TraceTask {
                name: "fock(0,1)",
                kind: TaskKind::FusedTransposeContraction,
                comm_micros: 110,
                comp_micros: 30,
                mem_bytes: 160_000,
            },
            TraceTask {
                name: "t\"2\"",
                kind: TaskKind::Transpose,
                comm_micros: 0,
                comp_micros: u64::MAX,
                mem_bytes: 1,
            },
        ]);
        let want = r#"{
  "kernel": "HF",
  "rank": 3,
  "tasks": [
    {
      "name": "fock(0,1)",
      "kind": "FusedTransposeContraction",
      "comm_micros": 110,
      "comp_micros": 30,
      "mem_bytes": 160000
    },
    {
      "name": "t\"2\"",
      "kind": "Transpose",
      "comm_micros": 0,
      "comp_micros": 18446744073709551615,
      "mem_bytes": 1
    }
  ]
}"#;
        assert_eq!(trace.to_json().unwrap(), want);
        assert_eq!(Trace::from_json(want).unwrap(), trace);
    }

    #[test]
    fn min_capacity_is_largest_task() {
        assert_eq!(sample().min_capacity(), MemSize::from_bytes(176_128));
        assert_eq!(sample().len(), 2);
        assert!(!sample().is_empty());
    }

    #[test]
    fn conversion_to_instance_preserves_times() {
        let trace = sample();
        let inst = trace.to_instance(MemSize::from_bytes(400_000)).unwrap();
        assert_eq!(inst.len(), 2);
        assert_eq!(inst.task(TaskId(0)).comm_time, Time::from_micros(110));
        assert_eq!(inst.task(TaskId(1)).comp_time, Time::from_micros(25));
        assert_eq!(inst.task(TaskId(1)).mem, MemSize::from_bytes(176_128));
        assert_eq!(inst.label, "HF-rank3");
    }

    #[test]
    fn scaled_instance_uses_mc_multiples() {
        let trace = sample();
        let inst = trace.to_instance_scaled(1.5).unwrap();
        assert_eq!(inst.capacity(), MemSize::from_bytes(264_192));
        // Factor 1.0 is exactly feasible.
        assert!(trace.to_instance_scaled(1.0).is_ok());
    }

    #[test]
    fn conversion_shares_the_trace_table() {
        let mut trace = sample();
        trace.model = Some(ExecutionModel::Duplex);
        let instances: Vec<Instance> = [1.0, 1.5, 2.0]
            .into_iter()
            .map(|factor| trace.to_instance_scaled(factor).unwrap())
            .collect();
        for instance in &instances {
            assert!(std::ptr::eq(instance.tasks(), trace.tasks()));
            assert_eq!(instance.model(), ExecutionModel::Duplex);
        }
        // Editing the trace afterwards copies the table first: the
        // instances keep the tasks they were built from.
        let before = instances[0].clone();
        trace.tasks_mut()[0].comm_time = Time::from_micros(u64::MAX);
        assert!(!std::ptr::eq(instances[0].tasks(), trace.tasks()));
        assert_eq!(instances[0], before);
        assert_eq!(
            instances[0].task(TaskId(0)).comm_time,
            Time::from_micros(110)
        );
        // The factor is checked before the time totals, then the totals.
        assert!(matches!(
            trace.to_instance_scaled(f64::NAN),
            Err(CoreError::InvalidCapacityFactor(_))
        ));
        assert!(matches!(
            trace.to_instance_scaled(1.0),
            Err(CoreError::InvalidTrace(_))
        ));
        // A stamped cost model rewrites the instance's own copy of the
        // table, never the trace's.
        let mut modeled = sample();
        modeled.cost_model = Some(CostModelSpec::Regression {
            transfer: dts_core::perfmodel::LinearFit {
                alpha_us: 10,
                beta_ps_per_byte: dts_core::perfmodel::PS_PER_MICRO / 1000,
                samples: 2,
            },
            compute: dts_core::perfmodel::LinearFit {
                alpha_us: 40,
                beta_ps_per_byte: 0,
                samples: 2,
            },
        });
        let instance = modeled.to_instance_scaled(1.5).unwrap();
        assert_eq!(instance.task(TaskId(0)).comm_time, Time::from_micros(170));
        assert_eq!(modeled.tasks()[0].comm_time, Time::from_micros(110));
    }

    #[test]
    fn malformed_scale_factors_error_instead_of_panicking() {
        // Regression: these used to trip the `MemSize::scale` assert.
        let trace = sample();
        for factor in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = trace.to_instance_scaled(factor).unwrap_err();
            match err {
                CoreError::InvalidCapacityFactor(text) => {
                    assert_eq!(text, factor.to_string());
                }
                other => panic!("expected InvalidCapacityFactor, got {other:?}"),
            }
        }
        // Zero is degenerate but well-defined: capacity 0, so the largest
        // task no longer fits and instance construction reports it.
        assert!(matches!(
            trace.to_instance_scaled(0.0),
            Err(CoreError::TaskExceedsCapacity { .. })
        ));
    }

    #[test]
    fn overflowing_time_totals_error_instead_of_wrapping() {
        // Each task is fine on its own; the *sum* of their durations
        // overflows u64, which used to wrap (release) or panic (debug)
        // inside the executors instead of erroring at conversion time.
        let mut trace = sample();
        for task in trace.tasks_mut() {
            task.comm_time = Time::from_micros(u64::MAX / 2);
            task.comp_time = Time::from_micros(u64::MAX / 2 - 1);
        }
        assert!(trace.check_time_totals().is_err());
        assert!(matches!(
            trace.to_instance_scaled(1.5),
            Err(CoreError::InvalidTrace(_))
        ));
        // A single task saturating the clock is still representable.
        let mut single = Trace::new("HF", 3);
        single.push(trace.task(0));
        assert!(single.check_time_totals().is_ok());
    }

    #[test]
    fn json_round_trip() {
        let trace = sample();
        let json = trace.to_json().unwrap();
        let back = Trace::from_json(&json).unwrap();
        assert_eq!(trace, back);
        assert!(Trace::from_json("not json").is_err());
    }

    #[test]
    fn kind_names_decode_as_the_derive_decodes_them() {
        let names = ["Contraction", "Transpose", "FusedTransposeContraction"];
        for name in names.into_iter().chain(["contraction", "", "Other"]) {
            let derived = TaskKind::from_value(&Value::Str(name.into()));
            assert_eq!(TaskKind::from_name(name.into()), derived, "{name}");
            assert_eq!(derived.is_ok(), names.contains(&name), "{name}");
        }
    }

    #[test]
    fn kind_names_are_the_serialized_names() {
        for kind in TaskKind::ALL {
            assert_eq!(TaskKind::from_name(kind.name().into()), Ok(kind));
        }
    }

    #[test]
    fn model_is_optional_in_json_and_threads_into_instances() {
        // Model-less traces serialize without a `model` key, so trace files
        // from before the execution-model layer keep loading unchanged...
        let mut trace = sample();
        let json = trace.to_json().unwrap();
        assert!(!json.contains("model"));
        assert_eq!(Trace::from_json(&json).unwrap().model, None);
        let inst = trace.to_instance_scaled(1.5).unwrap();
        assert_eq!(inst.model(), ExecutionModel::Explicit);

        // ...while a stamped model round-trips and lands on the instance.
        trace.model = Some(ExecutionModel::Streams { k: 4 });
        let back = Trace::from_json(&trace.to_json().unwrap()).unwrap();
        assert_eq!(back.model, Some(ExecutionModel::Streams { k: 4 }));
        let inst = back.to_instance_scaled(1.5).unwrap();
        assert_eq!(inst.model(), ExecutionModel::Streams { k: 4 });

        // Invalid stamped models surface as errors, not panics.
        trace.model = Some(ExecutionModel::Streams { k: 0 });
        assert!(matches!(
            trace.to_instance_scaled(1.5),
            Err(CoreError::InvalidExecutionModel(_))
        ));
    }

    #[test]
    fn cost_model_is_optional_in_json_and_materializes_times() {
        use dts_core::perfmodel::{LinearFit, PS_PER_MICRO};

        // Model-less traces keep serializing without a `cost_model` key.
        let mut trace = sample();
        let json = trace.to_json().unwrap();
        assert!(!json.contains("cost_model"));
        assert_eq!(Trace::from_json(&json).unwrap().cost_model, None);

        // A stamped model round-trips and rewrites the instance durations.
        let spec = CostModelSpec::Regression {
            transfer: LinearFit {
                alpha_us: 10,
                beta_ps_per_byte: PS_PER_MICRO / 1000, // 1 µs per KB
                samples: 2,
            },
            compute: LinearFit {
                alpha_us: 40,
                beta_ps_per_byte: 0,
                samples: 2,
            },
        };
        trace.cost_model = Some(spec.clone());
        let back = Trace::from_json(&trace.to_json().unwrap()).unwrap();
        assert_eq!(back.cost_model, Some(spec.clone()));
        let inst = back.to_instance_scaled(1.5).unwrap();
        assert_eq!(inst.cost_model(), spec);
        // fock(0,1): 160 000 bytes → 10 + 160 µs transfer, 40 µs compute.
        assert_eq!(inst.task(TaskId(0)).comm_time, Time::from_micros(170));
        assert_eq!(inst.task(TaskId(0)).comp_time, Time::from_micros(40));
    }

    #[test]
    fn file_round_trip() {
        let trace = sample();
        let dir = std::env::temp_dir().join("dts-chem-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace-rank3.json");
        trace.save(&path).unwrap();
        let back = Trace::load(&path).unwrap();
        assert_eq!(trace, back);
        std::fs::remove_file(&path).ok();
        assert!(Trace::load(dir.join("missing.json")).is_err());
    }

    #[test]
    fn traces_stream_what_their_trees_render() {
        use dts_core::perfmodel::{fit_history, fit_linear};

        let samples = [(100, 7), (5_000, 40), (70_000, 300)];
        let cost_models = [
            None,
            Some(CostModelSpec::Analytic),
            Some(CostModelSpec::History {
                transfer: fit_history(&samples).unwrap(),
                compute: fit_history(&samples[..1]).unwrap(),
            }),
            Some(CostModelSpec::Regression {
                transfer: fit_linear(&samples).unwrap(),
                compute: fit_linear(&samples[1..]).unwrap(),
            }),
        ];
        let models = [
            None,
            Some(ExecutionModel::Duplex),
            Some(ExecutionModel::Streams { k: 3 }),
            Some(ExecutionModel::parse("implicit:0.25").unwrap()),
        ];
        let mut trace = sample();
        trace.push(TraceTask {
            name: "esc \"q\" \\ \u{1}\tü",
            kind: TaskKind::Transpose,
            comm_micros: u64::MAX,
            comp_micros: 0,
            mem_bytes: 1,
        });
        for cost_model in &cost_models {
            for model in models {
                trace.cost_model = cost_model.clone();
                trace.model = model;
                let value = trace.to_value();
                assert_eq!(
                    trace.to_json(),
                    Ok(serde_json::to_string_pretty(&value).unwrap())
                );
                assert_eq!(serde_json::to_string(&trace), serde_json::to_string(&value));
            }
        }
        for task in trace.iter() {
            assert_eq!(
                serde_json::to_string(&task),
                serde_json::to_string(&task.to_value())
            );
        }
    }

    /// A reader over `bytes` that counts the bytes it hands out.
    struct Counted<'a> {
        bytes: &'a [u8],
        read: usize,
    }

    impl Read for Counted<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.bytes.read(buf)?;
            self.read += n;
            Ok(n)
        }
    }

    /// `json` decoded through the window, which must succeed without the
    /// whole-file fallback and give what `from_json` gives.
    fn windowed(json: &str) -> Trace {
        let whole = Trace::from_json(json).expect("the document decodes whole");
        let trace = decode_file(&mut json.as_bytes()).expect("the window decodes the document");
        assert_eq!(trace, whole);
        trace
    }

    /// `n` tasks named mostly in 2-, 3- and 4-byte UTF-8.
    fn multibyte(n: usize) -> Trace {
        let names: Vec<String> = (0..n)
            .map(|i| {
                (0..30 + i % 17)
                    .map(|j| ['é', '€', '😀', 'x'][(i + j) % 4])
                    .collect()
            })
            .collect();
        let mut trace = Trace::new("MD", 2);
        trace.extend(names.iter().enumerate().map(|(i, name)| TraceTask {
            name,
            kind: TaskKind::ALL[i % 3],
            comm_micros: i as u64,
            comp_micros: 7,
            mem_bytes: 4096 + i as u64,
        }));
        trace
    }

    #[test]
    fn every_cut_by_the_first_window_decodes_in_the_window() {
        // Leading whitespace puts each byte of the document in turn at the
        // first window's end: inside escapes, keywords, numbers, empty
        // containers, multibyte characters and between any two tokens.
        let doc = r#"{"x": [10, true, "s", {}, []], "kernel": "ké😀\"é😀",
            "tasks": [{"name": "a\\bé", "kind": "Transpose",
            "extra": [false, null, -1.5e3, {}], "comm_micros": 12345, "comp_micros": -0,
            "mem_bytes": 987654321}, {"mem_bytes": 1, "comp_micros": 2, "comm_micros": 3,
            "kind": "Contraction", "name": "😀é", "name": "dup"}], "y": -12.5e3,
            "model": null, "rank": 1234567, "rank": 8, "tasks": []}"#;
        let trace = windowed(doc);
        assert_eq!((trace.rank, trace.len()), (1_234_567, 2));
        for cut in 1..doc.len() {
            let padded = format!("{}{doc}", " ".repeat(WINDOW - cut));
            assert_eq!(windowed(&padded), trace, "cut after {cut} bytes");
        }
    }

    #[test]
    fn multibyte_multi_window_files_decode_in_the_window() {
        let json = multibyte(5_000).to_json().unwrap();
        assert!(json.len() > 3 * WINDOW);
        windowed(&json);
        windowed(&serde_json::to_string(&multibyte(5_000)).unwrap());
    }

    #[test]
    fn a_name_longer_than_the_window_decodes_in_a_grown_window() {
        let long = "é".repeat(WINDOW);
        let mut trace = sample();
        trace.push(TraceTask {
            name: &long,
            kind: TaskKind::Transpose,
            comm_micros: 1,
            comp_micros: 2,
            mem_bytes: 3,
        });
        windowed(&trace.to_json().unwrap());
    }

    #[test]
    fn a_malformed_unit_is_refused_without_reading_on() {
        let json = multibyte(5_000).to_json().unwrap();
        // Early: the rank is a string. The window neither grows nor
        // refills.
        let early = json.replacen("\"rank\": 2", "\"rank\": \"2\"", 1);
        let mut file = Counted {
            bytes: early.as_bytes(),
            read: 0,
        };
        assert!(decode_file(&mut file).is_none());
        assert_eq!(file.read, WINDOW);
        // Past the first windows: an unknown kind. At most one window is
        // read beyond it.
        let (at, _) = json
            .match_indices("\"Transpose\"")
            .find(|&(i, _)| i > 2 * WINDOW)
            .unwrap();
        let late = format!("{}\"Transposed\"{}", &json[..at], &json[at + 11..]);
        let mut file = Counted {
            bytes: late.as_bytes(),
            read: 0,
        };
        assert!(decode_file(&mut file).is_none());
        assert!(file.read <= at + WINDOW, "{} bytes read", file.read);
        assert!(Trace::from_json(&late).is_err());
    }
}
