//! The versioned on-disk trace format and its strict importer.
//!
//! `dts generate` historically wrote bare [`Trace`] JSON with no version
//! marker, so a file's meaning could silently drift as the schema grew
//! (the optional `model` key already did exactly that). The *versioned*
//! format adds an explicit envelope:
//!
//! ```json
//! {
//!   "format": "dts-trace",
//!   "version": 1,
//!   "kernel": "MD",
//!   "rank": 0,
//!   "model": "streams:4",
//!   "tasks": [
//!     { "name": "md(0)", "kind": "Contraction",
//!       "comm_micros": 104, "comp_micros": 52, "mem_bytes": 4301 }
//!   ]
//! }
//! ```
//!
//! * `format` must be the literal `"dts-trace"` and `version` the integer
//!   `1`; anything else — including a future version this build does not
//!   know — is rejected, never half-read.
//! * `model` is optional and uses the CLI spec syntax of
//!   [`ExecutionModel::parse`] (`explicit`, `duplex`, `streams:<k>`,
//!   `implicit[:<efficiency>]`).
//! * `cost_model` is optional and embeds a full `dts-cost-model` file (or
//!   the literal string `"analytic"`, which normalizes to absence); the
//!   embedded model goes through the cost-model format's own strict
//!   validation, surfacing as [`CoreError::InvalidCostModel`].
//! * Every numeric field must be a non-negative JSON integer: floats
//!   (including `1e30`-style notation), negative values and non-numeric
//!   types are each rejected with a message naming the offending path.
//! * Task names are the task identity, so they must be non-empty and
//!   unique; the totals of `comm_micros + comp_micros` and of `mem_bytes`
//!   must fit `u64`, because the simulators' tick/byte arithmetic does.
//! * Unknown and repeated keys are rejected at every level, so a typo'd
//!   field fails loudly instead of being ignored.
//!
//! Keys, types and numbers are read by [`dts_core::strict::Fields`], the
//! strict reader shared with the cost-model and corpus golden files. Import
//! and export share one semantic validator: every file [`export_trace`]
//! writes is accepted by [`import_trace`], and the round-trip is
//! byte-identical (the CLI round-trip tests pin this).
//! Malformed data always surfaces as [`CoreError::InvalidTrace`] (or
//! [`CoreError::Serialization`] for broken JSON syntax / I/O) — never as
//! a panic.

use crate::families::MAX_TASKS;
use dts_chem::trace::TaskKind;
use dts_chem::{Trace, TraceTask};
use dts_core::perfmodel;
use dts_core::prelude::*;
use dts_core::strict::Fields;
use serde::{Serialize, Sink, Value};
use std::collections::HashSet;
use std::path::Path;

/// The literal `format` marker of versioned trace files.
pub const FORMAT_NAME: &str = "dts-trace";
/// The only format version this build reads and writes.
pub const FORMAT_VERSION: u64 = 1;
/// The keys of a task object.
const TASK_KEYS: [&str; 5] = ["name", "kind", "comm_micros", "comp_micros", "mem_bytes"];

fn invalid(msg: impl Into<String>) -> CoreError {
    CoreError::InvalidTrace(msg.into())
}

fn check_task_count(n: usize) -> Result<()> {
    if n > MAX_TASKS {
        return Err(invalid(format!(
            "{n} tasks, but traces are capped at {MAX_TASKS}"
        )));
    }
    Ok(())
}

/// Semantic checks shared by import and export: whatever passes here can
/// be simulated, and whatever [`export_trace`] emits re-imports.
fn validate_semantics(trace: &Trace) -> Result<()> {
    if trace.kernel.is_empty() {
        return Err(invalid("kernel must be a non-empty string"));
    }
    check_task_count(trace.len())?;
    let mut seen = HashSet::with_capacity(trace.len());
    let mut total_mem: u64 = 0;
    for (i, task) in trace.iter().enumerate() {
        if task.name.is_empty() {
            return Err(invalid(format!("tasks[{i}].name must be non-empty")));
        }
        if !seen.insert(task.name) {
            return Err(invalid(format!(
                "duplicate task name `{}` (tasks[{i}]); task names are the task identity",
                task.name
            )));
        }
        total_mem = total_mem.checked_add(task.mem_bytes).ok_or_else(|| {
            invalid(format!(
                "total mem_bytes overflows u64 at tasks[{i}] (`{}`)",
                task.name
            ))
        })?;
    }
    trace.check_time_totals()?;
    if let Some(model) = trace.model {
        model.validate()?;
    }
    if let Some(cost_model) = &trace.cost_model {
        if cost_model.is_analytic() {
            return Err(CoreError::InvalidCostModel(
                "an explicit analytic spec must be normalized to absence before export".into(),
            ));
        }
    }
    Ok(())
}

/// Serializes a trace in the versioned format (pretty JSON).
///
/// # Errors
///
/// [`CoreError::InvalidTrace`] when the trace itself violates the format
/// contract (empty kernel, duplicate task names, overflowing totals), so
/// an unexportable trace is caught before it reaches disk.
pub fn export_trace(trace: &Trace) -> Result<String> {
    validate_semantics(trace)?;
    serde_json::to_string_pretty(&Versioned(trace))
        .map_err(|e| CoreError::Serialization(e.to_string()))
}

/// A trace in the versioned format: the envelope keys, the execution
/// model as its `--model` spec string, then the tasks.
struct Versioned<'a>(&'a Trace);

impl Serialize for Versioned<'_> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        let trace = self.0;
        let optional = usize::from(trace.model.is_some()) + usize::from(trace.cost_model.is_some());
        sink.begin_object(5 + optional);
        sink.field("format", FORMAT_NAME);
        sink.field("version", &FORMAT_VERSION);
        sink.field("kernel", &trace.kernel);
        sink.field("rank", &trace.rank);
        if let Some(model) = trace.model {
            sink.field("model", &model.to_string());
        }
        if let Some(cost_model) = &trace.cost_model {
            sink.field("cost_model", cost_model);
        }
        sink.key("tasks");
        trace.serialize_tasks(sink);
        sink.end_object();
    }
}

/// Parses and strictly validates a versioned trace file.
///
/// # Errors
///
/// [`CoreError::Serialization`] for broken JSON syntax,
/// [`CoreError::InvalidTrace`] for every semantic violation (see the
/// module docs for the complete list), and
/// [`CoreError::InvalidExecutionModel`] for a malformed `model` spec.
pub fn import_trace(json: &str) -> Result<Trace> {
    let value: Value =
        serde_json::from_str(json).map_err(|e| CoreError::Serialization(e.to_string()))?;
    let file = Fields::of(
        &value,
        "trace file",
        "",
        &[
            "format",
            "version",
            "kernel",
            "rank",
            "model",
            "cost_model",
            "tasks",
        ],
        CoreError::InvalidTrace,
    )?;
    let format = file.str("format")?;
    if format != FORMAT_NAME {
        return Err(invalid(format!(
            "format is `{format}`, expected `{FORMAT_NAME}` (is this a versioned trace file?)"
        )));
    }
    let version = file.uint("version")?;
    if version != FORMAT_VERSION {
        return Err(invalid(format!(
            "unsupported format version {version}; this build reads version {FORMAT_VERSION} only"
        )));
    }
    let kernel = file.str("kernel")?;
    let rank = file.uint("rank")?;
    let rank = usize::try_from(rank)
        .map_err(|_| invalid(format!("rank {rank} does not fit this platform's usize")))?;
    let model = match file.get("model") {
        None => None,
        Some(Value::Str(spec)) => Some(ExecutionModel::parse(spec)?),
        Some(other) => {
            return Err(invalid(format!(
                "model must be a spec string like \"streams:4\", got {}",
                other.kind()
            )))
        }
    };
    let cost_model = match file.get("cost_model") {
        None => None,
        Some(Value::Str(s)) if s == "analytic" => None,
        Some(value) => Some(perfmodel::model_from_value(value)?),
    };

    let tasks = file.array("tasks")?;
    // Bounds the input before any task is built.
    check_task_count(tasks.len())?;
    let mut trace = Trace::with_capacity(kernel, rank, tasks.len());
    for (i, item) in tasks.iter().enumerate() {
        import_task(item, i, &mut trace)?;
    }
    trace.model = model;
    trace.cost_model = cost_model;
    validate_semantics(&trace)?;
    Ok(trace)
}

fn import_task(value: &Value, i: usize, trace: &mut Trace) -> Result<()> {
    let at = format!("tasks[{i}]");
    let fields = Fields::of(value, &at, &at, &TASK_KEYS, CoreError::InvalidTrace)?;
    let name = fields.str("name")?;
    let kind = fields.str("kind")?;
    let kind = TaskKind::from_name(kind).map_err(|_| {
        invalid(format!(
            "{at}.kind is `{kind}`; expected one of {}",
            TaskKind::ALL.map(TaskKind::name).join(", ")
        ))
    })?;
    let task = TraceTask {
        name,
        kind,
        comm_micros: fields.uint("comm_micros")?,
        comp_micros: fields.uint("comp_micros")?,
        mem_bytes: fields.uint("mem_bytes")?,
    };
    if !trace.try_push(task) {
        return Err(invalid(format!("task names exceed u32::MAX bytes at {at}")));
    }
    Ok(())
}

/// Writes a trace to `path` in the versioned format.
pub fn export_file(trace: &Trace, path: impl AsRef<Path>) -> Result<()> {
    let json = export_trace(trace)?;
    let path = path.as_ref();
    std::fs::write(path, json)
        .map_err(|e| CoreError::Serialization(format!("cannot write {}: {e}", path.display())))
}

/// Reads and strictly validates a versioned trace file.
pub fn import_file(path: impl AsRef<Path>) -> Result<Trace> {
    let json =
        std::fs::read_to_string(path).map_err(|e| CoreError::Serialization(e.to_string()))?;
    import_trace(&json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::{generate_trace, GeneratorConfig, WorkloadFamily};

    fn sample() -> Trace {
        let mut config = GeneratorConfig::new(WorkloadFamily::MdLike);
        config.n_tasks = 4;
        config.seed = 11;
        generate_trace(&config, 2).unwrap()
    }

    #[test]
    fn export_import_round_trips_byte_identically() {
        let mut trace = sample();
        for model in [None, Some(ExecutionModel::Streams { k: 4 })] {
            trace.model = model;
            let json = export_trace(&trace).unwrap();
            let back = import_trace(&json).unwrap();
            assert_eq!(back, trace);
            assert_eq!(
                export_trace(&back).unwrap(),
                json,
                "re-export changed bytes"
            );
        }
    }

    #[test]
    fn the_versioned_format_streams_what_its_tree_renders() {
        use dts_core::perfmodel::{fit_history, fit_linear, CostModelSpec};

        let samples = [(64, 3), (4_096, 20)];
        let mut trace = sample();
        for (model, cost_model) in [
            (None, None),
            (
                Some(ExecutionModel::Duplex),
                Some(CostModelSpec::History {
                    transfer: fit_history(&samples).unwrap(),
                    compute: fit_history(&samples).unwrap(),
                }),
            ),
            (
                Some(ExecutionModel::Streams { k: 2 }),
                Some(CostModelSpec::Regression {
                    transfer: fit_linear(&samples).unwrap(),
                    compute: fit_linear(&samples).unwrap(),
                }),
            ),
        ] {
            trace.model = model;
            trace.cost_model = cost_model;
            let tree = Versioned(&trace).to_value();
            assert_eq!(
                export_trace(&trace).unwrap(),
                serde_json::to_string_pretty(&tree).unwrap()
            );
        }
    }

    #[test]
    fn embedded_cost_models_round_trip_and_validate() {
        use dts_core::perfmodel::{CostModelSpec, LinearFit, PS_PER_MICRO};

        let mut trace = sample();
        trace.cost_model = Some(CostModelSpec::Regression {
            transfer: LinearFit {
                alpha_us: 3,
                beta_ps_per_byte: PS_PER_MICRO,
                samples: 4,
            },
            compute: LinearFit {
                alpha_us: 9,
                beta_ps_per_byte: 0,
                samples: 4,
            },
        });
        let json = export_trace(&trace).unwrap();
        let back = import_trace(&json).unwrap();
        assert_eq!(back, trace);
        assert_eq!(
            export_trace(&back).unwrap(),
            json,
            "re-export changed bytes"
        );

        // The literal string "analytic" normalizes to absence.
        let mut plain_trace = sample();
        plain_trace.model = None;
        let plain_json = export_trace(&plain_trace).unwrap().replacen(
            "\"tasks\"",
            "\"cost_model\": \"analytic\",\n  \"tasks\"",
            1,
        );
        let plain = import_trace(&plain_json).unwrap();
        assert_eq!(plain.cost_model, None);

        // A malformed embedded model is a typed InvalidCostModel. The outer
        // version stays 1; only the embedded model's version is corrupted
        // (the embedded object is the second `"version"` occurrence).
        let idx = json.rfind("\"version\": 1").unwrap();
        let mut broken = json.clone();
        broken.replace_range(idx.."\"version\": 1".len() + idx, "\"version\": 7");
        assert!(matches!(
            import_trace(&broken),
            Err(CoreError::InvalidCostModel(_))
        ));
        // So is an embedded model with a `d2h` entry beside `h2d`.
        let two_links = json.replacen(
            "\"transfer\": [",
            r#""transfer": [ { "link": "d2h", "alpha_us": 1, "beta_ps_per_byte": 1, "samples": 1 },"#,
            1,
        );
        assert_ne!(two_links, json);
        assert!(matches!(
            import_trace(&two_links),
            Err(CoreError::InvalidCostModel(_))
        ));
    }

    #[test]
    fn syntax_errors_are_serialization_semantic_errors_invalid_trace() {
        assert!(matches!(
            import_trace("{ not json"),
            Err(CoreError::Serialization(_))
        ));
        assert!(matches!(
            import_trace("[1, 2]"),
            Err(CoreError::InvalidTrace(_))
        ));
    }

    fn reject(json: &str, needle: &str) {
        match import_trace(json) {
            Err(CoreError::InvalidTrace(msg)) => assert!(
                msg.contains(needle),
                "message `{msg}` does not mention `{needle}`"
            ),
            other => panic!("expected InvalidTrace mentioning `{needle}`, got {other:?}"),
        }
    }

    fn valid_with_tasks(tasks_json: &str) -> String {
        format!(
            r#"{{"format": "dts-trace", "version": 1, "kernel": "MD", "rank": 0, "tasks": {tasks_json}}}"#
        )
    }

    fn task(name: &str, comm: &str, comp: &str, mem: &str) -> String {
        format!(
            r#"{{"name": "{name}", "kind": "Contraction", "comm_micros": {comm}, "comp_micros": {comp}, "mem_bytes": {mem}}}"#
        )
    }

    #[test]
    fn every_malformed_class_is_rejected_with_a_typed_error() {
        // Envelope violations.
        reject(
            r#"{"version": 1, "kernel": "MD", "rank": 0, "tasks": []}"#,
            "format",
        );
        reject(
            &valid_with_tasks("[]").replace("dts-trace", "dts-schedule"),
            "dts-trace",
        );
        reject(
            &valid_with_tasks("[]").replace("\"version\": 1", "\"version\": 2"),
            "unsupported format version 2",
        );
        reject(
            &valid_with_tasks("[]").replace("\"version\": 1", "\"version\": 1.0"),
            "non-integer",
        );
        reject(
            &valid_with_tasks("[]").replace("\"rank\": 0", "\"rank\": -1"),
            "negative",
        );
        reject(
            &valid_with_tasks("[]").replace("\"kernel\": \"MD\"", "\"kernel\": \"\""),
            "kernel",
        );
        reject(
            &valid_with_tasks("[]").replace("\"rank\": 0", "\"rank\": 0, \"extra\": 1"),
            "unknown key `extra`",
        );
        // Task-field violations.
        reject(
            &valid_with_tasks(&format!("[{}]", task("t", "1.5", "1", "1"))),
            "comm_micros",
        );
        reject(
            &valid_with_tasks(&format!("[{}]", task("t", "1", "-3", "1"))),
            "negative",
        );
        reject(
            &valid_with_tasks(&format!("[{}]", task("t", "1", "1", "1e30"))),
            "non-integer",
        );
        reject(
            &valid_with_tasks(&format!("[{}]", task("", "1", "1", "1"))),
            "name",
        );
        reject(
            &valid_with_tasks(&format!(
                "[{}, {}]",
                task("dup", "1", "1", "1"),
                task("dup", "2", "2", "2")
            )),
            "duplicate task name `dup`",
        );
        reject(
            &valid_with_tasks(&format!(
                "[{}]",
                task("t", "1", "1", "1").replace("Contraction", "Convolution")
            )),
            "Convolution",
        );
        // Overflowing totals.
        let half = format!("{}", u64::MAX / 2 + 1);
        reject(
            &valid_with_tasks(&format!("[{}]", task("t", &half, &half, "1"))),
            "overflows",
        );
        reject(
            &valid_with_tasks(&format!(
                "[{}, {}]",
                task("a", "1", "1", &half),
                task("b", "1", "1", &half)
            )),
            "mem_bytes overflows",
        );
        // Malformed model spec surfaces through ExecutionModel::parse.
        let with_model =
            valid_with_tasks("[]").replace("\"rank\": 0", "\"rank\": 0, \"model\": \"streams:0\"");
        assert!(matches!(
            import_trace(&with_model),
            Err(CoreError::InvalidExecutionModel(_))
        ));
    }

    #[test]
    fn export_refuses_semantically_broken_traces() {
        let valid = sample();
        let mut trace = Trace::new(valid.kernel.clone(), valid.rank);
        trace.push(valid.task(0));
        trace.push(TraceTask {
            name: valid.task(0).name,
            ..valid.task(1)
        });
        assert!(matches!(
            export_trace(&trace),
            Err(CoreError::InvalidTrace(_))
        ));
        let mut trace = sample();
        trace.kernel.clear();
        assert!(matches!(
            export_trace(&trace),
            Err(CoreError::InvalidTrace(_))
        ));
    }

    #[test]
    fn file_round_trip_and_missing_files() {
        let dir = std::env::temp_dir().join("dts-workloads-format-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.dts.json");
        let trace = sample();
        export_file(&trace, &path).unwrap();
        assert_eq!(import_file(&path).unwrap(), trace);
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            import_file(dir.join("missing.json")),
            Err(CoreError::Serialization(_))
        ));
    }
}
