//! The exact refusal of every malformed-trace class.
//!
//! One table of single-fault files, each paired with the complete typed
//! error `import_trace` must return for it. The wording is part of the
//! format's contract (scripts and users match on it), so this test pins
//! it byte for byte: any change to how the importer words a refusal, or
//! to which refusal it reports first, fails here.

use dts_core::CoreError;
use dts_workloads::format::import_trace;

/// One valid task object.
const TASK: &str =
    r#"{"name": "t", "kind": "Contraction", "comm_micros": 1, "comp_micros": 2, "mem_bytes": 3}"#;

/// A valid one-task versioned trace file.
fn valid() -> String {
    format!(
        r#"{{"format": "dts-trace", "version": 1, "kernel": "MD", "rank": 0, "tasks": [{TASK}]}}"#
    )
}

/// The valid file with the first `from` replaced by `to`.
fn with(from: &str, to: &str) -> String {
    let valid = valid();
    let edited = valid.replacen(from, to, 1);
    assert_ne!(edited, valid, "`{from}` does not occur in the valid file");
    edited
}

/// The valid envelope around `tasks`.
fn with_tasks(tasks: &str) -> String {
    with(&format!("[{TASK}]"), tasks)
}

fn trace(msg: &str) -> CoreError {
    CoreError::InvalidTrace(msg.into())
}

#[test]
fn the_valid_file_imports() {
    let trace = import_trace(&valid()).expect("the base file is valid");
    assert_eq!(trace.len(), 1);
}

#[test]
fn every_refusal_is_worded_exactly() {
    let unnamed = TASK.replace("\"t\"", "\"\"");
    let cases: Vec<(String, CoreError)> = vec![
        // Shape of the file and of each task.
        (
            "[1, 2]".into(),
            trace("trace file must be an object, got array"),
        ),
        (
            with_tasks("[7]"),
            trace("tasks[0] must be an object, got integer"),
        ),
        // Unknown, repeated and missing keys, at both levels.
        (
            with("\"rank\": 0", "\"rank\": 0, \"extra\": 1"),
            trace(
                "trace file has unknown key `extra`; allowed keys are format, version, \
                 kernel, rank, model, cost_model, tasks",
            ),
        ),
        (
            with("\"rank\": 0", "\"rank\": 0, \"rank\": 0"),
            trace("trace file repeats key `rank`"),
        ),
        // Unknown keys are reported before repeated ones.
        (
            with("\"rank\": 0", "\"rank\": 0, \"rank\": 0, \"extra\": 1"),
            trace(
                "trace file has unknown key `extra`; allowed keys are format, version, \
                 kernel, rank, model, cost_model, tasks",
            ),
        ),
        (
            with("\"kernel\": \"MD\", ", ""),
            trace("trace file is missing required key `kernel`"),
        ),
        (
            with("\"mem_bytes\": 3", "\"mem_bytes\": 3, \"size\": 1"),
            trace(
                "tasks[0] has unknown key `size`; allowed keys are name, kind, comm_micros, \
                 comp_micros, mem_bytes",
            ),
        ),
        (
            with(
                "\"comm_micros\": 1",
                "\"comm_micros\": 1, \"comm_micros\": 1",
            ),
            trace("tasks[0] repeats key `comm_micros`"),
        ),
        (
            with(", \"mem_bytes\": 3", ""),
            trace("tasks[0] is missing required key `mem_bytes`"),
        ),
        // Wrong-typed values.
        (
            with("\"format\": \"dts-trace\"", "\"format\": 1"),
            trace("format must be a string, got integer"),
        ),
        (
            with("\"kernel\": \"MD\"", "\"kernel\": [\"MD\"]"),
            trace("kernel must be a string, got array"),
        ),
        (
            with_tasks("{}"),
            trace("tasks must be an array, got object"),
        ),
        (
            with("\"name\": \"t\"", "\"name\": 5"),
            trace("tasks[0].name must be a string, got integer"),
        ),
        (
            with("\"kind\": \"Contraction\"", "\"kind\": null"),
            trace("tasks[0].kind must be a string, got null"),
        ),
        (
            with("\"rank\": 0", "\"rank\": 0, \"model\": 4"),
            trace("model must be a spec string like \"streams:4\", got integer"),
        ),
        (
            with("\"version\": 1", "\"version\": \"1\""),
            trace("version must be a non-negative integer, got string"),
        ),
        (
            with("\"comm_micros\": 1", "\"comm_micros\": true"),
            trace("tasks[0].comm_micros must be a non-negative integer, got bool"),
        ),
        // Negative and non-integer numbers.
        (
            with("\"rank\": 0", "\"rank\": -1"),
            trace("rank is negative (-1)"),
        ),
        (
            with("\"comp_micros\": 2", "\"comp_micros\": -3"),
            trace("tasks[0].comp_micros is negative (-3)"),
        ),
        (
            with("\"version\": 1", "\"version\": 1.5"),
            trace("version must be a non-negative integer, got non-integer number 1.5"),
        ),
        (
            with("\"mem_bytes\": 3", "\"mem_bytes\": 2.5"),
            trace("tasks[0].mem_bytes must be a non-negative integer, got non-integer number 2.5"),
        ),
        // Empty names and unknown kinds.
        (
            with("\"kernel\": \"MD\"", "\"kernel\": \"\""),
            trace("kernel must be a non-empty string"),
        ),
        (
            with("\"name\": \"t\"", "\"name\": \"\""),
            trace("tasks[0].name must be non-empty"),
        ),
        (
            with_tasks(&format!("[{TASK}, {unnamed}]")),
            trace("tasks[1].name must be non-empty"),
        ),
        (
            with("\"kind\": \"Contraction\"", "\"kind\": \"Convolution\""),
            trace(
                "tasks[0].kind is `Convolution`; expected one of Contraction, Transpose, \
                 FusedTransposeContraction",
            ),
        ),
        (
            with_tasks(&format!("[{TASK}, {TASK}]")),
            trace("duplicate task name `t` (tasks[1]); task names are the task identity"),
        ),
        // The envelope's version and format marker.
        (
            with("\"version\": 1", "\"version\": 2"),
            trace("unsupported format version 2; this build reads version 1 only"),
        ),
        (
            with("\"dts-trace\"", "\"dts-schedule\""),
            trace(
                "format is `dts-schedule`, expected `dts-trace` (is this a versioned trace file?)",
            ),
        ),
        // The embedded specs keep their own error classes.
        (
            with("\"rank\": 0", "\"rank\": 0, \"model\": \"streams:x\""),
            CoreError::InvalidExecutionModel("stream count 'x' is not a positive integer".into()),
        ),
        (
            with("\"rank\": 0", "\"rank\": 0, \"cost_model\": 5"),
            CoreError::InvalidCostModel("cost-model file must be an object, got integer".into()),
        ),
    ];
    for (json, expected) in cases {
        assert_eq!(
            import_trace(&json).expect_err(&json),
            expected,
            "for {json}"
        );
    }
}
