//! Pins how the two enums a trace carries decode: an `ExecutionModel`
//! (the trace's `model` member, and any document decoding one) and a
//! task's `TaskKind`. Each row gives the exact verdict, the decoded value
//! or the error text, for each way the value is read:
//! `serde_json::from_str`, `Trace::from_json` (the `Reader` path) and
//! `Trace::from_value` (the `Value`-tree path).
//!
//! The JSON shapes are serde's defaults: a unit variant is its name as a
//! string, a data variant a one-key object holding its fields.

use dts_chem::trace::TaskKind;
use dts_chem::Trace;
use dts_core::exec::OverlapEfficiency;
use dts_core::{CoreError, ExecutionModel};
use serde::{Deserialize, Value};

/// A verdict: the decoded value, or the error's text.
type Verdict<T> = Result<T, String>;

fn ok<T>(value: T) -> Verdict<T> {
    Ok(value)
}

fn err<T>(text: &str) -> Verdict<T> {
    Err(text.to_string())
}

fn implicit(ppm: u32) -> ExecutionModel {
    ExecutionModel::Implicit {
        efficiency: OverlapEfficiency::from_ppm(ppm).unwrap(),
    }
}

/// `Trace::from_json`'s verdict, mapped through `part`; its errors are
/// all `CoreError::Serialization`.
fn from_json<T>(json: &str, part: impl Fn(&Trace) -> T) -> Verdict<T> {
    match Trace::from_json(json) {
        Ok(trace) => Ok(part(&trace)),
        Err(CoreError::Serialization(text)) => Err(text),
        Err(other) => panic!("Trace::from_json returned a non-serialization error {other:?}"),
    }
}

/// `Trace::from_value`'s verdict on the parsed tree, mapped through `part`.
fn from_value<T>(json: &str, part: impl Fn(&Trace) -> T) -> Verdict<T> {
    let tree: Value = serde_json::from_str(json).expect("the row's document is valid JSON");
    Trace::from_value(&tree)
        .map(|trace| part(&trace))
        .map_err(|e| e.to_string())
}

/// A model row: the model's JSON, then its verdict from
/// `serde_json::from_str::<ExecutionModel>` and as a bare trace's `model`
/// member (both trace decoders agree on every row).
type ModelRow = (
    &'static str,
    Verdict<ExecutionModel>,
    Verdict<Option<ExecutionModel>>,
);

fn model_rows() -> Vec<ModelRow> {
    let enum_repr = |kind: &str| format!("expected enum representation, got {kind}");
    vec![
        (
            r#""Explicit""#,
            ok(ExecutionModel::Explicit),
            ok(Some(ExecutionModel::Explicit)),
        ),
        (
            r#""Duplex""#,
            ok(ExecutionModel::Duplex),
            ok(Some(ExecutionModel::Duplex)),
        ),
        (
            r#""explicit""#,
            err("unknown variant `explicit` of ExecutionModel"),
            err("unknown variant `explicit` of ExecutionModel"),
        ),
        (
            r#""Streams""#,
            err("unknown variant `Streams` of ExecutionModel"),
            err("unknown variant `Streams` of ExecutionModel"),
        ),
        (
            r#"{"Streams":{"k":4}}"#,
            ok(ExecutionModel::Streams { k: 4 }),
            ok(Some(ExecutionModel::Streams { k: 4 })),
        ),
        (
            r#"{"Streams":{"k":0}}"#,
            ok(ExecutionModel::Streams { k: 0 }),
            ok(Some(ExecutionModel::Streams { k: 0 })),
        ),
        (
            r#"{"Streams":{}}"#,
            err("missing field `k`"),
            err("missing field `k`"),
        ),
        (
            r#"{"Streams":5}"#,
            err("expected object, got integer"),
            err("expected object, got integer"),
        ),
        (
            r#"{"Streams":{"k":-1}}"#,
            err("expected unsigned integer, got integer"),
            err("expected unsigned integer, got integer"),
        ),
        (
            r#"{"Implicit":{"efficiency":750000}}"#,
            ok(implicit(750_000)),
            ok(Some(implicit(750_000))),
        ),
        (
            r#"{"Implicit":{"efficiency":2000000}}"#,
            err("invalid execution model: overlap efficiency 2000000 ppm exceeds 1000000 (1.0)"),
            err("invalid execution model: overlap efficiency 2000000 ppm exceeds 1000000 (1.0)"),
        ),
        (
            r#"{"Explicit":null}"#,
            err("unknown variant `Explicit` of ExecutionModel"),
            err("unknown variant `Explicit` of ExecutionModel"),
        ),
        (
            r#"{"Duplex":null,"Explicit":null}"#,
            Err(enum_repr("object")),
            Err(enum_repr("object")),
        ),
        ("[]", Err(enum_repr("array")), Err(enum_repr("array"))),
        ("5", Err(enum_repr("integer")), Err(enum_repr("integer"))),
        ("null", Err(enum_repr("null")), ok(None)),
    ]
}

#[test]
fn execution_models_decode_to_the_pinned_verdicts() {
    for (json, alone, member) in model_rows() {
        let decoded = serde_json::from_str::<ExecutionModel>(json).map_err(|e| e.to_string());
        assert_eq!(decoded, alone, "serde_json::from_str on {json}");
        let trace = format!(r#"{{"kernel":"HF","rank":0,"tasks":[],"model":{json}}}"#);
        let model = |t: &Trace| t.model;
        assert_eq!(
            from_json(&trace, model),
            member,
            "Trace::from_json on {trace}"
        );
        assert_eq!(
            from_value(&trace, model),
            member,
            "Trace::from_value on {trace}"
        );
    }
}

#[test]
fn task_kinds_decode_to_the_pinned_verdicts() {
    let unknown = |name: &str| format!("unknown variant `{name}` of TaskKind");
    let enum_repr = |kind: &str| format!("expected enum representation, got {kind}");
    // The kind's JSON, then its verdict through `Trace::from_json` and
    // through `Trace::from_value`.
    let rows: Vec<(&str, Verdict<TaskKind>, Verdict<TaskKind>)> = vec![
        (
            r#""Contraction""#,
            ok(TaskKind::Contraction),
            ok(TaskKind::Contraction),
        ),
        (
            r#""Transpose""#,
            ok(TaskKind::Transpose),
            ok(TaskKind::Transpose),
        ),
        (
            r#""FusedTransposeContraction""#,
            ok(TaskKind::FusedTransposeContraction),
            ok(TaskKind::FusedTransposeContraction),
        ),
        (
            r#""contraction""#,
            Err(unknown("contraction")),
            Err(unknown("contraction")),
        ),
        (r#""""#, Err(unknown("")), Err(unknown(""))),
        (
            r#"{"Transpose":null}"#,
            err("expected string at byte 52, got object"),
            Err(unknown("Transpose")),
        ),
        (
            "5",
            err("expected string at byte 52, got number"),
            Err(enum_repr("integer")),
        ),
        (
            "[]",
            err("expected string at byte 52, got array"),
            Err(enum_repr("array")),
        ),
    ];
    for (json, reader, tree) in rows {
        let trace = format!(
            r#"{{"kernel":"HF","rank":0,"tasks":[{{"name":"t","kind":{json},"comm_micros":1,"comp_micros":2,"mem_bytes":3}}]}}"#
        );
        let kind = |t: &Trace| t.task(0).kind;
        assert_eq!(
            from_json(&trace, kind),
            reader,
            "Trace::from_json on {trace}"
        );
        assert_eq!(
            from_value(&trace, kind),
            tree,
            "Trace::from_value on {trace}"
        );
    }
}
