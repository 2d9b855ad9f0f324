//! Differential test pinning the two trace decoders together.
//!
//! `Trace::from_json` decodes trace files straight from their bytes with
//! the `serde_json::Reader` scanner; `Trace::from_value` decodes a parsed
//! `Value` tree (request frames and `perfbench` still take that path). For
//! every input below the two must agree: both accept with equal `Trace`s,
//! or both reject — the direct decoder always with
//! `CoreError::Serialization`.

use dts_chem::trace::TaskKind;
use dts_chem::{Trace, TraceTask};
use dts_core::perfmodel::{LinearFit, RegressionModel, PS_PER_MICRO};
use dts_core::{ComputeBackend, CoreError, CostModelSpec, ExecutionModel, LinkClass};
use dts_workloads::families::{generate_trace, GeneratorConfig, WorkloadFamily};
use dts_workloads::format::export_trace;
use microcheck::{gens, prop_assert, property};
use serde::{Deserialize, Value};

/// The decoders' common verdict on `json`: `Ok(Some(trace))` when both
/// accept with the same trace, `Ok(None)` when both reject, `Err` naming
/// the disagreement otherwise.
fn verdict(json: &str) -> Result<Option<Trace>, String> {
    let tree = serde_json::from_str::<Value>(json)
        .map_err(|e| e.to_string())
        .and_then(|v| Trace::from_value(&v).map_err(|e| e.to_string()));
    match (Trace::from_json(json), tree) {
        (Ok(direct), Ok(tree)) if direct == tree => Ok(Some(direct)),
        (Ok(direct), Ok(tree)) => Err(format!(
            "decoders built different traces from {json:?}:\n{direct:?}\n{tree:?}"
        )),
        (Err(CoreError::Serialization(_)), Err(_)) => Ok(None),
        (Err(other), Err(_)) => Err(format!(
            "{json:?} rejected with a mistyped error: {other:?}"
        )),
        (direct, tree) => Err(format!(
            "decoders disagree on {json:?}: direct {direct:?}, tree {tree:?}"
        )),
    }
}

fn accepted(json: &str) -> Trace {
    match verdict(json) {
        Ok(Some(trace)) => trace,
        Ok(None) => panic!("both decoders rejected {json:?}"),
        Err(msg) => panic!("{msg}"),
    }
}

fn rejected(json: &str) {
    match verdict(json) {
        Ok(None) => {}
        Ok(Some(trace)) => panic!("both decoders accepted {json:?} as {trace:?}"),
        Err(msg) => panic!("{msg}"),
    }
}

fn agree(json: &str) -> Option<Trace> {
    verdict(json).unwrap_or_else(|msg| panic!("{msg}"))
}

fn regression_spec() -> CostModelSpec {
    CostModelSpec::Regression(
        RegressionModel::new(
            vec![(
                LinkClass::HostToDevice,
                LinearFit {
                    alpha_us: 10,
                    beta_ps_per_byte: PS_PER_MICRO / 1000,
                    samples: 2,
                },
            )],
            vec![(
                ComputeBackend::Cpu,
                LinearFit {
                    alpha_us: 40,
                    beta_ps_per_byte: 0,
                    samples: 2,
                },
            )],
        )
        .expect("valid regression model"),
    )
}

fn small_trace() -> Trace {
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
    trace.model = Some(ExecutionModel::Streams { k: 4 });
    trace.cost_model = Some(regression_spec());
    trace
}

/// A one-task document with `field` set to the raw JSON `raw`.
fn with_task_field(field: &str, raw: &str) -> String {
    let mut fields = vec![
        ("name", "\"t\"".to_string()),
        ("kind", "\"Contraction\"".to_string()),
        ("comm_micros", "1".to_string()),
        ("comp_micros", "2".to_string()),
        ("mem_bytes", "3".to_string()),
    ];
    for (key, value) in &mut fields {
        if *key == field {
            *value = raw.to_string();
        }
    }
    let task: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!(
        r#"{{"kernel": "K", "rank": 0, "tasks": [{{{}}}]}}"#,
        task.join(", ")
    )
}

#[test]
fn every_truncation_agrees() {
    let json = small_trace().to_json().expect("serializes");
    assert_eq!(accepted(&json), small_trace());
    for cut in 0..json.len() {
        if json.is_char_boundary(cut) {
            rejected(&json[..cut]);
        }
    }
    // A compact rendering truncates differently (no whitespace runs).
    let compact = serde_json::to_string(&small_trace()).expect("serializes");
    assert_eq!(accepted(&compact), small_trace());
    for cut in 0..compact.len() {
        rejected(&compact[..cut]);
    }
}

#[test]
fn integer_rules_agree_on_every_field() {
    // `u64` first, then a non-negative `i64` (`-0`); floats, exponents,
    // negatives and values past `u64` are rejected.
    let accepted_as = [
        ("0", 0),
        ("007", 7),
        ("-0", 0),
        ("-00", 0),
        ("18446744073709551615", u64::MAX),
    ];
    let rejected_raw = [
        "1.0",
        "1.5",
        "1e3",
        "1E3",
        "0.5e1",
        "1.",
        "-1",
        "-9223372036854775808",
        "-9223372036854775809",
        "18446744073709551616",
        "99999999999999999999999",
        "-0.0",
        "-",
        "--1",
        "1-2",
        "1+2",
        "+1",
        "0x10",
        "NaN",
        "true",
        "null",
        "\"1\"",
        "[]",
        "{}",
    ];
    for field in ["comm_micros", "comp_micros", "mem_bytes"] {
        for (raw, want) in accepted_as {
            let trace = accepted(&with_task_field(field, raw));
            let task = trace.task(0);
            let got = match field {
                "comm_micros" => task.comm_micros,
                "comp_micros" => task.comp_micros,
                _ => task.mem_bytes,
            };
            assert_eq!(got, want, "{field} = {raw}");
        }
        for raw in rejected_raw {
            rejected(&with_task_field(field, raw));
        }
    }
    for (raw, want) in accepted_as {
        let doc = format!(r#"{{"kernel": "K", "rank": {raw}, "tasks": []}}"#);
        assert_eq!(accepted(&doc).rank as u64, want, "rank = {raw}");
    }
    for raw in rejected_raw {
        rejected(&format!(r#"{{"kernel": "K", "rank": {raw}, "tasks": []}}"#));
    }
}

#[test]
fn duplicate_keys_keep_the_first_occurrence_at_both_levels() {
    // A later duplicate is skipped, even when it would not decode.
    let trace = accepted(
        r#"{"kernel": "A", "rank": 1, "kernel": 7, "rank": -4, "tasks": [], "tasks": "x"}"#,
    );
    assert_eq!((trace.kernel.as_str(), trace.rank), ("A", 1));
    assert!(trace.is_empty());
    let trace = accepted(
        r#"{"kernel": "K", "rank": 0, "tasks": [{"name": "first", "name": 2, "kind": "Transpose", "kind": "Bogus", "comm_micros": 1, "comm_micros": 1.5, "comp_micros": 2, "mem_bytes": 3, "mem_bytes": 4}]}"#,
    );
    let task = trace.task(0);
    assert_eq!(task.name, "first");
    assert_eq!(task.kind, TaskKind::Transpose);
    assert_eq!((task.comm_micros, task.mem_bytes), (1, 3));
    // ... but its syntax is still checked.
    rejected(r#"{"kernel": "A", "rank": 1, "tasks": [], "tasks": [1,]}"#);
    rejected(&with_task_field("name", r#""t", "name": tru"#));
    // The first occurrence decides, even when a valid one follows.
    rejected(r#"{"kernel": 7, "kernel": "A", "rank": 1, "tasks": []}"#);
    rejected(&with_task_field(
        "kind",
        r#""Bogus", "kind": "Contraction""#,
    ));
}

#[test]
fn unknown_keys_are_skipped_with_their_syntax_checked() {
    let base = r#""kernel": "K", "rank": 0, "tasks": [{"name": "t", "kind": "Contraction", "comm_micros": 1, "comp_micros": 2, "mem_bytes": 3, INNER}]"#;
    let doc = |outer: &str, inner: &str| format!("{{{}, {outer}}}", base.replace("INNER", inner));
    let fine = [
        r#""x": null"#,
        r#""x": [1, -2, 3.5e-1, 1e400, -0, 99999999999999999999, {"y": [true, false]}]"#,
        r#""x": "esc\n\"aped\" \ud83d\ude00""#,
        r#""x": {}"#,
        r#""x": []"#,
        r#""format": "dts-trace", "version": 1"#,
    ];
    for extra in fine {
        let plain = accepted(&doc(r#""y": 0"#, r#""y": 0"#));
        assert_eq!(accepted(&doc(extra, extra)), plain, "{extra}");
    }
    let broken = [
        r#""x": [1,]"#,
        r#""x": {"a" 1}"#,
        r#""x": tru"#,
        r#""x": 1e"#,
        r#""x": -"#,
        r#""x": "\ud83d""#,
        r#""x": "\q""#,
        r#""x": nul"#,
        r#""x": [1 2]"#,
        r#""x" 1"#,
        r#"x: 1"#,
    ];
    for extra in broken {
        rejected(&doc(extra, r#""y": 0"#));
        rejected(&doc(r#""y": 0"#, extra));
    }
}

#[test]
fn escaped_names_and_keys_decode_alike() {
    for (raw, want) in [
        (r#""caf\u00e9""#, "café"),
        (r#""\ud83d\ude00 ok""#, "\u{1F600} ok"),
        (r#""\uD83D\uDE00""#, "\u{1F600}"),
        (r#""a\"b\\c\/d\b\f\n\r\t""#, "a\"b\\c/d\u{8}\u{c}\n\r\t"),
        ("\"raw \u{1F600} é\"", "raw \u{1F600} é"),
    ] {
        assert_eq!(accepted(&with_task_field("name", raw)).task(0).name, want);
    }
    for raw in [
        r#""\ud83d""#,
        r#""\ude00\ud83d""#,
        r#""\ud83dA""#,
        r#""\u004""#,
        r#""\uZZZZ""#,
        r#""\u+041""#,
        r#""\x41""#,
        r#""open"#,
    ] {
        rejected(&with_task_field("name", raw));
    }
    // Escaped keys name the same fields.
    let trace = accepted(
        r#"{"kernel": "K", "r\u0061nk": 2, "tasks": [{"name": "t", "\u006bind": "Contraction", "comm_micros": 1, "comp_micros": 2, "mem_bytes": 3}]}"#,
    );
    assert_eq!(trace.rank, 2);
    assert_eq!(trace.task(0).kind, TaskKind::Contraction);
}

#[test]
fn trailing_bytes_and_wrong_shapes_agree() {
    let json = small_trace().to_json().expect("serializes");
    assert_eq!(accepted(&format!(" \n\t{json}\r\n ")), small_trace());
    for tail in [" x", "{}", ",", "]", "\"\"", "0", "\u{0}"] {
        rejected(&format!("{json}{tail}"));
    }
    for doc in [
        "",
        "  ",
        "null",
        "[]",
        "\"trace\"",
        "1",
        "{}",
        r#"{"kernel": "K", "rank": 0}"#,
        r#"{"kernel": "K", "tasks": []}"#,
        r#"{"rank": 0, "tasks": []}"#,
        r#"{"kernel": "K", "rank": 0, "tasks": {}}"#,
        r#"{"kernel": "K", "rank": 0, "tasks": [1]}"#,
        r#"{"kernel": "K", "rank": 0, "tasks": [{}]}"#,
        r#"{"kernel": "K", "rank": 0, "tasks": null}"#,
        r#"{"kernel": null, "rank": 0, "tasks": []}"#,
    ] {
        rejected(doc);
    }
    for kind in [
        r#""Bogus""#,
        r#""contraction""#,
        r#"{"Contraction": null}"#,
        r#"["Contraction"]"#,
        "0",
    ] {
        rejected(&with_task_field("kind", kind));
    }
    for field in ["name", "kind", "comm_micros", "comp_micros", "mem_bytes"] {
        let doc = with_task_field(field, "0");
        let missing = doc.replace(&format!("\"{field}\": "), "\"other\": ");
        rejected(&missing);
    }
}

#[test]
fn model_and_cost_model_present_null_or_analytic() {
    let full = small_trace();
    let models = serde_json::to_string(&full.model).expect("serializes");
    let cost = serde_json::to_string(&full.cost_model).expect("serializes");
    let doc = |model: &str, cost_model: &str| {
        format!(
            r#"{{"kernel": "K", "rank": 0, "tasks": [], "model": {model}, "cost_model": {cost_model}}}"#
        )
    };
    let trace = accepted(&doc(&models, &cost));
    assert_eq!(trace.model, full.model);
    assert_eq!(trace.cost_model, full.cost_model);
    let trace = accepted(&doc("null", "null"));
    assert_eq!((trace.model, trace.cost_model), (None, None));
    for analytic in [r#""analytic""#, r#""Analytic""#, r#""ANALYTIC""#] {
        let trace = accepted(&doc(&models, analytic));
        assert_eq!(trace.cost_model, None, "{analytic} normalizes to absent");
    }
    let trace = accepted(r#"{"kernel": "K", "rank": 0, "tasks": []}"#);
    assert_eq!((trace.model, trace.cost_model), (None, None));
    // First occurrence wins here too, `null` included.
    let trace = accepted(&format!(
        r#"{{"model": null, "kernel": "K", "rank": 0, "tasks": [], "model": {models}, "cost_model": {cost}, "cost_model": "bogus"}}"#
    ));
    assert_eq!(
        (trace.model, trace.cost_model),
        (None, full.cost_model.clone())
    );
    for (model, cost_model) in [
        (r#""Bogus""#, "null"),
        ("7", "null"),
        ("null", r#""bogus""#),
        ("null", "7"),
        ("null", r#"{"version": 1}"#),
        (r#"{"Streams": {"k": 4}"#, "null"),
    ] {
        rejected(&doc(model, cost_model));
    }
}

/// Seeded generator traces of every family, as written by `to_json` and
/// by the versioned exporter (whose `format`/`version` keys are unknown to
/// the decoders and skipped).
fn generated(family_ix: usize, n_tasks: usize, seed: u64) -> Trace {
    let mut config = GeneratorConfig::new(WorkloadFamily::ALL[family_ix]);
    config.n_tasks = n_tasks;
    config.seed = seed;
    generate_trace(&config, 0).expect("seeded generation is infallible")
}

property! {
    /// Generated traces decode to themselves through both decoders.
    fn generated_traces_round_trip_through_both_decoders((family, n, seed) in (
        gens::usize_in(0..=WorkloadFamily::ALL.len() - 1),
        gens::usize_in(1..=24),
        gens::u64_in(0..=1_000_000),
    ), cases = 64) {
        let trace = generated(family, n, seed);
        for json in [
            trace.to_json().expect("serializes"),
            serde_json::to_string(&trace).expect("serializes"),
            export_trace(&trace).expect("exports"),
        ] {
            prop_assert!(
                agree(&json).as_ref() == Some(&trace),
                "round trip changed the trace: {json}"
            );
        }
    }

    /// Overwriting any byte of a generated trace with a JSON-significant
    /// byte never splits the decoders.
    fn corrupted_bytes_never_split_the_decoders((family, seed, at, with) in (
        gens::usize_in(0..=WorkloadFamily::ALL.len() - 1),
        gens::u64_in(0..=1_000_000),
        gens::usize_in(0..=4095),
        gens::usize_in(0..=17),
    ), cases = 512) {
        let mut bytes = generated(family, 3, seed).to_json().expect("serializes").into_bytes();
        let at = at % bytes.len();
        bytes[at] = b"{}[],:\"\\-.eE+0 1an"[with];
        if let Ok(json) = String::from_utf8(bytes) {
            if let Err(msg) = verdict(&json) {
                prop_assert!(false, "{msg}");
            }
        }
    }
}
