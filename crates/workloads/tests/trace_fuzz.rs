//! Fuzz-hardening of the trace loader: every corruption of a valid trace
//! file must surface as a *typed* `CoreError` — never a panic, never a
//! silently wrong trace.
//!
//! The corrupted classes the issue names each get a seeded property:
//! truncation at every byte offset, float (NaN-class) time fields,
//! negative memory, duplicate task ids and `u64`-overflowing sums.
//! Escaped task names outside the BMP must import and round-trip, and
//! unpaired `\u` surrogate escapes must be rejected cleanly. One
//! deliberately *broken* claim is checked via [`microcheck::check`]'s
//! panic-free entry point to pin the shrinker's minimal malformed
//! witness, so shrinking quality itself is under test.

use dts_core::CoreError;
use dts_workloads::families::{generate_trace, GeneratorConfig, WorkloadFamily};
use dts_workloads::format::{export_trace, import_trace};
use microcheck::{gens, prop_assert, property, Config};

/// A fixed valid exported file the corruption properties start from.
fn valid_json() -> String {
    let mut config = GeneratorConfig::new(WorkloadFamily::MdLike);
    config.n_tasks = 6;
    config.seed = 99;
    let trace = generate_trace(&config, 0).expect("seeded generation is infallible");
    export_trace(&trace).expect("generated traces export")
}

/// `true` iff the importer failed with a typed error (the only acceptable
/// outcomes for malformed input).
fn rejected_cleanly(json: &str) -> bool {
    matches!(
        import_trace(json),
        Err(CoreError::Serialization(_))
            | Err(CoreError::InvalidTrace(_))
            | Err(CoreError::InvalidExecutionModel(_))
    )
}

fn task_json(name: &str, comm: &str, comp: &str, mem: &str) -> String {
    format!(
        r#"{{"name": "{name}", "kind": "Contraction", "comm_micros": {comm}, "comp_micros": {comp}, "mem_bytes": {mem}}}"#
    )
}

fn file_json(tasks: &[String]) -> String {
    format!(
        r#"{{"format": "dts-trace", "version": 1, "kernel": "FUZZ", "rank": 0, "tasks": [{}]}}"#,
        tasks.join(", ")
    )
}

property! {
    /// Truncating a valid file at any byte offset yields a clean
    /// Serialization or InvalidTrace error — the parser never panics on
    /// and never accepts a prefix.
    fn truncated_files_are_rejected_cleanly(cut in gens::usize_in(0..=2047)) {
        let json = valid_json();
        if cut >= json.len() {
            // Beyond the end there is nothing to corrupt.
            return Ok(());
        }
        let truncated = &json[..cut];
        prop_assert!(
            rejected_cleanly(truncated),
            "truncation at byte {cut} was not rejected cleanly"
        );
    }

    /// Float time fields — including exponent forms that evaluate to
    /// IEEE infinity — are rejected as InvalidTrace, not cast or panicked
    /// on.
    fn float_times_are_rejected((mantissa, exp, field) in (
        gens::u64_in(0..=1000),
        gens::u64_in(1..=999),
        gens::usize_in(0..=1),
    )) {
        let float = format!("{mantissa}.5e{exp}");
        let (comm, comp) = if field == 0 { (float.as_str(), "1") } else { ("1", float.as_str()) };
        let json = file_json(&[task_json("t", comm, comp, "1")]);
        match import_trace(&json) {
            Err(CoreError::InvalidTrace(msg)) => prop_assert!(
                msg.contains("comm_micros") || msg.contains("comp_micros"),
                "message `{msg}` does not name the float field"
            ),
            other => prop_assert!(false, "float time accepted or mis-typed: {other:?}"),
        }
    }

    /// Negative memory (and negative times) are rejected with a message
    /// naming the negative value.
    fn negative_fields_are_rejected((value, field) in (
        gens::u64_in(1..=1_000_000),
        gens::usize_in(0..=2),
    )) {
        let negative = format!("-{value}");
        let (comm, comp, mem) = match field {
            0 => (negative.as_str(), "1", "1"),
            1 => ("1", negative.as_str(), "1"),
            _ => ("1", "1", negative.as_str()),
        };
        let json = file_json(&[task_json("t", comm, comp, mem)]);
        match import_trace(&json) {
            Err(CoreError::InvalidTrace(msg)) => prop_assert!(
                msg.contains("negative"),
                "message `{msg}` does not say the field is negative"
            ),
            other => prop_assert!(false, "negative field accepted or mis-typed: {other:?}"),
        }
    }

    /// Duplicate task ids anywhere in the task list are rejected, naming
    /// the duplicated id.
    fn duplicate_task_ids_are_rejected((n, dup_a, dup_b) in (
        gens::usize_in(2..=40),
        gens::usize_in(0..=39),
        gens::usize_in(0..=39),
    )) {
        let (dup_a, dup_b) = (dup_a % n, dup_b % n);
        if dup_a == dup_b {
            return Ok(());
        }
        let tasks: Vec<String> = (0..n)
            .map(|i| {
                // Give positions dup_a and dup_b the same id.
                let id = if i == dup_b { dup_a } else { i };
                task_json(&format!("task-{id}"), "1", "2", "3")
            })
            .collect();
        let json = file_json(&tasks);
        match import_trace(&json) {
            Err(CoreError::InvalidTrace(msg)) => prop_assert!(
                msg.contains("duplicate") && msg.contains(&format!("task-{dup_a}")),
                "message `{msg}` does not name duplicate `task-{dup_a}`"
            ),
            other => prop_assert!(false, "duplicate ids accepted or mis-typed: {other:?}"),
        }
    }

    /// Task lists whose summed times overflow u64 are rejected at import
    /// — and the same trace built in memory is rejected by
    /// `Trace::to_instance_scaled`, so the overflow can not reach the
    /// simulators through either door.
    fn overflowing_sums_are_rejected(n in gens::usize_in(2..=8)) {
        // Each task alone is representable; together they overflow.
        let per_task = u64::MAX / (n as u64 - 1);
        let tasks: Vec<String> = (0..n)
            .map(|i| task_json(&format!("big-{i}"), &format!("{}", per_task / 2), &format!("{}", per_task - per_task / 2), "1"))
            .collect();
        let json = file_json(&tasks);
        prop_assert!(
            matches!(import_trace(&json), Err(CoreError::InvalidTrace(_))),
            "overflowing import not rejected"
        );
        // The in-memory door: same values straight into a Trace.
        let mut trace = dts_chem::Trace::new("FUZZ", 0);
        for i in 0..n {
            trace.push(dts_chem::TraceTask {
                name: &format!("big-{i}"),
                kind: dts_chem::trace::TaskKind::Contraction,
                comm_micros: per_task / 2,
                comp_micros: per_task - per_task / 2,
                mem_bytes: 1,
            });
        }
        prop_assert!(
            matches!(trace.to_instance_scaled(1.0), Err(CoreError::InvalidTrace(_))),
            "overflowing to_instance_scaled not rejected"
        );
    }
}

/// `\uXXXX\uXXXX` escape of a code point outside the BMP, as a UTF-16
/// surrogate pair.
fn surrogate_escape(code_point: u32) -> String {
    let offset = code_point - 0x10000;
    format!(
        "\\u{:04x}\\u{:04x}",
        0xD800 + (offset >> 10),
        0xDC00 + (offset & 0x3FF)
    )
}

property! {
    /// Task names outside the BMP, written as surrogate-pair escapes (as
    /// other tools emit them), import as the one character they encode and
    /// round-trip through export.
    fn escaped_non_bmp_names_import_and_round_trip(code_point in gens::u64_in(0x10000..=0x10FFFF)) {
        let code_point = code_point as u32;
        let Some(c) = char::from_u32(code_point) else {
            return Ok(());
        };
        let name = format!("k{}(1)", surrogate_escape(code_point));
        let json = file_json(&[task_json(&name, "1", "2", "3")]);
        let trace = match import_trace(&json) {
            Ok(trace) => trace,
            Err(e) => return Err(format!("escaped U+{code_point:X} rejected: {e:?}")),
        };
        prop_assert!(trace.task(0).name == format!("k{c}(1)"), "decoded {:?}", trace.task(0).name);
        let exported = export_trace(&trace).map_err(|e| format!("{e:?}"))?;
        prop_assert!(import_trace(&exported).ok() == Some(trace.clone()), "export/import changed the trace");
        prop_assert!(dts_chem::Trace::from_json(&json).ok() == Some(trace), "trace loader disagrees");
    }

    /// Lone, reversed and doubled surrogate escapes are rejected with a
    /// typed error by both the importer and the trace loader.
    fn unpaired_surrogates_are_rejected_cleanly((unit, shape) in (
        gens::u64_in(0xD800..=0xDFFF),
        gens::usize_in(0..=3),
    )) {
        let high = 0xD800 | (unit & 0x3FF);
        let low = 0xDC00 | (unit & 0x3FF);
        let escape = match shape {
            0 => format!("\\u{unit:04x}"),
            1 => format!("\\u{unit:04x}x"),
            2 => format!("\\u{low:04x}\\u{high:04x}"),
            _ => format!("\\u{high:04x}\\u{high:04x}"),
        };
        let json = file_json(&[task_json(&format!("t{escape}"), "1", "2", "3")]);
        prop_assert!(rejected_cleanly(&json), "unpaired surrogate `{escape}` not rejected cleanly");
        prop_assert!(
            matches!(dts_chem::Trace::from_json(&json), Err(CoreError::Serialization(_))),
            "trace loader accepted or mis-typed `{escape}`"
        );
    }
}

/// The broken-claim shrinker test: deliberately claim that a file whose
/// tasks all share one name imports fine. The claim holds for 0 or 1
/// tasks and breaks at 2, so the shrinker must walk any drawn failure
/// down to the minimal malformed witness: exactly two identically-named
/// tasks.
#[test]
fn broken_duplicate_claim_shrinks_to_two_tasks() {
    let gen = gens::usize_in(0..=64);
    let failure = microcheck::check(&Config::default(), &gen, |&n| {
        let tasks: Vec<String> = (0..n).map(|_| task_json("same", "1", "1", "1")).collect();
        let json = file_json(&tasks);
        microcheck::prop_assert!(import_trace(&json).is_ok(), "rejected a {n}-task file");
        Ok(())
    })
    .expect_err("files with duplicate ids must not all import");
    assert_eq!(
        failure.minimal, 2,
        "minimal malformed witness is two identically-named tasks"
    );
    assert!(failure.original >= 2);
}
