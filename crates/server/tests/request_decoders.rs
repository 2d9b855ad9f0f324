//! Differential test pinning the two request decoders together.
//!
//! The daemon decodes request frames with `decode_request`, which scans
//! the payload with `serde_json::Reader` and decodes the inline trace with
//! `Trace::from_json`; `parse_request` reads a request already parsed into
//! a `Value` tree (`serde_json::from_str::<Value>` first). For every input
//! below the two must agree: the same error code and message, or for an
//! accepted request the same task count, heuristic, model, factor and
//! cache digest.

use dts_chem::ccsd::generate_ccsd_trace;
use dts_chem::hf::generate_hf_trace;
use dts_chem::SuiteConfig;
use dts_server::protocol::request_to_value;
use dts_server::{decode_request, parse_request, ErrorCode, ErrorReply, SolveRequest, TraceSource};
use serde::Value;

/// What a decoder made of a payload: the solve-relevant parts of an
/// accepted request, or the code of the reply refusing it.
#[derive(Debug, PartialEq)]
enum Outcome {
    Accepted {
        task_count: usize,
        heuristic: &'static str,
        model: Option<String>,
        factor_bits: u64,
        digest: String,
    },
    Refused(ErrorCode, String),
}

fn outcome(decoded: Result<SolveRequest, ErrorReply>) -> Outcome {
    match decoded {
        Ok(req) => Outcome::Accepted {
            task_count: req.task_count(),
            heuristic: req.heuristic.name(),
            model: req.model.map(|m| m.to_string()),
            factor_bits: req.factor.to_bits(),
            digest: req.digest().to_string(),
        },
        Err(reply) => Outcome::Refused(reply.code, reply.message),
    }
}

/// The tree path, as the daemon took it (and worded its `bad-frame`
/// replies) before frames were decoded on the scanner.
fn tree(payload: &[u8]) -> Result<SolveRequest, ErrorReply> {
    let bad_frame = |msg: String| ErrorReply::new(ErrorCode::BadFrame, msg);
    let text = std::str::from_utf8(payload)
        .map_err(|e| bad_frame(format!("payload is not UTF-8: {e}")))?;
    let value: Value = serde_json::from_str(text)
        .map_err(|e| bad_frame(format!("payload is not valid JSON: {e}")))?;
    parse_request(&value)
}

/// The two decoders' common outcome on `payload`; panics when they differ.
fn agree(payload: &[u8]) -> Outcome {
    let frame = outcome(decode_request(payload));
    let tree = outcome(tree(payload));
    assert_eq!(
        frame,
        tree,
        "decoders disagree on {:?}",
        String::from_utf8_lossy(payload)
    );
    frame
}

fn accepted(payload: &str) -> Outcome {
    let verdict = agree(payload.as_bytes());
    assert!(
        matches!(verdict, Outcome::Accepted { .. }),
        "{payload:.300}: {verdict:?}"
    );
    verdict
}

fn refused(payload: &str, code: ErrorCode) {
    let verdict = agree(payload.as_bytes());
    assert!(
        matches!(&verdict, Outcome::Refused(c, _) if *c == code),
        "{payload:.300}: {verdict:?}"
    );
}

/// A paper-rank inline request: the smallest CCSD rank of the paper's
/// 150-rank topology (323 tasks, about 40 KB rendered).
fn paper_request() -> SolveRequest {
    let suite = SuiteConfig::default();
    let trace = generate_ccsd_trace(&suite.ccsd, suite.topology, suite.transfer, suite.cost, 42);
    SolveRequest {
        source: TraceSource::Inline(trace),
        heuristic: dts_heuristics::Heuristic::from_name("OOLCMR").unwrap(),
        model: None,
        cost_model: None,
        factor: 1.5,
    }
}

fn compact(req: &SolveRequest) -> String {
    serde_json::to_string(&request_to_value(req)).unwrap()
}

/// A small inline trace, as JSON text.
const TRACE: &str = r#"{"kernel": "K", "rank": 1, "tasks": [{"name": "t", "kind": "Contraction", "comm_micros": 4, "comp_micros": 2, "mem_bytes": 8}]}"#;

/// Another valid trace, keyed apart from [`TRACE`].
const OTHER_TRACE: &str = r#"{"kernel": "K", "rank": 2, "tasks": []}"#;

/// A trace the decoder refuses (no `kernel`), with valid syntax.
const BAD_TRACE: &str = r#"{"rank": 1, "tasks": []}"#;

/// A regression model file with a `d2h` transfer entry beside `h2d`; the
/// system has one link, so the importer refuses it.
const TWO_LINK_MODEL: &str = r#"{"format": "dts-cost-model", "version": 1, "backend": "regression", "transfer": [{"link": "h2d", "alpha_us": 1, "beta_ps_per_byte": 1, "samples": 1}, {"link": "d2h", "alpha_us": 1, "beta_ps_per_byte": 1, "samples": 1}], "compute": [{"backend": "cpu", "alpha_us": 1, "beta_ps_per_byte": 1, "samples": 1}]}"#;

#[test]
fn every_truncation_agrees() {
    let payload = compact(&paper_request());
    let full = accepted(&payload);
    assert!(matches!(
        full,
        Outcome::Accepted {
            task_count: 323,
            ..
        }
    ));
    // About 800 MB of scanning per decoder: split over two threads.
    let threads = 2;
    std::thread::scope(|scope| {
        for first in 0..threads {
            let payload = &payload;
            scope.spawn(move || {
                for cut in (first..payload.len()).step_by(threads) {
                    refused(&payload[..cut], ErrorCode::BadFrame);
                }
            });
        }
    });
}

#[test]
fn single_byte_corruptions_agree() {
    let payload = compact(&paper_request()).into_bytes();
    // JSON-significant bytes, a letter of every kind name and keyword,
    // and a byte that breaks UTF-8.
    let with = b"{}[],:\"\\-.eE+0 19anulCT\x80";
    let mut state = 0x5eed_u64;
    let mut next = || {
        // SplitMix64.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut classes = std::collections::BTreeSet::new();
    for _ in 0..512 {
        let mut bytes = payload.clone();
        let at = (next() % bytes.len() as u64) as usize;
        bytes[at] = with[(next() % with.len() as u64) as usize];
        classes.insert(match agree(&bytes) {
            Outcome::Accepted { .. } => "accepted",
            Outcome::Refused(code, _) => code.as_str(),
        });
    }
    // The corpus reaches past the syntax checks.
    assert!(classes.len() >= 3, "{classes:?}");
}

#[test]
fn pretty_and_reordered_payloads_key_alike() {
    let req = paper_request();
    let canonical = accepted(&compact(&req));
    let pretty = serde_json::to_string_pretty(&request_to_value(&req)).unwrap();
    assert_eq!(accepted(&pretty), canonical);
    // Members in reverse order, at the request and trace levels.
    let reversed = |value: Value| match value {
        Value::Object(mut fields) => {
            fields.reverse();
            Value::Object(fields)
        }
        other => other,
    };
    let reordered = match request_to_value(&req) {
        Value::Object(fields) => Value::Object(
            fields
                .into_iter()
                .rev()
                .map(|(k, v)| (k, reversed(v)))
                .collect(),
        ),
        other => other,
    };
    assert_eq!(
        accepted(&serde_json::to_string(&reordered).unwrap()),
        canonical
    );
    // More whitespace between tokens: pretty output breaks lines only
    // there, since strings escape their newlines.
    let spaced = format!(" \r\n\t{} \n", pretty.replace('\n', "\r\n \t "));
    assert_eq!(accepted(&spaced), canonical);
}

#[test]
fn the_first_of_duplicate_keys_wins() {
    let first = accepted(&format!(r#"{{"heuristic": "OS", "trace": {TRACE}}}"#));
    let dup = |body: &str| format!("{{{body}}}");
    // A later duplicate is skipped, even when it would be refused...
    for body in [
        format!(r#""heuristic": "OS", "trace": {TRACE}, "trace": {BAD_TRACE}"#),
        format!(r#""heuristic": "OS", "trace": {TRACE}, "trace": null"#),
        format!(r#""heuristic": "OS", "heuristic": "NOPE", "trace": {TRACE}"#),
        format!(r#""heuristic": "OS", "trace": {TRACE}, "heuristic": 7"#),
        format!(r#""heuristic": "OS", "factor": 1, "trace": {TRACE}, "factor": -1"#),
        format!(r#""heuristic": "OS", "trace": {TRACE}, "trace": {OTHER_TRACE}"#),
    ] {
        assert_eq!(accepted(&dup(&body)), first, "{body}");
    }
    // ...but its syntax is still checked...
    refused(
        &dup(&format!(
            r#""heuristic": "OS", "trace": {TRACE}, "trace": [1,]"#
        )),
        ErrorCode::BadFrame,
    );
    // ...and the first occurrence decides, even when a valid one follows.
    refused(
        &dup(&format!(
            r#""heuristic": "OS", "trace": {BAD_TRACE}, "trace": {TRACE}"#
        )),
        ErrorCode::InvalidTrace,
    );
    refused(
        &dup(&format!(
            r#""heuristic": "NOPE", "heuristic": "OS", "trace": {TRACE}"#
        )),
        ErrorCode::UnknownHeuristic,
    );
    refused(
        &dup(&format!(
            r#""heuristic": 7, "heuristic": "OS", "trace": {TRACE}"#
        )),
        ErrorCode::BadRequest,
    );
    assert_ne!(
        accepted(&dup(&format!(
            r#""heuristic": "OS", "trace": {OTHER_TRACE}, "trace": {TRACE}"#
        ))),
        first
    );
}

#[test]
fn unknown_keys_are_skipped_with_their_syntax_checked() {
    let plain = accepted(&format!(r#"{{"heuristic": "OS", "trace": {TRACE}}}"#));
    for extra in [
        r#""x": null"#,
        r#""x": [1, -2, 3.5e-1, 1e400, {"y": "😀"}]"#,
        r#""Trace": 1, "HEURISTIC": "NOPE""#,
        r#""trace_": {}"#,
    ] {
        assert_eq!(
            accepted(&format!(
                r#"{{{extra}, "heuristic": "OS", "trace": {TRACE}, {extra}}}"#
            )),
            plain,
            "{extra}"
        );
    }
    for broken in [r#""x": [1,]"#, r#""x": tru"#, r#""x": "\q""#, r#""x" 1"#] {
        refused(
            &format!(r#"{{"heuristic": "OS", "trace": {TRACE}, {broken}}}"#),
            ErrorCode::BadFrame,
        );
    }
    // Escaped keys name the same members.
    assert_eq!(
        accepted(&format!(
            r#"{{"h\u0065uristic": "OS", "tr\u0061ce": {TRACE}}}"#
        )),
        plain
    );
}

#[test]
fn a_later_syntax_error_outranks_every_schema_error() {
    for body in [
        r#""heuristic": "OS", "trace": null"#.to_string(),
        format!(r#""heuristic": "OS", "trace": {BAD_TRACE}"#),
        format!(r#""heuristic": "NOPE", "trace": {TRACE}"#),
        format!(r#""trace": {TRACE}"#),
        format!(r#""heuristic": "OS", "trace": {TRACE}, "family": {{}}"#),
        format!(r#""heuristic": "OS", "model": "warp", "trace": {TRACE}"#),
    ] {
        let valid = format!("{{{body}}}");
        assert!(matches!(agree(valid.as_bytes()), Outcome::Refused(..)));
        for tail in [r#", "x": [1,]}"#, ", }", "} x", "}}", ",", ""] {
            refused(&format!("{{{body}{tail}"), ErrorCode::BadFrame);
        }
    }
}

#[test]
fn null_and_mistyped_traces_are_invalid_traces() {
    for trace in ["null", "[]", "1", r#""trace""#, "{}", BAD_TRACE] {
        refused(
            &format!(r#"{{"heuristic": "OS", "trace": {trace}}}"#),
            ErrorCode::InvalidTrace,
        );
    }
}

#[test]
fn trailing_bytes_and_non_objects_agree() {
    let payload = format!(r#"{{"heuristic": "OS", "trace": {TRACE}}}"#);
    let plain = accepted(&payload);
    assert_eq!(accepted(&format!(" \n\t{payload}\r\n ")), plain);
    for tail in [" x", "{}", ",", "]", "\"\"", "0", "\u{0}"] {
        refused(&format!("{payload}{tail}"), ErrorCode::BadFrame);
    }
    for doc in [
        "[1,2,3]",
        "[]",
        "null",
        "true",
        "1",
        "-0.5",
        "\"heuristic\"",
    ] {
        refused(doc, ErrorCode::BadRequest);
        refused(&format!(" {doc} "), ErrorCode::BadRequest);
    }
    for doc in ["", " ", "[1,2,", "nul", "\"open", "{", "}", "{\"a\"}"] {
        refused(doc, ErrorCode::BadFrame);
    }
    assert!(matches!(
        agree(b"{\"heuristic\": \"OS\xff\"}"),
        Outcome::Refused(ErrorCode::BadFrame, _)
    ));
}

#[test]
fn schema_violations_agree() {
    let family = r#"{"family": "md", "n_tasks": 8, "seed": 3}"#;
    accepted(&format!(r#"{{"heuristic": "OS", "family": {family}}}"#));
    accepted(&format!(
        r#"{{"heuristic": "OS", "family": {family}, "model": "streams:2", "factor": 2, "cost_model": "analytic"}}"#
    ));
    for (body, code) in [
        (String::new(), ErrorCode::BadRequest),
        (r#""heuristic": "OS""#.to_string(), ErrorCode::BadRequest),
        (
            format!(r#""heuristic": "OS", "trace": {TRACE}, "family": {family}"#),
            ErrorCode::BadRequest,
        ),
        (
            format!(r#""heuristic": "OS", "trace": null, "family": {family}"#),
            ErrorCode::BadRequest,
        ),
        (format!(r#""trace": {TRACE}"#), ErrorCode::BadRequest),
        (
            format!(r#""heuristic": "NOPE", "trace": {BAD_TRACE}"#),
            ErrorCode::UnknownHeuristic,
        ),
        (
            format!(r#""heuristic": "OS", "model": "warp", "trace": {BAD_TRACE}"#),
            ErrorCode::InvalidModel,
        ),
        (
            format!(r#""heuristic": "OS", "model": 2, "trace": {TRACE}"#),
            ErrorCode::BadRequest,
        ),
        (
            format!(r#""heuristic": "OS", "cost_model": "warp", "trace": {BAD_TRACE}"#),
            ErrorCode::InvalidCostModel,
        ),
        (
            format!(r#""heuristic": "OS", "cost_model": {TWO_LINK_MODEL}, "trace": {BAD_TRACE}"#),
            ErrorCode::InvalidCostModel,
        ),
        (
            format!(r#""heuristic": "OS", "factor": -1, "trace": {BAD_TRACE}"#),
            ErrorCode::BadRequest,
        ),
        (
            format!(r#""heuristic": "OS", "factor": "1", "trace": {TRACE}"#),
            ErrorCode::BadRequest,
        ),
        (
            r#""heuristic": "OS", "family": {"family": "nope"}"#.to_string(),
            ErrorCode::BadRequest,
        ),
        (
            r#""heuristic": "OS", "family": {"family": "md", "n_tasks": -1}"#.to_string(),
            ErrorCode::BadRequest,
        ),
        (
            r#""heuristic": "OS", "family": []"#.to_string(),
            ErrorCode::BadRequest,
        ),
    ] {
        refused(&format!("{{{body}}}"), code);
    }
}

#[test]
fn hf_paper_ranks_decode_alike() {
    let suite = SuiteConfig::default();
    for rank in [0, 39, 110, 149] {
        let trace = generate_hf_trace(&suite.hf, suite.topology, suite.transfer, suite.cost, rank);
        let mut req = paper_request();
        req.source = TraceSource::Inline(trace);
        let verdict = accepted(&compact(&req));
        assert!(matches!(verdict, Outcome::Accepted { task_count, .. } if task_count > 400));
    }
}
