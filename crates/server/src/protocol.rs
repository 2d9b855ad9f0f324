//! Wire protocol of the scheduling daemon.
//!
//! Every message — request or response — is one *frame*: a 4-byte
//! big-endian payload length followed by that many bytes of UTF-8 JSON.
//! The framing layer enforces a payload ceiling so a hostile or buggy
//! client cannot make the daemon buffer an unbounded body; an oversized
//! frame is *drained* from the socket (bounded, chunked reads into a
//! throwaway buffer) and answered with a typed error, leaving the
//! connection usable for the next frame.
//!
//! A request selects the instance either **inline** (a full trace object
//! under `"trace"`) or **by corpus family** (a generator spec under
//! `"family"`), plus the heuristic to run and optional execution-model,
//! cost-model and capacity-factor overrides:
//!
//! ```json
//! {"family": {"family": "dense-la", "n_tasks": 64, "seed": 7, "rank": 0},
//!  "heuristic": "DOCPS", "model": "streams:2", "factor": 1.5}
//! ```
//!
//! The optional `"cost_model"` field carries either a full inline
//! dts-cost-model object or the literal string `"analytic"`; it overrides
//! whatever cost model the trace embeds (with `"analytic"` forcing the
//! trace's native durations) and is part of the cache key.
//!
//! The daemon decodes a frame with [`decode_request`], without a `Value`
//! tree of the whole request; [`parse_request`] takes a request already
//! parsed into a tree and gives the same verdicts. The cache key
//! ([`SolveRequest::digest`]) covers the decoded request — the inline
//! trace's typed fields or the family spec, factor, heuristic, model and
//! cost model — not the payload's spelling of it.
//!
//! Responses are either `{"status":"ok", "cached":…, "digest":…,
//! "result":…}` or `{"status":"error", "code":…, "message":…}`. Every
//! failure the daemon can detect maps to a stable machine-readable
//! [`ErrorCode`]; connections are never dropped in lieu of an error
//! reply.

use dts_chem::Trace;
use dts_core::error::CoreError;
use dts_core::hash::{Digest128, StableHasher};
use dts_core::perfmodel::CostModelSpec;
use dts_core::ExecutionModel;
use dts_heuristics::Heuristic;
use dts_workloads::{GeneratorConfig, WorkloadFamily};
use serde::{Deserialize, Serialize, Sink, Value};
use serde_json::Reader;
use std::fmt;
use std::io::{self, Read, Write};

/// Frame header size: a `u32` payload length in network byte order.
pub const FRAME_HEADER_BYTES: usize = 4;

/// Stable machine-readable failure classes of the wire protocol.
///
/// The string form (see [`ErrorCode::as_str`]) is part of the protocol:
/// clients dispatch on it, so variants are append-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The payload was not a JSON object of the request shape.
    BadFrame,
    /// The frame length exceeded the server's payload ceiling.
    OversizedFrame,
    /// The request parsed as JSON but violated the schema (missing or
    /// conflicting fields, unknown family, non-finite factor, …).
    BadRequest,
    /// The `heuristic` name is not one of [`Heuristic::ALL`].
    UnknownHeuristic,
    /// The `model` string did not parse as an execution model.
    InvalidModel,
    /// The trace (inline or generated) was rejected by the core layer.
    InvalidTrace,
    /// The request names more tasks than the admission ceiling allows.
    TaskCeiling,
    /// The pending-request queue is full; retry later (load shed).
    QueueFull,
    /// The instance cannot be scheduled (e.g. a task exceeds capacity).
    Infeasible,
    /// Any other server-side failure.
    Internal,
    /// The `cost_model` spec was rejected by the dts-cost-model importer.
    InvalidCostModel,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::OversizedFrame => "oversized-frame",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownHeuristic => "unknown-heuristic",
            ErrorCode::InvalidModel => "invalid-model",
            ErrorCode::InvalidTrace => "invalid-trace",
            ErrorCode::TaskCeiling => "task-ceiling",
            ErrorCode::QueueFull => "queue-full",
            ErrorCode::Infeasible => "infeasible",
            ErrorCode::Internal => "internal",
            ErrorCode::InvalidCostModel => "invalid-cost-model",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed error reply: code plus human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorReply {
    /// Machine-readable failure class.
    pub code: ErrorCode,
    /// Human-readable detail (not part of the stable protocol).
    pub message: String,
}

impl ErrorReply {
    /// Builds a reply from a code and message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ErrorReply {
            code,
            message: message.into(),
        }
    }

    /// Classifies a core-layer error into a wire code.
    pub fn from_core(err: &CoreError) -> Self {
        let code = match err {
            CoreError::EmptyInstance | CoreError::InvalidTrace(_) => ErrorCode::InvalidTrace,
            CoreError::InvalidCapacityFactor(_) => ErrorCode::BadRequest,
            CoreError::InvalidExecutionModel(_) => ErrorCode::InvalidModel,
            CoreError::InvalidCostModel(_) => ErrorCode::InvalidCostModel,
            CoreError::TaskExceedsCapacity { .. } | CoreError::Infeasible(_) => {
                ErrorCode::Infeasible
            }
            _ => ErrorCode::Internal,
        };
        ErrorReply::new(code, err.to_string())
    }

    /// Renders the reply as a response JSON payload.
    pub fn to_json(&self) -> String {
        render(self)
    }
}

/// The error response: `status`, `code`, `message`.
impl Serialize for ErrorReply {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.begin_object(3);
        sink.field("status", "error");
        sink.field("code", self.code.as_str());
        sink.field("message", &self.message);
        sink.end_object();
    }
}

/// Renders an ok response around an already-rendered `result` payload.
///
/// The `result` string is spliced in verbatim, so a cache hit serves the
/// *exact bytes* of the cold solve — byte identity is structural, not a
/// property re-derived per request.
pub fn ok_response_json(result_json: &str, cached: bool, digest: Digest128) -> String {
    format!("{{\"status\":\"ok\",\"cached\":{cached},\"digest\":\"{digest}\",\"result\":{result_json}}}")
}

fn render(value: &impl Serialize) -> String {
    // The vendored renderer only fails on non-finite floats; protocol
    // values are strings, bools and integers, so this cannot trigger.
    serde_json::to_string(value).unwrap_or_else(|_| {
        "{\"status\":\"error\",\"code\":\"internal\",\"message\":\"render failure\"}".to_string()
    })
}

/// Where the instance of a request comes from.
#[derive(Debug, Clone)]
pub enum TraceSource {
    /// A full trace shipped in the request body.
    Inline(Trace),
    /// A deterministic corpus generator spec (family, size, seed, rank).
    Family {
        /// Generator configuration.
        config: GeneratorConfig,
        /// Process rank fed to the generator.
        rank: usize,
    },
}

/// A parsed, schema-valid scheduling request.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// Instance source: inline trace or generator spec.
    pub source: TraceSource,
    /// Heuristic to run.
    pub heuristic: Heuristic,
    /// Execution-model override; `None` follows the trace/instance default.
    pub model: Option<ExecutionModel>,
    /// Cost-model override; `None` follows whatever the trace embeds,
    /// `Some(Analytic)` forces the trace's native durations.
    pub cost_model: Option<CostModelSpec>,
    /// Memory-capacity factor (multiplies the minimum feasible capacity).
    pub factor: f64,
}

impl SolveRequest {
    /// Number of tasks the request names, for admission control. This is
    /// known *before* any generation or solving happens, so the ceiling
    /// check is O(1).
    pub fn task_count(&self) -> usize {
        match &self.source {
            TraceSource::Inline(trace) => trace.len(),
            TraceSource::Family { config, .. } => config.n_tasks,
        }
    }

    /// Content digest of the request: the cache key.
    ///
    /// Two requests get the same digest iff they name the same decoded
    /// trace (or generator spec), factor bits, heuristic, execution model
    /// and cost model — the exact inputs the solve depends on. How the
    /// payload spelled them (whitespace, key order, escapes, unknown keys)
    /// does not enter the key. An inline trace is hashed from its typed
    /// fields ([`Trace::hash_into`]) without rendering it; family specs
    /// hash their parameters rather than the generated trace, so a cache
    /// hit skips generation too.
    pub fn digest(&self) -> Digest128 {
        let mut h = StableHasher::new();
        match &self.source {
            TraceSource::Inline(trace) => {
                h.write_str("trace");
                trace.hash_into(&mut h);
            }
            TraceSource::Family { config, rank } => {
                h.write_str("family");
                h.write_str(config.family.name());
                h.write_u64(config.n_tasks as u64);
                h.write_u64(config.seed);
                match config.skew {
                    Some(s) => {
                        h.write_str("skew");
                        h.write_u64(s.to_bits());
                    }
                    None => h.write_str("no-skew"),
                }
                h.write_u64(*rank as u64);
            }
        }
        h.write_u64(self.factor.to_bits());
        h.write_str(self.heuristic.name());
        match self.model {
            Some(m) => h.write_str(&m.to_string()),
            None => h.write_str("-"),
        }
        match &self.cost_model {
            // Hash the canonical JSON rendering: two specs collide iff
            // they would materialize identical durations from the same
            // trace, which is exactly when sharing a cache entry is sound.
            Some(spec) => h.write_str(&render(spec)),
            None => h.write_str("-"),
        }
        h.finish()
    }
}

/// Decodes a request frame payload into a [`SolveRequest`]: the daemon's
/// path from frame bytes to request.
///
/// The payload is scanned with [`serde_json::Reader`], without a `Value`
/// tree of the whole request: the `trace` member's text is captured as is
/// and decoded by [`Trace::from_json`], the decoder of trace files, and
/// the other members become small `Value`s checked by the schema rules of
/// [`parse_request`]. Verdicts, error replies and digests equal those of
/// `serde_json::from_str::<Value>` followed by [`parse_request`]: the
/// first of duplicate keys wins, unknown keys are skipped with their
/// syntax checked, and a syntax error anywhere is `bad-frame` before any
/// schema check runs.
///
/// # Errors
///
/// `bad-frame` for a payload that is not UTF-8 JSON, and otherwise the
/// typed [`ErrorReply`] of [`parse_request`].
pub fn decode_request(payload: &[u8]) -> Result<SolveRequest, ErrorReply> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| ErrorReply::new(ErrorCode::BadFrame, format!("payload is not UTF-8: {e}")))?;
    let (members, trace) = scan_request(text).map_err(|e| {
        ErrorReply::new(
            ErrorCode::BadFrame,
            format!("payload is not valid JSON: {e}"),
        )
    })?;
    parse_members(&members, trace.map(InlineTrace::Json))
}

/// Checks the syntax of the whole payload and splits its members: the
/// first `trace` as its JSON text (later ones are skipped), every other
/// member into a `Value` object, where [`Value::field`] finds the first
/// of duplicate keys as it does in a whole tree. A payload that is valid
/// JSON but not an object yields no members, so [`parse_members`] refuses
/// it as it refuses such a tree.
fn scan_request(text: &str) -> serde_json::Result<(Value, Option<&str>)> {
    let mut r = Reader::new(text);
    let mut members = Vec::new();
    let mut trace = None;
    if text
        .trim_start_matches([' ', '\t', '\n', '\r'])
        .starts_with('{')
    {
        r.object(|r, key| {
            if key != "trace" {
                members.push((key.into_owned(), r.value()?));
            } else if trace.is_none() {
                trace = Some(r.raw_value()?);
            } else {
                r.skip()?;
            }
            Ok(())
        })?;
    } else {
        r.skip()?;
    }
    r.finish()?;
    Ok((Value::Object(members), trace))
}

/// A request's `trace` member, as the decoder found it.
enum InlineTrace<'a> {
    /// A subtree of a request parsed into a `Value` tree.
    Tree(&'a Value),
    /// The member's JSON text inside a request frame.
    Json(&'a str),
}

impl InlineTrace<'_> {
    fn decode(self) -> Result<Trace, ErrorReply> {
        let decoded = match self {
            InlineTrace::Tree(value) => Trace::from_value(value).map_err(|e| e.to_string()),
            InlineTrace::Json(json) => Trace::from_json(json).map_err(|e| {
                // A refusal keeps the tree decoder's wording, which has no
                // byte offsets, so error replies read as they did before
                // frames were scanned. The member's syntax is already
                // checked, so its tree parses.
                let tree = serde_json::from_str::<Value>(json).ok();
                match tree.and_then(|value| Trace::from_value(&value).err()) {
                    Some(tree_error) => tree_error.to_string(),
                    None => e.to_string(),
                }
            }),
        };
        decoded.map_err(|e| ErrorReply::new(ErrorCode::InvalidTrace, format!("invalid trace: {e}")))
    }
}

/// Parses a request payload (already JSON-decoded) into a [`SolveRequest`].
///
/// # Errors
///
/// A typed [`ErrorReply`] for every schema violation: the caller sends it
/// on the wire instead of solving.
pub fn parse_request(value: &Value) -> Result<SolveRequest, ErrorReply> {
    parse_members(value, value.field("trace").ok().map(InlineTrace::Tree))
}

/// The schema rules of a request, over its non-trace members in `value`
/// and its `trace` member, if any, decoded only once every other check
/// has passed.
fn parse_members(
    value: &Value,
    inline: Option<InlineTrace<'_>>,
) -> Result<SolveRequest, ErrorReply> {
    let bad = |msg: String| ErrorReply::new(ErrorCode::BadRequest, msg);

    let heuristic_name: String = match value.field("heuristic") {
        Ok(v) => Deserialize::from_value(v)
            .map_err(|e| bad(format!("field 'heuristic' must be a string: {e}")))?,
        Err(_) => return Err(bad("missing required field 'heuristic'".to_string())),
    };
    let heuristic = Heuristic::from_name(&heuristic_name).ok_or_else(|| {
        ErrorReply::new(
            ErrorCode::UnknownHeuristic,
            format!("unknown heuristic '{heuristic_name}'"),
        )
    })?;

    let model = match value.field("model") {
        Ok(v) => {
            let spec: String = Deserialize::from_value(v)
                .map_err(|e| bad(format!("field 'model' must be a string: {e}")))?;
            Some(ExecutionModel::parse(&spec).map_err(|e| {
                ErrorReply::new(ErrorCode::InvalidModel, format!("invalid model: {e}"))
            })?)
        }
        Err(_) => None,
    };

    let cost_model = match value.field("cost_model") {
        Ok(v) => Some(CostModelSpec::from_value(v).map_err(|e| {
            ErrorReply::new(
                ErrorCode::InvalidCostModel,
                format!("invalid cost model: {e}"),
            )
        })?),
        Err(_) => None,
    };

    let factor = match value.field("factor") {
        Ok(v) => {
            f64::from_value(v).map_err(|e| bad(format!("field 'factor' must be a number: {e}")))?
        }
        Err(_) => 1.0,
    };
    if !factor.is_finite() || factor < 0.0 {
        return Err(bad(format!(
            "capacity factor must be finite and non-negative, got {factor}"
        )));
    }

    let family = value.field("family").ok();
    let source = match (inline, family) {
        (Some(_), Some(_)) => {
            return Err(bad(
                "request must name exactly one of 'trace' or 'family', not both".to_string(),
            ))
        }
        (None, None) => {
            return Err(bad(
                "request must name exactly one of 'trace' or 'family'".to_string()
            ))
        }
        (Some(inline), None) => TraceSource::Inline(inline.decode()?),
        (None, Some(spec)) => {
            let family_name: String = match spec.field("family") {
                Ok(v) => Deserialize::from_value(v)
                    .map_err(|e| bad(format!("family 'family' must be a string: {e}")))?,
                Err(_) => return Err(bad("family spec is missing field 'family'".to_string())),
            };
            let family = WorkloadFamily::from_name(&family_name)
                .ok_or_else(|| bad(format!("unknown workload family '{family_name}'")))?;
            let mut config = GeneratorConfig::new(family);
            if let Ok(v) = spec.field("n_tasks") {
                config.n_tasks = Deserialize::from_value(v)
                    .map_err(|e| bad(format!("family 'n_tasks' must be an integer: {e}")))?;
            }
            if let Ok(v) = spec.field("seed") {
                config.seed = Deserialize::from_value(v)
                    .map_err(|e| bad(format!("family 'seed' must be an integer: {e}")))?;
            }
            if let Ok(v) = spec.field("skew") {
                let skew = f64::from_value(v)
                    .map_err(|e| bad(format!("family 'skew' must be a number: {e}")))?;
                config.skew = Some(skew);
            }
            let rank: usize = match spec.field("rank") {
                Ok(v) => Deserialize::from_value(v)
                    .map_err(|e| bad(format!("family 'rank' must be an integer: {e}")))?,
                Err(_) => 0,
            };
            config
                .validate()
                .map_err(|e| bad(format!("invalid family spec: {e}")))?;
            TraceSource::Family { config, rank }
        }
    };

    Ok(SolveRequest {
        source,
        heuristic,
        model,
        cost_model,
        factor,
    })
}

/// Outcome of reading one frame.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete payload.
    Payload(Vec<u8>),
    /// The peer closed the connection cleanly before a new header.
    Eof,
    /// The announced length exceeded the ceiling; the body was drained
    /// and the connection is positioned at the next frame.
    Oversized(u64),
}

/// Reads one length-prefixed frame, enforcing `max_payload` bytes.
///
/// An announced length over the ceiling is consumed (in bounded chunks,
/// so memory stays O(chunk)) and reported as [`FrameRead::Oversized`] —
/// the caller can answer with a typed error and keep the connection.
///
/// # Errors
///
/// Propagates transport errors, including a connection cut mid-frame
/// (`UnexpectedEof`).
pub fn read_frame(reader: &mut impl Read, max_payload: usize) -> io::Result<FrameRead> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    match reader.read(&mut header)? {
        0 => return Ok(FrameRead::Eof),
        n => reader.read_exact(&mut header[n..])?,
    }
    let len = u64::from(u32::from_be_bytes(header));
    if len > max_payload as u64 {
        let mut sink = io::sink();
        io::copy(&mut reader.take(len), &mut sink)?;
        return Ok(FrameRead::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload)?;
    Ok(FrameRead::Payload(payload))
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates transport errors; payloads over `u32::MAX` bytes are
/// rejected as [`io::ErrorKind::InvalidInput`].
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame payload exceeds u32"))?;
    // One coalesced write per frame: splitting the 4-byte header and the
    // payload into separate segments makes Nagle hold the payload until
    // the peer's delayed ACK (~40 ms per frame on loopback).
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    writer.write_all(&frame)?;
    writer.flush()
}

/// A request's canonical JSON, which the client and the load generator
/// send (the server only parses): the trace or family spec, the
/// heuristic, the optional model and cost model, then the factor.
impl Serialize for SolveRequest {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        let optional = usize::from(self.model.is_some()) + usize::from(self.cost_model.is_some());
        sink.begin_object(3 + optional);
        match &self.source {
            TraceSource::Inline(trace) => sink.field("trace", trace),
            TraceSource::Family { config, rank } => {
                sink.key("family");
                sink.begin_object(4 + usize::from(config.skew.is_some()));
                sink.field("family", config.family.name());
                sink.field("n_tasks", &config.n_tasks);
                sink.field("seed", &config.seed);
                if let Some(skew) = config.skew {
                    sink.field("skew", &skew);
                }
                sink.field("rank", rank);
                sink.end_object();
            }
        }
        sink.field("heuristic", self.heuristic.name());
        if let Some(model) = self.model {
            sink.field("model", &model.to_string());
        }
        if let Some(cost_model) = &self.cost_model {
            sink.field("cost_model", cost_model);
        }
        sink.field("factor", &self.factor);
        sink.end_object();
    }
}

/// A request's canonical JSON as a tree: the `to_value` of its
/// [`Serialize`] impl.
pub fn request_to_value(req: &SolveRequest) -> Value {
    req.to_value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dts_chem::trace::TaskKind;
    use dts_chem::TraceTask;
    use dts_core::perfmodel::LinearFit;

    fn sample_cost_model() -> CostModelSpec {
        let fit = |alpha_us| LinearFit {
            alpha_us,
            beta_ps_per_byte: 2_000_000,
            samples: 4,
        };
        CostModelSpec::Regression {
            transfer: fit(10),
            compute: fit(5),
        }
    }

    fn family_request_value() -> Value {
        let spec = Value::Object(vec![
            ("family".to_string(), Value::Str("md".to_string())),
            ("n_tasks".to_string(), Value::UInt(8)),
            ("seed".to_string(), Value::UInt(3)),
        ]);
        Value::Object(vec![
            ("family".to_string(), spec),
            ("heuristic".to_string(), Value::Str("OS".to_string())),
        ])
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"a\":1}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = io::Cursor::new(buf);
        match read_frame(&mut cursor, 1 << 20).unwrap() {
            FrameRead::Payload(p) => assert_eq!(p, b"{\"a\":1}"),
            other => panic!("unexpected {other:?}"),
        }
        match read_frame(&mut cursor, 1 << 20).unwrap() {
            FrameRead::Payload(p) => assert!(p.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            read_frame(&mut cursor, 1 << 20).unwrap(),
            FrameRead::Eof
        ));
    }

    #[test]
    fn oversized_frames_are_drained_not_buffered() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0x5a; 256]).unwrap();
        write_frame(&mut buf, b"next").unwrap();
        let mut cursor = io::Cursor::new(buf);
        match read_frame(&mut cursor, 16).unwrap() {
            FrameRead::Oversized(len) => assert_eq!(len, 256),
            other => panic!("unexpected {other:?}"),
        }
        // The stream is positioned at the next frame.
        match read_frame(&mut cursor, 16).unwrap() {
            FrameRead::Payload(p) => assert_eq!(p, b"next"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn truncated_frame_is_a_transport_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"full payload").unwrap();
        buf.truncate(buf.len() - 3);
        let mut cursor = io::Cursor::new(buf);
        let err = read_frame(&mut cursor, 1 << 20).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn parse_accepts_family_requests_and_defaults() {
        let req = parse_request(&family_request_value()).unwrap();
        assert_eq!(req.heuristic.name(), "OS");
        assert_eq!(req.task_count(), 8);
        assert!(req.model.is_none());
        assert_eq!(req.factor, 1.0);
    }

    #[test]
    fn parse_rejects_schema_violations_with_typed_codes() {
        let cases: Vec<(Value, ErrorCode)> = vec![
            (Value::Object(vec![]), ErrorCode::BadRequest),
            (
                Value::Object(vec![(
                    "heuristic".to_string(),
                    Value::Str("NOPE".to_string()),
                )]),
                ErrorCode::UnknownHeuristic,
            ),
            (
                {
                    let mut v = family_request_value();
                    if let Value::Object(fields) = &mut v {
                        fields.push(("model".to_string(), Value::Str("warp-drive".to_string())));
                    }
                    v
                },
                ErrorCode::InvalidModel,
            ),
            (
                {
                    let mut v = family_request_value();
                    if let Value::Object(fields) = &mut v {
                        fields.push(("factor".to_string(), Value::Float(-1.0)));
                    }
                    v
                },
                ErrorCode::BadRequest,
            ),
            (
                Value::Object(vec![
                    ("heuristic".to_string(), Value::Str("OS".to_string())),
                    ("trace".to_string(), Value::Null),
                ]),
                ErrorCode::InvalidTrace,
            ),
        ];
        for (value, expected) in cases {
            let err = parse_request(&value).unwrap_err();
            assert_eq!(err.code, expected, "for {value:?}: {}", err.message);
        }
    }

    #[test]
    fn requests_stream_what_their_trees_render() {
        let plain_family = parse_request(&family_request_value()).unwrap();
        let mut family = plain_family.clone();
        if let TraceSource::Family { config, .. } = &mut family.source {
            config.skew = Some(1.25);
        }
        family.model = Some(ExecutionModel::IMPLICIT_FULL);
        family.cost_model = Some(CostModelSpec::Analytic);
        let mut inline = inline_request();
        inline.cost_model = Some(sample_cost_model());
        for req in [inline_request(), inline, plain_family, family] {
            let tree = request_to_value(&req);
            assert_eq!(serde_json::to_string(&req), serde_json::to_string(&tree));
            assert_eq!(
                serde_json::to_string_pretty(&req),
                serde_json::to_string_pretty(&tree)
            );
        }
    }

    fn inline_request() -> SolveRequest {
        SolveRequest {
            source: TraceSource::Inline({
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
            }),
            heuristic: Heuristic::from_name("OOLCMR").unwrap(),
            model: None,
            cost_model: None,
            factor: 1.5,
        }
    }

    fn inline_trace(req: &mut SolveRequest) -> &mut Trace {
        match &mut req.source {
            TraceSource::Inline(trace) => trace,
            TraceSource::Family { .. } => unreachable!("an inline request"),
        }
    }

    /// A trace row with its name owned, for editing.
    type Row = (String, TaskKind, u64, u64, u64);

    /// Rebuilds `trace` from its rows after `edit` changes them.
    fn edit_rows(trace: &mut Trace, edit: impl FnOnce(&mut Vec<Row>)) {
        let mut rows: Vec<Row> = trace
            .iter()
            .map(|t| {
                let name = t.name.to_string();
                (name, t.kind, t.comm_micros, t.comp_micros, t.mem_bytes)
            })
            .collect();
        edit(&mut rows);
        let mut rebuilt = Trace::new(trace.kernel.clone(), trace.rank);
        rebuilt.extend(rows.iter().map(|(name, kind, comm, comp, mem)| TraceTask {
            name,
            kind: *kind,
            comm_micros: *comm,
            comp_micros: *comp,
            mem_bytes: *mem,
        }));
        rebuilt.model = trace.model;
        rebuilt.cost_model = trace.cost_model.take();
        *trace = rebuilt;
    }

    #[test]
    fn digests_have_known_answers() {
        // Family keys are unchanged since the typed inline digest came in;
        // moving either answer changes which requests share a cache entry.
        let family = parse_request(&family_request_value()).unwrap();
        assert_eq!(
            family.digest().to_string(),
            "7053ca36c7dd0bf90cdb3ee3b11df609"
        );
        assert_eq!(
            inline_request().digest().to_string(),
            "f3d673a52da333a3da352ed9e8f18873"
        );
    }

    #[test]
    fn inline_digest_is_sensitive_to_every_trace_field() {
        let base = inline_request();
        let d0 = base.digest();
        type Edit = fn(&mut Trace);
        let edits: Vec<(&str, Edit)> = vec![
            ("kernel", |t| t.kernel.push('x')),
            ("rank", |t| t.rank += 1),
            ("task dropped", |t| edit_rows(t, |rows| drop(rows.pop()))),
            ("task order", |t| edit_rows(t, |rows| rows.swap(0, 1))),
            ("name", |t| edit_rows(t, |rows| rows[0].0.push('x'))),
            ("kind", |t| {
                edit_rows(t, |rows| rows[1].1 = TaskKind::Transpose)
            }),
            ("comm", |t| edit_rows(t, |rows| rows[0].2 += 1)),
            ("comp", |t| edit_rows(t, |rows| rows[0].3 += 1)),
            ("mem", |t| edit_rows(t, |rows| rows[1].4 = 176_129)),
            ("model", |t| {
                t.model = Some(ExecutionModel::Streams { k: 2 })
            }),
            ("cost model", |t| t.cost_model = Some(sample_cost_model())),
            // Length prefixes keep a byte from moving between strings.
            ("name boundary", |t| {
                edit_rows(t, |rows| {
                    let moved = rows[0].0.pop().unwrap();
                    rows[1].0.insert(0, moved);
                })
            }),
        ];
        let mut seen = vec![d0];
        for (what, edit) in edits {
            let mut other = base.clone();
            edit(inline_trace(&mut other));
            let d = other.digest();
            assert!(!seen.contains(&d), "{what} changes the key");
            seen.push(d);
        }
        // Streams counts and overlap efficiencies key apart.
        let mut a = base.clone();
        inline_trace(&mut a).model = Some(ExecutionModel::Streams { k: 3 });
        assert!(!seen.contains(&a.digest()), "streams:3 keys apart");
        let mut b = base.clone();
        inline_trace(&mut b).model = Some(ExecutionModel::IMPLICIT_FULL);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn inline_digest_ignores_how_the_payload_spells_the_trace() {
        let canonical = render(&request_to_value(&inline_request()));
        let want = decode_request(canonical.as_bytes()).unwrap().digest();
        assert_eq!(want, inline_request().digest());
        let spellings = [
            serde_json::to_string_pretty(&request_to_value(&inline_request())).unwrap(),
            // Key order, at both levels.
            r#"{"factor": 1.5, "heuristic": "OOLCMR", "trace": {"tasks": [
                {"mem_bytes": 160000, "comp_micros": 30, "comm_micros": 110,
                 "kind": "FusedTransposeContraction", "name": "fock(0,1)"},
                {"kind": "Contraction", "name": "fock(0,2)", "comm_micros": 95,
                 "comp_micros": 25, "mem_bytes": 176128}], "rank": 3, "kernel": "HF"}}"#
                .to_string(),
            // Escapes in keys and strings, and unknown keys at every level.
            canonical
                .replacen(
                    "\"kernel\":\"HF\"",
                    "\"k\\u0065rnel\":\"\\u0048F\",\"x\":[1]",
                    1,
                )
                .replacen("fock(0,1)", "fock(0\\u002c1)", 1)
                .replacen("\"rank\"", "\"unknown\":{\"a\":null},\"rank\"", 1)
                .replacen("{\"trace\"", "{\"note\":\"hi\",\"trace\"", 1),
            // A trace-level `"cost_model": "analytic"` and `"model": null`
            // decode as absent.
            canonical.replacen(
                "\"kernel\"",
                "\"model\":null,\"cost_model\":\"analytic\",\"kernel\"",
                1,
            ),
        ];
        for payload in spellings {
            let req = decode_request(payload.as_bytes())
                .unwrap_or_else(|e| panic!("{payload}: {}", e.message));
            assert_eq!(req.digest(), want, "{payload}");
        }
    }

    #[test]
    fn digest_is_stable_and_sensitive_to_every_input() {
        let base = parse_request(&family_request_value()).unwrap();
        let d0 = base.digest();
        assert_eq!(d0, base.digest(), "digest is deterministic");

        let mut other = base.clone();
        other.factor = 2.0;
        assert_ne!(d0, other.digest(), "factor changes the key");

        let mut other = base.clone();
        other.heuristic = Heuristic::from_name("GG").unwrap();
        assert_ne!(d0, other.digest(), "heuristic changes the key");

        let mut other = base.clone();
        other.model = Some(ExecutionModel::Duplex);
        assert_ne!(d0, other.digest(), "model changes the key");

        let mut other = base.clone();
        other.cost_model = Some(sample_cost_model());
        assert_ne!(d0, other.digest(), "cost model changes the key");

        let mut analytic = base.clone();
        analytic.cost_model = Some(CostModelSpec::Analytic);
        assert_ne!(
            other.digest(),
            analytic.digest(),
            "an analytic override keys differently from a fitted one"
        );

        let mut other = base.clone();
        if let TraceSource::Family { config, .. } = &mut other.source {
            config.seed += 1;
        }
        assert_ne!(d0, other.digest(), "seed changes the key");

        // The same request-level inputs key an inline request apart, and
        // an inline request never shares a key with a family one.
        let inline = inline_request();
        let i0 = inline.digest();
        assert_ne!(i0, d0, "inline and family requests key apart");
        let mut other = inline.clone();
        other.factor = 2.0;
        assert_ne!(i0, other.digest(), "factor changes an inline key");
        let mut other = inline.clone();
        other.heuristic = Heuristic::from_name("GG").unwrap();
        assert_ne!(i0, other.digest(), "heuristic changes an inline key");
        // A request-level model or cost model keys apart from the same
        // one embedded in the trace.
        let mut request_level = inline.clone();
        request_level.model = Some(ExecutionModel::Duplex);
        let mut trace_level = inline.clone();
        inline_trace(&mut trace_level).model = Some(ExecutionModel::Duplex);
        assert_ne!(i0, request_level.digest(), "model changes an inline key");
        assert_ne!(request_level.digest(), trace_level.digest());
        let mut request_level = inline.clone();
        request_level.cost_model = Some(sample_cost_model());
        let mut trace_level = inline;
        inline_trace(&mut trace_level).cost_model = Some(sample_cost_model());
        assert_ne!(
            i0,
            request_level.digest(),
            "cost model changes an inline key"
        );
        assert_ne!(
            request_level.digest(),
            trace_level.digest(),
            "a request-level cost model keys apart from the trace's own"
        );
    }

    #[test]
    fn request_value_round_trips_through_parse() {
        let mut req = parse_request(&family_request_value()).unwrap();
        let round = parse_request(&request_to_value(&req)).unwrap();
        assert_eq!(req.digest(), round.digest());

        // With both override kinds set, including the analytic keyword.
        req.model = Some(ExecutionModel::Duplex);
        req.cost_model = Some(sample_cost_model());
        let round = parse_request(&request_to_value(&req)).unwrap();
        assert_eq!(req.digest(), round.digest());

        req.cost_model = Some(CostModelSpec::Analytic);
        let round = parse_request(&request_to_value(&req)).unwrap();
        assert_eq!(req.digest(), round.digest());
        assert_eq!(round.cost_model, Some(CostModelSpec::Analytic));
    }

    #[test]
    fn parse_rejects_bad_cost_models_with_a_typed_code() {
        // A `d2h` entry beside `h2d`: the system has one link, so one
        // transfer entry.
        let two_links: Value =
            serde_json::from_str(&render(&sample_cost_model().to_value()).replacen(
                "\"transfer\":[",
                r#""transfer":[{"link":"d2h","alpha_us":1,"beta_ps_per_byte":1,"samples":1},"#,
                1,
            ))
            .unwrap();
        for (cost_model, needle) in [
            (Value::Str("warp-drive".to_string()), "warp-drive"),
            (two_links, "exactly one entry"),
        ] {
            let mut v = family_request_value();
            if let Value::Object(fields) = &mut v {
                fields.push(("cost_model".to_string(), cost_model));
            }
            let err = parse_request(&v).unwrap_err();
            assert_eq!(err.code, ErrorCode::InvalidCostModel);
            assert!(err.message.contains(needle), "{}", err.message);
        }
    }

    #[test]
    fn error_replies_render_typed_json() {
        let reply = ErrorReply::new(ErrorCode::QueueFull, "busy");
        let json = reply.to_json();
        let value: Value = serde_json::from_str(&json).unwrap();
        let status: String = Deserialize::from_value(value.field("status").unwrap()).unwrap();
        let code: String = Deserialize::from_value(value.field("code").unwrap()).unwrap();
        assert_eq!((status.as_str(), code.as_str()), ("error", "queue-full"));
    }
}
