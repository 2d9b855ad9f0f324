//! The scheduling daemon: accept loop, admission control, solving on the
//! connection thread.
//!
//! # Threading model
//!
//! * One **acceptor** thread owns the listening socket and spawns a
//!   connection thread per client.
//! * Each **connection** thread runs the frame loop: read a frame, decode
//!   ([`decode_request`]) and admit the request, answer it, write the
//!   response frame. A cache hit is answered straight from the
//!   [`SolveCache`]; a cold solve first takes a slot from the admission
//!   [`Gate`] and then runs on the connection thread itself. Protocol
//!   failures become typed error frames on the same connection — a
//!   client connection is never dropped in lieu of an error reply.
//!
//! There is no scheduler thread or worker pool: a reply waits only for
//! its own solve, never for another request's, and the gate's
//! [`ServerConfig::threads`] slots keep concurrent clients from
//! oversubscribing the machine with solves.
//!
//! # Admission control
//!
//! Three bounds keep memory use proportional to configuration, not to
//! offered load:
//!
//! * frames above [`ServerConfig::max_frame_bytes`] are drained and
//!   refused (`oversized-frame`) without buffering the payload;
//! * requests naming more than [`ServerConfig::max_tasks`] tasks are
//!   refused (`task-ceiling`) before any generation or solving;
//! * when [`ServerConfig::queue_depth`] cold solves are already admitted
//!   (running or waiting for a slot) a cold request is shed immediately
//!   (`queue-full`) instead of waiting — the client can retry, and
//!   latency of admitted requests stays bounded. Cache hits are never
//!   shed.
//!
//! [`ServerHandle::shutdown`] closes the gate: it waits for every
//! admitted solve, and later cold requests on still-open connections get
//! `queue-full` replies saying the daemon is shutting down.
//!
//! # Instance cache
//!
//! Requests are answered through a [`SolveCache`] keyed by the request
//! content digest ([`SolveRequest::digest`]). The cached value is the
//! *rendered* result JSON, so a repeat request returns the exact bytes
//! of the original solve, and concurrent identical requests solve
//! exactly once (the cache's cell lock serializes them; see
//! `dts_core::cache`). The gate sits inside the cache's solve closure, so
//! only the caller that actually solves takes a slot, and a shed request
//! leaves no cache entry behind.

use crate::protocol::{
    decode_request, ok_response_json, read_frame, write_frame, ErrorCode, ErrorReply, FrameRead,
    SolveRequest, TraceSource,
};
use dts_core::cache::{CacheStats, SolveCache};
use dts_core::error::{CoreError, Result as CoreResult};
use dts_core::gate::{Gate, Shed};
use dts_core::hash::Digest128;
use dts_core::metrics::ScheduleMetrics;
use dts_core::{ExecutionModel, Schedule};
use dts_heuristics::{run_heuristic, Heuristic};
use dts_workloads::generate_trace;
use serde::{Serialize, Sink};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Tunables of a [`Server`]. `Default` is sized for tests and small
/// deployments; the CLI exposes the load-bearing knobs as flags.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (the bound address is
    /// available from [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Cold solves running at once; 0 means the machine's available
    /// parallelism.
    pub threads: usize,
    /// Cold solves admitted at once, running or waiting for a slot;
    /// requests beyond it are shed (`queue-full`).
    pub queue_depth: usize,
    /// Per-request task-count ceiling (`task-ceiling` beyond it).
    pub max_tasks: usize,
    /// Frame payload ceiling in bytes (`oversized-frame` beyond it).
    pub max_frame_bytes: usize,
    /// Entry bound of the solved-instance cache (LRU eviction).
    pub cache_entries: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 0,
            queue_depth: 256,
            max_tasks: 65_536,
            max_frame_bytes: 4 << 20,
            cache_entries: 512,
        }
    }
}

struct Shared {
    config: ServerConfig,
    gate: Gate,
    cache: SolveCache<Digest128, Arc<str>>,
}

/// The daemon entry point. See the module docs for the threading model.
pub struct Server;

impl Server {
    /// Binds the listener and starts the acceptor thread.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(config.addr.as_str())?;
        let addr = listener.local_addr()?;
        let slots = match config.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let shared = Arc::new(Shared {
            gate: Gate::new(slots, config.queue_depth),
            cache: SolveCache::new(config.cache_entries),
            config,
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener))
        };
        Ok(ServerHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
        })
    }
}

/// A running daemon. Dropping the handle shuts the daemon down (admitted
/// solves finish first; open connections are still answered until their
/// clients disconnect — hits from the cache, cold requests with
/// `queue-full`).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the daemon actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counters of the solved-instance cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Stops admitting cold solves, waits for the admitted ones to
    /// finish, and stops the acceptor.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.shared.gate.close();
        // Unblock the acceptor: `incoming()` has no timeout, so poke it
        // with a throwaway connection that it drops on the shutdown check.
        let _ = TcpStream::connect(self.addr);
        let _ = acceptor.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if shared.gate.is_closed() {
            return;
        }
        if let Ok(stream) = stream {
            // Same rationale as the client side: request/response frames
            // are small, and Nagle turns each reply into a delayed-ACK
            // stall.
            let _ = stream.set_nodelay(true);
            let shared = Arc::clone(shared);
            std::thread::spawn(move || connection_loop(&shared, stream));
        }
    }
}

fn connection_loop(shared: &Shared, stream: TcpStream) {
    let mut reader = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut writer = stream;
    loop {
        let response = match read_frame(&mut reader, shared.config.max_frame_bytes) {
            Ok(FrameRead::Payload(payload)) => handle_payload(shared, &payload),
            Ok(FrameRead::Eof) => return,
            Ok(FrameRead::Oversized(len)) => ErrorReply::new(
                ErrorCode::OversizedFrame,
                format!(
                    "frame of {len} bytes exceeds the {}-byte ceiling",
                    shared.config.max_frame_bytes
                ),
            )
            .to_json(),
            // Transport failure mid-frame: the socket is gone or out of
            // sync; there is no well-formed peer left to answer.
            Err(_) => return,
        };
        if write_frame(&mut writer, response.as_bytes()).is_err() {
            return;
        }
    }
}

/// Decodes, admits and answers one request payload, always producing a
/// response payload (typed errors included).
fn handle_payload(shared: &Shared, payload: &[u8]) -> String {
    let request = match decode_request(payload) {
        Ok(request) => request,
        Err(reply) => return reply.to_json(),
    };
    if request.task_count() > shared.config.max_tasks {
        return ErrorReply::new(
            ErrorCode::TaskCeiling,
            format!(
                "request names {} tasks, per-request ceiling is {}",
                request.task_count(),
                shared.config.max_tasks
            ),
        )
        .to_json();
    }
    let digest = request.digest();
    // Only the caller that runs the solver takes a gate slot: a hit, or a
    // caller that waited for a concurrent identical solve, never does.
    let solved = shared.cache.get_or_solve(digest, || {
        let _slot = shared
            .gate
            .enter()
            .map_err(|shed| shed_reply(shed, shared.config.queue_depth))?;
        solve_contained(request).map(|json| Arc::from(json.as_str()))
    });
    match solved {
        Ok((payload, cached)) => ok_response_json(&payload, cached, digest),
        Err(reply) => reply.to_json(),
    }
}

fn shed_reply(shed: Shed, depth: usize) -> ErrorReply {
    let message = match shed {
        Shed::Full => format!("{depth} requests pending, queue depth is {depth}; retry later"),
        Shed::Closed => "the daemon is shutting down; no new solves are admitted".to_string(),
    };
    ErrorReply::new(ErrorCode::QueueFull, message)
}

/// [`solve_request`] with a panicking solve contained as an `internal`
/// reply, so its client is still answered and its gate slot released.
fn solve_contained(request: SolveRequest) -> Result<String, ErrorReply> {
    match catch_unwind(AssertUnwindSafe(|| solve_request(request))) {
        Ok(solved) => solved.map_err(|err| ErrorReply::from_core(&err)),
        Err(payload) => {
            let detail = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(ErrorReply::new(
                ErrorCode::Internal,
                format!("solver panicked: {detail}"),
            ))
        }
    }
}

/// Resolves the trace, builds the instance, runs the heuristic and
/// renders the result object. The rendered string is what the cache
/// stores, so repeats are byte-identical by construction. The request is
/// spent: its trace's task table moves into the instance.
fn solve_request(request: SolveRequest) -> CoreResult<String> {
    let mut trace = match request.source {
        TraceSource::Inline(trace) => trace,
        TraceSource::Family { config, rank } => generate_trace(&config, rank)?,
    };
    if let Some(spec) = &request.cost_model {
        // Cost-model override: a fitted spec replaces whatever the trace
        // embeds, and an explicit `analytic` clears it — both before the
        // trace materializes durations into an instance.
        trace.cost_model = (!spec.is_analytic()).then(|| spec.clone());
    }
    if let Some(model) = request.model {
        // Execution-model override, stamped the same way.
        trace.model = Some(model);
    }
    let instance = trace.into_instance_scaled(request.factor)?;
    let schedule = run_heuristic(&instance, request.heuristic)?;
    let metrics = ScheduleMetrics::of(&instance, &schedule);
    let result = SolveResult {
        heuristic: request.heuristic,
        model: instance.model(),
        metrics,
        schedule: &schedule,
    };
    serde_json::to_string(&result).map_err(|e| CoreError::Serialization(e.to_string()))
}

/// The result object of a cold solve: the heuristic, the model it ran
/// under, the task count, the metrics and the schedule.
struct SolveResult<'a> {
    heuristic: Heuristic,
    model: ExecutionModel,
    metrics: ScheduleMetrics,
    schedule: &'a Schedule,
}

impl Serialize for SolveResult<'_> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.begin_object(7);
        sink.field("heuristic", self.heuristic.name());
        sink.field("model", &self.model.to_string());
        sink.field("n_tasks", &self.schedule.len());
        sink.field("makespan_us", &self.metrics.makespan);
        sink.field("comm_idle_us", &self.metrics.comm_idle);
        sink.field("comp_idle_us", &self.metrics.comp_idle);
        sink.field("schedule", self.schedule);
        sink.end_object();
    }
}
