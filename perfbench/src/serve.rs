//! `serve_hits` and `serve_mixed`: the `dts serve` daemon, in process.
//!
//! The daemon runs at `ServerConfig::default()` on a loopback port-0
//! socket (with a smaller cache in `serve_mixed`, see
//! [`MIXED_CACHE_ENTRIES`]). Its hit requests are inline paper-rank traces (one HF or CCSD
//! rank of the 150-rank topology each, heuristic drawn from the seed)
//! over a fixed key set that set-up warms, so every timed hit is a cache
//! hit.
//!
//! * `serve_hits`: two connections send hits in a closed loop.
//! * `serve_mixed`: connection A sends the same hits in an open loop at
//!   [`HIT_RATE_PER_S`], timed from each request's due time; connection B
//!   sends cold 20k-task md family requests with fresh seeds in a closed
//!   loop. The latency metrics are A's; `bulk_latency_ms_p50` is B's.
//!
//! The traced run replays the daemon's per-request layers on the same
//! request bytes outside the daemon (`serde_json.parse`,
//! `server.request_parse`, `chem.decode`, `server.digest`, and for bulk
//! requests `workloads.generate` through `serde_json.render`), then sends
//! every replayed request once more to read exact cache counters.

use crate::span::Tracer;
use crate::sweep::{pick_ranks, run_span};
use crate::{
    alloc, host, median, mix, ms_since, quantile, record_end_to_end, record_host, record_layers,
    Ctx, Loop, Outcome,
};
use dts_chem::ccsd::generate_ccsd_trace;
use dts_chem::hf::generate_hf_trace;
use dts_chem::{SuiteConfig, Trace};
use dts_core::hash::StableHasher;
use dts_core::index::CandidateIndex;
use dts_core::metrics::ScheduleMetrics;
use dts_heuristics::{run_heuristic, Heuristic};
use dts_server::protocol::{ok_response_json, request_to_value};
use dts_server::TraceSource;
use dts_server::{parse_request, Client, Server, ServerConfig, ServerHandle, SolveRequest};
use dts_workloads::{generate_trace, GeneratorConfig, WorkloadFamily};
use serde::{Deserialize, Serialize, Value};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Which traffic mix to drive.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Hits,
    Mixed,
}

const KEYS: usize = 8;
const FACTOR: f64 = 1.5;
/// Open-loop rate of connection A in `serve_mixed`. A hit can wait for
/// up to two cold solves (the batch in flight and the next one), about
/// 60 ms today. At a 100 ms period, the host's slow spells (up to 1.5×)
/// leave slack, so no backlog builds.
pub const HIT_RATE_PER_S: f64 = 10.0;
const BULK_TASKS: usize = 20_000;
const BULK_HEURISTIC: Heuristic = Heuristic::LCMR;
/// Cache bound of the `serve_mixed` daemon. Every bulk request fills one
/// ~1 MB entry, so at the default bound of 512 the daemon's memory would
/// grow with bulk throughput for a whole run; at 128 it plateaus within
/// seconds, while the 8 hit keys, refreshed every 0.8 s, stay resident
/// until bulk solves run about five times faster than they do today.
const MIXED_CACHE_ENTRIES: usize = 128;
/// Cold bulk requests replayed layer by layer in the traced run.
const BULK_REPLAYS: u64 = 3;
const SETUP_REPS: usize = 5;

struct Key {
    payload: String,
    /// The warm-up reply with `cached` set: what every hit must return.
    expected_hit: String,
    tasks: u64,
}

struct Setup {
    // Dropped last, after the clients of a loop have hung up.
    server: ServerHandle,
    keys: Vec<Key>,
    bulk_seed: u64,
    digest: String,
}

/// Key `i`: an HF rank for even `i`, a CCSD rank for odd `i`. Ranks are
/// distinct within a kernel, so no two keys share a cache entry.
fn hit_request(suite: &SuiteConfig, seed: u64, i: usize) -> SolveRequest {
    let n = suite.topology.n_processes();
    let rank = pick_ranks(mix(seed, (i % 2) as u64), n, KEYS / 2)[i / 2];
    let trace = if i.is_multiple_of(2) {
        generate_hf_trace(&suite.hf, suite.topology, suite.transfer, suite.cost, rank)
    } else {
        generate_ccsd_trace(
            &suite.ccsd,
            suite.topology,
            suite.transfer,
            suite.cost,
            rank,
        )
    };
    let heuristic = Heuristic::ALL[(mix(seed, 2 + i as u64) % 14) as usize];
    SolveRequest {
        source: TraceSource::Inline(trace),
        heuristic,
        model: None,
        cost_model: None,
        factor: FACTOR,
    }
}

fn bulk_request(seed: u64) -> SolveRequest {
    let mut config = GeneratorConfig::new(WorkloadFamily::MdLike);
    config.n_tasks = BULK_TASKS;
    config.seed = seed;
    SolveRequest {
        source: TraceSource::Family { config, rank: 0 },
        heuristic: BULK_HEURISTIC,
        model: None,
        cost_model: None,
        factor: FACTOR,
    }
}

fn render(request: &SolveRequest) -> Result<String, String> {
    serde_json::to_string(&request_to_value(request)).map_err(|e| e.to_string())
}

fn bulk_ok(reply: &str) -> bool {
    reply.starts_with("{\"status\":\"ok\",\"cached\":false,")
        && reply.contains(&format!("\"n_tasks\":{BULK_TASKS},"))
}

fn setup(ctx: &Ctx, mode: Mode) -> Result<Setup, String> {
    let suite = SuiteConfig::default();
    let seed = mix(ctx.seed, 4);
    let mut config = ServerConfig::default();
    if mode == Mode::Mixed {
        config.cache_entries = MIXED_CACHE_ENTRIES;
    }
    let server = Server::start(config).map_err(|e| e.to_string())?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
    let mut hasher = StableHasher::new();
    let mut keys = Vec::with_capacity(KEYS);
    for i in 0..KEYS {
        let request = hit_request(&suite, seed, i);
        let payload = render(&request)?;
        hasher.write_str(&payload);
        let cold = client.send_text(&payload).map_err(|e| e.to_string())?;
        if !cold.starts_with("{\"status\":\"ok\",\"cached\":false,") {
            return Err(format!("warm-up request {i} failed: {cold:.200}"));
        }
        let mut expected_hit = cold.replacen("\"cached\":false", "\"cached\":true", 1);
        if ctx.plant_wrong_reference {
            expected_hit.push(' ');
        }
        keys.push(Key {
            payload,
            expected_hit,
            tasks: request.task_count() as u64,
        });
    }
    let bulk_seed = mix(ctx.seed, 5);
    hasher.write_u64(bulk_seed);
    Ok(Setup {
        server,
        keys,
        bulk_seed,
        digest: hasher.finish().to_string(),
    })
}

/// One hit: `Some((latency from start, tasks))` when the reply is the
/// expected bytes.
fn hit(
    client: &mut Client,
    key: &Key,
    op: u64,
    start: Instant,
    t: &mut Tracer,
) -> Option<(f64, u64)> {
    let reply = t.span("client.roundtrip", op, |_| client.send_text(&key.payload));
    let ms = ms_since(start);
    (reply.ok()? == key.expected_hit).then_some((ms, key.tasks))
}

/// A timed phase: the hit-class loop, the bulk loop (mixed only) and the
/// spans of both connections.
struct Phase {
    hits: Loop,
    bulk: Loop,
    tracer: Tracer,
}

/// Two connections for `seconds`. Bulk seeds start at `*next_bulk`, which
/// advances past every seed used, so no bulk request repeats a key.
fn phase(
    setup: &Setup,
    mode: Mode,
    seconds: f64,
    next_bulk: &mut u64,
    epoch: Instant,
    traced: bool,
) -> Result<Phase, String> {
    let addr = setup.server.local_addr();
    let stop = AtomicBool::new(false);
    let first_bulk = *next_bulk;
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            let result = match mode {
                Mode::Hits => closed_hits(setup, addr, 0, seconds, epoch, traced),
                Mode::Mixed => open_hits(setup, addr, seconds, epoch, traced),
            };
            stop.store(true, Ordering::SeqCst);
            result
        });
        let b = scope.spawn(|| match mode {
            Mode::Hits => closed_hits(setup, addr, 1, seconds, epoch, traced),
            Mode::Mixed => closed_bulk(addr, setup.bulk_seed + first_bulk, &stop, epoch, traced),
        });
        (a.join(), b.join())
    });
    let (a_loop, mut tracer) = a.map_err(|_| "client thread panicked")??;
    let (b_loop, b_tracer) = b.map_err(|_| "client thread panicked")??;
    tracer.absorb(b_tracer);
    Ok(match mode {
        Mode::Hits => {
            let mut hits = a_loop;
            hits.latency_ms.extend(b_loop.latency_ms);
            hits.lateness_ms.extend(b_loop.lateness_ms);
            hits.tasks += b_loop.tasks;
            hits.attempted += b_loop.attempted;
            hits.failed += b_loop.failed;
            hits.wall_s = hits.wall_s.max(b_loop.wall_s);
            Phase {
                hits,
                bulk: Loop::default(),
                tracer,
            }
        }
        Mode::Mixed => {
            *next_bulk += b_loop.attempted;
            Phase {
                hits: a_loop,
                bulk: b_loop,
                tracer,
            }
        }
    })
}

fn closed_hits(
    setup: &Setup,
    addr: SocketAddr,
    client_index: usize,
    seconds: f64,
    epoch: Instant,
    traced: bool,
) -> Result<(Loop, Tracer), String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut tracer = Tracer::new(epoch, traced);
    let ops = crate::closed_loop(seconds, |i| {
        let key = &setup.keys[(client_index + i as usize) % KEYS];
        let op = (client_index as u64) << 32 | i;
        let start = Instant::now();
        tracer.span("op", op, |t| hit(&mut client, key, op, start, t))
    });
    Ok((ops, tracer))
}

/// Connection A of `serve_mixed`: request `i` is due `i / rate` seconds
/// after the start and timed from then, however late it is sent.
fn open_hits(
    setup: &Setup,
    addr: SocketAddr,
    seconds: f64,
    epoch: Instant,
    traced: bool,
) -> Result<(Loop, Tracer), String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut tracer = Tracer::new(epoch, traced);
    let mut ops = Loop::default();
    let start = Instant::now();
    let period = Duration::from_secs_f64(1.0 / HIT_RATE_PER_S);
    for i in 0u64.. {
        let due = start + period * i as u32;
        if (due - start).as_secs_f64() >= seconds {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        ops.lateness_ms.push(ms_since(due));
        let key = &setup.keys[i as usize % KEYS];
        let result = tracer.span("op", i, |t| hit(&mut client, key, i, due, t));
        ops.record(result);
    }
    ops.wall_s = start.elapsed().as_secs_f64();
    Ok((ops, tracer))
}

/// Connection B of `serve_mixed`: cold bulk solves back to back until
/// connection A is done.
fn closed_bulk(
    addr: SocketAddr,
    first_seed: u64,
    stop: &AtomicBool,
    epoch: Instant,
    traced: bool,
) -> Result<(Loop, Tracer), String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut tracer = Tracer::new(epoch, traced);
    let mut ops = Loop::default();
    let start = Instant::now();
    let mut previous_end = start;
    for j in 0u64.. {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let payload = render(&bulk_request(first_seed + j))?;
        ops.lateness_ms.push(ms_since(previous_end));
        let op_start = Instant::now();
        let op = 1 << 40 | j;
        let reply = tracer.span("op", op, |t| {
            t.span("client.bulk_roundtrip", op, |_| client.send_text(&payload))
        });
        let ms = ms_since(op_start);
        previous_end = Instant::now();
        let ok = reply.is_ok_and(|reply| bulk_ok(&reply));
        ops.record(ok.then_some((ms, BULK_TASKS as u64)));
    }
    ops.wall_s = start.elapsed().as_secs_f64();
    Ok((ops, tracer))
}

/// Checks the cache counters over a timed phase: every hit-class op was a
/// hit, and every bulk op was a miss. Returns the hit ratio and the number
/// of ops the counters disagree with.
fn cache_guard(
    before: dts_core::cache::CacheStats,
    after: dts_core::cache::CacheStats,
    hits: u64,
    bulk: u64,
) -> (f64, u64) {
    let hit_delta = after.hits - before.hits;
    let miss_delta = after.misses - before.misses;
    let ratio = hit_delta as f64 / (hit_delta + miss_delta).max(1) as f64;
    (ratio, hit_delta.abs_diff(hits) + miss_delta.abs_diff(bulk))
}

pub fn run(ctx: &Ctx, mode: Mode) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let reps = if ctx.traced { 1 } else { SETUP_REPS };
    let (setup, setup_s) = crate::repeat_setup(reps, || setup(ctx, mode))?;
    outcome.inputs_digest = setup.digest.clone();
    let epoch = Instant::now();
    let mut next_bulk = 0;
    if !ctx.traced {
        let before = setup.server.cache_stats();
        let p = phase(&setup, mode, ctx.seconds, &mut next_bulk, epoch, false)?;
        let (_, disagreements) = cache_guard(
            before,
            setup.server.cache_stats(),
            p.hits.attempted,
            p.bulk.attempted,
        );
        let bulk = (mode == Mode::Mixed).then_some(&p.bulk);
        record_end_to_end(&mut outcome, &p.hits, bulk, host::peak_rss_mb(), setup_s);
        outcome.failed = (outcome.failed + disagreements).min(outcome.attempted);
        return Ok(outcome);
    }

    let sentinel = host::Sentinel::start();
    let before = setup.server.cache_stats();
    let plain = phase(
        &setup,
        mode,
        ctx.seconds / 2.0,
        &mut next_bulk,
        epoch,
        false,
    )?;
    let traced = phase(&setup, mode, ctx.seconds / 2.0, &mut next_bulk, epoch, true)?;
    let (hit_ratio, disagreements) = cache_guard(
        before,
        setup.server.cache_stats(),
        plain.hits.attempted + traced.hits.attempted,
        plain.bulk.attempted + traced.bulk.attempted,
    );
    for p in [&plain, &traced] {
        outcome.absorb(&p.hits);
        outcome.absorb(&p.bulk);
    }
    outcome.failed = (outcome.failed + disagreements).min(outcome.attempted);
    outcome.set("core.cache.hit_ratio", hit_ratio);

    let replayed = replay_layers(ctx, &setup, mode, next_bulk, epoch, &mut outcome)?;
    record_host(&mut outcome, sentinel.finish());

    let mut tracer = traced.tracer;
    record_layers(&mut outcome, &tracer);
    let layers = record_layers(&mut outcome, &replayed);
    let roundtrip = outcome
        .metrics
        .get("client.roundtrip_ms")
        .copied()
        .unwrap_or(0.0);
    let server_side: f64 = ["serde_json.parse", "server.request_parse", "server.digest"]
        .iter()
        .filter_map(|name| layers.get(name))
        .sum();
    // Inferred, not measured: what the replayed layers do not account for
    // (frame IO, queue hand-off, cache lookup and any wait behind a solve).
    outcome.set("server.wait_ms", roundtrip - server_side);
    outcome.set("bench.unattributed_ms", roundtrip - server_side);
    outcome.set(
        "loadgen.lateness_ms_p90",
        quantile(&traced.hits.lateness_ms, 0.9),
    );
    outcome.set(
        "bench.tracing_overhead_pct",
        (median(&traced.hits.latency_ms) / median(&plain.hits.latency_ms) - 1.0) * 100.0,
    );
    tracer.absorb(replayed);
    outcome.spans_json = Some(tracer.to_json());
    Ok(outcome)
}

/// Replays the daemon's layers on the workload's request bytes, quietly
/// and on one thread, then sends each replayed request once to read exact
/// cache counters and response sizes.
fn replay_layers(
    ctx: &Ctx,
    setup: &Setup,
    mode: Mode,
    next_bulk: u64,
    epoch: Instant,
    outcome: &mut Outcome,
) -> Result<Tracer, String> {
    let mut t = Tracer::new(epoch, true);
    let mut parse_allocs = Vec::new();
    let mut parse_bytes = Vec::new();
    let mut parse_peak = Vec::new();
    let mut request_kb = Vec::new();
    let mut run_allocs = Vec::new();
    let mut render_allocs = Vec::new();
    for (k, key) in setup.keys.iter().enumerate() {
        let op = k as u64;
        let ok = t.span("replay", op, |t| {
            let (value, delta) = t.span("serde_json.parse", op, |_| {
                alloc::measure(|| serde_json::from_str::<Value>(&key.payload))
            });
            parse_allocs.push(delta.allocs as f64);
            parse_bytes.push(delta.bytes as f64 / (1 << 20) as f64);
            parse_peak.push(delta.peak_bytes as f64 / (1 << 20) as f64);
            let Ok(value) = value else { return false };
            let Ok(request) = t.span("server.request_parse", op, |_| parse_request(&value)) else {
                return false;
            };
            let decoded = t.span("chem.decode", op, |_| {
                value.field("trace").map(Trace::from_value)
            });
            let digest = t.span("server.digest", op, |_| request.digest());
            // The cold solve set-up paid for this key, whose reply every
            // hit repeats byte for byte.
            let TraceSource::Inline(trace) = &request.source else {
                return false;
            };
            let Ok(instance) = t.span("chem.to_instance", op, |_| {
                trace.to_instance_scaled(request.factor)
            }) else {
                return false;
            };
            let (schedule, delta) = t.span(run_span(request.heuristic), op, |_| {
                alloc::measure(|| run_heuristic(&instance, request.heuristic))
            });
            run_allocs.push(delta.allocs as f64);
            let Ok(schedule) = schedule else { return false };
            let metrics = t.span("core.metrics", op, |_| {
                ScheduleMetrics::of(&instance, &schedule)
            });
            let (json, delta) = t.span("serde_json.render", op, |_| {
                alloc::measure(|| render_result(&request, &instance, &schedule, &metrics))
            });
            render_allocs.push(delta.allocs as f64);
            let cold_reply_matches =
                json.is_ok_and(|json| ok_response_json(&json, true, digest) == key.expected_hit);
            matches!(decoded, Ok(Ok(_))) && cold_reply_matches
        });
        request_kb.push(key.payload.len() as f64 / 1024.0);
        outcome.check(ok);
    }
    outcome.set("serde_json.parse_allocs", median(&parse_allocs));
    outcome.set("serde_json.parse_alloc_mb", median(&parse_bytes));
    outcome.set("serde_json.parse_peak_heap_mb", median(&parse_peak));
    outcome.set("server.request_kb", median(&request_kb));

    let bulk_seeds: Vec<u64> = match mode {
        Mode::Hits => Vec::new(),
        Mode::Mixed => (0..BULK_REPLAYS)
            .map(|j| setup.bulk_seed + next_bulk + j)
            .collect(),
    };
    let mut rendered = Vec::new();
    for (j, &seed) in bulk_seeds.iter().enumerate() {
        let op = 1 << 40 | j as u64;
        let request = bulk_request(seed);
        let result = t.span("replay", op, |t| {
            let TraceSource::Family { config, rank } = &request.source else {
                return None;
            };
            let trace = t
                .span("workloads.generate", op, |_| generate_trace(config, *rank))
                .ok()?;
            let instance = t
                .span("chem.to_instance", op, |_| trace.to_instance_scaled(FACTOR))
                .ok()?;
            t.span("core.index_build", op, |_| {
                drop(CandidateIndex::comm_only(&instance))
            });
            let (schedule, delta) = t.span("heuristics.run_ms.dynamic", op, |_| {
                alloc::measure(|| run_heuristic(&instance, BULK_HEURISTIC))
            });
            run_allocs.push(delta.allocs as f64);
            let schedule = schedule.ok()?;
            let metrics = t.span("core.metrics", op, |_| {
                ScheduleMetrics::of(&instance, &schedule)
            });
            let (json, delta) = t.span("serde_json.render", op, |_| {
                alloc::measure(|| render_result(&request, &instance, &schedule, &metrics))
            });
            render_allocs.push(delta.allocs as f64);
            json.ok()
        });
        rendered.push((request, result));
    }
    outcome.set("heuristics.run_allocs", median(&run_allocs));
    outcome.set("serde_json.render_allocs", median(&render_allocs));

    // The counter pass: every key once (hits), every replayed bulk request
    // once (misses, and its reply must be the replay's rendering).
    let mut client = Client::connect(setup.server.local_addr()).map_err(|e| e.to_string())?;
    let before = setup.server.cache_stats();
    let mut response_kb = Vec::new();
    for key in &setup.keys {
        let reply = client.send_text(&key.payload);
        outcome.check(reply.as_ref().is_ok_and(|r| *r == key.expected_hit));
        if mode == Mode::Hits {
            response_kb.push(key.expected_hit.len() as f64 / 1024.0);
        }
    }
    for (request, result) in &rendered {
        let reply = client.send_text(&render(request)?);
        let expected = result
            .as_ref()
            .map(|json| ok_response_json(json, false, request.digest()));
        let ok = match (&reply, expected) {
            (Ok(reply), Some(expected)) => *reply == expected && !ctx.plant_wrong_reference,
            _ => false,
        };
        outcome.check(ok);
        if let Ok(reply) = &reply {
            response_kb.push(reply.len() as f64 / 1024.0);
        }
    }
    let after = setup.server.cache_stats();
    outcome.set("core.cache.hits", (after.hits - before.hits) as f64);
    outcome.set("core.cache.misses", (after.misses - before.misses) as f64);
    outcome.set(
        "core.cache.evictions",
        (after.evictions - before.evictions) as f64,
    );
    outcome.set("server.response_kb", median(&response_kb));
    Ok(t)
}

/// The result object exactly as the daemon renders it for a cold solve.
fn render_result(
    request: &SolveRequest,
    instance: &dts_core::Instance,
    schedule: &dts_core::Schedule,
    metrics: &ScheduleMetrics,
) -> Result<String, String> {
    let model = request.model.unwrap_or_else(|| instance.model());
    let result = Value::Object(vec![
        (
            "heuristic".to_string(),
            Value::Str(request.heuristic.name().to_string()),
        ),
        ("model".to_string(), Value::Str(model.to_string())),
        ("n_tasks".to_string(), Value::UInt(schedule.len() as u64)),
        (
            "makespan_us".to_string(),
            Value::UInt(metrics.makespan.ticks()),
        ),
        (
            "comm_idle_us".to_string(),
            Value::UInt(metrics.comm_idle.ticks()),
        ),
        (
            "comp_idle_us".to_string(),
            Value::UInt(metrics.comp_idle.ticks()),
        ),
        ("schedule".to_string(), schedule.to_value()),
    ]);
    serde_json::to_string(&result).map_err(|e| e.to_string())
}
