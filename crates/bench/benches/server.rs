//! Serving-layer load benchmark: the `dts serve` daemon under a
//! 64-connection load generator.
//!
//! The figure benches measure the decision engine in isolation; this one
//! measures the whole serving path — framing, admission through the
//! gate, solving on the connection thread, instance caching — the way a
//! client sees it. An in-process daemon is started on a loopback port-0
//! socket and driven by 64 concurrent connections, each issuing a fixed
//! sequence of corpus-family requests. The first round is all cold
//! solves; later rounds repeat the same keys so the cache-hit path
//! dominates.
//!
//! Three series go through the shared harness, one sample per round:
//!
//! * `server/request_p50` — per-round median request latency,
//! * `server/request_p99` — per-round 99th-percentile request latency,
//! * `server/throughput_ns_per_req` — round wall time divided by
//!   requests completed. Inverted throughput, so "smaller is better"
//!   points the baseline gate the right way.
//!
//! Everything runs on loopback with deterministic seeds; the remaining
//! noise is thread scheduling, which the widened noise threshold
//! absorbs.

use criterion::{criterion_group, Criterion};
use dts_heuristics::Heuristic;
use dts_server::{Client, Server, ServerConfig, SolveRequest, TraceSource};
use dts_workloads::{GeneratorConfig, WorkloadFamily};
use std::net::SocketAddr;
use std::time::Instant;

/// The acceptance bar from the serving-layer issue: the daemon must
/// sustain this many concurrent in-flight requests.
const CLIENTS: usize = 64;

/// Loopback latency jitter under thread oversubscription is far larger
/// than the engine benches' measurement noise; mirror the scale benches'
/// widened allowance.
const SERVER_NOISE_THRESHOLD: f64 = 6.0;

/// Tasks per generated instance: large enough that a cold solve does
/// real scheduling work, small enough that 64 cold solves stay cheap in
/// the smoke gate.
const TASKS_PER_REQUEST: usize = 48;

fn request(seed: u64) -> SolveRequest {
    let mut config = GeneratorConfig::new(WorkloadFamily::MdLike);
    config.n_tasks = TASKS_PER_REQUEST;
    config.seed = seed;
    SolveRequest {
        source: TraceSource::Family { config, rank: 0 },
        heuristic: Heuristic::DOCPS,
        model: None,
        cost_model: None,
        factor: 1.5,
    }
}

/// Nearest-rank percentile of an ascending-sorted sample set.
fn percentile(sorted_ns: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted_ns.is_empty());
    let rank = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[rank.min(sorted_ns.len() - 1)]
}

/// One load round: `CLIENTS` connections, each sending
/// `requests_per_client` requests back to back, every request's latency
/// recorded. Seeds are per-slot, so every round re-asks the same keys.
fn load_round(addr: SocketAddr, requests_per_client: usize) -> Vec<f64> {
    let workers: Vec<_> = (0..CLIENTS)
        .map(|client_idx| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect to the daemon");
                let mut latencies = Vec::with_capacity(requests_per_client);
                for slot in 0..requests_per_client {
                    let request = request((client_idx * requests_per_client + slot) as u64);
                    let start = Instant::now();
                    let response = client.send_request(&request).expect("request round-trips");
                    latencies.push(start.elapsed().as_nanos() as f64);
                    let status = response.field("status").expect("response carries a status");
                    assert!(
                        matches!(status, serde::Value::Str(s) if s == "ok"),
                        "daemon refused a load request: {response:?}"
                    );
                }
                latencies
            })
        })
        .collect();
    workers
        .into_iter()
        .flat_map(|worker| worker.join().expect("load thread completes"))
        .collect()
}

fn bench(c: &mut Criterion) {
    // Smoke keeps the whole run to a few hundred requests; the full run
    // gathers enough rounds for stable tails.
    let (rounds, requests_per_client) = if criterion::smoke_mode() {
        (4, 2)
    } else {
        (10, 6)
    };

    let handle = Server::start(ServerConfig::default()).expect("start the daemon");
    let addr = handle.local_addr();

    let mut p50_ns = Vec::with_capacity(rounds);
    let mut p99_ns = Vec::with_capacity(rounds);
    let mut ns_per_request = Vec::with_capacity(rounds);
    let mut total_requests = 0usize;
    let mut total_wall_ns = 0.0f64;

    for _round in 0..rounds {
        let wall = Instant::now();
        let mut latencies = load_round(addr, requests_per_client);
        let wall_ns = wall.elapsed().as_nanos() as f64;
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        p50_ns.push(percentile(&latencies, 0.50));
        p99_ns.push(percentile(&latencies, 0.99));
        ns_per_request.push(wall_ns / latencies.len() as f64);
        total_requests += latencies.len();
        total_wall_ns += wall_ns;
    }

    let stats = handle.cache_stats();
    println!(
        "server: {CLIENTS} connections x {requests_per_client} requests x {rounds} rounds \
         ({total_requests} total, {:.0} req/s overall), cache {} misses / {} hits",
        total_requests as f64 / (total_wall_ns / 1e9),
        stats.misses,
        stats.hits,
    );
    // Round 1 is all cold solves, every later round is all hits.
    assert_eq!(
        stats.misses as usize,
        CLIENTS * requests_per_client,
        "cold round should populate every key exactly once"
    );

    c.bench_recorded("server/request_p50", &p50_ns);
    c.bench_recorded("server/request_p99", &p99_ns);
    c.bench_recorded("server/throughput_ns_per_req", &ns_per_request);

    handle.shutdown();
}

criterion_group! {
    name = benches;
    // Sample counts are the load rounds above; `bench_recorded` bypasses
    // the timing loop, so only the noise threshold matters here.
    config = Criterion::default().noise_threshold(SERVER_NOISE_THRESHOLD);
    targets = bench
}
dts_bench::harness_main!("server", benches);
