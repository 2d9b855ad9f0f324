//! End-to-end tests of the daemon over real TCP sockets.
//!
//! Every test binds port 0, talks to the daemon through [`Client`], and
//! asserts the ISSUE contract: all failures are typed errors over the
//! wire (never a dropped connection, never a panic), repeated requests
//! are answered byte-identically from the cache, and the daemon sustains
//! 64 concurrent in-flight requests.

use dts_chem::{Trace, TraceTask};
use dts_server::{Client, Server, ServerConfig, ServerHandle, SolveRequest, TraceSource};
use dts_workloads::{GeneratorConfig, WorkloadFamily};
use serde::{Deserialize, Value};
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn start(config: ServerConfig) -> ServerHandle {
    Server::start(config).expect("bind server")
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(handle.local_addr()).expect("connect client")
}

fn family_request(seed: u64) -> SolveRequest {
    let mut config = GeneratorConfig::new(WorkloadFamily::from_name("md").unwrap());
    config.n_tasks = 12;
    config.seed = seed;
    dts_server::parse_request(&dts_server::protocol::request_to_value(&SolveRequest {
        source: TraceSource::Family { config, rank: 0 },
        heuristic: dts_heuristics::Heuristic::from_name("DOCPS").unwrap(),
        model: None,
        cost_model: None,
        factor: 1.5,
    }))
    .expect("valid request")
}

/// [`family_request`] with another task count and heuristic.
fn sized_request(n_tasks: usize, seed: u64, heuristic: &str) -> SolveRequest {
    let mut request = family_request(seed);
    if let TraceSource::Family { config, .. } = &mut request.source {
        config.n_tasks = n_tasks;
    }
    request.heuristic = dts_heuristics::Heuristic::from_name(heuristic).unwrap();
    request
}

fn status_of(response: &Value) -> String {
    String::from_value(response.field("status").expect("status field")).expect("status string")
}

fn code_of(response: &Value) -> String {
    String::from_value(response.field("code").expect("code field")).expect("code string")
}

fn assert_error(response: &Value, code: &str) {
    assert_eq!(status_of(response), "error", "expected error: {response:?}");
    assert_eq!(code_of(response), code, "wrong code: {response:?}");
    let message =
        String::from_value(response.field("message").expect("message field")).expect("message");
    assert!(!message.is_empty(), "error replies carry a message");
}

fn sample_trace(n: usize) -> Trace {
    let mut trace = Trace::new("HF", 0);
    for i in 0..n {
        trace.push(TraceTask {
            name: &format!("t{i}"),
            kind: dts_chem::trace::TaskKind::Contraction,
            comm_micros: 50 + (i as u64 * 13) % 90,
            comp_micros: 40 + (i as u64 * 7) % 60,
            mem_bytes: 1_000 + (i as u64 * 311) % 5_000,
        });
    }
    trace
}

#[test]
fn malformed_frames_get_typed_errors_and_the_connection_survives() {
    let handle = start(ServerConfig::default());
    let mut client = connect(&handle);

    // Not JSON at all.
    let raw = client.send_text("this is not json {").unwrap();
    let response = serde_json::from_str(&raw).unwrap();
    assert_error(&response, "bad-frame");

    // Valid JSON, wrong schema.
    let raw = client.send_text("[1,2,3]").unwrap();
    let response = serde_json::from_str(&raw).unwrap();
    assert_error(&response, "bad-request");

    // The connection is still usable for a real request.
    let response = client.send_request(&family_request(1)).unwrap();
    assert_eq!(status_of(&response), "ok");
    handle.shutdown();
}

#[test]
fn oversized_payloads_are_shed_without_dropping_the_connection() {
    let handle = start(ServerConfig {
        max_frame_bytes: 256,
        ..ServerConfig::default()
    });
    let mut client = connect(&handle);

    let huge = "x".repeat(100_000);
    let raw = client.send_text(&huge).unwrap();
    let response = serde_json::from_str(&raw).unwrap();
    assert_error(&response, "oversized-frame");

    // The oversized body was drained: the same connection still works.
    let response = client.send_request(&family_request(2)).unwrap();
    assert_eq!(status_of(&response), "ok");
    handle.shutdown();
}

#[test]
fn solve_failures_map_to_typed_codes() {
    let handle = start(ServerConfig::default());
    let mut client = connect(&handle);

    let cases: Vec<(String, &str)> = vec![
        (
            r#"{"family":{"family":"md","n_tasks":4,"seed":1},"heuristic":"NOPE"}"#.to_string(),
            "unknown-heuristic",
        ),
        (
            r#"{"family":{"family":"md","n_tasks":4,"seed":1},"heuristic":"OS","model":"warp"}"#
                .to_string(),
            "invalid-model",
        ),
        (
            r#"{"family":{"family":"no-such-family","n_tasks":4,"seed":1},"heuristic":"OS"}"#
                .to_string(),
            "bad-request",
        ),
        (
            r#"{"family":{"family":"md","n_tasks":4,"seed":1},"heuristic":"OS","factor":-2.0}"#
                .to_string(),
            "bad-request",
        ),
        (
            r#"{"family":{"family":"md","n_tasks":0,"seed":1},"heuristic":"OS"}"#.to_string(),
            "bad-request",
        ),
        (
            // Both sources at once.
            r#"{"trace":{"kernel":"HF","rank":0,"tasks":[]},"family":{"family":"md"},"heuristic":"OS"}"#
                .to_string(),
            "bad-request",
        ),
        (
            // Empty inline trace: rejected by the core layer.
            r#"{"trace":{"kernel":"HF","rank":0,"tasks":[]},"heuristic":"OS"}"#.to_string(),
            "invalid-trace",
        ),
    ];
    for (payload, code) in cases {
        let raw = client.send_text(&payload).unwrap();
        let response = serde_json::from_str(&raw).unwrap();
        assert_error(&response, code);
    }

    // Scaling the capacity below the largest task is detected as
    // infeasible at instance-build time.
    let mut infeasible = family_request(3);
    infeasible.factor = 0.25;
    let response = client.send_request(&infeasible).unwrap();
    assert_error(&response, "infeasible");
    handle.shutdown();
}

#[test]
fn task_ceiling_is_enforced_before_solving() {
    let handle = start(ServerConfig {
        max_tasks: 8,
        ..ServerConfig::default()
    });
    let mut client = connect(&handle);

    // A family request over the ceiling (the trace is never generated).
    let raw = client
        .send_text(r#"{"family":{"family":"md","n_tasks":9,"seed":1},"heuristic":"OS"}"#)
        .unwrap();
    let response = serde_json::from_str(&raw).unwrap();
    assert_error(&response, "task-ceiling");

    // An inline trace over the ceiling.
    let request = SolveRequest {
        source: TraceSource::Inline(sample_trace(9)),
        heuristic: dts_heuristics::Heuristic::from_name("OS").unwrap(),
        model: None,
        cost_model: None,
        factor: 2.0,
    };
    let response = client.send_request(&request).unwrap();
    assert_error(&response, "task-ceiling");

    // At the ceiling is fine.
    let request = SolveRequest {
        source: TraceSource::Inline(sample_trace(8)),
        heuristic: dts_heuristics::Heuristic::from_name("OS").unwrap(),
        model: None,
        cost_model: None,
        factor: 2.0,
    };
    let response = client.send_request(&request).unwrap();
    assert_eq!(status_of(&response), "ok");
    handle.shutdown();
}

#[test]
fn zero_depth_queue_sheds_every_request_with_queue_full() {
    let handle = start(ServerConfig {
        queue_depth: 0,
        ..ServerConfig::default()
    });
    let mut client = connect(&handle);
    let response = client.send_request(&family_request(4)).unwrap();
    assert_error(&response, "queue-full");
    handle.shutdown();
}

#[test]
fn cache_hits_return_byte_identical_responses_without_resolving() {
    let handle = start(ServerConfig::default());
    let mut client = connect(&handle);

    let request = family_request(5);
    let payload = serde_json::to_string(&dts_server::protocol::request_to_value(&request)).unwrap();

    let cold = client.send_text(&payload).unwrap();
    let hot = client.send_text(&payload).unwrap();
    assert!(cold.contains("\"cached\":false"), "first solve is cold");
    assert!(hot.contains("\"cached\":true"), "second is a cache hit");
    assert_eq!(
        hot.replace("\"cached\":true", "\"cached\":false"),
        cold,
        "hit responses are byte-identical to the cold solve"
    );

    let stats = handle.cache_stats();
    assert_eq!((stats.misses, stats.hits), (1, 1), "exactly one solve");

    // The solved result is structurally sane.
    let response: Value = serde_json::from_str(&cold).unwrap();
    let result = response.field("result").unwrap();
    let n_tasks: u64 = Deserialize::from_value(result.field("n_tasks").unwrap()).unwrap();
    let makespan: u64 = Deserialize::from_value(result.field("makespan_us").unwrap()).unwrap();
    assert_eq!(n_tasks, 12);
    assert!(makespan > 0);
    handle.shutdown();
}

#[test]
fn model_override_replaces_the_model_an_inline_trace_carries() {
    use dts_core::ExecutionModel;
    let handle = start(ServerConfig::default());
    let mut client = connect(&handle);
    let heuristic = dts_heuristics::Heuristic::from_name("LCMR").unwrap();
    let unstamped = sample_trace(40);
    let mut stamped = unstamped.clone();
    stamped.model = Some(ExecutionModel::Streams { k: 2 });

    // Cold-solves `trace` with an optional `"model"` override and returns
    // the reply's result object.
    let mut solve = |trace: &Trace, model: Option<&str>| -> Value {
        let request = SolveRequest {
            source: TraceSource::Inline(trace.clone()),
            heuristic,
            model: model.map(|m| ExecutionModel::parse(m).unwrap()),
            cost_model: None,
            factor: 1.5,
        };
        let response = client.send_request(&request).unwrap();
        assert_eq!(status_of(&response), "ok", "{response:?}");
        assert!(
            !bool::from_value(response.field("cached").unwrap()).unwrap(),
            "every request here is a distinct cold solve"
        );
        response.field("result").unwrap().clone()
    };
    let model_of = |result: &Value| String::from_value(result.field("model").unwrap()).unwrap();
    let makespan_of =
        |result: &Value| u64::from_value(result.field("makespan_us").unwrap()).unwrap();
    // The in-process solve of `trace` stamped with `model`.
    let local_makespan = |model: ExecutionModel| {
        let mut trace = stamped.clone();
        trace.model = Some(model);
        let instance = trace.to_instance_scaled(1.5).unwrap();
        let schedule = dts_heuristics::run_heuristic(&instance, heuristic).unwrap();
        schedule.makespan(&instance).ticks()
    };

    let carried = solve(&stamped, None);
    assert_eq!(model_of(&carried), "streams:2");
    assert_eq!(
        makespan_of(&carried),
        local_makespan(ExecutionModel::Streams { k: 2 })
    );

    let duplex = solve(&stamped, Some("duplex"));
    assert_eq!(model_of(&duplex), "duplex");
    assert_eq!(makespan_of(&duplex), local_makespan(ExecutionModel::Duplex));

    let explicit = solve(&stamped, Some("explicit"));
    assert_eq!(explicit, solve(&unstamped, None));
    assert_eq!(model_of(&explicit), "explicit");
    // The override reaches the engine: overlapping transfers shorten this
    // transfer-heavy trace.
    assert!(makespan_of(&duplex) < makespan_of(&explicit));
    handle.shutdown();
}

#[test]
fn inline_and_family_requests_of_the_same_instance_have_distinct_digests() {
    let handle = start(ServerConfig::default());
    let mut client = connect(&handle);

    let inline = SolveRequest {
        source: TraceSource::Inline(sample_trace(6)),
        heuristic: dts_heuristics::Heuristic::from_name("GG").unwrap(),
        model: None,
        cost_model: None,
        factor: 2.0,
    };
    let mut other_factor = inline.clone();
    other_factor.factor = 3.0;

    let a = client.send_request(&inline).unwrap();
    let b = client.send_request(&other_factor).unwrap();
    assert_eq!(status_of(&a), "ok");
    assert_eq!(status_of(&b), "ok");
    let da: String = Deserialize::from_value(a.field("digest").unwrap()).unwrap();
    let db: String = Deserialize::from_value(b.field("digest").unwrap()).unwrap();
    assert_ne!(da, db, "factor is part of the cache key");
    handle.shutdown();
}

#[test]
fn sixty_four_concurrent_in_flight_requests_are_sustained() {
    let handle = start(ServerConfig::default());
    let addr = handle.local_addr();

    let shared_payload =
        serde_json::to_string(&dts_server::protocol::request_to_value(&family_request(7))).unwrap();

    let mut joins = Vec::new();
    for i in 0..64u64 {
        let shared_payload = shared_payload.clone();
        joins.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            // One request shared by every thread...
            let shared = client.send_text(&shared_payload).expect("shared request");
            // ...and one distinct per thread.
            let distinct = client
                .send_request(&family_request(1_000 + i))
                .expect("distinct request");
            (shared, distinct)
        }));
    }
    let outcomes: Vec<(String, Value)> = joins
        .into_iter()
        .map(|j| j.join().expect("worker thread"))
        .collect();

    let mut cold = 0;
    for (shared_raw, distinct) in &outcomes {
        let shared = serde_json::from_str(shared_raw).unwrap();
        assert_eq!(status_of(&shared), "ok", "shared request: {shared_raw}");
        assert_eq!(status_of(distinct), "ok", "distinct request");
        if shared_raw.contains("\"cached\":false") {
            cold += 1;
        }
    }
    assert_eq!(cold, 1, "the shared instance solved exactly once");

    // Every hit served the cold solve's bytes.
    let reference = &outcomes[0].0.replace("\"cached\":true", "\"cached\":false");
    for (shared_raw, _) in &outcomes {
        assert_eq!(
            &shared_raw.replace("\"cached\":true", "\"cached\":false"),
            reference
        );
    }

    let stats = handle.cache_stats();
    assert_eq!(
        (stats.misses, stats.hits),
        (65, 63),
        "64 distinct solves + 1 shared solve; 63 waiters hit"
    );
    handle.shutdown();
}

#[test]
fn shutdown_answers_admitted_requests_before_stopping() {
    let handle = start(ServerConfig::default());
    let mut client = connect(&handle);
    let response = client.send_request(&family_request(8)).unwrap();
    assert_eq!(status_of(&response), "ok");
    handle.shutdown();
    // A second shutdown via drop is a no-op (the handle is gone), and the
    // port is released: binding it again succeeds.
}

#[test]
fn a_cold_request_after_shutdown_gets_queue_full_instead_of_hanging() {
    let handle = start(ServerConfig::default());
    let mut client = connect(&handle);
    // One exchange first, so the connection thread is up and parked in
    // its next read when the shutdown lands.
    let response = client.send_request(&family_request(9)).unwrap();
    assert_eq!(status_of(&response), "ok");
    handle.shutdown();

    // Ask on a helper thread, so a daemon that never answers fails the
    // test instead of hanging it.
    let (reply, replied) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = reply.send(client.send_request(&family_request(10)));
    });
    let response = replied
        .recv_timeout(Duration::from_secs(5))
        .expect("a request after shutdown is answered, not left hanging")
        .expect("the connection survives the shutdown");
    assert_error(&response, "queue-full");
    let message: String = Deserialize::from_value(response.field("message").unwrap()).unwrap();
    assert!(message.contains("shutting down"), "message: {message}");
}

#[test]
fn cache_hits_are_not_held_behind_a_cold_solve() {
    let handle = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();
    let hit = sized_request(48, 11, "DOCPS");
    let mut hitter = connect(&handle);
    let warm = hitter.send_request(&hit).unwrap();
    assert_eq!(status_of(&warm), "ok");

    // Connection A: a cold solve large enough to occupy the only slot for
    // a while.
    let cold = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        let started = Instant::now();
        let response = client
            .send_request(&sized_request(60_000, 12, "LCMR"))
            .expect("cold request");
        (response, started.elapsed())
    });
    std::thread::sleep(Duration::from_millis(20));

    // Connection B: the warmed key, sent while A's solve runs.
    let started = Instant::now();
    let response = hitter.send_request(&hit).unwrap();
    let hit_latency = started.elapsed();
    let (cold_response, cold_latency) = cold.join().expect("cold client");

    assert_eq!(status_of(&response), "ok");
    assert_eq!(status_of(&cold_response), "ok");
    let cached: bool = Deserialize::from_value(response.field("cached").unwrap()).unwrap();
    assert!(cached, "the second request is a cache hit");
    assert!(
        hit_latency * 4 < cold_latency,
        "the hit took {hit_latency:?}, a quarter or more of the cold solve's {cold_latency:?}"
    );
    handle.shutdown();
}

#[test]
fn cold_and_cached_responses_match_recorded_digests() {
    // One fixed inline request: HF rank 0 of the small suite, as `Client`
    // renders it. The cold response renders the schedule; the cached one
    // splices the stored result into a new envelope.
    let config = dts_chem::SuiteConfig::small();
    let trace = dts_chem::hf::generate_hf_trace(
        &config.hf,
        config.topology,
        config.transfer,
        config.cost,
        0,
    );
    let request = SolveRequest {
        source: TraceSource::Inline(trace),
        heuristic: dts_heuristics::Heuristic::from_name("OOLCMR").unwrap(),
        model: None,
        cost_model: None,
        factor: 1.5,
    };
    let payload = serde_json::to_string(&dts_server::protocol::request_to_value(&request)).unwrap();
    let handle = start(ServerConfig::default());
    let mut client = connect(&handle);
    let digest = |text: &str| dts_core::hash::stable_digest(text.as_bytes()).to_string();
    assert_eq!(digest(&payload), "28d8de3fe58978fc18ab2fe0d042219a");
    assert_eq!(
        digest(&client.send_text(&payload).unwrap()),
        "41fc79597d00d760c4b9c8fd7ae1b344"
    );
    assert_eq!(
        digest(&client.send_text(&payload).unwrap()),
        "ab9ebd2e0094cfdb7c05ebf454e66eb2"
    );
    handle.shutdown();
}
