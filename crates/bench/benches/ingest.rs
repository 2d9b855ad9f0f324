//! Trace ingest: JSON text to `Trace`, the layer that dominates `dts run`
//! on large traces.
//!
//! Two series per size on the same seeded `md` trace file text:
//!
//! * `ingest/value_path_md_<n>tasks` — `serde_json::from_str::<Value>`
//!   then `Trace::from_value`: the tree path request frames still take;
//! * `ingest/from_json_md_<n>tasks` — `Trace::from_json`, which decodes
//!   straight from the bytes with `serde_json::Reader`: the path of
//!   `Trace::load` and so of `dts run`, `characterize`, `sweep`,
//!   `calibrate`, `trace export` and `request <file>`.
//!
//! Both start from the file contents in memory, so the gap between them is
//! the decoding work alone. Smoke runs pin the 20k-task tier; full runs
//! add the 200k-task tier of the `run_md200k` benchmark workload. Set
//! `DTS_BENCH_SCALE_MAX` (tasks) to cap the largest tier attempted.
//!
//! One pair on a daemon request frame, an inline paper-rank HF trace
//! (rank 0 of the 150-rank topology, about 49 KB), from payload bytes to
//! a `SolveRequest` and its cache digest:
//!
//! * `ingest/request_decode_tree_hf_rank0` — `serde_json::from_str::<Value>`,
//!   `parse_request`, `digest`;
//! * `ingest/request_decode_frame_hf_rank0` — `decode_request`, `digest`:
//!   the daemon's path, the cache-hit path up to the cache lookup.

use criterion::{criterion_group, Criterion};
use dts_chem::hf::generate_hf_trace;
use dts_chem::{SuiteConfig, Trace};
use dts_heuristics::Heuristic;
use dts_server::protocol::request_to_value;
use dts_server::{decode_request, parse_request, SolveRequest, TraceSource};
use dts_workloads::families::{generate_trace, GeneratorConfig, WorkloadFamily};
use serde::{Deserialize, Value};

/// Allocator behavior over tens of megabytes dominates the variance, as
/// in the other scale benches.
const INGEST_NOISE_THRESHOLD: f64 = 6.0;

fn max_tasks() -> usize {
    let default = if criterion::smoke_mode() {
        20_000
    } else {
        200_000
    };
    std::env::var("DTS_BENCH_SCALE_MAX")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn bench(c: &mut Criterion) {
    let cap = max_tasks();
    for n_tasks in [20_000usize, 200_000] {
        if n_tasks > cap {
            println!("ingest: skipping the {n_tasks}-task tier (cap {cap})");
            continue;
        }
        let mut config = GeneratorConfig::new(WorkloadFamily::MdLike);
        config.n_tasks = n_tasks;
        config.seed = 42;
        let json = generate_trace(&config, 0)
            .expect("seeded generation succeeds")
            .to_json()
            .expect("generated traces serialize");
        c.bench_function(&format!("ingest/value_path_md_{n_tasks}tasks"), |b| {
            b.iter(|| {
                let value: Value = serde_json::from_str(&json).expect("valid JSON");
                Trace::from_value(&value).expect("valid trace").len()
            })
        });
        c.bench_function(&format!("ingest/from_json_md_{n_tasks}tasks"), |b| {
            b.iter(|| Trace::from_json(&json).expect("valid trace").len())
        });
    }
}

fn bench_request(c: &mut Criterion) {
    let suite = SuiteConfig::default();
    let trace = generate_hf_trace(&suite.hf, suite.topology, suite.transfer, suite.cost, 0);
    let request = SolveRequest {
        source: TraceSource::Inline(trace),
        heuristic: Heuristic::OOLCMR,
        model: None,
        cost_model: None,
        factor: 1.5,
    };
    let payload = serde_json::to_string(&request_to_value(&request)).expect("requests serialize");
    c.bench_function("ingest/request_decode_tree_hf_rank0", |b| {
        b.iter(|| {
            let value: Value = serde_json::from_str(&payload).expect("valid JSON");
            parse_request(&value).expect("valid request").digest()
        })
    });
    c.bench_function("ingest/request_decode_frame_hf_rank0", |b| {
        b.iter(|| {
            decode_request(payload.as_bytes())
                .expect("valid request")
                .digest()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(if criterion::smoke_mode() { 10 } else { 5 })
        .noise_threshold(INGEST_NOISE_THRESHOLD);
    targets = bench, bench_request
}
dts_bench::harness_main!("ingest", benches);
