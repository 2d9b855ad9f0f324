//! Trace ingest and rendering: JSON text to `Trace` and back, the layers
//! that dominate `dts run` and `dts generate` on large traces.
//!
//! Four series per size on the same seeded `md` trace file text:
//!
//! * `ingest/value_path_md_<n>tasks` — `serde_json::from_str::<Value>`
//!   then `Trace::from_value`: the tree decoder, which no hot path takes
//!   any more (request frames decode with `decode_request`; the daemon
//!   re-runs the tree decoder only to word the error for a refused
//!   inline trace), kept as the reference the scanner is measured
//!   against;
//! * `ingest/from_json_md_<n>tasks` — `Trace::from_json`, which decodes
//!   straight from the bytes with `serde_json::Reader`: the decoder of
//!   inline request traces, and of every unit of a trace file;
//! * `ingest/load_instance_md_<n>tasks` — `Trace::from_json` then
//!   `Trace::to_instance_scaled(1.5)`, which shares the task table with
//!   the instance: from text to the instance the heuristics read;
//! * `ingest/load_file_md_<n>tasks` — `Trace::load` of the text written
//!   to a file at set-up, which reads it through a 256 KiB window: the
//!   path of `dts run`, `characterize`, `sweep`, `calibrate`, `trace
//!   export` and `request <file>`, and the only series that includes the
//!   read (from the page cache: the file was just written).
//!
//! The first three start from the file contents in memory, so the gap
//! between the first two is the decoding work alone, and the third adds
//! the instance build.
//!
//! Two series per size on the way out, from the trace to the file text:
//!
//! * `ingest/render_md_<n>tasks` — `Trace::to_json`, which streams the
//!   trace's `Serialize` events into the JSON writer: the path of
//!   `dts generate` and `Trace::save`;
//! * `ingest/render_tree_md_<n>tasks` —
//!   `serde_json::to_string_pretty(&trace.to_value())`, the same bytes
//!   through a `Value` tree of the whole trace, kept as the reference the
//!   streaming path is measured against.
//!
//! Smoke runs pin the 20k-task tier; full runs add the 200k-task tier of
//! the `run_md200k` benchmark workload. Set `DTS_BENCH_SCALE_MAX` (tasks)
//! to cap the largest tier attempted.
//!
//! On a daemon request frame, an inline paper-rank HF trace (rank 0 of
//! the 150-rank topology, about 49 KB), a pair from payload bytes to a
//! `SolveRequest` and its cache digest, and the way out:
//!
//! * `ingest/request_decode_tree_hf_rank0` — `serde_json::from_str::<Value>`,
//!   `parse_request`, `digest`;
//! * `ingest/request_decode_frame_hf_rank0` — `decode_request`, `digest`:
//!   the daemon's path, the cache-hit path up to the cache lookup;
//! * `ingest/request_render_hf_rank0` — `serde_json::to_string` of the
//!   `SolveRequest`: the payload `Client::send_request` sends.

use criterion::{criterion_group, Criterion};
use dts_chem::hf::generate_hf_trace;
use dts_chem::{SuiteConfig, Trace};
use dts_heuristics::Heuristic;
use dts_server::{decode_request, parse_request, SolveRequest, TraceSource};
use dts_workloads::families::{generate_trace, GeneratorConfig, WorkloadFamily};
use serde::{Deserialize, Serialize, Value};

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
        let trace = generate_trace(&config, 0).expect("seeded generation succeeds");
        let json = trace.to_json().expect("generated traces serialize");
        c.bench_function(&format!("ingest/value_path_md_{n_tasks}tasks"), |b| {
            b.iter(|| {
                let value: Value = serde_json::from_str(&json).expect("valid JSON");
                Trace::from_value(&value).expect("valid trace").len()
            })
        });
        c.bench_function(&format!("ingest/from_json_md_{n_tasks}tasks"), |b| {
            b.iter(|| Trace::from_json(&json).expect("valid trace").len())
        });
        c.bench_function(&format!("ingest/load_instance_md_{n_tasks}tasks"), |b| {
            b.iter(|| {
                Trace::from_json(&json)
                    .expect("valid trace")
                    .to_instance_scaled(1.5)
                    .expect("feasible at 1.5 mc")
                    .len()
            })
        });
        let path = std::env::temp_dir().join(format!(
            "dts-bench-ingest-{}-md-{n_tasks}.json",
            std::process::id()
        ));
        std::fs::write(&path, &json).expect("the trace file writes");
        c.bench_function(&format!("ingest/load_file_md_{n_tasks}tasks"), |b| {
            b.iter(|| Trace::load(&path).expect("valid trace file").len())
        });
        let _ = std::fs::remove_file(&path);
        c.bench_function(&format!("ingest/render_md_{n_tasks}tasks"), |b| {
            b.iter(|| trace.to_json().expect("traces serialize").len())
        });
        c.bench_function(&format!("ingest/render_tree_md_{n_tasks}tasks"), |b| {
            b.iter(|| {
                serde_json::to_string_pretty(&trace.to_value())
                    .expect("traces serialize")
                    .len()
            })
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
    let payload = serde_json::to_string(&request).expect("requests serialize");
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
    c.bench_function("ingest/request_render_hf_rank0", |b| {
        b.iter(|| {
            serde_json::to_string(&request)
                .expect("requests serialize")
                .len()
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
