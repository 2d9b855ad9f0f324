//! `run_md200k`: the `dts run` CLI on a seeded 200k-task md trace.
//!
//! One client in a closed loop runs `dts run <trace> LCMR 1.5` as a child
//! process, one op at a time. The op is the CLI's whole path from file
//! bytes to printed result, which the JSON ingest dominates.
//!
//! The traced run times the same path in process, layer by layer, on the
//! same file (`fs.read` → `serde_json.parse` → `chem.decode` →
//! `chem.to_instance` → `flowshop.omim` → `heuristics.run_ms.dynamic` →
//! `core.metrics`). `cli.overhead_ms` is the child's wall time minus the
//! sum of those layers: process start and exit, the fresh process's first
//! touch of its heap, and printing.

use crate::span::Tracer;
use crate::{
    alloc, closed_loop, host, median, mix, ms_since, quantile, record_end_to_end, record_host,
    record_layers, Ctx, Outcome,
};
use dts_chem::Trace;
use dts_core::hash::stable_digest;
use dts_core::index::CandidateIndex;
use dts_core::metrics::ScheduleMetrics;
use dts_flowshop::johnson::johnson_makespan;
use dts_heuristics::{run_heuristic, Heuristic};
use dts_workloads::{generate_trace, GeneratorConfig, WorkloadFamily};
use serde::{Deserialize, Value};
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

const TASKS: usize = 200_000;
const FACTOR: &str = "1.5";
const SETUP_REPS: usize = 3;
/// In-process replays of the CLI path in the traced run.
const REPLAYS: u64 = 3;

/// Accepts any JSON document and keeps nothing of it.
struct Ignored;

impl Deserialize for Ignored {
    fn from_value(_: &Value) -> Result<Self, serde::Error> {
        Ok(Ignored)
    }
}

struct Setup {
    config: GeneratorConfig,
    path: PathBuf,
    /// The two result lines `dts run` must print, from an in-process solve.
    expected: [String; 2],
    digest: String,
}

fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let mut config = GeneratorConfig::new(WorkloadFamily::MdLike);
    config.n_tasks = TASKS;
    config.seed = mix(ctx.seed, 1);
    let trace = generate_trace(&config, 0).map_err(|e| e.to_string())?;
    let json = trace.to_json().map_err(|e| e.to_string())?;
    let path = ctx.out.join("md200k.json");
    std::fs::write(&path, &json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let instance = trace
        .to_instance_scaled(FACTOR.parse().map_err(|_| "bad factor")?)
        .map_err(|e| e.to_string())?;
    let omim = johnson_makespan(&instance);
    let makespan = run_heuristic(&instance, Heuristic::LCMR)
        .map_err(|e| e.to_string())?
        .makespan(&instance);
    let mut expected = [
        format!("makespan           {} us", makespan.ticks()),
        format!("OMIM               {} us", omim.ticks()),
    ];
    if ctx.plant_wrong_reference {
        expected[0] = format!("makespan           {} us", makespan.ticks() + 1);
    }
    Ok(Setup {
        config,
        path,
        expected,
        digest: stable_digest(json.as_bytes()).to_string(),
    })
}

/// One `dts run`: wall time in ms, or `None` unless it exited cleanly and
/// printed both reference lines.
fn run_cli(ctx: &Ctx, setup: &Setup) -> Option<(f64, u64)> {
    let start = Instant::now();
    let output = Command::new(&ctx.dts)
        .arg("run")
        .arg(&setup.path)
        .args(["LCMR", FACTOR])
        .output()
        .ok()?;
    let ms = ms_since(start);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let ok = output.status.success()
        && setup
            .expected
            .iter()
            .all(|line| stdout.lines().any(|l| l == line));
    ok.then_some((ms, TASKS as u64))
}

/// The CLI's path in process, one span per layer call. Returns whether the
/// makespan and OMIM match the reference lines.
fn replay(setup: &Setup, op: u64, tracer: &mut Tracer, outcome: &mut Outcome) -> bool {
    tracer.span("replay", op, |t| {
        let Ok(text) = t.span("fs.read", op, |_| std::fs::read_to_string(&setup.path)) else {
            return false;
        };
        // `dts run` parses into a `Value` tree, decodes it into a trace and
        // frees the tree. Parsing into `Ignored` builds and frees the same
        // tree without decoding.
        let (parsed, parse) = t.span("serde_json.parse", op, |_| {
            alloc::measure(|| serde_json::from_str::<Ignored>(&text))
        });
        outcome.set("serde_json.parse_allocs", parse.allocs as f64);
        outcome.set(
            "serde_json.parse_alloc_mb",
            parse.bytes as f64 / (1 << 20) as f64,
        );
        outcome.set(
            "serde_json.parse_peak_heap_mb",
            parse.peak_bytes as f64 / (1 << 20) as f64,
        );
        // A tree to decode, built outside any span: parsing into a `Value`
        // also deep-copies the tree, which `dts run` never does.
        let Ok(value) = parsed.and_then(|_| serde_json::from_str::<Value>(&text)) else {
            return false;
        };
        let Ok(trace) = t.span("chem.decode", op, |_| Trace::from_value(&value)) else {
            return false;
        };
        drop(value);
        let Ok(instance) = t.span("chem.to_instance", op, |_| trace.to_instance_scaled(1.5)) else {
            return false;
        };
        let omim = t.span("flowshop.omim", op, |_| johnson_makespan(&instance));
        t.span("core.index_build", op, |_| {
            drop(CandidateIndex::comm_only(&instance))
        });
        let (schedule, run) = t.span("heuristics.run_ms.dynamic", op, |_| {
            alloc::measure(|| run_heuristic(&instance, Heuristic::LCMR))
        });
        outcome.set("heuristics.run_allocs", run.allocs as f64);
        let Ok(schedule) = schedule else { return false };
        let metrics = t.span("core.metrics", op, |_| {
            ScheduleMetrics::of(&instance, &schedule)
        });
        let lines = [
            format!("makespan           {} us", metrics.makespan.ticks()),
            format!("OMIM               {} us", omim.ticks()),
        ];
        lines == setup.expected
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let (setup, setup_s) =
        crate::repeat_setup(if ctx.traced { 1 } else { SETUP_REPS }, || setup(ctx))?;
    outcome.inputs_digest = setup.digest.clone();
    if !ctx.traced {
        let ops = closed_loop(ctx.seconds, |_| run_cli(ctx, &setup));
        let peak_rss_mb = host::children_peak_rss_mb();
        record_end_to_end(&mut outcome, &ops, None, peak_rss_mb, setup_s);
        return Ok(outcome);
    }

    let sentinel = host::Sentinel::start();
    let epoch = Instant::now();
    // The op itself is a child process, so tracing cannot slow it; the
    // overhead is measured on the in-process replay instead, untraced
    // first, then traced.
    let cli = closed_loop(ctx.seconds, |_| run_cli(ctx, &setup));
    outcome.absorb(&cli);
    let mut untraced = Tracer::new(epoch, false);
    let mut plain_ms = Vec::new();
    for op in 0..REPLAYS {
        let start = Instant::now();
        let ok = replay(&setup, op, &mut untraced, &mut outcome);
        plain_ms.push(ms_since(start));
        outcome.check(ok);
    }
    let mut tracer = Tracer::new(epoch, true);
    let mut traced_ms = Vec::new();
    for op in 0..REPLAYS {
        // Set-up's input generation, which `setup_s` pays; not on the
        // CLI path.
        let generated = tracer.span("workloads.generate", op, |_| {
            generate_trace(&setup.config, 0)
        });
        outcome.check(generated.is_ok_and(|trace| trace.len() == TASKS));
        let start = Instant::now();
        let ok = replay(&setup, op, &mut tracer, &mut outcome);
        traced_ms.push(ms_since(start));
        outcome.check(ok);
    }
    record_host(&mut outcome, sentinel.finish());

    let layers = record_layers(&mut outcome, &tracer);
    // The index build is a separate call for attribution; inside `dts run`
    // it is part of the heuristic, so it is not added to the path.
    let path_ms: f64 = layers
        .iter()
        .filter(|(name, _)| !matches!(**name, "replay" | "core.index_build" | "workloads.generate"))
        .map(|(_, ms)| ms)
        .sum();
    outcome.set("cli.overhead_ms", median(&cli.latency_ms) - path_ms);
    // The replay's own time between spans is the benchmark's tree copy,
    // not the CLI's work; what the layers leave of `dts run` is the CLI
    // overhead above.
    outcome.set("bench.unattributed_ms", median(&cli.latency_ms) - path_ms);
    outcome.set(
        "bench.tracing_overhead_pct",
        (median(&traced_ms) / median(&plain_ms) - 1.0) * 100.0,
    );
    outcome.set("loadgen.lateness_ms_p90", quantile(&cli.lateness_ms, 0.9));
    outcome.spans_json = Some(tracer.to_json());
    Ok(outcome)
}
