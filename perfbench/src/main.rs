//! The repository benchmark: `dts run`, the paper sweep and `dts serve`,
//! end to end and layer by layer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --dts <path to the dts binary> --out <scratch dir>
//!           [--plant-wrong-reference]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A summary and the
//! digest of the generated inputs go to standard error. `perfbench/run.py`
//! builds this binary and the `dts` CLI and passes the paths; see
//! `perfbench/README.md` for the workloads and metrics.

mod alloc;
mod host;
mod md;
mod serve;
mod span;
mod sweep;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("bulk_latency_ms_p50", "ms"),
    ("tasks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`. A layer
/// that a workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fs.read_ms", "ms"),
    ("serde_json.parse_ms", "ms"),
    ("serde_json.parse_allocs", "count"),
    ("serde_json.parse_alloc_mb", "MB"),
    ("serde_json.parse_peak_heap_mb", "MB"),
    ("chem.decode_ms", "ms"),
    ("chem.to_instance_ms", "ms"),
    ("flowshop.omim_ms", "ms"),
    ("core.index_build_ms", "ms"),
    ("heuristics.run_ms.os", "ms"),
    ("heuristics.run_ms.static", "ms"),
    ("heuristics.run_ms.dynamic", "ms"),
    ("heuristics.run_ms.corrected", "ms"),
    ("heuristics.run_allocs", "count"),
    ("core.metrics_ms", "ms"),
    ("analysis.sweep_ms", "ms"),
    ("cli.overhead_ms", "ms"),
    ("workloads.generate_ms", "ms"),
    ("serde_json.render_ms", "ms"),
    ("serde_json.render_allocs", "count"),
    ("server.request_parse_ms", "ms"),
    ("server.digest_ms", "ms"),
    ("server.request_kb", "KB"),
    ("server.response_kb", "KB"),
    ("server.wait_ms", "ms"),
    ("client.roundtrip_ms", "ms"),
    ("core.cache.hits", "count"),
    ("core.cache.misses", "count"),
    ("core.cache.evictions", "count"),
    ("core.cache.hit_ratio", "ratio"),
    ("loadgen.lateness_ms_p90", "ms"),
    ("bench.unattributed_ms", "ms"),
    ("bench.tracing_overhead_pct", "%"),
    ("host.ref_loop_ms", "ms"),
    ("host.ref_loop_drift_pct", "%"),
    ("host.runqueue_wait_ms", "ms"),
    ("host.steal_ms", "ms"),
];

/// Settings of one run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub dts: PathBuf,
    pub out: PathBuf,
    /// Corrupts the correctness references after setup, so every op must
    /// be reported as failed (the benchmark's self-test).
    pub plant_wrong_reference: bool,
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Digest of every generated input, so two runs with one seed can
    /// show they measured the same bytes.
    pub inputs_digest: String,
    /// Spans of the traced run, written to the output directory.
    pub spans_json: Option<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one checked op.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts the ops of a timed loop.
    pub fn absorb(&mut self, ops: &Loop) {
        self.attempted += ops.attempted;
        self.failed += ops.failed;
    }
}

/// Samples of a timed loop.
#[derive(Default)]
pub struct Loop {
    /// Latency of each verified op.
    pub latency_ms: Vec<f64>,
    /// How late each op was sent: after its due time in an open loop,
    /// after the previous op's end in a closed loop.
    pub lateness_ms: Vec<f64>,
    /// Tasks in verified results.
    pub tasks: u64,
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
}

impl Loop {
    /// Records one op: `Some((latency_ms, tasks))` when its result was
    /// verified, `None` when it failed.
    pub fn record(&mut self, result: Option<(f64, u64)>) {
        self.attempted += 1;
        match result {
            Some((ms, tasks)) => {
                self.latency_ms.push(ms);
                self.tasks += tasks;
            }
            None => self.failed += 1,
        }
    }
}

/// Runs `op(i)` for `i = 0, 1, …` back to back for `seconds`. Each op
/// returns `Some((latency_ms, tasks))` when its result checked out.
pub fn closed_loop(seconds: f64, mut op: impl FnMut(u64) -> Option<(f64, u64)>) -> Loop {
    let start = Instant::now();
    let mut ops = Loop::default();
    let mut previous_end = start;
    let mut i = 0;
    while start.elapsed().as_secs_f64() < seconds {
        ops.lateness_ms
            .push(previous_end.elapsed().as_secs_f64() * 1e3);
        let result = op(i);
        previous_end = Instant::now();
        ops.record(result);
        i += 1;
    }
    ops.wall_s = start.elapsed().as_secs_f64();
    ops
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Linear-interpolation quantile of `values` (`q` in `0..=1`); 0 when
/// there are none.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A deterministic 64-bit mix (splitmix64) for deriving sub-seeds.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `setup` `reps` times and keeps the last result, with the median
/// wall time of one set-up in seconds.
pub fn repeat_setup<S>(
    reps: usize,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        // Drop the previous set-up first, so each one starts from the same
        // state (no daemon or inputs of an earlier set-up still alive).
        drop(last.take());
        last = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    let last = last.ok_or("no set-up ran")?;
    Ok((last, median(&times)))
}

/// Counts the ops of an untraced run and sets the six end-to-end metrics.
/// The latency metrics describe `foreground`; `bulk_latency_ms_p50`
/// describes `bulk` where the workload has a second op class, and
/// otherwise every op, since then every op is a bulk op.
pub fn record_end_to_end(
    outcome: &mut Outcome,
    foreground: &Loop,
    bulk: Option<&Loop>,
    peak_rss_mb: f64,
    setup_s: f64,
) {
    outcome.absorb(foreground);
    let p50 = median(&foreground.latency_ms);
    outcome.set("latency_ms_p50", p50);
    outcome.set("latency_ms_p90", quantile(&foreground.latency_ms, 0.9));
    let (bulk_p50, tasks, wall_s) = match bulk {
        Some(bulk) => {
            outcome.absorb(bulk);
            let wall_s = foreground.wall_s.max(bulk.wall_s);
            (
                median(&bulk.latency_ms),
                foreground.tasks + bulk.tasks,
                wall_s,
            )
        }
        None => (p50, foreground.tasks, foreground.wall_s),
    };
    outcome.set("bulk_latency_ms_p50", bulk_p50);
    outcome.set("tasks_per_s", tasks as f64 / wall_s);
    outcome.set("peak_rss_mb", peak_rss_mb);
    outcome.set("setup_s", setup_s);
}

/// Adds the host sentinel's readings to a traced outcome.
pub fn record_host(outcome: &mut Outcome, host: host::HostReport) {
    outcome.set("host.ref_loop_ms", host.ref_loop_ms);
    outcome.set("host.ref_loop_drift_pct", host.ref_loop_drift_pct);
    outcome.set("host.runqueue_wait_ms", host.runqueue_wait_ms);
    outcome.set("host.steal_ms", host.steal_ms);
}

/// Sets each layer's median per-op self time from a tracer, under the
/// metric named like the span or, failing that, `<span>_ms`. Returns the
/// medians by span name.
pub fn record_layers(outcome: &mut Outcome, tracer: &span::Tracer) -> BTreeMap<&'static str, f64> {
    let mut medians = BTreeMap::new();
    for (layer, per_op) in tracer.self_ms_per_op() {
        let value = median(&per_op);
        medians.insert(layer, value);
        let metric = PER_LAYER
            .iter()
            .map(|(name, _)| *name)
            .find(|name| *name == layer || name.strip_suffix("_ms") == Some(layer));
        if let Some(name) = metric {
            outcome.set(name, value);
        }
    }
    medians
}

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut dts = None;
    let mut out = None;
    let mut plant_wrong_reference = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--plant-wrong-reference" {
            plant_wrong_reference = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            "--dts" => dts = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        ctx: Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            traced: trace.ok_or("--trace is required")?,
            dts: dts.ok_or("--dts is required")?,
            out: out.ok_or("--out is required")?,
            plant_wrong_reference,
        },
    })
}

fn result_line(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let list = if traced { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(list.len());
    for (name, unit) in list {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            None if traced => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        if outcome.attempted == 0 {
            1
        } else {
            outcome.failed
        },
        metrics.join(", ")
    ))
}

fn run(args: &Args) -> Result<Outcome, String> {
    if args.ctx.traced {
        alloc::enable();
    }
    std::fs::create_dir_all(&args.ctx.out)
        .map_err(|e| format!("cannot create {}: {e}", args.ctx.out.display()))?;
    match args.workload.as_str() {
        "run_md200k" => md::run(&args.ctx),
        "sweep_paper" => sweep::run(&args.ctx),
        "serve_hits" => serve::run(&args.ctx, serve::Mode::Hits),
        "serve_mixed" => serve::run(&args.ctx, serve::Mode::Mixed),
        other => Err(format!(
            "unknown workload '{other}'; expected run_md200k, sweep_paper, serve_hits or serve_mixed"
        )),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let tag = format!("{}-seed{}", args.workload, args.ctx.seed);
    eprintln!(
        "perfbench: {tag} inputs digest {} ({} ops, {} failed)",
        outcome.inputs_digest, outcome.attempted, outcome.failed
    );
    if let Some(spans) = &outcome.spans_json {
        let path = args.ctx.out.join(format!("spans-{tag}.json"));
        if let Err(e) = std::fs::write(&path, spans) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("perfbench: spans written to {}", path.display());
    }
    for (name, value) in &outcome.metrics {
        eprintln!("perfbench:   {name:<32} {value:.4}");
    }
    match result_line(&outcome, args.ctx.traced) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn failed_runs_say_so() {
        let mut outcome = Outcome::default();
        for (name, _) in END_TO_END {
            outcome.set(name, 1.0);
        }
        outcome.check(true);
        outcome.check(false);
        let line = result_line(&outcome, false).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
    }
}
