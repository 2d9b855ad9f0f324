//! `sweep_paper`: the paper's own evaluation, in process.
//!
//! One thread in a closed loop calls `run_trace_sweep` (the function
//! behind `dts sweep`) with all 14 heuristics × 9 capacity factors. One op
//! sweeps one HF rank and one CCSD rank of the 150-rank paper topology;
//! the seed picks 8 such pairs, and ops cycle through them. Pairing the
//! kernels keeps op latency unimodal: an HF rank alone and a CCSD rank
//! alone differ in size.
//!
//! The traced run repeats each pair's sweep from its public parts
//! (`to_instance`, `johnson_makespan`, `CandidateIndex::new`,
//! `run_heuristic`, `makespan`), one span per call.

use crate::span::Tracer;
use crate::{
    alloc, closed_loop, host, median, mix, ms_since, quantile, record_end_to_end, record_host,
    record_layers, Ctx, Outcome,
};
use dts_analysis::sweep::{run_trace_sweep, SweepConfig, SweepRow};
use dts_chem::ccsd::generate_ccsd_trace;
use dts_chem::hf::generate_hf_trace;
use dts_chem::{SuiteConfig, Trace};
use dts_core::hash::StableHasher;
use dts_core::index::CandidateIndex;
use dts_core::MemSize;
use dts_flowshop::johnson::johnson_makespan;
use dts_heuristics::{run_heuristic, Heuristic, HeuristicCategory};
use std::time::Instant;

const PAIRS: usize = 8;
const SETUP_REPS: usize = 5;

struct Pair {
    traces: [Trace; 2],
    reference: Vec<SweepRow>,
    /// Tasks scheduled by one sweep of the pair: tasks × rows.
    tasks: u64,
}

struct Setup {
    pairs: Vec<Pair>,
    digest: String,
}

/// `count` distinct ranks below `n`, drawn from `seed`.
pub fn pick_ranks(seed: u64, n: usize, count: usize) -> Vec<usize> {
    let mut ranks = Vec::with_capacity(count);
    let mut stream = 0;
    while ranks.len() < count {
        let rank = (mix(seed, stream) % n as u64) as usize;
        stream += 1;
        if !ranks.contains(&rank) {
            ranks.push(rank);
        }
    }
    ranks
}

fn sweep_pair(traces: &[Trace; 2], config: &SweepConfig) -> Result<Vec<SweepRow>, String> {
    let mut rows = run_trace_sweep(&traces[0], config).map_err(|e| e.to_string())?;
    rows.extend(run_trace_sweep(&traces[1], config).map_err(|e| e.to_string())?);
    Ok(rows)
}

fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let suite = SuiteConfig::default();
    let n = suite.topology.n_processes();
    let hf = pick_ranks(mix(ctx.seed, 2), n, PAIRS);
    let ccsd = pick_ranks(mix(ctx.seed, 3), n, PAIRS);
    let config = SweepConfig::default();
    let mut hasher = StableHasher::new();
    let mut pairs = Vec::with_capacity(PAIRS);
    for (&h, &c) in hf.iter().zip(&ccsd) {
        let traces = [
            generate_hf_trace(&suite.hf, suite.topology, suite.transfer, suite.cost, h),
            generate_ccsd_trace(&suite.ccsd, suite.topology, suite.transfer, suite.cost, c),
        ];
        for trace in &traces {
            hasher.write_str(&trace.to_json().map_err(|e| e.to_string())?);
        }
        let mut reference = sweep_pair(&traces, &config)?;
        if ctx.plant_wrong_reference {
            reference[0].heuristic.push('!');
        }
        let tasks = (traces[0].len() + traces[1].len()) as u64 * (reference.len() / 2) as u64;
        pairs.push(Pair {
            traces,
            reference,
            tasks,
        });
    }
    Ok(Setup {
        pairs,
        digest: hasher.finish().to_string(),
    })
}

fn rows_ok(rows: &[SweepRow], reference: &[SweepRow]) -> bool {
    rows == reference && rows.iter().all(|r| r.ratio >= 1.0 - 1e-12)
}

/// One op: both sweeps of pair `i % PAIRS`, checked after the clock stops.
fn op(setup: &Setup, config: &SweepConfig, i: u64, tracer: &mut Tracer) -> Option<(f64, u64)> {
    let pair = &setup.pairs[i as usize % PAIRS];
    let start = Instant::now();
    let rows = tracer.span("op", i, |t| {
        let mut rows = t.span("analysis.sweep", i, |_| {
            run_trace_sweep(&pair.traces[0], config)
        });
        let second = t.span("analysis.sweep", i, |_| {
            run_trace_sweep(&pair.traces[1], config)
        });
        if let (Ok(rows), Ok(second)) = (&mut rows, second) {
            rows.extend(second);
        }
        rows
    });
    let ms = ms_since(start);
    let ok = rows.is_ok_and(|rows| rows_ok(&rows, &pair.reference));
    ok.then_some((ms, pair.tasks))
}

/// The span of a `run_heuristic` call: one per heuristic category.
pub fn run_span(heuristic: Heuristic) -> &'static str {
    match heuristic.category() {
        HeuristicCategory::SubmissionOrder => "heuristics.run_ms.os",
        HeuristicCategory::Static => "heuristics.run_ms.static",
        HeuristicCategory::Dynamic => "heuristics.run_ms.dynamic",
        HeuristicCategory::StaticDynamic => "heuristics.run_ms.corrected",
    }
}

/// `run_trace_sweep` rebuilt from its public parts, one span per call.
/// Adds the heuristics' allocation events to `allocs`.
fn decomposed_sweep(
    trace: &Trace,
    config: &SweepConfig,
    op: u64,
    t: &mut Tracer,
    allocs: &mut u64,
) -> Option<Vec<SweepRow>> {
    let unbounded = t
        .span("chem.to_instance", op, |_| {
            trace.to_instance(MemSize::UNBOUNDED)
        })
        .ok()?;
    let omim = t.span("flowshop.omim", op, |_| johnson_makespan(&unbounded));
    let mut rows = Vec::new();
    for &factor in &config.factors {
        let instance = t
            .span("chem.to_instance", op, |_| trace.to_instance_scaled(factor))
            .ok()?;
        t.span("core.index_build", op, |_| {
            drop(CandidateIndex::new(&instance))
        });
        for &heuristic in &config.heuristics {
            let (schedule, delta) = t.span(run_span(heuristic), op, |_| {
                alloc::measure(|| run_heuristic(&instance, heuristic))
            });
            *allocs += delta.allocs;
            let schedule = schedule.ok()?;
            let makespan = t.span("core.metrics", op, |_| schedule.makespan(&instance));
            rows.push(SweepRow {
                kernel: trace.kernel.clone(),
                rank: trace.rank,
                factor,
                capacity: instance.capacity(),
                heuristic: heuristic.name().to_string(),
                makespan,
                omim,
                ratio: makespan.ratio(omim),
            });
        }
    }
    Some(rows)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let reps = if ctx.traced { 1 } else { SETUP_REPS };
    let (setup, setup_s) = crate::repeat_setup(reps, || setup(ctx))?;
    outcome.inputs_digest = setup.digest.clone();
    let config = SweepConfig::default();
    let epoch = Instant::now();
    if !ctx.traced {
        let mut untraced = Tracer::new(epoch, false);
        let ops = closed_loop(ctx.seconds, |i| op(&setup, &config, i, &mut untraced));
        record_end_to_end(&mut outcome, &ops, None, host::peak_rss_mb(), setup_s);
        return Ok(outcome);
    }

    let sentinel = host::Sentinel::start();
    let mut untraced = Tracer::new(epoch, false);
    let plain = closed_loop(ctx.seconds / 2.0, |i| op(&setup, &config, i, &mut untraced));
    let mut tracer = Tracer::new(epoch, true);
    let traced = closed_loop(ctx.seconds / 2.0, |i| op(&setup, &config, i, &mut tracer));
    outcome.absorb(&plain);
    outcome.absorb(&traced);

    let mut layers = Tracer::new(epoch, true);
    let mut allocs = Vec::with_capacity(PAIRS);
    for (i, pair) in setup.pairs.iter().enumerate() {
        let op = i as u64;
        let mut op_allocs = 0;
        let rows = layers.span("replay", op, |t| {
            let mut rows = decomposed_sweep(&pair.traces[0], &config, op, t, &mut op_allocs)?;
            rows.extend(decomposed_sweep(
                &pair.traces[1],
                &config,
                op,
                t,
                &mut op_allocs,
            )?);
            Some(rows)
        });
        outcome.check(rows.is_some_and(|rows| rows_ok(&rows, &pair.reference)));
        allocs.push(op_allocs as f64);
    }
    record_host(&mut outcome, sentinel.finish());

    let sweep = record_layers(&mut outcome, &tracer);
    let parts = record_layers(&mut outcome, &layers);
    let parts_ms: f64 = parts
        .iter()
        .filter(|(name, _)| !matches!(**name, "replay" | "core.index_build"))
        .map(|(_, ms)| ms)
        .sum();
    let sweep_ms = sweep.get("analysis.sweep").copied().unwrap_or(0.0);
    outcome.set("bench.unattributed_ms", sweep_ms - parts_ms);
    outcome.set("heuristics.run_allocs", median(&allocs));
    outcome.set(
        "loadgen.lateness_ms_p90",
        quantile(&traced.lateness_ms, 0.9),
    );
    outcome.set(
        "bench.tracing_overhead_pct",
        (median(&traced.latency_ms) / median(&plain.latency_ms) - 1.0) * 100.0,
    );
    tracer.absorb(layers);
    outcome.spans_json = Some(tracer.to_json());
    Ok(outcome)
}
