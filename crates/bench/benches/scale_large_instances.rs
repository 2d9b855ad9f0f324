//! Scale scenario: the dynamic and corrected heuristics, the iterative
//! `lp.k` heuristic and batched scheduling on 1k–50k-task random
//! instances, plus a 100k/500k/1M-task MAMR/OOMAMR tier stressing the
//! candidate index's ratio machinery, and MAMR/OOMAMR on a 200k-task
//! md trace with continuous transfer times under memory pressure.
//!
//! The paper's evaluation (Figs. 9–13) stays below a few thousand tasks per
//! trace, but the engine must also hold up on production-sized batches. The
//! dynamic/corrected decision loops resolve each decision with O(log n)
//! threshold queries against a memory-indexed candidate structure
//! (`dts_core::index::CandidateIndex`) instead of scanning every remaining
//! task, and batched runs solve their batches on parallel workers; this
//! bench pins both wins (see the Performance section of the README for
//! recorded numbers). The large tier exists because the ratio query is the
//! index's hardest case: these instances are tie-heavy (tiny discrete
//! comm/comp/mem domains) with tight memory, exactly the workload that
//! degenerates naive max-ratio searches. The continuous tier is its
//! opposite: nearly every transfer time is distinct, so the ratio query's
//! buckets outnumber `log2 n` and the index keeps the stage-1 probe that
//! quantized traces drop; it guards that rule. Set `DTS_BENCH_SCALE_MAX`
//! (tasks, default 1000000) to cap the largest instance attempted.
//!
//! Scale benches are inherently noisier than the table replays (allocator
//! and cache behavior at hundreds of MB dominates), so both groups widen
//! their baseline-comparison allowance via `Criterion::noise_threshold`.

use criterion::{criterion_group, Criterion};
use dts_core::instances::random_instance_decoupled_memory;
use dts_core::Time;
use dts_heuristics::{run_heuristic, run_heuristic_batched, BatchConfig, Heuristic};
use dts_milp::{lp_k, LpKConfig};
use dts_workloads::{generate_trace, GeneratorConfig, WorkloadFamily};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Relative mean drift tolerated by both scale groups before a baseline
/// comparison counts as a regression (on top of the CLI's own allowance,
/// whichever is larger).
const SCALE_NOISE_THRESHOLD: f64 = 6.0;

fn user_cap() -> Option<usize> {
    std::env::var("DTS_BENCH_SCALE_MAX")
        .ok()
        .and_then(|v| v.parse().ok())
}

fn max_tasks() -> usize {
    let default = if criterion::smoke_mode() {
        // Smoke profile: the 1k instances exercise every code path in
        // milliseconds; 10k/50k are for real perf sessions.
        1_000
    } else {
        50_000
    };
    user_cap().unwrap_or(default)
}

fn max_tasks_large() -> usize {
    let default = if criterion::smoke_mode() {
        // The 100k tier runs in ~150 ms per heuristic — cheap enough for
        // CI, and it is the size the large-instance work is pinned at.
        100_000
    } else {
        1_000_000
    };
    user_cap().unwrap_or(default)
}

fn instance_for(n_tasks: usize) -> dts_core::Instance {
    // A tight capacity (1.2·mc) keeps memory the binding constraint, so
    // the candidate index actually gates on memory instead of
    // degenerating to FIFO.
    let mut rng = StdRng::seed_from_u64(n_tasks as u64);
    random_instance_decoupled_memory(&mut rng, n_tasks, 1.2)
}

fn bench(c: &mut Criterion) {
    let cap = max_tasks();
    for n_tasks in [1_000usize, 10_000, 50_000] {
        if n_tasks > cap {
            continue;
        }
        let instance = instance_for(n_tasks);
        for heuristic in [Heuristic::LCMR, Heuristic::MAMR, Heuristic::OOLCMR] {
            c.bench_function(
                &format!("scale/{}_{}tasks", heuristic.name(), n_tasks),
                |b| {
                    b.iter(|| {
                        run_heuristic(&instance, heuristic)
                            .expect("heuristic runs")
                            .makespan(&instance)
                    })
                },
            );
        }
        // The iterative MILP heuristic: 250 windows per 1k tasks at k = 4.
        c.bench_function(&format!("scale/lp4_{n_tasks}tasks"), |b| {
            b.iter(|| {
                lp_k(&instance, LpKConfig { window: 4 })
                    .expect("lp.4 runs")
                    .makespan(&instance)
            })
        });
        // Batched scheduling (paper batch size 100): from
        // `PARALLEL_BATCH_MIN_TASKS` up the batches are solved in parallel
        // and stitched.
        let config = BatchConfig { batch_size: 100 };
        c.bench_function(&format!("scale/batched_OOLCMR_{n_tasks}tasks"), |b| {
            b.iter(|| {
                run_heuristic_batched(&instance, Heuristic::OOLCMR, config)
                    .expect("batched heuristic runs")
                    .makespan(&instance)
            })
        });
    }
}

/// The 100k–1M tier: only the two maximum-acceleration heuristics, whose
/// selection rule exercises the ratio trees — the communication criteria
/// are already covered (and cheaper) above.
fn bench_large(c: &mut Criterion) {
    let cap = max_tasks_large();
    for n_tasks in [100_000usize, 500_000, 1_000_000] {
        if n_tasks > cap {
            continue;
        }
        let instance = instance_for(n_tasks);
        for heuristic in [Heuristic::MAMR, Heuristic::OOMAMR] {
            c.bench_function(
                &format!("scale/{}_{}tasks", heuristic.name(), n_tasks),
                |b| {
                    b.iter(|| {
                        run_heuristic(&instance, heuristic)
                            .expect("heuristic runs")
                            .makespan(&instance)
                    })
                },
            );
        }
    }
}

/// Tasks of the continuous-transfer-time tier.
const CONTINUOUS_TASKS: usize = 200_000;

/// The md trace of `dts generate md --tasks 200000 --seed 7` at 1.75·mc,
/// the factor where two tasks first fit together, with its times read at
/// nanosecond resolution: every time is scaled by 1000 and each transfer
/// time gets a uniform extra 0–999 ns. The shape stays the md trace's, but
/// nearly every transfer time is distinct.
fn continuous_md_instance() -> dts_core::Instance {
    let config = GeneratorConfig {
        n_tasks: CONTINUOUS_TASKS,
        seed: 7,
        ..GeneratorConfig::new(WorkloadFamily::MdLike)
    };
    let mut trace = generate_trace(&config, 0).expect("md generates");
    let mut rng = StdRng::seed_from_u64(7);
    for task in trace.tasks_mut() {
        task.comm_time = Time(task.comm_time.ticks() * 1000 + rng.gen_range(0..1000u64));
        task.comp_time = Time(task.comp_time.ticks() * 1000);
    }
    trace.to_instance_scaled(1.75).expect("feasible at 1.75 mc")
}

/// MAMR and OOMAMR on [`continuous_md_instance`].
fn bench_continuous(c: &mut Criterion) {
    if CONTINUOUS_TASKS > user_cap().unwrap_or(CONTINUOUS_TASKS) {
        return;
    }
    let instance = continuous_md_instance();
    for heuristic in [Heuristic::MAMR, Heuristic::OOMAMR] {
        c.bench_function(
            &format!(
                "scale/{}_continuous_md_{CONTINUOUS_TASKS}tasks_1.75mc",
                heuristic.name()
            ),
            |b| {
                b.iter(|| {
                    run_heuristic(&instance, heuristic)
                        .expect("heuristic runs")
                        .makespan(&instance)
                })
            },
        );
    }
}

criterion_group! {
    name = benches;
    // One sample per 10k/50k instance keeps a full run bearable; the smoke
    // profile only touches the 1k instances, where ten samples are cheap
    // and give the regression gate a real confidence interval.
    config = Criterion::default()
        .sample_size(if criterion::smoke_mode() { 10 } else { 1 })
        .noise_threshold(SCALE_NOISE_THRESHOLD);
    targets = bench
}
criterion_group! {
    name = benches_large;
    // Five samples keep the smoke tier's confidence interval meaningful at
    // ~150 ms per pass; full runs take two samples so a 1M pass still
    // finishes in seconds.
    config = Criterion::default()
        .sample_size(if criterion::smoke_mode() { 5 } else { 2 })
        .noise_threshold(SCALE_NOISE_THRESHOLD);
    targets = bench_large
}
criterion_group! {
    name = benches_continuous;
    // About a second per pass: three samples in the smoke profile.
    config = Criterion::default()
        .sample_size(if criterion::smoke_mode() { 3 } else { 5 })
        .noise_threshold(SCALE_NOISE_THRESHOLD);
    targets = bench_continuous
}
dts_bench::harness_main!(
    "scale_large_instances",
    benches,
    benches_large,
    benches_continuous
);
