//! Batched scheduling (Section 6.3 of the paper).
//!
//! A runtime scheduler usually only sees a limited window of independent
//! tasks. The paper models this by splitting each trace into batches of 100
//! tasks and applying each heuristic to the batches in succession; the
//! makespan is the completion time of the last batch, with batches executed
//! back to back.
//!
//! Because every batch starts from an empty memory and idle resources, the
//! per-batch schedules do not depend on each other — only their *placement
//! on the time axis* does. [`run_heuristic_batched`] exploits this: on
//! large instances it solves all batches in parallel, then stitches the
//! sub-schedules together sequentially by accumulating each batch's
//! makespan as the offset of the next, producing the exact schedule a
//! sequential run builds.

use crate::{run_heuristic, Heuristic};
use dts_core::pool::run_indexed_pool;
use dts_core::prelude::*;

/// Configuration of batched execution.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Number of tasks per batch (the paper uses 100). The last batch may be
    /// smaller.
    pub batch_size: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { batch_size: 100 }
    }
}

/// Runs `heuristic` on successive batches of `instance` and returns the
/// resulting global schedule. Batches are scheduled one after the other: the
/// communications and computations of batch `k + 1` start no earlier than
/// the completion of batch `k` (the runtime only discovers the next batch
/// once the current one is done).
///
/// The per-batch solves are independent of runtime state, so instances of
/// at least [`PARALLEL_BATCH_MIN_TASKS`] tasks solve them in parallel (up to
/// the machine's available parallelism) and stitch them together in batch
/// order afterwards; the schedule is identical to a sequential run's.
///
/// # Errors
///
/// A failing batch stops the pool; among the failures observed, the one of
/// the lowest batch index is returned — the same error a sequential run
/// reports, since that run would fail at the first bad batch. A panic inside
/// a batch surfaces as [`CoreError::Internal`].
///
/// ```
/// use dts_core::instances::table5;
/// use dts_heuristics::{run_heuristic, run_heuristic_batched, BatchConfig, Heuristic};
///
/// let instance = table5();
/// let batched = run_heuristic_batched(
///     &instance,
///     Heuristic::OOLCMR,
///     BatchConfig { batch_size: 2 },
/// )
/// .unwrap();
/// // Splitting 5 tasks into batches of 2 limits the scheduler's look-ahead;
/// // on this fixture (the heuristics are greedy, so this is not a law) the
/// // batched makespan does not beat the whole-instance run.
/// let whole = run_heuristic(&instance, Heuristic::OOLCMR).unwrap();
/// assert!(batched.makespan(&instance) >= whole.makespan(&instance));
/// ```
pub fn run_heuristic_batched(
    instance: &Instance,
    heuristic: Heuristic,
    config: BatchConfig,
) -> Result<Schedule> {
    let threads = if instance.len() < PARALLEL_BATCH_MIN_TASKS {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    };
    batched_on_workers(instance, heuristic, config, threads)
}

/// Instance size at or above which [`run_heuristic_batched`] fans its
/// batches out across workers. On a 2-vCPU host, batched OOLCMR (batch
/// size 100) with two workers lost at 256 tasks (0.12 vs 0.08 ms), broke
/// even around 1k and won from 2k up (10k: 2.6 vs 4.5 ms; 50k: 12 vs
/// 22 ms).
pub const PARALLEL_BATCH_MIN_TASKS: usize = 1_000;

/// [`run_heuristic_batched`] on `threads` workers (`threads <= 1` solves
/// the batches sequentially). Workers claim batches one at a time from a
/// shared index, so heterogeneous batch costs do not stall the pool; the
/// stitching pass is always sequential and deterministic.
fn batched_on_workers(
    instance: &Instance,
    heuristic: Heuristic,
    config: BatchConfig,
    threads: usize,
) -> Result<Schedule> {
    if config.batch_size == 0 {
        return Err(CoreError::Infeasible("batch size must be positive".into()));
    }
    let ids = instance.task_ids();
    let batches: Vec<&[TaskId]> = ids.chunks(config.batch_size).collect();
    let solved = solve_batches(instance, heuristic, &batches, threads)?;

    let mut global = Schedule::with_capacity(instance.len());
    let mut offset = Time::ZERO;
    for (batch, (sub_schedule, makespan)) in batches.iter().zip(solved) {
        // Translate the sub-schedule back to global task ids and shift it by
        // the completion time of the previous batches.
        for entry in sub_schedule.entries() {
            global.push(ScheduleEntry {
                task: batch[entry.task.index()],
                comm_start: entry.comm_start + offset,
                comp_start: entry.comp_start + offset,
            });
        }
        offset += makespan;
    }
    Ok(global)
}

/// Solves every batch independently (each from an empty runtime state) and
/// returns, in batch order, each sub-schedule with its makespan. The
/// work-stealing, abort-on-error and lowest-index-error semantics come
/// from [`run_indexed_pool`].
fn solve_batches(
    instance: &Instance,
    heuristic: Heuristic,
    batches: &[&[TaskId]],
    threads: usize,
) -> Result<Vec<(Schedule, Time)>> {
    run_indexed_pool(batches.len(), threads, |index| {
        let sub = instance.sub_instance(batches[index])?;
        let sub_schedule = run_heuristic(&sub, heuristic)?;
        let makespan = sub_schedule.makespan(&sub);
        Ok((sub_schedule, makespan))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dts_core::feasibility::is_feasible;
    use dts_core::instances::random_instance_decoupled_memory;
    use dts_flowshop::johnson::johnson_makespan;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn batched_schedule_is_feasible_and_complete() {
        let mut rng = StdRng::seed_from_u64(7);
        let inst = random_instance_decoupled_memory(&mut rng, 57, 1.3);
        for h in [Heuristic::OOSIM, Heuristic::MAMR, Heuristic::OOLCMR] {
            let sched = run_heuristic_batched(&inst, h, BatchConfig { batch_size: 10 }).unwrap();
            assert_eq!(sched.len(), inst.len());
            assert!(is_feasible(&inst, &sched), "{h}");
        }
    }

    #[test]
    fn batching_never_improves_over_whole_instance_lower_bound() {
        let mut rng = StdRng::seed_from_u64(8);
        let inst = random_instance_decoupled_memory(&mut rng, 40, 1.5);
        let omim = johnson_makespan(&inst);
        let sched =
            run_heuristic_batched(&inst, Heuristic::OOMAMR, BatchConfig { batch_size: 8 }).unwrap();
        assert!(sched.makespan(&inst) >= omim);
        // ... and at least the sum of the batches' own OMIM bounds.
        let mut batched_bound = Time::ZERO;
        for batch in inst.task_ids().chunks(8) {
            batched_bound += johnson_makespan(&inst.sub_instance(batch).unwrap());
        }
        assert!(sched.makespan(&inst) >= batched_bound);
        assert!(batched_bound >= omim);
    }

    #[test]
    fn one_big_batch_equals_unbatched() {
        let mut rng = StdRng::seed_from_u64(9);
        let inst = random_instance_decoupled_memory(&mut rng, 25, 1.4);
        for h in [Heuristic::IOCMS, Heuristic::SCMR, Heuristic::OOSCMR] {
            let batched =
                run_heuristic_batched(&inst, h, BatchConfig { batch_size: 1000 }).unwrap();
            let plain = run_heuristic(&inst, h).unwrap();
            assert_eq!(batched.makespan(&inst), plain.makespan(&inst), "{h}");
        }
    }

    #[test]
    fn smaller_batches_generally_cost_more() {
        // Batching reduces the scheduler's look-ahead; with batch size 1 the
        // schedule is fully sequential and must be the worst of the three.
        let mut rng = StdRng::seed_from_u64(10);
        let inst = random_instance_decoupled_memory(&mut rng, 30, 1.6);
        let tiny = run_heuristic_batched(&inst, Heuristic::OOLCMR, BatchConfig { batch_size: 1 })
            .unwrap()
            .makespan(&inst);
        let whole =
            run_heuristic_batched(&inst, Heuristic::OOLCMR, BatchConfig { batch_size: 1000 })
                .unwrap()
                .makespan(&inst);
        assert!(tiny >= whole);
        // Batch size 1 is exactly the sequential sum of all task times.
        let stats = inst.stats();
        assert_eq!(tiny, stats.sequential_upper_bound());
    }

    #[test]
    fn pooled_batches_match_sequential_exactly() {
        // The parallel path must reproduce the sequential schedule entry for
        // entry (same tasks, same instants), whatever the worker count.
        let mut rng = StdRng::seed_from_u64(12);
        for n_tasks in [1usize, 9, 33, 70] {
            let inst = random_instance_decoupled_memory(&mut rng, n_tasks, 1.3);
            for h in [Heuristic::OS, Heuristic::MAMR, Heuristic::OOLCMR] {
                for batch_size in [1usize, 7, 100] {
                    let config = BatchConfig { batch_size };
                    let sequential = batched_on_workers(&inst, h, config, 1).unwrap();
                    for threads in [2usize, 5, 64] {
                        let pooled = batched_on_workers(&inst, h, config, threads).unwrap();
                        assert_eq!(
                            sequential, pooled,
                            "{h} diverged: n={n_tasks} batch={batch_size} threads={threads}"
                        );
                    }
                    let auto = run_heuristic_batched(&inst, h, config).unwrap();
                    assert_eq!(sequential, auto, "{h} auto-threaded run diverged");
                }
            }
        }
    }

    #[test]
    fn pooled_batches_report_the_earliest_failing_batch() {
        // Task 5 (batch #1 of size-4 batches) exceeds the capacity; both the
        // sequential and the pooled run must surface that batch's error.
        let json = format!(
            r#"{{
                "tasks": [{}],
                "capacity": 4,
                "label": "malformed"
            }}"#,
            (0..12)
                .map(|i| format!(
                    r#"{{"name": "t{i}", "comm_time": 1000, "comp_time": 1000, "mem": {}}}"#,
                    if i == 5 { 9 } else { 2 }
                ))
                .collect::<Vec<_>>()
                .join(",")
        );
        let inst: Instance = serde_json::from_str(&json).unwrap();
        let config = BatchConfig { batch_size: 4 };
        let sequential = batched_on_workers(&inst, Heuristic::LCMR, config, 1).unwrap_err();
        let pooled = batched_on_workers(&inst, Heuristic::LCMR, config, 4).unwrap_err();
        assert_eq!(sequential, pooled);
        assert!(matches!(
            pooled,
            CoreError::TaskExceedsCapacity {
                task: TaskId(1),
                ..
            }
        ));
    }

    #[test]
    fn zero_batch_size_rejected() {
        let mut rng = StdRng::seed_from_u64(11);
        let inst = random_instance_decoupled_memory(&mut rng, 5, 1.5);
        assert!(
            run_heuristic_batched(&inst, Heuristic::OS, BatchConfig { batch_size: 0 }).is_err()
        );
    }
}
