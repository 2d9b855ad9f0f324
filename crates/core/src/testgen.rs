//! [`microcheck`] generators for the core domain types.
//!
//! Property tests across the workspace draw task lists and whole instances
//! from these generators instead of hand-rolling seeded loops. Shrinking
//! follows the shape of the domain: task lists **halve their task count**
//! before removing single tasks, and the per-task communication,
//! computation and memory values shrink toward the low end of their ranges
//! (memory conventionally toward 1), so a failing schedule-level property
//! minimizes to a near-trivial instance whose defect is readable by eye.
//!
//! ```
//! use dts_core::testgen;
//! use microcheck::{Config, Gen};
//! use rand::prelude::*;
//!
//! let gen = testgen::instance_gen(1..=20);
//! let mut rng = StdRng::seed_from_u64(7);
//! let spec = gen.generate(&mut rng);
//! let instance = spec.build();
//! assert_eq!(instance.len(), spec.tasks.len());
//! // Capacity always covers the largest task, so the instance is valid.
//! assert!(instance.tasks().iter().all(|t| t.mem <= instance.capacity()));
//! ```

use crate::instance::{Instance, InstanceBuilder};
use crate::instances::numbered;
use crate::memory::MemSize;
use crate::task::Task;
use crate::time::Time;
use microcheck::gens::{self, IntRange, VecOf};
use microcheck::Gen;
use rand::prelude::*;
use std::ops::RangeInclusive;

/// The raw integers a generated task is built from: communication and
/// computation times in whole [`Time`] units and the memory requirement in
/// bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskSpec {
    /// Communication time, whole units.
    pub comm: u64,
    /// Computation time, whole units.
    pub comp: u64,
    /// Memory requirement, bytes.
    pub mem: u64,
}

impl TaskSpec {
    /// Materializes the spec as a [`Task`].
    pub fn to_task(self) -> Task {
        Task::new(
            Time::units_int(self.comm),
            Time::units_int(self.comp),
            MemSize::from_bytes(self.mem),
        )
    }
}

/// Generator of single [`TaskSpec`]s; see [`task_gen`].
#[derive(Debug, Clone)]
pub struct TaskGen {
    comm: IntRange<u64>,
    comp: IntRange<u64>,
    mem: IntRange<u64>,
}

/// Tasks with communication/computation times and memory drawn uniformly
/// from the given inclusive ranges. Each field shrinks toward its range's
/// low end independently.
pub fn task_gen(
    comm: RangeInclusive<u64>,
    comp: RangeInclusive<u64>,
    mem: RangeInclusive<u64>,
) -> TaskGen {
    TaskGen {
        comm: gens::u64_in(comm),
        comp: gens::u64_in(comp),
        mem: gens::u64_in(mem),
    }
}

/// The default task domain of the paper-style random tests: times in
/// `0..=30` units, memory in `1..=16` bytes.
pub fn small_task_gen() -> TaskGen {
    task_gen(0..=30, 0..=30, 1..=16)
}

/// A tie-heavy task domain: tiny value ranges force many equal
/// communication times, ratios and memory footprints, the cases where
/// id-based tie-breaking is all that separates candidates.
pub fn tie_heavy_task_gen() -> TaskGen {
    task_gen(0..=2, 0..=2, 0..=4)
}

/// A transfer-bound task domain: communication dominates computation, so
/// under the explicit model the link is the bottleneck and the overlap
/// models (duplex, streams) genuinely reshape the timeline — and, through
/// earlier releases, the decisions of the dynamic heuristics. The
/// adversarial domain of the execution-model properties.
pub fn transfer_bound_task_gen() -> TaskGen {
    task_gen(8..=30, 0..=6, 1..=16)
}

/// Transfer-bound *and* tie-heavy: communication still dominates but is
/// drawn from a tiny range, so channel assignments and id tie-breaks
/// decide everything.
pub fn transfer_bound_tie_heavy_task_gen() -> TaskGen {
    task_gen(3..=5, 0..=1, 1..=3)
}

/// A memory-cliff task domain: every task needs more than half of the
/// largest task's memory, so with tight capacity slack (see
/// [`memory_cliff_instance_gen`]) almost no two tasks coexist in memory —
/// the schedule degenerates to near-sequential execution punctuated by
/// memory-blocked decisions, the regime where the candidate index's
/// memory filtering does all the work.
pub fn memory_cliff_task_gen() -> TaskGen {
    task_gen(0..=30, 0..=30, 8..=16)
}

/// Instances from the [`memory_cliff_task_gen`] domain with at most one
/// byte of capacity slack: since every task needs 8–16 bytes and the
/// capacity is the largest task plus the slack (at most 17), two tasks fit
/// together only when both sit near the domain's low end while the
/// largest task sits at its top.
pub fn memory_cliff_instance_gen(len: RangeInclusive<usize>) -> InstanceGen {
    instance_gen_with(memory_cliff_task_gen(), len, 0..=1)
}

/// A continuous-communication task domain: communication times are drawn
/// from a range vastly wider than any generated task count, so almost
/// every task sits in its own equal-communication run — the regime where
/// the candidate index's ratio query must rely on its bucketed search
/// instead of run-granular probing (one probe per run is a linear scan
/// here).
pub fn continuous_comm_task_gen() -> TaskGen {
    task_gen(0..=100_000, 0..=30, 8..=16)
}

/// Instances combining [`continuous_comm_task_gen`] with the memory
/// cliff of [`memory_cliff_instance_gen`]: at most one byte of capacity
/// slack over tasks needing 8–16 bytes, so run champions are routinely
/// memory-blocked while nearly every run is distinct — the adversarial
/// domain of the bucketed ratio query.
pub fn continuous_comm_memory_cliff_instance_gen(len: RangeInclusive<usize>) -> InstanceGen {
    instance_gen_with(continuous_comm_task_gen(), len, 0..=1)
}

/// Instances from the [`transfer_bound_task_gen`] domain with tight
/// capacity slack, so memory waits interleave with channel contention.
pub fn transfer_bound_instance_gen(len: RangeInclusive<usize>) -> InstanceGen {
    instance_gen_with(transfer_bound_task_gen(), len, 0..=6)
}

/// Instances from the [`transfer_bound_tie_heavy_task_gen`] domain with
/// tight capacity slack.
pub fn transfer_bound_tie_heavy_instance_gen(len: RangeInclusive<usize>) -> InstanceGen {
    instance_gen_with(transfer_bound_tie_heavy_task_gen(), len, 0..=4)
}

impl Gen for TaskGen {
    type Value = TaskSpec;

    fn generate(&self, rng: &mut StdRng) -> TaskSpec {
        TaskSpec {
            comm: self.comm.generate(rng),
            comp: self.comp.generate(rng),
            mem: self.mem.generate(rng),
        }
    }

    fn shrink(&self, value: &TaskSpec) -> Vec<TaskSpec> {
        let mut out = Vec::new();
        for comm in self.comm.shrink(&value.comm) {
            out.push(TaskSpec { comm, ..*value });
        }
        for comp in self.comp.shrink(&value.comp) {
            out.push(TaskSpec { comp, ..*value });
        }
        for mem in self.mem.shrink(&value.mem) {
            out.push(TaskSpec { mem, ..*value });
        }
        out
    }
}

/// Task lists of `len` tasks drawn from `task`. Shrinking halves the list
/// before removing single tasks, then shrinks individual task values.
pub fn task_list_gen(task: TaskGen, len: RangeInclusive<usize>) -> VecOf<TaskGen> {
    gens::vec_of(task, len)
}

/// A shrinkable recipe for a whole [`Instance`]; produced by
/// [`instance_gen`], materialized with [`InstanceSpec::build`].
///
/// The capacity is stored as *slack above the largest task* rather than as
/// an absolute number so that every shrink of the task list keeps the
/// instance valid (capacity always covers the largest remaining task).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceSpec {
    /// The task list.
    pub tasks: Vec<TaskSpec>,
    /// Extra capacity in bytes on top of the largest task's memory.
    pub slack: u64,
}

impl InstanceSpec {
    /// The memory capacity this spec implies.
    pub fn capacity(&self) -> u64 {
        self.tasks
            .iter()
            .map(|t| t.mem)
            .max()
            .unwrap_or(0)
            .saturating_add(self.slack)
            .max(1)
    }

    /// Builds the instance (tasks named `t0`, `t1`, ... in order).
    ///
    /// # Panics
    ///
    /// Panics if the spec has no tasks (generators built by
    /// [`instance_gen`] always draw at least one).
    pub fn build(&self) -> Instance {
        assert!(
            !self.tasks.is_empty(),
            "InstanceSpec::build needs at least one task"
        );
        let mut builder = InstanceBuilder::new().capacity(MemSize::from_bytes(self.capacity()));
        let mut name = String::new();
        for (i, task) in self.tasks.iter().enumerate() {
            builder = builder.task(numbered(&mut name, i), task.to_task());
        }
        match builder.build() {
            Ok(instance) => instance,
            // `capacity()` covers the largest task by construction and
            // emptiness is asserted above, so no builder error remains.
            Err(e) => unreachable!("spec capacity covers every task: {e}"),
        }
    }
}

/// Generator of [`InstanceSpec`]s; see [`instance_gen`] /
/// [`instance_gen_with`].
#[derive(Debug, Clone)]
pub struct InstanceGen {
    tasks: VecOf<TaskGen>,
    slack: IntRange<u64>,
}

/// Instances of `len` tasks from the [`small_task_gen`] domain, with a
/// small random capacity slack (0–8 bytes above the largest task).
pub fn instance_gen(len: RangeInclusive<usize>) -> InstanceGen {
    instance_gen_with(small_task_gen(), len, 0..=8)
}

/// Instances with an explicit task domain and capacity slack range. The
/// length range must not include 0 — empty instances are rejected by
/// [`InstanceBuilder`].
pub fn instance_gen_with(
    task: TaskGen,
    len: RangeInclusive<usize>,
    slack: RangeInclusive<u64>,
) -> InstanceGen {
    assert!(*len.start() >= 1, "instances need at least one task");
    InstanceGen {
        tasks: task_list_gen(task, len),
        slack: gens::u64_in(slack),
    }
}

impl Gen for InstanceGen {
    type Value = InstanceSpec;

    fn generate(&self, rng: &mut StdRng) -> InstanceSpec {
        InstanceSpec {
            tasks: self.tasks.generate(rng),
            slack: self.slack.generate(rng),
        }
    }

    fn shrink(&self, value: &InstanceSpec) -> Vec<InstanceSpec> {
        let mut out: Vec<InstanceSpec> = self
            .tasks
            .shrink(&value.tasks)
            .into_iter()
            .map(|tasks| InstanceSpec {
                tasks,
                slack: value.slack,
            })
            .collect();
        out.extend(
            self.slack
                .shrink(&value.slack)
                .into_iter()
                .map(|slack| InstanceSpec {
                    tasks: value.tasks.clone(),
                    slack,
                }),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_instances_are_valid_and_in_domain() {
        let gen = instance_gen(1..=25);
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let spec = gen.generate(&mut rng);
            assert!((1..=25).contains(&spec.tasks.len()));
            let instance = spec.build();
            assert_eq!(instance.len(), spec.tasks.len());
            for task in instance.tasks() {
                assert!(task.mem <= instance.capacity());
                assert!(task.comm_time <= Time::units_int(30));
                assert!(task.comp_time <= Time::units_int(30));
            }
        }
    }

    #[test]
    fn instance_shrinks_never_lose_validity_or_grow() {
        let gen = instance_gen(1..=25);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let spec = gen.generate(&mut rng);
            for candidate in gen.shrink(&spec) {
                assert!(!candidate.tasks.is_empty());
                assert!(candidate.tasks.len() <= spec.tasks.len());
                // Building must succeed for every shrink candidate.
                let instance = candidate.build();
                assert!(instance
                    .tasks()
                    .iter()
                    .all(|t| t.mem <= instance.capacity()));
            }
        }
    }

    #[test]
    fn memory_cliff_instances_rarely_fit_two_tasks() {
        let gen = memory_cliff_instance_gen(2..=12);
        let mut rng = StdRng::seed_from_u64(11);
        let (mut pairs, mut blocked) = (0u64, 0u64);
        for _ in 0..50 {
            let spec = gen.generate(&mut rng);
            let capacity = spec.capacity();
            for window in spec.tasks.windows(2) {
                pairs += 1;
                let pair = window[0].mem.checked_add(window[1].mem);
                if pair.is_none_or(|sum| sum > capacity) {
                    blocked += 1;
                }
            }
        }
        // The cliff shape: the strong majority of adjacent pairs cannot
        // coexist in memory (both tasks need > half the capacity unless
        // both sit at the domain's low end).
        assert!(
            blocked * 10 >= pairs * 6,
            "only {blocked}/{pairs} pairs were memory-blocked"
        );
    }

    #[test]
    fn task_spec_shrinks_move_toward_the_range_lows() {
        let gen = small_task_gen();
        let spec = TaskSpec {
            comm: 20,
            comp: 10,
            mem: 8,
        };
        for candidate in gen.shrink(&spec) {
            assert!(
                candidate.comm <= spec.comm
                    && candidate.comp <= spec.comp
                    && candidate.mem <= spec.mem
            );
            assert!(candidate != spec);
            assert!(candidate.mem >= 1, "memory shrinks toward 1, not 0");
        }
    }
}
