//! Oracle suite for [`CandidateIndex`]: every query must agree with a naive
//! scan over the same task set, for arbitrary removal orders and arbitrary
//! `(free memory, communication bound)` probes.
//!
//! The naive scans below restate the selection semantics of the paper's
//! dynamic heuristics (largest/smallest communication time, maximum
//! acceleration ratio — ties always to the smallest id), so this suite is
//! what licenses the heuristics to trust the index instead of rescanning
//! the remaining tasks on every decision.
//!
//! The ratio query has two layouts, with and without its stage-1 probe
//! (the all-tasks grouping), and the index picks one by a rule on its own
//! counts. Every check runs both, whatever the rule would pick.

use dts_core::index::CandidateIndex;
use dts_core::instances::{
    random_instance, random_instance_decoupled_memory, RandomInstanceConfig,
};
use dts_core::{Instance, InstanceBuilder, MemSize, TaskId, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Naive scan: smallest `(comm, id)` among alive tasks with `mem <= free`.
fn naive_min_comm(instance: &Instance, alive: &[bool], free: MemSize) -> Option<TaskId> {
    instance
        .iter()
        .filter(|(id, t)| alive[id.index()] && t.mem <= free)
        .min_by_key(|(id, t)| (t.comm_time, id.index()))
        .map(|(id, _)| id)
}

/// Naive scan: largest comm `<= bound`, ties to the smallest id.
fn naive_max_comm(
    instance: &Instance,
    alive: &[bool],
    free: MemSize,
    bound: Time,
) -> Option<TaskId> {
    instance
        .iter()
        .filter(|(id, t)| alive[id.index()] && t.mem <= free && t.comm_time <= bound)
        .max_by_key(|(id, t)| (t.comm_time, std::cmp::Reverse(id.index())))
        .map(|(id, _)| id)
}

/// Naive scan: largest acceleration ratio among tasks with comm `<= bound`,
/// ties to the smallest id. `Time::ratio` never yields NaN, so the `f64`
/// comparison is total.
fn naive_best_ratio(
    instance: &Instance,
    alive: &[bool],
    free: MemSize,
    bound: Time,
) -> Option<TaskId> {
    instance
        .iter()
        .filter(|(id, t)| alive[id.index()] && t.mem <= free && t.comm_time <= bound)
        .min_by(|(a_id, a), (b_id, b)| {
            b.acceleration_ratio()
                .partial_cmp(&a.acceleration_ratio())
                .expect("acceleration ratios are never NaN")
                .then(a_id.index().cmp(&b_id.index()))
        })
        .map(|(id, _)| id)
}

/// Naive scan: largest acceleration ratio among tasks with comm exactly
/// `comm`, ties to the smallest id.
fn naive_best_ratio_at(
    instance: &Instance,
    alive: &[bool],
    free: MemSize,
    comm: Time,
) -> Option<TaskId> {
    instance
        .iter()
        .filter(|(id, t)| alive[id.index()] && t.mem <= free && t.comm_time == comm)
        .min_by(|(a_id, a), (b_id, b)| {
            b.acceleration_ratio()
                .partial_cmp(&a.acceleration_ratio())
                .expect("acceleration ratios are never NaN")
                .then(a_id.index().cmp(&b_id.index()))
        })
        .map(|(id, _)| id)
}

/// Both layouts of the full index over `instance`: with stage 1 of the
/// ratio query, then without.
fn both_layouts(instance: &Instance) -> [CandidateIndex; 2] {
    [true, false].map(|keep| CandidateIndex::with_stage_one(instance, keep))
}

/// Compares every query of both layouts (and the `comm_only` twin) against
/// the naive scans for one `(free, bound)` probe. Returns the first
/// mismatch as a message, so both the assert-style suite and the
/// `microcheck` properties below share it.
fn probe_queries(
    instance: &Instance,
    alive: &[bool],
    layouts: &[CandidateIndex; 2],
    comm_only: &CandidateIndex,
    free: MemSize,
    bound: Time,
) -> Result<(), String> {
    for index in layouts {
        probe_layout(instance, alive, index, comm_only, free, bound)?;
    }
    Ok(())
}

/// [`probe_queries`] on one layout.
fn probe_layout(
    instance: &Instance,
    alive: &[bool],
    index: &CandidateIndex,
    comm_only: &CandidateIndex,
    free: MemSize,
    bound: Time,
) -> Result<(), String> {
    let stage_one = index.has_stage_one();
    let mismatch = |query: &str, got: Option<TaskId>, want: Option<TaskId>| {
        Err(format!(
            "{query} free={free:?} bound={bound:?} stage_one={stage_one}: \
             index {got:?}, oracle {want:?}"
        ))
    };
    let (got, want) = (
        index.min_comm_candidate(free),
        naive_min_comm(instance, alive, free),
    );
    if got != want {
        return mismatch("min_comm", got, want);
    }
    let (got, want) = (
        index.max_comm_candidate_within(free, bound),
        naive_max_comm(instance, alive, free, bound),
    );
    if got != want {
        return mismatch("max_comm", got, want);
    }
    let (got, want) = (
        index.best_ratio_candidate_within(free, bound),
        naive_best_ratio(instance, alive, free, bound),
    );
    if got != want {
        return mismatch("best_ratio", got, want);
    }
    // The exact-communication variant (the engine's minimum-idle block
    // query); the random bound doubles as the probed communication time,
    // hitting both real and absent values on the small test domains.
    let (got, want) = (
        index.best_ratio_candidate_at(free, bound),
        naive_best_ratio_at(instance, alive, free, bound),
    );
    if got != want {
        return mismatch("best_ratio_at", got, want);
    }
    let (got, want) = (
        comm_only.min_comm_candidate(free),
        index.min_comm_candidate(free),
    );
    if got != want {
        return mismatch("comm_only min_comm", got, want);
    }
    let (got, want) = (
        comm_only.max_comm_candidate_within(free, bound),
        index.max_comm_candidate_within(free, bound),
    );
    if got != want {
        return mismatch("comm_only max_comm", got, want);
    }
    Ok(())
}

/// Drives the index through a random removal order, probing all three
/// queries with random thresholds between removals.
fn check_against_oracle(instance: &Instance, rng: &mut StdRng, context: &str) {
    let mut layouts = both_layouts(instance);
    // The ratio-tree-less variant must answer the communication-time
    // queries identically.
    let mut comm_only = CandidateIndex::comm_only(instance);
    let mut alive = vec![true; instance.len()];
    let max_mem = instance
        .tasks()
        .iter()
        .map(|t| t.mem.bytes())
        .max()
        .unwrap_or(0);
    let max_comm = instance
        .tasks()
        .iter()
        .map(|t| t.comm_time.ticks())
        .max()
        .unwrap_or(0);
    let mut order: Vec<usize> = (0..instance.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }

    for &victim in order.iter() {
        for _ in 0..4 {
            // Thresholds straddle the task ranges so the probes hit empty,
            // partial and full candidate sets.
            let free = MemSize::from_bytes(rng.gen_range(0..=max_mem.saturating_add(1)));
            let bound = Time::from_ticks(rng.gen_range(0..=max_comm.saturating_add(1)));
            if let Err(m) = probe_queries(instance, &alive, &layouts, &comm_only, free, bound) {
                panic!("{context}: {m}");
            }
        }
        for index in &mut layouts {
            index.remove(TaskId(victim));
        }
        comm_only.remove(TaskId(victim));
        alive[victim] = false;
        for index in &layouts {
            assert_eq!(index.len(), alive.iter().filter(|a| **a).count());
        }
    }
    assert!(layouts.iter().all(CandidateIndex::is_empty));
    assert!(comm_only.is_empty());
}

#[test]
fn index_agrees_with_naive_scans_on_random_instances() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        for n_tasks in [1usize, 2, 7, 25, 60] {
            for factor in [1.0, 1.3] {
                let coupled = random_instance(
                    &mut rng,
                    RandomInstanceConfig {
                        n_tasks,
                        capacity_factor: factor,
                        ..Default::default()
                    },
                );
                check_against_oracle(&coupled, &mut rng, &format!("coupled {seed}/{n_tasks}"));
                let decoupled = random_instance_decoupled_memory(&mut rng, n_tasks, factor);
                check_against_oracle(&decoupled, &mut rng, &format!("decoupled {seed}/{n_tasks}"));
            }
        }
    }
}

#[test]
fn index_agrees_with_naive_scans_under_heavy_ties() {
    // Tiny value domains force many equal communication times, equal
    // ratios, and equal memory footprints — the cases where tie-breaking by
    // id is the only thing separating candidates. Includes zero-comm tasks
    // (infinite ratio) and zero-comm/zero-comp tasks (ratio 1 by the
    // `Time::ratio` convention).
    let mut rng = StdRng::seed_from_u64(99);
    for round in 0..30 {
        let n = rng.gen_range(1..=18);
        let mut builder = InstanceBuilder::new().capacity(MemSize::from_bytes(6));
        for i in 0..n {
            let comm = rng.gen_range(0..=2u64);
            let comp = rng.gen_range(0..=2u64);
            let mem = rng.gen_range(0..=4u64);
            builder = builder.task(
                &format!("t{i}"),
                dts_core::Task::new(
                    Time::units_int(comm),
                    Time::units_int(comp),
                    MemSize::from_bytes(mem),
                ),
            );
        }
        let instance = builder.build().expect("mem <= 4 fits capacity 6");
        check_against_oracle(&instance, &mut rng, &format!("ties round {round}"));
    }
}

#[test]
#[should_panic(expected = "comm_only")]
fn ratio_query_on_comm_only_index_panics() {
    let instance = InstanceBuilder::new()
        .capacity(MemSize::from_bytes(6))
        .task(
            "a",
            dts_core::Task::new(
                Time::units_int(1),
                Time::units_int(1),
                MemSize::from_bytes(1),
            ),
        )
        .build()
        .unwrap();
    let index = CandidateIndex::comm_only(&instance);
    let _ = index.best_ratio_candidate_within(MemSize::from_bytes(6), Time::units_int(1));
}

/// Replays a seeded interleaving of removals and query probes on
/// a generated instance, checking every probe against the naive oracle.
/// Pure function of `(spec, op_seed)`, so a failing interleaving shrinks
/// with the instance.
fn check_interleaved(spec: &dts_core::testgen::InstanceSpec, op_seed: u64) -> Result<(), String> {
    let instance = spec.build();
    let mut layouts = both_layouts(&instance);
    let mut comm_only = CandidateIndex::comm_only(&instance);
    let mut alive = vec![true; instance.len()];
    let mut rng = StdRng::seed_from_u64(op_seed);
    let max_mem = instance
        .tasks()
        .iter()
        .map(|t| t.mem.bytes())
        .max()
        .unwrap_or(0);
    let max_comm = instance
        .tasks()
        .iter()
        .map(|t| t.comm_time.ticks())
        .max()
        .unwrap_or(0);

    for _ in 0..4 * instance.len().max(8) {
        match rng.gen_range(0u32..4) {
            // Remove a random alive task.
            0 => {
                let candidates: Vec<usize> = (0..alive.len()).filter(|&i| alive[i]).collect();
                if let Some(&victim) = candidates.get(rng.gen_range(0..candidates.len().max(1))) {
                    for index in &mut layouts {
                        index.remove(TaskId(victim));
                    }
                    comm_only.remove(TaskId(victim));
                    alive[victim] = false;
                }
            }
            // Probe all queries with random thresholds.
            _ => {
                let free = MemSize::from_bytes(rng.gen_range(0..=max_mem.saturating_add(1)));
                let bound = Time::from_ticks(rng.gen_range(0..=max_comm.saturating_add(1)));
                probe_queries(&instance, &alive, &layouts, &comm_only, free, bound)?;
            }
        }
        let live = alive.iter().filter(|a| **a).count();
        let [with, without] = &layouts;
        if with.len() != live || without.len() != live || comm_only.len() != live {
            return Err(format!(
                "length drifted: index {} / {} / comm_only {} vs oracle {live}",
                with.len(),
                without.len(),
                comm_only.len()
            ));
        }
    }
    Ok(())
}

microcheck::property! {
    /// Random remove/query interleavings on the default task
    /// domain agree with the naive oracle at every step.
    fn interleavings_agree_with_the_oracle(
        (spec, op_seed) in (
            dts_core::testgen::instance_gen(1..=40),
            microcheck::gens::u64_in(0..=u64::MAX),
        ),
        cases = 150,
    ) {
        check_interleaved(&spec, op_seed)?;
    }

    /// The same under heavy ties: tiny value domains where id tie-breaking
    /// is all that separates candidates (including zero-comm tasks with
    /// infinite acceleration ratios).
    fn tie_heavy_interleavings_agree_with_the_oracle(
        (spec, op_seed) in (
            dts_core::testgen::instance_gen_with(
                dts_core::testgen::tie_heavy_task_gen(),
                1..=18,
                0..=2,
            ),
            microcheck::gens::u64_in(0..=u64::MAX),
        ),
        cases = 150,
    ) {
        check_interleaved(&spec, op_seed)?;
    }

    /// Continuous communication times under the memory cliff: nearly
    /// every equal-communication run is a singleton and run champions are
    /// routinely memory-blocked, so the ratio query's stage-2 search —
    /// whole ⌈√m⌉-run buckets through the outer champion tree, boundary
    /// buckets run by run — does all the work. The regression domain of
    /// the bucketed search.
    fn continuous_comm_memory_cliff_interleavings_agree_with_the_oracle(
        (spec, op_seed) in (
            dts_core::testgen::continuous_comm_memory_cliff_instance_gen(1..=60),
            microcheck::gens::u64_in(0..=u64::MAX),
        ),
        cases = 100,
    ) {
        check_interleaved(&spec, op_seed)?;
    }

    /// Quantized communication times under the same cliff: few runs, each
    /// holding many tasks whose champions are memory-blocked, so stage 2
    /// resolves runs by their prefix queries.
    fn quantized_comm_memory_cliff_interleavings_agree_with_the_oracle(
        (spec, op_seed) in (
            dts_core::testgen::memory_cliff_instance_gen(1..=120),
            microcheck::gens::u64_in(0..=u64::MAX),
        ),
        cases = 100,
    ) {
        check_interleaved(&spec, op_seed)?;
    }

    /// And at the top of the `u64` memory domain, where a removed slot's
    /// sentinel must stay distinguishable from a real `u64::MAX`-byte task.
    fn u64_scale_interleavings_agree_with_the_oracle(
        (spec, op_seed) in (
            dts_core::testgen::instance_gen_with(
                dts_core::testgen::task_gen(0..=3, 0..=3, u64::MAX - 3..=u64::MAX),
                1..=10,
                0..=1,
            ),
            microcheck::gens::u64_in(0..=u64::MAX),
        ),
        cases = 60,
    ) {
        check_interleaved(&spec, op_seed)?;
    }
}

/// A deliberately broken claim — "the ratio query ignores memory", i.e.
/// the best-ratio candidate under one free byte always equals the one
/// under unbounded memory — must not only fail but shrink to the smallest
/// counterexample of the domain: a single task of two bytes (the least
/// memory that cannot fit in one byte) with zero communication and
/// computation time and zero capacity slack. Reaching that exact witness
/// demonstrates the shrinker finds global minima on the instance domain,
/// not just smaller failures.
#[test]
fn broken_memory_blindness_claim_shrinks_to_the_minimal_instance() {
    let failure = microcheck::check(
        &microcheck::Config::default(),
        &dts_core::testgen::instance_gen(1..=40),
        |spec| {
            let instance = spec.build();
            let index = CandidateIndex::new(&instance);
            let bound = Time::units_int(31); // covers the whole domain
            microcheck::prop_assert_eq!(
                index.best_ratio_candidate_within(MemSize::from_bytes(1), bound),
                index.best_ratio_candidate_within(MemSize::UNBOUNDED, bound)
            );
            Ok(())
        },
    )
    .expect_err("the memory-blindness claim is false");

    let minimal = failure.minimal;
    // Still a counterexample after minimization...
    let instance = minimal.build();
    let index = CandidateIndex::new(&instance);
    let bound = Time::units_int(31);
    assert_ne!(
        index.best_ratio_candidate_within(MemSize::from_bytes(1), bound),
        index.best_ratio_candidate_within(MemSize::UNBOUNDED, bound)
    );
    // ...and of minimal size: one task, two bytes, all times and the
    // capacity slack at zero. Any single-task counterexample needs
    // mem >= 2, so this is the unique minimum.
    assert_eq!(
        minimal.tasks,
        vec![dts_core::testgen::TaskSpec {
            comm: 0,
            comp: 0,
            mem: 2,
        }],
        "minimized counterexample should be the two-byte unit witness"
    );
    assert_eq!(minimal.slack, 0);
}

#[test]
fn index_handles_u64_scale_memory() {
    // A u64::MAX-byte task must stay distinguishable from a removed slot
    // (the index stores absence as u128::MAX, above any real size).
    let instance = InstanceBuilder::new()
        .capacity(MemSize::UNBOUNDED)
        .task(
            "a",
            dts_core::Task::new(Time::units_int(1), Time::units_int(1), MemSize::UNBOUNDED),
        )
        .task(
            "b",
            dts_core::Task::new(
                Time::units_int(2),
                Time::units_int(1),
                MemSize::from_bytes(2),
            ),
        )
        .build()
        .unwrap();
    let mut index = CandidateIndex::new(&instance);
    assert_eq!(
        index.min_comm_candidate(MemSize::UNBOUNDED),
        Some(TaskId(0))
    );
    assert_eq!(
        index.min_comm_candidate(MemSize::from_bytes(u64::MAX - 1)),
        Some(TaskId(1))
    );
    index.remove(TaskId(0));
    assert_eq!(
        index.min_comm_candidate(MemSize::UNBOUNDED),
        Some(TaskId(1))
    );
    index.remove(TaskId(1));
    assert_eq!(index.min_comm_candidate(MemSize::UNBOUNDED), None);
}

#[test]
fn stage_one_is_kept_only_where_buckets_outnumber_log_n() {
    // The rule on the paper's rank 0 of each kernel: buckets of ⌈√m⌉ runs
    // against log2 n. HF has few distinct transfer times (m = 17 of
    // n = 483: 4 buckets, log2 n = 8), so stage 1 goes; CCSD has about one
    // per task (m = 324 of n = 327: 18 buckets, log2 n = 8), so it stays.
    let suite = dts_chem::SuiteConfig::default();
    let (hf, ccsd) = (
        dts_chem::hf::generate_hf_trace(&suite.hf, suite.topology, suite.transfer, suite.cost, 0),
        dts_chem::ccsd::generate_ccsd_trace(
            &suite.ccsd,
            suite.topology,
            suite.transfer,
            suite.cost,
            0,
        ),
    );
    for (trace, runs, keeps) in [(hf, 17, false), (ccsd, 324, true)] {
        let instance = trace.to_instance_scaled(1.5).expect("paper ranks convert");
        let mut comm: Vec<Time> = instance.tasks().iter().map(|t| t.comm_time).collect();
        comm.sort_unstable();
        comm.dedup();
        assert_eq!(comm.len(), runs, "{}", instance.label);
        assert_eq!(
            CandidateIndex::new(&instance).has_stage_one(),
            keeps,
            "{}",
            instance.label
        );
    }
}
