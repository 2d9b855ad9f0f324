//! Model checking of [`dts_core::cache::SolveCache`]'s solve-exactly-once
//! contract under *all* interleavings, via the vendored `microloom`
//! checker.
//!
//! This file is empty under a normal build; run it with
//!
//! ```text
//! RUSTFLAGS="--cfg microloom" cargo test -p dts_core --test cache_model
//! ```
//!
//! which swaps the `dts_core::sync` façade to microloom's instrumented
//! mutex, so the cache being checked is exactly the cache the scheduling
//! daemon ships. Bookkeeping inside the models uses plain `std` atomics:
//! only one model thread runs at a time, so they are race-free and add no
//! scheduling decisions.
#![cfg(microloom)]

use dts_core::cache::SolveCache;
use dts_core::error::CoreError;
use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};
use std::sync::Arc;

/// A solver that succeeds with `value` (the cache is generic over the
/// solver's error type; these models use [`CoreError`]).
fn solved(value: u32) -> impl FnOnce() -> Result<u32, CoreError> {
    move || Ok(value)
}

/// Two concurrent identical requests solve exactly once, and both receive
/// the one solved value — the cache-correctness contract of the serving
/// layer — under every interleaving of the two callers.
#[test]
fn concurrent_identical_requests_solve_exactly_once() {
    let report = microloom::check(|| {
        let cache: Arc<SolveCache<u32, u32>> = Arc::new(SolveCache::new(4));
        let solves = Arc::new(StdAtomicUsize::new(0));
        let hits = Arc::new(StdAtomicUsize::new(0));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let solves = Arc::clone(&solves);
                let hits = Arc::clone(&hits);
                microloom::thread::spawn(move || {
                    let (value, hit) = cache
                        .get_or_solve(7, || {
                            solves.fetch_add(1, StdOrdering::SeqCst);
                            Ok::<_, CoreError>(42)
                        })
                        .expect("the solver never fails");
                    assert_eq!(value, 42, "every caller sees the solved value");
                    if hit {
                        hits.fetch_add(1, StdOrdering::SeqCst);
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("model threads join cleanly");
        }
        assert_eq!(
            solves.load(StdOrdering::SeqCst),
            1,
            "exactly one caller runs the solver"
        );
        assert_eq!(
            hits.load(StdOrdering::SeqCst),
            1,
            "exactly one caller is a hit (the other was the solver)"
        );
    })
    .expect("solve-exactly-once must hold under all interleavings");
    assert!(report.executions > 1, "explored only {report:?}");
}

/// Distinct keys never serialize into one solve: both callers run their
/// own solver whatever the interleaving, and each reads back its own
/// value.
#[test]
fn distinct_keys_solve_independently() {
    microloom::check(|| {
        let cache: Arc<SolveCache<u32, u32>> = Arc::new(SolveCache::new(4));
        let solves = Arc::new(StdAtomicUsize::new(0));
        let workers: Vec<_> = (0..2u32)
            .map(|key| {
                let cache = Arc::clone(&cache);
                let solves = Arc::clone(&solves);
                microloom::thread::spawn(move || {
                    let (value, hit) = cache
                        .get_or_solve(key, || {
                            solves.fetch_add(1, StdOrdering::SeqCst);
                            Ok::<_, CoreError>(key * 10)
                        })
                        .expect("the solver never fails");
                    assert_eq!(value, key * 10, "keys never cross values");
                    assert!(!hit, "distinct keys cannot hit each other");
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("model threads join cleanly");
        }
        assert_eq!(solves.load(StdOrdering::SeqCst), 2);
    })
    .expect("per-key isolation must hold under all interleavings");
}

/// A failing solve is returned to its caller only and leaves nothing
/// cached: the concurrent caller for the same key either solved first
/// (and the failer never ran — the cache answered from the cell) or
/// becomes the new solver after the failure. In every interleaving the
/// succeeding caller gets the value, never the error.
#[test]
fn failed_solves_are_not_cached_and_do_not_poison_waiters() {
    microloom::check(|| {
        let cache: Arc<SolveCache<u32, u32>> = Arc::new(SolveCache::new(4));
        let failer = {
            let cache = Arc::clone(&cache);
            microloom::thread::spawn(move || {
                // May race ahead (error observed) or behind (hit observed).
                match cache.get_or_solve(7, || Err(CoreError::Internal("flaky".into()))) {
                    Ok((value, hit)) => {
                        assert_eq!(value, 42, "a hit must carry the good value");
                        assert!(hit, "the failer never solves successfully");
                    }
                    Err(e) => assert_eq!(e, CoreError::Internal("flaky".into())),
                }
            })
        };
        let succeeder = {
            let cache = Arc::clone(&cache);
            microloom::thread::spawn(move || {
                let (value, _) = cache
                    .get_or_solve(7, solved(42))
                    .expect("the good solver must never see the other caller's failure");
                assert_eq!(value, 42);
            })
        };
        failer.join().expect("failer joins cleanly");
        succeeder.join().expect("succeeder joins cleanly");
    })
    .expect("failure isolation must hold under all interleavings");
}

/// A failed solve drops its cell only when no other caller holds it. A
/// caller already waiting on the cell when the solver fails becomes the
/// next solver, and its value stays findable: after both callers finish,
/// the key is resident, a later request hits, and the failure evicted
/// nothing — whatever the interleaving. Removing the cell regardless of
/// waiters would orphan the waiter's solve and fail the hit below.
#[test]
fn a_waiter_on_a_failing_solve_becomes_the_next_solver() {
    microloom::check(|| {
        let cache: Arc<SolveCache<u32, u32>> = Arc::new(SolveCache::new(2));
        cache.get_or_solve(1, solved(10)).expect("pre-fill");
        let failer = {
            let cache = Arc::clone(&cache);
            microloom::thread::spawn(move || {
                if let Ok((value, hit)) =
                    cache.get_or_solve(7, || Err(CoreError::Internal("shed".into())))
                {
                    assert_eq!((value, hit), (42, true), "only a hit can succeed");
                }
            })
        };
        let solver = {
            let cache = Arc::clone(&cache);
            microloom::thread::spawn(move || {
                let (value, _) = cache
                    .get_or_solve(7, solved(42))
                    .expect("the good solver never sees the other caller's failure");
                assert_eq!(value, 42);
            })
        };
        failer.join().expect("failer joins cleanly");
        solver.join().expect("solver joins cleanly");
        let stats = cache.stats();
        assert_eq!(stats.evictions, 0, "a failed solve evicts nothing");
        assert_eq!(stats.entries, 2, "the pre-filled key and the solved key");
        let (value, hit) = cache.get_or_solve(7, solved(99)).expect("post-check");
        assert_eq!((value, hit), (42, true), "the solved value is findable");
        let (value, hit) = cache.get_or_solve(1, solved(99)).expect("post-check");
        assert_eq!((value, hit), (10, true), "the pre-filled key survived");
    })
    .expect("failed solves must hand the cell to a waiter under all interleavings");
}

/// LRU recency is preserved under concurrency: with a capacity-2 cache
/// holding keys 1 and 2 where key 1 was re-requested (refreshing its
/// recency), two concurrent callers inserting key 3 evict exactly one
/// entry — and the victim is the stale key 2, never the refreshed key 1,
/// whatever the interleaving. Under the previous FIFO policy key 1 would
/// have been the victim.
#[test]
fn concurrent_inserts_evict_the_least_recently_used_key() {
    microloom::check(|| {
        let cache: Arc<SolveCache<u32, u32>> = Arc::new(SolveCache::new(2));
        // Deterministic pre-state, before any model threads exist.
        cache.get_or_solve(1, solved(10)).expect("pre-fill");
        cache.get_or_solve(2, solved(20)).expect("pre-fill");
        let (_, hit) = cache.get_or_solve(1, solved(10)).expect("refresh");
        assert!(hit, "the refresh touch must be a hit");
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let cache = Arc::clone(&cache);
                microloom::thread::spawn(move || {
                    let (value, _) = cache
                        .get_or_solve(3, solved(30))
                        .expect("the solver never fails");
                    assert_eq!(value, 30);
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("model threads join cleanly");
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 2, "the capacity bound holds");
        assert_eq!(stats.evictions, 1, "one insert means one eviction");
        let (value, hit) = cache.get_or_solve(1, solved(99)).expect("post-check");
        assert_eq!(
            (value, hit),
            (10, true),
            "the recently used key must survive the eviction"
        );
        let (_, hit) = cache.get_or_solve(2, solved(20)).expect("post-check");
        assert!(!hit, "the stale key was the eviction victim");
    })
    .expect("LRU eviction order must hold under all interleavings");
}

/// The broken-lemma counterpart: a deliberately wrong "check then solve"
/// cache (lookup and insert as two separate critical sections, no cell
/// lock held across the solve) double-solves under some interleaving,
/// and the checker must find it. This pins that the exploration actually
/// covers the race the shipped design closes.
#[test]
fn broken_check_then_act_cache_is_caught() {
    let failure = microloom::check(|| {
        use microloom::sync::Mutex as ModelMutex;

        let map: Arc<ModelMutex<Option<u32>>> = Arc::new(ModelMutex::new(None));
        let solves = Arc::new(StdAtomicUsize::new(0));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let map = Arc::clone(&map);
                let solves = Arc::clone(&solves);
                microloom::thread::spawn(move || {
                    // BUG: the lock is released between the miss check and
                    // the insert, so two callers can both observe a miss.
                    let cached = *map.lock();
                    if cached.is_none() {
                        solves.fetch_add(1, StdOrdering::SeqCst);
                        *map.lock() = Some(42);
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("model threads join cleanly");
        }
        assert_eq!(
            solves.load(StdOrdering::SeqCst),
            1,
            "solve must run exactly once"
        );
    })
    .expect_err("the check-then-act cache must double-solve somewhere");
    assert!(
        failure.message.contains("solve must run exactly once"),
        "unexpected failure: {}",
        failure.message
    );
}
