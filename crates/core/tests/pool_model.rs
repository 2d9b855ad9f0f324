//! Model checking of [`dts_core::pool::run_indexed_pool`]'s contracts
//! under *all* interleavings, via the vendored `microloom` checker.
//!
//! This file is empty under a normal build; run it with
//!
//! ```text
//! RUSTFLAGS="--cfg microloom" cargo test -p dts_core --test pool_model
//! ```
//!
//! which swaps the `dts_core::sync` façade (and the crossbeam stub's
//! scoped threads) to microloom's instrumented types, so the pool being
//! checked is exactly the pool that ships. Bookkeeping inside the models
//! uses plain `std` atomics/mutexes: only one model thread runs at a
//! time, so they are race-free and add no scheduling decisions.
#![cfg(microloom)]

use dts_core::error::CoreError;
use dts_core::pool::run_indexed_pool;
use std::sync::atomic::{
    AtomicBool as StdAtomicBool, AtomicUsize as StdAtomicUsize, Ordering as StdOrdering,
};
use std::sync::Arc;

/// Every index is claimed exactly once — no index skipped, none run
/// twice — and the results come back in index order, under every
/// interleaving of two workers over three items.
#[test]
fn every_index_claimed_exactly_once() {
    let report = microloom::check(|| {
        let claims: [StdAtomicUsize; 3] = Default::default();
        let out = run_indexed_pool(3, 2, |i| {
            claims[i].fetch_add(1, StdOrdering::Relaxed);
            Ok(10 * i)
        })
        .expect("all jobs succeed");
        assert_eq!(out, vec![0, 10, 20], "results must be in index order");
        for (i, claim) in claims.iter().enumerate() {
            assert_eq!(
                claim.load(StdOrdering::Relaxed),
                1,
                "index {i} must be claimed exactly once"
            );
        }
    })
    .expect("claim-once must hold under all interleavings");
    assert!(report.executions > 1, "explored only {report:?}");
}

/// When both workers fail on their respective items, the reported error
/// is the lowest-indexed one — the error a sequential loop stops at —
/// no matter which worker fails, publishes, or returns first.
#[test]
fn lowest_index_error_wins_under_racing_failures() {
    microloom::check(|| {
        let err = run_indexed_pool(2, 2, |i| -> dts_core::error::Result<usize> {
            Err(CoreError::Internal(format!("job {i}")))
        })
        .expect_err("every job fails");
        assert_eq!(
            err,
            CoreError::Internal("job 0".into()),
            "the lowest-indexed failure must win"
        );
    })
    .expect("lowest-index-error-wins must hold under all interleavings");
}

/// No result slot is ever written twice: each job's value appears in the
/// output exactly once, even when a concurrent failure is aborting the
/// pool while other jobs are still completing.
#[test]
fn no_result_slot_written_twice_under_a_racing_failure() {
    microloom::check(|| {
        let runs: [StdAtomicUsize; 3] = Default::default();
        let result = run_indexed_pool(3, 2, |i| {
            runs[i].fetch_add(1, StdOrdering::Relaxed);
            if i == 1 {
                Err(CoreError::Internal("job 1".into()))
            } else {
                Ok(i)
            }
        });
        for (i, run) in runs.iter().enumerate() {
            assert!(
                run.load(StdOrdering::Relaxed) <= 1,
                "index {i} must run at most once"
            );
        }
        // Index 1 always runs (indices are claimed in increasing order up
        // to the failure), so the pool must report its error.
        assert_eq!(result, Err(CoreError::Internal("job 1".into())));
    })
    .expect("claim-at-most-once must hold under all interleavings");
}

/// The calling thread is one of the workers: when its own job fails and
/// the spawned worker's jobs succeed, the pool reports the caller's
/// failure under every interleaving — whichever index the caller claimed,
/// and whether the spawned worker finished before or after it. The
/// caller must fail on each of the two indices in some interleaving.
#[test]
fn a_failing_job_on_the_calling_thread_is_reported() {
    let caller_failed_on: Arc<[StdAtomicBool; 2]> = Arc::default();
    let witness = Arc::clone(&caller_failed_on);
    microloom::check(move || {
        let caller = std::thread::current().id();
        let caller_job = StdAtomicUsize::new(usize::MAX);
        let result = run_indexed_pool(2, 2, |i| {
            if std::thread::current().id() == caller {
                caller_job.store(i, StdOrdering::Relaxed);
                return Err(CoreError::Internal(format!("job {i}")));
            }
            Ok(i)
        });
        match caller_job.load(StdOrdering::Relaxed) {
            // The spawned worker claimed both jobs first.
            usize::MAX => assert_eq!(result, Ok(vec![0, 1])),
            i => {
                assert_eq!(result, Err(CoreError::Internal(format!("job {i}"))));
                witness[i].store(true, StdOrdering::Relaxed);
            }
        }
    })
    .expect("the caller's own failure must be reported under all interleavings");
    for (i, seen) in caller_failed_on.iter().enumerate() {
        assert!(
            seen.load(StdOrdering::Relaxed),
            "in some interleaving the calling thread must fail on job {i}"
        );
    }
}

/// The Release/Acquire abort flag actually stops the pool: in at least
/// one explored interleaving a worker observes the abort and item 2 is
/// never claimed. (Universally, abort can only shrink the set of claimed
/// indices — that is covered by the at-most-once assertions above.)
#[test]
fn abort_is_visible_and_prevents_wasted_claims() {
    let some_schedule_stops_early = Arc::new(StdAtomicBool::new(false));
    let witness = Arc::clone(&some_schedule_stops_early);
    microloom::check(move || {
        let ran_last = Arc::new(StdAtomicBool::new(false));
        let seen = Arc::clone(&ran_last);
        let result = run_indexed_pool(3, 2, move |i| {
            if i == 0 {
                return Err(CoreError::Internal("job 0".into()));
            }
            if i == 2 {
                seen.store(true, StdOrdering::Relaxed);
            }
            Ok(i)
        });
        assert_eq!(result, Err(CoreError::Internal("job 0".into())));
        if !ran_last.load(StdOrdering::Relaxed) {
            witness.store(true, StdOrdering::Relaxed);
        }
    })
    .expect("the abort path must be panic-free under all interleavings");
    assert!(
        some_schedule_stops_early.load(StdOrdering::Relaxed),
        "in some interleaving the abort must prevent item 2 from running"
    );
}

/// A panicking job surfaces as `CoreError::Internal` carrying the item
/// index and the panic payload, under every interleaving — the panic is
/// caught inside the worker, so it aborts the pool like an error instead
/// of tearing down the scope.
#[test]
fn panic_payloads_surface_as_internal_errors() {
    // Keep each failing execution quiet: the job's panic is caught by the
    // pool, but the default hook would still print a backtrace per
    // explored schedule.
    let prior = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = microloom::check(|| {
        let err = run_indexed_pool(2, 2, |i| {
            if i == 1 {
                panic!("kaboom");
            }
            Ok(i)
        })
        .expect_err("the panicking job must fail the pool");
        match err {
            CoreError::Internal(msg) => {
                assert!(
                    msg.contains("item #1") && msg.contains("kaboom"),
                    "panic detail lost: {msg}"
                );
            }
            other => panic!("unexpected error {other:?}"),
        }
    });
    std::panic::set_hook(prior);
    outcome.expect("panic containment must hold under all interleavings");
}

/// The broken-lemma counterpart: a deliberately wrong "first error wins"
/// implementation (each failing worker blindly stores its index into a
/// shared slot, last write wins) violates lowest-index-wins, and the
/// checker must both find the violation and replay it deterministically.
#[test]
fn broken_last_write_error_slot_is_caught_deterministically() {
    fn broken_model() -> microloom::Failure {
        microloom::check(|| {
            use microloom::sync::atomic::{AtomicUsize, Ordering};
            use microloom::sync::Arc as ModelArc;

            let error_slot = ModelArc::new(AtomicUsize::new(usize::MAX));
            let workers: Vec<_> = (0..2)
                .map(|index| {
                    let slot = ModelArc::clone(&error_slot);
                    microloom::thread::spawn(move || {
                        // BUG: unconditional store — the *last* failing
                        // worker wins, not the lowest-indexed one. The
                        // shipped pool merges at join instead.
                        slot.store(index, Ordering::SeqCst);
                    })
                })
                .collect();
            for worker in workers {
                worker.join().unwrap();
            }
            assert_eq!(
                error_slot.load(Ordering::SeqCst),
                0,
                "lowest-index error must win"
            );
        })
        .expect_err("the last-write-wins slot must be caught")
    }

    let first = broken_model();
    let second = broken_model();
    assert!(
        first.message.contains("lowest-index error must win"),
        "unexpected failure: {}",
        first.message
    );
    // Deterministic replay: the printable schedule is byte-identical
    // across independent runs.
    assert_eq!(first.trace, second.trace);
    assert_eq!(first.decisions, second.decisions);
    assert!(
        first.trace.contains("usize.store"),
        "trace lost its op log:\n{}",
        first.trace
    );
}
