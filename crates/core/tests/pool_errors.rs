//! Error-path suite for [`run_indexed_pool`]: whatever the interleaving,
//! the pool must report exactly what a sequential loop would have — the
//! lowest-indexed failure — and must turn worker panics into
//! [`CoreError::Internal`] instead of poisoning the caller.

use dts_core::pool::run_indexed_pool;
use dts_core::CoreError;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

#[test]
fn empty_input_yields_empty_output_for_every_thread_count() {
    for threads in [0, 1, 4, 32] {
        let out: Vec<u8> = run_indexed_pool(0, threads, |_| unreachable!()).unwrap();
        assert!(out.is_empty(), "threads={threads}");
    }
}

#[test]
fn zero_threads_still_run_everything_sequentially() {
    let out = run_indexed_pool(5, 0, |i| Ok(i + 1)).unwrap();
    assert_eq!(out, vec![1, 2, 3, 4, 5]);
}

#[test]
fn lowest_index_error_wins_even_when_a_higher_index_fails_first() {
    // Job 1 announces itself, then sleeps before failing; every job with a
    // higher index waits for that announcement and fails *immediately*.
    // The pool therefore observes the high-index failures (and their abort
    // signal) well before job 1's — yet it must still report job 1's,
    // because that is the failure a sequential loop stops at.
    //
    // No deadlock is possible: indices are claimed in increasing order, so
    // a worker spinning on a job >= 2 implies job 1 was already claimed.
    for _ in 0..20 {
        let claimed = AtomicBool::new(false);
        let err = run_indexed_pool(8, 8, |i| -> dts_core::Result<usize> {
            match i {
                0 => Ok(0),
                1 => {
                    claimed.store(true, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(10));
                    Err(CoreError::Internal("job 1".into()))
                }
                _ => {
                    while !claimed.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    Err(CoreError::Internal(format!("job {i}")))
                }
            }
        })
        .unwrap_err();
        assert_eq!(err, CoreError::Internal("job 1".into()));
    }
}

#[test]
fn a_failure_in_the_callers_own_job_is_reported_while_a_spawned_worker_succeeds() {
    // The calling thread is one of the pool's two workers. Its first
    // claimed job waits until the spawned worker has finished a job, then
    // fails (or panics); every job on the spawned worker succeeds. The
    // spawned worker's jobs in turn wait until the caller has claimed one,
    // so the caller always runs a job. The only failure is the caller's,
    // and the pool must report it.
    let caller = std::thread::current().id();
    for panics in [false, true] {
        for _ in 0..20 {
            let caller_claimed = AtomicUsize::new(usize::MAX);
            let spawned_done = AtomicBool::new(false);
            let outcome = run_indexed_pool(8, 2, |i| -> dts_core::Result<usize> {
                if std::thread::current().id() != caller {
                    while caller_claimed.load(Ordering::SeqCst) == usize::MAX {
                        std::thread::yield_now();
                    }
                    spawned_done.store(true, Ordering::SeqCst);
                    return Ok(i);
                }
                if caller_claimed
                    .compare_exchange(usize::MAX, i, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    while !spawned_done.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    if panics {
                        panic!("caller job {i}");
                    }
                    return Err(CoreError::Internal(format!("job {i}")));
                }
                Ok(i)
            });
            let failed = caller_claimed.load(Ordering::SeqCst);
            let err = outcome.expect_err("the caller's job fails");
            if panics {
                let want = format!("pool worker panicked on item #{failed}: caller job {failed}");
                assert_eq!(err, CoreError::Internal(want));
            } else {
                assert_eq!(err, CoreError::Internal(format!("job {failed}")));
            }
        }
    }
}

#[test]
fn a_failure_stops_further_claims_in_the_sequential_path() {
    let executed = AtomicUsize::new(0);
    let err = run_indexed_pool(100, 1, |i| {
        executed.fetch_add(1, Ordering::SeqCst);
        if i == 3 {
            Err(CoreError::Internal("stop".into()))
        } else {
            Ok(i)
        }
    })
    .unwrap_err();
    assert_eq!(err, CoreError::Internal("stop".into()));
    assert_eq!(
        executed.load(Ordering::SeqCst),
        4,
        "jobs after the failure must not run sequentially"
    );
}

#[test]
fn string_and_str_panic_payloads_are_reported() {
    for threads in [1, 4] {
        let err = run_indexed_pool(6, threads, |i| {
            if i == 2 {
                panic!("exploded with {}", "context");
            }
            Ok(i)
        })
        .unwrap_err();
        match err {
            CoreError::Internal(msg) => {
                assert!(
                    msg.contains("item #2") && msg.contains("exploded with context"),
                    "{msg}"
                );
            }
            other => panic!("unexpected error {other:?}"),
        }
    }
}

#[test]
fn non_string_panic_payloads_still_map_to_internal() {
    for threads in [1, 4] {
        let err = run_indexed_pool(4, threads, |i| -> dts_core::Result<usize> {
            if i == 1 {
                std::panic::panic_any(42usize);
            }
            Ok(i)
        })
        .unwrap_err();
        match err {
            CoreError::Internal(msg) => {
                assert!(
                    msg.contains("item #1") && msg.contains("non-string panic payload"),
                    "{msg}"
                );
            }
            other => panic!("unexpected error {other:?}"),
        }
    }
}

#[test]
fn a_panic_and_an_earlier_error_resolve_to_the_error() {
    // Index 1 errors, index 3 panics: the reported failure must be index
    // 1's error for every thread count.
    for threads in [1, 2, 8] {
        let err = run_indexed_pool(6, threads, |i| match i {
            1 => Err(CoreError::Infeasible("early error".into())),
            3 => panic!("late panic"),
            _ => Ok(i),
        })
        .unwrap_err();
        // With >1 threads the panic may be observed first and abort the
        // pool before index 1 runs on some interleavings — but index 1 is
        // always claimed before index 3, and claimed jobs run to
        // completion, so the error must win.
        assert_eq!(
            err,
            CoreError::Infeasible("early error".into()),
            "{threads}"
        );
    }
}

microcheck::property! {
    /// For arbitrary failure sets, thread counts and job counts, the pool
    /// reports exactly the failure a sequential loop stops at — or all
    /// results in order when nothing fails.
    fn pool_matches_the_sequential_contract(
        (n_items, threads, fail_seed) in (
            microcheck::gens::usize_in(0..=60),
            microcheck::gens::usize_in(1..=8),
            microcheck::gens::u64_in(0..=u64::MAX),
        ),
        cases = 120,
    ) {
        // Pseudo-random but deterministic failure set derived from the
        // drawn seed: roughly one job in five fails.
        let fails = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ fail_seed;
        let failing = |i: usize| fails(i) % 5 == 0;
        let expected_failure = (0..n_items).find(|&i| failing(i));

        let outcome = run_indexed_pool(n_items, threads, |i| {
            if failing(i) {
                Err(CoreError::Internal(format!("job {i}")))
            } else {
                Ok(i * 3)
            }
        });
        match (outcome, expected_failure) {
            (Ok(values), None) => {
                microcheck::prop_assert_eq!(
                    values,
                    (0..n_items).map(|i| i * 3).collect::<Vec<_>>()
                );
            }
            (Err(err), Some(first)) => {
                microcheck::prop_assert_eq!(
                    err,
                    CoreError::Internal(format!("job {first}"))
                );
            }
            (outcome, expected) => {
                microcheck::prop_assert!(
                    false,
                    "outcome {outcome:?} disagrees with expected failure {expected:?}"
                );
            }
        }
    }
}
