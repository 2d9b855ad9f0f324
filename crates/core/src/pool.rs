//! Shared work-stealing pool for embarrassingly-parallel solve layers.
//!
//! The capacity sweeps, the batched scheduler and the `lp.k` window-size
//! sweep all have the same shape: `n` independent jobs indexed `0..n`,
//! results needed back in index order, and the error of the
//! lowest-indexed failing job must be reported (that is the error a plain
//! sequential loop reports, since such a loop stops at the first failure).
//! [`run_indexed_pool`] implements that contract once, so the concurrency
//! subtleties — work stealing, abort on failure, panic containment,
//! deterministic merge — live in a single place.

use crate::error::{CoreError, Result};
use crate::sync::{AtomicBool, AtomicUsize, Ordering};

/// Runs `job(0..n_items)` over `threads` workers and returns the results in
/// index order.
///
/// The calling thread is one of the workers: with `threads` workers the
/// pool spawns `threads - 1` threads and the caller claims jobs beside
/// them until the queue is empty, then joins them. Workers claim indices
/// one at a time from a shared counter, so jobs with very different costs
/// do not stall the pool. With `threads <= 1` (or a single item) the jobs
/// run sequentially on the caller's thread; the results and the reported
/// error are the same either way.
///
/// # Errors
///
/// A failing job stops the pool (workers claim no further indices), and
/// among the failures observed the one with the lowest index is returned.
/// Because indices are claimed in increasing order, every index below a
/// claimed one has been claimed too, so the lowest observed failure is the
/// failure a sequential loop would have stopped at. A panicking job is
/// caught and reported as [`CoreError::Internal`] instead of poisoning the
/// caller — in both the pooled and the sequential paths.
///
/// ```
/// use dts_core::pool::run_indexed_pool;
///
/// let squares = run_indexed_pool(5, 4, |i| Ok(i * i)).unwrap();
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn run_indexed_pool<T, F>(n_items: usize, threads: usize, job: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    let run_caught = |index: usize| -> Result<T> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(index)))
            .unwrap_or_else(|payload| Err(panic_error(index, payload)))
    };
    let threads = threads.clamp(1, n_items.max(1));
    if threads <= 1 {
        return (0..n_items).map(run_caught).collect();
    }

    let next_item = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    // One worker's claim loop: the jobs it ran, or its failing job.
    let worker = || -> std::result::Result<Vec<(usize, T)>, (usize, CoreError)> {
        let mut done: Vec<(usize, T)> = Vec::new();
        loop {
            // Acquire pairs with the Release store below: a worker that
            // observes the abort also observes everything the failing
            // worker published before it. With Relaxed the model checker's
            // message-passing litmus shows the flag can be seen without the
            // prior writes (see `message_passing_litmus_distinguishes_orderings`
            // in vendor/microloom/tests/self_test.rs).
            if abort.load(Ordering::Acquire) {
                break;
            }
            // lint: allow(L003) claim counter publishes no data; the
            // RMW modification order alone makes each index claimed
            // exactly once (model-checked in tests/pool_model.rs).
            let index = next_item.fetch_add(1, Ordering::Relaxed);
            if index >= n_items {
                break;
            }
            // Panics are caught per job so a poisoned job aborts the pool
            // as promptly as an error does, instead of surfacing only when
            // the worker is joined.
            match run_caught(index) {
                Ok(value) => done.push((index, value)),
                Err(e) => {
                    abort.store(true, Ordering::Release);
                    return Err((index, e));
                }
            }
        }
        Ok(done)
    };
    let outcome = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads).map(|_| scope.spawn(|_| worker())).collect();
        let mut per_item: Vec<(usize, T)> = Vec::with_capacity(n_items);
        let mut first_error: Option<(usize, CoreError)> = None;
        let mut merge = |part| match part {
            Ok(mut part) => per_item.append(&mut part),
            Err((index, e)) => {
                if first_error.as_ref().is_none_or(|(i, _)| index < *i) {
                    first_error = Some((index, e));
                }
            }
        };
        merge(worker());
        for handle in handles {
            // A join error is unreachable (worker bodies catch panics),
            // but joining must stay panic-free.
            merge(handle.join().unwrap_or_else(|_| {
                Err((
                    usize::MAX,
                    CoreError::Internal("a pool worker thread panicked".into()),
                ))
            }));
        }
        if let Some((_, e)) = first_error {
            return Err(e);
        }
        per_item.sort_unstable_by_key(|(index, _)| *index);
        Ok(per_item.into_iter().map(|(_, value)| value).collect())
    });
    match outcome {
        Ok(result) => result,
        Err(_) => Err(CoreError::Internal("the worker pool panicked".into())),
    }
}

fn panic_error(index: usize, payload: Box<dyn std::any::Any + Send>) -> CoreError {
    let detail = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into());
    CoreError::Internal(format!("pool worker panicked on item #{index}: {detail}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 16] {
            let out = run_indexed_pool(20, threads, |i| Ok(i * 2)).unwrap();
            assert_eq!(out, (0..20).map(|i| i * 2).collect::<Vec<_>>());
        }
        let empty: Vec<usize> = run_indexed_pool(0, 4, |_| Ok(0)).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn lowest_index_error_wins() {
        // Whatever the interleaving, the reported failure must be the one a
        // sequential loop stops at.
        for threads in [1, 3, 8] {
            let err = run_indexed_pool(50, threads, |i| {
                if i % 7 == 3 {
                    Err(CoreError::Internal(format!("job {i}")))
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
            assert_eq!(err, CoreError::Internal("job 3".into()), "{threads}");
        }
    }

    #[test]
    fn panics_become_internal_errors() {
        for threads in [1, 4] {
            let err = run_indexed_pool(8, threads, |i| {
                if i == 2 {
                    panic!("boom");
                }
                Ok(i)
            })
            .unwrap_err();
            match err {
                CoreError::Internal(msg) => {
                    assert!(msg.contains("item #2") && msg.contains("boom"), "{msg}")
                }
                other => panic!("unexpected error {other:?}"),
            }
        }
    }
}
