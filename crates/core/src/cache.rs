//! Solve-once instance cache for the serving layer.
//!
//! A scheduler daemon sees the same instance many times: identical traces
//! replayed under identical parameters must return byte-identical
//! schedules *without* re-solving, and two identical requests arriving
//! concurrently must solve **exactly once** — the second caller waits for
//! the first solve and receives the cached value. [`SolveCache`]
//! implements that contract with two locks:
//!
//! * an outer mutex over the key map, held only to look up, insert or
//!   drop a cell (never across a solve), plus the LRU recency queue that
//!   bounds the entry count — a re-requested key moves to the back, so
//!   hot entries outlive keys requested once and never again. Eviction
//!   runs when a solve fills its cell, so in-flight solves may hold the
//!   map above capacity until they finish;
//! * a per-key cell mutex held *across the solve*: whoever acquires the
//!   cell first and finds it empty computes the value; every concurrent
//!   caller for the same key blocks on that cell mutex and finds the
//!   value filled in when it acquires. Distinct keys use distinct cells,
//!   so unrelated solves never serialize.
//!
//! Failures are not cached: a solver returning `Err` leaves the cell
//! empty, the error propagates to that caller only, and a caller already
//! waiting on the cell becomes the new solver. With no such caller the
//! failed solve removes its empty cell, so failed or shed requests never
//! evict a solved key. A solver that *panics* unwinds through the guard
//! (the vendored `parking_lot` mutex does not poison) and leaves its
//! empty cell for the next caller of the key to solve.
//!
//! The implementation is written against the [`crate::sync`] facade, so
//! under `RUSTFLAGS="--cfg microloom"` every lock operation becomes a
//! model-checker decision and `tests/cache_model.rs` verifies the
//! solve-exactly-once contract under *all* interleavings of concurrent
//! identical requests.

use crate::sync::Mutex;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::Arc;

/// A per-key slot: empty until the first successful solve fills it.
type Cell<V> = Mutex<Option<V>>;

struct Inner<K, V> {
    map: HashMap<K, Arc<Cell<V>>>,
    /// Keys in recency order: least recently used at the front, which is
    /// evicted first when the map outgrows the capacity. Each key appears
    /// exactly once — pushed on insert, moved to the back on re-request —
    /// so the queue and the map stay consistent.
    order: VecDeque<K>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Running counters of a [`SolveCache`], for observability endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Calls answered from a filled cell (including calls that waited for
    /// a concurrent solver to fill it).
    pub hits: u64,
    /// Calls that ran the solver themselves.
    pub misses: u64,
    /// Entries dropped by the LRU capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// A bounded map of solved values that computes each key at most once
/// among concurrent callers.
///
/// ```
/// use dts_core::cache::SolveCache;
/// use dts_core::CoreError;
///
/// let cache = SolveCache::new(16);
/// let (v, hit) = cache.get_or_solve(7u64, || Ok::<_, CoreError>(7 * 7)).unwrap();
/// assert_eq!((v, hit), (49, false));
/// // A hit: the cached value comes back and the solver does not run.
/// let (v, hit) = cache.get_or_solve(7u64, || Ok::<_, CoreError>(0)).unwrap();
/// assert_eq!((v, hit), (49, true));
/// ```
pub struct SolveCache<K, V> {
    inner: Mutex<Inner<K, V>>,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V: Clone> SolveCache<K, V> {
    /// A cache holding at most `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Self {
        SolveCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: VecDeque::new(),
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Returns the cached value for `key`, or runs `solve` to produce it.
    ///
    /// The boolean is `true` for a cache hit — including a caller that
    /// blocked while a concurrent solver for the same key filled the cell.
    /// Among concurrent callers with the same key, exactly one runs
    /// `solve` (unless it fails; failures are returned to their caller and
    /// not cached, so a later caller retries).
    ///
    /// # Errors
    ///
    /// Whatever `solve` returns; the cache adds no failure modes of its
    /// own.
    pub fn get_or_solve<E>(
        &self,
        key: K,
        solve: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        let cell = self.cell_for(&key);
        // Holding the cell lock across the solve is what makes concurrent
        // identical requests solve exactly once: the first caller in finds
        // the cell empty and computes; everyone behind it blocks here and
        // finds the value present. Distinct keys lock distinct cells.
        let mut slot = cell.lock();
        if let Some(value) = slot.as_ref() {
            let value = value.clone();
            drop(slot);
            self.inner.lock().hits += 1;
            return Ok((value, true));
        }
        match solve() {
            Ok(value) => {
                *slot = Some(value.clone());
                drop(slot);
                let mut guard = self.inner.lock();
                let inner = &mut *guard;
                inner.misses += 1;
                while inner.map.len() > self.capacity {
                    // An evicted in-flight solve still completes — waiters
                    // hold their own Arc to the cell — it just stops being
                    // findable for later requests.
                    let Some(old) = inner.order.pop_front() else {
                        break;
                    };
                    inner.map.remove(&old);
                    inner.evictions += 1;
                }
                Ok((value, false))
            }
            Err(err) => {
                drop(slot);
                self.forget_unsolved(&key, cell);
                Err(err)
            }
        }
    }

    /// Looks up or creates the cell of `key`. The outer lock is held only
    /// for this bookkeeping, never across a solve; the LRU refresh happens
    /// inside the same critical section as the lookup, so it adds no lock
    /// acquisitions (and no model-checker decisions).
    fn cell_for(&self, key: &K) -> Arc<Cell<V>> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        match inner.map.entry(key.clone()) {
            Entry::Occupied(e) => {
                let cell = Arc::clone(e.get());
                // Move the re-requested key to the back of the recency
                // queue. O(capacity) scan, bounded by the configured entry
                // count — fine next to a solve that costs milliseconds.
                if let Some(pos) = inner.order.iter().position(|k| k == key) {
                    inner.order.remove(pos);
                    inner.order.push_back(key.clone());
                }
                cell
            }
            Entry::Vacant(e) => {
                let cell = Arc::new(Mutex::new(None));
                e.insert(Arc::clone(&cell));
                inner.order.push_back(key.clone());
                cell
            }
        }
    }

    /// Releases a failed caller's handle on `cell` and removes the cell
    /// if the map still holds that very cell, nobody else holds it and it
    /// is still empty. A cell another caller holds stays: that caller
    /// becomes its next solver, or has already filled it.
    fn forget_unsolved(&self, key: &K, cell: Arc<Cell<V>>) {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let unsolved_and_unshared = match inner.map.get(key) {
            Some(mapped) if Arc::ptr_eq(mapped, &cell) => {
                // Every clone of a mapped cell is taken under this lock
                // (`cell_for`), and every failed caller drops its clone
                // under it too, so a count of one means no caller can
                // reach the cell but through the map — its lock is free.
                drop(cell);
                Arc::strong_count(mapped) == 1 && mapped.lock().is_none()
            }
            _ => false,
        };
        if unsolved_and_unshared {
            inner.map.remove(key);
            inner.order.retain(|k| k != key);
        }
    }

    /// Current counters and residency.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{CoreError, Result};

    /// A solver that succeeds with `value`.
    fn solved<V>(value: V) -> impl FnOnce() -> Result<V> {
        move || Ok(value)
    }

    /// A solver that must not run: the call is expected to hit.
    fn never<V>() -> impl FnOnce() -> Result<V> {
        || unreachable!("expected a cache hit")
    }

    #[test]
    fn second_lookup_hits_without_solving() {
        let cache: SolveCache<u32, String> = SolveCache::new(8);
        let mut solves = 0;
        let (v, hit) = cache
            .get_or_solve(1, || {
                solves += 1;
                Ok::<_, CoreError>("one".to_string())
            })
            .unwrap();
        assert_eq!((v.as_str(), hit), ("one", false));
        let (v, hit) = cache
            .get_or_solve(1, || {
                solves += 1;
                Ok::<_, CoreError>("other".to_string())
            })
            .unwrap();
        assert_eq!((v.as_str(), hit), ("one", true), "cached value wins");
        assert_eq!(solves, 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn errors_are_returned_but_not_cached() {
        let cache: SolveCache<u32, u32> = SolveCache::new(8);
        let err = cache
            .get_or_solve(1, || Err(CoreError::Internal("boom".into())))
            .unwrap_err();
        assert_eq!(err, CoreError::Internal("boom".into()));
        // The failed key solves again — and can now succeed.
        let (v, hit) = cache.get_or_solve(1, solved(5)).unwrap();
        assert_eq!((v, hit), (5, false));
        let (_, hit) = cache.get_or_solve(1, never()).unwrap();
        assert!(hit);
    }

    #[test]
    fn failed_solves_leave_no_cell_and_evict_nothing() {
        let cache: SolveCache<u32, u32> = SolveCache::new(2);
        cache.get_or_solve(1, solved(10)).unwrap();
        cache.get_or_solve(2, solved(20)).unwrap();
        let err = cache
            .get_or_solve(3, || Err(CoreError::Internal("shed".into())))
            .unwrap_err();
        assert_eq!(err, CoreError::Internal("shed".into()));
        let stats = cache.stats();
        assert_eq!((stats.evictions, stats.entries), (0, 2));
        // The solved keys are still resident.
        assert_eq!(cache.get_or_solve(1, never()).unwrap(), (10, true));
        assert_eq!(cache.get_or_solve(2, never()).unwrap(), (20, true));
    }

    #[test]
    fn capacity_evicts_least_recently_used_first() {
        let cache: SolveCache<u32, u32> = SolveCache::new(2);
        for k in 0..3 {
            cache.get_or_solve(k, solved(k * 10)).unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        // Key 0 was evicted and re-solves; keys 1 and 2 still hit.
        let (_, hit) = cache.get_or_solve(1, never()).unwrap();
        assert!(hit);
        let (_, hit) = cache.get_or_solve(2, never()).unwrap();
        assert!(hit);
        let (v, hit) = cache.get_or_solve(0, solved(99)).unwrap();
        assert_eq!((v, hit), (99, false));
    }

    #[test]
    fn hits_refresh_recency() {
        let cache: SolveCache<u32, u32> = SolveCache::new(2);
        cache.get_or_solve(1, solved(10)).unwrap();
        cache.get_or_solve(2, solved(20)).unwrap();
        // Touch key 1: under FIFO it would still be the eviction victim;
        // under LRU the victim becomes key 2.
        let (_, hit) = cache.get_or_solve(1, never()).unwrap();
        assert!(hit);
        cache.get_or_solve(3, solved(30)).unwrap();
        let (v, hit) = cache.get_or_solve(1, never()).unwrap();
        assert_eq!((v, hit), (10, true), "the touched key survived");
        let (v, hit) = cache.get_or_solve(2, solved(99)).unwrap();
        assert_eq!((v, hit), (99, false), "the stale key was evicted");
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let cache: SolveCache<u32, u32> = SolveCache::new(0);
        cache.get_or_solve(1, solved(1)).unwrap();
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn threads_with_the_same_key_solve_once() {
        // The full interleaving-exhaustive version of this lives in
        // tests/cache_model.rs under the microloom backend; this is the
        // cheap std-thread smoke version that runs in every build.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache: SolveCache<u32, u32> = SolveCache::new(8);
        let solves = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let (v, _) = cache
                        .get_or_solve(1, || {
                            solves.fetch_add(1, Ordering::SeqCst);
                            Ok::<_, CoreError>(7)
                        })
                        .unwrap();
                    assert_eq!(v, 7);
                });
            }
        });
        assert_eq!(solves.load(Ordering::SeqCst), 1, "exactly one solve");
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 4);
        assert_eq!(stats.misses, 1);
    }
}
