//! Compile-time façade over the sync primitives the pool, the solve cache
//! and the admission gate are built on.
//!
//! Normal builds re-export the real `std::sync::atomic` types, so the
//! façade costs nothing. Building with `RUSTFLAGS="--cfg microloom"`
//! swaps in the vendored `microloom` model checker's instrumented types,
//! under which every atomic operation becomes a recorded scheduling
//! decision and the checker explores all interleavings (including stale
//! values a `Relaxed` load is allowed to observe). [`crate::pool`] is
//! written against this module only, so the code that is model checked
//! is byte-for-byte the code that ships.
//!
//! Run the model suite with:
//!
//! ```text
//! RUSTFLAGS="--cfg microloom" cargo test -p dts_core --test pool_model
//! ```

#[cfg(not(microloom))]
pub use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

#[cfg(microloom)]
pub use microloom::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

// The mutex facade follows the same pattern for [`crate::cache`]: the
// vendored `parking_lot` stub in normal builds (its `lock()` returns the
// guard directly, recovering poisoned locks), microloom's instrumented
// mutex — same `lock()` shape — under the model checker, so the
// solve-once cache is model checked byte-for-byte as shipped.

#[cfg(not(microloom))]
pub use parking_lot::{Mutex, MutexGuard};

#[cfg(microloom)]
pub use microloom::sync::{Mutex, MutexGuard};

// The condition variable pairs with that mutex: under microloom its
// `wait` is a model-checked park (see `microloom::sync::Condvar`); in
// normal builds a thin wrapper gives `std`'s condvar the same
// by-value, poison-free `wait` (the `parking_lot` stub's guard is
// `std`'s guard), so [`crate::gate`] is model checked as shipped.

#[cfg(microloom)]
pub use microloom::sync::Condvar;

/// `std::sync::Condvar` with the façade's poison-free `wait`.
#[cfg(not(microloom))]
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

#[cfg(not(microloom))]
impl Condvar {
    /// A condition variable with no waiters.
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// Releases `guard`'s mutex, blocks until notified (or woken
    /// spuriously — callers re-check their condition in a loop) and
    /// returns the re-acquired guard.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.0
            .wait(guard)
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Wakes one waiter, if any.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}
