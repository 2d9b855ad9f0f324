//! Admission gate for the serving layer's cold solves.
//!
//! A daemon answering every request on its own connection thread needs
//! two bounds on the expensive path: how many solves run at once (so
//! concurrent clients do not oversubscribe the machine) and how many may
//! be admitted at all, running or waiting (so offered load cannot queue
//! without limit). [`Gate`] is both, as one mutex-guarded pair of
//! counters:
//!
//! * [`Gate::enter`] sheds the caller at once when `depth` solves are
//!   already admitted ([`Shed::Full`]) or the gate is closed
//!   ([`Shed::Closed`]); otherwise it admits the caller and blocks until
//!   one of the `slots` running slots is free. Waiters are not ordered.
//! * The returned [`Permit`] holds the slot; dropping it — also while
//!   unwinding — frees the slot and wakes one waiter.
//! * [`Gate::close`] refuses every later caller and returns once every
//!   admitted caller has dropped its permit, so a shutdown still answers
//!   what it admitted.
//!
//! Written against the [`crate::sync`] façade, so under
//! `RUSTFLAGS="--cfg microloom"` `tests/gate_model.rs` checks the slot
//! bound, the shed point and the shutdown drain under all interleavings.

use crate::sync::{Condvar, Mutex};

/// Why [`Gate::enter`] refused a caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shed {
    /// As many callers as the gate's depth already hold or await a slot.
    Full,
    /// [`Gate::close`] has been called.
    Closed,
}

struct State {
    /// Callers between a successful `enter` and their permit's drop.
    admitted: usize,
    /// Admitted callers holding a slot.
    running: usize,
    closed: bool,
}

/// Bounds concurrent and admitted solves; see the module docs.
pub struct Gate {
    state: Mutex<State>,
    slot_freed: Condvar,
    drained: Condvar,
    slots: usize,
    depth: usize,
}

/// A running slot of a [`Gate`], released on drop.
#[must_use = "dropping the permit frees the slot at once"]
pub struct Permit<'a> {
    gate: &'a Gate,
}

impl Gate {
    /// A gate running at most `slots` callers at once (at least one) and
    /// admitting at most `depth`, running or waiting. A `depth` of zero
    /// sheds every caller.
    pub fn new(slots: usize, depth: usize) -> Self {
        Gate {
            state: Mutex::new(State {
                admitted: 0,
                running: 0,
                closed: false,
            }),
            slot_freed: Condvar::new(),
            drained: Condvar::new(),
            slots: slots.max(1),
            depth,
        }
    }

    /// Admits the caller and blocks until a slot is free.
    ///
    /// # Errors
    ///
    /// [`Shed::Closed`] after [`Gate::close`]; [`Shed::Full`] when the
    /// admission depth is reached. Either way the caller never waited.
    pub fn enter(&self) -> Result<Permit<'_>, Shed> {
        let mut state = self.state.lock();
        if state.closed {
            return Err(Shed::Closed);
        }
        if state.admitted >= self.depth {
            return Err(Shed::Full);
        }
        state.admitted += 1;
        while state.running >= self.slots {
            state = self.slot_freed.wait(state);
        }
        state.running += 1;
        Ok(Permit { gate: self })
    }

    /// Whether [`Gate::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().closed
    }

    /// Refuses every later caller, then blocks until every admitted
    /// caller has dropped its permit. Idempotent.
    pub fn close(&self) {
        let mut state = self.state.lock();
        state.closed = true;
        while state.admitted > 0 {
            state = self.drained.wait(state);
        }
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = self.gate.state.lock();
        state.running -= 1;
        state.admitted -= 1;
        self.gate.slot_freed.notify_one();
        if state.admitted == 0 {
            self.gate.drained.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_depth_sheds_every_caller() {
        let gate = Gate::new(4, 0);
        assert_eq!(gate.enter().err(), Some(Shed::Full));
    }

    #[test]
    fn depth_counts_running_callers() {
        let gate = Gate::new(2, 2);
        let first = gate.enter().expect("below depth");
        let second = gate.enter().expect("below depth");
        assert_eq!(gate.enter().err(), Some(Shed::Full));
        drop(first);
        let third = gate.enter().expect("a slot was released");
        drop((second, third));
    }

    #[test]
    fn close_refuses_later_callers_and_returns_once_drained() {
        let gate = Gate::new(1, 4);
        drop(gate.enter().expect("open gate admits"));
        gate.close();
        assert!(gate.is_closed());
        assert_eq!(gate.enter().err(), Some(Shed::Closed));
        gate.close();
    }
}
