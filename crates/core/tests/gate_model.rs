//! Model checking of [`dts_core::gate::Gate`], the serving layer's
//! admission gate, under *all* interleavings via the vendored `microloom`
//! checker.
//!
//! This file is empty under a normal build; run it with
//!
//! ```text
//! RUSTFLAGS="--cfg microloom" cargo test -p dts_core --test gate_model
//! ```
//!
//! which swaps the `dts_core::sync` façade to microloom's instrumented
//! mutex and condition variable, so the gate being checked is exactly the
//! gate the scheduling daemon ships. Bookkeeping inside the models uses
//! plain `std` atomics: only one model thread runs at a time, so they are
//! race-free and add no scheduling decisions.
#![cfg(microloom)]

use dts_core::gate::{Gate, Shed};
use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};
use std::sync::Arc;

/// The most callers observed inside their permit at once, across every
/// execution of [`concurrent_solves_never_exceed_the_slots`].
static PEAK_RUNNING: StdAtomicUsize = StdAtomicUsize::new(0);

/// Three callers, two slots, room to admit all three: at no point do more
/// than two hold a permit, whatever the interleaving — and some
/// interleaving does reach two, so the bound is not met vacuously by
/// serializing everyone. The third caller waits for a slot and is never
/// shed.
#[test]
fn concurrent_solves_never_exceed_the_slots() {
    let report = microloom::check(|| {
        let gate = Arc::new(Gate::new(2, 3));
        let running = Arc::new(StdAtomicUsize::new(0));
        let callers: Vec<_> = (0..3)
            .map(|_| {
                let gate = Arc::clone(&gate);
                let running = Arc::clone(&running);
                microloom::thread::spawn(move || {
                    let permit = gate.enter().expect("depth 3 admits three callers");
                    let now = running.fetch_add(1, StdOrdering::SeqCst) + 1;
                    assert!(now <= 2, "{now} solves run on two slots");
                    PEAK_RUNNING.fetch_max(now, StdOrdering::SeqCst);
                    microloom::thread::yield_now();
                    running.fetch_sub(1, StdOrdering::SeqCst);
                    drop(permit);
                })
            })
            .collect();
        for caller in callers {
            caller.join().expect("callers join cleanly");
        }
    })
    .expect("the slot bound must hold under all interleavings");
    assert!(report.executions > 1, "explored only {report:?}");
    assert_eq!(
        PEAK_RUNNING.load(StdOrdering::SeqCst),
        2,
        "some interleaving runs both slots at once"
    );
}

/// Sheds happen exactly at the depth. Three callers race for a depth-2
/// gate and keep their permits until all three have tried, so admissions
/// only grow: in every interleaving exactly two are admitted and the
/// third is shed with `Full` — never earlier, never later.
#[test]
fn sheds_happen_exactly_at_the_depth() {
    microloom::check(|| {
        let gate = Gate::new(2, 2);
        let outcomes: Vec<Result<(), Shed>> = microloom::thread::scope(|scope| {
            let callers: Vec<_> = (0..3).map(|_| scope.spawn(|| gate.enter())).collect();
            let permits: Vec<_> = callers
                .into_iter()
                .map(|caller| caller.join().expect("callers join cleanly"))
                .collect();
            permits.into_iter().map(|p| p.map(drop)).collect()
        });
        let admitted = outcomes.iter().filter(|o| o.is_ok()).count();
        assert_eq!(admitted, 2, "exactly depth callers are admitted");
        assert!(
            outcomes.contains(&Err(Shed::Full)),
            "the third caller is shed at the depth: {outcomes:?}"
        );
    })
    .expect("the shed point must hold under all interleavings");
}

/// An admitted caller waiting for the only slot is not shed: with depth 2
/// and one slot, two racing callers are both admitted and both run, one
/// after the other, in every interleaving.
#[test]
fn a_caller_waiting_for_a_slot_is_admitted_not_shed() {
    microloom::check(|| {
        let gate = Arc::new(Gate::new(1, 2));
        let ran = Arc::new(StdAtomicUsize::new(0));
        let callers: Vec<_> = (0..2)
            .map(|_| {
                let gate = Arc::clone(&gate);
                let ran = Arc::clone(&ran);
                microloom::thread::spawn(move || {
                    let _permit = gate.enter().expect("depth 2 admits both callers");
                    ran.fetch_add(1, StdOrdering::SeqCst);
                })
            })
            .collect();
        for caller in callers {
            caller.join().expect("callers join cleanly");
        }
        assert_eq!(ran.load(StdOrdering::SeqCst), 2);
    })
    .expect("waiting callers must get a slot under all interleavings");
}

/// A shutdown racing an admitted request returns only after that request
/// released its slot — the daemon's "admitted requests are answered"
/// contract. The caller is either admitted before the close (and the
/// close waits for it) or refused with `Closed`; a caller arriving after
/// the close is always refused.
#[test]
fn close_returns_only_after_admitted_callers_release() {
    microloom::check(|| {
        let gate = Arc::new(Gate::new(1, 1));
        let holding = Arc::new(StdAtomicUsize::new(0));
        let caller = {
            let gate = Arc::clone(&gate);
            let holding = Arc::clone(&holding);
            microloom::thread::spawn(move || match gate.enter() {
                Ok(permit) => {
                    holding.fetch_add(1, StdOrdering::SeqCst);
                    microloom::thread::yield_now();
                    holding.fetch_sub(1, StdOrdering::SeqCst);
                    drop(permit);
                }
                Err(shed) => assert_eq!(shed, Shed::Closed, "only the close refuses"),
            })
        };
        gate.close();
        assert_eq!(
            holding.load(StdOrdering::SeqCst),
            0,
            "close returned while an admitted caller still held its slot"
        );
        assert!(gate.is_closed());
        assert_eq!(gate.enter().err(), Some(Shed::Closed));
        caller.join().expect("caller joins cleanly");
    })
    .expect("the shutdown drain must hold under all interleavings");
}
