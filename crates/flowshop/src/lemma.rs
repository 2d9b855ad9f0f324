//! Executable form of the exchange argument (Lemma 1 of the paper).
//!
//! Lemma 1 states that swapping two *contiguous* tasks `A`, `B` of an
//! infinite-memory schedule cannot improve the makespan when one of three
//! conditions holds. The paper uses it to prove the optimality of Johnson's
//! rule (Theorem 1). This module exposes the conditions as predicates and the
//! swap experiment itself, so property tests can check the lemma on random
//! task pairs — effectively machine-checking the inequality chains of the
//! proof.

use dts_core::prelude::*;

/// The three sufficient conditions of Lemma 1 under which swapping
/// consecutive tasks `(a, b)` into `(b, a)` does not improve the makespan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LemmaCase {
    /// Both compute intensive and `CM_A <= CM_B`.
    BothComputeIntensive,
    /// Both communication intensive and `CP_A >= CP_B`.
    BothCommunicationIntensive,
    /// `A` compute intensive, `B` communication intensive.
    MixedAComputeBCommunication,
}

/// Returns which case of Lemma 1 (if any) applies to the ordered pair
/// `(a, b)`, i.e. `a` scheduled immediately before `b`.
pub fn lemma_case(a: &Task, b: &Task) -> Option<LemmaCase> {
    let a_compute = a.comp_time >= a.comm_time;
    let b_compute = b.comp_time >= b.comm_time;
    if a_compute && b_compute && a.comm_time <= b.comm_time {
        Some(LemmaCase::BothComputeIntensive)
    } else if !a_compute && !b_compute && a.comp_time >= b.comp_time {
        Some(LemmaCase::BothCommunicationIntensive)
    } else if a_compute && !b_compute {
        Some(LemmaCase::MixedAComputeBCommunication)
    } else {
        None
    }
}

/// Completion state after scheduling a pair of tasks starting from resource
/// availability `(t1, t2)` (link, processor) in the given order, with
/// unlimited memory. Returns `(link_available, cpu_available)` afterwards.
pub fn schedule_pair(t1: Time, t2: Time, first: &Task, second: &Task) -> (Time, Time) {
    let comm_first_end = t1 + first.comm_time;
    let comp_first_start = comm_first_end.max(t2);
    let comp_first_end = comp_first_start + first.comp_time;
    let comm_second_end = comm_first_end + second.comm_time;
    let comp_second_start = comm_second_end.max(comp_first_end);
    let comp_second_end = comp_second_start + second.comp_time;
    (comm_second_end, comp_second_end)
}

/// The statement of Lemma 1 for a concrete pair and initial state: swapping
/// `(a, b)` into `(b, a)` does not *decrease* the completion time on the
/// computation resource (the link completion is identical in both orders).
///
/// Returns `true` when the lemma's conclusion holds, i.e. the swapped order
/// finishes no earlier than the original order would require — phrased as in
/// the paper: `SCOMP(B) + CP_B <= S'COMP(A) + CP_A`.
pub fn swap_does_not_improve(t1: Time, t2: Time, a: &Task, b: &Task) -> bool {
    let (_, original_cpu) = schedule_pair(t1, t2, a, b);
    let (_, swapped_cpu) = schedule_pair(t1, t2, b, a);
    original_cpu <= swapped_cpu
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(comm: u64, comp: u64) -> Task {
        Task::new(
            Time::units_int(comm),
            Time::units_int(comp),
            MemSize::from_bytes(comm.max(1)),
        )
    }

    #[test]
    fn case_detection() {
        // Both compute intensive, CM_A <= CM_B.
        assert_eq!(
            lemma_case(&task(1, 3), &task(2, 5)),
            Some(LemmaCase::BothComputeIntensive)
        );
        // Both communication intensive, CP_A >= CP_B.
        assert_eq!(
            lemma_case(&task(5, 3), &task(4, 2)),
            Some(LemmaCase::BothCommunicationIntensive)
        );
        // Mixed.
        assert_eq!(
            lemma_case(&task(1, 3), &task(4, 2)),
            Some(LemmaCase::MixedAComputeBCommunication)
        );
        // No case: A communication intensive before B compute intensive.
        assert_eq!(lemma_case(&task(4, 2), &task(1, 3)), None);
        // No case: both compute intensive but CM_A > CM_B.
        assert_eq!(lemma_case(&task(3, 4), &task(1, 3)), None);
    }

    #[test]
    fn pair_scheduling_matches_hand_computation() {
        // A(3,2) then B(1,3) from (0,0): comm A [0,3), comp A [3,5),
        // comm B [3,4), comp B [5,8).
        let (link, cpu) = schedule_pair(Time::ZERO, Time::ZERO, &task(3, 2), &task(1, 3));
        assert_eq!(link, Time::units_int(4));
        assert_eq!(cpu, Time::units_int(8));
    }

    #[test]
    fn known_beneficial_swap_detected_when_no_case_applies() {
        // B(1,3) should come before A(3,2) (Johnson); the pair (A, B) has no
        // lemma case and swapping it *does* improve.
        let a = task(3, 2);
        let b = task(1, 3);
        assert_eq!(lemma_case(&a, &b), None);
        assert!(!swap_does_not_improve(Time::ZERO, Time::ZERO, &a, &b));
    }

    /// The `(CM_A, CP_A, CM_B, CP_B, t1, t2)` experiment domain — the same
    /// ranges the original proptest strategies (and the seeded loops that
    /// replaced them) used.
    fn experiment_domain() -> impl microcheck::Gen<Value = (u64, u64, u64, u64, u64, u64)> {
        use microcheck::gens::u64_in;
        (
            u64_in(0..=29),
            u64_in(0..=29),
            u64_in(0..=29),
            u64_in(0..=29),
            u64_in(0..=19),
            u64_in(0..=19),
        )
    }

    /// Exhaustive machine-check of Lemma 1 at zero offsets: whenever one of
    /// the three conditions holds, the swap never improves the pair
    /// completion time. (The random-offset sampling lives in the
    /// `microcheck` property below.)
    #[test]
    fn lemma_holds_exhaustively_at_zero_offsets() {
        for cm_a in 0u64..30 {
            for cp_a in 0u64..30 {
                for cm_b in 0u64..30 {
                    for cp_b in 0u64..30 {
                        let a = task(cm_a, cp_a);
                        let b = task(cm_b, cp_b);
                        if lemma_case(&a, &b).is_some() {
                            assert!(
                                swap_does_not_improve(Time::ZERO, Time::ZERO, &a, &b),
                                "lemma violated for a=({cm_a},{cp_a}) b=({cm_b},{cp_b})"
                            );
                        }
                    }
                }
            }
        }
    }

    microcheck::property! {
        /// Machine-check of Lemma 1 over the full domain, arbitrary initial
        /// resource availability included: whenever one of the three
        /// conditions holds, the swap never improves.
        fn lemma_holds_on_random_experiments(
            (cm_a, cp_a, cm_b, cp_b, t1, t2) in experiment_domain(),
            cases = 20_000,
        ) {
            let (a, b) = (task(cm_a, cp_a), task(cm_b, cp_b));
            let (t1, t2) = (Time::units_int(t1), Time::units_int(t2));
            if lemma_case(&a, &b).is_some() {
                microcheck::prop_assert!(
                    swap_does_not_improve(t1, t2, &a, &b),
                    "lemma violated for a={a:?} b={b:?} t1={t1:?} t2={t2:?}"
                );
            }
        }

        /// The link completion time is order-independent (used implicitly
        /// in the proof of Lemma 1).
        fn link_completion_is_order_independent(
            (cm_a, cp_a, cm_b, cp_b, t1, t2) in experiment_domain(),
            cases = 20_000,
        ) {
            let (a, b) = (task(cm_a, cp_a), task(cm_b, cp_b));
            let (t1, t2) = (Time::units_int(t1), Time::units_int(t2));
            let (link_ab, _) = schedule_pair(t1, t2, &a, &b);
            let (link_ba, _) = schedule_pair(t1, t2, &b, &a);
            microcheck::prop_assert_eq!(
                link_ab,
                link_ba,
                "a={a:?} b={b:?} t1={t1:?} t2={t2:?}"
            );
        }
    }

    /// A deliberately broken "lemma" — claiming the swap *never* improves,
    /// with the precondition dropped — must not only fail but shrink to the
    /// smallest counterexample in the domain: `A` transfers for one unit,
    /// `B` computes for one unit, everything else zero. That pair is the
    /// minimal witness that order matters at all (Johnson's rule would put
    /// `B` first), so reaching it demonstrates the shrinker finds global
    /// minima, not just smaller failures.
    #[test]
    fn broken_lemma_shrinks_to_the_minimal_counterexample() {
        let failure = microcheck::check(
            &microcheck::Config::default(),
            &experiment_domain(),
            |&(cm_a, cp_a, cm_b, cp_b, t1, t2)| {
                let (a, b) = (task(cm_a, cp_a), task(cm_b, cp_b));
                microcheck::prop_assert!(swap_does_not_improve(
                    Time::units_int(t1),
                    Time::units_int(t2),
                    &a,
                    &b
                ));
                Ok(())
            },
        )
        .expect_err("the precondition-free lemma is false");

        let (cm_a, cp_a, cm_b, cp_b, t1, t2) = failure.minimal;
        // Still a counterexample after minimization...
        assert!(!swap_does_not_improve(
            Time::units_int(t1),
            Time::units_int(t2),
            &task(cm_a, cp_a),
            &task(cm_b, cp_b)
        ));
        // ...and of minimal size: total task volume 2, zero offsets. Any
        // improving swap needs CM_A >= 1 and CP_B >= 1, so this is the
        // unique minimum.
        assert_eq!(
            (cm_a, cp_a, cm_b, cp_b, t1, t2),
            (1, 0, 0, 1, 0, 0),
            "minimized counterexample should be the unit witness"
        );
    }
}
