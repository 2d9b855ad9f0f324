//! Memory quantities and memory-occupation profiles.

use crate::instance::Instance;
use crate::schedule::Schedule;
use crate::time::Time;
use serde::Serialize;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// An amount of memory in bytes.
///
/// In the paper's small examples the memory requirement of a task equals its
/// communication time expressed in units; trace-based instances use real byte
/// counts. Either way the checker only compares sums against the capacity, so
/// a plain integer newtype suffices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
#[serde(transparent)]
pub struct MemSize(pub u64);

impl MemSize {
    /// Zero bytes.
    pub const ZERO: MemSize = MemSize(0);
    /// The largest representable size, used as "unbounded capacity".
    pub const UNBOUNDED: MemSize = MemSize(u64::MAX);

    /// Creates a size from a raw byte count.
    #[inline]
    pub const fn from_bytes(bytes: u64) -> Self {
        MemSize(bytes)
    }

    /// Creates a size from kibibytes.
    #[inline]
    pub const fn from_kib(kib: u64) -> Self {
        MemSize(kib * 1024)
    }

    /// Creates a size from mebibytes.
    #[inline]
    pub const fn from_mib(mib: u64) -> Self {
        MemSize(mib * 1024 * 1024)
    }

    /// Creates a size from gibibytes.
    #[inline]
    pub const fn from_gib(gib: u64) -> Self {
        MemSize(gib * 1024 * 1024 * 1024)
    }

    /// Raw byte count.
    #[inline]
    pub const fn bytes(self) -> u64 {
        self.0
    }

    /// `true` iff the size is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub const fn saturating_sub(self, rhs: MemSize) -> MemSize {
        MemSize(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition (capacities can legitimately be `UNBOUNDED`).
    #[inline]
    pub const fn saturating_add(self, rhs: MemSize) -> MemSize {
        MemSize(self.0.saturating_add(rhs.0))
    }

    /// Multiplies the size by a float factor, rounding to the nearest byte.
    /// Used for capacity sweeps such as `1.125 * mc`.
    ///
    /// A factor of `1.0` returns the size itself, and no factor `>= 1`
    /// scales below it, although the product is formed in `f64` (which
    /// rounds sizes past 2^53).
    #[inline]
    pub fn scale(self, factor: f64) -> MemSize {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "MemSize::scale requires a finite non-negative factor, got {factor}"
        );
        if factor == 1.0 {
            return self;
        }
        let scaled = MemSize((self.0 as f64 * factor).round() as u64);
        if factor > 1.0 {
            scaled.max(self)
        } else {
            scaled
        }
    }

    /// Maximum of two sizes.
    #[inline]
    pub fn max(self, other: MemSize) -> MemSize {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add for MemSize {
    type Output = MemSize;
    #[inline]
    fn add(self, rhs: MemSize) -> MemSize {
        MemSize(self.0 + rhs.0)
    }
}

impl AddAssign for MemSize {
    #[inline]
    fn add_assign(&mut self, rhs: MemSize) {
        self.0 += rhs.0;
    }
}

impl Sub for MemSize {
    type Output = MemSize;
    #[inline]
    fn sub(self, rhs: MemSize) -> MemSize {
        MemSize(self.0 - rhs.0)
    }
}

impl SubAssign for MemSize {
    #[inline]
    fn sub_assign(&mut self, rhs: MemSize) {
        self.0 -= rhs.0;
    }
}

impl Sum for MemSize {
    fn sum<I: Iterator<Item = MemSize>>(iter: I) -> MemSize {
        iter.fold(MemSize::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a MemSize> for MemSize {
    fn sum<I: Iterator<Item = &'a MemSize>>(iter: I) -> MemSize {
        iter.fold(MemSize::ZERO, |a, b| a + *b)
    }
}

impl fmt::Display for MemSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if self.0 == u64::MAX {
            write!(f, "unbounded")
        } else if b >= 1024.0 * 1024.0 * 1024.0 {
            write!(f, "{:.2} GiB", b / (1024.0 * 1024.0 * 1024.0))
        } else if b >= 1024.0 * 1024.0 {
            write!(f, "{:.2} MiB", b / (1024.0 * 1024.0))
        } else if b >= 1024.0 {
            write!(f, "{:.2} KiB", b / 1024.0)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// A step in a memory-occupation profile: the amount of memory in use from
/// `time` (inclusive) until the next step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryStep {
    /// Instant at which the occupation changes to `used`.
    pub time: Time,
    /// Memory in use from `time` onwards.
    pub used: MemSize,
}

/// Piecewise-constant memory-occupation profile of a schedule.
///
/// A task occupies its memory from the start of its communication to the end
/// of its computation (problem `DT`'s memory model). The profile is the sum
/// of these occupation intervals, represented as a sorted list of steps.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MemoryProfile {
    steps: Vec<MemoryStep>,
}

impl MemoryProfile {
    /// Builds the memory profile of `schedule` on `instance`.
    ///
    /// The sum is exact over the whole `u64` byte range: it is formed in
    /// `u128`, and a step whose sum exceeds `u64::MAX` (more than any
    /// capacity) reads [`MemSize::UNBOUNDED`].
    pub fn of_schedule(instance: &Instance, schedule: &Schedule) -> Self {
        // Event sweep: acquire at comm start, release at comp end.
        let mut events: Vec<(Time, bool, u64)> = Vec::with_capacity(schedule.len() * 2);
        for entry in schedule.entries() {
            let task = instance.task(entry.task);
            let acquire = entry.comm_start;
            // Malformed schedules (rejected separately by the feasibility
            // checker) can place a computation's end before its own
            // communication start; clamp so the profile stays well-formed
            // and the checker can keep reporting the other violations.
            let release = (entry.comp_start + task.comp_time).max(acquire);
            events.push((acquire, false, task.mem.bytes()));
            events.push((release, true, task.mem.bytes()));
        }
        // Acquisitions sort first at each instant, so the sum never drops
        // below zero, but a step records only the net of all of an
        // instant's events: releases take effect before acquisitions. The
        // paper's examples (e.g. OOSIM on Table 3) start a communication
        // at the exact instant a previous computation frees its memory.
        events.sort_by_key(|&(t, release, _)| (t, release));
        let mut steps = Vec::new();
        let mut used: u128 = 0;
        for (i, &(time, release, bytes)) in events.iter().enumerate() {
            if release {
                used -= u128::from(bytes);
            } else {
                used += u128::from(bytes);
            }
            if events.get(i + 1).is_none_or(|&(next, _, _)| next != time) {
                steps.push(MemoryStep {
                    time,
                    used: MemSize(u64::try_from(used).unwrap_or(u64::MAX)),
                });
            }
        }
        MemoryProfile { steps }
    }

    /// The individual steps (sorted by time).
    pub fn steps(&self) -> &[MemoryStep] {
        &self.steps
    }

    /// Peak memory occupation over the whole schedule.
    pub fn peak(&self) -> MemSize {
        self.steps
            .iter()
            .map(|s| s.used)
            .max()
            .unwrap_or(MemSize::ZERO)
    }

    /// Memory in use at instant `t` (steps are left-closed).
    pub fn usage_at(&self, t: Time) -> MemSize {
        match self.steps.binary_search_by_key(&t, |s| s.time) {
            Ok(i) => self.steps[i].used,
            Err(0) => MemSize::ZERO,
            Err(i) => self.steps[i - 1].used,
        }
    }

    /// First instant at which occupation exceeds `capacity`, if any.
    pub fn first_violation(&self, capacity: MemSize) -> Option<Time> {
        self.steps
            .iter()
            .find(|s| s.used > capacity)
            .map(|s| s.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::schedule::Schedule;

    fn tiny_instance() -> Instance {
        // Two tasks: X (comm 2, comp 2, mem 4), Y (comm 1, comp 3, mem 2).
        InstanceBuilder::new()
            .capacity(MemSize::from_bytes(6))
            .task_units("X", 2.0, 2.0, 4)
            .task_units("Y", 1.0, 3.0, 2)
            .build()
            .unwrap()
    }

    #[test]
    fn memsize_display_scales() {
        assert_eq!(MemSize::from_bytes(512).to_string(), "512 B");
        assert_eq!(MemSize::from_kib(176).to_string(), "176.00 KiB");
        assert_eq!(MemSize::from_gib(2).to_string(), "2.00 GiB");
        assert_eq!(MemSize::UNBOUNDED.to_string(), "unbounded");
    }

    #[test]
    fn memsize_scale_rounds() {
        let mc = MemSize::from_bytes(1000);
        assert_eq!(mc.scale(1.125), MemSize::from_bytes(1125));
        assert_eq!(mc.scale(2.0), MemSize::from_bytes(2000));
        assert_eq!(mc.scale(0.0), MemSize::ZERO);
        // The product is an `f64`: 1.7 is stored just below 1.7, yet
        // 5 x 1.7 evaluates to exactly 8.5, which rounds up.
        assert_eq!(MemSize::from_bytes(5).scale(1.7), MemSize::from_bytes(9));
        assert_eq!(MemSize::from_bytes(5).scale(0.5), MemSize::from_bytes(3));
        assert_eq!(MemSize::from_bytes(3).scale(f64::MAX), MemSize::UNBOUNDED);
    }

    #[test]
    fn memsize_scale_never_lands_below_the_size() {
        // Regression: the product goes through `f64`, which rounds
        // 2^53 + 1 down to 2^53, so a 1.0 factor used to land below mc and
        // the largest task no longer fitted.
        let mc = MemSize::from_bytes(9_007_199_254_740_993);
        assert_eq!(mc.scale(1.0), mc);
        for bytes in [u64::MAX, u64::MAX - 1, (1 << 53) + 1, (1 << 60) + 3, 1] {
            let size = MemSize::from_bytes(bytes);
            assert_eq!(size.scale(1.0), size, "{bytes}");
            for factor in [1.0 + f64::EPSILON, 1.125, 1.3, 1.5, 1.875, 2.0] {
                assert!(size.scale(factor) >= size, "{bytes} x {factor}");
            }
        }
        // Factors past 1 saturate rather than wrap.
        assert_eq!(MemSize::UNBOUNDED.scale(1.5), MemSize::UNBOUNDED);
    }

    #[test]
    fn profile_tracks_acquire_and_release() {
        let inst = tiny_instance();
        let mut sched = Schedule::new();
        // X: comm [0,2), comp [2,4). Y: comm [2,3), comp [4,7).
        sched.push(ScheduleEntryHelper::entry(0, 0.0, 2.0));
        sched.push(ScheduleEntryHelper::entry(1, 2.0, 4.0));
        let profile = MemoryProfile::of_schedule(&inst, &sched);
        assert_eq!(profile.usage_at(Time::units(0.0)), MemSize::from_bytes(4));
        assert_eq!(profile.usage_at(Time::units(2.5)), MemSize::from_bytes(6));
        // X releases at t=4, Y still holds 2 until 7.
        assert_eq!(profile.usage_at(Time::units(4.0)), MemSize::from_bytes(2));
        assert_eq!(profile.usage_at(Time::units(7.0)), MemSize::ZERO);
        assert_eq!(profile.peak(), MemSize::from_bytes(6));
        assert_eq!(profile.first_violation(MemSize::from_bytes(6)), None);
        assert_eq!(
            profile.first_violation(MemSize::from_bytes(5)),
            Some(Time::units(2.0))
        );

        // A task past `i64::MAX` bytes is held at its true amount.
        let huge = MemSize::from_bytes(u64::MAX - 10);
        let inst = InstanceBuilder::new()
            .capacity(huge)
            .task_units("H", 2.0, 2.0, huge.bytes())
            .build()
            .unwrap();
        let mut sched = Schedule::new();
        sched.push(ScheduleEntryHelper::entry(0, 1.0, 3.0));
        let profile = MemoryProfile::of_schedule(&inst, &sched);
        assert_eq!(profile.usage_at(Time::units(0.0)), MemSize::ZERO);
        assert_eq!(profile.usage_at(Time::units(2.0)), huge);
        assert_eq!(profile.usage_at(Time::units(5.0)), MemSize::ZERO);
        assert_eq!(profile.peak(), huge);
        assert_eq!(profile.first_violation(huge), None);
    }

    #[test]
    fn release_processed_before_acquire_at_same_instant() {
        // Y's comm starts exactly when X's comp ends: peak must be max(4, 2),
        // not 6.
        let inst = tiny_instance();
        let mut sched = Schedule::new();
        sched.push(ScheduleEntryHelper::entry(0, 0.0, 2.0)); // X comp ends at 4
        sched.push(ScheduleEntryHelper::entry(1, 4.0, 5.0)); // Y comm starts at 4
        let profile = MemoryProfile::of_schedule(&inst, &sched);
        assert_eq!(profile.peak(), MemSize::from_bytes(4));
    }

    /// Small helper so tests can write entries in units.
    struct ScheduleEntryHelper;
    impl ScheduleEntryHelper {
        fn entry(task: usize, comm_start: f64, comp_start: f64) -> crate::schedule::ScheduleEntry {
            crate::schedule::ScheduleEntry {
                task: crate::task::TaskId(task),
                comm_start: Time::units(comm_start),
                comp_start: Time::units(comp_start),
            }
        }
    }
}
