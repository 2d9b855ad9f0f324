//! Host readings: the drift sentinel, scheduler wait, steal and peak RSS.
//!
//! The sentinel is a fixed integer loop timed at the start and end of a
//! run. It does the same work every time, so a change in its time is a
//! change in the host's speed, not in the program under test.

use std::hint::black_box;
use std::time::Instant;

/// Wall time of the fixed reference loop, in milliseconds.
pub fn ref_loop_ms() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..black_box(20_000_000u32) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Time the calling thread has spent runnable but waiting for a CPU, in
/// nanoseconds (second field of `/proc/thread-self/schedstat`).
pub fn runqueue_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

/// Steal time of all CPUs, in milliseconds (the eighth value of the `cpu`
/// line of `/proc/stat`, which counts 10 ms ticks).
pub fn steal_ms() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?;
            line.split_whitespace().nth(8)?.parse::<u64>().ok()
        })
        .map_or(0.0, |ticks| ticks as f64 * 10.0)
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s followed by
/// fourteen `long`s, the first of which is `ru_maxrss` in KB.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// Largest peak RSS of any child process waited for so far, in MB.
pub fn children_peak_rss_mb() -> f64 {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the kernel's
    // layout, and `getrusage` writes only within it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

/// The drift sentinel and scheduler counters over one run.
pub struct Sentinel {
    start_loop_ms: f64,
    start_wait_ns: u64,
    start_steal_ms: f64,
}

/// What the sentinel saw over a run.
pub struct HostReport {
    pub ref_loop_ms: f64,
    pub ref_loop_drift_pct: f64,
    pub runqueue_wait_ms: f64,
    pub steal_ms: f64,
}

impl Sentinel {
    pub fn start() -> Self {
        Sentinel {
            start_loop_ms: ref_loop_ms(),
            start_wait_ns: runqueue_wait_ns(),
            start_steal_ms: steal_ms(),
        }
    }

    pub fn finish(self) -> HostReport {
        let wait_ns = runqueue_wait_ns().saturating_sub(self.start_wait_ns);
        let steal = steal_ms() - self.start_steal_ms;
        let end_loop_ms = ref_loop_ms();
        HostReport {
            ref_loop_ms: (self.start_loop_ms + end_loop_ms) / 2.0,
            ref_loop_drift_pct: (end_loop_ms / self.start_loop_ms - 1.0) * 100.0,
            runqueue_wait_ms: wait_ns as f64 / 1e6,
            steal_ms: steal.max(0.0),
        }
    }
}
