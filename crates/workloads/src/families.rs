//! The generator families of the workload corpus.
//!
//! The paper evaluates its heuristics only on HF/CCSD integral-kernel
//! traces, which pins every scheduling claim to one communication /
//! computation / memory shape. The families here bracket the space from
//! both ends, following the related work named in `PAPERS.md`:
//!
//! * [`WorkloadFamily::MdLike`] — short-range molecular-dynamics kernels
//!   (MD-Bench): thousands of near-uniform tiny tasks with a narrow
//!   communication/computation spread and low memory pressure.
//! * [`WorkloadFamily::DenseLa`] — dense-linear-algebra panels (the Cray
//!   XE performance-model regime): few tasks, Zipf-skewed computation
//!   times, memory footprints near the machine capacity.
//! * [`WorkloadFamily::TieHeavy`], [`WorkloadFamily::MemoryCliff`],
//!   [`WorkloadFamily::TransferBound`] — the adversarial domains promoted
//!   from [`dts_core::testgen`]: the property-test generators that stress
//!   id tie-breaking, memory-blocked decisions and link contention now
//!   also emit full [`Trace`]s so the scenario suite and the CLI can run
//!   them like any other workload.
//!
//! Every family is seeded and parameterized: the same
//! [`GeneratorConfig`] and rank always produce a byte-identical trace
//! (the generator-invariant property tests pin this), and each family
//! declares shape invariants (spread bounds, skew ratios, duplicate-comm
//! fractions) that the tests enforce.

use dts_chem::trace::TaskKind;
use dts_chem::{Trace, TraceTask};
use dts_core::prelude::*;
use dts_core::testgen;
use microcheck::Gen;
use rand::prelude::*;
use std::fmt;

/// Hard ceiling on the number of tasks a single generated trace may hold,
/// so a typo'd CLI argument cannot ask for a terabyte of task records.
pub const MAX_TASKS: usize = 10_000_000;

/// Default Zipf exponent of the dense-LA family (`comp_i ∝ (i+1)^-s`).
pub const DEFAULT_DENSE_LA_SKEW: f64 = 1.2;

/// A synthetic workload family of the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadFamily {
    /// MD-Bench-like neighbor-list kernels: many tiny, near-uniform tasks.
    MdLike,
    /// Dense-linear-algebra panels: few tasks, Zipf-skewed computation,
    /// memory footprints near capacity.
    DenseLa,
    /// Tie-heavy adversarial domain (promoted from
    /// [`testgen::tie_heavy_task_gen`]): tiny value ranges force equal
    /// communication times, ratios and footprints everywhere.
    TieHeavy,
    /// Memory-cliff adversarial domain (promoted from
    /// [`testgen::memory_cliff_task_gen`]): almost no two tasks coexist in
    /// memory.
    MemoryCliff,
    /// Transfer-bound adversarial domain (promoted from
    /// [`testgen::transfer_bound_task_gen`]): communication dominates, the
    /// link is the bottleneck.
    TransferBound,
}

impl WorkloadFamily {
    /// Every synthetic family, in corpus order.
    pub const ALL: [WorkloadFamily; 5] = [
        WorkloadFamily::MdLike,
        WorkloadFamily::DenseLa,
        WorkloadFamily::TieHeavy,
        WorkloadFamily::MemoryCliff,
        WorkloadFamily::TransferBound,
    ];

    /// CLI name of the family (`dts generate <name> ...`).
    pub fn name(self) -> &'static str {
        match self {
            WorkloadFamily::MdLike => "md",
            WorkloadFamily::DenseLa => "dense-la",
            WorkloadFamily::TieHeavy => "tie-heavy",
            WorkloadFamily::MemoryCliff => "memory-cliff",
            WorkloadFamily::TransferBound => "transfer-bound",
        }
    }

    /// The `kernel` label stamped into generated traces (the synthetic
    /// counterpart of the chemistry generators' `"HF"` / `"CCSD"`).
    pub fn kernel_label(self) -> &'static str {
        match self {
            WorkloadFamily::MdLike => "MD",
            WorkloadFamily::DenseLa => "DENSE-LA",
            WorkloadFamily::TieHeavy => "TIE-HEAVY",
            WorkloadFamily::MemoryCliff => "MEMORY-CLIFF",
            WorkloadFamily::TransferBound => "TRANSFER-BOUND",
        }
    }

    /// One-line description used by the CLI help text.
    pub fn description(self) -> &'static str {
        match self {
            WorkloadFamily::MdLike => {
                "many tiny near-uniform tasks, narrow comm/comp spread, low memory pressure"
            }
            WorkloadFamily::DenseLa => {
                "few tasks, Zipf-skewed computation, memory footprints near capacity"
            }
            WorkloadFamily::TieHeavy => {
                "adversarial: tiny value ranges force ties everywhere (from testgen)"
            }
            WorkloadFamily::MemoryCliff => {
                "adversarial: almost no two tasks coexist in memory (from testgen)"
            }
            WorkloadFamily::TransferBound => {
                "adversarial: communication dominates, the link is the bottleneck (from testgen)"
            }
        }
    }

    /// Parses a family from its CLI name (case-insensitive).
    pub fn from_name(name: &str) -> Option<WorkloadFamily> {
        let lower = name.to_ascii_lowercase();
        WorkloadFamily::ALL
            .iter()
            .copied()
            .find(|f| f.name() == lower)
    }

    /// Default task count of the family: thousands for the MD-like shape,
    /// a few dozen for dense LA, a few hundred for the adversarial
    /// domains.
    pub fn default_tasks(self) -> usize {
        match self {
            WorkloadFamily::MdLike => 2000,
            WorkloadFamily::DenseLa => 32,
            WorkloadFamily::TieHeavy => 400,
            WorkloadFamily::MemoryCliff => 256,
            WorkloadFamily::TransferBound => 400,
        }
    }

    /// `true` iff the family accepts the Zipf `--skew` parameter.
    pub fn supports_skew(self) -> bool {
        matches!(self, WorkloadFamily::DenseLa)
    }
}

impl fmt::Display for WorkloadFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A fully specified, seeded generator invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    /// The family to draw from.
    pub family: WorkloadFamily,
    /// Number of tasks in the trace.
    pub n_tasks: usize,
    /// Base seed; the per-rank seed is derived from it, so one config
    /// yields a whole suite of distinct but reproducible traces.
    pub seed: u64,
    /// Zipf exponent of the dense-LA family. Must be `None` for every
    /// other family ([`GeneratorConfig::validate`] enforces this).
    pub skew: Option<f64>,
    /// Modeled link bandwidth in bytes per second. When set, every task's
    /// communication time is rewritten to its memory footprint divided by
    /// this bandwidth, with a deterministic ±[`BANDWIDTH_JITTER_PCT`] %
    /// measurement jitter — the size-proportional shape `dts calibrate`
    /// recovers. `None` (the default) keeps each family's native
    /// communication times, byte-identical to earlier builds.
    pub bandwidth: Option<u64>,
}

impl GeneratorConfig {
    /// The default configuration of a family.
    pub fn new(family: WorkloadFamily) -> Self {
        GeneratorConfig {
            family,
            n_tasks: family.default_tasks(),
            seed: 0,
            skew: None,
            bandwidth: None,
        }
    }

    /// Checks the parameter set against the family: a positive, bounded
    /// task count everywhere, and `skew` only on families that declare
    /// support for it (finite and positive when present).
    pub fn validate(&self) -> Result<()> {
        let invalid = |msg: String| CoreError::InvalidTrace(msg);
        if self.n_tasks == 0 {
            return Err(invalid(format!(
                "family '{}' needs at least one task",
                self.family
            )));
        }
        if self.n_tasks > MAX_TASKS {
            return Err(invalid(format!(
                "{} tasks requested, but generated traces are capped at {MAX_TASKS}",
                self.n_tasks
            )));
        }
        if self.bandwidth == Some(0) {
            return Err(invalid(
                "bandwidth must be a positive number of bytes per second".into(),
            ));
        }
        match self.skew {
            Some(_) if !self.family.supports_skew() => Err(invalid(format!(
                "family '{}' takes no skew parameter (only 'dense-la' does)",
                self.family
            ))),
            Some(s) if !s.is_finite() || s <= 0.0 => Err(invalid(format!(
                "skew {s} must be a finite positive number"
            ))),
            _ => Ok(()),
        }
    }
}

/// Mixes the base seed with the rank so every rank of a suite gets an
/// independent, reproducible stream (splitmix-style odd multiplier).
fn rank_seed(seed: u64, rank: usize) -> u64 {
    seed.wrapping_add((rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Generates one trace of the configured family for a rank.
///
/// Determinism contract: the same `(config, rank)` pair always produces a
/// byte-identical trace (same task order, names, values), across runs and
/// platforms — the golden corpus suite depends on it.
pub fn generate_trace(config: &GeneratorConfig, rank: usize) -> Result<Trace> {
    config.validate()?;
    let mut rng = StdRng::seed_from_u64(rank_seed(config.seed, rank));
    let mut trace = Trace::with_capacity(config.family.kernel_label(), rank, config.n_tasks);
    let n = config.n_tasks;
    match config.family {
        WorkloadFamily::MdLike => md_tasks(&mut trace, n, &mut rng),
        WorkloadFamily::DenseLa => dense_la_tasks(
            &mut trace,
            n,
            config.skew.unwrap_or(DEFAULT_DENSE_LA_SKEW),
            &mut rng,
        ),
        WorkloadFamily::TieHeavy => promoted_tasks(
            &mut trace,
            testgen::tie_heavy_task_gen(),
            "tie",
            n,
            &mut rng,
        ),
        WorkloadFamily::MemoryCliff => promoted_tasks(
            &mut trace,
            testgen::memory_cliff_task_gen(),
            "cliff",
            n,
            &mut rng,
        ),
        WorkloadFamily::TransferBound => promoted_tasks(
            &mut trace,
            testgen::transfer_bound_task_gen(),
            "xfer",
            n,
            &mut rng,
        ),
    }
    if let Some(bandwidth) = config.bandwidth {
        // The extra rng draws happen only on this opt-in path, so default
        // generation stays byte-identical to earlier builds.
        for task in trace.tasks_mut() {
            let jitter = rng.gen_range(100 - BANDWIDTH_JITTER_PCT..=100 + BANDWIDTH_JITTER_PCT);
            let micros = u128::from(task.mem.bytes()) * 1_000_000 * u128::from(jitter)
                / (u128::from(bandwidth) * 100);
            task.comm_time = Time::from_micros(micros.min(u128::from(u64::MAX)) as u64);
        }
    }
    Ok(trace)
}

/// Pushes a `Contraction` task named by `args`, formatted into `buf`,
/// which is reused so that no task allocates a name of its own.
fn push_named(
    trace: &mut Trace,
    buf: &mut String,
    args: std::fmt::Arguments<'_>,
    comm_micros: u64,
    comp_micros: u64,
    mem_bytes: u64,
) {
    use std::fmt::Write;
    buf.clear();
    let _ = buf.write_fmt(args);
    trace.push(TraceTask {
        name: buf,
        kind: TaskKind::Contraction,
        comm_micros,
        comp_micros,
        mem_bytes,
    });
}

/// Half-width of the deterministic measurement jitter applied to
/// bandwidth-derived communication times, in percent.
pub const BANDWIDTH_JITTER_PCT: u64 = 2;

/// MD-like bounds, exposed so the shape-invariant tests and the generator
/// share one source of truth: `(comm_lo, comm_hi, comp_lo, comp_hi,
/// mem_lo, mem_hi)` in µs and bytes.
pub const MD_BOUNDS: (u64, u64, u64, u64, u64, u64) = (90, 110, 40, 60, 4096, 5120);

fn md_tasks(trace: &mut Trace, n: usize, rng: &mut StdRng) {
    let (comm_lo, comm_hi, comp_lo, comp_hi, mem_lo, mem_hi) = MD_BOUNDS;
    let mut buf = String::new();
    for i in 0..n {
        let comm = rng.gen_range(comm_lo..=comm_hi);
        let comp = rng.gen_range(comp_lo..=comp_hi);
        let mem = rng.gen_range(mem_lo..=mem_hi);
        push_named(trace, &mut buf, format_args!("md({i})"), comm, comp, mem);
    }
}

/// Dense-LA constants: the largest panel computes for [`DENSE_LA_COMP_BASE`]
/// µs (scaled down the Zipf tail, floored at [`DENSE_LA_COMP_FLOOR`]), and
/// every panel's input occupies 75–100 % of [`DENSE_LA_MEM_MAX`] bytes,
/// transferred at [`DENSE_LA_BYTES_PER_MICRO`] bytes/µs.
pub const DENSE_LA_COMP_BASE: u64 = 4_000_000;
/// Smallest computation time of a dense-LA panel, µs.
pub const DENSE_LA_COMP_FLOOR: u64 = 20_000;
/// Largest dense-LA panel footprint, bytes (2 GiB).
pub const DENSE_LA_MEM_MAX: u64 = 2 << 30;
/// Modeled link bandwidth of the dense-LA family, bytes per µs.
pub const DENSE_LA_BYTES_PER_MICRO: u64 = 1024;

fn dense_la_tasks(trace: &mut Trace, n: usize, skew: f64, rng: &mut StdRng) {
    // Zipf-skewed computation times: panel i (by weight rank) computes for
    // base * (i+1)^-skew µs. The weights come from the integer fixed-point
    // machinery below, not `f64::powf` — `pow` is not correctly rounded on
    // every libm, and a one-ulp difference in a weight moves a computation
    // time by a microsecond and the golden corpus metrics with it.
    let skew_q32 = skew_to_q32(skew);
    let mut comps: Vec<u64> = (0..n)
        .map(|i| {
            zipf_weight_scaled(DENSE_LA_COMP_BASE, i as u64 + 1, skew_q32) + DENSE_LA_COMP_FLOOR
        })
        .collect();
    // The submission order must not leak the weight rank (real panel
    // queues are not sorted by cost), so shuffle deterministically.
    comps.shuffle(rng);
    let mut buf = String::new();
    for (i, comp_micros) in comps.into_iter().enumerate() {
        let mem_bytes = rng.gen_range(DENSE_LA_MEM_MAX * 3 / 4..=DENSE_LA_MEM_MAX);
        let comm_micros = mem_bytes / DENSE_LA_BYTES_PER_MICRO;
        push_named(
            trace,
            &mut buf,
            format_args!("panel({i})"),
            comm_micros,
            comp_micros,
            mem_bytes,
        );
    }
}

/// Q32 fixed-point one (`2^32`): the scale of the integer Zipf weight
/// machinery below.
const Q32: u128 = 1 << 32;

/// `2^(2^-j)` for `j = 1..=32`, rounded to Q32 fixed point — the binary
/// fraction factors behind [`zipf_weight_scaled`]'s `exp2`. Hardcoded so
/// the Zipf weights are pure integer arithmetic: identical on every
/// platform, independent of the host libm.
const EXP2_FACTORS_Q32: [u64; 32] = [
    0x0000_0001_6a09_e668,
    0x0000_0001_306f_e0a3,
    0x0000_0001_172b_83c8,
    0x0000_0001_0b55_86d0,
    0x0000_0001_059b_0d31,
    0x0000_0001_02c9_a3e7,
    0x0000_0001_0163_daa0,
    0x0000_0001_00b1_afa6,
    0x0000_0001_0058_c86e,
    0x0000_0001_002c_605e,
    0x0000_0001_0016_2f39,
    0x0000_0001_000b_175f,
    0x0000_0001_0005_8ba0,
    0x0000_0001_0002_c5cc,
    0x0000_0001_0001_62e5,
    0x0000_0001_0000_b172,
    0x0000_0001_0000_58b9,
    0x0000_0001_0000_2c5d,
    0x0000_0001_0000_162e,
    0x0000_0001_0000_0b17,
    0x0000_0001_0000_058c,
    0x0000_0001_0000_02c6,
    0x0000_0001_0000_0163,
    0x0000_0001_0000_00b1,
    0x0000_0001_0000_0059,
    0x0000_0001_0000_002c,
    0x0000_0001_0000_0016,
    0x0000_0001_0000_000b,
    0x0000_0001_0000_0006,
    0x0000_0001_0000_0003,
    0x0000_0001_0000_0001,
    0x0000_0001_0000_0001,
];

/// Converts a validated skew (finite, positive) to Q32 fixed point.
/// Scaling by a power of two and rounding are exact IEEE operations, so
/// this is deterministic even though the input is an `f64`; skews beyond
/// the representable range saturate (the weights just floor out earlier).
fn skew_to_q32(skew: f64) -> u64 {
    (skew * Q32 as f64).round() as u64
}

/// `log2(x)` in Q32 fixed point for `x >= 1`: leading zeros give the
/// integer part, 32 mantissa-squaring steps the fraction. Pure integer.
fn log2_q32(x: u64) -> u128 {
    debug_assert!(x >= 1);
    let int_part = u128::from(63 - x.leading_zeros());
    // Mantissa in [1, 2) as Q32.
    let mut m = (u128::from(x) << 32) >> int_part;
    let mut frac: u128 = 0;
    for _ in 0..32 {
        m = (m * m) >> 32;
        frac <<= 1;
        if m >= 2 * Q32 {
            frac |= 1;
            m >>= 1;
        }
    }
    (int_part << 32) | frac
}

/// `round(base * rank^-skew)` in pure integer arithmetic: the Zipf weight
/// of `rank >= 1` scaled by `base`, with the skew in Q32 fixed point.
/// Computes `e = skew * log2(rank)`, splits it into integer and fraction,
/// rebuilds `2^frac` from [`EXP2_FACTORS_Q32`] and divides — every step
/// integer, so the result is bit-identical across platforms.
fn zipf_weight_scaled(base: u64, rank: u64, skew_q32: u64) -> u64 {
    let e = (u128::from(skew_q32) * log2_q32(rank)) >> 32;
    let int = e >> 32;
    if int >= 64 {
        // 2^-64 of any u64 base rounds to zero.
        return 0;
    }
    let frac = e & (Q32 - 1);
    let mut t = Q32;
    for (j, &factor) in EXP2_FACTORS_Q32.iter().enumerate() {
        if frac & (1 << (31 - j)) != 0 {
            t = (t * u128::from(factor)) >> 32;
        }
    }
    // base * 2^-e = base * 2^32 / (2^int * t), rounded half up.
    let d = t << int;
    let num = (u128::from(base) << 32) + d / 2;
    (num / d) as u64
}

/// Ticks per abstract [`testgen`] unit when a property-test domain is
/// promoted to a trace: [`Time::units_int`] uses 1000 ticks per unit and
/// traces store microseconds (1 tick = 1 µs), so a promoted trace builds
/// the exact instance the property tests would.
pub const PROMOTED_MICROS_PER_UNIT: u64 = Time::TICKS_PER_UNIT;

fn promoted_tasks(
    trace: &mut Trace,
    gen: testgen::TaskGen,
    prefix: &str,
    n: usize,
    rng: &mut StdRng,
) {
    let mut buf = String::new();
    for i in 0..n {
        let spec = gen.generate(rng);
        push_named(
            trace,
            &mut buf,
            format_args!("{prefix}({i})"),
            spec.comm * PROMOTED_MICROS_PER_UNIT,
            spec.comp * PROMOTED_MICROS_PER_UNIT,
            spec.mem,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_weight_table_is_pinned_and_libm_free() {
        // The head of the dense-LA weight table at the default skew,
        // pinned value by value: these numbers are what the golden corpus
        // metrics are built on, and the integer machinery guarantees them
        // on every platform — a libm regression (or a future "simplify
        // back to powf") shows up here before it shows up as a golden
        // mismatch on someone else's machine.
        let sq = skew_to_q32(DEFAULT_DENSE_LA_SKEW);
        assert_eq!(sq, 5_153_960_755);
        let expected: [u64; 16] = [
            4_000_000, 1_741_101, 1_070_322, 757_858, 579_824, 465_885, 387_206, 329_877, 286_397,
            252_383, 225_107, 202_788, 184_216, 168_541, 155_150, 143_587,
        ];
        for (i, &want) in expected.iter().enumerate() {
            assert_eq!(
                zipf_weight_scaled(DENSE_LA_COMP_BASE, i as u64 + 1, sq),
                want,
                "rank {}",
                i + 1
            );
        }
        assert_eq!(zipf_weight_scaled(DENSE_LA_COMP_BASE, 100, sq), 15_924);
        assert_eq!(zipf_weight_scaled(DENSE_LA_COMP_BASE, 1_000, sq), 1_005);
    }

    #[test]
    fn zipf_weights_are_monotone_and_saturate_safely() {
        // Weights never increase down the rank tail, the head weight is
        // the full base, and extreme skews floor out at zero instead of
        // overflowing the fixed-point pipeline.
        for skew in [0.3, 1.0, 1.2, 2.5] {
            let sq = skew_to_q32(skew);
            assert_eq!(
                zipf_weight_scaled(DENSE_LA_COMP_BASE, 1, sq),
                DENSE_LA_COMP_BASE
            );
            let mut prev = u64::MAX;
            for rank in 1..=4096 {
                let w = zipf_weight_scaled(DENSE_LA_COMP_BASE, rank, sq);
                assert!(w <= prev, "skew {skew} rank {rank}: {w} > {prev}");
                prev = w;
            }
        }
        assert_eq!(zipf_weight_scaled(DENSE_LA_COMP_BASE, 2, u64::MAX), 0);
        assert_eq!(zipf_weight_scaled(u64::MAX, 1, skew_to_q32(1.2)), u64::MAX);
    }

    #[test]
    fn names_round_trip_and_describe() {
        for family in WorkloadFamily::ALL {
            assert_eq!(WorkloadFamily::from_name(family.name()), Some(family));
            assert_eq!(
                WorkloadFamily::from_name(&family.name().to_uppercase()),
                Some(family)
            );
            assert!(!family.description().is_empty());
            assert!(!family.kernel_label().is_empty());
        }
        assert_eq!(WorkloadFamily::from_name("hf"), None);
        assert_eq!(WorkloadFamily::from_name("nope"), None);
    }

    #[test]
    fn config_validation_rejects_bad_parameter_sets() {
        let mut config = GeneratorConfig::new(WorkloadFamily::MdLike);
        assert!(config.validate().is_ok());
        config.n_tasks = 0;
        assert!(config.validate().is_err());
        config.n_tasks = MAX_TASKS + 1;
        assert!(config.validate().is_err());
        config.n_tasks = 10;
        config.skew = Some(1.5);
        // Skew on a non-dense-LA family is a parameter error.
        assert!(matches!(config.validate(), Err(CoreError::InvalidTrace(_))));
        config.family = WorkloadFamily::DenseLa;
        assert!(config.validate().is_ok());
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            config.skew = Some(bad);
            assert!(config.validate().is_err(), "skew {bad} accepted");
        }
    }

    #[test]
    fn every_family_generates_its_configured_task_count() {
        for family in WorkloadFamily::ALL {
            let mut config = GeneratorConfig::new(family);
            config.n_tasks = 50;
            config.seed = 7;
            let trace = generate_trace(&config, 0).unwrap();
            assert_eq!(trace.len(), 50);
            assert_eq!(trace.kernel, family.kernel_label());
            assert_eq!(trace.rank, 0);
            assert!(trace.model.is_none());
            // The trace converts into a feasible instance at factor 1.
            let instance = trace.to_instance_scaled(1.0).unwrap();
            assert_eq!(instance.len(), 50);
        }
    }

    #[test]
    fn bandwidth_derives_comm_from_memory_with_bounded_jitter() {
        let mut config = GeneratorConfig::new(WorkloadFamily::TransferBound);
        config.n_tasks = 200;
        config.seed = 13;
        config.bandwidth = Some(1000); // 1000 B/s → mem(B) × 1000 µs
        let trace = generate_trace(&config, 0).unwrap();
        for task in trace.iter() {
            // lint: allow(L002) test expectation; mem is at most 16 bytes here
            let base = task.mem_bytes * 1_000_000 / 1000;
            let lo = base * (100 - BANDWIDTH_JITTER_PCT) / 100;
            let hi = base * (100 + BANDWIDTH_JITTER_PCT) / 100;
            assert!(
                (lo..=hi).contains(&task.comm_micros),
                "{}: comm {} outside [{lo}, {hi}]",
                task.name,
                task.comm_micros
            );
        }
        // Deterministic, and distinct from the native-comm trace.
        assert_eq!(trace, generate_trace(&config, 0).unwrap());
        let mut native = config;
        native.bandwidth = None;
        assert_ne!(trace, generate_trace(&native, 0).unwrap());
        // Zero bandwidth is a parameter error.
        config.bandwidth = Some(0);
        assert!(matches!(
            generate_trace(&config, 0),
            Err(CoreError::InvalidTrace(_))
        ));
    }

    #[test]
    fn ranks_differ_but_are_reproducible() {
        let config = GeneratorConfig::new(WorkloadFamily::TransferBound);
        let rank0 = generate_trace(&config, 0).unwrap();
        let rank1 = generate_trace(&config, 1).unwrap();
        assert_ne!(rank0.tasks(), rank1.tasks(), "ranks share a stream");
        assert_eq!(rank0, generate_trace(&config, 0).unwrap());
    }
}
