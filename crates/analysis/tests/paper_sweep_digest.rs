//! Pins the rows of the paper's evaluation on the first paper-topology
//! ranks across commits.
//!
//! `run_trace_sweep` (every heuristic at every capacity factor) runs on HF
//! and CCSD ranks 0–3 of `SuiteConfig::default()`, and each trace's rows are
//! rendered exactly (integer times and bytes, the ratio's bit pattern) and
//! hashed with the stable digest. The recorded digests must not change
//! unless a change means to change a schedule. This is the only tier-1 test
//! that runs MAMR and OOMAMR, whose candidate index has the most machinery,
//! on paper-scale ranks; the other sweep tests use `SuiteConfig::small()`.

use std::fmt::Write;

use dts_analysis::sweep::{run_trace_sweep, SweepConfig, SweepRow};
use dts_chem::suite::{generate_partial_suite, SuiteConfig};
use dts_chem::Kernel;
use dts_core::hash::stable_digest;

fn render(rows: &[SweepRow]) -> String {
    let mut out = String::new();
    for r in rows {
        writeln!(
            out,
            "{} {} {:016x} {} {} {} {} {:016x}",
            r.kernel,
            r.rank,
            r.factor.to_bits(),
            r.capacity.bytes(),
            r.heuristic,
            r.makespan.0,
            r.omim.0,
            r.ratio.to_bits()
        )
        .unwrap();
    }
    out
}

/// Digests of the sweep rows of ranks 0–3, in rank order.
const PAPER_HF: [&str; 4] = [
    "82abd0742402f38b6312c007468ba50b",
    "b3c1d23068e29ba6c648942deaadb3ae",
    "b3686bc10f786bbb3b66b626866da9b3",
    "0cc6e12038581ec832e0ef25791b7670",
];
const PAPER_CCSD: [&str; 4] = [
    "cc808cc85d450eb3aadaae3f24de6d71",
    "5b3edb51daece75b8f3d69f87ca9b017",
    "06a55e92604e0eab1951a3354d2ed6f9",
    "7d5e86f89714847ebfcae39e36c7342c",
];

#[test]
fn paper_rank_sweeps_match_recorded_digests() {
    let config = SweepConfig::default();
    assert_eq!(config.heuristics.len() * config.factors.len(), 14 * 9);
    let mut mismatches = Vec::new();
    for (kernel, recorded) in [(Kernel::HartreeFock, PAPER_HF), (Kernel::Ccsd, PAPER_CCSD)] {
        let traces = generate_partial_suite(kernel, &SuiteConfig::default(), recorded.len());
        for (trace, want) in traces.iter().zip(recorded) {
            let rows = run_trace_sweep(trace, &config).unwrap();
            assert_eq!(rows.len(), 14 * 9);
            let got = stable_digest(render(&rows).as_bytes()).to_string();
            if got != want {
                mismatches.push(format!("{} rank {}: {got}", kernel.name(), trace.rank));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
