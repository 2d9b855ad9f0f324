//! Pins the output of the HF and CCSD trace generators across commits.
//!
//! Each trace is rendered with `Trace::to_json` and hashed with the stable
//! digest; the recorded digests must not change unless a change means to
//! change the generated workloads. The unit tests in `hf.rs` and `ccsd.rs`
//! compare two runs of the same build, which cannot catch a refactor of
//! the generators, `dts_ga` or `dts_tensor` that shifts a byte count or a
//! duration.

use dts_chem::ccsd::generate_ccsd_trace;
use dts_chem::hf::generate_hf_trace;
use dts_chem::{Kernel, SuiteConfig, Trace};
use dts_core::hash::stable_digest;

fn generate(kernel: Kernel, config: &SuiteConfig, rank: usize) -> Trace {
    match kernel {
        Kernel::HartreeFock => generate_hf_trace(
            &config.hf,
            config.topology,
            config.transfer,
            config.cost,
            rank,
        ),
        Kernel::Ccsd => generate_ccsd_trace(
            &config.ccsd,
            config.topology,
            config.transfer,
            config.cost,
            rank,
        ),
    }
}

fn digest(kernel: Kernel, config: &SuiteConfig, rank: usize) -> String {
    let json = generate(kernel, config, rank).to_json().unwrap();
    stable_digest(json.as_bytes()).to_string()
}

/// Digests of every rank of `SuiteConfig::small()`, in rank order.
const SMALL_HF: [&str; 6] = [
    "202cc9a6f3ed43fe83f69b2d2dc8dde2",
    "76b60098fab6be872b3f786a8d4893e3",
    "2d4391c0f2295f7f2383bd6db68f879e",
    "12445a5203ecc95694b3ee016247973e",
    "3abe102247e915ea386d6edae399a829",
    "8935d04fc22ae876cc23c526b3d39407",
];
const SMALL_CCSD: [&str; 6] = [
    "be3728db1945f9256d81eeef794d3cec",
    "7082177d55b5458056da53908d8e95bb",
    "0381c51b0b9d95b1694f1094d9f30b06",
    "f5b6a1517829706f3cbd5557083071a4",
    "7c0a6a32c72fe761fa712d29caa1e756",
    "ea315a98016f3e0fda4d04a9548a7a16",
];

/// Digests of ranks 0 and 149 of `SuiteConfig::default()` (the paper's
/// 150-rank setup).
const PAPER_HF: [(usize, &str); 2] = [
    (0, "8cd45ef2ba311e4a664fafac5941f2b1"),
    (149, "bac9dd2abc35974b17e989b38be6fb4d"),
];
const PAPER_CCSD: [(usize, &str); 2] = [
    (0, "ee3705fc335366c24aef670793979ded"),
    (149, "9f7995244c7951ceecaa7b9d432c7430"),
];

#[test]
fn generated_traces_match_recorded_digests() {
    let small = SuiteConfig::small();
    let paper = SuiteConfig::default();
    let mut mismatches = Vec::new();
    for (kernel, recorded) in [(Kernel::HartreeFock, SMALL_HF), (Kernel::Ccsd, SMALL_CCSD)] {
        assert_eq!(recorded.len(), small.topology.n_processes());
        for (rank, want) in recorded.iter().enumerate() {
            let got = digest(kernel, &small, rank);
            if got != *want {
                mismatches.push(format!("small {} rank {rank}: {got}", kernel.name()));
            }
        }
    }
    for (kernel, recorded) in [(Kernel::HartreeFock, PAPER_HF), (Kernel::Ccsd, PAPER_CCSD)] {
        for (rank, want) in recorded {
            let got = digest(kernel, &paper, rank);
            if got != want {
                mismatches.push(format!("paper {} rank {rank}: {got}", kernel.name()));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
