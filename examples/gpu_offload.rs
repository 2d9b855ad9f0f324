//! CPU→GPU offload scenario (the paper's "future work" extension): the same
//! transfer-ordering problem appears when independent kernels are offloaded
//! to an accelerator through a single copy engine and a limited device
//! memory. This example reuses the CCSD workload generator with the PCIe
//! copy-engine transfer model and compares the heuristic categories at a
//! tight device-memory capacity.
//!
//! Run with `cargo run --release --example gpu_offload`.

use transfer_sched::chem::suite::{generate_partial_suite, SuiteConfig};
use transfer_sched::chem::Kernel;
use transfer_sched::ga::TransferModel;
use transfer_sched::heuristics::{best_in_category, HeuristicCategory};
use transfer_sched::prelude::*;

fn main() {
    // Device-offload flavour of the CCSD workload: transfers go through one
    // PCIe 3.0 x16 copy engine (10 µs launch latency, 12 GB/s) instead of
    // the InfiniBand fabric.
    let mut config = SuiteConfig::small();
    config.transfer = TransferModel {
        latency: 10.0e-6,
        bandwidth: 12.0e9,
    };
    let trace = generate_partial_suite(Kernel::Ccsd, &config, 1)
        .into_iter()
        .next()
        .expect("one trace");

    println!(
        "CCSD offload trace: {} kernels, largest kernel input (device mc) = {}",
        trace.len(),
        trace.min_capacity()
    );

    // Sweep the device memory from "just fits the largest kernel" to twice
    // that, as a GPU with more or less head-room.
    println!(
        "\n{:<10} {:>8} {:>10} {:>10} {:>14}",
        "device mem", "OS", "static", "dynamic", "static+dynamic"
    );
    for factor in [1.0, 1.25, 1.5, 2.0] {
        let instance = trace.to_instance_scaled(factor).expect("feasible capacity");
        let omim = johnson_makespan(&instance);
        let ratios: Vec<f64> = HeuristicCategory::ALL
            .iter()
            .map(|&cat| {
                best_in_category(&instance, cat)
                    .expect("heuristics run")
                    .ratio(omim)
            })
            .collect();
        println!(
            "{:<10} {:>8.3} {:>10.3} {:>10.3} {:>14.3}",
            format!("{factor:.2} x mc"),
            ratios[0],
            ratios[1],
            ratios[2],
            ratios[3]
        );
    }
    println!(
        "\nThe ordering problem and its heuristics are unchanged: only the \
         transfer-cost model (PCIe copy engine) and the memory capacity \
         (device memory) differ, which is exactly the adaptability argument \
         of the paper's Section 5."
    );
}
