//! Hartree–Fock (Fock-build) trace generator.
//!
//! HF with the SiOSi input and a tile size of 100 produces nearly
//! homogeneous tasks: each task owns one `(i, j)` shell-block of the Fock
//! matrix, fetches the corresponding density blocks from the Global-Arrays
//! space and performs a screened tensor contraction (plus an occasional
//! operand transpose). The workload is communication-intensive: the data
//! fetched per task is large relative to the surviving (screened) flops, so
//! at most ~20 % of the communication can be hidden behind computation
//! (Fig. 8 of the paper).

use crate::trace::{TaskKind, Trace, TraceTask};
use dts_ga::{GaRuntime, GlobalArray, Topology, TransferModel};
use dts_tensor::{ContractionSpec, CostModel, KernelCost, TileShape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt::Write;

/// Configuration of the HF trace generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HfConfig {
    /// Number of shell-block tiles of the density/Fock matrices.
    pub n_shell_tiles: usize,
    /// Tile size (the paper sets it to 100).
    pub tile_size: usize,
    /// Range of the screened contraction depth `k` (fraction of the tile
    /// that survives integral screening).
    pub screened_k: (usize, usize),
    /// Probability that a task also transposes one operand.
    pub transpose_probability: f64,
    /// Maximum size in bytes of the auxiliary (screening/index) buffer each
    /// task additionally fetches.
    pub aux_buffer_max: u64,
    /// Base RNG seed; the per-rank seed is derived from it.
    pub seed: u64,
}

impl Default for HfConfig {
    /// Paper-scale configuration: with the 150-process Cascade topology each
    /// rank executes ≈ 480 tasks (within the 300–800 range reported by the
    /// paper) and the largest task needs ≈ 176 KiB of memory.
    fn default() -> Self {
        HfConfig {
            n_shell_tiles: 380,
            tile_size: 100,
            screened_k: (4, 8),
            transpose_probability: 0.15,
            aux_buffer_max: 16 * 1024,
            seed: 20190415,
        }
    }
}

impl HfConfig {
    /// A reduced configuration for tests and quick examples (≈ 60 tasks per
    /// rank on a 2-node topology).
    pub fn small() -> Self {
        HfConfig {
            n_shell_tiles: 60,
            ..Default::default()
        }
    }

    /// Total number of `(i, j)` shell-block pairs (tasks across all ranks).
    pub fn total_tasks(&self) -> usize {
        self.n_shell_tiles * (self.n_shell_tiles + 1) / 2
    }
}

/// Generates the HF trace of one process rank.
pub fn generate_hf_trace(
    config: &HfConfig,
    topology: Topology,
    transfer: TransferModel,
    cost: CostModel,
    rank: usize,
) -> Trace {
    let n_processes = topology.n_processes();
    assert!(rank < n_processes, "rank {rank} out of range");
    let runtime = GaRuntime::new(topology, transfer);
    // Density matrix blocks, distributed round-robin over the processes.
    let density = GlobalArray::new(
        "density",
        vec![TileShape::matrix(config.tile_size, config.tile_size); config.n_shell_tiles],
        n_processes,
    );
    let mut rng = StdRng::seed_from_u64(config.seed ^ (rank as u64).wrapping_mul(0x9E37_79B9));
    let mut trace = Trace::new("HF", rank);
    let mut name = String::new();

    for pair_index in 0..config.total_tasks() {
        if pair_index % n_processes != rank {
            continue;
        }
        // Recover (i, j) from the flat pair index.
        let (i, j) = unflatten_pair(pair_index);
        // Fetch the two density blocks this Fock block needs.
        let tile_a = i % config.n_shell_tiles;
        let tile_b = (i * 7 + j * 13 + 3) % config.n_shell_tiles;
        let get_a = runtime.get(rank, &density, tile_a);
        let get_b = runtime.get(rank, &density, tile_b);
        // Small auxiliary buffer (screening data) fetched alongside.
        let aux_bytes = rng.gen_range(0..=config.aux_buffer_max);
        let aux_micros = if aux_bytes == 0 {
            0
        } else {
            transfer.micros(aux_bytes)
        };

        let mut comm_micros = get_a.transfer_micros + get_b.transfer_micros + aux_micros;
        let mut mem_bytes = aux_bytes;
        if !get_a.local {
            mem_bytes += get_a.bytes;
        }
        if !get_b.local {
            mem_bytes += get_b.bytes;
        }

        // Screened contraction over the fetched blocks.
        let k = rng.gen_range(config.screened_k.0..=config.screened_k.1);
        let spec = ContractionSpec::new(config.tile_size, config.tile_size, k);
        let mut kernel_cost = KernelCost::contraction(spec);
        let mut kind = TaskKind::Contraction;
        if rng.gen_bool(config.transpose_probability) {
            // Transpose of the screened operand slice, not the full tile.
            kernel_cost = kernel_cost.plus(KernelCost::transpose(TileShape::matrix(
                config.tile_size,
                k,
            )));
            kind = TaskKind::FusedTransposeContraction;
        }
        let comp_micros = cost.micros(kernel_cost);

        // A fully local task still pays a token communication of its
        // auxiliary buffer (or nothing at all, like task K0/A of the paper's
        // examples).
        if mem_bytes == 0 {
            comm_micros = 0;
        }
        name.clear();
        let _ = write!(name, "fock({i},{j})");
        trace.push(TraceTask {
            name: &name,
            kind,
            comm_micros,
            comp_micros,
            mem_bytes,
        });
    }

    trace
}

/// Inverse of the row-major enumeration of pairs `(i, j)` with `j <= i`.
fn unflatten_pair(index: usize) -> (usize, usize) {
    // i is the largest integer with i (i + 1) / 2 <= index.
    let mut i = ((((8 * index + 1) as f64).sqrt() - 1.0) / 2.0).floor() as usize;
    while (i + 1) * (i + 2) / 2 <= index {
        i += 1;
    }
    while i * (i + 1) / 2 > index {
        i -= 1;
    }
    (i, index - i * (i + 1) / 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dts_core::MemSize;

    fn small_trace(rank: usize) -> Trace {
        generate_hf_trace(
            &HfConfig::small(),
            Topology {
                nodes: 2,
                workers_per_node: 3,
            },
            TransferModel::default(),
            CostModel::default(),
            rank,
        )
    }

    #[test]
    fn pair_unflattening_is_consistent() {
        let mut index = 0;
        for i in 0..30 {
            for j in 0..=i {
                assert_eq!(unflatten_pair(index), (i, j));
                index += 1;
            }
        }
    }

    #[test]
    fn traces_are_deterministic_and_partition_the_work() {
        let a = small_trace(2);
        let b = small_trace(2);
        assert_eq!(a, b);
        let total: usize = (0..6).map(|r| small_trace(r).len()).sum();
        assert_eq!(total, HfConfig::small().total_tasks());
    }

    #[test]
    fn hf_tasks_are_communication_intensive_and_homogeneous() {
        let trace = small_trace(0);
        assert!(!trace.is_empty());
        let sum_comm: u64 = trace.iter().map(|t| t.comm_micros).sum();
        let sum_comp: u64 = trace.iter().map(|t| t.comp_micros).sum();
        let ratio = sum_comp as f64 / sum_comm as f64;
        // Fig. 8: at most ~20 % overlap is possible, i.e. computation is a
        // small fraction of communication.
        assert!(ratio > 0.10 && ratio < 0.45, "comp/comm ratio {ratio}");
        // Homogeneity: the largest remote task is within a small factor of
        // the median.
        let mut comms: Vec<u64> = trace
            .iter()
            .map(|t| t.comm_micros)
            .filter(|&c| c > 0)
            .collect();
        comms.sort_unstable();
        let median = comms[comms.len() / 2];
        assert!(*comms.last().unwrap() <= 2 * median);
    }

    #[test]
    fn hf_minimum_capacity_matches_paper_scale() {
        // The paper reports mc = 176 KB for the HF traces; the generator's
        // largest task (two 100x100 density tiles plus the auxiliary buffer)
        // lands in the same range.
        let trace = small_trace(1);
        let mc = trace.min_capacity();
        assert!(
            mc >= MemSize::from_bytes(160_000) && mc <= MemSize::from_bytes(180_000),
            "mc = {mc}"
        );
    }

    #[test]
    fn paper_scale_task_count_is_in_reported_range() {
        // With the default (paper-scale) configuration and the 150-process
        // topology, each rank executes 300-800 tasks.
        let config = HfConfig::default();
        let per_rank = config.total_tasks() / Topology::cascade_10_nodes().n_processes();
        assert!((300..=800).contains(&per_rank), "{per_rank}");
    }

    #[test]
    fn trace_converts_to_feasible_instances() {
        let trace = small_trace(4);
        for factor in [1.0, 1.5, 2.0] {
            let inst = trace.to_instance_scaled(factor).unwrap();
            assert_eq!(inst.len(), trace.len());
            assert!(inst.capacity() >= inst.min_capacity());
        }
    }
}
