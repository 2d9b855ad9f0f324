//! CCSD (Coupled Cluster Single Double) trace generator.
//!
//! CCSD determines its tile sizes automatically from the input molecule, so
//! unlike HF its tasks are strongly heterogeneous: occupied and virtual
//! index blocks have different extents and the four-index amplitude/integral
//! tiles a task touches range from a few megabytes to more than a gigabyte.
//! Communications and computations are roughly balanced overall (Fig. 8 of
//! the paper), which makes a large communication/computation overlap
//! achievable with a good transfer order.

use crate::trace::{TaskKind, Trace, TraceTask};
use dts_ga::{GaRuntime, Tiled, Topology, TransferModel};
use dts_tensor::{ContractionSpec, CostModel, KernelCost, TileShape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::fmt::Write;

/// Configuration of the CCSD trace generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CcsdConfig {
    /// Number of occupied-index tile blocks.
    pub n_occ_tiles: usize,
    /// Number of virtual-index tile blocks.
    pub n_virt_tiles: usize,
    /// Inclusive range of occupied tile extents.
    pub occ_tile_range: (usize, usize),
    /// Inclusive range of virtual tile extents.
    pub virt_tile_range: (usize, usize),
    /// Inclusive range of the contracted extent of each task (the slice of
    /// the virtual space actually contracted in one work unit).
    pub contraction_k: (usize, usize),
    /// Base RNG seed; tile extents and per-rank streams derive from it.
    pub seed: u64,
}

impl Default for CcsdConfig {
    /// Paper-scale configuration (Uracil-like): with the 150-process Cascade
    /// topology each rank executes ≈ 325 tasks and the largest task holds on
    /// the order of a gigabyte of input tiles.
    fn default() -> Self {
        CcsdConfig {
            n_occ_tiles: 14,
            n_virt_tiles: 30,
            occ_tile_range: (8, 25),
            virt_tile_range: (60, 300),
            contraction_k: (20, 60),
            seed: 20190416,
        }
    }
}

impl CcsdConfig {
    /// A reduced configuration for tests and quick examples.
    pub fn small() -> Self {
        CcsdConfig {
            n_occ_tiles: 6,
            n_virt_tiles: 10,
            ..Default::default()
        }
    }

    /// Number of `(i <= j)` occupied tile pairs.
    pub fn occ_pairs(&self) -> usize {
        self.n_occ_tiles * (self.n_occ_tiles + 1) / 2
    }

    /// Number of `(a <= b)` virtual tile pairs.
    pub fn virt_pairs(&self) -> usize {
        self.n_virt_tiles * (self.n_virt_tiles + 1) / 2
    }

    /// Total number of tasks across all ranks.
    pub fn total_tasks(&self) -> usize {
        self.occ_pairs() * self.virt_pairs()
    }

    /// Draws the heterogeneous tile extents (deterministic for a given
    /// seed): `(occupied extents, virtual extents)`.
    pub fn tile_extents(&self) -> (Vec<usize>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let occ = (0..self.n_occ_tiles)
            .map(|_| rng.gen_range(self.occ_tile_range.0..=self.occ_tile_range.1))
            .collect();
        let virt = (0..self.n_virt_tiles)
            .map(|_| rng.gen_range(self.virt_tile_range.0..=self.virt_tile_range.1))
            .collect();
        (occ, virt)
    }
}

/// Generates the CCSD trace of one process rank.
pub fn generate_ccsd_trace(
    config: &CcsdConfig,
    topology: Topology,
    transfer: TransferModel,
    cost: CostModel,
    rank: usize,
) -> Trace {
    let n_processes = topology.n_processes();
    assert!(rank < n_processes, "rank {rank} out of range");
    let runtime = GaRuntime::new(topology, transfer);
    let (occ, virt) = config.tile_extents();

    // The T2 amplitude tensor, tiled over (i, j, a, b): one four-index tile
    // per (occupied pair, virtual pair) combination.
    let occ_pairs: Vec<(usize, usize)> = pairs(config.n_occ_tiles);
    let virt_pairs: Vec<(usize, usize)> = pairs(config.n_virt_tiles);
    let t2 = PairTiles {
        occ: &occ,
        virt: &virt,
        occ_pairs: &occ_pairs,
        virt_pairs: &virt_pairs,
        shift: 0,
        n_processes,
    };
    // The two-electron integral tensor shares the same tiling for the blocks
    // a task reads; shifting it by one tile gives it a different owner map
    // offset.
    let v2 = PairTiles { shift: 1, ..t2 };

    let mut rng = StdRng::seed_from_u64(config.seed ^ (rank as u64).wrapping_mul(0x517C_C1B7));
    let mut trace = Trace::new("CCSD", rank);
    let mut name = String::new();

    for task_index in 0..config.total_tasks() {
        // Tasks are assigned to ranks with a multiplicative hash rather than
        // plain round-robin: the T2/V2 tiles themselves are distributed
        // round-robin, and using the same mapping for work assignment would
        // make every task owner-local (no transfers at all), which is not
        // what the NWChem TCE does — its work distribution is independent of
        // the data distribution.
        let assigned = (task_index.wrapping_mul(0x9E37_79B1) >> 7) % n_processes;
        if assigned != rank {
            continue;
        }
        let ij = task_index / virt_pairs.len();
        let ab = task_index % virt_pairs.len();
        let (i, j) = occ_pairs[ij];
        let (a, b) = virt_pairs[ab];

        // Fetch the T2 amplitude block and the matching integral block;
        // larger tasks occasionally need a second integral block.
        let get_t2 = runtime.get(rank, &t2, task_index);
        let get_v2 = runtime.get(rank, &v2, task_index);
        let extra = rng.gen_bool(0.3);
        let get_extra = if extra {
            Some(runtime.get(rank, &v2, (task_index * 7 + 11) % v2.n_tiles()))
        } else {
            None
        };

        let mut comm_micros = get_t2.transfer_micros + get_v2.transfer_micros;
        let mut mem_bytes = 0;
        if !get_t2.local {
            mem_bytes += get_t2.bytes;
        }
        if !get_v2.local {
            mem_bytes += get_v2.bytes;
        }
        if let Some(g) = &get_extra {
            comm_micros += g.transfer_micros;
            if !g.local {
                mem_bytes += g.bytes;
            }
        }

        // One work unit contracts the (i j | a b) block over a slice of the
        // virtual space; operands are transposed into matrix layout first.
        let m = occ[i] * occ[j];
        let n = virt[a] * virt[b];
        let k = rng.gen_range(config.contraction_k.0..=config.contraction_k.1);
        let spec = ContractionSpec::new(m, n, k);
        let kernel_cost = KernelCost::contraction(spec).plus(KernelCost::transpose(
            TileShape::rank4(occ[i], occ[j], virt[a], virt[b]),
        ));
        let comp_micros = cost.micros(kernel_cost);
        if mem_bytes == 0 {
            comm_micros = 0;
        }

        name.clear();
        let _ = write!(name, "t2({i},{j},{a},{b})");
        trace.push(TraceTask {
            name: &name,
            kind: TaskKind::FusedTransposeContraction,
            comm_micros,
            comp_micros,
            mem_bytes,
        });
    }

    trace
}

/// A four-index tensor tiled over (occupied pair, virtual pair), as the T2
/// amplitudes and the two-electron integrals are. Tile `index` has the
/// shape of combination `index + shift` (wrapping) in row-major order, and
/// tiles are owned round-robin like a [`GlobalArray`](dts_ga::GlobalArray)'s.
/// Shapes are computed from the index, so generating one rank does not list
/// the shapes of the whole tensor (48 825 tiles at paper scale).
struct PairTiles<'a> {
    occ: &'a [usize],
    virt: &'a [usize],
    occ_pairs: &'a [(usize, usize)],
    virt_pairs: &'a [(usize, usize)],
    shift: usize,
    n_processes: usize,
}

impl PairTiles<'_> {
    fn tile_shape(&self, index: usize) -> TileShape {
        let combination = (index + self.shift) % self.n_tiles();
        let (i, j) = self.occ_pairs[combination / self.virt_pairs.len()];
        let (a, b) = self.virt_pairs[combination % self.virt_pairs.len()];
        TileShape::rank4(self.occ[i], self.occ[j], self.virt[a], self.virt[b])
    }
}

impl Tiled for PairTiles<'_> {
    fn n_tiles(&self) -> usize {
        self.occ_pairs.len() * self.virt_pairs.len()
    }

    fn tile_bytes(&self, index: usize) -> u64 {
        self.tile_shape(index).bytes()
    }

    fn owner_of(&self, index: usize) -> usize {
        assert!(index < self.n_tiles(), "tile index {index} out of range");
        index % self.n_processes
    }
}

fn pairs(n: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(n * (n + 1) / 2);
    for i in 0..n {
        for j in 0..=i {
            out.push((i, j));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dts_core::MemSize;
    use dts_ga::GlobalArray;

    fn small_trace(rank: usize) -> Trace {
        generate_ccsd_trace(
            &CcsdConfig::small(),
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
    fn computed_tiles_match_listed_global_arrays() {
        // The shape lists the generator once built: T2 in row-major pair
        // order, V2 the same list rotated by one tile.
        let config = CcsdConfig::small();
        let (occ, virt) = config.tile_extents();
        let occ_pairs = pairs(config.n_occ_tiles);
        let virt_pairs = pairs(config.n_virt_tiles);
        let mut t2_shapes = Vec::new();
        for &(i, j) in &occ_pairs {
            for &(a, b) in &virt_pairs {
                t2_shapes.push(TileShape::rank4(occ[i], occ[j], virt[a], virt[b]));
            }
        }
        let mut v2_shapes = t2_shapes.clone();
        v2_shapes.rotate_left(1);
        for (shift, shapes) in [(0, t2_shapes), (1, v2_shapes)] {
            let listed = GlobalArray::new("listed", shapes, 7);
            let computed = PairTiles {
                occ: &occ,
                virt: &virt,
                occ_pairs: &occ_pairs,
                virt_pairs: &virt_pairs,
                shift,
                n_processes: 7,
            };
            assert_eq!(computed.n_tiles(), listed.n_tiles());
            for index in 0..listed.n_tiles() {
                assert_eq!(computed.tile_shape(index), listed.tile_shape(index));
                assert_eq!(computed.owner_of(index), listed.owner_of(index));
            }
        }
    }

    #[test]
    fn traces_are_deterministic_and_partition_the_work() {
        assert_eq!(small_trace(1), small_trace(1));
        let total: usize = (0..6).map(|r| small_trace(r).len()).sum();
        assert_eq!(total, CcsdConfig::small().total_tasks());
    }

    #[test]
    fn ccsd_is_roughly_balanced_between_comm_and_comp() {
        let trace = small_trace(0);
        let sum_comm: u64 = trace.iter().map(|t| t.comm_micros).sum();
        let sum_comp: u64 = trace.iter().map(|t| t.comp_micros).sum();
        let ratio = sum_comp as f64 / sum_comm as f64;
        // Fig. 8: communications and computations are almost evenly
        // distributed for CCSD.
        assert!(ratio > 0.4 && ratio < 2.5, "comp/comm ratio {ratio}");
    }

    #[test]
    fn ccsd_tasks_are_heterogeneous() {
        let trace = small_trace(2);
        let mems: Vec<u64> = trace
            .iter()
            .map(|t| t.mem_bytes)
            .filter(|&m| m > 0)
            .collect();
        let min = mems.iter().min().unwrap();
        let max = mems.iter().max().unwrap();
        // Tile heterogeneity must translate into at least an order of
        // magnitude of spread in task memory footprints.
        assert!(max / min.max(&1) >= 10, "spread {} / {}", max, min);
    }

    #[test]
    fn ccsd_minimum_capacity_is_in_the_gigabyte_range_at_paper_scale() {
        // With the paper-scale tile extents the largest task holds hundreds
        // of megabytes to a few gigabytes of input tiles (the paper reports
        // mc = 1.8 GB). The check is on the tile extents, not on a full
        // 150-rank trace, to keep the test fast.
        let config = CcsdConfig::default();
        let (occ, virt) = config.tile_extents();
        let max_occ = *occ.iter().max().unwrap();
        let max_virt = *virt.iter().max().unwrap();
        let largest_tile_bytes =
            (max_occ * max_occ * max_virt * max_virt * std::mem::size_of::<f64>()) as u64;
        // Three such tiles can be fetched by one task.
        let mc_estimate = 3 * largest_tile_bytes;
        assert!(mc_estimate > 500_000_000, "{mc_estimate}");
    }

    #[test]
    fn paper_scale_task_count_is_in_reported_range() {
        let config = CcsdConfig::default();
        let per_rank = config.total_tasks() / Topology::cascade_10_nodes().n_processes();
        assert!((300..=800).contains(&per_rank), "{per_rank}");
    }

    #[test]
    fn trace_converts_to_instances_across_the_sweep() {
        let trace = small_trace(3);
        for factor in [1.0, 1.25, 1.5, 2.0] {
            let inst = trace.to_instance_scaled(factor).unwrap();
            assert_eq!(inst.len(), trace.len());
            assert!(inst.capacity() >= inst.min_capacity());
        }
        assert!(trace.min_capacity() > MemSize::from_bytes(1_000_000));
    }
}
