//! Per-process Global-Arrays runtime: one-sided `get` accounting.

use crate::array::Tiled;
use crate::topology::Topology;
use crate::transfer::TransferModel;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Outcome of a `get` of one tile from a global array.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GetOutcome {
    /// Bytes fetched.
    pub bytes: u64,
    /// Transfer time in microseconds (0 when the tile is already local).
    pub transfer_micros: u64,
    /// `true` when the tile is owned by the requesting process (no transfer
    /// needed).
    pub local: bool,
}

/// Aggregate communication statistics of one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CommStats {
    /// Number of remote `get` operations.
    pub remote_gets: u64,
    /// Number of local (free) accesses.
    pub local_gets: u64,
    /// Total bytes moved over the interconnect.
    pub remote_bytes: u64,
    /// Total transfer time in microseconds.
    pub transfer_micros: u64,
}

/// The Global-Arrays runtime: topology + transfer model + per-process
/// statistics. Statistics are behind a mutex so that trace generation can
/// run one thread per group of processes.
#[derive(Debug)]
pub struct GaRuntime {
    topology: Topology,
    model: TransferModel,
    stats: Vec<Mutex<CommStats>>,
}

impl GaRuntime {
    /// Creates a runtime for a topology and transfer model.
    pub fn new(topology: Topology, model: TransferModel) -> Self {
        let stats = (0..topology.n_processes())
            .map(|_| Mutex::new(CommStats::default()))
            .collect();
        GaRuntime {
            topology,
            model,
            stats,
        }
    }

    /// The runtime's topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// The runtime's transfer model.
    pub fn model(&self) -> TransferModel {
        self.model
    }

    /// Process `rank` fetches tile `tile` of `array`. Returns the bytes and
    /// transfer time and updates the per-process statistics.
    pub fn get(&self, rank: usize, array: &impl Tiled, tile: usize) -> GetOutcome {
        assert!(
            rank < self.topology.n_processes(),
            "rank {rank} out of range"
        );
        let owner = array.owner_of(tile);
        let bytes = array.tile_bytes(tile);
        let mut stats = self.stats[rank].lock();
        if owner == rank {
            stats.local_gets += 1;
            return GetOutcome {
                bytes,
                transfer_micros: 0,
                local: true,
            };
        }
        let same_node = self.topology.same_node(rank, owner);
        let micros = self.model.micros(bytes, same_node);
        stats.remote_gets += 1;
        stats.remote_bytes += bytes;
        stats.transfer_micros += micros;
        GetOutcome {
            bytes,
            transfer_micros: micros,
            local: false,
        }
    }

    /// Statistics accumulated by a process so far.
    pub fn stats_of(&self, rank: usize) -> CommStats {
        *self.stats[rank].lock()
    }

    /// Sum of the statistics of every process.
    pub fn total_stats(&self) -> CommStats {
        let mut total = CommStats::default();
        for s in &self.stats {
            let s = s.lock();
            total.remote_gets += s.remote_gets;
            total.local_gets += s.local_gets;
            total.remote_bytes += s.remote_bytes;
            total.transfer_micros += s.transfer_micros;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::GlobalArray;
    use dts_tensor::TileShape;

    fn runtime() -> GaRuntime {
        GaRuntime::new(
            Topology {
                nodes: 2,
                workers_per_node: 2,
            },
            TransferModel::default(),
        )
    }

    fn array() -> GlobalArray {
        GlobalArray::new("a", vec![TileShape::matrix(100, 100); 8], 4)
    }

    #[test]
    fn local_gets_are_free() {
        let rt = runtime();
        let ga = array();
        // Tile 1 is owned by rank 1.
        let out = rt.get(1, &ga, 1);
        assert!(out.local);
        assert_eq!(out.transfer_micros, 0);
        assert_eq!(rt.stats_of(1).local_gets, 1);
        assert_eq!(rt.stats_of(1).remote_gets, 0);
    }

    #[test]
    fn remote_gets_cost_and_accumulate() {
        let rt = runtime();
        let ga = array();
        let out = rt.get(0, &ga, 1); // owner 1, same node as 0
        assert!(!out.local);
        assert_eq!(out.bytes, 80_000);
        assert!(out.transfer_micros > 0);
        // Single-route model: same cost regardless of the node.
        let out2 = rt.get(0, &ga, 2); // owner 2, other node
        assert_eq!(out.transfer_micros, out2.transfer_micros);
        let stats = rt.stats_of(0);
        assert_eq!(stats.remote_gets, 2);
        assert_eq!(stats.remote_bytes, 160_000);
        assert_eq!(
            stats.transfer_micros,
            out.transfer_micros + out2.transfer_micros
        );
    }

    #[test]
    fn total_stats_aggregate_over_processes() {
        let rt = runtime();
        let ga = array();
        rt.get(0, &ga, 1);
        rt.get(1, &ga, 2);
        rt.get(2, &ga, 2); // local for rank 2
        let total = rt.total_stats();
        assert_eq!(total.remote_gets, 2);
        assert_eq!(total.local_gets, 1);
    }

    #[test]
    fn runtime_is_shareable_across_threads() {
        let rt = std::sync::Arc::new(runtime());
        let ga = std::sync::Arc::new(array());
        let mut handles = Vec::new();
        for rank in 0..4 {
            let rt = rt.clone();
            let ga = ga.clone();
            handles.push(std::thread::spawn(move || {
                for tile in 0..ga.n_tiles() {
                    rt.get(rank, &*ga, tile);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total = rt.total_stats();
        assert_eq!(total.remote_gets + total.local_gets, 4 * 8);
        assert_eq!(total.local_gets, 8); // each rank owns 2 of the 8 tiles
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_rank_panics() {
        runtime().get(9, &array(), 0);
    }
}
