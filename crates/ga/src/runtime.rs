//! Global-Arrays runtime: the cost of one-sided `get`s.

use crate::array::Tiled;
use crate::topology::Topology;
use crate::transfer::TransferModel;
use serde::Serialize;

/// Outcome of a `get` of one tile from a global array.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct GetOutcome {
    /// Bytes fetched.
    pub bytes: u64,
    /// Transfer time in microseconds (0 when the tile is already local).
    pub transfer_micros: u64,
    /// `true` when the tile is owned by the requesting process (no transfer
    /// needed).
    pub local: bool,
}

/// The Global-Arrays runtime: a topology and a transfer model. A `get` is
/// a pure function of the runtime, the array and the tile.
#[derive(Debug)]
pub struct GaRuntime {
    topology: Topology,
    model: TransferModel,
}

impl GaRuntime {
    /// Creates a runtime for a topology and transfer model.
    pub fn new(topology: Topology, model: TransferModel) -> Self {
        GaRuntime { topology, model }
    }

    /// Process `rank` fetches tile `tile` of `array`: the bytes moved and
    /// the transfer time, which is zero when `rank` owns the tile.
    pub fn get(&self, rank: usize, array: &impl Tiled, tile: usize) -> GetOutcome {
        assert!(
            rank < self.topology.n_processes(),
            "rank {rank} out of range"
        );
        let bytes = array.tile_bytes(tile);
        let local = array.owner_of(tile) == rank;
        GetOutcome {
            bytes,
            transfer_micros: if local { 0 } else { self.model.micros(bytes) },
            local,
        }
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
        assert_eq!(out.bytes, 80_000);
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
        // The transfer time is the model's, and a repeated get costs the same.
        assert_eq!(out.transfer_micros, TransferModel::default().micros(80_000));
        assert_eq!(rt.get(0, &ga, 1), out);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_rank_panics() {
        runtime().get(9, &array(), 0);
    }
}
