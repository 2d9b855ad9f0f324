//! Shapes of dense tensor tiles.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Shape of a tile: up to four dimensions (HF works with 2-index tiles of
/// the Fock/density matrices, CCSD with 4-index amplitude/integral tiles).
/// Unused trailing dimensions are 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TileShape {
    /// Extent of each of the four dimensions (1 for unused dimensions).
    pub dims: [usize; 4],
}

impl TileShape {
    /// A 2-dimensional (matrix) tile.
    pub fn matrix(rows: usize, cols: usize) -> Self {
        TileShape {
            dims: [rows, cols, 1, 1],
        }
    }

    /// A 4-dimensional tile.
    pub fn rank4(d0: usize, d1: usize, d2: usize, d3: usize) -> Self {
        TileShape {
            dims: [d0, d1, d2, d3],
        }
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// `true` iff the tile holds no element (any dimension is zero).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size in bytes for `f64` elements.
    pub fn bytes(&self) -> u64 {
        self.len() as u64 * std::mem::size_of::<f64>() as u64
    }
}

impl fmt::Display for TileShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}x{}x{}",
            self.dims[0], self.dims[1], self.dims[2], self.dims[3]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_sizes_and_display() {
        let s = TileShape::matrix(3, 5);
        assert_eq!(s.len(), 15);
        assert_eq!(s.bytes(), 120);
        let r4 = TileShape::rank4(2, 3, 4, 5);
        assert_eq!(r4.len(), 120);
        assert_eq!(r4.to_string(), "2x3x4x5");
        assert!(!r4.is_empty());
        assert!(TileShape::matrix(0, 7).is_empty());
    }
}
