//! Flop and byte counts of tensor contractions.
//!
//! Every tensor contraction over tiles can be cast as a matrix
//! multiplication `C[m, n] += Σ_k A[m, k] · B[k, n]` once the free and
//! contracted indices are grouped — this is exactly how NWChem's TCE lowers
//! its contractions. The spec therefore only carries the three combined
//! extents `(m, n, k)`.

use serde::{Deserialize, Serialize};

/// A contraction `C[m, n] += Σ_k A[m, k] · B[k, n]` between two tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ContractionSpec {
    /// Combined extent of the free indices of `A` (rows of the result).
    pub m: usize,
    /// Combined extent of the free indices of `B` (columns of the result).
    pub n: usize,
    /// Combined extent of the contracted indices.
    pub k: usize,
}

impl ContractionSpec {
    /// Creates a spec.
    pub fn new(m: usize, n: usize, k: usize) -> Self {
        ContractionSpec { m, n, k }
    }

    /// Floating-point operations performed (multiply + add).
    pub fn flops(&self) -> u64 {
        2 * self.m as u64 * self.n as u64 * self.k as u64
    }

    /// Bytes of input data read (A and B tiles).
    pub fn input_bytes(&self) -> u64 {
        ((self.m * self.k + self.k * self.n) * std::mem::size_of::<f64>()) as u64
    }

    /// Bytes of output data produced (C tile).
    pub fn output_bytes(&self) -> u64 {
        (self.m * self.n * std::mem::size_of::<f64>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_and_byte_accounting() {
        let spec = ContractionSpec::new(100, 100, 100);
        assert_eq!(spec.flops(), 2_000_000);
        assert_eq!(spec.input_bytes(), 160_000);
        assert_eq!(spec.output_bytes(), 80_000);
    }
}
