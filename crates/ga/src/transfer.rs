//! Transfer-cost model.
//!
//! The paper uses a deliberately simple model: every transfer between a
//! process's local memory and the Global-Arrays memory takes the same route,
//! so its duration only depends on the message size. The model is
//! `latency + bytes / bandwidth`.

use serde::Serialize;

/// Linear (latency + bandwidth) transfer-cost model with a single route for
/// every transfer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TransferModel {
    /// Per-message latency in seconds.
    pub latency: f64,
    /// Link bandwidth in bytes/s.
    pub bandwidth: f64,
}

impl Default for TransferModel {
    /// Approximation of the Cascade FDR InfiniBand fabric as seen by one
    /// process: 2 µs latency, 1.5 GB/s effective per-process bandwidth.
    fn default() -> Self {
        TransferModel {
            latency: 2.0e-6,
            bandwidth: 1.5e9,
        }
    }
}

impl TransferModel {
    /// Transfer time in seconds for a message of `bytes` bytes.
    pub fn seconds(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }

    /// Transfer time in integer microseconds (trace resolution), at least 1.
    pub fn micros(&self, bytes: u64) -> u64 {
        (self.seconds(bytes) * 1e6).round().max(1.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_is_affine_in_message_size() {
        let m = TransferModel::default();
        let t1 = m.seconds(1_500_000);
        let t2 = m.seconds(3_000_000);
        // Doubling the payload roughly doubles the bandwidth term.
        assert!((t2 - t1 - 1e-3).abs() < 1e-9);
        // 176 KiB (the largest HF task of the paper) ≈ 122 µs.
        let hf = m.micros(176 * 1024);
        assert!((100..150).contains(&hf), "{hf}");
    }

    #[test]
    fn micros_is_at_least_one() {
        let m = TransferModel::default();
        assert!(m.micros(0) >= 1);
    }
}
