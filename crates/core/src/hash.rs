//! Stable content hashing for cache keys.
//!
//! The serving layer caches solved instances keyed by the *content* of the
//! request — trace content, capacity factor, heuristic, execution model — so
//! the key must be identical across processes, platforms and runs.
//! `std::hash` makes no such promise (`DefaultHasher` is explicitly
//! unspecified and `HashMap` keys are randomized per process), so this
//! module pins one: a 128-bit FNV-1a variant computed as two independent
//! 64-bit lanes over the same byte stream. The function is fixed forever —
//! changing it silently invalidates every persisted or replicated cache —
//! and the unit tests pin known digests to enforce that.
//!
//! This is a *content* hash, not a cryptographic one: collision resistance
//! against an adversary is not a goal (a collision costs a wrong cache hit
//! between two requests of the same tenant, and the 128-bit space makes
//! accidental collisions negligible).

use std::fmt;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Offset of the second lane: the FNV offset basis with the bits flipped,
/// so the two lanes never agree on the byte stream.
const LANE2_OFFSET: u64 = !FNV_OFFSET;

/// A 128-bit stable content digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest128(pub u64, pub u64);

impl fmt::Display for Digest128 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.0, self.1)
    }
}

/// Incremental stable hasher producing a [`Digest128`].
///
/// ```
/// use dts_core::hash::StableHasher;
///
/// let mut h = StableHasher::new();
/// h.write(b"trace bytes");
/// h.write_u64(42);
/// let d = h.finish();
/// assert_eq!(d, {
///     let mut h2 = StableHasher::new();
///     h2.write(b"trace bytes");
///     h2.write_u64(42);
///     h2.finish()
/// });
/// ```
#[derive(Debug, Clone)]
pub struct StableHasher {
    lane1: u64,
    lane2: u64,
}

impl StableHasher {
    /// A fresh hasher at the fixed offset basis.
    pub fn new() -> Self {
        StableHasher {
            lane1: FNV_OFFSET,
            lane2: LANE2_OFFSET,
        }
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.lane1 = (self.lane1 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            self.lane2 = (self.lane2 ^ u64::from(b ^ 0xa5)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a `u64` as eight little-endian bytes.
    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// Feeds a length-prefixed string, so `("ab", "c")` and `("a", "bc")`
    /// hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> Digest128 {
        Digest128(self.lane1, self.lane2)
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

/// One-shot digest of a byte slice.
pub fn stable_digest(bytes: &[u8]) -> Digest128 {
    let mut h = StableHasher::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_pinned_forever() {
        // These constants define the hash function: if either moves, every
        // replicated/persisted cache key silently changes. Never "fix" this
        // test by updating the expectations without versioning the keys.
        assert_eq!(stable_digest(b"").to_string(), {
            let mut h = StableHasher::new();
            h.write(b"");
            h.finish().to_string()
        });
        assert_eq!(
            stable_digest(b"").to_string(),
            "cbf29ce484222325340d631b7bdddcda"
        );
        assert_eq!(
            stable_digest(b"dts").to_string(),
            "ca672f18f436aee2a53cdde3e3f242f2"
        );
    }

    #[test]
    fn lanes_disagree_and_order_matters() {
        let a = stable_digest(b"ab");
        assert_ne!(a.0, a.1, "independent lanes must differ");
        assert_ne!(stable_digest(b"ab"), stable_digest(b"ba"));

        let mut split = StableHasher::new();
        split.write_str("ab");
        split.write_str("c");
        let mut joined = StableHasher::new();
        joined.write_str("a");
        joined.write_str("bc");
        assert_ne!(
            split.finish(),
            joined.finish(),
            "length prefixes must separate field boundaries"
        );
    }

    #[test]
    fn u64s_hash_as_their_bytes() {
        let mut a = StableHasher::new();
        a.write_u64(0x0102_0304_0506_0708);
        let mut b = StableHasher::new();
        b.write(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(a.finish(), b.finish());
    }
}
