//! Execution models: how transfers share the communication medium.
//!
//! The paper assumes a single half-duplex link that fully serializes
//! transfers. The CPU–GPU transfer-modeling literature (van Werkhoven et
//! al., CCGrid'14) shows the interesting design space is exactly this
//! *overlap strategy*: explicit serialized copies, duplex links whose two
//! directions do not contend, `k` parallel copy streams, and implicit
//! fine-grained overlap through device-mapped memory. This module lifts
//! that choice out of the executors into a first-class value:
//!
//! * [`ExecutionModel::Explicit`] — the paper's model and the pinned
//!   baseline: one channel, transfers strictly serialized.
//! * [`ExecutionModel::Duplex`] — two directed channels; consecutive
//!   transfers alternate directions round-robin (double-buffered upload /
//!   download pipelining), so a transfer only contends with the
//!   one-before-last.
//! * [`ExecutionModel::Streams`] — `k >= 1` identical channels with
//!   earliest-free assignment (ties to the lowest channel index);
//!   `Streams { k: 1 }` is exactly `Explicit`.
//! * [`ExecutionModel::Implicit`] — transfer and computation of the same
//!   task fuse into one phase occupying link *and* CPU, with a configurable
//!   [`OverlapEfficiency`]: the fused phase lasts
//!   `comm + comp - eff * min(comm, comp)`.
//!
//! All models keep the decisions *issued in order*: transfer `i + 1` never
//! starts before transfer `i` (the runtime discovers tasks one decision at
//! a time). Memory semantics are unchanged — a task holds its memory from
//! the start of its (fused or plain) transfer to the end of its
//! computation.
//!
//! The efficiency is stored in integer parts-per-million so the model (and
//! therefore [`Instance`](crate::instance::Instance), which may carry one)
//! stays `Eq` and hashable, and so fused durations are exact integer-tick
//! arithmetic rather than float rounding.

use crate::error::{CoreError, Result};
use crate::time::Time;
use serde::{Deserialize, Error as SerdeError, Serialize, Sink, Value};
use std::fmt;

/// Fraction of the overlappable window actually overlapped by the
/// [`ExecutionModel::Implicit`] model, stored in parts-per-million
/// (`0..=1_000_000` ⇔ `0.0..=1.0`).
///
/// ```
/// use dts_core::exec::OverlapEfficiency;
/// use dts_core::time::Time;
///
/// let eff = OverlapEfficiency::from_f64(0.75).unwrap();
/// assert_eq!(eff.ppm(), 750_000);
/// assert_eq!(eff.scale(Time::from_ticks(1000)), Time::from_ticks(750));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OverlapEfficiency(u32);

impl Serialize for OverlapEfficiency {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.u64(u64::from(self.0));
    }
}

impl Deserialize for OverlapEfficiency {
    // Hand-written so deserialization funnels through the same ppm bound
    // check as every other constructor (the vendored derive has no
    // `try_from` support).
    fn from_value(value: &Value) -> std::result::Result<Self, SerdeError> {
        let ppm = u32::from_value(value)?;
        OverlapEfficiency::from_ppm(ppm).map_err(SerdeError::custom)
    }
}

impl OverlapEfficiency {
    /// Parts-per-million scale: `1_000_000` is an efficiency of `1.0`.
    pub const SCALE: u32 = 1_000_000;
    /// No overlap at all (`0.0`).
    pub const NONE: OverlapEfficiency = OverlapEfficiency(0);
    /// Perfect overlap (`1.0`): the fused phase lasts `max(comm, comp)`.
    pub const FULL: OverlapEfficiency = OverlapEfficiency(Self::SCALE);

    /// Builds an efficiency from parts-per-million; errors above
    /// [`Self::SCALE`].
    pub fn from_ppm(ppm: u32) -> Result<Self> {
        if ppm > Self::SCALE {
            return Err(CoreError::InvalidExecutionModel(format!(
                "overlap efficiency {ppm} ppm exceeds {} (1.0)",
                Self::SCALE
            )));
        }
        Ok(OverlapEfficiency(ppm))
    }

    /// Builds an efficiency from a float in `0.0..=1.0`; NaN, infinities
    /// and out-of-range values are rejected (pre-formatted into the error
    /// so [`CoreError`] stays `Eq`).
    pub fn from_f64(eff: f64) -> Result<Self> {
        if !eff.is_finite() || !(0.0..=1.0).contains(&eff) {
            return Err(CoreError::InvalidExecutionModel(format!(
                "overlap efficiency {eff} must be a finite number in 0..=1"
            )));
        }
        // eff ∈ [0, 1] ⇒ the product is in [0, SCALE]; rounding keeps
        // `from_f64(x).as_f64()` close to `x` for human-entered values.
        Ok(OverlapEfficiency(
            (eff * f64::from(Self::SCALE)).round() as u32
        ))
    }

    /// The raw parts-per-million value.
    #[inline]
    pub fn ppm(self) -> u32 {
        self.0
    }

    /// The efficiency as a float in `0.0..=1.0`.
    #[inline]
    pub fn as_f64(self) -> f64 {
        f64::from(self.0) / f64::from(Self::SCALE)
    }

    /// `floor(eff * t)` in exact integer-tick arithmetic. The result never
    /// exceeds `t`, so `comm + comp - eff.scale(min)` cannot underflow.
    #[inline]
    pub fn scale(self, t: Time) -> Time {
        // u128 intermediate: ticks up to u64::MAX times up to 10^6 ppm.
        let scaled = u128::from(t.ticks()) * u128::from(self.0) / u128::from(Self::SCALE);
        // scaled <= ticks <= u64::MAX because self.0 <= SCALE.
        Time::from_ticks(scaled as u64)
    }
}

impl TryFrom<u32> for OverlapEfficiency {
    type Error = CoreError;

    fn try_from(ppm: u32) -> Result<Self> {
        OverlapEfficiency::from_ppm(ppm)
    }
}

impl From<OverlapEfficiency> for u32 {
    fn from(eff: OverlapEfficiency) -> u32 {
        eff.0
    }
}

impl fmt::Display for OverlapEfficiency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Shortest decimal that round-trips through `from_f64`: ppm is at
        // most 6 fractional digits.
        write!(f, "{}", self.as_f64())
    }
}

/// How transfers share the communication medium (and, for
/// [`Implicit`](ExecutionModel::Implicit), the CPU). See the module docs
/// for the semantics of each strategy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize)]
pub enum ExecutionModel {
    /// Single half-duplex channel; transfers strictly serialized. The
    /// paper's model and the pinned baseline of the equivalence suites.
    #[default]
    Explicit,
    /// Two directed channels used round-robin by consecutive transfers
    /// (upload and download directions do not contend).
    Duplex,
    /// `k >= 1` identical channels; each transfer takes the earliest-free
    /// channel, ties broken toward the lowest index. `k = 1` is exactly
    /// [`Explicit`](ExecutionModel::Explicit).
    Streams {
        /// Number of parallel transfer channels (must be at least 1).
        k: usize,
    },
    /// Transfer and computation of a task fuse into a single phase holding
    /// link and CPU for `comm + comp - efficiency * min(comm, comp)`.
    Implicit {
        /// Fraction of the overlappable window actually overlapped.
        efficiency: OverlapEfficiency,
    },
}

// Hand-written in the shape the `Serialize` derive writes: a unit variant
// is its name, a data variant a one-key object holding its fields. As in
// serde, `Streams { k: 0 }` decodes; `validate` refuses it.
impl Deserialize for ExecutionModel {
    fn from_value(value: &Value) -> std::result::Result<Self, SerdeError> {
        match value.variant()? {
            ("Explicit", None) => Ok(ExecutionModel::Explicit),
            ("Duplex", None) => Ok(ExecutionModel::Duplex),
            ("Streams", Some(body)) => Ok(ExecutionModel::Streams {
                k: usize::from_value(body.field("k")?)?,
            }),
            ("Implicit", Some(body)) => Ok(ExecutionModel::Implicit {
                efficiency: OverlapEfficiency::from_value(body.field("efficiency")?)?,
            }),
            (name, _) => Err(SerdeError::unknown_variant(name, "ExecutionModel")),
        }
    }
}

impl ExecutionModel {
    /// The implicit model at full overlap efficiency, the CLI default for
    /// `--model implicit`.
    pub const IMPLICIT_FULL: ExecutionModel = ExecutionModel::Implicit {
        efficiency: OverlapEfficiency::FULL,
    };

    /// Parses a model spec as accepted by the CLI `--model` flag:
    /// `explicit`, `duplex`, `streams:<k>` or `implicit[:<efficiency>]`
    /// (case-insensitive). Never panics; malformed specs, `streams:0` and
    /// non-finite or out-of-range efficiencies are reported as
    /// [`CoreError::InvalidExecutionModel`].
    ///
    /// ```
    /// use dts_core::exec::ExecutionModel;
    ///
    /// assert_eq!(ExecutionModel::parse("streams:4").unwrap(), ExecutionModel::Streams { k: 4 });
    /// assert!(ExecutionModel::parse("streams:0").is_err());
    /// assert!(ExecutionModel::parse("implicit:NaN").is_err());
    /// ```
    pub fn parse(spec: &str) -> Result<Self> {
        let lower = spec.trim().to_ascii_lowercase();
        let (head, arg) = match lower.split_once(':') {
            Some((head, arg)) => (head, Some(arg)),
            None => (lower.as_str(), None),
        };
        let invalid = |msg: String| CoreError::InvalidExecutionModel(msg);
        match (head, arg) {
            ("explicit", None) => Ok(ExecutionModel::Explicit),
            ("duplex", None) => Ok(ExecutionModel::Duplex),
            ("explicit" | "duplex", Some(_)) => Err(invalid(format!(
                "model '{head}' takes no parameter (got '{spec}')"
            ))),
            ("streams", Some(arg)) => {
                let k: usize = arg.parse().map_err(|_| {
                    invalid(format!("stream count '{arg}' is not a positive integer"))
                })?;
                if k == 0 {
                    return Err(invalid(
                        "stream count must be at least 1 (streams:1 is the explicit model)".into(),
                    ));
                }
                Ok(ExecutionModel::Streams { k })
            }
            ("streams", None) => Err(invalid(
                "model 'streams' needs a channel count, e.g. streams:4".into(),
            )),
            ("implicit", None) => Ok(ExecutionModel::IMPLICIT_FULL),
            ("implicit", Some(arg)) => {
                let eff: f64 = arg.parse().map_err(|_| {
                    invalid(format!("overlap efficiency '{arg}' is not a number"))
                })?;
                Ok(ExecutionModel::Implicit {
                    efficiency: OverlapEfficiency::from_f64(eff)?,
                })
            }
            _ => Err(invalid(format!(
                "unknown execution model '{spec}' (expected explicit, duplex, streams:<k> or implicit[:<eff>])"
            ))),
        }
    }

    /// Validates a model that bypassed [`ExecutionModel::parse`] (e.g. one
    /// deserialized from JSON or constructed directly): `Streams` needs at
    /// least one channel.
    pub fn validate(&self) -> Result<()> {
        match self {
            ExecutionModel::Streams { k: 0 } => Err(CoreError::InvalidExecutionModel(
                "stream count must be at least 1".into(),
            )),
            _ => Ok(()),
        }
    }

    /// Number of parallel transfer channels the model provides.
    pub fn channel_count(&self) -> usize {
        match self {
            ExecutionModel::Explicit | ExecutionModel::Implicit { .. } => 1,
            ExecutionModel::Duplex => 2,
            ExecutionModel::Streams { k } => (*k).max(1),
        }
    }

    /// `true` for the paper's single serialized link.
    pub fn is_explicit(&self) -> bool {
        matches!(self, ExecutionModel::Explicit)
    }

    /// Duration of the fused transfer+computation phase of a task under the
    /// [`Implicit`](ExecutionModel::Implicit) model:
    /// `comm + comp - efficiency * min(comm, comp)`. For every other model
    /// this is simply `comm + comp` (the phases do not fuse), so under
    /// every model a computation may start `fused_duration - comp` after
    /// its transfer starts.
    pub fn fused_duration(&self, comm: Time, comp: Time) -> Time {
        let total = comm + comp;
        match self {
            ExecutionModel::Implicit { efficiency } => {
                // scale() never exceeds its argument, so the subtraction
                // cannot underflow and the fused phase is at least
                // max(comm, comp).
                total - efficiency.scale(comm.min(comp))
            }
            _ => total,
        }
    }

    /// How long a task holds its link channel: its transfer, or under the
    /// [`Implicit`](ExecutionModel::Implicit) model its whole fused phase.
    pub fn link_hold(&self, comm: Time, comp: Time) -> Time {
        match self {
            ExecutionModel::Implicit { .. } => self.fused_duration(comm, comp),
            _ => comm,
        }
    }
}

impl fmt::Display for ExecutionModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionModel::Explicit => write!(f, "explicit"),
            ExecutionModel::Duplex => write!(f, "duplex"),
            ExecutionModel::Streams { k } => write!(f, "streams:{k}"),
            ExecutionModel::Implicit { efficiency } => write!(f, "implicit:{efficiency}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_every_documented_spec() {
        assert_eq!(
            ExecutionModel::parse("explicit").unwrap(),
            ExecutionModel::Explicit
        );
        assert_eq!(
            ExecutionModel::parse("DUPLEX").unwrap(),
            ExecutionModel::Duplex
        );
        assert_eq!(
            ExecutionModel::parse("streams:7").unwrap(),
            ExecutionModel::Streams { k: 7 }
        );
        assert_eq!(
            ExecutionModel::parse("implicit").unwrap(),
            ExecutionModel::IMPLICIT_FULL
        );
        assert_eq!(
            ExecutionModel::parse(" implicit:0.5 ").unwrap(),
            ExecutionModel::Implicit {
                efficiency: OverlapEfficiency::from_f64(0.5).unwrap()
            }
        );
    }

    #[test]
    fn parse_rejects_malformed_specs_cleanly() {
        for bad in [
            "",
            "bogus",
            "streams",
            "streams:",
            "streams:0",
            "streams:-1",
            "streams:two",
            "implicit:",
            "implicit:NaN",
            "implicit:inf",
            "implicit:-0.5",
            "implicit:1.5",
            "explicit:1",
            "duplex:2",
        ] {
            let err = ExecutionModel::parse(bad).unwrap_err();
            assert!(
                matches!(err, CoreError::InvalidExecutionModel(_)),
                "spec {bad:?} gave {err:?}"
            );
        }
    }

    #[test]
    fn display_round_trips_through_parse() {
        for model in [
            ExecutionModel::Explicit,
            ExecutionModel::Duplex,
            ExecutionModel::Streams { k: 1 },
            ExecutionModel::Streams { k: 16 },
            ExecutionModel::IMPLICIT_FULL,
            ExecutionModel::Implicit {
                efficiency: OverlapEfficiency::from_f64(0.75).unwrap(),
            },
            ExecutionModel::Implicit {
                efficiency: OverlapEfficiency::NONE,
            },
        ] {
            let spec = model.to_string();
            assert_eq!(ExecutionModel::parse(&spec).unwrap(), model, "spec {spec}");
        }
    }

    #[test]
    fn efficiency_bounds_are_enforced_everywhere() {
        assert!(OverlapEfficiency::from_ppm(1_000_000).is_ok());
        assert!(OverlapEfficiency::from_ppm(1_000_001).is_err());
        assert!(OverlapEfficiency::from_f64(f64::NAN).is_err());
        assert!(OverlapEfficiency::from_f64(f64::INFINITY).is_err());
        assert!(OverlapEfficiency::from_f64(-0.001).is_err());
        assert!(OverlapEfficiency::from_f64(1.001).is_err());
        assert_eq!(
            OverlapEfficiency::from_f64(0.0).unwrap(),
            OverlapEfficiency::NONE
        );
        assert_eq!(
            OverlapEfficiency::from_f64(1.0).unwrap(),
            OverlapEfficiency::FULL
        );
        // Serde goes through the same validation.
        assert!(serde_json::from_str::<OverlapEfficiency>("2000000").is_err());
        let eff: OverlapEfficiency = serde_json::from_str("750000").unwrap();
        assert_eq!(eff, OverlapEfficiency::from_f64(0.75).unwrap());
    }

    #[test]
    fn scale_is_exact_integer_arithmetic() {
        let eff = OverlapEfficiency::from_f64(0.75).unwrap();
        assert_eq!(eff.scale(Time::from_ticks(1000)), Time::from_ticks(750));
        assert_eq!(eff.scale(Time::ZERO), Time::ZERO);
        // Never exceeds the argument, even at u64 scale.
        let huge = Time::from_ticks(u64::MAX);
        assert_eq!(OverlapEfficiency::FULL.scale(huge), huge);
        assert!(eff.scale(huge) <= huge);
        assert_eq!(OverlapEfficiency::NONE.scale(huge), Time::ZERO);
    }

    #[test]
    fn fused_duration_interpolates_between_sum_and_max() {
        let comm = Time::units_int(4);
        let comp = Time::units_int(10);
        // eff 0: no overlap at all — the plain sum.
        let none = ExecutionModel::Implicit {
            efficiency: OverlapEfficiency::NONE,
        };
        assert_eq!(none.fused_duration(comm, comp), Time::units_int(14));
        // eff 1: perfect overlap — the max.
        assert_eq!(
            ExecutionModel::IMPLICIT_FULL.fused_duration(comm, comp),
            Time::units_int(10)
        );
        // eff 0.5: halfway.
        let half = ExecutionModel::Implicit {
            efficiency: OverlapEfficiency::from_f64(0.5).unwrap(),
        };
        assert_eq!(half.fused_duration(comm, comp), Time::units_int(12));
        // Non-implicit models never fuse.
        assert_eq!(
            ExecutionModel::Duplex.fused_duration(comm, comp),
            Time::units_int(14)
        );
    }

    #[test]
    fn validate_catches_zero_streams() {
        assert!(ExecutionModel::Streams { k: 0 }.validate().is_err());
        assert!(ExecutionModel::Streams { k: 1 }.validate().is_ok());
        assert!(ExecutionModel::Explicit.validate().is_ok());
    }

    #[test]
    fn channel_counts() {
        assert_eq!(ExecutionModel::Explicit.channel_count(), 1);
        assert_eq!(ExecutionModel::Duplex.channel_count(), 2);
        assert_eq!(ExecutionModel::Streams { k: 5 }.channel_count(), 5);
        assert_eq!(ExecutionModel::IMPLICIT_FULL.channel_count(), 1);
    }

    #[test]
    fn serde_round_trip() {
        for model in [
            ExecutionModel::Explicit,
            ExecutionModel::Duplex,
            ExecutionModel::Streams { k: 3 },
            ExecutionModel::IMPLICIT_FULL,
        ] {
            let json = serde_json::to_string(&model).unwrap();
            let back: ExecutionModel = serde_json::from_str(&json).unwrap();
            assert_eq!(model, back);
        }
    }
}
