//! Calibrated performance models for transfer and computation times.
//!
//! The paper treats every task's communication and computation duration as
//! a fixed analytic input. Its own argument, though, is that *better
//! performance models change scheduling decisions* — and the related work
//! (StarPU's history/regression models, the Cray XE piecewise-linear
//! communication fits) builds those models from measurements. This module
//! is that layer, one [`CostModelSpec`] with three cases:
//!
//! * `Analytic` — the paper's numbers verbatim: the task's own
//!   `comm_time` / `comp_time` fields. This is the **normalized default**:
//!   an instance or trace carrying an explicit `Analytic` spec serializes
//!   exactly like one carrying none, so every pre-existing golden file,
//!   digest and `Eq` comparison is untouched by this layer's existence.
//! * `History` — StarPU-style tables of observed mean durations by
//!   power-of-two size bucket ([`HistoryTable`]).
//! * `Regression` — a least-squares `t = α + β·bytes` line ([`LinearFit`]),
//!   fitted and evaluated in pure integer arithmetic (the slope is stored
//!   in picoseconds per byte) so predictions are bit-identical across
//!   platforms and libm versions.
//!
//! Problem DT has one transfer link and one processing unit, so a fitted
//! spec holds exactly one fit for transfers and one for computations;
//! both read only the task's memory footprint (`bytes → time`).
//!
//! Model files are versioned JSON read by the same strict reader as the
//! dts-trace format ([`crate::strict`]): unknown or repeated keys,
//! unknown versions, float/negative coefficients, empty history tables
//! and any section other than a single `h2d` transfer entry and a single
//! `cpu` compute entry are typed [`CoreError::InvalidCostModel`] errors
//! on import, and export → import → export is byte-identical.
//!
//! Times are **materialized once per instance**, at model-application
//! time ([`crate::instance::Instance::with_cost_model`]): the model
//! rewrites each task's `comm_time` / `comp_time`, and every simulator,
//! heuristic and candidate-index query downstream keeps reading plain
//! task fields. The O(log n) decision paths never query a model.

use crate::error::{CoreError, Result};
use crate::strict::Fields;
use crate::task::Task;
use crate::time::Time;
use serde::{Deserialize, Error as SerdeError, Serialize, Sink, Value};
use std::fmt;
use std::path::Path;

/// `format` field of a cost-model file.
pub const FORMAT_NAME: &str = "dts-cost-model";

/// Version this build writes and the only version it reads.
pub const FORMAT_VERSION: u64 = 1;

/// Scale of regression slopes: β is stored in picoseconds per byte, so
/// `β·bytes / PS_PER_MICRO` is microseconds — integer all the way.
pub const PS_PER_MICRO: u64 = 1_000_000;

/// Relative-error scale of [`FitReport`]: basis points (1/100 of a %).
pub const REL_ERR_SCALE_BP: u64 = 10_000;

/// R² scale of [`FitReport`]: parts per million.
pub const R2_SCALE_PPM: u64 = 1_000_000;

fn invalid(msg: impl Into<String>) -> CoreError {
    CoreError::InvalidCostModel(msg.into())
}

/// One least-squares line `t_us = alpha_us + beta·bytes`, with the slope
/// in picoseconds per byte so evaluation is exact integer arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinearFit {
    /// Intercept, microseconds.
    pub alpha_us: u64,
    /// Slope, picoseconds per byte.
    pub beta_ps_per_byte: u64,
    /// Number of observations the fit was computed from.
    pub samples: u64,
}

impl LinearFit {
    /// Evaluates the line at `bytes`, rounding the slope term half up and
    /// saturating at `u64::MAX` microseconds.
    pub fn predict_us(&self, bytes: u64) -> u64 {
        let scaled = u128::from(bytes) * u128::from(self.beta_ps_per_byte);
        let beta_us = (scaled + u128::from(PS_PER_MICRO / 2)) / u128::from(PS_PER_MICRO);
        u128::from(self.alpha_us)
            .saturating_add(beta_us)
            .min(u128::from(u64::MAX)) as u64
    }
}

/// Fits `t_us = α + β·bytes` to observations by integer least squares.
///
/// All sums and the normal-equation solve run in `i128`/`u128`; negative
/// fitted slopes or intercepts (possible on adversarial data) clamp to
/// zero, so the returned coefficients always pass model-file validation.
/// Returns [`CoreError::InvalidCostModel`] for an empty observation list
/// or sums beyond 128-bit range.
pub fn fit_linear(samples: &[(u64, u64)]) -> Result<LinearFit> {
    if samples.is_empty() {
        return Err(invalid("cannot fit a regression to zero observations"));
    }
    let n = samples.len() as i128;
    let overflow = || invalid("calibration sums exceed 128-bit range");
    let mut sx: i128 = 0;
    let mut sy: i128 = 0;
    let mut sxx: i128 = 0;
    let mut sxy: i128 = 0;
    for &(bytes, micros) in samples {
        let x = bytes as i128;
        let y = micros as i128;
        sx = sx.checked_add(x).ok_or_else(overflow)?;
        sy = sy.checked_add(y).ok_or_else(overflow)?;
        sxx = x
            .checked_mul(x)
            .and_then(|xx| sxx.checked_add(xx))
            .ok_or_else(overflow)?;
        sxy = x
            .checked_mul(y)
            .and_then(|xy| sxy.checked_add(xy))
            .ok_or_else(overflow)?;
    }
    let den = n
        .checked_mul(sxx)
        .and_then(|nsxx| sx.checked_mul(sx).map(|sx2| nsxx - sx2))
        .ok_or_else(overflow)?;
    let round_div = |num: i128, den: i128| -> i128 {
        // Round half away from zero; callers clamp negatives to 0 anyway.
        if num >= 0 {
            (num + den / 2) / den
        } else {
            (num - den / 2) / den
        }
    };
    let beta_ps_per_byte = if den == 0 {
        // Every observation shares one size: the line degenerates to the
        // mean duration.
        0
    } else {
        let num = n
            .checked_mul(sxy)
            .and_then(|nsxy| sx.checked_mul(sy).map(|sxsy| nsxy - sxsy))
            .and_then(|slope_num| slope_num.checked_mul(PS_PER_MICRO as i128))
            .ok_or_else(overflow)?;
        round_div(num, den).max(0)
    };
    // α = mean(y) − β·mean(x), at ps scale to keep the division exact-ish.
    let alpha_num = sy
        .checked_mul(PS_PER_MICRO as i128)
        .and_then(|sy_ps| beta_ps_per_byte.checked_mul(sx).map(|bx| sy_ps - bx))
        .ok_or_else(overflow)?;
    let alpha_us = round_div(alpha_num, n * PS_PER_MICRO as i128).max(0);
    Ok(LinearFit {
        alpha_us: alpha_us.min(u64::MAX as i128) as u64,
        beta_ps_per_byte: beta_ps_per_byte.min(u64::MAX as i128) as u64,
        samples: samples.len() as u64,
    })
}

/// The power-of-two size bucket of a byte count: `floor(log2(bytes))`,
/// with zero-byte transfers in bucket 0.
pub fn size_bucket(bytes: u64) -> u32 {
    if bytes == 0 {
        0
    } else {
        63 - bytes.leading_zeros()
    }
}

/// One observed-duration bucket of a history table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HistoryBucket {
    /// Power-of-two size bucket, `floor(log2(bytes))`, 0–63.
    pub bucket: u32,
    /// Mean observed duration of the bucket, microseconds.
    pub mean_us: u64,
    /// Number of observations behind the mean (≥ 1).
    pub samples: u64,
}

/// A history table: mean observed durations by power-of-two size bucket,
/// strictly ascending and non-empty by construction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HistoryTable {
    buckets: Vec<HistoryBucket>,
}

impl HistoryTable {
    /// Builds a table, enforcing the model-file invariants: at least one
    /// bucket, buckets strictly ascending, every bucket ≤ 63 with at
    /// least one sample.
    pub fn new(buckets: Vec<HistoryBucket>) -> Result<Self> {
        if buckets.is_empty() {
            return Err(invalid("history tables must hold at least one bucket"));
        }
        for pair in buckets.windows(2) {
            if pair[1].bucket <= pair[0].bucket {
                return Err(invalid(format!(
                    "history buckets must be strictly ascending, got {} after {}",
                    pair[1].bucket, pair[0].bucket
                )));
            }
        }
        for b in &buckets {
            if b.bucket > 63 {
                return Err(invalid(format!(
                    "history bucket {} is out of range (log2 of a u64 is at most 63)",
                    b.bucket
                )));
            }
            if b.samples == 0 {
                return Err(invalid(format!(
                    "history bucket {} carries zero samples",
                    b.bucket
                )));
            }
        }
        Ok(HistoryTable { buckets })
    }

    /// The buckets, strictly ascending.
    pub fn buckets(&self) -> &[HistoryBucket] {
        &self.buckets
    }

    /// Predicts the duration of a `bytes`-sized item: the mean of its
    /// exact size bucket, or of the nearest recorded bucket (ties toward
    /// the smaller one) when the exact bucket was never observed.
    pub fn predict_us(&self, bytes: u64) -> u64 {
        let target = size_bucket(bytes);
        let mut best = &self.buckets[0];
        for b in &self.buckets {
            let dist = b.bucket.abs_diff(target);
            if dist < best.bucket.abs_diff(target) {
                best = b;
            }
        }
        best.mean_us
    }
}

/// Fits a history table to observations: observations are grouped by
/// [`size_bucket`] and each bucket records its rounded mean duration.
pub fn fit_history(samples: &[(u64, u64)]) -> Result<HistoryTable> {
    if samples.is_empty() {
        return Err(invalid("cannot fit a history table to zero observations"));
    }
    let mut sums: Vec<(u32, u128, u64)> = Vec::new();
    for &(bytes, micros) in samples {
        let bucket = size_bucket(bytes);
        match sums.binary_search_by_key(&bucket, |&(b, _, _)| b) {
            Ok(i) => {
                sums[i].1 += u128::from(micros);
                sums[i].2 += 1;
            }
            Err(i) => sums.insert(i, (bucket, u128::from(micros), 1)),
        }
    }
    HistoryTable::new(
        sums.into_iter()
            .map(|(bucket, sum, count)| HistoryBucket {
                bucket,
                mean_us: ((sum + u128::from(count) / 2) / u128::from(count))
                    .min(u128::from(u64::MAX)) as u64,
                samples: count,
            })
            .collect(),
    )
}

/// The cost model an instance, trace or solve request carries: the
/// analytic default or a fitted backend with one fit for the transfer
/// link and one for the processing unit. Mirrors
/// [`crate::exec::ExecutionModel`]: `Analytic` is the normalized default
/// that never appears in serialized form.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum CostModelSpec {
    /// The paper's fixed analytic durations: every duration is the task's
    /// own recorded value, so applying it never changes an instance.
    #[default]
    Analytic,
    /// A history-based model.
    History {
        /// Transfer durations by size bucket.
        transfer: HistoryTable,
        /// Computation durations by size bucket.
        compute: HistoryTable,
    },
    /// A regression model.
    Regression {
        /// Transfer duration line.
        transfer: LinearFit,
        /// Computation duration line.
        compute: LinearFit,
    },
}

impl CostModelSpec {
    /// The model-file backend name: `analytic`, `history` or `regression`.
    pub fn backend_name(&self) -> &'static str {
        match self {
            CostModelSpec::Analytic => "analytic",
            CostModelSpec::History { .. } => "history",
            CostModelSpec::Regression { .. } => "regression",
        }
    }

    /// `true` iff the spec is the analytic default. Analytic specs are
    /// normalized away (`Option<CostModelSpec>::None`) wherever a spec is
    /// carried, so legacy serialized forms stay byte- and `Eq`-identical.
    pub fn is_analytic(&self) -> bool {
        matches!(self, CostModelSpec::Analytic)
    }

    /// Predicted duration of the task's input transfer.
    pub fn transfer_time(&self, task: &Task) -> Time {
        Time::from_micros(match self {
            CostModelSpec::Analytic => return task.comm_time,
            CostModelSpec::History { transfer, .. } => transfer.predict_us(task.mem.bytes()),
            CostModelSpec::Regression { transfer, .. } => transfer.predict_us(task.mem.bytes()),
        })
    }

    /// Predicted duration of the task's computation.
    pub fn compute_time(&self, task: &Task) -> Time {
        Time::from_micros(match self {
            CostModelSpec::Analytic => return task.comp_time,
            CostModelSpec::History { compute, .. } => compute.predict_us(task.mem.bytes()),
            CostModelSpec::Regression { compute, .. } => compute.predict_us(task.mem.bytes()),
        })
    }
}

impl fmt::Display for CostModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.backend_name())
    }
}

// ---------------------------------------------------------------------------
// Model-file sections. Each holds exactly one entry: the fit for the one
// transfer link (`h2d`) or for the one processing unit (`cpu`).
// ---------------------------------------------------------------------------

/// One section of a model file and the name of its single entry.
struct Section {
    /// Section key in the file.
    key: &'static str,
    /// Entry field naming what the entry covers.
    name_key: &'static str,
    /// The only accepted name (case-insensitive), as written on export.
    name: &'static str,
    /// What the name denotes, for error messages.
    kind: &'static str,
    /// The path of the section's one entry, for error messages.
    entry: &'static str,
}

const TRANSFER: Section = Section {
    key: "transfer",
    name_key: "link",
    name: "h2d",
    kind: "link class",
    entry: "transfer[0]",
};

const COMPUTE: Section = Section {
    key: "compute",
    name_key: "backend",
    name: "cpu",
    kind: "compute backend",
    entry: "compute[0]",
};

// ---------------------------------------------------------------------------
// Model-file rendering (the export half).
// ---------------------------------------------------------------------------

/// A fitted entry of one model-file section.
enum Entry<'a> {
    History(&'a HistoryTable),
    Regression(&'a LinearFit),
}

/// Writes `section`'s key and its one-entry array.
fn serialize_section<S: Sink>(entry: Entry<'_>, section: &Section, sink: &mut S) {
    sink.key(section.key);
    sink.begin_array(1);
    match entry {
        Entry::History(table) => {
            sink.begin_object(2);
            sink.field(section.name_key, section.name);
            sink.key("buckets");
            sink.begin_array(table.buckets.len());
            for b in &table.buckets {
                sink.begin_object(3);
                sink.field("bucket", &b.bucket);
                sink.field("mean_us", &b.mean_us);
                sink.field("samples", &b.samples);
                sink.end_object();
            }
            sink.end_array();
        }
        Entry::Regression(fit) => {
            sink.begin_object(4);
            sink.field(section.name_key, section.name);
            sink.field("alpha_us", &fit.alpha_us);
            sink.field("beta_ps_per_byte", &fit.beta_ps_per_byte);
            sink.field("samples", &fit.samples);
        }
    }
    sink.end_object();
    sink.end_array();
}

/// Renders a fitted model as its canonical model-file JSON text.
///
/// Returns [`CoreError::InvalidCostModel`] for the analytic spec: it has
/// no file form — absence *is* its serialized form.
pub fn export_model(spec: &CostModelSpec) -> Result<String> {
    if spec.is_analytic() {
        return Err(invalid(
            "the analytic model has no file form; pass `analytic` instead of a path",
        ));
    }
    serde_json::to_string_pretty(spec)
        .map(|s| s + "\n")
        .map_err(|e| CoreError::Serialization(e.to_string()))
}

/// Writes a model file ([`export_model`] to disk).
pub fn export_model_file(spec: &CostModelSpec, path: &Path) -> Result<()> {
    let rendered = export_model(spec)?;
    std::fs::write(path, rendered)
        .map_err(|e| CoreError::Serialization(format!("cannot write {}: {e}", path.display())))
}

// ---------------------------------------------------------------------------
// Model-file parsing (the import half).
// ---------------------------------------------------------------------------

/// The single entry of a model-file section, holding only `allowed` keys:
/// the section must be an array of exactly one object, and that object
/// must name the system's one transfer link or its one processing unit.
fn single_entry<'v>(
    file: &Fields<'v, '_>,
    section: &Section,
    allowed: &[&str],
) -> Result<Fields<'v, 'static>> {
    let key = section.key;
    let entry = match file.array(key)? {
        [entry] => entry,
        [] => return Err(invalid(format!("model {key} section is empty"))),
        more => {
            return Err(invalid(format!(
                "model {key} section must hold exactly one entry (one {} `{}`), got {}",
                section.kind,
                section.name,
                more.len()
            )))
        }
    };
    let at = section.entry;
    let entry = Fields::of(entry, at, at, allowed, CoreError::InvalidCostModel)?;
    let name = entry.str(section.name_key)?;
    if !name.eq_ignore_ascii_case(section.name) {
        return Err(invalid(format!(
            "{at} names unknown {} `{name}` (known: {})",
            section.kind, section.name
        )));
    }
    Ok(entry)
}

fn linear_entry(file: &Fields<'_, '_>, section: &Section) -> Result<LinearFit> {
    let entry = single_entry(
        file,
        section,
        &[section.name_key, "alpha_us", "beta_ps_per_byte", "samples"],
    )?;
    Ok(LinearFit {
        alpha_us: entry.uint("alpha_us")?,
        beta_ps_per_byte: entry.uint("beta_ps_per_byte")?,
        samples: entry.uint("samples")?,
    })
}

/// The keys of a history bucket.
const BUCKET_KEYS: [&str; 3] = ["bucket", "mean_us", "samples"];

fn history_entry(file: &Fields<'_, '_>, section: &Section) -> Result<HistoryTable> {
    let buckets = single_entry(file, section, &[section.name_key, "buckets"])?.array("buckets")?;
    let mut imported = Vec::with_capacity(buckets.len());
    for (i, item) in buckets.iter().enumerate() {
        let at = format!("{}.buckets[{i}]", section.entry);
        let fields = Fields::of(item, &at, &at, &BUCKET_KEYS, CoreError::InvalidCostModel)?;
        let bucket = fields.uint("bucket")?;
        imported.push(HistoryBucket {
            bucket: u32::try_from(bucket)
                .map_err(|_| invalid(format!("{at}.bucket {bucket} is out of range")))?,
            mean_us: fields.uint("mean_us")?,
            samples: fields.uint("samples")?,
        });
    }
    HistoryTable::new(imported)
}

/// Parses a model-file [`Value`] with the full strict validation of
/// [`crate::strict`]: exact format/version envelope, no unknown or
/// repeated keys anywhere, integer-only coefficients, exactly one `h2d`
/// transfer entry and one `cpu` compute entry, non-empty history tables.
/// Every failure is a typed [`CoreError::InvalidCostModel`].
pub fn model_from_value(value: &Value) -> Result<CostModelSpec> {
    let file = Fields::of(
        value,
        "cost-model file",
        "",
        &["format", "version", "backend", "transfer", "compute"],
        CoreError::InvalidCostModel,
    )?;
    let format = file.str("format")?;
    if format != FORMAT_NAME {
        return Err(invalid(format!(
            "not a cost-model file: format is `{format}`, expected `{FORMAT_NAME}`"
        )));
    }
    let version = file.uint("version")?;
    if version != FORMAT_VERSION {
        return Err(invalid(format!(
            "unsupported cost-model version {version}; this build reads version \
             {FORMAT_VERSION} only"
        )));
    }
    match file.str("backend")? {
        "regression" => Ok(CostModelSpec::Regression {
            transfer: linear_entry(&file, &TRANSFER)?,
            compute: linear_entry(&file, &COMPUTE)?,
        }),
        "history" => Ok(CostModelSpec::History {
            transfer: history_entry(&file, &TRANSFER)?,
            compute: history_entry(&file, &COMPUTE)?,
        }),
        other => Err(invalid(format!(
            "unknown cost-model backend `{other}` (known: history, regression)"
        ))),
    }
}

/// Parses model-file JSON text ([`model_from_value`] after JSON parsing;
/// syntax errors are [`CoreError::Serialization`]).
pub fn import_model(json: &str) -> Result<CostModelSpec> {
    let value: Value =
        serde_json::from_str(json).map_err(|e| CoreError::Serialization(e.to_string()))?;
    model_from_value(&value)
}

/// Reads a model file from disk.
pub fn import_model_file(path: &Path) -> Result<CostModelSpec> {
    let json = std::fs::read_to_string(path)
        .map_err(|e| CoreError::InvalidCostModel(format!("cannot load {}: {e}", path.display())))?;
    import_model(&json)
}

// The spec serializes as its model file (or the literal string
// "analytic"), so traces and solve requests can embed it with the exact
// same strict validation as the standalone file.
impl Serialize for CostModelSpec {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        let (transfer, compute) = match self {
            // Analytic is the only spec without a file form.
            CostModelSpec::Analytic => return sink.str("analytic"),
            CostModelSpec::History { transfer, compute } => {
                (Entry::History(transfer), Entry::History(compute))
            }
            CostModelSpec::Regression { transfer, compute } => {
                (Entry::Regression(transfer), Entry::Regression(compute))
            }
        };
        sink.begin_object(5);
        sink.field("format", FORMAT_NAME);
        sink.field("version", &FORMAT_VERSION);
        sink.field("backend", self.backend_name());
        serialize_section(transfer, &TRANSFER, sink);
        serialize_section(compute, &COMPUTE, sink);
        sink.end_object();
    }
}

impl Deserialize for CostModelSpec {
    fn from_value(value: &Value) -> std::result::Result<Self, SerdeError> {
        match value {
            Value::Str(s) if s.eq_ignore_ascii_case("analytic") => Ok(CostModelSpec::Analytic),
            Value::Str(other) => Err(SerdeError::custom(format!(
                "unknown cost-model keyword `{other}` (only `analytic`, or an inline model file)"
            ))),
            other => model_from_value(other).map_err(SerdeError::custom),
        }
    }
}

// ---------------------------------------------------------------------------
// Fit quality.
// ---------------------------------------------------------------------------

/// Fit quality of a model against a set of observations, in integer
/// fixed-point: relative error in basis points, R² in parts per million.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FitReport {
    /// Observations evaluated.
    pub samples: u64,
    /// Observations skipped because the observed duration was zero
    /// (relative error is undefined there).
    pub skipped_zero: u64,
    /// Mean relative error over the evaluated observations, basis points
    /// (100 bp = 1 %).
    pub mean_rel_err_bp: u64,
    /// Coefficient of determination, parts per million (1 000 000 = a
    /// perfect fit). Defined as 0 when every observation is identical but
    /// mispredicted.
    pub r2_ppm: u64,
}

/// Evaluates predictions against observations. `predict` maps a byte
/// count to a predicted duration in microseconds.
pub fn fit_quality(samples: &[(u64, u64)], predict: impl Fn(u64) -> u64) -> FitReport {
    let n = samples.len() as u128;
    if n == 0 {
        return FitReport {
            samples: 0,
            skipped_zero: 0,
            mean_rel_err_bp: 0,
            r2_ppm: 0,
        };
    }
    let sy: u128 = samples.iter().map(|&(_, y)| u128::from(y)).sum();
    let mut err_bp_sum: u128 = 0;
    let mut evaluated: u128 = 0;
    let mut skipped: u64 = 0;
    let mut ss_res: u128 = 0;
    let mut ss_tot: u128 = 0;
    for &(bytes, y) in samples {
        let p = predict(bytes);
        let abs_err = u128::from(p.abs_diff(y));
        ss_res = ss_res.saturating_add(abs_err.saturating_mul(abs_err).saturating_mul(n * n));
        // (n·y − Σy)² keeps the mean exact without leaving integers.
        let dev = (n * u128::from(y)).abs_diff(sy);
        ss_tot = ss_tot.saturating_add(dev.saturating_mul(dev).saturating_mul(n));
        if y == 0 {
            skipped += 1;
        } else {
            err_bp_sum += abs_err * u128::from(REL_ERR_SCALE_BP) / u128::from(y);
            evaluated += 1;
        }
    }
    let mean_rel_err_bp = err_bp_sum
        .checked_div(evaluated)
        .map_or(0, |mean| mean.min(u128::from(u64::MAX)) as u64);
    let r2_ppm = match ss_res
        .saturating_mul(u128::from(R2_SCALE_PPM))
        .checked_div(ss_tot)
    {
        Some(scaled) => u128::from(R2_SCALE_PPM).saturating_sub(scaled) as u64,
        // Constant observations: perfect iff residual-free.
        None if ss_res == 0 => R2_SCALE_PPM,
        None => 0,
    };
    FitReport {
        samples: samples.len() as u64,
        skipped_zero: skipped,
        mean_rel_err_bp,
        r2_ppm,
    }
}

/// The calibration observations an instance yields: per task, the
/// `(bytes, duration_us)` pairs of its transfer and its computation. The
/// durations are the instance's materialized times — under the analytic
/// default these are exactly the simulated per-task durations every
/// execution model charges for link occupancy and compute.
pub fn observations_of(instance: &crate::instance::Instance) -> CalibrationObservations {
    let mut transfer = Vec::with_capacity(instance.len());
    let mut compute = Vec::with_capacity(instance.len());
    for task in instance.tasks() {
        transfer.push((task.mem.bytes(), task.comm_time.ticks()));
        compute.push((task.mem.bytes(), task.comp_time.ticks()));
    }
    CalibrationObservations { transfer, compute }
}

/// The observation sets calibration fits from; see [`observations_of`].
#[derive(Debug, Clone, Default)]
pub struct CalibrationObservations {
    /// `(bytes, observed transfer duration in µs)` per task.
    pub transfer: Vec<(u64, u64)>,
    /// `(bytes, observed computation duration in µs)` per task.
    pub compute: Vec<(u64, u64)>,
}

impl CalibrationObservations {
    /// Appends another instance's observations (multi-trace calibration).
    pub fn extend(&mut self, other: CalibrationObservations) {
        self.transfer.extend(other.transfer);
        self.compute.extend(other.compute);
    }

    /// Fits a regression spec to the observations.
    pub fn fit_regression(&self) -> Result<CostModelSpec> {
        Ok(CostModelSpec::Regression {
            transfer: fit_linear(&self.transfer)?,
            compute: fit_linear(&self.compute)?,
        })
    }

    /// Fits a history spec to the observations.
    pub fn fit_history(&self) -> Result<CostModelSpec> {
        Ok(CostModelSpec::History {
            transfer: fit_history(&self.transfer)?,
            compute: fit_history(&self.compute)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemSize;

    fn task(bytes: u64, comm_us: u64, comp_us: u64) -> Task {
        Task::new(
            Time::from_micros(comm_us),
            Time::from_micros(comp_us),
            MemSize::from_bytes(bytes),
        )
    }

    fn regression_spec() -> CostModelSpec {
        CostModelSpec::Regression {
            transfer: LinearFit {
                alpha_us: 5,
                beta_ps_per_byte: 2 * PS_PER_MICRO,
                samples: 10,
            },
            compute: LinearFit {
                alpha_us: 1,
                beta_ps_per_byte: 0,
                samples: 10,
            },
        }
    }

    fn history_spec() -> CostModelSpec {
        CostModelSpec::History {
            transfer: HistoryTable::new(vec![
                HistoryBucket {
                    bucket: 2,
                    mean_us: 40,
                    samples: 3,
                },
                HistoryBucket {
                    bucket: 5,
                    mean_us: 300,
                    samples: 2,
                },
            ])
            .unwrap(),
            compute: HistoryTable::new(vec![HistoryBucket {
                bucket: 0,
                mean_us: 7,
                samples: 1,
            }])
            .unwrap(),
        }
    }

    #[test]
    fn analytic_is_the_identity() {
        let t = task(100, 30, 20);
        let analytic = CostModelSpec::default();
        assert!(analytic.is_analytic());
        assert_eq!(analytic.transfer_time(&t), Time::from_micros(30));
        assert_eq!(analytic.compute_time(&t), Time::from_micros(20));
    }

    #[test]
    fn regression_predicts_the_line_exactly() {
        let spec = regression_spec();
        // 5 + 2·bytes µs.
        let t = task(100, 0, 0);
        assert_eq!(spec.transfer_time(&t), Time::from_micros(205));
        assert_eq!(spec.compute_time(&t), Time::from_micros(1));
    }

    #[test]
    fn sub_microsecond_slopes_round_half_up() {
        let fit = LinearFit {
            alpha_us: 0,
            beta_ps_per_byte: 1, // 1 ps/byte
            samples: 1,
        };
        assert_eq!(fit.predict_us(499_999), 0);
        assert_eq!(fit.predict_us(500_000), 1);
        assert_eq!(fit.predict_us(1_500_000), 2);
        // Saturation instead of overflow.
        let huge = LinearFit {
            alpha_us: u64::MAX,
            beta_ps_per_byte: u64::MAX,
            samples: 1,
        };
        assert_eq!(huge.predict_us(u64::MAX), u64::MAX);
    }

    #[test]
    fn history_uses_nearest_bucket() {
        let spec = history_spec();
        // bytes 4..7 → bucket 2 exactly.
        assert_eq!(spec.transfer_time(&task(5, 0, 0)), Time::from_micros(40));
        // bucket 3 is unrecorded; nearest is 2.
        assert_eq!(spec.transfer_time(&task(10, 0, 0)), Time::from_micros(40));
        // bucket 4 → nearest is 5.
        assert_eq!(spec.transfer_time(&task(20, 0, 0)), Time::from_micros(300));
        // bucket 6 → nearest is 5.
        assert_eq!(spec.transfer_time(&task(100, 0, 0)), Time::from_micros(300));
        // bucket 3 ties between 2 and 4; ties go to the smaller bucket.
        let tie = HistoryTable::new(vec![
            HistoryBucket {
                bucket: 2,
                mean_us: 11,
                samples: 1,
            },
            HistoryBucket {
                bucket: 4,
                mean_us: 99,
                samples: 1,
            },
        ])
        .unwrap();
        assert_eq!(tie.predict_us(8), 11);
    }

    #[test]
    fn size_buckets_are_log2_floors() {
        assert_eq!(size_bucket(0), 0);
        assert_eq!(size_bucket(1), 0);
        assert_eq!(size_bucket(2), 1);
        assert_eq!(size_bucket(3), 1);
        assert_eq!(size_bucket(1024), 10);
        assert_eq!(size_bucket(u64::MAX), 63);
    }

    #[test]
    fn fit_linear_recovers_an_exact_line() {
        // y = 7 + 3·x, exact integer observations.
        let samples: Vec<(u64, u64)> = (1..=50).map(|x| (x, 7 + 3 * x)).collect();
        let fit = fit_linear(&samples).unwrap();
        assert_eq!(fit.alpha_us, 7);
        assert_eq!(fit.beta_ps_per_byte, 3 * PS_PER_MICRO);
        assert_eq!(fit.samples, 50);
        let report = fit_quality(&samples, |x| fit.predict_us(x));
        assert_eq!(report.mean_rel_err_bp, 0);
        assert_eq!(report.r2_ppm, R2_SCALE_PPM);
    }

    #[test]
    fn fit_linear_handles_degenerate_data() {
        // Constant x: slope 0, intercept the mean.
        let fit = fit_linear(&[(5, 10), (5, 20), (5, 30)]).unwrap();
        assert_eq!(fit.beta_ps_per_byte, 0);
        assert_eq!(fit.alpha_us, 20);
        // Decreasing data clamps the slope at zero rather than going
        // negative (negative coefficients are unrepresentable by design).
        let fit = fit_linear(&[(1, 100), (2, 50), (3, 1)]).unwrap();
        assert_eq!(fit.beta_ps_per_byte, 0);
        // Empty observation lists are a typed error.
        assert!(matches!(
            fit_linear(&[]),
            Err(CoreError::InvalidCostModel(_))
        ));
    }

    #[test]
    fn fit_history_groups_by_bucket_and_averages() {
        let table = fit_history(&[(4, 10), (5, 20), (1024, 100)]).unwrap();
        assert_eq!(table.buckets().len(), 2);
        assert_eq!(table.buckets()[0].bucket, 2);
        assert_eq!(table.buckets()[0].mean_us, 15);
        assert_eq!(table.buckets()[0].samples, 2);
        assert_eq!(table.buckets()[1].bucket, 10);
        assert_eq!(table.buckets()[1].mean_us, 100);
    }

    #[test]
    fn model_files_round_trip_byte_identically() {
        for spec in [regression_spec(), history_spec()] {
            let rendered = export_model(&spec).unwrap();
            let back = import_model(&rendered).unwrap();
            assert_eq!(back, spec);
            assert_eq!(export_model(&back).unwrap(), rendered);
        }
    }

    /// The exact bytes of both sample files, recorded before the layer
    /// lost its link-class and backend axes: the round-trip test above
    /// only compares the exporter with itself, so a drift in the format
    /// would pass it.
    #[test]
    fn model_files_keep_their_exact_bytes() {
        const REGRESSION: &str = r#"{
  "format": "dts-cost-model",
  "version": 1,
  "backend": "regression",
  "transfer": [
    {
      "link": "h2d",
      "alpha_us": 5,
      "beta_ps_per_byte": 2000000,
      "samples": 10
    }
  ],
  "compute": [
    {
      "backend": "cpu",
      "alpha_us": 1,
      "beta_ps_per_byte": 0,
      "samples": 10
    }
  ]
}
"#;
        const HISTORY: &str = r#"{
  "format": "dts-cost-model",
  "version": 1,
  "backend": "history",
  "transfer": [
    {
      "link": "h2d",
      "buckets": [
        {
          "bucket": 2,
          "mean_us": 40,
          "samples": 3
        },
        {
          "bucket": 5,
          "mean_us": 300,
          "samples": 2
        }
      ]
    }
  ],
  "compute": [
    {
      "backend": "cpu",
      "buckets": [
        {
          "bucket": 0,
          "mean_us": 7,
          "samples": 1
        }
      ]
    }
  ]
}
"#;
        assert_eq!(export_model(&regression_spec()).unwrap(), REGRESSION);
        assert_eq!(export_model(&history_spec()).unwrap(), HISTORY);
    }

    #[test]
    fn specs_stream_what_their_trees_render() {
        for spec in [CostModelSpec::Analytic, regression_spec(), history_spec()] {
            let value = spec.to_value();
            assert_eq!(serde_json::to_string(&spec), serde_json::to_string(&value));
            assert_eq!(
                serde_json::to_string_pretty(&spec),
                serde_json::to_string_pretty(&value)
            );
        }
        assert_eq!(
            serde_json::to_string(&CostModelSpec::Analytic).unwrap(),
            r#""analytic""#
        );
    }

    #[test]
    fn analytic_has_no_file_form() {
        assert!(matches!(
            export_model(&CostModelSpec::Analytic),
            Err(CoreError::InvalidCostModel(_))
        ));
    }

    fn reject(json: &str, needle: &str) {
        match import_model(json) {
            Err(CoreError::InvalidCostModel(msg)) => assert!(
                msg.contains(needle),
                "message `{msg}` does not mention `{needle}` for {json}"
            ),
            other => panic!("malformed file accepted or mis-typed: {other:?} for {json}"),
        }
    }

    #[test]
    fn importer_rejects_malformed_files_with_typed_errors() {
        let valid = export_model(&regression_spec()).unwrap();
        // Unknown version.
        reject(
            &valid.replace("\"version\": 1", "\"version\": 99"),
            "version 99",
        );
        // Wrong format name.
        reject(&valid.replace("dts-cost-model", "dts-trace"), "format");
        // Unknown top-level key.
        reject(&valid.replace("\"backend\"", "\"banana\""), "unknown key");
        // Unknown backend.
        reject(
            &valid.replace("\"regression\"", "\"neural\""),
            "unknown cost-model backend",
        );
        // Negative coefficient.
        reject(
            &valid.replace("\"alpha_us\": 5", "\"alpha_us\": -5"),
            "negative",
        );
        // Float coefficient.
        reject(
            &valid.replace("\"alpha_us\": 5", "\"alpha_us\": 5.5"),
            "non-integer",
        );
        // Unknown link class.
        reject(&valid.replace("\"h2d\"", "\"pcie9\""), "unknown link class");
        // JSON syntax errors are Serialization, not InvalidCostModel.
        assert!(matches!(
            import_model("{ nope"),
            Err(CoreError::Serialization(_))
        ));
    }

    #[test]
    fn importer_reads_negative_zero_as_zero() {
        let valid = export_model(&regression_spec()).unwrap();
        let edited = valid.replace("\"alpha_us\": 5", "\"alpha_us\": -0");
        assert_ne!(edited, valid);
        let CostModelSpec::Regression { transfer, .. } = import_model(&edited).unwrap() else {
            panic!("a regression file imports as a regression spec");
        };
        assert_eq!(transfer.alpha_us, 0);
        // Any other negative number keeps its refusal, word for word.
        assert_eq!(
            import_model(&valid.replace("\"alpha_us\": 5", "\"alpha_us\": -1")),
            Err(CoreError::InvalidCostModel(
                "transfer[0].alpha_us is negative (-1)".into()
            ))
        );
    }

    #[test]
    fn importer_rejects_empty_history_tables() {
        let json = r#"{
  "format": "dts-cost-model",
  "version": 1,
  "backend": "history",
  "transfer": [ { "link": "h2d", "buckets": [] } ],
  "compute": [ { "backend": "cpu", "buckets": [ { "bucket": 0, "mean_us": 1, "samples": 1 } ] } ]
}"#;
        reject(json, "at least one bucket");
    }

    #[test]
    fn importer_rejects_empty_sections() {
        let json = r#"{
  "format": "dts-cost-model",
  "version": 1,
  "backend": "regression",
  "transfer": [],
  "compute": [ { "backend": "cpu", "alpha_us": 1, "beta_ps_per_byte": 1, "samples": 1 } ]
}"#;
        reject(json, "transfer section is empty");
    }

    #[test]
    fn importer_requires_the_default_entries() {
        let file = |transfer: &str| {
            format!(
                r#"{{
  "format": "dts-cost-model",
  "version": 1,
  "backend": "regression",
  "transfer": [ {transfer} ],
  "compute": [ {{ "backend": "cpu", "alpha_us": 1, "beta_ps_per_byte": 1, "samples": 1 }} ]
}}"#
            )
        };
        let entry = |link: &str| {
            format!(r#"{{ "link": "{link}", "alpha_us": 1, "beta_ps_per_byte": 1, "samples": 1 }}"#)
        };
        reject(&file(&entry("d2h")), "unknown link class `d2h`");
        // One link means one entry: a `d2h` entry beside `h2d`, or a
        // repeated `h2d`, is rejected rather than silently ignored.
        for pair in [["h2d", "d2h"], ["h2d", "h2d"]] {
            let section = format!("{}, {}", entry(pair[0]), entry(pair[1]));
            reject(&file(&section), "exactly one entry");
        }
        // Names stay case-insensitive.
        assert!(import_model(&file(&entry("H2D"))).is_ok());
    }

    #[test]
    fn spec_serde_round_trips_and_accepts_the_analytic_keyword() {
        let spec = regression_spec();
        let value = spec.to_value();
        assert_eq!(CostModelSpec::from_value(&value).unwrap(), spec);
        assert_eq!(
            CostModelSpec::from_value(&Value::Str("analytic".into())).unwrap(),
            CostModelSpec::Analytic
        );
        assert_eq!(
            CostModelSpec::from_value(&Value::Str("Analytic".into())).unwrap(),
            CostModelSpec::Analytic
        );
        assert!(CostModelSpec::from_value(&Value::Str("bogus".into())).is_err());
    }

    #[test]
    fn fit_quality_reports_skipped_zeroes_and_bounded_r2() {
        let report = fit_quality(&[(1, 0), (2, 100)], |_| 50);
        assert_eq!(report.samples, 2);
        assert_eq!(report.skipped_zero, 1);
        // |50−100|/100 = 50 % = 5000 bp.
        assert_eq!(report.mean_rel_err_bp, 5000);
        assert!(report.r2_ppm <= R2_SCALE_PPM);
        // Constant observations, perfect prediction.
        let perfect = fit_quality(&[(1, 9), (2, 9)], |_| 9);
        assert_eq!(perfect.r2_ppm, R2_SCALE_PPM);
        assert_eq!(perfect.mean_rel_err_bp, 0);
    }
}
