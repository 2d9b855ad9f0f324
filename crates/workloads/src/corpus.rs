//! The scenario corpus and its golden-metric suite.
//!
//! One fixed, seeded scenario per [`WorkloadFamily`] is run through
//! *every* heuristic under *every* execution model, and four metrics of
//! each schedule are compared against a committed golden file
//! (`crates/workloads/golden/corpus.json`):
//!
//! * `makespan_us` — completion time of the last computation,
//! * `cpu_idle_us` — induced CPU idle time (the paper's cost of a bad
//!   transfer order),
//! * `peak_mem_bytes` — peak of the memory profile,
//! * `reordered_tasks` — how many positions of the transfer order differ
//!   from plain submission order (0 for OS by construction), a cheap
//!   fingerprint of the *decisions* a heuristic made.
//!
//! The golden file is a **two-way ratchet**, like the lint baseline: a
//! metric that drifts fails the suite, an entry that disappears fails the
//! suite, and a new scenario/heuristic/model combination that has no
//! golden entry also fails the suite. The only sanctioned way to change
//! it is `dts corpus --update-golden` (or `UPDATE_CORPUS_GOLDEN=1` for
//! the test harness), which rewrites the file from the current build —
//! and puts the diff in front of a reviewer.

use crate::families::{generate_trace, GeneratorConfig, WorkloadFamily};
use dts_core::memory::MemoryProfile;
use dts_core::prelude::*;
use dts_heuristics::{Heuristic, Plan};
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Format version of the golden file.
pub const GOLDEN_VERSION: u64 = 1;

/// The execution models every corpus scenario is run under: the paper's
/// explicit half-duplex link, the full-duplex refinement, a 4-stream
/// channel, and fully-efficient implicit overlap.
pub const CORPUS_MODELS: [ExecutionModel; 4] = [
    ExecutionModel::Explicit,
    ExecutionModel::Duplex,
    ExecutionModel::Streams { k: 4 },
    ExecutionModel::IMPLICIT_FULL,
];

/// One fixed corpus scenario: a seeded generator invocation plus the
/// capacity factor its instances are built with.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Generator configuration (family, size, seed, skew).
    pub config: GeneratorConfig,
    /// Capacity factor over the minimum capacity `mc`, as in the paper's
    /// Figs. 9–13 sweeps.
    pub capacity_factor: f64,
}

impl Scenario {
    /// Key prefix of the scenario in the golden file (`<family>`).
    pub fn name(&self) -> &'static str {
        self.config.family.name()
    }

    /// Builds the scenario's instance (rank 0 of the seeded suite).
    pub fn instance(&self) -> Result<Instance> {
        generate_trace(&self.config, 0)?.to_instance_scaled(self.capacity_factor)
    }
}

/// The fixed scenario list: one per family, sized to exercise the shape
/// the family exists for. Memory pressure runs from essentially none
/// (MD at 24·mc) to a hard cliff (factor 1.0 = capacity exactly the
/// largest task).
pub fn scenarios() -> Vec<Scenario> {
    let scenario = |family: WorkloadFamily, n_tasks, seed, skew, capacity_factor| Scenario {
        config: GeneratorConfig {
            family,
            n_tasks,
            seed,
            skew,
            bandwidth: None,
        },
        capacity_factor,
    };
    vec![
        scenario(WorkloadFamily::MdLike, 1500, 42, None, 24.0),
        scenario(WorkloadFamily::DenseLa, 32, 42, Some(1.2), 1.25),
        scenario(WorkloadFamily::TieHeavy, 400, 42, None, 2.0),
        scenario(WorkloadFamily::MemoryCliff, 256, 42, None, 1.0),
        scenario(WorkloadFamily::TransferBound, 400, 42, None, 1.5),
    ]
}

/// The golden metrics of one (scenario, heuristic, model) cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricRecord {
    /// Completion time of the last computation, µs.
    pub makespan_us: u64,
    /// Induced CPU idle time, µs.
    pub cpu_idle_us: u64,
    /// Peak of the memory profile, bytes.
    pub peak_mem_bytes: u64,
    /// Positions where the transfer order differs from submission order.
    pub reordered_tasks: u64,
}

impl MetricRecord {
    /// Measures a schedule.
    pub fn of(instance: &Instance, schedule: &Schedule) -> MetricRecord {
        let metrics = ScheduleMetrics::of(instance, schedule);
        let peak = MemoryProfile::of_schedule(instance, schedule).peak();
        let mut order: Vec<_> = schedule
            .entries()
            .iter()
            .map(|e| (e.comm_start, e.task))
            .collect();
        order.sort();
        let reordered = order
            .iter()
            .enumerate()
            .filter(|(i, (_, task))| task.0 != *i)
            .count() as u64;
        MetricRecord {
            makespan_us: metrics.makespan.ticks(),
            cpu_idle_us: metrics.comp_idle.ticks(),
            peak_mem_bytes: peak.bytes(),
            reordered_tasks: reordered,
        }
    }
}

/// The full corpus result: `"family/heuristic/model"` → metrics, ordered
/// (BTreeMap) so the rendered golden file is deterministic.
pub type CorpusMetrics = BTreeMap<String, MetricRecord>;

/// Runs every scenario through every heuristic under every model.
pub fn run_corpus() -> Result<CorpusMetrics> {
    run_corpus_with(None)
}

/// [`run_corpus`] with an optional cost model materialized into every
/// scenario instance first. `None` (and an explicit analytic spec) is the
/// golden configuration; a fitted model yields a what-if view of the same
/// suite under re-predicted durations, which the CLI prints without
/// touching the golden ratchet.
pub fn run_corpus_with(cost_model: Option<&CostModelSpec>) -> Result<CorpusMetrics> {
    let mut out = BTreeMap::new();
    for scenario in scenarios() {
        let instance = match cost_model {
            Some(spec) => scenario.instance()?.with_cost_model(spec)?,
            None => scenario.instance()?,
        };
        // One plan per scenario: the models change the timing, not the
        // tasks the orders and indexes are built from.
        let plan = Plan::new(&instance);
        for model in CORPUS_MODELS {
            let modeled = instance.clone().with_model(model)?;
            for heuristic in Heuristic::ALL {
                let schedule = plan.run(&modeled, heuristic)?;
                let key = format!("{}/{}/{}", scenario.name(), heuristic, model);
                out.insert(key, MetricRecord::of(&modeled, &schedule));
            }
        }
    }
    Ok(out)
}

/// Renders corpus metrics as the golden-file JSON (stable key order,
/// one line per entry so diffs are reviewable).
pub fn render_golden(metrics: &CorpusMetrics) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"version\": {GOLDEN_VERSION},");
    out.push_str("  \"entries\": {\n");
    let last = metrics.len().saturating_sub(1);
    for (i, (key, record)) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "    \"{key}\": {{ \"makespan_us\": {}, \"cpu_idle_us\": {}, \"peak_mem_bytes\": {}, \"reordered_tasks\": {} }}",
            record.makespan_us, record.cpu_idle_us, record.peak_mem_bytes, record.reordered_tasks
        );
        out.push_str(if i == last { "\n" } else { ",\n" });
    }
    out.push_str("  }\n}\n");
    out
}

fn invalid(msg: impl Into<String>) -> CoreError {
    CoreError::InvalidTrace(msg.into())
}

fn uint(value: &Value, path: &str) -> Result<u64> {
    match value {
        Value::UInt(n) => Ok(*n),
        other => Err(invalid(format!(
            "golden {path} must be a non-negative integer, got {}",
            other.kind()
        ))),
    }
}

/// Parses a golden file back into corpus metrics (strict: unknown
/// versions and malformed entries are rejected, mirroring the trace
/// importer's discipline).
pub fn parse_golden(json: &str) -> Result<CorpusMetrics> {
    let value: Value =
        serde_json::from_str(json).map_err(|e| CoreError::Serialization(e.to_string()))?;
    let version = uint(
        value.field("version").map_err(|e| invalid(e.to_string()))?,
        "version",
    )?;
    if version != GOLDEN_VERSION {
        return Err(invalid(format!(
            "unsupported golden version {version}; this build reads version {GOLDEN_VERSION} only"
        )));
    }
    let entries = match value.field("entries").map_err(|e| invalid(e.to_string()))? {
        Value::Object(fields) => fields,
        other => {
            return Err(invalid(format!(
                "golden entries must be an object, got {}",
                other.kind()
            )))
        }
    };
    let mut out = BTreeMap::new();
    for (key, entry) in entries {
        let record = MetricRecord {
            makespan_us: uint(
                entry
                    .field("makespan_us")
                    .map_err(|e| invalid(e.to_string()))?,
                key,
            )?,
            cpu_idle_us: uint(
                entry
                    .field("cpu_idle_us")
                    .map_err(|e| invalid(e.to_string()))?,
                key,
            )?,
            peak_mem_bytes: uint(
                entry
                    .field("peak_mem_bytes")
                    .map_err(|e| invalid(e.to_string()))?,
                key,
            )?,
            reordered_tasks: uint(
                entry
                    .field("reordered_tasks")
                    .map_err(|e| invalid(e.to_string()))?,
                key,
            )?,
        };
        if out.insert(key.clone(), record).is_some() {
            return Err(invalid(format!("golden file repeats entry `{key}`")));
        }
    }
    Ok(out)
}

/// The outcome of comparing a fresh corpus run against the golden file.
#[derive(Debug, Default)]
pub struct CorpusReport {
    /// Entries whose metrics changed: `(key, golden, current)`.
    pub drifted: Vec<(String, MetricRecord, MetricRecord)>,
    /// Entries the golden file has but the current build did not produce
    /// (a scenario/heuristic/model silently disappeared).
    pub vanished: Vec<String>,
    /// Entries the current build produced with no golden counterpart (new
    /// coverage that has not been sanctioned yet).
    pub unsanctioned: Vec<String>,
}

impl CorpusReport {
    /// `true` iff the run matches the golden file exactly.
    pub fn is_clean(&self) -> bool {
        self.drifted.is_empty() && self.vanished.is_empty() && self.unsanctioned.is_empty()
    }

    /// Human-readable failure report; empty string when clean. Always
    /// names `--update-golden` as the sanctioned fix, in both ratchet
    /// directions.
    pub fn render(&self) -> String {
        if self.is_clean() {
            return String::new();
        }
        let mut out = String::new();
        for (key, golden, current) in &self.drifted {
            let _ = writeln!(
                out,
                "metric drift at {key}: golden {golden:?}, current {current:?}"
            );
        }
        for key in &self.vanished {
            let _ = writeln!(
                out,
                "golden entry {key} vanished from the corpus run (coverage shrank)"
            );
        }
        for key in &self.unsanctioned {
            let _ = writeln!(
                out,
                "corpus entry {key} has no golden counterpart (coverage grew)"
            );
        }
        out.push_str(
            "if every change above is intended, re-bless the file with \
             `dts corpus --update-golden` and commit the diff\n",
        );
        out
    }
}

/// Compares a corpus run against golden metrics (two-way ratchet).
pub fn compare(current: &CorpusMetrics, golden: &CorpusMetrics) -> CorpusReport {
    let mut report = CorpusReport::default();
    for (key, record) in current {
        match golden.get(key) {
            None => report.unsanctioned.push(key.clone()),
            Some(g) if g != record => report.drifted.push((key.clone(), *g, *record)),
            Some(_) => {}
        }
    }
    for key in golden.keys() {
        if !current.contains_key(key) {
            report.vanished.push(key.clone());
        }
    }
    report
}

/// The committed golden file of this workspace checkout.
pub fn default_golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/corpus.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics() -> CorpusMetrics {
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "md/OS/explicit".to_string(),
            MetricRecord {
                makespan_us: 100,
                cpu_idle_us: 10,
                peak_mem_bytes: 4096,
                reordered_tasks: 0,
            },
        );
        metrics.insert(
            "md/GG/duplex".to_string(),
            MetricRecord {
                makespan_us: 90,
                cpu_idle_us: 5,
                peak_mem_bytes: 8192,
                reordered_tasks: 7,
            },
        );
        metrics
    }

    #[test]
    fn golden_render_parse_round_trips() {
        let metrics = sample_metrics();
        let rendered = render_golden(&metrics);
        assert_eq!(parse_golden(&rendered).unwrap(), metrics);
        // Rendering is deterministic.
        assert_eq!(render_golden(&metrics), rendered);
    }

    #[test]
    fn golden_parser_rejects_malformed_files() {
        assert!(matches!(
            parse_golden("nope"),
            Err(CoreError::Serialization(_))
        ));
        assert!(matches!(
            parse_golden("{\"version\": 99, \"entries\": {}}"),
            Err(CoreError::InvalidTrace(_))
        ));
        assert!(matches!(
            parse_golden("{\"version\": 1, \"entries\": {\"k\": {\"makespan_us\": -1, \"cpu_idle_us\": 0, \"peak_mem_bytes\": 0, \"reordered_tasks\": 0}}}"),
            Err(CoreError::InvalidTrace(_))
        ));
    }

    #[test]
    fn compare_ratchets_both_ways() {
        let golden = sample_metrics();
        let mut current = sample_metrics();
        assert!(compare(&current, &golden).is_clean());

        // Drift.
        current.get_mut("md/OS/explicit").unwrap().makespan_us += 1;
        let report = compare(&current, &golden);
        assert_eq!(report.drifted.len(), 1);
        assert!(report.render().contains("--update-golden"));

        // Vanished coverage fails...
        let mut shrunk = sample_metrics();
        shrunk.remove("md/GG/duplex");
        let report = compare(&shrunk, &golden);
        assert_eq!(report.vanished, vec!["md/GG/duplex".to_string()]);
        assert!(!report.is_clean());

        // ...and so does unsanctioned growth.
        let report = compare(&golden, &shrunk);
        assert_eq!(report.unsanctioned, vec!["md/GG/duplex".to_string()]);
        assert!(!report.is_clean());
    }

    #[test]
    fn scenario_list_covers_every_family_exactly_once() {
        let list = scenarios();
        assert_eq!(list.len(), WorkloadFamily::ALL.len());
        for (scenario, family) in list.iter().zip(WorkloadFamily::ALL) {
            assert_eq!(scenario.config.family, family);
            assert!(scenario.config.validate().is_ok());
            assert!(scenario.capacity_factor >= 1.0);
        }
    }

    #[test]
    fn reordered_tasks_is_zero_for_submission_order() {
        let instance = scenarios()[2].instance().unwrap();
        let schedule = dts_heuristics::run_heuristic(&instance, Heuristic::OS).unwrap();
        assert_eq!(MetricRecord::of(&instance, &schedule).reordered_tasks, 0);
    }
}
