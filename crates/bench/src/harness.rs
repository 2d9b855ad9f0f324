//! Shared entry point of every benchmark binary.
//!
//! All fifteen bench targets go through [`run`] (via the
//! [`harness_main!`](crate::harness_main) macro) instead of criterion's
//! bare `criterion_main!`. On top of the statistics engine this adds:
//!
//! * one place that parses the CLI (so `--smoke`, `--baseline`,
//!   `--save-baseline` and typo'd flags behave identically across all
//!   benchmarks),
//! * a machine-readable `BENCH_<name>.json` export under
//!   `<target>/bench-reports/` after every run — the artifact CI uploads,
//! * the nonzero exit code when a `--baseline` comparison regresses.
//!
//! The smoke profile is wired through [`crate::bench_ranks`] and the
//! individual bench files' size tables, so `cargo bench -- --smoke`
//! finishes in CI time while exercising the same code paths.

use criterion::report::reports_root;
use criterion::BenchReport;
use serde::{Serialize, Sink};
use std::path::{Path, PathBuf};

/// Runs a benchmark binary end to end: parse the CLI once, execute the
/// criterion groups, export the machine-readable report, and exit nonzero
/// if the run regressed against the requested baseline.
pub fn run(name: &str, groups: &[fn()]) {
    criterion::init_from_env();
    if criterion::smoke_mode() {
        println!("[{name}] smoke profile: reduced workloads, capped samples");
    }
    for group in groups {
        group();
    }
    let reports = criterion::take_reports();
    match export_report_in(&reports_root(), name, &reports) {
        Ok(path) => println!("[{name}] wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write BENCH_{name}.json: {e}"),
    }
    if !criterion::final_summary() {
        std::process::exit(1);
    }
}

/// Renders the run document and writes it to `dir/BENCH_<name>.json`,
/// creating the directory. Split from [`run`] so tests can target a
/// scratch directory.
pub fn export_report_in(
    dir: &Path,
    name: &str,
    reports: &[BenchReport],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let rendered = serde_json::to_string_pretty(&RunDocument { name, reports })
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, rendered + "\n")?;
    Ok(path)
}

/// The run document: harness name, smoke flag, one report per benchmark.
struct RunDocument<'a> {
    name: &'a str,
    reports: &'a [BenchReport],
}

impl Serialize for RunDocument<'_> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.begin_object(3);
        sink.field("harness", self.name);
        sink.field("smoke", &criterion::smoke_mode());
        sink.field("benchmarks", self.reports);
        sink.end_object();
    }
}

/// Declares the `main` function of a bench target: runs the listed
/// criterion groups through the shared [`run`] harness under the given
/// harness name (conventionally the bench file's name).
///
/// ```ignore
/// criterion_group!(benches, bench);
/// dts_bench::harness_main!("fig3_order_mismatch", benches);
/// ```
#[macro_export]
macro_rules! harness_main {
    ($name:literal, $($group:path),+ $(,)?) => {
        fn main() {
            $crate::harness::run($name, &[$($group as fn()),+]);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use criterion::{black_box, Criterion};
    use serde::Value;

    #[test]
    fn export_writes_a_parseable_document() {
        let mut criterion = Criterion::default().sample_size(5);
        criterion.bench_function("harness/export_probe", |b| b.iter(|| black_box(3 * 3)));
        let reports = criterion::take_reports();
        let probe: Vec<BenchReport> = reports
            .into_iter()
            .filter(|r| r.id == "harness/export_probe")
            .collect();
        assert_eq!(probe.len(), 1, "exactly the probe report");

        let dir = std::env::temp_dir().join(format!("dts-bench-export-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = export_report_in(&dir, "unit_test", &probe).unwrap();
        assert!(path.ends_with("BENCH_unit_test.json"));
        let raw = std::fs::read_to_string(&path).unwrap();
        let value: Value = serde_json::from_str(&raw).unwrap();
        let benchmarks = match value.field("benchmarks").unwrap() {
            Value::Array(items) => items.clone(),
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(benchmarks.len(), 1);
        let summary = benchmarks[0].field("summary").unwrap();
        let mean = match summary.field("mean_ns").unwrap() {
            Value::Float(x) => *x,
            other => panic!("expected float mean, got {other:?}"),
        };
        assert!(mean >= 0.0);
        assert_eq!(
            summary.field("sample_size").unwrap(),
            &Value::UInt(5),
            "export carries the sample count"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
