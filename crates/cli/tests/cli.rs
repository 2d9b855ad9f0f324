//! End-to-end regression tests for the `dts` binary, driving the real
//! executable (`CARGO_BIN_EXE_dts`) the way a shell would.
//!
//! Pinned bugs:
//!
//! * `dts run <trace> <heuristic> <factor>` used to panic via the
//!   `MemSize::scale` assert on a negative, NaN or infinite factor instead
//!   of reporting an error;
//! * `dts generate <kernel> <dir> [n_ranks]` used to silently clamp
//!   `n_ranks` to the topology size — a request for 500 ranks quietly
//!   wrote 150 files and exited 0;
//! * `dts run <trace> <heuristic> 1.0` used to fail with "requires more
//!   memory than the capacity" when the largest task passed 2^53 bytes,
//!   because the capacity factor was applied through `f64`;
//! * `dts run` and `dts sweep` used to exit 101 with a `failed printing to
//!   stdout: Broken pipe` panic when their reader had gone away (`| head`).

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn dts(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dts"))
        .args(args)
        .output()
        .expect("the dts binary runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// A scratch directory that cleans up after itself even on panic.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(label: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("dts-cli-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir is creatable");
        ScratchDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Generates one HF trace into `dir` and returns the trace file's path.
fn generate_one_trace(dir: &Path) -> PathBuf {
    let dir_str = dir.to_str().expect("scratch path is UTF-8");
    let output = dts(&["generate", "hf", dir_str, "1"]);
    assert!(
        output.status.success(),
        "trace generation failed: {}",
        stderr(&output)
    );
    dir.join("hf-rank000.json")
}

#[test]
fn run_rejects_malformed_capacity_factors() {
    let scratch = ScratchDir::new("run-bad-factor");
    let trace = generate_one_trace(scratch.path());
    let trace = trace.to_str().unwrap();
    for factor in ["-1", "nan", "inf", "-inf"] {
        let output = dts(&["run", trace, "MAMR", factor]);
        // Regression: these used to abort with the `MemSize::scale` panic
        // (signal, no diagnostic); now they are ordinary errors.
        assert_eq!(
            output.status.code(),
            Some(1),
            "factor {factor} should exit 1, got {:?}",
            output.status
        );
        let message = stderr(&output);
        assert!(
            message.contains("invalid capacity factor"),
            "factor {factor}: unexpected diagnostic {message:?}"
        );
    }
}

#[test]
fn run_accepts_a_valid_factor() {
    let scratch = ScratchDir::new("run-ok");
    let trace = generate_one_trace(scratch.path());
    let output = dts(&["run", trace.to_str().unwrap(), "MAMR", "1.5"]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let text = stdout(&output);
    assert!(text.contains("makespan"), "unexpected output: {text:?}");
}

#[test]
fn generate_rejects_more_ranks_than_the_largest_topology() {
    let scratch = ScratchDir::new("generate-too-many");
    let dir = scratch.path().to_str().unwrap();
    // Regression: 500 ranks used to silently clamp to the topology's 150
    // processes and exit 0 after writing fewer files than requested.
    let output = dts(&["generate", "ccsd", dir, "500"]);
    assert_eq!(output.status.code(), Some(1));
    let message = stderr(&output);
    assert!(
        message.contains("500 ranks requested") && message.contains("150"),
        "unexpected diagnostic: {message:?}"
    );
    // Nothing was generated.
    assert_eq!(std::fs::read_dir(scratch.path()).unwrap().count(), 0);
}

#[test]
fn generate_reports_how_many_ranks_were_written() {
    let scratch = ScratchDir::new("generate-count");
    let dir = scratch.path().to_str().unwrap();
    let output = dts(&["generate", "hf", dir, "2"]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    assert!(
        stdout(&output).contains("generated 2 of 2 requested ranks"),
        "unexpected output: {:?}",
        stdout(&output)
    );
    assert_eq!(std::fs::read_dir(scratch.path()).unwrap().count(), 2);
}

#[test]
fn generate_rejects_zero_ranks() {
    let scratch = ScratchDir::new("generate-zero");
    let output = dts(&["generate", "hf", scratch.path().to_str().unwrap(), "0"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(stderr(&output).contains("at least 1"));
}

#[test]
fn run_rejects_malformed_execution_models() {
    let scratch = ScratchDir::new("run-bad-model");
    let trace = generate_one_trace(scratch.path());
    let trace = trace.to_str().unwrap();
    for spec in [
        "bogus",
        "streams",
        "streams:0",
        "streams:-2",
        "streams:two",
        "implicit:-0.5",
        "implicit:1.5",
        "implicit:NaN",
        "implicit:inf",
        "explicit:1",
        "duplex:2",
        "",
    ] {
        let output = dts(&["run", trace, "MAMR", "1.5", &format!("--model={spec}")]);
        assert_eq!(
            output.status.code(),
            Some(1),
            "model {spec:?} should exit 1, got {:?}",
            output.status
        );
        let message = stderr(&output);
        assert!(
            message.contains("error:") && message.contains("invalid execution model"),
            "model {spec:?}: unexpected diagnostic {message:?}"
        );
        assert!(
            !message.contains("panicked"),
            "model {spec:?} panicked: {message:?}"
        );
    }
    // A dangling `--model` with no value is also a clean error.
    let output = dts(&["run", trace, "MAMR", "1.5", "--model"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(stderr(&output).contains("--model expects a value"));
}

#[test]
fn run_echoes_the_execution_model() {
    let scratch = ScratchDir::new("run-model-echo");
    let trace = generate_one_trace(scratch.path());
    let trace = trace.to_str().unwrap();
    // The default explicit model is echoed too, so reports are
    // self-describing.
    let output = dts(&["run", trace, "MAMR", "1.5"]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    assert!(
        stdout(&output).contains("model              explicit"),
        "unexpected output: {:?}",
        stdout(&output)
    );
    let output = dts(&["run", trace, "MAMR", "1.5", "--model", "duplex"]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    assert!(
        stdout(&output).contains("model              duplex"),
        "unexpected output: {:?}",
        stdout(&output)
    );
}

#[test]
fn overlap_models_never_lengthen_a_run() {
    // The same trace, heuristic and capacity under each model: duplex and
    // streams cannot end later than explicit, and full implicit overlap
    // cannot end later than duplex.
    let scratch = ScratchDir::new("run-model-compare");
    let trace = generate_one_trace(scratch.path());
    let trace = trace.to_str().unwrap();
    let makespan_under = |spec: &str| -> u64 {
        let output = dts(&["run", trace, "LCMR", "1.5", "--model", spec]);
        assert!(output.status.success(), "stderr: {}", stderr(&output));
        let text = stdout(&output);
        let line = text
            .lines()
            .find(|l| l.starts_with("makespan"))
            .unwrap_or_else(|| panic!("no makespan line in {text:?}"));
        line.split_whitespace()
            .nth(1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("unparsable makespan line {line:?}"))
    };
    let explicit = makespan_under("explicit");
    let duplex = makespan_under("duplex");
    let streams = makespan_under("streams:4");
    let implicit = makespan_under("implicit");
    assert!(duplex <= explicit, "duplex {duplex} vs explicit {explicit}");
    assert!(
        streams <= explicit,
        "streams {streams} vs explicit {explicit}"
    );
    assert!(implicit <= duplex, "implicit {implicit} vs duplex {duplex}");
}

#[test]
fn generate_stamps_the_model_into_trace_files() {
    let scratch = ScratchDir::new("generate-model");
    let dir = scratch.path().to_str().unwrap();
    let output = dts(&["generate", "hf", dir, "1", "--model", "streams:3"]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let json = std::fs::read_to_string(scratch.path().join("hf-rank000.json")).unwrap();
    assert!(
        json.contains("\"model\"") && json.contains("Streams"),
        "model not stamped: {json:?}"
    );
    // A stamped trace runs under its model without repeating the flag.
    let trace = scratch.path().join("hf-rank000.json");
    let output = dts(&["run", trace.to_str().unwrap(), "MAMR", "1.5"]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    assert!(
        stdout(&output).contains("model              streams:3"),
        "unexpected output: {:?}",
        stdout(&output)
    );
}

#[test]
fn generate_rejects_malformed_execution_models() {
    let scratch = ScratchDir::new("generate-bad-model");
    let dir = scratch.path().to_str().unwrap();
    let output = dts(&["generate", "hf", dir, "1", "--model", "streams:0"]);
    assert_eq!(output.status.code(), Some(1));
    let message = stderr(&output);
    assert!(
        message.contains("invalid execution model") && !message.contains("panicked"),
        "unexpected diagnostic: {message:?}"
    );
    assert_eq!(std::fs::read_dir(scratch.path()).unwrap().count(), 0);
}

const FAMILIES: [&str; 5] = [
    "md",
    "dense-la",
    "tie-heavy",
    "memory-cliff",
    "transfer-bound",
];

#[test]
fn usage_enumerates_every_generator_source() {
    let output = dts(&[]);
    assert_eq!(output.status.code(), Some(2));
    let usage = stderr(&output);
    for source in ["hf", "ccsd"].iter().chain(FAMILIES.iter()) {
        assert!(usage.contains(source), "usage does not list '{source}'");
    }
    for command in ["trace export", "trace import", "corpus"] {
        assert!(usage.contains(command), "usage does not list '{command}'");
    }
}

#[test]
fn generate_names_every_family_on_an_unknown_source() {
    let scratch = ScratchDir::new("generate-unknown-source");
    let output = dts(&["generate", "bogus", scratch.path().to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(1));
    let message = stderr(&output);
    for source in ["hf", "ccsd"].iter().chain(FAMILIES.iter()) {
        assert!(
            message.contains(source),
            "diagnostic {message:?} does not list '{source}'"
        );
    }
}

#[test]
fn generate_rejects_family_flags_on_chemistry_kernels() {
    let scratch = ScratchDir::new("generate-kernel-flags");
    let dir = scratch.path().to_str().unwrap();
    for flag in [["--tasks", "10"], ["--seed", "3"], ["--skew", "1.2"]] {
        let output = dts(&["generate", "hf", dir, "1", flag[0], flag[1]]);
        assert_eq!(
            output.status.code(),
            Some(1),
            "{} on hf should exit 1",
            flag[0]
        );
        let message = stderr(&output);
        assert!(
            message.contains(flag[0]) && message.contains("synthetic families"),
            "{}: unexpected diagnostic {message:?}",
            flag[0]
        );
    }
    assert_eq!(std::fs::read_dir(scratch.path()).unwrap().count(), 0);
}

#[test]
fn generate_rejects_invalid_family_parameters() {
    let scratch = ScratchDir::new("generate-bad-family-params");
    let dir = scratch.path().to_str().unwrap();
    // Skew only exists on dense-la.
    let output = dts(&["generate", "md", dir, "1", "--skew", "1.5"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(
        stderr(&output).contains("dense-la"),
        "unexpected diagnostic: {:?}",
        stderr(&output)
    );
    // Degenerate parameter values are clean errors, not panics.
    for args in [
        ["dense-la", "--skew", "0"],
        ["dense-la", "--skew", "nope"],
        ["md", "--tasks", "0"],
        ["md", "--tasks", "-5"],
        ["md", "--seed", "minus-one"],
    ] {
        let output = dts(&["generate", args[0], dir, "1", args[1], args[2]]);
        assert_eq!(
            output.status.code(),
            Some(1),
            "{args:?} should exit 1, got {:?}",
            output.status
        );
        assert!(
            !stderr(&output).contains("panicked"),
            "{args:?} panicked: {}",
            stderr(&output)
        );
    }
    assert_eq!(std::fs::read_dir(scratch.path()).unwrap().count(), 0);
}

#[test]
fn every_family_round_trips_through_export_import_under_every_model() {
    // generate → trace export → trace import must reproduce the generated
    // file byte for byte, and running the re-imported trace must produce
    // the identical schedule report.
    let scratch = ScratchDir::new("family-round-trip");
    for family in FAMILIES {
        for model in ["explicit", "duplex", "streams:4", "implicit"] {
            let dir = scratch
                .path()
                .join(format!("{family}-{}", model.replace(':', "_")));
            let dir_str = dir.to_str().unwrap();
            let output = dts(&[
                "generate", family, dir_str, "1", "--tasks", "40", "--seed", "5", "--model", model,
            ]);
            assert!(
                output.status.success(),
                "generate {family} --model {model}: {}",
                stderr(&output)
            );
            let generated = dir.join(format!("{family}-rank000.json"));
            let versioned = dir.join("versioned.json");
            let reimported = dir.join("reimported.json");
            let output = dts(&[
                "trace",
                "export",
                generated.to_str().unwrap(),
                versioned.to_str().unwrap(),
            ]);
            assert!(output.status.success(), "export: {}", stderr(&output));
            assert!(
                std::fs::read_to_string(&versioned)
                    .unwrap()
                    .contains("\"format\": \"dts-trace\""),
                "export did not write the versioned format"
            );
            let output = dts(&[
                "trace",
                "import",
                versioned.to_str().unwrap(),
                reimported.to_str().unwrap(),
            ]);
            assert!(output.status.success(), "import: {}", stderr(&output));
            assert_eq!(
                std::fs::read(&generated).unwrap(),
                std::fs::read(&reimported).unwrap(),
                "{family} --model {model}: round trip is not byte-identical"
            );
            let run_original = dts(&["run", generated.to_str().unwrap(), "LCMR", "1.5"]);
            let run_back = dts(&["run", reimported.to_str().unwrap(), "LCMR", "1.5"]);
            assert!(run_original.status.success(), "{}", stderr(&run_original));
            assert!(run_back.status.success(), "{}", stderr(&run_back));
            assert_eq!(
                stdout(&run_original),
                stdout(&run_back),
                "{family} --model {model}: schedules differ after the round trip"
            );
        }
    }
}

#[test]
fn trace_import_rejects_malformed_files_cleanly() {
    let scratch = ScratchDir::new("trace-import-malformed");
    let out = scratch.path().join("out.json");
    let cases: &[(&str, &str)] = &[
        ("unversioned", r#"{"kernel": "HF", "rank": 0, "tasks": []}"#),
        (
            "future-version",
            r#"{"format": "dts-trace", "version": 99, "kernel": "HF", "rank": 0, "tasks": []}"#,
        ),
        (
            "float-time",
            r#"{"format": "dts-trace", "version": 1, "kernel": "HF", "rank": 0, "tasks": [{"name": "t", "kind": "Contraction", "comm_micros": 1.5, "comp_micros": 1, "mem_bytes": 1}]}"#,
        ),
        (
            "negative-memory",
            r#"{"format": "dts-trace", "version": 1, "kernel": "HF", "rank": 0, "tasks": [{"name": "t", "kind": "Contraction", "comm_micros": 1, "comp_micros": 1, "mem_bytes": -4}]}"#,
        ),
        (
            "duplicate-ids",
            r#"{"format": "dts-trace", "version": 1, "kernel": "HF", "rank": 0, "tasks": [{"name": "t", "kind": "Contraction", "comm_micros": 1, "comp_micros": 1, "mem_bytes": 1}, {"name": "t", "kind": "Contraction", "comm_micros": 2, "comp_micros": 2, "mem_bytes": 2}]}"#,
        ),
        ("truncated", r#"{"format": "dts-trace", "ver"#),
    ];
    for (label, json) in cases {
        let path = scratch.path().join(format!("{label}.json"));
        std::fs::write(&path, json).unwrap();
        let output = dts(&[
            "trace",
            "import",
            path.to_str().unwrap(),
            out.to_str().unwrap(),
        ]);
        assert_eq!(
            output.status.code(),
            Some(1),
            "{label} should exit 1, got {:?}",
            output.status
        );
        let message = stderr(&output);
        assert!(
            message.contains("error:") && !message.contains("panicked"),
            "{label}: unexpected diagnostic {message:?}"
        );
        assert!(
            !out.exists(),
            "{label}: import wrote output despite failing"
        );
    }
}

#[test]
fn run_rejects_corrupted_trace_files_cleanly() {
    let scratch = ScratchDir::new("run-corrupted");
    let trace = generate_one_trace(scratch.path());
    let json = std::fs::read_to_string(&trace).unwrap();
    let corrupted = scratch.path().join("corrupted.json");
    std::fs::write(&corrupted, &json[..json.len() / 2]).unwrap();
    let output = dts(&["run", corrupted.to_str().unwrap(), "MAMR", "1.5"]);
    assert_eq!(output.status.code(), Some(1));
    let message = stderr(&output);
    assert!(
        message.contains("error:") && !message.contains("panicked"),
        "unexpected diagnostic: {message:?}"
    );
}

#[test]
fn corpus_golden_workflow_blesses_verifies_and_catches_tampering() {
    let scratch = ScratchDir::new("corpus-golden");
    let golden = scratch.path().join("golden.json");
    let golden_str = golden.to_str().unwrap();
    // Without a golden file the suite fails and names the fix.
    let output = dts(&["corpus", "--golden", golden_str]);
    assert_eq!(output.status.code(), Some(1));
    assert!(stderr(&output).contains("--update-golden"));
    // Blessing writes the file; a subsequent check is clean.
    let output = dts(&["corpus", "--update-golden", "--golden", golden_str]);
    assert!(output.status.success(), "bless: {}", stderr(&output));
    assert!(stdout(&output).contains("blessed"));
    let output = dts(&["corpus", "--golden", golden_str]);
    assert!(output.status.success(), "verify: {}", stderr(&output));
    assert!(stdout(&output).contains("corpus clean"));
    // Any tampering with a metric value fails the check and names the
    // sanctioned change path.
    let text = std::fs::read_to_string(&golden).unwrap();
    let tampered = text.replacen("\"makespan_us\": ", "\"makespan_us\": 1", 1);
    assert_ne!(text, tampered, "tamper had no effect");
    std::fs::write(&golden, tampered).unwrap();
    let output = dts(&["corpus", "--golden", golden_str]);
    assert_eq!(output.status.code(), Some(1));
    let message = stderr(&output);
    assert!(
        message.contains("drift") && message.contains("--update-golden"),
        "unexpected diagnostic: {message:?}"
    );
    // Stray positional arguments are a usage error.
    let output = dts(&["corpus", "extra"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(stderr(&output).contains("unexpected argument"));
}

/// Generates one bandwidth-linear transfer-bound trace into `dir` and
/// returns the trace file's path. With `--bandwidth` the generator's
/// communication times are linear in bytes (±2% jitter), so a regression
/// calibration must recover the line almost exactly.
fn generate_bandwidth_trace(dir: &Path) -> PathBuf {
    let dir_str = dir.to_str().expect("scratch path is UTF-8");
    let output = dts(&[
        "generate",
        "transfer-bound",
        dir_str,
        "1",
        "--tasks",
        "200",
        "--seed",
        "13",
        "--bandwidth",
        "1000",
    ]);
    assert!(
        output.status.success(),
        "trace generation failed: {}",
        stderr(&output)
    );
    dir.join("transfer-bound-rank000.json")
}

#[test]
fn calibrate_fits_a_bandwidth_trace_within_tolerance() {
    let scratch = ScratchDir::new("calibrate-fit");
    let trace = generate_bandwidth_trace(scratch.path());
    let model = scratch.path().join("model.json");
    let output = dts(&[
        "calibrate",
        trace.to_str().unwrap(),
        "--out",
        model.to_str().unwrap(),
    ]);
    assert!(output.status.success(), "calibrate: {}", stderr(&output));
    let report = stdout(&output);
    assert!(report.contains("backend            regression"), "{report}");
    // The residual report's transfer fit must recover the generator's
    // bandwidth line well within the 5% (500 bp) acceptance bound.
    let err_bp: u64 = report
        .lines()
        .find(|l| l.starts_with("transfer fit"))
        .and_then(|l| l.split("mean_rel_err_bp=").nth(1))
        .and_then(|rest| rest.split_whitespace().next())
        .expect("transfer fit line with mean_rel_err_bp")
        .parse()
        .expect("mean_rel_err_bp is an integer");
    assert!(err_bp < 500, "transfer fit off by {err_bp} bp: {report}");
    assert!(model.exists(), "calibrate --out wrote no model file");
}

#[test]
fn calibrate_is_deterministic_and_its_model_reloads() {
    let scratch = ScratchDir::new("calibrate-determinism");
    let trace = generate_bandwidth_trace(scratch.path());
    let trace = trace.to_str().unwrap();
    let first = scratch.path().join("model1.json");
    let second = scratch.path().join("model2.json");
    for model in [&first, &second] {
        let output = dts(&["calibrate", trace, "--out", model.to_str().unwrap()]);
        assert!(output.status.success(), "calibrate: {}", stderr(&output));
    }
    // Same trace, same fit, byte-identical file — the round-trip
    // stability `dts request` relies on when hashing model specs.
    assert_eq!(
        std::fs::read(&first).unwrap(),
        std::fs::read(&second).unwrap(),
        "calibrate is not deterministic"
    );
    let output = dts(&[
        "run",
        trace,
        "OOMAMR",
        "--cost-model",
        first.to_str().unwrap(),
    ]);
    assert!(output.status.success(), "run: {}", stderr(&output));
    assert!(
        stdout(&output).contains("cost model         regression"),
        "{}",
        stdout(&output)
    );
}

#[test]
fn run_under_a_fitted_cost_model_changes_the_schedule() {
    let scratch = ScratchDir::new("run-cost-model");
    let trace = generate_bandwidth_trace(scratch.path());
    let trace = trace.to_str().unwrap();
    let model = scratch.path().join("model.json");
    let output = dts(&["calibrate", trace, "--out", model.to_str().unwrap()]);
    assert!(output.status.success(), "calibrate: {}", stderr(&output));

    let native = dts(&["run", trace, "DOCPS"]);
    assert!(native.status.success(), "native: {}", stderr(&native));
    let modeled = dts(&[
        "run",
        trace,
        "DOCPS",
        "--cost-model",
        model.to_str().unwrap(),
    ]);
    assert!(modeled.status.success(), "modeled: {}", stderr(&modeled));

    let line = |out: &Output, key: &str| -> String {
        stdout(out)
            .lines()
            .find(|l| l.starts_with(key))
            .unwrap_or_default()
            .to_string()
    };
    assert_eq!(line(&native, "cost model"), "cost model         analytic");
    assert_eq!(
        line(&modeled, "cost model"),
        "cost model         regression"
    );
    // The ±2% calibration residue perturbs the materialized durations, so
    // the same heuristic reaches a different makespan — the model really
    // steers the schedule rather than being carried as metadata.
    assert_ne!(
        line(&native, "makespan"),
        line(&modeled, "makespan"),
        "the fitted model did not change the schedule"
    );
}

#[test]
fn run_accepts_the_analytic_cost_model_keyword() {
    let scratch = ScratchDir::new("run-analytic-keyword");
    let trace = generate_bandwidth_trace(scratch.path());
    let trace = trace.to_str().unwrap();
    let native = dts(&["run", trace, "OOMAMR"]);
    assert!(native.status.success(), "native: {}", stderr(&native));
    let forced = dts(&["run", trace, "OOMAMR", "--cost-model", "analytic"]);
    assert!(forced.status.success(), "forced: {}", stderr(&forced));
    // `analytic` is the normalization keyword: forcing it on a trace that
    // carries no model is the identity, down to the output bytes.
    assert_eq!(stdout(&native), stdout(&forced));
    assert!(stdout(&native).contains("cost model         analytic"));
}

#[test]
fn run_rejects_a_missing_cost_model_file() {
    let scratch = ScratchDir::new("run-missing-model");
    let trace = generate_one_trace(scratch.path());
    let output = dts(&[
        "run",
        trace.to_str().unwrap(),
        "OOMAMR",
        "--cost-model",
        "/no/such/model.json",
    ]);
    assert_eq!(output.status.code(), Some(1));
    let message = stderr(&output);
    assert!(
        message.contains("/no/such/model.json"),
        "diagnostic does not name the file: {message:?}"
    );
}

#[test]
fn calibrate_history_model_drives_a_run() {
    let scratch = ScratchDir::new("calibrate-history");
    let trace = generate_bandwidth_trace(scratch.path());
    let trace = trace.to_str().unwrap();
    let model = scratch.path().join("m.json");
    let model = model.to_str().unwrap();
    let output = dts(&["calibrate", trace, "--backend", "history", "--out", model]);
    assert!(output.status.success(), "calibrate: {}", stderr(&output));
    assert!(
        stdout(&output).contains("backend            history"),
        "{}",
        stdout(&output)
    );
    let output = dts(&["run", trace, "LCMR", "--cost-model", model]);
    assert!(output.status.success(), "run: {}", stderr(&output));
    assert!(
        stdout(&output).contains("cost model         history"),
        "{}",
        stdout(&output)
    );
}

/// Runs `dts` with `stdout` as its standard output and returns its exit
/// code and standard error.
fn dts_into(args: &[&str], stdout: Stdio) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_dts"))
        .args(args)
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()
        .expect("the dts binary runs");
    (output.status.code(), stderr(&output))
}

#[test]
fn closed_stdout_ends_quietly_and_other_write_errors_are_reported() {
    let trace = small_trace();
    let trace = trace.to_str().unwrap();
    for args in [&["run", trace, "LCMR"][..], &["sweep", trace]] {
        // The read end is gone before the child starts, so its first
        // write fails with a broken pipe every time.
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let (code, message) = dts_into(args, writer.into());
        assert_eq!(code, Some(0), "{args:?}: {message}");
        assert_eq!(message, "", "{args:?}");
    }
    // Any other write error is a plain `error:` line.
    if let Ok(full) = std::fs::File::create("/dev/full") {
        let (code, message) = dts_into(&["run", trace, "LCMR"], full.into());
        assert_eq!(code, Some(1), "{message}");
        assert!(message.starts_with("error: "), "{message}");
    }
}

/// The committed small trace whose `dts run` output is pinned.
fn small_trace() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/small-trace.json")
}

#[test]
fn run_stdout_matches_the_committed_golden() {
    // Each section of the golden file is `== <args>` followed by the exact
    // stdout of `dts run <small trace> <args>`.
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/small-trace.run.golden");
    let golden = std::fs::read_to_string(golden).expect("the golden file is committed");
    let trace = small_trace();
    let trace = trace.to_str().unwrap();
    let mut sections = 0;
    for section in golden.split("== ").filter(|s| !s.is_empty()) {
        let (args, want) = section.split_once('\n').expect("a header line");
        let mut argv = vec!["run", trace];
        argv.extend(args.split_whitespace());
        let output = dts(&argv);
        assert!(output.status.success(), "{args}: {}", stderr(&output));
        assert_eq!(stdout(&output), want, "dts run {args}");
        sections += 1;
    }
    // OS, LCMR and MAMR, each with and without the duplex model.
    assert_eq!(sections, 6);
}

#[test]
fn sweep_stdout_matches_the_committed_golden() {
    // The exact CSV of `dts sweep <small trace>`: 14 heuristics x 9
    // capacity factors plus the header.
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/small-trace.sweep.golden");
    let golden = std::fs::read_to_string(golden).expect("the golden file is committed");
    let trace = small_trace();
    let output = dts(&["sweep", trace.to_str().unwrap()]);
    assert!(output.status.success(), "{}", stderr(&output));
    assert_eq!(stdout(&output), golden);
    assert_eq!(golden.lines().count(), 1 + 14 * 9);
}

#[test]
fn run_at_factor_one_fits_a_task_past_f64_precision() {
    // Regression: `MemSize::scale` went through `f64`, which rounds
    // 2^53 + 1 bytes down to 2^53, so at factor 1.0 the largest task no
    // longer fitted its own minimum capacity.
    let scratch = ScratchDir::new("run-big-mem");
    let path = scratch.path().join("big.json");
    std::fs::write(
        &path,
        r#"{"kernel": "K", "rank": 0, "tasks": [
            {"name": "a", "kind": "Contraction", "comm_micros": 5, "comp_micros": 3, "mem_bytes": 9007199254740993},
            {"name": "b", "kind": "Contraction", "comm_micros": 2, "comp_micros": 4, "mem_bytes": 10}
        ]}"#,
    )
    .unwrap();
    for factor in ["1.0", "1.5"] {
        let output = dts(&["run", path.to_str().unwrap(), "LCMR", factor]);
        assert!(
            output.status.success(),
            "factor {factor}: {}",
            stderr(&output)
        );
        assert!(stdout(&output).contains(&format!("({}x mc)", factor.trim_end_matches(".0"))));
    }
}
