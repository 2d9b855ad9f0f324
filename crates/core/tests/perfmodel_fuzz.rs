//! Fuzz-hardening of the dts-cost-model importer: every corruption of a
//! valid model file must surface as a *typed* `CoreError` — never a
//! panic, never a silently wrong model.
//!
//! Mirrors `dts_workloads/tests/trace_fuzz.rs` for the cost-model format:
//! seeded properties cover truncation at every byte offset, unknown
//! versions and keys, negative and float coefficients and empty history
//! tables. One deliberately *broken* claim is checked via
//! [`microcheck::check`]'s panic-free entry point to pin the shrinker's
//! minimal malformed witness, and a calibrate → save → load → predict
//! property proves fitted models survive the disk round trip bit-exactly.

use dts_core::perfmodel::{self, CalibrationObservations, CostModelSpec, LinearFit};
use dts_core::{CoreError, MemSize, Task, Time};
use microcheck::{gens, prop_assert, property, Config};

/// A fixed valid exported regression-model file the corruption properties
/// start from.
fn valid_json() -> String {
    let fit = |alpha_us, beta_ps_per_byte| LinearFit {
        alpha_us,
        beta_ps_per_byte,
        samples: 12,
    };
    let spec = CostModelSpec::Regression {
        transfer: fit(7, 1_500_000),
        compute: fit(3, 250_000),
    };
    perfmodel::export_model(&spec).expect("well-formed models export")
}

/// A history-model file with the given transfer buckets (compute stays
/// valid), for properties that corrupt the bucket list.
fn history_json(transfer_buckets: &str) -> String {
    format!(
        r#"{{"format": "dts-cost-model", "version": 1, "backend": "history",
 "transfer": [ {{ "link": "h2d", "buckets": [{transfer_buckets}] }} ],
 "compute": [ {{ "backend": "cpu", "buckets": [ {{ "bucket": 0, "mean_us": 4, "samples": 2 }} ] }} ]}}"#
    )
}

/// `true` iff the importer failed with a typed error (the only acceptable
/// outcomes for malformed input).
fn rejected_cleanly(json: &str) -> bool {
    matches!(
        perfmodel::import_model(json),
        Err(CoreError::Serialization(_)) | Err(CoreError::InvalidCostModel(_))
    )
}

property! {
    /// Truncating a valid model file at any byte offset yields a clean
    /// Serialization or InvalidCostModel error — the importer never
    /// panics on and never accepts a prefix.
    fn truncated_model_files_are_rejected_cleanly(cut in gens::usize_in(0..=1023)) {
        let json = valid_json();
        if cut >= json.trim_end().len() {
            // Beyond the last meaningful byte nothing is corrupted: the
            // file ends in a newline, and losing only trailing whitespace
            // still leaves valid JSON.
            return Ok(());
        }
        let truncated = &json[..cut];
        prop_assert!(
            rejected_cleanly(truncated),
            "truncation at byte {cut} was not rejected cleanly"
        );
    }

    /// Every version other than the supported one is rejected with a
    /// message naming the offending version.
    fn unknown_versions_are_rejected(version in gens::u64_in(0..=1_000_000)) {
        if version == perfmodel::FORMAT_VERSION {
            return Ok(());
        }
        let json = valid_json().replacen(
            "\"version\": 1",
            &format!("\"version\": {version}"),
            1,
        );
        match perfmodel::import_model(&json) {
            Err(CoreError::InvalidCostModel(msg)) => prop_assert!(
                msg.contains("version") && msg.contains(&version.to_string()),
                "message `{msg}` does not name version {version}"
            ),
            other => prop_assert!(false, "version {version} accepted or mis-typed: {other:?}"),
        }
    }

    /// Unknown top-level keys are rejected, naming the key.
    fn unknown_keys_are_rejected(tag in gens::u64_in(0..=999_999)) {
        let json = valid_json().replacen(
            "\"version\": 1,",
            &format!("\"version\": 1,\n  \"junk{tag}\": 0,"),
            1,
        );
        match perfmodel::import_model(&json) {
            Err(CoreError::InvalidCostModel(msg)) => prop_assert!(
                msg.contains(&format!("junk{tag}")),
                "message `{msg}` does not name the unknown key"
            ),
            other => prop_assert!(false, "unknown key accepted or mis-typed: {other:?}"),
        }
    }

    /// Negative coefficients (JSON `-n`) are rejected with a message
    /// saying the field is negative and naming it.
    fn negative_coefficients_are_rejected((value, field) in (
        gens::u64_in(1..=1_000_000),
        gens::usize_in(0..=1),
    )) {
        let (needle, name) = if field == 0 {
            ("\"alpha_us\": 7", "alpha_us")
        } else {
            ("\"beta_ps_per_byte\": 1500000", "beta_ps_per_byte")
        };
        let json = valid_json().replacen(
            needle,
            &format!("\"{name}\": -{value}"),
            1,
        );
        match perfmodel::import_model(&json) {
            Err(CoreError::InvalidCostModel(msg)) => prop_assert!(
                msg.contains("negative") && msg.contains(name),
                "message `{msg}` does not flag `{name}` as negative"
            ),
            other => prop_assert!(false, "negative {name} accepted or mis-typed: {other:?}"),
        }
    }

    /// Float coefficients — the NaN-class failure a lossy calibration
    /// pipeline would produce — are rejected, naming the field.
    fn float_coefficients_are_rejected((mantissa, frac) in (
        gens::u64_in(0..=1_000),
        gens::u64_in(1..=9),
    )) {
        let json = valid_json().replacen(
            "\"alpha_us\": 7",
            &format!("\"alpha_us\": {mantissa}.{frac}"),
            1,
        );
        match perfmodel::import_model(&json) {
            Err(CoreError::InvalidCostModel(msg)) => prop_assert!(
                msg.contains("alpha_us"),
                "message `{msg}` does not name the float field"
            ),
            other => prop_assert!(false, "float alpha accepted or mis-typed: {other:?}"),
        }
    }

    /// An empty history table is rejected wherever the non-empty buckets
    /// sit; prediction over an empty table has no defined nearest bucket.
    fn empty_history_tables_are_rejected(seed in gens::u64_in(0..=99)) {
        // The seed only varies the (valid) compute-side mean, proving the
        // rejection is about the empty transfer table, not a coincidence
        // of the other values.
        let json = history_json("").replacen(
            "\"mean_us\": 4",
            &format!("\"mean_us\": {}", seed + 1),
            1,
        );
        prop_assert!(
            matches!(perfmodel::import_model(&json), Err(CoreError::InvalidCostModel(_))),
            "empty history table not rejected"
        );
    }

    /// Calibrate → save → load → predict: a model fitted to exact-line
    /// observations exports to a file that re-imports equal, re-exports
    /// byte-identically, and predicts the same durations after the round
    /// trip.
    fn calibrated_models_round_trip_and_predict_identically((alpha, beta, n) in (
        gens::u64_in(0..=1_000),
        gens::u64_in(0..=50),
        gens::usize_in(2..=20),
    )) {
        let line: Vec<(u64, u64)> = (0..n as u64)
            .map(|i| {
                let bytes = i * 7 + 1;
                (bytes, alpha + beta * bytes)
            })
            .collect();
        let observations = CalibrationObservations {
            transfer: line.clone(),
            compute: line,
        };
        let spec = match observations.fit_regression() {
            Ok(spec) => spec,
            Err(e) => return Err(format!("fit failed on an exact line: {e}")),
        };
        let json = match perfmodel::export_model(&spec) {
            Ok(json) => json,
            Err(e) => return Err(format!("fitted model failed to export: {e}")),
        };
        let back = match perfmodel::import_model(&json) {
            Ok(back) => back,
            Err(e) => return Err(format!("exported model failed to re-import: {e}")),
        };
        prop_assert!(back == spec, "round trip changed the model");
        match perfmodel::export_model(&back) {
            Ok(again) => prop_assert!(again == json, "re-export is not byte-identical"),
            Err(e) => return Err(format!("re-imported model failed to export: {e}")),
        }
        for bytes in [0, 1, 13, 1 << 20] {
            let probe = Task::new(
                Time::from_micros(0),
                Time::from_micros(0),
                MemSize::from_bytes(bytes),
            );
            prop_assert!(
                spec.transfer_time(&probe) == back.transfer_time(&probe)
                    && spec.compute_time(&probe) == back.compute_time(&probe),
                "predictions diverged after the round trip at {bytes} bytes"
            );
        }
    }
}

/// The broken-claim shrinker test: deliberately claim that a history
/// table holding `1 + n` copies of the same bucket imports fine. The
/// claim holds only at `n = 0` (a single bucket) — any duplicate violates
/// the strictly-ascending bucket invariant — so the shrinker must walk
/// any drawn failure down to the minimal malformed witness: exactly one
/// duplicated bucket.
#[test]
fn broken_duplicate_bucket_claim_shrinks_to_one_duplicate() {
    let gen = gens::usize_in(0..=64);
    let failure = microcheck::check(&Config::default(), &gen, |&n| {
        let buckets: Vec<String> = (0..=n)
            .map(|_| r#"{ "bucket": 3, "mean_us": 5, "samples": 1 }"#.to_string())
            .collect();
        let json = history_json(&buckets.join(", "));
        microcheck::prop_assert!(
            perfmodel::import_model(&json).is_ok(),
            "rejected a table with {n} duplicated buckets"
        );
        Ok(())
    })
    .expect_err("duplicated buckets must not all import");
    assert_eq!(
        failure.minimal, 1,
        "minimal malformed witness is one duplicated bucket"
    );
    assert!(failure.original >= 1);
}
