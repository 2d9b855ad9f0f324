//! The golden-metric scenario suite.
//!
//! Runs every heuristic under every execution model over the full
//! scenario corpus and compares the four metrics of each schedule
//! against the committed golden file. The file is a two-way ratchet:
//! drift fails, vanished coverage fails, unsanctioned new coverage
//! fails. `UPDATE_CORPUS_GOLDEN=1 cargo test -p dts_workloads` (or
//! `dts corpus --update-golden`) is the only sanctioned way to change
//! it — the rewritten file then shows up in the diff for review.

use dts_heuristics::Heuristic;
use dts_workloads::corpus::{
    self, compare, parse_golden, render_golden, run_corpus, scenarios, CORPUS_MODELS,
};
use dts_workloads::families::generate_trace;
use std::path::{Path, PathBuf};

/// The committed golden file of this checkout.
fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/corpus.json")
}

fn committed_golden() -> corpus::CorpusMetrics {
    let path = golden_path();
    let json = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden file {}: {e}", path.display()));
    parse_golden(&json).expect("committed golden file parses")
}

#[test]
fn corpus_matches_committed_golden() {
    let current = run_corpus().expect("corpus runs");
    if std::env::var("UPDATE_CORPUS_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(golden_path(), render_golden(&current)).expect("golden file is writable");
        return;
    }
    let report = compare(&current, &committed_golden());
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn golden_covers_every_heuristic_model_family_cell() {
    let golden = committed_golden();
    let families = scenarios();
    assert!(families.len() >= 5, "corpus shrank below five families");
    let mut expected = 0;
    for scenario in &families {
        for heuristic in Heuristic::ALL {
            for model in CORPUS_MODELS {
                let key = format!("{}/{}/{}", scenario.name(), heuristic, model);
                assert!(
                    golden.contains_key(&key),
                    "golden file is missing cell {key}"
                );
                expected += 1;
            }
        }
    }
    assert_eq!(
        golden.len(),
        expected,
        "golden file carries entries no scenario produces"
    );
}

#[test]
fn golden_round_trips_through_render_and_parse() {
    let golden = committed_golden();
    assert_eq!(
        parse_golden(&render_golden(&golden)).expect("re-parse"),
        golden
    );
}

#[test]
fn tampered_metrics_fail_the_suite() {
    let golden = committed_golden();
    let current = run_corpus().expect("corpus runs");

    // Value tamper: any single-metric edit is drift.
    let mut tampered = golden.clone();
    let key = tampered.keys().next().expect("golden is non-empty").clone();
    tampered.get_mut(&key).expect("key exists").makespan_us += 1;
    let report = compare(&current, &tampered);
    assert_eq!(report.drifted.len(), 1, "{}", report.render());
    assert!(report.render().contains("--update-golden"));

    // Coverage tamper in both ratchet directions.
    let mut shrunk = golden.clone();
    shrunk.remove(&key);
    assert!(!compare(&current, &shrunk).unsanctioned.is_empty());
    let mut grown = golden.clone();
    grown.insert("zz-new/OS/explicit".into(), golden[&key]);
    assert!(!compare(&current, &grown).vanished.is_empty());
}

#[test]
fn tampered_generator_parameters_change_the_metrics() {
    // The golden file also pins the *generators*: silently changing a
    // scenario's seed (or size) must not reproduce the committed metrics.
    let golden = committed_golden();
    for mut scenario in scenarios() {
        scenario.config.seed += 1;
        let instance = generate_trace(&scenario.config, 0)
            .expect("tampered config still generates")
            .to_instance_scaled(scenario.capacity_factor)
            .expect("tampered trace still feasible");
        let drifted = CORPUS_MODELS.iter().any(|&model| {
            let instance = instance.clone().with_model(model).expect("model is valid");
            Heuristic::ALL.iter().any(|&heuristic| {
                let schedule =
                    dts_heuristics::run_heuristic(&instance, heuristic).expect("heuristic runs");
                let record = corpus::MetricRecord::of(&instance, &schedule);
                let key = format!("{}/{}/{}", scenario.name(), heuristic, model);
                golden.get(&key) != Some(&record)
            })
        });
        assert!(
            drifted,
            "reseeding scenario {} left every golden metric unchanged",
            scenario.name()
        );
    }
}
