//! Pins the bytes of both trace renderings across commits.
//!
//! One trace per generator family is rendered with `Trace::to_json` (the
//! bare format `dts generate` writes) and with `format::export_trace` (the
//! versioned format `dts trace export` writes): plain, stamped with an
//! execution model as `dts generate --model` does, and carrying a fitted
//! cost model. Each rendering is hashed with the stable digest; the
//! recorded digests must not change unless a change means to change the
//! file formats. `generator_digests.rs` in `dts_chem` pins the HF and CCSD
//! generators the same way.

use dts_chem::Trace;
use dts_core::exec::ExecutionModel;
use dts_core::hash::stable_digest;
use dts_core::perfmodel::{fit_history, fit_linear, CostModelSpec};
use dts_workloads::{export_trace, generate_trace, GeneratorConfig, WorkloadFamily};

/// A fitted history model over a spread of sizes (several buckets).
fn history_model() -> CostModelSpec {
    let transfer: Vec<(u64, u64)> = (0..12).map(|i| (1u64 << (6 + i), 3 + 5 * i)).collect();
    let compute: Vec<(u64, u64)> = (0..5).map(|i| (4_000 * (i + 1), 17 + i)).collect();
    CostModelSpec::History {
        transfer: fit_history(&transfer).unwrap(),
        compute: fit_history(&compute).unwrap(),
    }
}

/// A fitted regression model.
fn regression_model() -> CostModelSpec {
    let samples: Vec<(u64, u64)> = (1..9).map(|i| (1_000 * i, 40 + 7 * i)).collect();
    CostModelSpec::Regression {
        transfer: fit_linear(&samples).unwrap(),
        compute: fit_linear(&samples[..4]).unwrap(),
    }
}

/// The stamped variants of one trace, each with its label.
fn variants(trace: &Trace) -> Vec<(&'static str, Trace)> {
    let mut duplex = trace.clone();
    duplex.model = Some(ExecutionModel::Duplex);
    let mut history = trace.clone();
    history.cost_model = Some(history_model());
    let mut both = trace.clone();
    both.model = Some(ExecutionModel::parse("implicit:0.75").unwrap());
    both.cost_model = Some(regression_model());
    vec![
        ("plain", trace.clone()),
        ("duplex", duplex),
        ("history", history),
        ("implicit+regression", both),
    ]
}

/// Recorded digests: family, variant, `to_json`, `export_trace`.
const RECORDED: [(&str, &str, &str, &str); 20] = [
    (
        "md",
        "plain",
        "1d24565c4ffce696a91e13645b153163",
        "48a6f8d22ec62b811773ae760a8a6dc9",
    ),
    (
        "md",
        "duplex",
        "1d48a7540d1e4d95f2fdee2a4abecf25",
        "2a1727088723646eb860e64bd4b4c545",
    ),
    (
        "md",
        "history",
        "e33a796cc6aebcddaf8fa1a89ce13e32",
        "50d3ed9fefa6d044d02e0cb44fdbd06a",
    ),
    (
        "md",
        "implicit+regression",
        "2cec5b097fe016e876148252e4711c77",
        "1a411e1706a5b4c0b2387db0d0384b1b",
    ),
    (
        "dense-la",
        "plain",
        "987ac20d515cba0b19ce1acd42aee173",
        "49c2d66cc01580124ce0eb49f0d4c901",
    ),
    (
        "dense-la",
        "duplex",
        "17555e90c1de2be26ad2067a392438d5",
        "e4a5788ae53280279cc07978c35241bd",
    ),
    (
        "dense-la",
        "history",
        "69d2ab2e6980983814f4148714546362",
        "7c8202d490a12c15237c41eed29f9298",
    ),
    (
        "dense-la",
        "implicit+regression",
        "11222226a0c17f6537f0ba75d72d69a7",
        "f248132d3594b3199d96483ddbbde2e3",
    ),
    (
        "tie-heavy",
        "plain",
        "3b418a6691c1f75070d1b7e79dbcd544",
        "fa9dec511ab0c519afb9d98caec42a36",
    ),
    (
        "tie-heavy",
        "duplex",
        "159746955d07618feadc4f32187ad038",
        "8e5d8192cf175778d5e64f15b91ade22",
    ),
    (
        "tie-heavy",
        "history",
        "a9c8a2d6c067d7b7a1816edcc40d5ff9",
        "957699ec8e5181b08da99d6a4c826979",
    ),
    (
        "tie-heavy",
        "implicit+regression",
        "2a53441a70b546d2c33bc939cf6bf2e4",
        "c2255ee98cf55092a661af0f21a1ec54",
    ),
    (
        "memory-cliff",
        "plain",
        "34a86e1619d9508fc22a1db6b820be6b",
        "0bc2ec755425abc2addada3c4dc39129",
    ),
    (
        "memory-cliff",
        "duplex",
        "bd3a46d31e63511e86d0efdc7484f15d",
        "39ce1c59ef860ae1f0ee810f92b6d2ff",
    ),
    (
        "memory-cliff",
        "history",
        "a22231c12d203f1c2c8e38113ac3fdea",
        "af6e44ed42d0b731d5987c5522f16894",
    ),
    (
        "memory-cliff",
        "implicit+regression",
        "9f5c24e880f51509382a557ee902332f",
        "5d611644231b945bee43e7b8c8bf48fd",
    ),
    (
        "transfer-bound",
        "plain",
        "bf0269a63463b3f6605cef9fcaa2fd88",
        "f880c0e6a5335a5b600665bb885fc116",
    ),
    (
        "transfer-bound",
        "duplex",
        "7c3f2b2c8b56f7f5ad2146a652bd4cac",
        "4b38b3c8b9e351fcb5f8850b5b4e2258",
    ),
    (
        "transfer-bound",
        "history",
        "4de47858d463023d60b95fb2e819d90d",
        "ade77f3629b5241498dbb396a9473d03",
    ),
    (
        "transfer-bound",
        "implicit+regression",
        "faa8832c7ec25dc8c5b564fb01ab2b58",
        "80a13c9f51eb5feaee8bbaeaee8765ca",
    ),
];

#[test]
fn rendered_traces_match_recorded_digests() {
    let mut got = Vec::new();
    for family in WorkloadFamily::ALL {
        let mut config = GeneratorConfig::new(family);
        config.n_tasks = 40;
        config.seed = 11;
        let trace = generate_trace(&config, 1).unwrap();
        for (variant, stamped) in variants(&trace) {
            let bare = stable_digest(stamped.to_json().unwrap().as_bytes()).to_string();
            let versioned = stable_digest(export_trace(&stamped).unwrap().as_bytes()).to_string();
            got.push((family.name(), variant, bare, versioned));
        }
    }
    let mismatches: Vec<String> = got
        .iter()
        .zip(RECORDED)
        .filter(|((f, v, b, e), want)| (*f, *v, b.as_str(), e.as_str()) != *want)
        .map(|((f, v, b, e), _)| format!("    ({f:?}, {v:?}, {b:?}, {e:?}),"))
        .collect();
    assert_eq!(got.len(), RECORDED.len());
    assert!(mismatches.is_empty(), "\n{}", mismatches.join("\n"));
}
