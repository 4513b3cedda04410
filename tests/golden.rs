//! Golden digests: outputs pinned against checked-in values, not only
//! compared run against run.
//!
//! Every other byte-identity test compares the current code with itself
//! (threads vs threads, engine vs engine, resume vs clean), so a change
//! that moves both sides still passes. This one fails whenever the
//! rendered report changes at all. An intentional change to the corpus
//! or to an analysis updates the digest here, in the same change, with a
//! CHANGES.md line saying why.

use ukraine_ndt::prelude::*;
use ukraine_ndt::store::wire::fnv1a64;

/// FNV-1a of `full_report(..).render()` at scale 0.02, scenario
/// `historical`, seed 2022 (the CLI's `report --scale 0.02` defaults).
const REPORT_DIGEST: u64 = 0x801a_942c_dd8f_4a27;

#[test]
fn report_text_matches_the_golden_digest() {
    let data = StudyData::generate(SimConfig { scale: 0.02, seed: 2022, ..SimConfig::default() });
    let text = full_report(&data).expect("clean corpus reports").render();
    let got = fnv1a64(text.as_bytes());
    assert_eq!(
        got, REPORT_DIGEST,
        "report digest moved: got {got:#018x} over {} bytes; if the change is intended, \
         update REPORT_DIGEST and say why in CHANGES.md",
        text.len()
    );
}

/// FNV-1a of `full_report(..).render()` at scale 0.02, seed 2022,
/// `historical`, under `FaultPlan::MODERATE`: dirty cells drive every
/// analysis through its finite/non-finite filtering.
const MODERATE_REPORT_DIGEST: u64 = 0xe30c_f32a_8b0b_2987;

/// FNV-1a of `full_report(..).render()` at scale 0.02, seed 2022,
/// `asymmetric`, clean, with the second-country digest attached: pins the
/// two-country A/B table on clean data.
const ASYMMETRIC_REPORT_DIGEST: u64 = 0x825e_0877_dcec_88d8;

/// FNV-1a over the 19 export artifacts of `run_analysis_stage` at scale
/// 0.02, seed 2022, `historical`: each artifact's name, byte length and
/// content, in stage-registry order.
const EXPORT_DIGEST: u64 = 0xe655_991d_cee5_a0d4;

fn assert_digest(what: &str, text: &str, want: u64) {
    let got = fnv1a64(text.as_bytes());
    assert_eq!(
        got,
        want,
        "{what} digest moved: got {got:#018x} over {} bytes; if the change is intended, \
         update the constant and say why in CHANGES.md",
        text.len()
    );
}

#[test]
fn moderate_fault_report_matches_the_golden_digest() {
    let data = StudyData::generate(SimConfig {
        scale: 0.02,
        seed: 2022,
        faults: FaultPlan::MODERATE,
        ..SimConfig::default()
    });
    let text = full_report(&data).expect("faulted corpus reports").render();
    assert_digest("moderate-fault report", &text, MODERATE_REPORT_DIGEST);
}

#[test]
fn asymmetric_report_matches_the_golden_digest() {
    use ukraine_ndt::analysis::second_country_digest;
    use ukraine_ndt::mlab::sim::Scenario;
    let cfg = SimConfig {
        scale: 0.02,
        seed: 2022,
        scenario: Scenario::ASYMMETRIC,
        ..SimConfig::default()
    };
    let mut data = StudyData::generate(cfg);
    data.second_country = second_country_digest(&cfg).expect("digest computes");
    assert!(data.second_country.is_some(), "asymmetric declares a second country");
    let text = full_report(&data).expect("clean corpus reports").render();
    assert_digest("asymmetric report", &text, ASYMMETRIC_REPORT_DIGEST);
}

#[test]
fn export_artifacts_match_the_golden_digest() {
    use ukraine_ndt::analysis::{run_analysis_stage, ANALYSIS_STAGES};
    let data = StudyData::generate(SimConfig { scale: 0.02, seed: 2022, ..SimConfig::default() });
    let mut text = String::new();
    let mut artifacts = 0;
    for spec in &ANALYSIS_STAGES {
        let out = run_analysis_stage(spec.name, &data).expect("stage computes");
        for (name, content) in &out.artifacts {
            text.push_str(&format!("{name}\n{}\n{content}", content.len()));
            artifacts += 1;
        }
    }
    assert_eq!(artifacts, 19, "export artifact set changed");
    assert_digest("export artifacts", &text, EXPORT_DIGEST);
}

/// FNV-1a over the columnar store `run_store_generate` writes at scale
/// 0.02, seed 2022, scenario `historical`: for every shard in manifest
/// order its `.unified.ndts` then `.traces.ndts` file, then `STORE.txt` —
/// each as name, byte length and bytes. Pins every stored row and the
/// simulator's routing under it, not just the analyses on top.
const HISTORICAL_STORE_DIGEST: u64 = 0xe3ba_7b6c_0d4a_6ab0;

/// The same store digest for `transit-reroute`, whose permanent
/// re-homings and flap windows drive link failures (and so route
/// recomputation) hardest of the built-in scenarios.
const TRANSIT_REROUTE_STORE_DIGEST: u64 = 0x3e44_9022_e53c_549a;

/// Generates the store for `scenario` into a fresh temp dir and digests it.
fn store_digest(scenario: ukraine_ndt::mlab::sim::Scenario, tag: &str) -> u64 {
    use ukraine_ndt::runner::{run_store_generate, STORE_MANIFEST};
    use ukraine_ndt::store::wire::{fnv1a64_extend, FNV_OFFSET_BASIS};
    let dir = std::env::temp_dir().join(format!("ndt-golden-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sim = SimConfig { scale: 0.02, seed: 2022, threads: 2, scenario, ..SimConfig::default() };
    let mut cfg = PipelineConfig::new(sim, &dir);
    cfg.checkpoints = false;
    let store_dir = dir.join("store");
    run_store_generate(&cfg, &store_dir).expect("store generates");
    let manifest = std::fs::read_to_string(store_dir.join(STORE_MANIFEST)).expect("manifest");
    let mut names: Vec<String> = manifest
        .lines()
        .filter_map(|l| l.strip_prefix("shard "))
        .flat_map(|stem| [format!("{stem}.unified.ndts"), format!("{stem}.traces.ndts")])
        .collect();
    assert!(!names.is_empty(), "{tag}: manifest lists no shards");
    names.push(STORE_MANIFEST.to_string());
    let mut h = FNV_OFFSET_BASIS;
    for name in &names {
        let bytes = std::fs::read(store_dir.join(name)).expect("store file reads");
        h = fnv1a64_extend(h, format!("{name}\n{}\n", bytes.len()).as_bytes());
        h = fnv1a64_extend(h, &bytes);
    }
    let _ = std::fs::remove_dir_all(&dir);
    h
}

fn assert_store_digest(what: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{what} store digest moved: got {got:#018x}; if the change is intended, update the \
         constant and say why in CHANGES.md"
    );
}

#[test]
fn historical_store_matches_the_golden_digest() {
    use ukraine_ndt::mlab::sim::Scenario;
    let got = store_digest(Scenario::HISTORICAL, "historical");
    assert_store_digest("historical", got, HISTORICAL_STORE_DIGEST);
}

#[test]
fn transit_reroute_store_matches_the_golden_digest() {
    use ukraine_ndt::mlab::sim::Scenario;
    let got = store_digest(Scenario::TRANSIT_REROUTE, "transit-reroute");
    assert_store_digest("transit-reroute", got, TRANSIT_REROUTE_STORE_DIGEST);
}
