//! The output checks against real program output at a tiny scale: each
//! passes on what the program produced and fails once that output is
//! deliberately corrupted.

use std::path::PathBuf;
use std::sync::Arc;

use ndt_analysis::{full_report, StudyData};
use ndt_mlab::sim::SimConfig;
use ndt_runner::{
    load_study_data, run_report_from_store_with, run_store_generate, ExecPolicy, PipelineConfig,
    ScanEngine,
};
use ndt_serve::{ServeConfig, Server};
use ndt_vfs::VfsHandle;

use crate::checks::{check_body, check_report, check_store, stage_bodies};

fn tiny(seed: u64) -> SimConfig {
    SimConfig {
        scale: 0.01,
        threads: 1,
        ..crate::sim_config(seed)
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("perfbench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create temp dir");
    d
}

/// A tiny store plus its in-memory reference report.
fn prepared(tag: &str, seed: u64) -> (PathBuf, PathBuf, ndt_runner::StoreSummary, String) {
    let dir = tmpdir(tag);
    let mut cfg = PipelineConfig::new(tiny(seed), dir.join("out"));
    cfg.checkpoints = false;
    let store = dir.join("store");
    let (summary, _) = run_store_generate(&cfg, &store).expect("generate");
    let reference = full_report(&StudyData::generate(tiny(seed)))
        .expect("reference")
        .render();
    (dir, store, summary, reference)
}

#[test]
fn a_flipped_byte_in_a_written_shard_fails_the_build_check() {
    let (dir, store, summary, _) = prepared("build", 5);
    let rows = summary.stats.rows;
    check_store(&store, &summary.shards, rows, rows).expect("a fresh store verifies");
    let victim = store.join(format!("{}.traces.ndts", summary.shards[0]));
    let mut bytes = std::fs::read(&victim).expect("read shard");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&victim, bytes).expect("write shard");
    let err = check_store(&store, &summary.shards, rows, rows).expect_err("corruption detected");
    assert!(err.contains("does not verify"), "{err}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_missing_stage_section_fails_the_report_check() {
    let (dir, store, _, reference) = prepared("report", 6);
    let outcome = run_report_from_store_with(
        &store,
        ExecPolicy::default(),
        &VfsHandle::real(),
        ScanEngine::Vectorized,
        1,
    )
    .expect("report");
    check_report(&reference, &outcome.report).expect("store report equals the in-memory reference");
    let section = format!("== {} ==\n", ndt_analysis::ANALYSIS_STAGES[3].title);
    let cut = outcome.report.replacen(&section, "", 1);
    assert!(check_report(&reference, &cut).is_err());
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_flipped_byte_in_a_served_body_fails_the_serve_check() {
    let (dir, store, _, reference) = prepared("serve", 7);
    let bodies = stage_bodies(&reference).expect("reference splits into stage bodies");
    let (data, _) = load_study_data(&VfsHandle::real(), &store).expect("load");
    let cfg = ServeConfig {
        workers: 1,
        cache: false,
        ..ServeConfig::default()
    };
    let server = Server::start(Arc::new(data), 1, cfg);
    let handle = server.handle();
    for stage in crate::schedule::INTERACTIVE
        .iter()
        .chain(&crate::schedule::SLOW)
    {
        let body = handle.submit(stage, None).expect("served");
        check_body(&bodies, stage, &body).expect("served body equals the reference section");
    }
    let body = handle.submit("table1", None).expect("served").to_string();
    let mut bytes = body.into_bytes();
    let at = bytes.len() / 2;
    bytes[at] ^= 0x01;
    let flipped = String::from_utf8_lossy(&bytes).into_owned();
    assert!(check_body(&bodies, "table1", &flipped).is_err());
    server.drain();
    let _ = std::fs::remove_dir_all(dir);
}
