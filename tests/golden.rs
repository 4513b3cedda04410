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
