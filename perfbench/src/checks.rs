//! Output checks. Every workload compares what the program produced with
//! a reference built independently of the path under test: the report
//! and each served stage body against the in-memory pipeline's report
//! (`full_report` over `StudyData::generate`), and a written store
//! against its own manifest, page checksums and the simulator's counts.

use std::collections::BTreeMap;
use std::path::Path;

use ndt_analysis::report::{ANALYSIS_STAGES, COVERAGE_TITLE};
use ndt_store::Shard;
use ndt_vfs::VfsHandle;

fn header(title: &str) -> String {
    format!("== {title} ==\n")
}

/// Finds `needle` at a line start in `text`, at or after `from`.
fn find_line(text: &str, needle: &str, from: usize) -> Option<usize> {
    let mut at = from;
    loop {
        let i = text[at..].find(needle)? + at;
        if i == 0 || text.as_bytes()[i - 1] == b'\n' {
            return Some(i);
        }
        at = i + 1;
    }
}

/// Splits a full report into the body `serve` answers for each stage:
/// the section's `== title ==` line and its text, without the blank line
/// the report puts between sections.
pub fn stage_bodies(report: &str) -> Result<BTreeMap<&'static str, String>, String> {
    let mut bodies = BTreeMap::new();
    let mut at = 0;
    let titles: Vec<&str> = ANALYSIS_STAGES
        .iter()
        .map(|s| s.title)
        .chain([COVERAGE_TITLE])
        .collect();
    let mut starts = Vec::with_capacity(titles.len());
    for title in &titles {
        let i = find_line(report, &header(title), at)
            .ok_or_else(|| format!("reference report has no section {title:?}"))?;
        starts.push(i);
        at = i + 1;
    }
    for (k, spec) in ANALYSIS_STAGES.iter().enumerate() {
        let section = &report[starts[k]..starts[k + 1]];
        let body = section
            .strip_suffix('\n')
            .ok_or_else(|| format!("section {} does not end in a blank line", spec.name))?;
        bodies.insert(spec.name, body.to_string());
    }
    Ok(bodies)
}

/// The first line where `got` departs from `want`, for a finding.
fn first_difference(want: &str, got: &str) -> String {
    let line = want
        .lines()
        .zip(got.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| want.lines().count().min(got.lines().count()));
    format!(
        "first difference at line {}: want {:?}, got {:?} ({} vs {} bytes)",
        line + 1,
        want.lines().nth(line).unwrap_or("<end>"),
        got.lines().nth(line).unwrap_or("<end>"),
        want.len(),
        got.len()
    )
}

/// The report must equal the reference byte for byte.
pub fn check_report(want: &str, got: &str) -> Result<(), String> {
    if want == got {
        Ok(())
    } else {
        Err(format!(
            "report differs from the in-memory reference: {}",
            first_difference(want, got)
        ))
    }
}

/// A served body must equal the reference section of its stage.
pub fn check_body(
    bodies: &BTreeMap<&'static str, String>,
    stage: &str,
    got: &str,
) -> Result<(), String> {
    let want = bodies
        .get(stage)
        .ok_or_else(|| format!("no reference body for stage {stage}"))?;
    if want == got {
        Ok(())
    } else {
        Err(format!(
            "{stage} body differs from the reference: {}",
            first_difference(want, got)
        ))
    }
}

/// A written store: the manifest lists exactly `stems`, every listed
/// shard file reopens and passes its page checksums, and the rows
/// written equal the rows the simulator published.
pub fn check_store(
    dir: &Path,
    stems: &[String],
    rows_written: u64,
    rows_published: u64,
) -> Result<(), String> {
    if rows_written != rows_published {
        return Err(format!(
            "store holds {rows_written} rows but the simulator published {rows_published}"
        ));
    }
    let manifest = std::fs::read_to_string(dir.join(ndt_runner::STORE_MANIFEST))
        .map_err(|e| format!("manifest unreadable: {e}"))?;
    let listed: Vec<&str> = manifest
        .lines()
        .filter_map(|l| l.strip_prefix("shard "))
        .collect();
    if listed != stems.iter().map(String::as_str).collect::<Vec<_>>() {
        return Err(format!(
            "manifest lists {listed:?}, generation reported {stems:?}"
        ));
    }
    let vfs = VfsHandle::real();
    for stem in stems {
        for kind in ["unified", "traces"] {
            let path = dir.join(format!("{stem}.{kind}.ndts"));
            Shard::open_with(&vfs, &path)
                .and_then(|s| s.verify_payloads())
                .map_err(|e| format!("{} does not verify: {e}", path.display()))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report shaped like `assemble_staged_report`'s output.
    fn report() -> String {
        let mut out = String::new();
        for spec in &ANALYSIS_STAGES {
            out.push_str(&header(spec.title));
            out.push_str(&format!("body of {}\n== not a header ==\n", spec.name));
            out.push('\n');
        }
        out.push_str(&header(COVERAGE_TITLE));
        out.push_str("all clean\n\n");
        out
    }

    #[test]
    fn splits_the_report_into_served_bodies() {
        let bodies = stage_bodies(&report()).expect("well-formed");
        assert_eq!(bodies.len(), ANALYSIS_STAGES.len());
        let title = ANALYSIS_STAGES[6].title;
        assert_eq!(
            bodies["table3"],
            format!("== {title} ==\nbody of table3\n== not a header ==\n")
        );
    }

    #[test]
    fn a_missing_stage_section_fails() {
        let full = report();
        let cut = full.replace(&header(ANALYSIS_STAGES[4].title), "");
        assert!(stage_bodies(&cut).is_err());
        assert!(check_report(&full, &cut).is_err());
    }

    #[test]
    fn a_flipped_byte_in_a_served_body_fails() {
        let bodies = stage_bodies(&report()).expect("well-formed");
        let good = bodies["fig2"].clone();
        assert!(check_body(&bodies, "fig2", &good).is_ok());
        let mut bytes = good.into_bytes();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x01;
        let flipped = String::from_utf8(bytes).expect("ascii");
        let err = check_body(&bodies, "fig2", &flipped).expect_err("flipped byte detected");
        assert!(err.contains("fig2"), "{err}");
        assert!(check_body(&bodies, "nope", "x").is_err());
    }

    #[test]
    fn an_identical_report_passes() {
        assert!(check_report(&report(), &report()).is_ok());
    }

    #[test]
    fn a_store_with_fewer_rows_than_published_fails() {
        let err = check_store(Path::new("."), &[], 10, 11).expect_err("row mismatch");
        assert!(err.contains("published"), "{err}");
    }
}
