//! Per-seed preparation, outside every metric: the columnar store that
//! `report` and `serve` read, and the reference report their outputs are
//! checked against, built by the other path — the in-memory pipeline,
//! `full_report` over `StudyData::generate`. Prepared inputs are cached
//! per seed and per benchmark executable, so repeated runs of a seed
//! reuse them.

use std::path::{Path, PathBuf};

use ndt_analysis::{full_report, StudyData};
use ndt_runner::{run_store_generate, PipelineConfig, StageStatus};

const READY: &str = "READY";
const REFERENCE: &str = "reference.txt";
const STORE: &str = "store";
/// Prepared seeds kept on disk (about 110 MB each), so a seed that
/// several workloads run is prepared once; older ones are removed.
const KEEP: usize = 12;

/// A prepared seed: store directory, reference report and the store's
/// byte accounting.
pub struct Prepared {
    pub store: PathBuf,
    pub reference: String,
    /// Shard file bytes over the raw row bytes of the same values.
    pub disk_ratio: f64,
}

/// A short key of the executable, so a rebuilt benchmark never trusts
/// inputs an older build prepared.
fn exe_key(exe: &Path) -> String {
    let meta = std::fs::metadata(exe).ok();
    let len = meta.as_ref().map_or(0, |m| m.len());
    let mtime = meta
        .and_then(|m| m.modified().ok())
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos() as u64);
    format!(
        "{:016x}",
        ndt_store::wire::fnv1a64(format!("{len}/{mtime}").as_bytes())
    )
}

/// The cache directory of `seed` for this executable.
pub fn dir_for(work: &Path, exe: &Path, seed: u64) -> PathBuf {
    work.join(format!("prep-{seed}-{}", exe_key(exe)))
}

pub fn is_ready(dir: &Path) -> bool {
    dir.join(READY).exists()
}

/// Removes prepared seeds beyond the [`KEEP`] most recently used,
/// never `keep`.
pub fn evict_others(work: &Path, keep: &Path) {
    let _ = std::fs::File::create(keep.join(READY)); // touch: most recent
    let Ok(entries) = std::fs::read_dir(work) else {
        return;
    };
    let mut preps: Vec<(std::time::SystemTime, PathBuf)> = entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("prep-"))
        .map(|e| {
            let t = std::fs::metadata(e.path().join(READY))
                .and_then(|m| m.modified())
                .unwrap_or(std::time::UNIX_EPOCH);
            (t, e.path())
        })
        .collect();
    preps.sort();
    let excess = preps.len().saturating_sub(KEEP);
    for (_, path) in preps.into_iter().take(excess) {
        if path != keep {
            let _ = std::fs::remove_dir_all(path);
        }
    }
}

/// Builds the store and the reference report for `seed` into `dir`.
pub fn prepare(seed: u64, dir: &Path) -> Result<(), String> {
    let tmp = dir.with_extension("tmp");
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).map_err(|e| e.to_string())?;
    let sim = crate::sim_config(seed);
    let mut cfg = PipelineConfig::new(sim, tmp.join("out"));
    cfg.checkpoints = false;
    let (summary, records) =
        run_store_generate(&cfg, &tmp.join(STORE)).map_err(|e| format!("store generation: {e}"))?;
    if let Some(r) = records.iter().find(|r| r.status != StageStatus::Computed) {
        return Err(format!(
            "store generation stage {} ended {:?}",
            r.name, r.status
        ));
    }
    let data = StudyData::generate(sim);
    let reference = full_report(&data)
        .map_err(|e| format!("reference report: {e}"))?
        .render();
    std::fs::write(tmp.join(REFERENCE), reference).map_err(|e| e.to_string())?;
    let ratio = summary.stats.bytes_file as f64 / summary.stats.bytes_raw as f64;
    std::fs::write(tmp.join("disk_ratio.txt"), format!("{ratio:?}\n"))
        .map_err(|e| e.to_string())?;
    std::fs::write(tmp.join(READY), "").map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(dir);
    std::fs::rename(&tmp, dir).map_err(|e| e.to_string())
}

impl Prepared {
    pub fn load(dir: &Path) -> Result<Self, String> {
        let read = |name: &str| {
            std::fs::read_to_string(dir.join(name))
                .map_err(|e| format!("{}: {e}", dir.join(name).display()))
        };
        Ok(Prepared {
            store: dir.join(STORE),
            reference: read(REFERENCE)?,
            disk_ratio: read("disk_ratio.txt")?
                .trim()
                .parse()
                .map_err(|_| "bad disk_ratio.txt".to_string())?,
        })
    }
}
