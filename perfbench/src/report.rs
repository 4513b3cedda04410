//! The `report` workload: `run_report_from_store_with` (vectorized
//! engine, two threads) over the seed's prepared store, job after job.
//!
//! The store is read here where `build` writes it, and `ndt-analysis`
//! does most of the work: every one of the eighteen stages plus report
//! assembly, and no simulation at all.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ndt_analysis::{assemble_staged_report, run_analysis_stage, ANALYSIS_STAGES};
use ndt_mlab::columnar::{scan_traces, scan_unified_batches, RowFilter};
use ndt_runner::{
    load_study_data_with, run_isolated, run_report_from_store_with, ExecPolicy, ScanEngine,
    StageFault, StageStatus,
};
use ndt_store::Shard;
use ndt_vfs::VfsHandle;

use crate::metrics::Outcome;
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::{checks, procfs, Run, THREADS};

/// One report job's figures.
struct Job {
    setup_s: f64,
    wall_s: f64,
    peak_mb: f64,
    cpu_s: f64,
    rows: u64,
}

fn rows_read() -> u64 {
    ndt_obs::global().counter("store.rows_read")
}

/// Total time the program has spent in its own store load, from the
/// runner's `stage.store-read` span (recorded while `ndt_obs` is on).
fn store_read_s() -> f64 {
    ndt_obs::global()
        .span_stat("stage.store-read")
        .map_or(0.0, |s| s.total_nanos as f64 / 1e9)
}

/// Reads every file of the store once, so each job starts from the same
/// warm page cache. This is preparation, not timed.
fn warm(store: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(store)? {
        let path = entry?.path();
        if path.is_file() {
            std::hint::black_box(std::fs::read(&path)?);
        }
    }
    Ok(())
}

/// Runs one job over the prepared store and checks its report.
///
/// Set-up is the job's own store load, the part of
/// `run_report_from_store_with` before its first analysis stage, as the
/// runner's `stage.store-read` span times it: work moved from the
/// analyses into the load shows there.
fn job(run: &Run, out: &mut Outcome) -> Option<Job> {
    let prepared = run.prepared();
    if let Err(e) = warm(&prepared.store) {
        out.fail(format!("cannot read the store: {e}"));
        return None;
    }
    let vfs = VfsHandle::real();
    procfs::reset_peak();
    let read0 = store_read_s();
    let rows0 = rows_read();
    let cpu0 = procfs::cpu_s();
    let t1 = Instant::now();
    let outcome = run_report_from_store_with(
        &prepared.store,
        ExecPolicy::default(),
        &vfs,
        ScanEngine::Vectorized,
        THREADS,
    );
    let wall_s = t1.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_s() - cpu0;
    let peak_mb = procfs::peak_rss_mb();
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            out.attempted += 1;
            out.failed += 1;
            out.fail(format!("report failed: {e}"));
            return None;
        }
    };
    out.attempted += outcome.records.len() as u64;
    let failed: Vec<&str> = outcome
        .records
        .iter()
        .filter(|r| matches!(r.status, StageStatus::Failed(_)))
        .map(|r| r.name.as_str())
        .collect();
    out.failed += failed.len() as u64;
    if !failed.is_empty() {
        out.fail(format!("failed stage records: {failed:?}"));
    }
    if let Err(e) = checks::check_report(&prepared.reference, &outcome.report) {
        out.fail(e);
    }
    let setup_s = store_read_s() - read0;
    if setup_s <= 0.0 {
        out.fail("the runner recorded no store-read span");
    }
    Some(Job {
        setup_s,
        wall_s,
        peak_mb,
        cpu_s,
        rows: rows_read() - rows0,
    })
}

/// The untraced run: the end-to-end metrics, over jobs back to back.
pub fn measure(run: &Run) -> Outcome {
    ndt_obs::set_enabled(true);
    let mut out = Outcome::new();
    let started = Instant::now();
    let mut done = Vec::new();
    while done.is_empty() || started.elapsed().as_secs_f64() < run.seconds {
        match job(run, &mut out) {
            Some(j) => done.push(j),
            None => break,
        }
    }
    if done.is_empty() {
        return out;
    }
    let n = done.len();
    eprintln!(
        "perfbench: {n} timed jobs, wall s {:?}, set-up s {:?}",
        done.iter()
            .map(|j| (j.wall_s * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        done.iter()
            .map(|j| (j.setup_s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    let walls: Vec<f64> = done.iter().map(|j| j.wall_s * 1e3).collect();
    let rates: Vec<f64> = done.iter().map(|j| j.rows as f64 / j.wall_s).collect();
    let setups: Vec<f64> = done.iter().map(|j| j.setup_s).collect();
    let peaks: Vec<f64> = done.iter().map(|j| j.peak_mb).collect();
    out.set("setup_s", median(&setups).unwrap_or(0.0), n);
    out.set("peak_rss_mb", median(&peaks).unwrap_or(0.0), n);
    out.set("rows_per_s", median(&rates).unwrap_or(0.0), n);
    out.set("disk_bytes_per_raw_byte", run.prepared().disk_ratio, 1);
    out.set("latency_p50_ms", median(&walls).unwrap_or(0.0), n);
    out.set("latency_p99_ms", tail(&walls).map_or(0.0, |t| t.1), n);
    out
}

/// Scans every shard of the store at the load's thread budget — the
/// same shard-pair workers `load_study_data_with` runs — without building
/// any table. Returns the scan's wall time; `store.unified_scan_s` and
/// `store.traces_scan_s` are each kind's scan time summed over the
/// workers.
fn scan_store(store: &Path, tracer: &Tracer, out: &mut Outcome) -> f64 {
    let manifest =
        std::fs::read_to_string(store.join(ndt_runner::STORE_MANIFEST)).unwrap_or_default();
    let stems: Vec<&str> = manifest
        .lines()
        .filter_map(|l| l.strip_prefix("shard "))
        .collect();
    let vfs = VfsHandle::real();
    let next = AtomicUsize::new(0);
    let totals = Mutex::new((0.0, 0.0, Vec::<String>::new()));
    let t = Instant::now();
    let root = tracer.span("store.scan", 0);
    let root_id = root.id();
    std::thread::scope(|scope| {
        for _ in 0..THREADS.min(stems.len()) {
            let (next, stems, totals, vfs) = (&next, &stems, &totals, &vfs);
            scope.spawn(move || {
                while let Some(stem) = stems.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let t = Instant::now();
                    let unified = {
                        let _s = tracer.span("store.unified_scan", root_id);
                        Shard::open_with(vfs, store.join(format!("{stem}.unified.ndts"))).and_then(
                            |s| {
                                scan_unified_batches(&s, RowFilter::default(), |b| {
                                    drop(std::hint::black_box(b))
                                })
                            },
                        )
                    };
                    let unified_s = t.elapsed().as_secs_f64();
                    let t = Instant::now();
                    let traces = {
                        let _s = tracer.span("store.traces_scan", root_id);
                        Shard::open_with(vfs, store.join(format!("{stem}.traces.ndts")))
                            .and_then(|s| scan_traces(&s, RowFilter::default()))
                    };
                    let traces_s = t.elapsed().as_secs_f64();
                    let mut totals = totals.lock().expect("scan totals lock");
                    totals.0 += unified_s;
                    totals.1 += traces_s;
                    match (unified, traces) {
                        (Ok(_), Ok((rows, _))) => drop(std::hint::black_box(rows)),
                        (Err(e), _) | (_, Err(e)) => totals.2.push(format!("scan of {stem}: {e}")),
                    }
                }
            });
        }
    });
    drop(root);
    let wall = t.elapsed().as_secs_f64();
    let (unified_s, traces_s, errors) = totals.into_inner().unwrap_or_default();
    for e in errors {
        out.fail(e);
    }
    out.set("store.unified_scan_s", unified_s, stems.len());
    out.set("store.traces_scan_s", traces_s, stems.len());
    out.set("store.scan_s", wall, 1);
    wall
}

/// What one pass of the copied job measured.
struct Copy {
    wall_s: f64,
    rss_after_load_mb: f64,
    rows_read: u64,
    pages_skipped: u64,
}

/// The job as its layer calls, with a span around each: the store load,
/// every analysis stage the way `Pipeline::stage` runs it (a counter
/// snapshot and delta around `run_isolated`, a thread per stage; the
/// stage span's self time is that isolation, its `.compute` child the
/// analysis), the release of the loaded data, and report assembly. With
/// [`Tracer::noop`] it is the same path without spans.
fn copied_job(run: &Run, tracer: &Arc<Tracer>, out: &mut Outcome) -> Option<Copy> {
    let prepared = run.prepared();
    if let Err(e) = warm(&prepared.store) {
        out.fail(format!("cannot read the store: {e}"));
        return None;
    }
    let vfs = VfsHandle::real();
    let rows0 = rows_read();
    let skipped0 = ndt_obs::global().counter("store.pages_skipped");
    let t = Instant::now();
    let root = tracer.span("report", 0);
    let loaded = {
        let _s = tracer.span("store.read", root.id());
        load_study_data_with(&vfs, &prepared.store, ScanEngine::Vectorized, THREADS)
    };
    let (data, quarantined) = match loaded {
        Ok(l) => l,
        Err(e) => {
            out.fail(format!("load failed: {e}"));
            return None;
        }
    };
    let rss_after_load_mb = procfs::rss_mb();
    if !quarantined.is_empty() {
        out.fail(format!("{} shard(s) quarantined", quarantined.len()));
    }
    let data = Arc::new(data);
    let mut outputs = Vec::with_capacity(ANALYSIS_STAGES.len());
    for spec in &ANALYSIS_STAGES {
        let stage = tracer.span(&format!("analysis.{}", spec.name), root.id());
        let (name, data, tracer, parent) =
            (spec.name, Arc::clone(&data), Arc::clone(tracer), stage.id());
        let before = ndt_obs::counters_snapshot();
        let ran = run_isolated(name, &ExecPolicy::default(), move |_cancel| {
            let _s = tracer.span(&format!("analysis.{name}.compute"), parent);
            run_analysis_stage(name, &data).map_err(|e| StageFault::permanent(e.to_string()))
        });
        std::hint::black_box(ndt_obs::delta_since(&before));
        match ran {
            Ok(o) => outputs.push(o),
            Err(e) => out.fail(format!("stage {}: {e}", spec.name)),
        }
    }
    {
        let _s = tracer.span("store.release", root.id());
        drop(data);
    }
    let report = {
        let _s = tracer.span("report.assemble", root.id());
        assemble_staged_report(&outputs, &[])
    };
    drop(root);
    let wall_s = t.elapsed().as_secs_f64();
    if let Err(e) = checks::check_report(&prepared.reference, &report) {
        out.fail(format!("copied job: {e}"));
    }
    Some(Copy {
        wall_s,
        rss_after_load_mb,
        rows_read: rows_read() - rows0,
        pages_skipped: ndt_obs::global().counter("store.pages_skipped") - skipped0,
    })
}

/// The traced run. After a warm-up job, the program's own job and the
/// copied job with a no-op tracer run before and after the traced copy:
/// the copy without spans is the base of `trace.overhead_pct`, so that
/// figure is what the spans cost, and the program's jobs give the copy's
/// gap to `run_report_from_store_with` (each base the mean of before and
/// after, so a drift in machine speed during the run cancels). Then a
/// scan-only pass over the store.
pub fn traced(run: &Run) -> Outcome {
    ndt_obs::set_enabled(true);
    let mut out = Outcome::new();
    let Some(before) = job(run, &mut out).and_then(|_| job(run, &mut out)) else {
        return out;
    };
    let noop = Arc::new(Tracer::noop());
    let tracer = Arc::new(Tracer::new());
    let Some(base_before) = copied_job(run, &noop, &mut out) else {
        return out;
    };
    let Some(traced) = copied_job(run, &tracer, &mut out) else {
        return out;
    };
    let Some(base_after) = copied_job(run, &noop, &mut out) else {
        return out;
    };
    let Some(after) = job(run, &mut out) else {
        return out;
    };
    eprintln!(
        "perfbench: wall s: program {:.3}, copy without spans {:.3}, traced copy {:.3}, \
         copy without spans {:.3}, program {:.3}",
        before.wall_s, base_before.wall_s, traced.wall_s, base_after.wall_s, after.wall_s
    );
    let base_s = (base_before.wall_s + base_after.wall_s) / 2.0;
    let program_s = (before.wall_s + after.wall_s) / 2.0;
    out.set("store.rss_after_load_mb", traced.rss_after_load_mb, 1);
    out.set("store.rows_read", traced.rows_read as f64, 1);
    out.set("store.pages_skipped", traced.pages_skipped as f64, 1);

    let totals = tracer.totals();
    let secs = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9);
    let read_s = secs("store.read");
    out.set("store.read_s", read_s, 1);
    let mut analysis_s = 0.0;
    for d in crate::metrics::PER_LAYER
        .iter()
        .filter(|d| d.name.starts_with("analysis.") && d.name.ends_with("_ms"))
    {
        let stage = &d.name["analysis.".len()..d.name.len() - "_ms".len()];
        let s = secs(&format!("analysis.{stage}"));
        analysis_s += s;
        out.set(d.name, s * 1e3, 1);
    }
    out.set("analysis.total_s", analysis_s, ANALYSIS_STAGES.len());
    out.set("report.assemble_ms", secs("report.assemble") * 1e3, 1);
    out.set("store.release_ms", secs("store.release") * 1e3, 1);
    out.set(
        "process.cpu_per_wall",
        (before.cpu_s + after.cpu_s) / (before.wall_s + after.wall_s),
        2,
    );
    let overhead_pct = (traced.wall_s - base_s) / base_s * 100.0;
    out.set("trace.untraced_s", base_s, 2);
    out.set("trace.traced_s", traced.wall_s, 1);
    out.set("trace.overhead_pct", overhead_pct, 1);
    out.set("trace.program_s", program_s, 2);
    out.set(
        "trace.replica_gap_pct",
        (base_s - program_s) / program_s * 100.0,
        2,
    );
    // The accounting check: the traced layer calls against the
    // program's own untraced wall time.
    let accounted = read_s + analysis_s + secs("store.release") + secs("report.assemble");
    eprintln!(
        "perfbench: read + analysis + release + assemble = {accounted:.3} s of {program_s:.3} s \
         untraced run_report_from_store_with wall ({:+.1}%; trace overhead {overhead_pct:+.1}%)",
        (accounted - program_s) / program_s * 100.0
    );

    let scan_s = scan_store(&run.prepared().store, &tracer, &mut out);
    out.set("bq.ingest_s", read_s - scan_s, 1);
    crate::finish_trace(run, "report", &tracer);
    out
}
