//! The `build` workload: generate the columnar store with
//! `run_store_generate` under a two-thread budget, job after job.
//!
//! Almost all of its time goes to the simulator (`mlab`), routing
//! (`topology`), the TCP model (`tcp`) and shard encoding and writing
//! (`store`, `runner`); it never touches `bq`, `analysis` or `serve`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ndt_mlab::columnar::{write_traces, write_unified};
use ndt_mlab::sim::SimConfig;
use ndt_mlab::Simulator;
use ndt_runner::{
    run_store_generate, write_atomic, PipelineConfig, StageStatus, CORPUS_SHARD_DAYS,
};
use ndt_topology::{build_topology, RoutingEngine, TopologyConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::Outcome;
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::{checks, procfs, sim_config, Run};

/// Set-ups timed after each job; `setup_s` is the median over the run.
const SETUPS_PER_JOB: usize = 3;

/// One generate job's figures.
struct Job {
    wall_s: f64,
    peak_mb: f64,
    rows: u64,
    disk_ratio: f64,
}

fn published_rows() -> u64 {
    ndt_obs::global().counter("sim.ndt_rows_published")
        + ndt_obs::global().counter("sim.traces_published")
}

/// Set-up: what a generate job does before it simulates anything. Each
/// of its two shard workers builds its platform — `Simulator::new` at the
/// worker's configuration: the topology, the client population and its
/// site and alias tables — and both do so at once. `run_store_generate`
/// offers no hook to time that inside the job, so one sample is the wall
/// time of the same two constructions on two threads, and the run takes
/// [`SETUPS_PER_JOB`] samples after each job; `setup_s` is their median.
/// Spreading the samples over the run, as the jobs are, evens out the
/// shared machine's swings in speed, which move a single third-of-a-second
/// construction by a fifth from one to the next. Work moved into
/// construction (precomputed route tables, say) shows here and in the
/// jobs alike.
fn setups(run: &Run) -> Vec<f64> {
    let worker = SimConfig {
        threads: 1,
        ..sim_config(run.seed)
    };
    (0..SETUPS_PER_JOB)
        .map(|_| {
            let t = Instant::now();
            std::thread::scope(|scope| {
                for _ in 0..crate::THREADS {
                    scope.spawn(|| drop(std::hint::black_box(Simulator::new(worker))));
                }
            });
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// Runs one job into `store` and checks what it wrote. Clearing the
/// previous job's store is not timed: removing files measures the file
/// system, which drifts more than the program.
fn job(run: &Run, store: &Path, out: &mut Outcome) -> Option<Job> {
    if store.exists() {
        if let Err(e) = std::fs::remove_dir_all(store) {
            out.fail(format!("cannot clear {}: {e}", store.display()));
            return None;
        }
    }
    procfs::reset_peak();
    let mut cfg = PipelineConfig::new(sim_config(run.seed), run.work.join("build-out"));
    cfg.checkpoints = false;

    let published_before = published_rows();
    let t1 = Instant::now();
    let generated = run_store_generate(&cfg, store);
    let wall_s = t1.elapsed().as_secs_f64();
    let peak_mb = procfs::peak_rss_mb();
    let (summary, records) = match generated {
        Ok(g) => g,
        Err(e) => {
            out.attempted += 1;
            out.failed += 1;
            out.fail(format!("generate failed: {e}"));
            return None;
        }
    };
    out.attempted += records.len() as u64;
    let failed = records
        .iter()
        .filter(|r| r.status != StageStatus::Computed)
        .count() as u64;
    out.failed += failed;
    if failed > 0 {
        out.fail(format!("{failed} generate stage(s) did not compute"));
    }
    let published = published_rows() - published_before;
    if let Err(e) = checks::check_store(store, &summary.shards, summary.stats.rows, published) {
        out.fail(e);
    }
    Some(Job {
        wall_s,
        peak_mb,
        rows: summary.stats.rows,
        disk_ratio: summary.stats.bytes_file as f64 / summary.stats.bytes_raw as f64,
    })
}

/// The untraced run: the end-to-end metrics, over jobs and set-ups back
/// to back (a closed loop) until `run.seconds` have passed.
///
/// `peak_rss_mb` is the process's peak over its first job, which runs
/// before anything else in a fresh process, as one `generate` does.
/// Later jobs start from the heap the earlier ones left behind, and how
/// much of it the allocator still holds swings their peaks between about
/// 190 and 340 MB.
pub fn measure(run: &Run) -> Outcome {
    let mut out = Outcome::new();
    let store = run.work.join("build-store");
    let started = Instant::now();
    let (mut setups_s, mut done) = (Vec::new(), Vec::new());
    while done.is_empty() || started.elapsed().as_secs_f64() < run.seconds {
        match job(run, &store, &mut out) {
            Some(j) => done.push(j),
            None => break,
        }
        setups_s.extend(setups(run));
    }
    if done.is_empty() {
        return out;
    }
    let n = done.len();
    eprintln!(
        "perfbench: {n} timed jobs, wall s {:?}, peak MB {:?}; set-up s {:?}",
        done.iter()
            .map(|j| (j.wall_s * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        done.iter().map(|j| j.peak_mb.round()).collect::<Vec<_>>(),
        setups_s
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    let walls: Vec<f64> = done.iter().map(|j| j.wall_s * 1e3).collect();
    let rates: Vec<f64> = done.iter().map(|j| j.rows as f64 / j.wall_s).collect();
    out.set("setup_s", median(&setups_s).unwrap_or(0.0), setups_s.len());
    out.set("peak_rss_mb", done[0].peak_mb, 1);
    out.set("rows_per_s", median(&rates).unwrap_or(0.0), n);
    out.set("disk_bytes_per_raw_byte", done[0].disk_ratio, n);
    out.set("latency_p50_ms", median(&walls).unwrap_or(0.0), n);
    out.set("latency_p99_ms", tail(&walls).map_or(0.0, |t| t.1), n);
    out
}

/// Shard file names, as the runner writes them.
fn shard_paths(dir: &Path, range: &std::ops::Range<i64>) -> (PathBuf, PathBuf) {
    let stem = format!("traced-{:03}-{:03}", range.start, range.end);
    (
        dir.join(format!("{stem}.unified.ndts")),
        dir.join(format!("{stem}.traces.ndts")),
    )
}

/// The traced replica of `run_store_generate`: the same pool shape (two
/// shard workers with one engine each, encode and write on background
/// threads while the next shard simulates), with a span around each call
/// into `mlab`, `store` and `runner`. Unlike the runner it encodes each
/// shard into memory and then writes it with `write_atomic` (the runner
/// streams through its atomic file), so that encoding and writing time
/// apart, and it sweeps no temporaries and writes no manifest;
/// `trace.replica_gap_pct` is what these differences come to.
fn traced_generate(run: &Run, tracer: &Tracer, dir: &Path, out: &mut Outcome) -> f64 {
    let _ = std::fs::remove_dir_all(dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        out.fail(format!("cannot create {}: {e}", dir.display()));
        return 0.0;
    }
    let cfg = sim_config(run.seed);
    let shards = cfg.shards(CORPUS_SHARD_DAYS);
    let workers = crate::THREADS.min(shards.len());
    let worker_cfg = SimConfig { threads: 1, ..cfg };
    let next = AtomicUsize::new(0);
    let errors = Mutex::new(Vec::<String>::new());
    let bytes_written = std::sync::atomic::AtomicU64::new(0);
    let t = Instant::now();
    let root = tracer.span("build", 0);
    let root_id = root.id();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (next, shards, errors, bytes_written) = (&next, &shards, &errors, &bytes_written);
            scope.spawn(move || {
                let mut sim = Simulator::new(worker_cfg);
                std::thread::scope(|wscope| {
                    let mut writers = Vec::new();
                    while let Some(range) = shards.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let shard = tracer.span("shard", root_id);
                        let shard_id = shard.id();
                        let ds = {
                            let _s = tracer.span("mlab.sim", shard_id);
                            sim.run_range(range.clone())
                        };
                        let (upath, tpath) = shard_paths(dir, range);
                        writers.push(wscope.spawn(move || {
                            let encoded = {
                                let _s = tracer.span("store.encode", shard_id);
                                write_unified(Vec::new(), &ds.ndt).and_then(|(u, _)| {
                                    write_traces(Vec::new(), &ds.traces).map(|(t, _)| (u, t))
                                })
                            };
                            let written = encoded.map_err(|e| e.to_string()).and_then(|(u, t)| {
                                let _s = tracer.span("runner.write", shard_id);
                                bytes_written
                                    .fetch_add((u.len() + t.len()) as u64, Ordering::Relaxed);
                                write_atomic(&upath, &u)
                                    .and_then(|()| write_atomic(&tpath, &t))
                                    .map_err(|e| e.to_string())
                            });
                            if let Err(e) = written {
                                errors.lock().expect("error list lock").push(e);
                            }
                        }));
                        drop(shard);
                        // Writers in flight per worker, as in the runner.
                        if writers.len() >= 2 {
                            let _ = writers.remove(0).join();
                        }
                    }
                });
            });
        }
    });
    drop(root);
    let wall = t.elapsed().as_secs_f64();
    for e in errors.into_inner().unwrap_or_default() {
        out.fail(format!("traced generate: {e}"));
    }
    out.set(
        "store.bytes_written",
        bytes_written.into_inner() as f64,
        shards.len(),
    );
    let _ = std::fs::remove_dir_all(dir);
    wall
}

/// Seconds and simulated tests of one `run_range` call.
fn timed_range(sim: &mut Simulator, range: std::ops::Range<i64>) -> (f64, u64) {
    let tests0 = ndt_obs::global().counter("sim.tests");
    let t = Instant::now();
    let ds = sim.run_range(range);
    let s = t.elapsed().as_secs_f64();
    std::hint::black_box(ds);
    (s, ndt_obs::global().counter("sim.tests") - tests0)
}

/// The probes behind the per-call layer figures.
fn probes(run: &Run, tracer: &Tracer, out: &mut Outcome) {
    let root = tracer.span("probes", 0);
    // Topology construction.
    let builds: Vec<f64> = (0..3)
        .map(|_| {
            let _s = tracer.span("topology.build", root.id());
            let t = Instant::now();
            std::hint::black_box(build_topology(&TopologyConfig::default()));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.set(
        "topology.build_ms",
        median(&builds).unwrap_or(0.0),
        builds.len(),
    );

    // Route selection per (M-Lab host AS, access AS) pair: cold right
    // after `clear_cache`, warm with the cache filled.
    let bt = build_topology(&TopologyConfig::default());
    let mut hosts: Vec<_> = bt.mlab_hosts.iter().map(|h| h.asn).collect();
    hosts.sort_unstable();
    hosts.dedup();
    let mut access: Vec<_> = bt
        .market_shares
        .values()
        .flatten()
        .map(|(asn, _)| *asn)
        .collect();
    access.sort_unstable();
    access.dedup();
    let mut rng = StdRng::seed_from_u64(run.seed ^ 0x7007);
    let pairs: Vec<_> = (0..256)
        .map(|_| {
            let h = hosts[(rng.next_u64() % hosts.len() as u64) as usize];
            let a = access[(rng.next_u64() % access.len() as u64) as usize];
            (h, a)
        })
        .collect();
    let mut engine = RoutingEngine::new();
    let mut time_pairs = |engine: &mut RoutingEngine, name: &str| -> Vec<f64> {
        let _s = tracer.span(name, root.id());
        pairs
            .iter()
            .map(|&(h, a)| {
                let t = Instant::now();
                std::hint::black_box(engine.select_path(&bt.topology, h, a, &mut rng));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect()
    };
    engine.clear_cache();
    let cold = time_pairs(&mut engine, "topology.route_cold");
    let warm = time_pairs(&mut engine, "topology.route_warm");
    out.set(
        "topology.route_cold_us",
        median(&cold).unwrap_or(0.0),
        cold.len(),
    );
    out.set(
        "topology.route_warm_us",
        median(&warm).unwrap_or(0.0),
        warm.len(),
    );

    // The TCP model: batches of bulk transfers over seeded paths.
    {
        let _s = tracer.span("tcp.transfer", root.id());
        let transfer = ndt_tcp::BulkTransfer::default();
        let paths: Vec<_> = (0..1000)
            .map(|_| {
                let u = |rng: &mut StdRng| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                ndt_tcp::PathCharacteristics::new(
                    5.0 + 200.0 * u(&mut rng),
                    2.0 + 300.0 * u(&mut rng),
                    0.05 * u(&mut rng),
                )
            })
            .collect();
        let batches: Vec<f64> = (0..20)
            .map(|_| {
                let t = Instant::now();
                for p in &paths {
                    std::hint::black_box(transfer.run(p, &mut rng));
                }
                t.elapsed().as_nanos() as f64 / paths.len() as f64
            })
            .collect();
        out.set(
            "tcp.transfer_ns",
            median(&batches).unwrap_or(0.0),
            batches.len() * paths.len(),
        );
    }

    // Simulator cost per test before and during the war, and the
    // parallel efficiency of one war shard at one against two engines.
    let cfg = sim_config(run.seed);
    let shards = cfg.shards(CORPUS_SHARD_DAYS);
    let (war_start, _) = ndt_scenario::calendar::Period::Wartime2022.day_range();
    let prewar = shards.iter().rev().find(|r| r.end <= war_start).cloned();
    let war = shards.iter().find(|r| r.start >= war_start).cloned();
    if let (Some(prewar), Some(war)) = (prewar, war) {
        let mut one = Simulator::new(SimConfig { threads: 1, ..cfg });
        let (pre_s, pre_tests) = {
            let _s = tracer.span("mlab.sim_prewar_1engine", root.id());
            timed_range(&mut one, prewar)
        };
        let (war1_s, war_tests) = {
            let _s = tracer.span("mlab.sim_war_1engine", root.id());
            timed_range(&mut one, war.clone())
        };
        let mut two = Simulator::new(SimConfig { threads: 2, ..cfg });
        let (war2_s, _) = {
            let _s = tracer.span("mlab.sim_war_2engines", root.id());
            timed_range(&mut two, war)
        };
        let pre_us = pre_s * 1e6 / pre_tests.max(1) as f64;
        let war_us = war1_s * 1e6 / war_tests.max(1) as f64;
        out.set("mlab.us_per_test_prewar", pre_us, pre_tests as usize);
        out.set("mlab.us_per_test_war", war_us, war_tests as usize);
        out.set("mlab.war_cost_ratio", war_us / pre_us, 2);
        out.set("mlab.parallel_efficiency", war1_s / (2.0 * war2_s), 2);
    } else {
        out.fail("the corpus has no pre-war or no war shard");
    }
}

/// The traced run. The overhead base is the same replica with a no-op
/// tracer, run before and after the traced pass (their mean, so a drift
/// in machine speed during the run cancels), so `trace.overhead_pct` is
/// what the spans cost. The program's own jobs before and after give the
/// replica's gap to `run_store_generate`. Then the probes.
pub fn traced(run: &Run) -> Outcome {
    let mut out = Outcome::new();
    let store = run.work.join("build-store");
    let replica = run.work.join("build-traced");
    // A warm-up job first, so no figure is the process's first job.
    let Some(before) = job(run, &store, &mut out).and_then(|_| job(run, &store, &mut out)) else {
        return out;
    };
    let noop = Tracer::noop();
    let base_before = traced_generate(run, &noop, &replica, &mut out);
    let tracer = Tracer::new();
    let tests0 = ndt_obs::global().counter("sim.tests");
    let wall = traced_generate(run, &tracer, &replica, &mut out);
    let tests = ndt_obs::global().counter("sim.tests") - tests0;
    let base_after = traced_generate(run, &noop, &replica, &mut out);
    let Some(after) = job(run, &store, &mut out) else {
        return out;
    };
    eprintln!(
        "perfbench: wall s: program {:.3}, replica without spans {base_before:.3}, traced \
         replica {wall:.3}, replica without spans {base_after:.3}, program {:.3}",
        before.wall_s, after.wall_s
    );
    let base_s = (base_before + base_after) / 2.0;
    let program_s = (before.wall_s + after.wall_s) / 2.0;
    out.set("mlab.tests", tests as f64, 1);
    let totals = tracer.totals();
    let sum = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9);
    let (sim, encode, write) = (sum("mlab.sim"), sum("store.encode"), sum("runner.write"));
    let busy = sim + encode + write;
    out.set(
        "mlab.sim_s",
        sim,
        totals.get("mlab.sim").map_or(0, |t| t.count as usize),
    );
    out.set(
        "store.encode_s",
        encode,
        totals.get("store.encode").map_or(0, |t| t.count as usize),
    );
    out.set(
        "runner.write_s",
        write,
        totals.get("runner.write").map_or(0, |t| t.count as usize),
    );
    let bytes = out
        .values
        .get("store.bytes_written")
        .map_or(0.0, |v| v.value);
    out.set("store.encode_mb_per_s", bytes / 1e6 / encode.max(1e-9), 1);
    out.set("build.sim_share", sim / busy, 1);
    out.set("build.encode_share", encode / busy, 1);
    out.set("build.write_share", write / busy, 1);
    out.set("trace.untraced_s", base_s, 2);
    out.set("trace.traced_s", wall, 1);
    out.set("trace.overhead_pct", (wall - base_s) / base_s * 100.0, 1);
    out.set("trace.program_s", program_s, 2);
    out.set(
        "trace.replica_gap_pct",
        (base_s - program_s) / program_s * 100.0,
        2,
    );
    probes(run, &tracer, &mut out);
    crate::finish_trace(run, "build", &tracer);
    out
}
