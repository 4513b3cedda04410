//! The `serve` workload: `Server` plus `serve_tcp` (two workers, cache
//! off) over the seed's prepared store, driven in an open loop over TCP.
//!
//! The request schedule comes from [`crate::schedule`]: a fixed rate of
//! 10 requests per second from at most two generator threads with one
//! connection each. Two closed-loop clients get about 49 interactive
//! requests per second, so the interactive part alone is about a fifth
//! of that; with the slow requests the two cores are under 40% busy,
//! which leaves room for the noise of a shared machine without the queue
//! running away. Every request is timed from when it was due, so a
//! stall also charges the requests that queued behind it. The cache is
//! off so that admission and the analyses answer every request.

use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ndt_analysis::{run_analysis_stage, StudyData, ANALYSIS_STAGES};
use ndt_runner::{load_study_data_with, read_store_fingerprint, ScanEngine};
use ndt_serve::{fetch, serve_tcp, Reply, Request, ServeConfig, ServeError, Server, ServerHandle};
use ndt_vfs::VfsHandle;

use crate::checks::{check_body, stage_bodies};
use crate::metrics::Outcome;
use crate::schedule::{schedule, Req};
use crate::stats::{median, tail};
use crate::trace::{SpanId, Tracer};
use crate::{procfs, Run, THREADS};

/// Offered load, requests per second.
pub const RATE_PER_S: f64 = 10.0;

/// Generator threads, each with one connection at a time.
const GENERATORS: usize = 2;

/// A request answered later than this after it was due misses its SLO.
const SLO_MS: f64 = 250.0;

/// Servers booted per run; `setup_s` is their median boot time.
const BOOTS: usize = 5;

/// Pause after a pass, so work a pass abandoned cannot slow the next.
const SETTLE: Duration = Duration::from_millis(2500);

fn config(cache: bool, workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        cache,
        ..ServeConfig::default()
    }
}

/// A booted server with its TCP front.
struct Booted {
    server: Server,
    data: Arc<StudyData>,
    fingerprint: u64,
    addr: String,
    shutdown: Arc<AtomicBool>,
    tcp: JoinHandle<io::Result<()>>,
    setup_s: f64,
    load_s: f64,
    rows: u64,
}

/// Loads the store and starts the server, until it accepts connections.
fn boot(run: &Run, tracer: Option<&Tracer>) -> Result<Booted, String> {
    let store = &run.prepared().store;
    let vfs = VfsHandle::real();
    procfs::reset_peak();
    let t0 = Instant::now();
    let rows0 = ndt_obs::global().counter("store.rows_read");
    let loaded = {
        let _s = tracer.map(|t| t.span("store.read", 0));
        load_study_data_with(&vfs, store, ScanEngine::Vectorized, THREADS)
    };
    let (data, quarantined) = loaded.map_err(|e| format!("store load: {e}"))?;
    let load_s = t0.elapsed().as_secs_f64();
    let rows = ndt_obs::global().counter("store.rows_read") - rows0;
    if !quarantined.is_empty() {
        return Err(format!("{} shard(s) quarantined", quarantined.len()));
    }
    let _s = tracer.map(|t| t.span("serve.start", 0));
    let fingerprint = read_store_fingerprint(&vfs, store).map_err(|e| e.to_string())?;
    let data = Arc::new(data);
    let server = Server::start(Arc::clone(&data), fingerprint, config(false, THREADS));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let (handle, flag) = (server.handle(), Arc::clone(&shutdown));
    let tcp = std::thread::spawn(move || serve_tcp(listener, handle, flag));
    Ok(Booted {
        server,
        data,
        fingerprint,
        addr,
        shutdown,
        tcp,
        setup_s: t0.elapsed().as_secs_f64(),
        load_s,
        rows,
    })
}

fn stop(b: Booted) {
    b.shutdown.store(true, Ordering::SeqCst);
    let _ = b.tcp.join();
    b.server.drain();
}

/// How one request ended.
enum Answer {
    Body(String),
    Deadline,
    Error(String),
}

/// One request's timeline, in milliseconds after the schedule started.
struct Done {
    idx: usize,
    sent_ms: f64,
    done_ms: f64,
    answer: Answer,
}

fn over_tcp(addr: &str, req: &Req) -> Answer {
    let request = Request {
        stage: req.stage.to_string(),
        deadline_ms: req.deadline_ms,
    };
    match fetch(addr, &request, Duration::from_secs(30)) {
        Ok(Reply::Ok(body)) => Answer::Body(body),
        Ok(Reply::Err(ServeError::DeadlineExceeded)) => Answer::Deadline,
        Ok(Reply::Err(e)) => Answer::Error(e.to_string()),
        Err(e) => Answer::Error(format!("transport: {e}")),
    }
}

fn in_process(handle: &ServerHandle, req: &Req) -> Answer {
    match handle.submit(req.stage, req.deadline_ms.map(Duration::from_millis)) {
        Ok(body) => Answer::Body(body.to_string()),
        Err(ServeError::DeadlineExceeded) => Answer::Deadline,
        Err(e) => Answer::Error(e.to_string()),
    }
}

/// Sends every request at its due time from [`GENERATORS`] threads; a
/// request due while both are busy goes out late, and is still timed
/// from its due time.
fn drive(
    reqs: &[Req],
    call: &(dyn Fn(&Req) -> Answer + Sync),
    trace: Option<(&Tracer, &str, SpanId)>,
) -> Vec<Done> {
    let start = Instant::now() + Duration::from_millis(20);
    let cursor = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(reqs.len()));
    let ms = |t: Instant| t.saturating_duration_since(start).as_secs_f64() * 1e3;
    std::thread::scope(|scope| {
        for _ in 0..GENERATORS {
            scope.spawn(|| loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(req) = reqs.get(idx) else { break };
                let due = start + Duration::from_secs_f64(req.due_ms / 1e3);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let answer = {
                    let _s = trace.map(|(t, name, parent)| t.span(name, parent));
                    call(req)
                };
                let finished = Instant::now();
                let d = Done {
                    idx,
                    sent_ms: ms(sent),
                    done_ms: ms(finished),
                    answer,
                };
                done.lock().expect("results lock").push(d);
            });
        }
    });
    let mut done = done.into_inner().unwrap_or_default();
    done.sort_by_key(|d| d.idx);
    done
}

/// A pass's figures.
#[derive(Default)]
struct Pass {
    /// Every request, answered or failed, from due time.
    latency_ms: Vec<f64>,
    /// Send time minus due time.
    late_ms: Vec<f64>,
    /// Reply time minus send time, with the stage, for answered requests.
    service: Vec<(&'static str, f64)>,
    deadline: u64,
    failed: u64,
    slo_miss: u64,
}

/// Checks every answer of a pass and reduces it to its figures. A
/// deadline reply to a request that carried a deadline is the server
/// keeping its contract, not a failure; any other error is one.
fn judge(reqs: &[Req], done: &[Done], run: &Run, out: &mut Outcome) -> Pass {
    let bodies = match stage_bodies(&run.prepared().reference) {
        Ok(b) => b,
        Err(e) => {
            out.fail(e);
            return Pass::default();
        }
    };
    let mut pass = Pass::default();
    for d in done {
        let req = &reqs[d.idx];
        let latency = d.done_ms - req.due_ms;
        pass.latency_ms.push(latency);
        pass.late_ms.push((d.sent_ms - req.due_ms).max(0.0));
        let missed = match &d.answer {
            Answer::Body(body) => {
                if let Err(e) = check_body(&bodies, req.stage, body) {
                    out.fail(e);
                }
                pass.service.push((req.stage, d.done_ms - d.sent_ms));
                false
            }
            Answer::Deadline if req.deadline_ms.is_some() => {
                pass.deadline += 1;
                true
            }
            Answer::Deadline => {
                pass.failed += 1;
                eprintln!("perfbench: {} hit the default deadline", req.stage);
                true
            }
            Answer::Error(e) => {
                pass.failed += 1;
                eprintln!("perfbench: {} failed: {e}", req.stage);
                true
            }
        };
        if missed || latency > SLO_MS {
            pass.slo_miss += 1;
        }
    }
    out.attempted += done.len() as u64;
    out.failed += pass.failed;
    if done.len() != reqs.len() {
        out.fail(format!(
            "{} of {} requests never completed",
            reqs.len() - done.len(),
            reqs.len()
        ));
    }
    pass
}

/// The untraced run: the end-to-end metrics.
pub fn measure(run: &Run) -> Outcome {
    let mut out = Outcome::new();
    let reqs = schedule(run.seed, RATE_PER_S, run.seconds);
    let mut boots = Vec::with_capacity(BOOTS);
    let mut server = None;
    for k in 0..BOOTS {
        match boot(run, None) {
            Ok(b) => {
                boots.push((b.setup_s, b.rows as f64 / b.load_s));
                if k + 1 < BOOTS {
                    stop(b);
                } else {
                    server = Some(b);
                }
            }
            Err(e) => {
                out.fail(e);
                return out;
            }
        }
    }
    let Some(b) = server else { return out };
    let addr = b.addr.clone();
    let done = drive(&reqs, &|r: &Req| over_tcp(&addr, r), None);
    stop(b);
    out.set("peak_rss_mb", procfs::peak_rss_mb(), 1);
    let pass = judge(&reqs, &done, run, &mut out);
    let setups: Vec<f64> = boots.iter().map(|b| b.0).collect();
    eprintln!("perfbench: boots s {setups:?}");
    let rates: Vec<f64> = boots.iter().map(|b| b.1).collect();
    let n = pass.latency_ms.len();
    out.set("setup_s", median(&setups).unwrap_or(0.0), setups.len());
    out.set("rows_per_s", median(&rates).unwrap_or(0.0), rates.len());
    out.set("disk_bytes_per_raw_byte", run.prepared().disk_ratio, 1);
    out.set("latency_p50_ms", median(&pass.latency_ms).unwrap_or(0.0), n);
    let (q, p99) = tail(&pass.latency_ms).unwrap_or((0.0, 0.0));
    out.set("latency_p99_ms", p99, n);
    let mut by_stage: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for (req, ms) in reqs.iter().zip(&pass.latency_ms) {
        by_stage.entry(req.stage).or_default().push(*ms);
    }
    let medians: Vec<String> = by_stage
        .iter()
        .map(|(s, v)| format!("{s} {:.0}", median(v).unwrap_or(0.0)))
        .collect();
    eprintln!(
        "perfbench: median latency ms by stage: {}",
        medians.join(", ")
    );
    eprintln!(
        "perfbench: {n} requests, tail at p{:.2}, {} deadline, {} failed, {} over the {SLO_MS} ms SLO",
        q * 100.0,
        pass.deadline,
        pass.failed,
        pass.slo_miss
    );
    out
}

/// Samples the process's thread count every few milliseconds until
/// dropped; `peak` holds the highest count seen.
struct ThreadSampler {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicU64>,
    thread: Option<JoinHandle<()>>,
}

impl ThreadSampler {
    fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicU64::new(0));
        let (s, p) = (Arc::clone(&stop), Arc::clone(&peak));
        let thread = std::thread::spawn(move || {
            while !s.load(Ordering::Relaxed) {
                p.fetch_max(procfs::threads(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        ThreadSampler {
            stop,
            peak,
            thread: Some(thread),
        }
    }

    fn finish(mut self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.peak.load(Ordering::Relaxed)
    }
}

/// The cost of a cache hit: a separate cache-on server over the same
/// data answers one miss, then repeats from the cache.
fn cache_probe(b: &Booted, tracer: &Tracer, out: &mut Outcome) {
    let _s = tracer.span("serve.cache_probe", 0);
    let server = Server::start(Arc::clone(&b.data), b.fingerprint, config(true, 1));
    let handle = server.handle();
    if let Err(e) = handle.submit("fig2", None) {
        out.fail(format!("cache probe miss: {e}"));
    }
    let hits: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(handle.submit("fig2", None).ok());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let stats = server.drain();
    if stats.cache_hits < hits.len() as u64 {
        out.fail(format!(
            "cache probe: {} hits of {}",
            stats.cache_hits,
            hits.len()
        ));
    }
    out.set(
        "serve.cache_hit_us",
        median(&hits).unwrap_or(0.0),
        hits.len(),
    );
}

/// What the TCP front adds to a request: on the idle server, the median
/// of `fetch` minus the median of `submit` for the cheapest stage, one
/// request at a time.
fn net_probe(b: &Booted, tracer: &Tracer, out: &mut Outcome) {
    const PROBES: usize = 100;
    let _s = tracer.span("serve.net_probe", 0);
    let req = Req {
        due_ms: 0.0,
        stage: "fig1",
        deadline_ms: None,
    };
    let handle = b.server.handle();
    let time = |call: &dyn Fn() -> Answer| -> Vec<f64> {
        (0..PROBES)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(call());
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect()
    };
    let fetched = time(&|| over_tcp(&b.addr, &req));
    let submitted = time(&|| in_process(&handle, &req));
    let (f, s) = (
        median(&fetched).unwrap_or(0.0),
        median(&submitted).unwrap_or(0.0),
    );
    out.set("serve.net_overhead_ms", f - s, PROBES);
}

/// The traced run: the TCP pass untraced (the overhead base and the
/// server-side figures), again with a span per request, the same
/// schedule in process through `ServerHandle::submit`, each stage on its
/// own, and a cache-on probe.
pub fn traced(run: &Run) -> Outcome {
    let mut out = Outcome::new();
    let tracer = Tracer::new();
    let reqs = schedule(run.seed, RATE_PER_S, run.seconds);
    let b = match boot(run, Some(&tracer)) {
        Ok(b) => b,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    out.set("store.read_s", b.load_s, 1);
    out.set("store.rows_read", b.rows as f64, 1);
    out.set("store.rss_after_load_mb", procfs::rss_mb(), 1);

    // Pass A: untraced, over TCP.
    let addr = b.addr.clone();
    let sampler = ThreadSampler::start();
    let done = drive(&reqs, &|r: &Req| over_tcp(&addr, r), None);
    let threads_peak = sampler.finish();
    let cpu0 = procfs::cpu_s();
    std::thread::sleep(Duration::from_secs(1));
    out.set("serve.cpu_s_after_stop", procfs::cpu_s() - cpu0, 1);
    let a = judge(&reqs, &done, run, &mut out);
    let n = a.latency_ms.len();
    out.set("serve.threads_peak", threads_peak as f64, 1);
    out.set("serve.deadline_count", a.deadline as f64, n);
    out.set(
        "serve.slo_miss_share",
        a.slo_miss as f64 / n.max(1) as f64,
        n,
    );
    out.set("serve.failed_share", a.failed as f64 / n.max(1) as f64, n);
    out.set(
        "loadgen.late_p99_ms",
        tail(&a.late_ms).map_or(0.0, |t| t.1),
        n,
    );
    std::thread::sleep(SETTLE);

    // Pass B: the same over TCP, with a span per request.
    let root = tracer.span("serve.tcp", 0);
    let done = drive(
        &reqs,
        &|r: &Req| over_tcp(&addr, r),
        Some((&tracer, "serve.fetch", root.id())),
    );
    drop(root);
    let traced_pass = judge(&reqs, &done, run, &mut out);
    let base = median(&a.latency_ms).unwrap_or(0.0) / 1e3;
    let with_spans = median(&traced_pass.latency_ms).unwrap_or(0.0) / 1e3;
    out.set("trace.untraced_s", base, n);
    out.set("trace.traced_s", with_spans, n);
    out.set("trace.overhead_pct", (with_spans - base) / base * 100.0, n);
    std::thread::sleep(SETTLE);

    // Pass C: the same schedule in process.
    let handle = b.server.handle();
    let root = tracer.span("serve.in_process", 0);
    let done = drive(
        &reqs,
        &|r: &Req| in_process(&handle, r),
        Some((&tracer, "serve.submit", root.id())),
    );
    drop(root);
    let c = judge(&reqs, &done, run, &mut out);
    let submit_p50 = median(&c.latency_ms).unwrap_or(0.0);
    out.set("serve.submit_p50_ms", submit_p50, c.latency_ms.len());
    out.set(
        "serve.submit_p99_ms",
        tail(&c.latency_ms).map_or(0.0, |t| t.1),
        c.latency_ms.len(),
    );
    std::thread::sleep(SETTLE);

    // Each stage on its own, then queue wait: in-process service time
    // minus the stage's own compute time.
    let mut stage_ms = std::collections::BTreeMap::new();
    for spec in &ANALYSIS_STAGES {
        let _s = tracer.span(&format!("analysis.{}", spec.name), 0);
        let t = Instant::now();
        if let Err(e) = run_analysis_stage(spec.name, &b.data) {
            out.fail(format!("stage {}: {e}", spec.name));
        }
        stage_ms.insert(spec.name, t.elapsed().as_secs_f64() * 1e3);
    }
    let waits: Vec<f64> = c
        .service
        .iter()
        .map(|(stage, ms)| ms - stage_ms.get(stage).copied().unwrap_or(0.0))
        .collect();
    out.set(
        "serve.queue_wait_p99_ms",
        tail(&waits).map_or(0.0, |t| t.1),
        waits.len(),
    );
    for d in crate::metrics::PER_LAYER
        .iter()
        .filter(|d| d.name.starts_with("analysis.") && d.name.ends_with("_ms"))
    {
        let stage = &d.name["analysis.".len()..d.name.len() - "_ms".len()];
        out.set(d.name, stage_ms.get(stage).copied().unwrap_or(0.0), 1);
    }
    out.set(
        "analysis.total_s",
        stage_ms.values().sum::<f64>() / 1e3,
        stage_ms.len(),
    );

    net_probe(&b, &tracer, &mut out);
    cache_probe(&b, &tracer, &mut out);
    stop(b);
    crate::finish_trace(run, "serve", &tracer);
    out
}
