//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload build|report|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! The command runs as a small coordinator. It prepares the per-seed
//! inputs once (a columnar store and the in-memory reference report,
//! cached under `.perfbench-work/`), then runs the workload in a fresh
//! process of its own, so that process's peak resident set is the
//! workload's alone. The last line on standard output is the result:
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! A run whose outputs are wrong prints `"correct": false` and exits 1.

mod build;
mod checks;
#[cfg(test)]
mod corruption_tests;
mod metrics;
mod prep;
mod procfs;
mod report;
mod schedule;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use ndt_mlab::sim::{Scenario, SimConfig};
use ndt_mlab::FaultPlan;

/// Corpus scale of every workload: 2,737,618 rows at seed 2022.
pub const SCALE: f64 = 2.0;

/// Thread budget of every workload, sized for a two-core machine.
pub const THREADS: usize = 2;

/// Where runs keep prepared inputs, written stores and traces.
pub const WORK_DIR: &str = ".perfbench-work";

/// A run that has not finished by then is killed and fails.
const RUN_LIMIT: Duration = Duration::from_secs(170);

/// The workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Build,
    Report,
    Serve,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "build" => Some(Self::Build),
            "report" => Some(Self::Report),
            "serve" => Some(Self::Serve),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Build => "build",
            Self::Report => "report",
            Self::Serve => "serve",
        }
    }
}

/// The simulator configuration every workload and reference uses: the
/// paper's scenario, no injected faults, the benchmark's scale, thread
/// budget and the run's seed.
pub fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        scale: SCALE,
        scenario: Scenario::HISTORICAL,
        faults: FaultPlan::NONE,
        threads: THREADS,
        ..SimConfig::default()
    }
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    mode: String,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    prep: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        mode: "run".into(),
        workload: None,
        seed: 2022,
        seconds: 15.0,
        trace: false,
        prep: None,
    };
    let mut it = argv.iter();
    if let Some(first) = argv.first().filter(|a| !a.starts_with("--")) {
        args.mode = first.clone();
        it.next();
    }
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(format!("bad seconds {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            "--prep" => args.prep = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

const USAGE: &str =
    "usage: perfbench --workload build|report|serve --seed N --seconds S --trace 0|1";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Progress lines from the runner would bury the benchmark's own.
    ndt_obs::set_verbosity(ndt_obs::Level::Warn);
    let result = match args.mode.as_str() {
        "run" => coordinate(&args),
        "prep" => prep::prepare(
            args.seed,
            args.prep.as_deref().unwrap_or(Path::new(WORK_DIR)),
        )
        .map(|()| 0),
        "worker" => worker(&args),
        other => Err(format!("unknown mode {other}")),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs `cmd` to completion, killing it past [`RUN_LIMIT`].
fn run_child(mut cmd: Command, started: Instant) -> Result<u8, String> {
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start {cmd:?}: {e}"))?;
    loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            return Ok(status.code().map_or(2, |c| c.clamp(0, 255) as u8));
        }
        if started.elapsed() > RUN_LIMIT {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "run exceeded {} s and was stopped",
                RUN_LIMIT.as_secs()
            ));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The coordinator: prepare inputs, then run the workload in a fresh
/// process that inherits standard output, so its result is the last line.
fn coordinate(args: &Args) -> Result<u8, String> {
    let started = Instant::now();
    let workload = args.workload.ok_or("--workload is required")?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let work = Path::new(WORK_DIR);
    std::fs::create_dir_all(work).map_err(|e| format!("cannot create {WORK_DIR}: {e}"))?;
    let mut cmd = Command::new(&exe);
    cmd.args(["worker", "--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if workload != Workload::Build {
        let dir = prep::dir_for(work, &exe, args.seed);
        if !prep::is_ready(&dir) {
            let t = Instant::now();
            let mut p = Command::new(&exe);
            p.args(["prep", "--seed", &args.seed.to_string(), "--prep"])
                .arg(&dir);
            p.stdout(std::process::Stdio::null());
            let code = run_child(p, started)?;
            if code != 0 || !prep::is_ready(&dir) {
                return Err(format!("preparing seed {} failed (exit {code})", args.seed));
            }
            eprintln!(
                "perfbench: prepared seed {} in {:.1} s",
                args.seed,
                t.elapsed().as_secs_f64()
            );
        }
        prep::evict_others(work, &dir);
        cmd.arg("--prep").arg(&dir);
    }
    run_child(cmd, started)
}

/// The workload process: measure, check, print the result line.
fn worker(args: &Args) -> Result<u8, String> {
    let workload = args.workload.ok_or("--workload is required")?;
    let work = PathBuf::from(WORK_DIR);
    let prepared = match &args.prep {
        Some(dir) => Some(prep::Prepared::load(dir)?),
        None if workload != Workload::Build => return Err("--prep is required".into()),
        None => None,
    };
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        work,
        prepared,
    };
    let (mut outcome, catalogue): (metrics::Outcome, &[metrics::Def]) = match (workload, args.trace)
    {
        (Workload::Build, false) => (build::measure(&run), &metrics::END_TO_END),
        (Workload::Build, true) => (build::traced(&run), &metrics::PER_LAYER),
        (Workload::Report, false) => (report::measure(&run), &metrics::END_TO_END),
        (Workload::Report, true) => (report::traced(&run), &metrics::PER_LAYER),
        (Workload::Serve, false) => (serve::measure(&run), &metrics::END_TO_END),
        (Workload::Serve, true) => (serve::traced(&run), &metrics::PER_LAYER),
    };
    if !args.trace {
        for d in catalogue {
            if !outcome.values.contains_key(d.name) {
                outcome.fail(format!("end-to-end metric {} was not measured", d.name));
            }
        }
    }
    for f in &outcome.findings {
        eprintln!("perfbench: CHECK FAILED: {f}");
    }
    eprintln!(
        "perfbench: {} seed {} trace {}: correct={} attempted={} failed={}\n{}",
        workload.name(),
        args.seed,
        args.trace as u8,
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        outcome.table(catalogue)
    );
    println!("{}", outcome.json(catalogue));
    Ok(if outcome.correct { 0 } else { 1 })
}

/// What a workload process is given.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub work: PathBuf,
    pub prepared: Option<prep::Prepared>,
}

impl Run {
    /// The prepared inputs; only `build` runs without them.
    pub fn prepared(&self) -> &prep::Prepared {
        self.prepared
            .as_ref()
            .expect("report and serve runs are prepared")
    }

    /// Where a traced run writes its spans.
    pub fn trace_path(&self, workload: &str) -> PathBuf {
        self.work
            .join(format!("trace-{workload}-{}.jsonl", self.seed))
    }
}

/// Writes a traced run's spans and prints the per-name self times.
pub fn finish_trace(run: &Run, workload: &str, tracer: &trace::Tracer) {
    let path = run.trace_path(workload);
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    eprintln!(
        "perfbench: spans written to {}; self time by name:",
        path.display()
    );
    for (name, t) in tracer.totals() {
        eprintln!(
            "  {name:<34} n={:<5} total {:>10.3} ms  self {:>10.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a =
            parse_args(&argv("--workload serve --seed 7 --seconds 15 --trace 1")).expect("valid");
        assert_eq!(a.mode, "run");
        assert_eq!(a.workload, Some(Workload::Serve));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 15.0, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--seed",
            "--bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
