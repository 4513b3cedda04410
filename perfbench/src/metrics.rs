//! The metric catalogue and the result line.
//!
//! Every name here is part of the benchmark's contract with later
//! changes: `BENCHMARK.json` lists the same names, units and directions
//! (a test holds the two equal), and a perf change is judged by them.

use std::collections::BTreeMap;

/// One catalogued metric: name, unit and which direction is better.
/// Which end-to-end metric and workload each layer metric should move is
/// noted beside it and tabled in `perfbench/README.md`.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// Reported with tracing off, on every workload.
pub const END_TO_END: [Def; 6] = [
    def("setup_s", "s", "lower"),          // work before the timed phase
    def("peak_rss_mb", "MB", "lower"),     // VmHWM of the workload process
    def("rows_per_s", "rows/s", "higher"), // corpus rows per second of job wall time
    def("disk_bytes_per_raw_byte", "ratio", "lower"), // shard file bytes over raw row bytes
    def("latency_p50_ms", "ms", "lower"),  // median latency from due time
    def("latency_p99_ms", "ms", "lower"),  // highest percentile with ten samples beyond it
];

/// Reported by the traced run (`--trace 1`) of every workload. A layer a
/// workload never calls reports 0 there: that is the "flat" prediction.
pub const PER_LAYER: [Def; 63] = [
    def("trace.overhead_pct", "%", "lower"), // traced against untraced wall time, every workload
    def("topology.build_ms", "ms", "lower"), // build rows_per_s; flat on report and serve
    def("topology.route_cold_us", "us", "lower"), // build rows_per_s; flat on report and serve
    def("topology.route_warm_us", "us", "lower"), // build rows_per_s; flat on report and serve
    def("tcp.transfer_ns", "ns", "lower"),   // build rows_per_s; flat on report and serve
    def("mlab.sim_s", "s", "lower"),         // build rows_per_s; flat on report and serve
    def("mlab.tests", "count", "higher"),    // build rows_per_s; flat on report and serve
    def("mlab.us_per_test_prewar", "us", "lower"), // build rows_per_s; flat on report and serve
    def("mlab.us_per_test_war", "us", "lower"), // build rows_per_s; flat on report and serve
    def("mlab.war_cost_ratio", "ratio", "lower"), // build rows_per_s; flat on report and serve
    def("mlab.parallel_efficiency", "ratio", "higher"), // build rows_per_s; flat on report and serve
    def("store.encode_s", "s", "lower"), // build rows_per_s; flat on report and serve
    def("store.encode_mb_per_s", "MB/s", "higher"), // build rows_per_s; flat on report and serve
    def("runner.write_s", "s", "lower"), // build rows_per_s; flat on report and serve
    def("build.sim_share", "ratio", "lower"), // build rows_per_s; flat on report and serve
    def("build.encode_share", "ratio", "lower"), // build rows_per_s; flat on report and serve
    def("build.write_share", "ratio", "lower"), // build rows_per_s; flat on report and serve
    def("store.bytes_written", "bytes", "lower"), // build disk_bytes_per_raw_byte
    def("store.read_s", "s", "lower"),   // report rows_per_s; serve setup_s
    def("store.unified_scan_s", "s", "lower"), // report rows_per_s and peak_rss_mb; flat on build
    def("store.traces_scan_s", "s", "lower"), // report rows_per_s and peak_rss_mb; flat on build
    def("store.scan_s", "s", "lower"),   // report rows_per_s and peak_rss_mb; flat on build
    def("bq.ingest_s", "s", "lower"),    // report rows_per_s and peak_rss_mb; flat on build
    def("store.rows_read", "count", "lower"), // report rows_per_s and peak_rss_mb; flat on build
    def("store.pages_skipped", "count", "higher"), // report rows_per_s and peak_rss_mb; flat on build
    def("store.rss_after_load_mb", "MB", "lower"), // report peak_rss_mb; serve peak_rss_mb
    def("analysis.fig1_ms", "ms", "lower"), // report rows_per_s and peak_rss_mb; flat on build
    def("analysis.fig2_ms", "ms", "lower"), // report rows_per_s and peak_rss_mb; flat on build
    def("analysis.fig3_ms", "ms", "lower"), // report rows_per_s and peak_rss_mb; flat on build
    def("analysis.fig4_ms", "ms", "lower"), // report rows_per_s and peak_rss_mb; flat on build
    def("analysis.table1_ms", "ms", "lower"), // report rows_per_s and peak_rss_mb; flat on build
    def("analysis.table2_ms", "ms", "lower"), // report rows_per_s and peak_rss_mb; flat on build
    def("analysis.table3_ms", "ms", "lower"), // report rows_per_s and peak_rss_mb; flat on build
    def("analysis.table4_ms", "ms", "lower"), // report rows_per_s and peak_rss_mb; flat on build
    def("analysis.table5_6_ms", "ms", "lower"), // report rows_per_s and peak_rss_mb; flat on build
    def("analysis.fig5_ms", "ms", "lower"), // report rows_per_s and peak_rss_mb; flat on build
    def("analysis.fig6_ms", "ms", "lower"), // report rows_per_s and peak_rss_mb; flat on build
    def("analysis.fig7_8_ms", "ms", "lower"), // report rows_per_s and peak_rss_mb; flat on build
    def("analysis.ext_alias_ms", "ms", "lower"), // report rows_per_s and peak_rss_mb; flat on build
    def("analysis.ext_events_ms", "ms", "lower"), // report rows_per_s and peak_rss_mb; flat on build
    def("analysis.ext_robustness_ms", "ms", "lower"), // report rows_per_s and peak_rss_mb; flat on build
    def("analysis.ext_ingress_ms", "ms", "lower"), // report rows_per_s and peak_rss_mb; flat on build
    def("analysis.ext_correlation_ms", "ms", "lower"), // report rows_per_s and peak_rss_mb; flat on build
    def("analysis.fig9_ms", "ms", "lower"), // report rows_per_s and peak_rss_mb; flat on build
    def("analysis.total_s", "s", "lower"),  // report rows_per_s and peak_rss_mb; flat on build
    def("report.assemble_ms", "ms", "lower"), // report rows_per_s and peak_rss_mb; flat on build
    def("store.release_ms", "ms", "lower"), // report rows_per_s; flat on build
    def("process.cpu_per_wall", "ratio", "higher"), // report rows_per_s and peak_rss_mb; flat on build
    def("serve.submit_p50_ms", "ms", "lower"), // serve latency_p50_ms and latency_p99_ms; flat on build and report
    def("serve.submit_p99_ms", "ms", "lower"), // serve latency_p50_ms and latency_p99_ms; flat on build and report
    def("serve.net_overhead_ms", "ms", "lower"), // serve latency_p50_ms and latency_p99_ms; flat on build and report
    def("serve.queue_wait_p99_ms", "ms", "lower"), // serve latency_p50_ms and latency_p99_ms; flat on build and report
    def("serve.cache_hit_us", "us", "lower"), // serve latency_p50_ms and latency_p99_ms; flat on build and report
    def("serve.threads_peak", "count", "lower"), // serve latency_p50_ms and latency_p99_ms; flat on build and report
    def("serve.cpu_s_after_stop", "s", "lower"), // serve latency_p50_ms and latency_p99_ms; flat on build and report
    def("serve.deadline_count", "count", "lower"), // serve latency_p50_ms and latency_p99_ms; flat on build and report
    def("serve.slo_miss_share", "ratio", "lower"), // serve latency_p50_ms and latency_p99_ms; flat on build and report
    def("serve.failed_share", "ratio", "lower"), // serve latency_p50_ms and latency_p99_ms; flat on build and report
    def("loadgen.late_p99_ms", "ms", "lower"), // validity of a serve run: large means the generator, not the server, was late
    def("trace.untraced_s", "s", "lower"), // base of trace.overhead_pct: the copied job without spans, or median serve request latency
    def("trace.traced_s", "s", "lower"),   // the same with every layer call traced
    def("trace.program_s", "s", "lower"),  // the program's own job wall (build, report)
    def("trace.replica_gap_pct", "%", "lower"), // copied job without spans against the program's job (build, report)
];

#[cfg(test)]
/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One measured value and how many samples it summarises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
}

/// A run's outcome: the correctness verdict, operations attempted and
/// failed, and the metric values by name.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, Value>,
    /// Why the run is not correct, one line per finding.
    pub findings: Vec<String>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Default::default()
        }
    }

    /// Records `value` for the catalogued metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, Value { value, samples });
    }

    /// Records a correctness finding; the run is no longer correct.
    pub fn fail(&mut self, finding: impl Into<String>) {
        self.correct = false;
        self.findings.push(finding.into());
    }

    /// The result line for `catalogue`: one JSON object with exactly the
    /// keys `correct`, `attempted`, `failed` and `metrics`. A catalogued
    /// metric the run did not measure reads 0 (a layer the workload never
    /// calls); a non-finite value is a bug and makes the run incorrect.
    pub fn json(&mut self, catalogue: &[Def]) -> String {
        let mut metrics = Vec::with_capacity(catalogue.len());
        for d in catalogue {
            let v = self.values.get(d.name).map_or(0.0, |v| v.value);
            let v = if v.is_finite() {
                v
            } else {
                self.fail(format!("{} is not finite", d.name));
                0.0
            };
            metrics.push(format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable table of `catalogue`: name, value, unit, samples.
    pub fn table(&self, catalogue: &[Def]) -> String {
        let mut out = String::new();
        for d in catalogue {
            match self.values.get(d.name) {
                Some(v) => out.push_str(&format!(
                    "  {:<30} {:>16.6} {:<7} n={:<6} {} is better\n",
                    d.name, v.value, d.unit, v.samples, d.better
                )),
                None => out.push_str(&format!(
                    "  {:<30} {:>16} {:<7} (not exercised)\n",
                    d.name, 0, d.unit
                )),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> impl Iterator<Item = &'static Def> {
        END_TO_END.iter().chain(PER_LAYER.iter())
    }

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for d in all() {
            assert!(valid_name(d.name), "bad name {}", d.name);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(matches!(d.better, "higher" | "lower"));
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                d.unit
            );
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name(""));
    }

    #[test]
    fn every_analysis_stage_has_a_metric() {
        for spec in &ndt_analysis::ANALYSIS_STAGES {
            let name = format!("analysis.{}_ms", spec.name);
            assert!(PER_LAYER.iter().any(|d| d.name == name), "{name} missing");
        }
    }

    /// The `"name"`/`"unit"`/`"better"` triples of one section of
    /// `BENCHMARK.json`, in order.
    fn section(json: &str, key: &str) -> Vec<(String, String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let end = body.find(']').expect("section closes");
        let field = |obj: &str, f: &str| -> String {
            let at = obj.find(&format!("\"{f}\"")).expect("field present");
            let rest = &obj[at + f.len() + 2..];
            let open = rest.find('"').expect("value opens") + 1;
            let close = rest[open..].find('"').expect("value closes") + open;
            rest[open..close].to_string()
        };
        body[..end]
            .split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit"), field(obj, "better")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = section(&json, key);
            let expected: Vec<(String, String, String)> = catalogue
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key} differs from the catalogue");
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome::new();
        o.attempted = 3;
        o.set("setup_s", 0.25, 3);
        let line = o.json(&END_TO_END);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        for d in &END_TO_END {
            assert!(line.contains(&format!("\"{}\"", d.name)));
        }
        o.set("setup_s", f64::NAN, 1);
        let _ = o.json(&END_TO_END);
        assert!(!o.correct, "a non-finite value fails the run");
    }
}
