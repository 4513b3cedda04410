//! Table 3: metric changes for the top-10 most frequently occurring ASes,
//! underlined when exceeding 2021 baseline fluctuations, starred when
//! Welch-significant.
//!
//! §5.2: "For each traceroute …, we made note of which AS each hop belonged
//! to. We focus now on the top 10 most frequently occurring ASes." The
//! paper's key observation: damage is heterogeneous — Kyivstar loses
//! throughput, UARNet/Kyiv Telecom gain RTT, Emplot nearly vanishes, while
//! TeNeT and SKIF ride out the war at baseline.

use crate::coverage::Coverage;
use crate::dataset::StudyData;
use crate::error::AnalysisError;
use crate::fasthash::FastMap;
use crate::render::{pct, text_table, times};
use ndt_conflict::Period;
use ndt_stats::{welch_t_test, WelchTTest};
use ndt_topology::Asn;
use serde::{Deserialize, Serialize};

/// One AS's row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsChangeRow {
    pub asn: Asn,
    pub name: String,
    pub tests_prewar: usize,
    pub tests_wartime: usize,
    /// Relative count change.
    pub d_counts: f64,
    /// Relative throughput change with its test.
    pub d_tput: f64,
    pub tput_test: WelchTTest,
    /// Relative RTT change with its test.
    pub d_rtt: f64,
    pub rtt_test: WelchTTest,
    /// Loss ratio (×) with its test.
    pub loss_ratio: f64,
    pub loss_test: WelchTTest,
}

/// Worst-case 2021 fluctuations (the table's last row).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BaselineFluctuation {
    pub d_counts: f64,
    pub d_tput: f64,
    pub d_rtt: f64,
    pub loss_ratio: f64,
}

/// Table 3 (plus the underlying per-metric samples living in Tables 5/6).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsTable {
    pub rows: Vec<AsChangeRow>,
    pub baseline: BaselineFluctuation,
    /// Share of all considered tests routed through the top-10 (the paper:
    /// 25.6% of 852,738).
    pub top10_share: f64,
    /// Degradation accounting: AS rows resting on thin period samples are
    /// flagged, as is a ranking that could not fill all `n` slots.
    pub coverage: Coverage,
}

/// Throughputs, min RTTs and loss rates of the tests through one AS in one
/// period, in corpus order. Shared with Tables 5/6, which summarize the
/// same samples.
#[derive(Debug, Default)]
pub(crate) struct MetricSamples {
    pub tput: Vec<f64>,
    pub rtt: Vec<f64>,
    pub loss: Vec<f64>,
}

impl MetricSamples {
    fn len(&self) -> usize {
        self.tput.len()
    }
}

/// One pass over a period's traces collecting [`MetricSamples`] for each
/// AS of `ases` (indexed alike). A trace counts once per occurrence of the
/// AS in its path; paths are loop-free, so that is once per trace.
fn samples_through(data: &StudyData, period: Period, ases: &[Asn]) -> Vec<MetricSamples> {
    let mut out: Vec<MetricSamples> = ases.iter().map(|_| MetricSamples::default()).collect();
    for r in data.traces_in(period) {
        for asn in &r.as_path {
            if let Some(i) = ases.iter().position(|a| a == asn) {
                let s = &mut out[i];
                s.tput.push(r.mean_tput_mbps);
                s.rtt.push(r.min_rtt_ms);
                s.loss.push(r.loss_rate);
            }
        }
    }
    out
}

/// Top-`n` *named Ukrainian access* ASes by traceroute occurrence in the
/// 2022 window. The paper's table lists named access networks; our
/// synthetic tail ASes (ASN ≥ [`SYNTHETIC_ASN_BASE`]) each aggregate many
/// small real-world ISPs, so including them in a per-AS ranking would be a
/// modeling artifact — they are excluded, exactly as the paper's long tail
/// never surfaces individually.
///
/// [`SYNTHETIC_ASN_BASE`]: ndt_topology::build::SYNTHETIC_ASN_BASE
fn top_ases(data: &StudyData, n: usize) -> Vec<Asn> {
    use ndt_topology::build::SYNTHETIC_ASN_BASE;
    // Access network = the last AS of a path.
    let mut eyeballs: FastMap<Asn, usize> = FastMap::default();
    for r in data.traces_in(Period::Prewar2022).iter().chain(data.traces_in(Period::Wartime2022)) {
        if let Some(last) = r.as_path.last() {
            if last.0 < SYNTHETIC_ASN_BASE {
                *eyeballs.entry(*last).or_default() += 1;
            }
        }
    }
    let mut top: Vec<(Asn, usize)> = eyeballs.into_iter().collect();
    top.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    top.truncate(n);
    top.into_iter().map(|(a, _)| a).collect()
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn change_row(data: &StudyData, asn: Asn, pre: &MetricSamples, war: &MetricSamples) -> AsChangeRow {
    let name = data.name_of(asn).unwrap_or_else(|| asn.to_string());
    AsChangeRow {
        asn,
        name,
        tests_prewar: pre.len(),
        tests_wartime: war.len(),
        d_counts: (war.len() as f64 - pre.len() as f64) / pre.len().max(1) as f64,
        d_tput: (mean(&war.tput) - mean(&pre.tput)) / mean(&pre.tput),
        tput_test: welch_t_test(&pre.tput, &war.tput),
        d_rtt: (mean(&war.rtt) - mean(&pre.rtt)) / mean(&pre.rtt),
        rtt_test: welch_t_test(&pre.rtt, &war.rtt),
        loss_ratio: mean(&war.loss) / mean(&pre.loss),
        loss_test: welch_t_test(&pre.loss, &war.loss),
    }
}

/// Computes the table. `n` is 10 in the paper.
pub fn compute(data: &StudyData, n: usize) -> Result<AsTable, AnalysisError> {
    compute_with_samples(data, n).map(|(table, _)| table)
}

/// [`compute`], also handing back each row's (prewar, wartime) 2022
/// samples, indexed like `rows`, so Tables 5/6 need no second scan.
pub(crate) fn compute_with_samples(
    data: &StudyData,
    n: usize,
) -> Result<(AsTable, Vec<(MetricSamples, MetricSamples)>), AnalysisError> {
    let mut cov = Coverage::new();
    let top = top_ases(data, n);
    if top.len() < n {
        cov.note_sample(format!("top-{n} ranking ({} found)", top.len()), top.len());
    }
    let samples: Vec<(MetricSamples, MetricSamples)> =
        samples_through(data, Period::Prewar2022, &top)
            .into_iter()
            .zip(samples_through(data, Period::Wartime2022, &top))
            .collect();
    let rows: Vec<AsChangeRow> = top
        .iter()
        .zip(&samples)
        .map(|(&asn, (pre, war))| change_row(data, asn, pre, war))
        .collect();
    for r in &rows {
        cov.note_sample(format!("AS{}", r.asn.0), r.tests_prewar.min(r.tests_wartime));
    }

    // Baseline fluctuations: the same computation over the two 2021
    // baselines; the paper keeps the worst (most extreme) value per metric.
    let mut baseline =
        BaselineFluctuation { d_counts: 0.0, d_tput: 0.0, d_rtt: 0.0, loss_ratio: 1.0 };
    let pre_2021 = samples_through(data, Period::BaselineJanFeb2021, &top);
    let war_2021 = samples_through(data, Period::BaselineFebApr2021, &top);
    for (pre, war) in pre_2021.iter().zip(&war_2021) {
        if pre.len() < 20 || war.len() < 20 {
            continue;
        }
        let dc = (war.len() as f64 - pre.len() as f64) / pre.len() as f64;
        let dt = (mean(&war.tput) - mean(&pre.tput)) / mean(&pre.tput);
        let dr = (mean(&war.rtt) - mean(&pre.rtt)) / mean(&pre.rtt);
        let lr = mean(&war.loss) / mean(&pre.loss);
        if dc.abs() > baseline.d_counts.abs() {
            baseline.d_counts = dc;
        }
        if dt.abs() > baseline.d_tput.abs() {
            baseline.d_tput = dt;
        }
        if dr.abs() > baseline.d_rtt.abs() {
            baseline.d_rtt = dr;
        }
        if (lr - 1.0).abs() > (baseline.loss_ratio - 1.0).abs() {
            baseline.loss_ratio = lr;
        }
    }

    // Top-10 share of all 2022 tests.
    let total =
        data.traces_in(Period::Prewar2022).len() + data.traces_in(Period::Wartime2022).len();
    cov.see(total);
    let through_top: usize = rows.iter().map(|r| r.tests_prewar + r.tests_wartime).sum();
    let top10_share = through_top as f64 / total.max(1) as f64;
    Ok((AsTable { rows, baseline, top10_share, coverage: cov }, samples))
}

impl StudyData {
    /// AS name helper for the table (None when unknown to the catalogue —
    /// StudyData carries no topology, so names come from the well-known
    /// list).
    pub fn name_of(&self, asn: Asn) -> Option<String> {
        use ndt_topology::asn::well_known as wk;
        let n = match asn {
            a if a == wk::KYIVSTAR => "Kyivstar",
            a if a == wk::UARNET => "UARNet",
            a if a == wk::KYIV_TELECOM => "Kyiv Telecom",
            a if a == wk::DATALINE => "Dataline",
            a if a == wk::EMPLOT => "Emplot LTd.",
            a if a == wk::VODAFONE_UKR => "Vodafone UKr",
            a if a == wk::TENET => "TeNeT",
            a if a == wk::UKR_TELECOM => "Ukr Telecom",
            a if a == wk::LANET => "Lanet",
            a if a == wk::SKIF => "SKIF ISP Ltd.",
            a if a == wk::HURRICANE_ELECTRIC => "Hurricane Electric",
            a if a == wk::COGENT => "Cogent Networks",
            a if a == wk::RETN => "RETN",
            a if a == wk::AS6663 => "Euroweb Romania",
            a if a == wk::UKRTELECOM_TRANSIT => "Ukrtelecom",
            a if a == wk::TRIOLAN => "Triolan",
            a if a == wk::DATAGROUP => "Datagroup",
            a if a == wk::AS199995 => "AS199995",
            _ => return None,
        };
        Some(n.to_string())
    }
}

impl AsTable {
    /// Row by ASN.
    pub fn row(&self, asn: Asn) -> Option<&AsChangeRow> {
        self.rows.iter().find(|r| r.asn == asn)
    }

    /// Whether a row's metric exceeds the baseline fluctuation (the paper's
    /// underline).
    pub fn exceeds_baseline_rtt(&self, row: &AsChangeRow) -> bool {
        row.d_rtt.abs() > self.baseline.d_rtt.abs()
    }

    /// Whether a row's loss ratio exceeds the baseline's.
    pub fn exceeds_baseline_loss(&self, row: &AsChangeRow) -> bool {
        (row.loss_ratio - 1.0).abs() > (self.baseline.loss_ratio - 1.0).abs()
    }

    /// Aligned text rendering in the paper's column order.
    pub fn render(&self) -> String {
        let mut rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.asn.0.to_string(),
                    r.name.clone(),
                    pct(r.d_counts),
                    format!("{}{}", pct(r.d_tput), if r.tput_test.significant() { "*" } else { "" }),
                    format!("{}{}", pct(r.d_rtt), if r.rtt_test.significant() { "*" } else { "" }),
                    format!("{}{}", times(r.loss_ratio), if r.loss_test.significant() { "*" } else { "" }),
                ]
            })
            .collect();
        rows.push(vec![
            "".into(),
            "Baseline Fluctuations".into(),
            pct(self.baseline.d_counts),
            pct(self.baseline.d_tput),
            pct(self.baseline.d_rtt),
            times(self.baseline.loss_ratio),
        ]);
        let mut out = text_table(&["ASN", "Name", "dCounts", "dTPut", "dRTT", "dLoss"], &rows);
        out.push_str(&self.coverage.footer());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::test_support::shared_medium;
    use ndt_topology::asn::well_known as wk;
    use std::sync::OnceLock;

    fn table() -> &'static AsTable {
        static T: OnceLock<AsTable> = OnceLock::new();
        T.get_or_init(|| compute(shared_medium(), 10).expect("clean corpus computes"))
    }

    #[test]
    fn top10_contains_the_paper_ases() {
        let t = table();
        assert_eq!(t.rows.len(), 10);
        for asn in [wk::KYIVSTAR, wk::UARNET, wk::KYIV_TELECOM, wk::EMPLOT, wk::TENET] {
            assert!(t.row(asn).is_some(), "{asn} missing from top-10");
        }
    }

    #[test]
    fn kyivstar_loses_throughput_significantly() {
        let r = table().row(wk::KYIVSTAR).unwrap();
        assert!(r.d_tput < -0.15, "dTput = {}", r.d_tput);
        assert!(r.tput_test.significant());
        assert!(r.loss_ratio > 1.2, "loss ratio = {}", r.loss_ratio);
    }

    #[test]
    fn emplot_collapses_in_counts_with_huge_rtt() {
        let r = table().row(wk::EMPLOT).unwrap();
        assert!(r.d_counts < -0.6, "dCounts = {}", r.d_counts);
        assert!(r.d_rtt > 2.0, "dRTT = {}", r.d_rtt);
    }

    #[test]
    fn tenet_and_skif_are_spared() {
        // Paper: TeNeT 0.60x loss / +5.5% tput, SKIF 0.82x / +9.75% — both
        // ride out the war at or below baseline. Our TeNeT sits behind the
        // decaying AS6663 ingress, whose core loss leaks into its
        // through-AS means, so "spared" here means: far below the damaged
        // ASes and no throughput loss.
        let t = table();
        for asn in [wk::TENET, wk::SKIF] {
            let r = t.row(asn).unwrap();
            assert!(r.loss_ratio < 1.2, "{asn} loss ratio = {}", r.loss_ratio);
            assert!(r.d_tput > -0.05, "{asn} dTput = {}", r.d_tput);
            let kyivstar = t.row(wk::KYIVSTAR).unwrap();
            assert!(r.loss_ratio < kyivstar.loss_ratio, "{asn} not spared relative to Kyivstar");
        }
    }

    #[test]
    fn damage_is_heterogeneous_and_exceeds_baseline_for_most() {
        let t = table();
        let exceed_rtt = t.rows.iter().filter(|r| t.exceeds_baseline_rtt(r)).count();
        let exceed_loss = t.rows.iter().filter(|r| t.exceeds_baseline_loss(r)).count();
        assert!(exceed_rtt >= 5, "only {exceed_rtt} exceed baseline RTT fluctuation");
        assert!(exceed_loss >= 5, "only {exceed_loss} exceed baseline loss fluctuation");
    }

    #[test]
    fn top10_share_is_a_minority() {
        let t = table();
        assert!(
            (0.1..0.75).contains(&t.top10_share),
            "top-10 share = {} (paper: 25.6%)",
            t.top10_share
        );
    }

    /// Whether no AS appears twice in any trace's path.
    fn loop_free(data: &StudyData) -> bool {
        data.raw.traces.iter().all(|r| {
            let mut seen = r.as_path.clone();
            seen.sort_unstable();
            seen.windows(2).all(|w| w[0] != w[1])
        })
    }

    #[test]
    fn generated_as_paths_never_repeat_an_asn() {
        // Table 3 counts a trace once per occurrence of the AS in its path
        // and Tables 5/6 reuse those samples as "tests through the AS";
        // the two readings agree only on loop-free paths. Topology paths
        // are simple and fault truncation keeps a prefix.
        assert!(loop_free(shared_medium()), "clean corpus has a looping as_path");
        let faulted = StudyData::generate(ndt_mlab::SimConfig {
            faults: ndt_mlab::FaultPlan::MODERATE,
            ..ndt_mlab::SimConfig::small(4321)
        });
        assert!(loop_free(&faulted), "moderate-fault corpus has a looping as_path");
    }

    #[test]
    fn render_includes_baseline_row() {
        let s = table().render();
        assert!(s.contains("Baseline Fluctuations"));
        assert!(s.contains("Kyivstar"));
    }
}
