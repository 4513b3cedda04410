//! Cross-crate ablation tests: the design choices DESIGN.md calls out,
//! exercised end to end.

use std::sync::OnceLock;
use ukraine_ndt::analysis::{fig9_path_perf, table1_cities};
use ukraine_ndt::geo::GeoDbConfig;
use ukraine_ndt::mlab::client::ClientPoolConfig;
use ukraine_ndt::mlab::Simulator;
use ukraine_ndt::prelude::*;
use ukraine_ndt::tcp::CongestionControl;
use ukraine_ndt::topology::route::RoutingConfig;

fn sim_with(geo: GeoDbConfig, cca: CongestionControl, seed: u64) -> StudyData {
    let config = SimConfig { scale: 0.12, seed, cca, ..SimConfig::default() };
    let mut sim = Simulator::with_parts(
        config,
        TopologyConfig::default(),
        ClientPoolConfig::default(),
        geo,
        RoutingConfig::default(),
    );
    StudyData::from_dataset(sim.run())
}

fn noisy() -> &'static StudyData {
    static D: OnceLock<StudyData> = OnceLock::new();
    D.get_or_init(|| sim_with(GeoDbConfig::default(), CongestionControl::Bbr, 77))
}

fn perfect_geo() -> &'static StudyData {
    static D: OnceLock<StudyData> = OnceLock::new();
    D.get_or_init(|| {
        sim_with(
            GeoDbConfig { missing_rate: 0.0, city_label_rate: 1.0, mislabel_rate: 0.0, accuracy_km: 0.0 },
            CongestionControl::Bbr,
            77,
        )
    })
}

/// §3 Limitations: the paper argues geolocation mislabeling *weakens* its
/// city-level effects ("should datapoints from less damaged areas be
/// mislabeled to these cities, we suspect performance would improve").
/// Ablation: with a perfect geolocation oracle, the measured Kyiv loss
/// deterioration is at least as strong as with the noisy database.
#[test]
fn geolocation_noise_weakens_not_strengthens_effects() {
    let t_noisy = table1_cities::compute(noisy()).expect("clean corpus computes");
    let t_oracle = table1_cities::compute(perfect_geo()).expect("clean corpus computes");
    let ratio = |t: &ukraine_ndt::analysis::table1_cities::CityTable, city: &str| {
        let r = t.row(city).unwrap();
        r.loss_wartime / r.loss_prewar
    };
    let noisy_ratio = ratio(&t_noisy, "Kyiv");
    let oracle_ratio = ratio(&t_oracle, "Kyiv");
    assert!(
        oracle_ratio > 0.9 * noisy_ratio,
        "oracle {oracle_ratio} should not be weaker than noisy {noisy_ratio}"
    );
    // Both still detect the degradation.
    assert!(noisy_ratio > 1.5 && oracle_ratio > 1.5);
}

/// Perfect geolocation also recovers the rows the noisy database drops
/// (the paper's 11.7% unlabeled bucket).
#[test]
fn perfect_geo_recovers_unlabeled_rows() {
    let labeled = |d: &StudyData| {
        let located = d.unified.query().filter_not_null("oblast").expect("oblast column");
        located.count() as f64 / d.unified_len() as f64
    };
    let l_noisy = labeled(noisy());
    let l_oracle = labeled(perfect_geo());
    assert!((l_noisy - 0.883).abs() < 0.02, "noisy labeled share = {l_noisy}");
    assert!(l_oracle > 0.999);
}

/// NDT5 (CUBIC) vs NDT7 (BBR): under wartime loss the CUBIC response
/// function collapses much harder than BBR's, so running the study against
/// an NDT5-era fleet would overstate throughput degradation. This is why
/// the paper cares that "the congestion control algorithm was stable in
/// the period … studied".
#[test]
fn cubic_fleet_overstates_throughput_degradation() {
    let bbr = table1_cities::compute(noisy()).expect("clean corpus computes");
    let cubic_data = sim_with(GeoDbConfig::default(), CongestionControl::Cubic, 77);
    let cubic = table1_cities::compute(&cubic_data).expect("clean corpus computes");
    let drop = |t: &ukraine_ndt::analysis::table1_cities::CityTable| {
        let n = t.row("National").unwrap();
        1.0 - n.tput_wartime / n.tput_prewar
    };
    let bbr_drop = drop(&bbr);
    let cubic_drop = drop(&cubic);
    assert!(
        cubic_drop > bbr_drop,
        "CUBIC drop {cubic_drop} should exceed BBR drop {bbr_drop}"
    );
    // And CUBIC's absolute throughput is far below BBR's to begin with.
    let bbr_pre = bbr.row("National").unwrap().tput_prewar;
    let cubic_pre = cubic.row("National").unwrap().tput_prewar;
    assert!(cubic_pre < bbr_pre, "CUBIC prewar {cubic_pre} vs BBR {bbr_pre}");
}

/// The Figure 9 coupling survives geolocation noise entirely — it is
/// computed from traceroutes and IPs, not geo labels.
#[test]
fn path_churn_coupling_is_geo_independent() {
    let a = fig9_path_perf::compute(noisy(), 10).expect("clean corpus computes");
    let b = fig9_path_perf::compute(perfect_geo(), 10).expect("clean corpus computes");
    assert_eq!(a.connections.len(), b.connections.len());
    assert!((a.corr_loss - b.corr_loss).abs() < 1e-9);
}
