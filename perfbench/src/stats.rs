//! Order statistics used by every workload: nearest-rank quantiles, the
//! median, and the tail rule "report the highest percentile (at most
//! p99) that still has at least ten samples beyond it".

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Highest percentile the latency tail metric ever reports.
pub const TAIL_CAP: f64 = 0.99;

/// Nearest-rank index of quantile `q` in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    let k = (q * n as f64).ceil() as usize;
    k.clamp(1, n) - 1
}

/// Nearest-rank quantile `q` of `sorted`; `None` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), q)])
}

/// Sorts a copy of `values` with a total order.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median by nearest rank; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(&sorted(values), 0.5)
}

/// The highest quantile `q ≤ TAIL_CAP` whose nearest-rank sample has at
/// least [`MIN_BEYOND`] samples after it, for `n` samples. `None` when
/// `n` is too small for any such quantile.
pub fn tail_q(n: usize) -> Option<f64> {
    if n <= MIN_BEYOND {
        return None;
    }
    let q = ((n - MIN_BEYOND) as f64 / n as f64).min(TAIL_CAP);
    // Floating-point rounding must never push the rank past the limit.
    (n - 1 - rank(n, q) >= MIN_BEYOND).then_some(q).or_else(|| {
        let q = (n - MIN_BEYOND - 1) as f64 / n as f64;
        (n - 1 - rank(n, q) >= MIN_BEYOND).then_some(q)
    })
}

/// The tail statistic: `(quantile used, value)`. Below the sample count
/// the rule needs, it falls back to the maximum and says so with `q = 1`.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    match tail_q(s.len()) {
        Some(q) => quantile(&s, q).map(|v| (q, v)),
        None => s.last().map(|&v| (1.0, v)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_the_reported_rank() {
        for n in 11..3000 {
            let q = tail_q(n).expect("n > 10 supports a tail");
            let beyond = n - 1 - rank(n, q);
            assert!(beyond >= MIN_BEYOND, "n={n} q={q} beyond={beyond}");
            assert!(q <= TAIL_CAP);
        }
    }

    #[test]
    fn tail_is_the_highest_supported_percentile() {
        // 300 samples: p96.67 leaves exactly ten beyond; p99 would not.
        let q = tail_q(300).expect("supported");
        assert_eq!(300 - 1 - rank(300, q), MIN_BEYOND);
        // Enough samples: capped at p99 with more than ten beyond.
        let q = tail_q(5000).expect("supported");
        assert_eq!(q, TAIL_CAP);
        assert!(5000 - 1 - rank(5000, q) >= MIN_BEYOND);
    }

    #[test]
    fn too_few_samples_fall_back_to_the_maximum() {
        assert_eq!(tail_q(10), None);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_value_matches_its_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (q, v) = tail(&values).expect("non-empty");
        assert_eq!(q, 0.9);
        assert_eq!(v, 90.0);
        assert_eq!(values.iter().filter(|&&x| x > v).count(), MIN_BEYOND);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0]), Some(1.0));
        assert_eq!(median(&[]), None);
    }
}
