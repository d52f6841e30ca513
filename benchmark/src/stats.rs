//! Order statistics over the timed windows.

use crate::report::Metric;

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`).
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn median_u64(values: &mut [u64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable();
    Some(percentile(values, 0.5))
}

/// A metric whose value is the median over the windows, with the
/// min-max over windows beside it as its spread.
pub fn over_windows(name: &str, per_window: &[f64], samples: u64) -> Metric {
    let lo = per_window.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = per_window.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Metric::new(name, median(per_window), samples).with_spread(lo, hi)
}

/// The latency triple of one op kind: `<kind>_p50_us`, `<kind>_p99_us`
/// and `<kind>_ops_per_s` from per-window latencies in nanoseconds.
///
/// Percentiles are computed per window. When a window has fewer than
/// 1 000 samples (fewer than ten beyond its 99th percentile), the p99 is
/// computed once over the windows pooled and marked `pooled`, with no
/// spread.
pub fn latency_metrics(kind: &str, windows: &mut [Vec<u64>], window_s: f64) -> Vec<Metric> {
    for w in windows.iter_mut() {
        w.sort_unstable();
    }
    let total: u64 = windows.iter().map(|w| w.len() as u64).sum();
    if total == 0 {
        return Vec::new();
    }
    let us = |ns: f64| ns / 1000.0;
    let p50: Vec<f64> = windows.iter().map(|w| us(percentile(w, 0.5))).collect();
    let rate: Vec<f64> = windows.iter().map(|w| w.len() as f64 / window_s).collect();
    let p99 = if windows.iter().all(|w| w.len() >= 1000) {
        let per: Vec<f64> = windows.iter().map(|w| us(percentile(w, 0.99))).collect();
        over_windows(&format!("{kind}_p99_us"), &per, total)
    } else {
        let mut pooled: Vec<u64> = windows.iter().flatten().copied().collect();
        pooled.sort_unstable();
        Metric::new(
            &format!("{kind}_p99_us"),
            us(percentile(&pooled, 0.99)),
            total,
        )
        .noted("pooled")
    };
    vec![
        over_windows(&format!("{kind}_p50_us"), &p50, total),
        p99,
        over_windows(&format!("{kind}_ops_per_s"), &rate, total),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn small_windows_pool_their_p99() {
        let mut windows = vec![vec![1000; 10], vec![2000; 10], vec![3000; 10]];
        let m = latency_metrics("solve", &mut windows, 1.0);
        assert_eq!(m[0].name, "solve_p50_us");
        assert_eq!(m[0].value, 2.0);
        assert_eq!(m[0].spread, Some((1.0, 3.0)));
        assert_eq!(m[1].note, "pooled");
        assert_eq!(m[1].spread, None);
        assert_eq!(m[2].value, 10.0);
        let mut big = vec![(0..1000).collect::<Vec<u64>>(); 3];
        assert_eq!(latency_metrics("retrieve", &mut big, 1.0)[1].note, "");
    }
}
