//! Metric arithmetic: nearest-rank percentiles, the "at least ten samples
//! beyond" rule for tail percentiles, percentiles taken window by window
//! over a request stream, window means over a per-day series and the
//! growth ratio built from them.

use std::ops::Range;

/// A tail percentile is only reported when at least this many samples lie
/// beyond it; below that it is one or two outliers, not a distribution.
pub const MIN_BEYOND: usize = 10;

/// Days in each window of [`tail_mean`] and [`growth_ratio`].
pub const DAY_WINDOW: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` percent of the samples at or below it. `None` when empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(sorted[rank(n, q) - 1])
}

/// 1-based nearest rank of percentile `q` among `n` samples. The slack
/// keeps decimal percentiles that binary floats cannot hold exactly (`0.9 *
/// 100` is `90.00000000000001`) from rounding up one rank.
fn rank(n: usize, q: f64) -> usize {
    let r = (q * n as f64 / 100.0 - 1e-9).ceil();
    (r as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank position of percentile `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// True when percentile `q` of `n` samples has at least [`MIN_BEYOND`]
/// samples beyond it.
pub fn reportable(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_BEYOND
}

/// Median as the nearest-rank 50th percentile (the lower middle for an
/// even count), so it is always one of the measured values.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 50.0)
}

/// Percentile `q` within each window of `samples` (index ranges, in any
/// order), then the median over windows.
///
/// On a shared host a stall of a few hundred milliseconds charges every
/// request queued behind it; over the whole stream a handful of stalls
/// moves p50 and p90 far, while the median window is one without a stall.
/// A window too small for its percentile to have [`MIN_BEYOND`] samples
/// beyond it is left out. `None` when a window runs past the samples or
/// no window is left.
pub fn median_window_percentile(samples: &[f64], windows: &[Range<usize>], q: f64) -> Option<f64> {
    let mut per = Vec::with_capacity(windows.len());
    for w in windows {
        let mut v = samples.get(w.clone())?.to_vec();
        if !reportable(v.len(), q) {
            continue;
        }
        v.sort_by(f64::total_cmp);
        per.push(v[rank(v.len(), q) - 1]);
    }
    median(&per)
}

/// Consecutive windows of `per_window` samples covering the first `n`; a
/// trailing partial window is left out.
pub fn fixed_windows(n: usize, per_window: usize) -> Vec<Range<usize>> {
    if per_window == 0 {
        return Vec::new();
    }
    (0..n / per_window)
        .map(|k| k * per_window..(k + 1) * per_window)
        .collect()
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Mean of the last `w` values (all of them when fewer).
pub fn tail_mean(values: &[f64], w: usize) -> Option<f64> {
    mean(&values[values.len().saturating_sub(w)..])
}

/// Mean of the first `w` values (all of them when fewer).
pub fn head_mean(values: &[f64], w: usize) -> Option<f64> {
    mean(&values[..w.min(values.len())])
}

/// Mean of the last window over mean of the first, with windows of `w`
/// values shrunk to half the series so they never overlap. `None` for
/// fewer than two values or a zero first window.
pub fn growth_ratio(values: &[f64], w: usize) -> Option<f64> {
    let w = w.min(values.len() / 2);
    if w == 0 {
        return None;
    }
    let head = head_mean(values, w)?;
    if head <= 0.0 {
        return None;
    }
    Some(tail_mean(values, w)? / head)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_a_measured_sample() {
        let v = ramp(100);
        assert_eq!(nearest_rank(&v, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&v, 90.0), Some(90.0));
        assert_eq!(nearest_rank(&v, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(100.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        let v = ramp(10);
        assert_eq!(nearest_rank(&v, 95.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&[7.0], 99.9), Some(7.0));
    }

    #[test]
    fn median_is_the_lower_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert!(reportable(100, 90.0));
        assert!(!reportable(99, 90.0));
        assert!(!reportable(100, 99.0));
        assert!(reportable(1000, 99.0));
        assert!(!reportable(9999, 99.9));
        assert!(reportable(10_000, 99.9));
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn median_window_percentile_skips_a_stalled_window() {
        // Three windows of 100: one stalled (every sample 1000), two calm.
        let calm = ramp(100);
        let mut v = calm.clone();
        v.extend([1000.0; 100]);
        v.extend(calm.iter().map(|x| x + 1.0));
        let w = fixed_windows(v.len(), 100);
        assert_eq!(w, vec![0..100, 100..200, 200..300]);
        assert_eq!(median_window_percentile(&v, &w, 50.0), Some(51.0));
        assert_eq!(median_window_percentile(&v, &w, 90.0), Some(91.0));
        // Over the whole stream the stall moves p90 to 1000.
        let mut all = v.clone();
        all.sort_by(f64::total_cmp);
        assert_eq!(nearest_rank(&all, 90.0), Some(1000.0));
        // Failed requests are infinite and count.
        let failed = vec![f64::INFINITY; 100];
        assert_eq!(
            median_window_percentile(&failed, &fixed_windows(100, 100), 50.0),
            Some(f64::INFINITY)
        );
        // Windows of any length and order; one past the end is refused.
        assert_eq!(
            median_window_percentile(&v, &[200..300, 0..150], 50.0),
            Some(51.0)
        );
        let one = |r: Range<usize>| median_window_percentile(&v, std::slice::from_ref(&r), 50.0);
        assert_eq!(one(250..301), None);
        assert_eq!(median_window_percentile(&v, &[], 50.0), None);
        // p90 of a 99-sample window would have only 9 samples beyond it:
        // such windows are left out.
        assert_eq!(median_window_percentile(&v, &[0..99, 99..198], 90.0), None);
        assert_eq!(
            median_window_percentile(&v, &[100..199, 200..300], 90.0),
            Some(91.0)
        );
        assert_eq!(one(0..99), Some(50.0));
    }

    #[test]
    fn fixed_windows_leave_out_a_partial_window() {
        assert_eq!(fixed_windows(250, 100), vec![0..100, 100..200]);
        assert!(fixed_windows(99, 100).is_empty());
        assert!(fixed_windows(10, 0).is_empty());
    }

    #[test]
    fn window_means() {
        let v = ramp(40);
        assert_eq!(tail_mean(&v, 10), Some(35.5));
        assert_eq!(head_mean(&v, 10), Some(5.5));
        assert_eq!(tail_mean(&v[..4], 10), Some(2.5));
        assert_eq!(head_mean(&[], 10), None);
    }

    #[test]
    fn growth_ratio_uses_disjoint_windows() {
        let v = ramp(40);
        assert_eq!(growth_ratio(&v, 10), Some(35.5 / 5.5));
        // 14 days: windows shrink to 7 so first and last never share a day.
        let v = ramp(14);
        assert_eq!(growth_ratio(&v, 10), Some(11.0 / 4.0));
        assert_eq!(growth_ratio(&[5.0, 5.0, 5.0], 10), Some(1.0));
        assert_eq!(growth_ratio(&[5.0], 10), None);
        assert_eq!(growth_ratio(&[0.0, 1.0], 10), None);
    }
}
