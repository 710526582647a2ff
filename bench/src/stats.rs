//! Order statistics: nearest-rank percentiles with the tail-size rule,
//! per-trial latencies from closure timestamps, and medians.

/// Minimum number of samples that must lie beyond a reported percentile.
/// With fewer, one outlier more or less moves the percentile, so it is
/// not reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest rank of the `pct`-th percentile among `n` samples: the
/// 1-based position `⌈pct·n/100⌉`, clamped to `[1, n]`. Integer
/// arithmetic, so `p99` of 1,000 samples is rank 990 exactly.
pub fn rank(n: usize, pct: usize) -> usize {
    (pct * n).div_ceil(100).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank `pct`-th percentile.
pub fn beyond(n: usize, pct: usize) -> usize {
    n.saturating_sub(rank(n, pct))
}

/// The nearest-rank `pct`-th percentile of ascending `sorted` samples,
/// or `None` when the slice is empty or fewer than [`MIN_BEYOND`]
/// samples lie beyond it (the median of a non-empty set is always
/// reported).
pub fn percentile(sorted: &[u64], pct: usize) -> Option<u64> {
    let n = sorted.len();
    if n == 0 || (pct > 50 && beyond(n, pct) < MIN_BEYOND) {
        return None;
    }
    Some(sorted[rank(n, pct) - 1])
}

/// Appends the per-trial latencies of one range call to `out`.
///
/// The library calls the benchmark's factory (or reseed) closure once at
/// the start of every trial, and the closure records a timestamp, so
/// trial `i` ran from `stamps[i]` to `stamps[i + 1]`; the last trial ends
/// at `end`, taken when the range call returned.
pub fn latencies(stamps: &[u64], end: u64, out: &mut Vec<u64>) {
    for pair in stamps.windows(2) {
        out.push(pair[1].saturating_sub(pair[0]));
    }
    if let Some(&last) = stamps.last() {
        out.push(end.saturating_sub(last));
    }
}

/// Median of `values` (mean of the two middle values for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_uses_integer_ceiling() {
        assert_eq!(rank(1000, 99), 990);
        assert_eq!(rank(999, 99), 990);
        assert_eq!(rank(100, 50), 50);
        assert_eq!(rank(101, 50), 51);
        assert_eq!(rank(1, 99), 1);
        assert_eq!(rank(5, 0), 1, "rank is clamped to the first sample");
    }

    #[test]
    fn percentile_picks_the_ranked_sample() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 50), Some(500));
        assert_eq!(percentile(&sorted, 99), Some(990));
        assert_eq!(percentile(&sorted, 100), None, "nothing lies beyond p100");
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(percentile(&[7], 50), Some(7));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1,000 samples leave exactly 10 beyond p99; 999 leave 9.
        assert_eq!(beyond(1000, 99), 10);
        assert_eq!(beyond(999, 99), 9);
        let enough: Vec<u64> = (0..1000).collect();
        let short: Vec<u64> = (0..999).collect();
        assert!(percentile(&enough, 99).is_some());
        assert_eq!(percentile(&short, 99), None);
        // p90 of 100 samples also leaves exactly 10 beyond.
        let hundred: Vec<u64> = (0..100).collect();
        assert_eq!(percentile(&hundred, 90), Some(89));
    }

    #[test]
    fn latencies_come_from_consecutive_stamps() {
        let mut out = Vec::new();
        latencies(&[100, 250, 300], 420, &mut out);
        assert_eq!(out, vec![150, 50, 120]);
        // A second call appends its own trials, ended by its own return.
        latencies(&[500], 560, &mut out);
        assert_eq!(out, vec![150, 50, 120, 60]);
        latencies(&[], 999, &mut out);
        assert_eq!(out.len(), 4, "an empty call adds no samples");
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
