//! Exact order statistics over raw samples. No end-to-end number goes
//! through a bucketed histogram: power-of-two buckets are how the committed
//! `BENCH_query_throughput.json` came to report p50 = p99 = p999.

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Ascending `f64` copy of nanosecond samples.
pub fn sorted_ns(samples: &[u64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_unstable();
    v.into_iter().map(|x| x as f64).collect()
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with at
/// least `pct` percent of the samples at or below it. 0 for an empty slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// 1-based nearest rank of `pct` among `n >= 1` samples. The epsilon keeps a
/// product such as `0.9 * 100 = 90.00000000000001` from rounding a rank up.
fn rank(n: usize, pct: f64) -> usize {
    ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median (mean of the two middle samples when the count is even).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The three quartile cut points, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (its default "exclusive" method),
/// because that is what the driver gates on.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => return [0.0; 3],
        1 => return [s[0]; 3],
        _ => {}
    }
    let m = n + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    })
}

/// The quiet value of a wall-clock series: its best (smallest) repetition.
/// Interference only ever adds time, so the minimum is the repetition that
/// saw the least of it.
pub fn quiet(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The best repetition of a rate.
pub fn best_rate(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// Interquartile range as a share of the median: the spread the driver
/// compares with a metric's bound.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The highest standard percentile with at least ten samples beyond it, and
/// its value: `(pct, value)`. `(0, 0)` below twenty samples, where not even
/// the median qualifies.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    const LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];
    let n = sorted.len();
    LADDER
        .iter()
        .rev()
        .find(|&&pct| n >= 20 && n - rank(n, pct) >= 10)
        .map_or((0.0, 0.0), |&pct| (pct, percentile(sorted, pct)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (1..=n).map(|x| x as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = seq(100);
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&seq(10)), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&seq(5)), [1.5, 3.0, 4.5]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), [7.5, 15.0, 22.5]);
    }

    #[test]
    fn quiet_is_the_minimum_and_best_rate_the_maximum() {
        assert_eq!(quiet(&[5.0, 3.0, 9.0]), 3.0);
        assert_eq!(best_rate(&[5.0, 3.0, 9.0]), 9.0);
        assert_eq!((mean(&[3.0, 1.5, 1.5]), mean(&[])), (2.0, 0.0));
    }

    #[test]
    fn iqr_over_median_of_ten() {
        let spread = iqr_over_median(&seq(10));
        assert!((spread - 1.0).abs() < 1e-12, "{spread}");
        assert_eq!(iqr_over_median(&[4.0, 4.0, 4.0]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail(&seq(19)), (0.0, 0.0));
        assert_eq!(tail(&seq(20)), (50.0, 10.0));
        assert_eq!(tail(&seq(100)), (90.0, 90.0));
        assert_eq!(tail(&seq(1000)), (99.0, 990.0));
        assert_eq!(tail(&seq(10_000)), (99.9, 9990.0));
        assert_eq!(tail(&seq(100_000)), (99.99, 99990.0));
    }
}
