//! Sample summaries: medians, quartiles, and tail percentiles that are
//! only reported when the sample supports them.

/// Samples that must lie strictly beyond a tail percentile before it is
/// reported as a number.
pub const MIN_BEYOND: usize = 10;

/// The median of `values` (mean of the two middle values for an even
/// count); `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A nearest-rank percentile of a sample, with the count of samples
/// that lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile asked for, in `(0, 100)`.
    pub pct: f64,
    /// Sample size.
    pub n: usize,
    /// Samples ranked strictly above the percentile's rank.
    pub beyond: usize,
    /// The value, present only when `beyond >= MIN_BEYOND`.
    pub value: Option<f64>,
}

/// The nearest-rank `pct` percentile of `values`: the value at rank
/// `ceil(pct/100 · n)`. It is reported only when at least
/// [`MIN_BEYOND`] samples rank above it; otherwise `value` is `None`
/// and the caller must say the percentile is unsupported.
#[must_use]
pub fn tail(values: &[f64], pct: f64) -> Tail {
    let n = values.len();
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    let value = (n > 0 && beyond >= MIN_BEYOND).then(|| {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        sorted[rank - 1]
    });
    Tail {
        pct,
        n,
        beyond,
        value,
    }
}

/// One line describing a latency sample: its median and a tail
/// percentile, each with the sample count, the tail only when supported.
#[must_use]
pub fn describe(values: &[f64], unit: &str) -> String {
    let n = values.len();
    let Some(p50) = median(values) else {
        return "no samples".to_string();
    };
    let p99 = tail(values, 99.0);
    let p99_text = match p99.value {
        Some(v) => format!("p99 {v:.3} {unit} (n={n}, {} beyond)", p99.beyond),
        None => format!(
            "p99 unsupported (n={n}: {} beyond, {MIN_BEYOND} needed)",
            p99.beyond
        ),
    };
    format!("p50 {p50:.3} {unit} (n={n}), {p99_text}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, so exactly 10 lie beyond.
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&values, 99.0);
        assert_eq!((t.n, t.beyond), (1000, 10));
        assert_eq!(t.value, Some(990.0));

        // 999 samples: rank 990 (ceil of 989.01), only 9 beyond.
        let t = tail(&values[..999], 99.0);
        assert_eq!(t.beyond, 9);
        assert_eq!(t.value, None, "an unsupported p99 is never a number");
    }

    #[test]
    fn tail_is_order_independent_and_empty_safe() {
        let mut values: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let a = tail(&values, 90.0);
        values.reverse();
        assert_eq!(a, tail(&values, 90.0));
        assert_eq!(a.value, Some(179.0));
        assert_eq!(tail(&[], 99.0).value, None);
    }

    #[test]
    fn describe_never_prints_an_unsupported_p99() {
        let few: Vec<f64> = (0..50).map(f64::from).collect();
        let text = describe(&few, "us");
        assert!(text.contains("p99 unsupported"), "{text}");
        let many: Vec<f64> = (0..2000).map(f64::from).collect();
        assert!(describe(&many, "us").contains("p99 1979.000 us"));
    }
}
