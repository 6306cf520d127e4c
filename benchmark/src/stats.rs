//! Order statistics over measured samples.
//!
//! Medians and quartiles follow Python's `statistics.quantiles(data, n=4)`
//! (the default "exclusive" method), so a spread printed here equals the
//! one a reader recomputes from the recorded values. Percentiles of a
//! latency distribution are refused unless at least ten samples lie beyond
//! them: a p99 of 500 samples is five observations, not a tail.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 < q < 1`) of `sorted` by nearest rank, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie above it.
#[must_use]
pub fn percentile<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> Option<f64> {
    if !(q > 0.0 && q < 1.0) || sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    // Nearest rank: the smallest value with at least q·n samples at or
    // below it.
    // (The epsilon keeps 0.99·1000 from rounding up past rank 990.)
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1].into())
}

/// Sorts a copy of `values` (total order, NaN last).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `values`; `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by Python's exclusive method; `None` with
/// fewer than two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// How a metric's per-operation values condense into the reported value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Condense {
    /// The median.
    Median,
    /// The boundary of the most favourable quarter: the third quartile
    /// when higher is better, the first when lower is. Interference from
    /// other work on a shared host only ever slows an operation, so this
    /// tracks the code's own speed where a median tracks the host's load.
    FastestQuarter {
        /// Whether larger values are better.
        higher_is_better: bool,
    },
}

/// A measured metric: its reported value, the sample count, and the
/// interquartile range as a share of the median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The condensed value.
    pub value: f64,
    /// Number of samples it was condensed from.
    pub samples: usize,
    /// `(Q3 − Q1) / |median|`; 0 for a single sample.
    pub iqr_share: f64,
}

impl Summary {
    /// Summarizes `values` by their median; `None` when empty.
    #[must_use]
    pub fn of(values: &[f64]) -> Option<Self> {
        Self::condensed(values, Condense::Median)
    }

    /// Summarizes `values` as `how` says; `None` when empty.
    #[must_use]
    pub fn condensed(values: &[f64], how: Condense) -> Option<Self> {
        let mid = median(values)?;
        let q = quartiles(values);
        let value = match (how, q) {
            (Condense::FastestQuarter { higher_is_better }, Some((q1, q3))) => {
                if higher_is_better {
                    q3
                } else {
                    q1
                }
            }
            _ => mid,
        };
        let iqr_share = match q {
            Some((q1, q3)) if mid != 0.0 => (q3 - q1) / mid.abs(),
            _ => 0.0,
        };
        Some(Summary {
            value,
            samples: values.len(),
            iqr_share,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_vectors() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn summary_reports_iqr_as_a_share_of_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.value, 5.5);
        assert_eq!(s.samples, 10);
        assert!((s.iqr_share - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        let fast = |higher_is_better| {
            Summary::condensed(&v, Condense::FastestQuarter { higher_is_better })
                .unwrap()
                .value
        };
        assert_eq!((fast(false), fast(true)), (2.75, 8.25));
        // One sample is its own quartile.
        let one = Summary::condensed(
            &[4.0],
            Condense::FastestQuarter {
                higher_is_better: true,
            },
        );
        assert_eq!(one.unwrap().value, 4.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        // 999 samples leave only nine above the p99 rank.
        assert_eq!(percentile(&v[..999], 0.99), None);
        // p50 needs twenty samples.
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile::<f64>(&[], 0.5), None);
        assert_eq!(percentile(&v, 1.0), None);
    }
}
