//! Small order statistics.

/// Median of `v` (mean of the middle two for an even count); NaN if empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Geometric mean; NaN if empty or any value is not positive.
pub fn gmean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0usize);
    for v in values {
        if v.is_nan() || v <= 0.0 {
            return f64::NAN;
        }
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        (log_sum / n as f64).exp()
    }
}

/// A percentile of an ascending sample, with the percentile actually used.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    /// The quantile used, at most the one asked for.
    pub q: f64,
    pub samples: usize,
}

/// Nearest-rank `q` quantile of `sorted`, lowered when needed so that at
/// least ten samples lie beyond it; a sample too small for that gives its
/// median.
pub fn tail(sorted: &[f64], q: f64) -> Tail {
    let n = sorted.len();
    if n == 0 {
        return Tail {
            value: f64::NAN,
            q,
            samples: 0,
        };
    }
    let q = q.min(1.0 - 10.0 / n as f64).max(0.5);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Tail {
        value: sorted[rank - 1],
        q,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v, 0.99);
        assert_eq!(t.q, 0.9);
        assert_eq!(t.value, 90.0);
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99).value, 1980.0);
        assert_eq!(tail(&v, 0.5).value, 1000.0);
    }

    #[test]
    fn median_and_gmean() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((gmean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(gmean([1.0, 0.0]).is_nan());
    }
}
