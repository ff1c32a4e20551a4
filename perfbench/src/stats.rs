//! Order statistics for the reported timings.

/// Sorted copy.
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Linear-interpolated quantile `q ∈ [0, 1]`; 0 for an empty sample.
#[must_use]
pub fn quantile(v: &[f64], q: f64) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n => {
            let x = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let (i, f) = (x.floor() as usize, x.fract());
            if i + 1 < n {
                s[i] * (1.0 - f) + s[i + 1] * f
            } else {
                s[n - 1]
            }
        }
    }
}

/// Median; 0 for an empty sample.
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The tail of a timing sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The value at that percentile.
    pub value: f64,
    /// The percentile (100 = the maximum, when no percentile qualifies).
    pub percentile: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// Sample size.
    pub samples: usize,
}

/// The highest of the usual percentiles that leaves at least ten of
/// `n` samples beyond it (100, the maximum, when none does).
#[must_use]
pub fn tail_percentile(n: usize) -> f64 {
    // Per mille, so the rank arithmetic stays exact.
    [999, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|&pm| n - (n * pm).div_ceil(1000) >= 10)
        .map_or(100.0, |pm| pm as f64 / 10.0)
}

/// The tail of `v` at the percentile [`tail_percentile`] picks for
/// `guaranteed` samples: the sample size every invocation reaches, so
/// the percentile does not move with the number of runs that fit.
#[must_use]
pub fn tail(v: &[f64], guaranteed: usize) -> Tail {
    let n = v.len();
    let percentile = tail_percentile(guaranteed.min(n));
    let beyond = n - (n as f64 * percentile / 100.0).ceil() as usize;
    Tail {
        value: quantile(v, percentile / 100.0),
        percentile,
        beyond,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(60), 75.0);
        assert_eq!(tail_percentile(12), 100.0);
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        let t = tail(&v, 100);
        assert_eq!((t.percentile, t.beyond), (90.0, 10));
        // More samples than guaranteed keep the guaranteed percentile.
        let t = tail(&v, 60);
        assert_eq!((t.percentile, t.beyond, t.samples), (75.0, 25, 100));
        let t = tail(&v[..12], 12);
        assert_eq!((t.percentile, t.value), (100.0, 11.0));
    }
}
