//! Summaries of repeated measurements: medians, quartiles and tail ranks.

/// Median and quartiles of a sample, with its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles by Python's `statistics.quantiles(xs, n=4)` (the default
    /// "exclusive" method), so they match what an external script computes
    /// from the same values. One sample is its own quartiles.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn of(xs: &[f64]) -> Summary {
        assert!(!xs.is_empty(), "no samples to summarize");
        let mut s = xs.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        if n == 1 {
            return Summary {
                q1: s[0],
                median: s[0],
                q3: s[0],
                n,
            };
        }
        let m = n + 1;
        let cut = |i: usize| {
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
        };
        Summary {
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
            n,
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

/// Percentiles a tail latency may be reported at, lowest first.
const TAIL_LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// The highest percentile of the ladder that still has at least ten of
/// `n` samples beyond it, or `None` when even the median has not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 * (1.0 - p) >= 10.0 - 1e-6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = Summary::of(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(99), Some(0.5));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(1_000), Some(0.99));
        assert_eq!(tail_percentile(18_000), Some(0.999));
        assert_eq!(tail_percentile(100_000), Some(0.9999));
        // Whatever it picks, at least ten samples lie beyond it.
        for n in [20, 150, 7_200, 54_321] {
            let p = tail_percentile(n).unwrap();
            let beyond = n - (p * n as f64).ceil() as usize;
            assert!(beyond >= 10, "n={n} p={p} beyond={beyond}");
        }
    }
}
