//! Order statistics of repetition times.
//!
//! The benchmark's throughput figures divide pinned work by the
//! *lower-quartile* repetition time (see the protocol section of the
//! README for why the fast quartile, not the median or the minimum), and
//! report `spread = IQR / median` beside them. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the default "exclusive" method),
//! because that is the function the acceptance check is stated in.

/// First quartile, median and third quartile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub q2: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quartiles {
    /// Quartiles of `values` (any order; at least two).
    ///
    /// # Panics
    ///
    /// Panics on fewer than two values — a quartile of one point is a
    /// harness bug, not a measurement.
    pub fn of(values: &[f64]) -> Quartiles {
        assert!(values.len() >= 2, "quartiles need at least two values");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let m = n + 1;
        let cut = |i: usize| {
            let j = (i * m / 4).clamp(1, n - 1);
            // May exceed 4 (or go negative) at the clamped ends, where the
            // exclusive method extrapolates.
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Quartiles {
            q1: cut(1),
            q2: cut(2),
            q3: cut(3),
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.q2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=9], n=4) == [2.5, 5.0, 7.5]
        let q = Quartiles::of(&[9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0]);
        assert_eq!((q.q1, q.q2, q.q3), (2.5, 5.0, 7.5));
        assert_eq!(q.spread(), 1.0);
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&ten);
        assert_eq!((q.q1, q.q2, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40, 80], n=4) == [12.5, 30.0, 70.0]
        let q = Quartiles::of(&[10.0, 20.0, 40.0, 80.0]);
        assert_eq!((q.q1, q.q2, q.q3), (12.5, 30.0, 70.0));
        // Two points extrapolate: statistics.quantiles([1, 2], n=4)
        // == [0.75, 1.5, 2.25].
        let q = Quartiles::of(&[2.0, 1.0]);
        assert_eq!((q.q1, q.q2, q.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn constant_sample_has_zero_spread() {
        let q = Quartiles::of(&[3.0; 7]);
        assert_eq!((q.q1, q.q2, q.q3), (3.0, 3.0, 3.0));
        assert_eq!(q.spread(), 0.0);
    }
}
