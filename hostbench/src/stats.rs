//! Order statistics over host-time samples.

/// Median of `xs` (mean of the middle pair for an even count; 0 when
/// empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, by the same rule as
/// Python's `statistics.quantiles(xs, n=4)` (the "exclusive" method).
/// Needs at least two samples; a single sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let s = sorted(xs);
    match s.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (s[0], s[0], s[0]),
        n => {
            let q = |j: usize| {
                // Position j*(n+1)/4 on 1-based ranks, clamped to the
                // sample range, interpolated between neighbours.
                let m = (n + 1) as f64 * j as f64 / 4.0;
                let lo = (m.floor() as usize).clamp(1, n - 1);
                let frac = m - lo as f64;
                s[lo - 1] + (s[lo] - s[lo - 1]) * frac
            };
            (q(1), q(2), q(3))
        }
    }
}

/// Per-call timing samples of one layer call.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// No samples yet.
    pub fn new() -> Samples {
        Samples::default()
    }

    /// Record one sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Sample count.
    pub fn n(&self) -> usize {
        self.values.len()
    }

    /// Median sample.
    pub fn median(&self) -> f64 {
        median(&self.values)
    }

    /// The highest percentile that still has at least ten samples
    /// beyond it, as `(percentile, value)`. With 20 or fewer samples no
    /// percentile above the median qualifies and the median is
    /// returned as the 50th.
    pub fn tail(&self) -> (f64, f64) {
        let n = self.values.len();
        if n <= 20 {
            return (50.0, self.median());
        }
        let s = sorted(&self.values);
        let i = n - 11;
        (100.0 * (i + 1) as f64 / n as f64, s[i])
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let mut s = Samples::new();
        for v in 1..=40 {
            s.push(f64::from(v));
        }
        let (p, v) = s.tail();
        assert_eq!(v, 30.0);
        assert_eq!(p, 75.0);
        let beyond = (1..=40).filter(|&x| f64::from(x) > v).count();
        assert_eq!(beyond, 10);
    }
}
