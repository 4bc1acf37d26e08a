//! Median and range of a handful of samples.

/// Median of `samples` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample: both are harness bugs.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Smallest and largest sample.
pub fn min_max(samples: &[f64]) -> (f64, f64) {
    samples.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &s| (lo.min(s), hi.max(s)))
}

/// Median with the range and count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let (min, max) = min_max(samples);
        Summary { median: median(samples), min, max, n: samples.len() }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4} (min {:.4}, max {:.4}, n={})", self.median, self.min, self.max, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn summary_reports_range_and_count() {
        let s = Summary::of(&[5.0, 9.0, 1.0, 7.0, 3.0]);
        assert_eq!(s, Summary { median: 5.0, min: 1.0, max: 9.0, n: 5 });
        assert_eq!(min_max(&[2.0]), (2.0, 2.0));
    }
}
