//! Small statistics helpers used across experiments.

/// Summary statistics of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of values.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// **Population** standard deviation (divisor `n`, not `n − 1`). The
    /// intended inputs are complete populations — e.g. the paper's three
    /// fixed-seed runs behind every reported median — where the values
    /// *are* the whole set, not a sample from one. Callers estimating the
    /// spread of a larger population should apply Bessel's correction
    /// themselves (`std_dev * sqrt(n / (n − 1))`; ~22 % larger at n = 3).
    pub std_dev: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
}

/// Computes summary statistics; `None` for an empty slice.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    Some(Summary { count: values.len(), mean, std_dev: var.sqrt(), min, max })
}

/// Median of the values (mean of the middle pair for even counts);
/// `None` for an empty slice. Used for the paper's "three runs, report the
/// median" methodology.
///
/// NaNs are ordered by [`f64::total_cmp`] (IEEE 754 total order: `f64::NAN`
/// after `+inf`, sign-bit NaNs before `-inf`), so they never panic and
/// only reach the result when they crowd past the midpoint — a NaN result
/// is an honest "your samples were NaN", not a crash.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// Linear-interpolation percentile (`p` in `[0, 100]`); `None` for an empty
/// slice **or an out-of-range `p`** (including NaN). An invalid rank is a
/// caller bug either way, but governors compute ranks from live telemetry —
/// a poisoned rank must degrade like missing telemetry does everywhere
/// else in the stack, not panic the control loop.
///
/// NaNs in `values` are ordered by [`f64::total_cmp`] (as in [`median`])
/// instead of panicking. The interpolation rank is clamped to the slice,
/// and exact ranks (p = 0, p = 100, single element) return the element
/// directly rather than interpolating — `inf * 0.0` would manufacture a
/// NaN.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_of_sorted(&sorted, p)
}

/// [`percentile`] over values already in [`f64::total_cmp`] order.
pub(crate) fn percentile_of_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if !(0.0..=100.0).contains(&p) || sorted.is_empty() {
        return None;
    }
    let last = (sorted.len() - 1) as f64;
    let rank = (p / 100.0 * last).clamp(0.0, last);
    let lo = rank.floor() as usize;
    let hi = (rank.ceil() as usize).min(sorted.len() - 1);
    let frac = rank - lo as f64;
    Some(if frac == 0.0 { sorted[lo] } else { sorted[lo] * (1.0 - frac) + sorted[hi] * frac })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_values() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(summarize(&[]), None);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(50.0));
        assert_eq!(percentile(&v, 50.0), Some(30.0));
        assert_eq!(percentile(&v, 25.0), Some(20.0));
        assert_eq!(percentile(&v, 90.0), Some(46.0));
    }

    #[test]
    fn percentile_out_of_range_is_none() {
        assert_eq!(percentile(&[1.0], 101.0), None);
        assert_eq!(percentile(&[1.0], -0.5), None);
        assert_eq!(percentile(&[1.0], f64::NAN), None);
        assert_eq!(percentile(&[1.0], f64::INFINITY), None);
    }

    #[test]
    fn median_and_percentile_survive_non_finite_input() {
        // NaN sorts last, so a single NaN among finite values leaves the
        // lower order statistics intact.
        let v = [f64::NAN, 1.0, 2.0, 3.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert!(percentile(&v, 100.0).unwrap().is_nan());
        // Infinities at the boundaries return exactly, not `inf * 0 = NaN`.
        let w = [f64::NEG_INFINITY, 0.0, f64::INFINITY];
        assert_eq!(percentile(&w, 0.0), Some(f64::NEG_INFINITY));
        assert_eq!(percentile(&w, 100.0), Some(f64::INFINITY));
        assert_eq!(percentile(&w, 50.0), Some(0.0));
        assert_eq!(median(&[f64::NAN]).map(f64::is_nan), Some(true));
    }

    #[test]
    fn percentile_of_single_element_is_that_element() {
        for p in [0.0, 37.5, 100.0] {
            assert_eq!(percentile(&[42.0], p), Some(42.0));
        }
    }
}
