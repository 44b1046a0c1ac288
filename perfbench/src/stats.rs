//! Order statistics, the outcome digest, and seed derivation.

/// The `q`-quantile (`q` in `[0, 1]`) of `values` by linear interpolation
/// between closest ranks; `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    Some(sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64))
}

/// The median of `values`; `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Percentiles a tail is reported at, highest first, as the share of
/// samples beyond each in per mille (p99.9, p99, p95, p90, p75).
const TAIL_BEYOND_PER_MILLE: [usize; 5] = [1, 10, 50, 100, 250];

/// The highest percentile of the ladder p99.9, p99, p95, p90, p75 that
/// still has at least ten of `n` samples beyond it, so the reported tail
/// rests on more than a handful of outliers; `None` when even p75 lacks
/// ten samples above it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_BEYOND_PER_MILLE
        .into_iter()
        .find(|beyond| n.saturating_mul(*beyond) >= 10 * 1000)
        .map(|beyond| 100.0 - beyond as f64 / 10.0)
}

/// FNV-1a over the simulated outcomes of a run: equal digests mean the
/// runs simulated the same thing, whatever the host time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds an integer in.
    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    /// Folds a float in by its bit pattern, so any change shows.
    pub fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    /// The digest as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// SplitMix64: derives independent, reproducible seeds from one.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), Some(2.5));
        assert_eq!(quantile(&values, 0.0), Some(1.0));
        assert_eq!(quantile(&values, 1.0), Some(4.0));
        assert_eq!(quantile(&values, 0.25), Some(1.75));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // Whatever the count, the chosen percentile leaves ten samples.
        for n in 1..5_000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.f64(1.0);
        b.f64(1.0 + f64::EPSILON);
        assert_ne!(a, b);
        assert_eq!(Digest::default().hex().len(), 16);
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
        assert_ne!(derive_seed(7, 3), derive_seed(7, 4));
        assert_ne!(derive_seed(7, 3), derive_seed(8, 3));
    }
}
