//! Fixed-capacity moving windows over samples.
//!
//! PM enforces its power limit over a moving window of ten 10 ms samples
//! (100 ms); this module provides the window arithmetic. The window also
//! serves order statistics: SLO governors read the moving p99 of request
//! sojourns on every 10 ms decision, so [`MovingWindow`] keeps its values
//! sorted as they arrive. A push into a full window costs two binary
//! searches and one shift of the values between the evicted value's slot
//! and the new value's (O(log w + w), at most `capacity` values moved); a
//! percentile is O(1).

use std::collections::VecDeque;

/// A moving window over the most recent `capacity` values.
///
/// # Examples
///
/// ```
/// use aapm_telemetry::window::MovingWindow;
///
/// let mut w = MovingWindow::new(3);
/// w.push(1.0);
/// w.push(2.0);
/// w.push(3.0);
/// w.push(4.0); // evicts 1.0
/// assert_eq!(w.mean(), Some(3.0));
/// assert_eq!(w.percentile(100.0), Some(4.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MovingWindow {
    /// Held values, oldest first.
    values: VecDeque<f64>,
    /// The same values in [`f64::total_cmp`] order, for the order
    /// statistics. Allocated on the first push, so an unused window costs
    /// one allocation, not two.
    sorted: Vec<f64>,
    capacity: usize,
}

impl MovingWindow {
    /// Creates an empty window holding up to `capacity` values.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        MovingWindow { values: VecDeque::with_capacity(capacity), sorted: Vec::new(), capacity }
    }

    /// Appends a value, evicting the oldest if full.
    ///
    /// Every NaN is stored as [`f64::NAN`], whatever its sign and payload.
    /// Runtime NaNs such as `0.0 / 0.0` carry the sign bit on x86-64, and
    /// `total_cmp` would sort them below `-inf`; the canonical NaN sorts
    /// above `+inf`, so a poisoned sample inflates the tail instead of
    /// hiding in it.
    pub fn push(&mut self, value: f64) {
        let value = if value.is_nan() { f64::NAN } else { value };
        if self.sorted.is_empty() {
            self.sorted.reserve_exact(self.capacity);
        }
        let evicted = if self.is_full() { self.values.pop_front() } else { None };
        self.values.push_back(value);
        let above = self.sorted.partition_point(|v| v.total_cmp(&value).is_le());
        let Some(evicted) = evicted else {
            self.sorted.insert(above, value);
            return;
        };
        // Equal under `total_cmp` means bit-identical, so the first match
        // is exactly the evicted value. One shift closes its slot and opens
        // the new value's: left when the new value sorts at or after it
        // (then `above` counts the evicted value too), right when before.
        let out = self.sorted.partition_point(|v| v.total_cmp(&evicted).is_lt());
        if above > out {
            self.sorted.copy_within(out + 1..above, out);
            self.sorted[above - 1] = value;
        } else {
            self.sorted.copy_within(above..out, above + 1);
            self.sorted[above] = value;
        }
    }

    /// Number of values currently held.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the window holds no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Whether the window has reached capacity.
    pub fn is_full(&self) -> bool {
        self.values.len() == self.capacity
    }

    /// Maximum capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Mean of the held values, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }

    /// Largest held value, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().cloned().fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Smallest held value, `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().cloned().fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v))))
    }

    /// Linear-interpolation percentile of the held values (`p` in
    /// `[0, 100]`); `None` when the window is empty or `p` is out of range.
    /// Bit-identical to [`crate::stats::percentile`] over [`Self::iter`],
    /// read in O(1) from the sorted copy. This is the tail-latency probe
    /// for SLO governors: `window.percentile(99.0)` over a window of
    /// sojourn times is the moving p99. Held NaNs are canonical (see
    /// [`Self::push`]) and sort after `+inf`, so a few poisoned samples
    /// inflate the tail (fail-safe toward "SLO violated") rather than
    /// panicking.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        crate::stats::percentile_of_sorted(&self.sorted, p)
    }

    /// Clears the window.
    pub fn clear(&mut self) {
        self.values.clear();
        self.sorted.clear();
    }

    /// Iterates over held values, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.values.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_keeps_most_recent() {
        let mut w = MovingWindow::new(2);
        w.push(1.0);
        w.push(2.0);
        w.push(3.0);
        assert_eq!(w.iter().collect::<Vec<_>>(), vec![2.0, 3.0]);
    }

    #[test]
    fn empty_window_has_no_statistics() {
        let w = MovingWindow::new(4);
        assert!(w.is_empty());
        assert_eq!(w.mean(), None);
        assert_eq!(w.max(), None);
        assert_eq!(w.min(), None);
    }

    #[test]
    fn statistics_over_partial_window() {
        let mut w = MovingWindow::new(10);
        w.push(2.0);
        w.push(4.0);
        assert_eq!(w.mean(), Some(3.0));
        assert_eq!(w.max(), Some(4.0));
        assert_eq!(w.min(), Some(2.0));
        assert!(!w.is_full());
    }

    #[test]
    fn percentile_over_window_tracks_eviction() {
        let mut w = MovingWindow::new(5);
        assert_eq!(w.percentile(99.0), None, "empty window has no percentile");
        for v in [10.0, 20.0, 30.0, 40.0, 50.0] {
            w.push(v);
        }
        assert_eq!(w.percentile(50.0), Some(30.0));
        assert_eq!(w.percentile(100.0), Some(50.0));
        w.push(60.0); // evicts 10.0 → window is [20, 60]
        assert_eq!(w.percentile(0.0), Some(20.0));
        assert_eq!(w.percentile(100.0), Some(60.0));
    }

    #[test]
    fn percentile_survives_non_finite_values() {
        let mut w = MovingWindow::new(4);
        for v in [1.0, f64::NAN, 2.0, f64::INFINITY] {
            w.push(v);
        }
        // NaN sorts after +inf: the tail is poisoned (inflated), the
        // lower order statistics are intact, and nothing panics.
        assert_eq!(w.percentile(0.0), Some(1.0));
        assert!(w.percentile(99.0).unwrap().is_nan() || w.percentile(99.0).unwrap().is_infinite());
        assert!(w.percentile(100.0).unwrap().is_nan());
        // Out-of-range ranks degrade to None, not a panic.
        assert_eq!(w.percentile(101.0), None);
        assert_eq!(w.percentile(f64::NAN), None);
    }

    #[test]
    fn negative_nan_is_canonicalised_and_inflates_the_tail() {
        // The bit pattern x86-64 produces for `0.0 / 0.0` and `inf - inf`:
        // sign bit set, which `total_cmp` orders below -inf.
        let negative_nan = f64::from_bits(0xfff8_0000_0000_0000);
        let mut w = MovingWindow::new(4);
        for v in [1.0, negative_nan, 2.0] {
            w.push(v);
        }
        assert!(w.percentile(100.0).unwrap().is_nan());
        assert_eq!(w.percentile(0.0), Some(1.0));
        assert!(w.iter().all(|v| !v.is_nan() || v.to_bits() == f64::NAN.to_bits()));
    }

    #[test]
    fn clear_resets() {
        let mut w = MovingWindow::new(2);
        w.push(1.0);
        w.clear();
        assert!(w.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = MovingWindow::new(0);
    }

    /// The sorted copy after every push, bit for bit, against a
    /// `total_cmp` sort of the FIFO, over values that land below, equal
    /// to and above the one each push evicts.
    #[test]
    fn sorted_copy_matches_a_sort_of_the_fifo_after_every_push() {
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for capacity in [1, 3, 8] {
            let mut w = MovingWindow::new(capacity);
            let mut state = 0x9E37_79B9_7F4A_7C15_u64;
            // Pushes whose value sorts below, equal to and above the
            // evicted one.
            let mut landed = [0_usize; 3];
            for push in 0..3_000 {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                // A handful of values, signed zeros and NaN among them, so
                // ties with the evicted value are common.
                let value = match state >> 60 {
                    0 => f64::NAN,
                    1 => -0.0,
                    2 => 0.0,
                    k => (k % 5) as f64 - 2.0,
                };
                if let Some(&evicted) = w.values.front().filter(|_| w.is_full()) {
                    landed[(value.total_cmp(&evicted) as i8 + 1) as usize] += 1;
                }
                w.push(value);
                let mut expected: Vec<f64> = w.iter().collect();
                expected.sort_by(f64::total_cmp);
                assert_eq!(bits(&w.sorted), bits(&expected), "capacity {capacity}, push {push}");
            }
            assert!(landed.iter().all(|&n| n > 200), "capacity {capacity}: {landed:?}");
        }
    }
}
