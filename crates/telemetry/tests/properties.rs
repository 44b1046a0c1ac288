//! Property-based tests of the telemetry layer.

use aapm_platform::pstate::PStateId;
use aapm_platform::units::{Seconds, Watts};
use aapm_telemetry::stats::{median, percentile, summarize};
use aapm_telemetry::trace::{RunTrace, TraceRecord};
use aapm_telemetry::window::MovingWindow;
use proptest::prelude::*;
use std::collections::VecDeque;

/// Any f64, including the non-finite values the stats helpers must survive
/// (one third of draws are NaN or ±inf).
fn any_sample() -> impl Strategy<Value = f64> {
    (0usize..9, -50.0f64..50.0).prop_map(|(kind, v)| match kind {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => v,
    })
}

/// One step of a window's life: push a value, or clear the window.
#[derive(Debug, Clone, Copy)]
enum WindowOp {
    Push(f64),
    Clear,
}

/// Pushes drawn from [`any_sample`] plus the bit patterns an ordering can
/// trip on (`-0.0`, and NaN with either sign), with an occasional clear.
fn window_op() -> impl Strategy<Value = WindowOp> {
    (0usize..40, any_sample()).prop_map(|(kind, v)| match kind {
        0 => WindowOp::Clear,
        1 => WindowOp::Push(-0.0),
        2 => WindowOp::Push(f64::NAN),
        3 => WindowOp::Push(f64::from_bits(0xfff8_0000_0000_0000)),
        _ => WindowOp::Push(v),
    })
}

fn trace_from(powers: &[f64]) -> RunTrace {
    let mut trace = RunTrace::new(Seconds::from_millis(10.0));
    for (i, &p) in powers.iter().enumerate() {
        trace.push(TraceRecord {
            time: Seconds::from_millis(10.0 * (i + 1) as f64),
            power: Watts::new(p),
            true_power: Watts::new(p),
            pstate: PStateId::new(i % 8),
            ipc: None,
            dpc: None,
        });
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A moving window's mean always lies between its min and max, and its
    /// length never exceeds capacity.
    #[test]
    fn window_statistics_bounded(
        capacity in 1usize..20,
        values in prop::collection::vec(-100.0f64..100.0, 0..100),
    ) {
        let mut window = MovingWindow::new(capacity);
        for &v in &values {
            window.push(v);
            prop_assert!(window.len() <= capacity);
            let (mean, min, max) =
                (window.mean().unwrap(), window.min().unwrap(), window.max().unwrap());
            prop_assert!(min <= mean + 1e-12 && mean <= max + 1e-12);
        }
    }

    /// The window retains exactly the most recent `capacity` values.
    #[test]
    fn window_retains_most_recent(
        capacity in 1usize..10,
        values in prop::collection::vec(-100.0f64..100.0, 1..60),
    ) {
        let mut window = MovingWindow::new(capacity);
        for &v in &values {
            window.push(v);
        }
        let expected: Vec<f64> =
            values.iter().rev().take(capacity).rev().copied().collect();
        prop_assert_eq!(window.iter().collect::<Vec<_>>(), expected);
    }

    /// The window's incremental order statistics are bit-identical to
    /// sorting its held values from scratch, after every push and clear,
    /// and eviction still keeps exactly the most recent `capacity` values.
    #[test]
    fn window_percentile_is_bit_identical_to_sorting(
        capacity in 1usize..301,
        ops in prop::collection::vec(window_op(), 0..400),
        p in 0.0f64..100.0,
    ) {
        let mut window = MovingWindow::new(capacity);
        let mut expected: VecDeque<f64> = VecDeque::new();
        for op in ops {
            match op {
                WindowOp::Push(v) => {
                    window.push(v);
                    if expected.len() == capacity {
                        expected.pop_front();
                    }
                    expected.push_back(if v.is_nan() { f64::NAN } else { v });
                }
                WindowOp::Clear => {
                    window.clear();
                    expected.clear();
                }
            }
            prop_assert_eq!(window.len(), expected.len());
            let held: Vec<f64> = window.iter().collect();
            prop_assert_eq!(
                held.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                expected.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            for rank in [p, 99.0, 100.0] {
                prop_assert_eq!(
                    window.percentile(rank).map(f64::to_bits),
                    percentile(&held, rank).map(f64::to_bits)
                );
            }
        }
    }

    /// Trace energy equals the sum of sample powers times the interval, and
    /// the mean power lies within the sample range.
    #[test]
    fn trace_energy_additivity(powers in prop::collection::vec(0.0f64..25.0, 1..300)) {
        let trace = trace_from(&powers);
        let expected: f64 = powers.iter().map(|p| p * 0.01).sum();
        prop_assert!((trace.measured_energy().joules() - expected).abs() < 1e-9);
        let mean = trace.mean_power().unwrap().watts();
        let max = trace.max_power().unwrap().watts();
        prop_assert!(mean <= max + 1e-12);
    }

    /// Violation fraction is a probability, zero when the limit clears the
    /// max sample, one when the limit is below the min window average.
    #[test]
    fn violation_fraction_bounds(
        powers in prop::collection::vec(1.0f64..25.0, 10..200),
        limit in 0.5f64..30.0,
        window in 1usize..15,
    ) {
        let trace = trace_from(&powers);
        let fraction = trace.violation_fraction(Watts::new(limit), window);
        prop_assert!((0.0..=1.0).contains(&fraction));
        let max = powers.iter().cloned().fold(f64::MIN, f64::max);
        let min = powers.iter().cloned().fold(f64::MAX, f64::min);
        if limit >= max {
            prop_assert_eq!(fraction, 0.0);
        }
        if limit < min && powers.len() >= window {
            prop_assert_eq!(fraction, 1.0);
        }
    }

    /// Moving averages are bounded by the sample extremes and there are
    /// exactly `n − window + 1` of them.
    #[test]
    fn moving_average_count_and_bounds(
        powers in prop::collection::vec(0.0f64..25.0, 1..200),
        window in 1usize..20,
    ) {
        let trace = trace_from(&powers);
        let averages = trace.moving_average_power(window);
        if powers.len() >= window {
            prop_assert_eq!(averages.len(), powers.len() - window + 1);
            let max = powers.iter().cloned().fold(f64::MIN, f64::max);
            let min = powers.iter().cloned().fold(f64::MAX, f64::min);
            for a in averages {
                prop_assert!(a >= min - 1e-12 && a <= max + 1e-12);
            }
        } else {
            prop_assert!(averages.is_empty());
        }
    }

    /// P-state residency fractions sum to one and each lies in (0, 1].
    #[test]
    fn residency_is_a_distribution(powers in prop::collection::vec(1.0f64..25.0, 1..100)) {
        let trace = trace_from(&powers);
        let residency = trace.pstate_residency();
        let total: f64 = residency.iter().map(|(_, f)| f).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for (_, f) in residency {
            prop_assert!(f > 0.0 && f <= 1.0);
        }
    }

    /// Median and percentiles are order statistics: bounded by min/max and
    /// monotone in p.
    #[test]
    fn percentiles_are_order_statistics(values in prop::collection::vec(-50.0f64..50.0, 1..100)) {
        let min = values.iter().cloned().fold(f64::MAX, f64::min);
        let max = values.iter().cloned().fold(f64::MIN, f64::max);
        let med = median(&values).unwrap();
        prop_assert!(med >= min - 1e-12 && med <= max + 1e-12);
        let mut last = min;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0] {
            let value = percentile(&values, p).unwrap();
            prop_assert!(value >= last - 1e-12);
            last = value;
        }
        let summary = summarize(&values).unwrap();
        prop_assert!(summary.mean >= min - 1e-12 && summary.mean <= max + 1e-12);
        prop_assert!(summary.std_dev >= 0.0);
    }

    /// The stats helpers are total over *any* floats: NaN and ±inf never
    /// panic, and the exact-rank percentiles return the total-order
    /// extremes instead of manufacturing `inf * 0` NaNs.
    #[test]
    fn median_and_percentile_total_over_non_finite(
        values in prop::collection::vec(any_sample(), 1..60),
        p in 0.0f64..100.0,
    ) {
        prop_assert!(median(&values).is_some());
        prop_assert!(percentile(&values, p).is_some());
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        let lo = percentile(&values, 0.0).unwrap();
        let hi = percentile(&values, 100.0).unwrap();
        prop_assert_eq!(lo.total_cmp(&sorted[0]), std::cmp::Ordering::Equal);
        prop_assert_eq!(
            hi.total_cmp(&sorted[sorted.len() - 1]),
            std::cmp::Ordering::Equal
        );
        // All-finite input keeps the helpers finite and in range.
        if values.iter().all(|v| v.is_finite()) {
            let med = median(&values).unwrap();
            prop_assert!(med.is_finite());
            prop_assert!((sorted[0]..=sorted[sorted.len() - 1]).contains(&med));
            prop_assert!(percentile(&values, p).unwrap().is_finite());
        }
    }
}
