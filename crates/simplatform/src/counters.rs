//! Hardware event-count accumulators.
//!
//! [`CounterBlock`] is the machine-side accumulator: every simulated event
//! increments its (fractional) total. Fractions arise because the analytic
//! machine model advances in continuous time — a tick may execute 12 345.67
//! instructions — and rounding at every tick would bias long-run rates.
//! Snapshots and deltas are what the PMC driver in `aapm-telemetry` reads.

use std::fmt;
use std::ops::{Index, Sub};

use crate::events::HardwareEvent;
use crate::pipeline::PhaseRates;

/// Accumulated event counts for every [`HardwareEvent`].
///
/// # Examples
///
/// ```
/// use aapm_platform::counters::CounterBlock;
/// use aapm_platform::events::HardwareEvent;
///
/// let mut block = CounterBlock::new();
/// block.add(HardwareEvent::Cycles, 1000.0);
/// block.add(HardwareEvent::InstructionsRetired, 750.0);
/// let snap = block.snapshot();
/// block.add(HardwareEvent::Cycles, 500.0);
/// let delta = block.snapshot() - snap;
/// assert_eq!(delta.get(HardwareEvent::Cycles), 500.0);
/// assert_eq!(delta.get(HardwareEvent::InstructionsRetired), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CounterBlock {
    counts: [f64; HardwareEvent::COUNT],
}

impl CounterBlock {
    /// Creates a zeroed counter block.
    pub fn new() -> Self {
        CounterBlock::default()
    }

    /// Adds `amount` occurrences of `event`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `amount` is negative or NaN; event counts
    /// only ever grow.
    pub fn add(&mut self, event: HardwareEvent, amount: f64) {
        debug_assert!(amount >= 0.0 && !amount.is_nan(), "counter increments are non-negative");
        self.counts[event.index()] += amount;
    }

    /// Returns the accumulated count for `event`.
    pub fn get(&self, event: HardwareEvent) -> f64 {
        self.counts[event.index()]
    }

    /// Accumulates one execution segment's events in a single fused update:
    /// every per-cycle rate in `rates` multiplied by the `cycles` that
    /// elapsed. Each slot receives exactly the `rate × cycles` increment the
    /// equivalent 14 [`CounterBlock::add`] calls would have applied, so the
    /// totals are bit-identical to the dispatched path — just without the
    /// per-event enum dispatch on the simulator's hot loop.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `cycles` is negative or NaN.
    pub fn add_rates(&mut self, rates: &PhaseRates, cycles: f64) {
        debug_assert!(cycles >= 0.0 && !cycles.is_nan(), "cycle counts are non-negative");
        let c = &mut self.counts;
        c[HardwareEvent::Cycles.index()] += cycles;
        c[HardwareEvent::InstructionsRetired.index()] += rates.ipc * cycles;
        c[HardwareEvent::InstructionsDecoded.index()] += rates.dpc * cycles;
        c[HardwareEvent::DcuMissOutstanding.index()] += rates.dcu_outstanding_per_cycle * cycles;
        c[HardwareEvent::ResourceStalls.index()] += rates.resource_stalls_per_cycle * cycles;
        c[HardwareEvent::MemoryRequests.index()] += rates.memory_requests_per_cycle * cycles;
        c[HardwareEvent::L2Requests.index()] += rates.l2_requests_per_cycle * cycles;
        c[HardwareEvent::L1DMisses.index()] += rates.l1_misses_per_cycle * cycles;
        c[HardwareEvent::L2Misses.index()] += rates.l2_misses_per_cycle * cycles;
        c[HardwareEvent::FpOperations.index()] += rates.fp_per_cycle * cycles;
        c[HardwareEvent::BranchesRetired.index()] += rates.branches_per_cycle * cycles;
        c[HardwareEvent::BranchMispredictions.index()] += rates.mispredicts_per_cycle * cycles;
        c[HardwareEvent::HardwarePrefetches.index()] += rates.prefetches_per_cycle * cycles;
        c[HardwareEvent::UopsRetired.index()] += rates.uops_per_cycle * cycles;
    }

    /// Takes an immutable copy of the current totals.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot { counts: self.counts }
    }

    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        self.counts = [0.0; HardwareEvent::COUNT];
    }
}

impl Index<HardwareEvent> for CounterBlock {
    type Output = f64;
    fn index(&self, event: HardwareEvent) -> &f64 {
        &self.counts[event.index()]
    }
}

/// A point-in-time copy of a [`CounterBlock`].
///
/// Subtracting two snapshots yields a [`CounterDelta`]: the events observed
/// in the interval between them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterSnapshot {
    counts: [f64; HardwareEvent::COUNT],
}

impl CounterSnapshot {
    /// A snapshot with all counters at zero.
    pub fn zero() -> Self {
        CounterSnapshot { counts: [0.0; HardwareEvent::COUNT] }
    }

    /// Returns the snapshot's total for `event`.
    pub fn get(&self, event: HardwareEvent) -> f64 {
        self.counts[event.index()]
    }
}

impl Default for CounterSnapshot {
    fn default() -> Self {
        CounterSnapshot::zero()
    }
}

impl Sub for CounterSnapshot {
    type Output = CounterDelta;

    /// Events observed between `rhs` (earlier) and `self` (later).
    fn sub(self, rhs: CounterSnapshot) -> CounterDelta {
        let mut counts = [0.0; HardwareEvent::COUNT];
        for (i, slot) in counts.iter_mut().enumerate() {
            *slot = self.counts[i] - rhs.counts[i];
        }
        CounterDelta { counts }
    }
}

/// Event counts observed over an interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterDelta {
    counts: [f64; HardwareEvent::COUNT],
}

impl CounterDelta {
    /// A delta with all counts zero.
    pub fn zero() -> Self {
        CounterDelta { counts: [0.0; HardwareEvent::COUNT] }
    }

    /// Returns the count for `event` over the interval.
    pub fn get(&self, event: HardwareEvent) -> f64 {
        self.counts[event.index()]
    }

    /// Count of `event` per elapsed core cycle over the interval.
    ///
    /// Returns 0 when no cycles elapsed (e.g. a fully-stalled interval),
    /// which is the convention the paper's 10 ms sampling driver uses for
    /// empty samples.
    pub fn per_cycle(&self, event: HardwareEvent) -> f64 {
        let cycles = self.get(HardwareEvent::Cycles);
        if cycles <= 0.0 {
            0.0
        } else {
            self.get(event) / cycles
        }
    }

    /// Retired instructions per cycle over the interval.
    pub fn ipc(&self) -> f64 {
        self.per_cycle(HardwareEvent::InstructionsRetired)
    }

    /// Decoded instructions per cycle over the interval (the paper's DPC).
    pub fn dpc(&self) -> f64 {
        self.per_cycle(HardwareEvent::InstructionsDecoded)
    }

    /// DCU-miss-outstanding cycles per cycle over the interval.
    pub fn dcu(&self) -> f64 {
        self.per_cycle(HardwareEvent::DcuMissOutstanding)
    }
}

impl Default for CounterDelta {
    fn default() -> Self {
        CounterDelta::zero()
    }
}

impl fmt::Display for CounterDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for event in HardwareEvent::ALL {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{}={:.0}", event.mnemonic(), self.get(event))?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get_round_trip() {
        let mut block = CounterBlock::new();
        block.add(HardwareEvent::L2Requests, 3.5);
        block.add(HardwareEvent::L2Requests, 1.5);
        assert_eq!(block.get(HardwareEvent::L2Requests), 5.0);
        assert_eq!(block[HardwareEvent::L2Requests], 5.0);
        assert_eq!(block.get(HardwareEvent::L2Misses), 0.0);
    }

    #[test]
    fn snapshot_delta_isolates_interval() {
        let mut block = CounterBlock::new();
        block.add(HardwareEvent::Cycles, 100.0);
        let before = block.snapshot();
        block.add(HardwareEvent::Cycles, 50.0);
        block.add(HardwareEvent::InstructionsRetired, 40.0);
        let delta = block.snapshot() - before;
        assert_eq!(delta.get(HardwareEvent::Cycles), 50.0);
        assert_eq!(delta.get(HardwareEvent::InstructionsRetired), 40.0);
    }

    #[test]
    fn rates_divide_by_cycles() {
        let mut block = CounterBlock::new();
        let before = block.snapshot();
        block.add(HardwareEvent::Cycles, 200.0);
        block.add(HardwareEvent::InstructionsRetired, 100.0);
        block.add(HardwareEvent::InstructionsDecoded, 130.0);
        block.add(HardwareEvent::DcuMissOutstanding, 300.0);
        let delta = block.snapshot() - before;
        assert!((delta.ipc() - 0.5).abs() < 1e-12);
        assert!((delta.dpc() - 0.65).abs() < 1e-12);
        assert!((delta.dcu() - 1.5).abs() < 1e-12, "MLP lets DCU exceed 1/cycle");
    }

    #[test]
    fn zero_cycle_interval_has_zero_rates() {
        let delta = CounterDelta::zero();
        assert_eq!(delta.ipc(), 0.0);
        assert_eq!(delta.dpc(), 0.0);
        assert_eq!(delta.dcu(), 0.0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut block = CounterBlock::new();
        block.add(HardwareEvent::FpOperations, 9.0);
        block.reset();
        assert_eq!(block.snapshot(), CounterSnapshot::zero());
    }

    #[test]
    fn add_rates_matches_per_event_adds_bitwise() {
        let rates = PhaseRates {
            cpi: 1.3,
            ipc: 1.0 / 1.3,
            dpc: 0.83,
            dcu_outstanding_per_cycle: 0.41,
            resource_stalls_per_cycle: 0.17,
            memory_requests_per_cycle: 0.013,
            l2_requests_per_cycle: 0.031,
            l1_accesses_per_cycle: 0.29,
            l1_misses_per_cycle: 0.023,
            l2_misses_per_cycle: 0.007,
            fp_per_cycle: 0.11,
            branches_per_cycle: 0.13,
            mispredicts_per_cycle: 0.0013,
            prefetches_per_cycle: 0.019,
            uops_per_cycle: 0.885,
            instructions_per_second: 1.1e9,
        };
        let cycles = 19_876_543.21;
        let mut fused = CounterBlock::new();
        fused.add_rates(&rates, cycles);
        let mut dispatched = CounterBlock::new();
        dispatched.add(HardwareEvent::Cycles, cycles);
        dispatched.add(HardwareEvent::InstructionsRetired, rates.ipc * cycles);
        dispatched.add(HardwareEvent::InstructionsDecoded, rates.dpc * cycles);
        dispatched.add(HardwareEvent::DcuMissOutstanding, rates.dcu_outstanding_per_cycle * cycles);
        dispatched.add(HardwareEvent::ResourceStalls, rates.resource_stalls_per_cycle * cycles);
        dispatched.add(HardwareEvent::MemoryRequests, rates.memory_requests_per_cycle * cycles);
        dispatched.add(HardwareEvent::L2Requests, rates.l2_requests_per_cycle * cycles);
        dispatched.add(HardwareEvent::L1DMisses, rates.l1_misses_per_cycle * cycles);
        dispatched.add(HardwareEvent::L2Misses, rates.l2_misses_per_cycle * cycles);
        dispatched.add(HardwareEvent::FpOperations, rates.fp_per_cycle * cycles);
        dispatched.add(HardwareEvent::BranchesRetired, rates.branches_per_cycle * cycles);
        dispatched.add(HardwareEvent::BranchMispredictions, rates.mispredicts_per_cycle * cycles);
        dispatched.add(HardwareEvent::HardwarePrefetches, rates.prefetches_per_cycle * cycles);
        dispatched.add(HardwareEvent::UopsRetired, rates.uops_per_cycle * cycles);
        assert_eq!(fused.snapshot(), dispatched.snapshot());
    }

    #[test]
    fn delta_display_mentions_every_event() {
        let text = format!("{}", CounterDelta::zero());
        for event in HardwareEvent::ALL {
            assert!(text.contains(event.mnemonic()), "missing {event}");
        }
    }
}
