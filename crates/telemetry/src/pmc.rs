//! Performance-monitoring-counter driver.
//!
//! The Pentium M has **two** general-purpose counters selectable among 92
//! events, plus the free-running timestamp counter. The paper's driver reads
//! them every 10 ms with negligible overhead. This module reproduces that
//! interface: a governor declares which events it needs; if they fit the two
//! programmable slots they are measured exactly every interval, otherwise
//! the driver *rotates* event pairs across intervals (the standard
//! multiplexing technique) and scales the counts, introducing realistic
//! estimation error for greedy event sets.

use aapm_platform::counters::CounterSnapshot;
use aapm_platform::events::HardwareEvent;
use aapm_platform::machine::Machine;
use aapm_platform::units::Seconds;

/// Number of programmable counters on the simulated PMU.
pub const PROGRAMMABLE_COUNTERS: usize = 2;

/// Pentium M performance counters are 40 bits wide; totals wrap modulo this.
pub const COUNTER_WRAP: f64 = (1u64 << 40) as f64;

/// Count accumulated between two reads of a 40-bit register.
///
/// Totals are reduced modulo the register width before differencing and a
/// negative difference means exactly one wrap occurred between reads (the
/// 10 ms cadence makes multiple wraps impossible: even at 2 GHz a register
/// gains < 2^28 counts per interval). When both totals sit in the same wrap
/// epoch this is bit-identical to plain subtraction, because `f64 % 2^40`
/// is exact for values below 2^53.
///
/// Public so boundary tests (and the fuzz harness's conservation oracle)
/// can exercise the wrap arithmetic directly.
pub fn wrapped_delta(now_total: f64, last_total: f64) -> f64 {
    let delta = now_total % COUNTER_WRAP - last_total % COUNTER_WRAP;
    if delta < 0.0 {
        delta + COUNTER_WRAP
    } else {
        delta
    }
}

/// One counter sample: estimated event counts over an interval.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Start of the interval.
    pub start: Seconds,
    /// End of the interval.
    pub end: Seconds,
    /// Core cycles elapsed in the interval (free-running, always exact).
    pub cycles: f64,
    /// `(event, estimated_count, measured_exactly)` for each requested
    /// event. Counts for events not scheduled this interval are estimated
    /// from their most recent measured rate.
    pub counts: Vec<(HardwareEvent, f64, bool)>,
}

impl CounterSample {
    /// Interval length.
    pub fn duration(&self) -> Seconds {
        self.end - self.start
    }

    /// Estimated count for `event`, if it was requested.
    pub fn count(&self, event: HardwareEvent) -> Option<f64> {
        if event == HardwareEvent::Cycles {
            return Some(self.cycles);
        }
        self.counts.iter().find(|(e, _, _)| *e == event).map(|(_, c, _)| *c)
    }

    /// Per-cycle rate for `event`, if it was requested. Zero if no cycles
    /// elapsed.
    pub fn rate(&self, event: HardwareEvent) -> Option<f64> {
        let count = self.count(event)?;
        Some(if self.cycles > 0.0 { count / self.cycles } else { 0.0 })
    }

    /// Whether `event` was measured exactly this interval (vs estimated
    /// from a previous rotation slot).
    pub fn measured_exactly(&self, event: HardwareEvent) -> bool {
        event == HardwareEvent::Cycles
            || self.counts.iter().any(|(e, _, exact)| *e == event && *exact)
    }

    /// Retired IPC over the interval, if instructions were requested.
    pub fn ipc(&self) -> Option<f64> {
        self.rate(HardwareEvent::InstructionsRetired)
    }

    /// Decoded instructions per cycle (the paper's DPC), if requested.
    pub fn dpc(&self) -> Option<f64> {
        self.rate(HardwareEvent::InstructionsDecoded)
    }

    /// DCU-miss-outstanding cycles per cycle, if requested.
    pub fn dcu(&self) -> Option<f64> {
        self.rate(HardwareEvent::DcuMissOutstanding)
    }

    /// Whether this sample carries at least one exactly-measured count.
    ///
    /// A normal read is always fresh (even under multiplexing the two
    /// scheduled slots are exact); a sample reconstructed after a missed
    /// driver read ([`PmcDriver::sample_missed`]) is entirely estimated and
    /// therefore stale. A sample with no programmable events requested is
    /// vacuously fresh.
    pub fn is_fresh(&self) -> bool {
        self.counts.is_empty() || self.counts.iter().any(|(_, _, exact)| *exact)
    }

    /// Whether this sample carries positive evidence of a live counter
    /// driver: at least one event was requested *and* measured exactly.
    ///
    /// Unlike [`CounterSample::is_fresh`] — which answers "is this data
    /// usable?" and is therefore vacuously true with no events requested —
    /// this answers "did the PMC channel demonstrably work this interval?".
    /// Health monitors (the watchdog) must use this form: a governor that
    /// monitors no counters provides no evidence either way, and treating
    /// its empty sample as proof of life masks real outages.
    pub fn has_fresh_counts(&self) -> bool {
        self.counts.iter().any(|(_, _, exact)| *exact)
    }
}

/// The sampling driver.
///
/// # Examples
///
/// ```
/// use aapm_platform::{config::MachineConfig, machine::Machine};
/// use aapm_platform::events::HardwareEvent;
/// use aapm_platform::phase::PhaseDescriptor;
/// use aapm_platform::program::PhaseProgram;
/// use aapm_platform::units::Seconds;
/// use aapm_telemetry::pmc::PmcDriver;
///
/// let phase = PhaseDescriptor::builder("w").instructions(100_000_000).build()?;
/// let mut machine = Machine::new(MachineConfig::default(), PhaseProgram::from_phase(phase));
/// let mut pmc = PmcDriver::new(vec![HardwareEvent::InstructionsDecoded]);
/// machine.tick(Seconds::from_millis(10.0));
/// let sample = pmc.sample(&machine);
/// assert!(sample.dpc().unwrap() > 0.0);
/// # Ok::<(), aapm_platform::error::PlatformError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PmcDriver {
    requested: Vec<HardwareEvent>,
    rotation_offset: usize,
    last_snapshot: CounterSnapshot,
    last_time: Seconds,
    last_rates: Vec<(HardwareEvent, f64)>,
    last_cycle_rate: f64,
}

impl PmcDriver {
    /// Creates a driver monitoring `events`.
    ///
    /// [`HardwareEvent::Cycles`] is free-running and need not be listed;
    /// duplicates are removed. If more than [`PROGRAMMABLE_COUNTERS`]
    /// programmable events are requested, the driver multiplexes.
    pub fn new(events: Vec<HardwareEvent>) -> Self {
        let mut requested: Vec<HardwareEvent> = Vec::new();
        for e in events {
            if !e.is_free_running() && !requested.contains(&e) {
                requested.push(e);
            }
        }
        PmcDriver {
            requested,
            rotation_offset: 0,
            last_snapshot: CounterSnapshot::zero(),
            last_time: Seconds::ZERO,
            last_rates: Vec::new(),
            last_cycle_rate: 0.0,
        }
    }

    /// The programmable events being monitored.
    pub fn events(&self) -> &[HardwareEvent] {
        &self.requested
    }

    /// Whether the request overcommits the two counters (multiplexing on).
    pub fn is_multiplexing(&self) -> bool {
        self.requested.len() > PROGRAMMABLE_COUNTERS
    }

    /// Reads the counters, returning estimated counts since the last call.
    ///
    /// # Panics
    ///
    /// Panics if the machine's clock has not advanced since the last sample.
    pub fn sample(&mut self, machine: &Machine) -> CounterSample {
        let now = machine.elapsed();
        let snapshot = machine.counter_snapshot();
        let dt = now - self.last_time;
        assert!(dt.is_positive(), "machine must advance between PMC samples");
        // The hardware registers are 40 bits wide, so every delta is taken
        // modulo the register width (handles wraps between reads — including
        // the longer gap after missed reads).
        let cycles = wrapped_delta(
            snapshot.get(HardwareEvent::Cycles),
            self.last_snapshot.get(HardwareEvent::Cycles),
        );

        let n = self.requested.len();
        let multiplexing = self.is_multiplexing();
        let mut counts = Vec::with_capacity(n);
        for slot in 0..n {
            let event = self.requested[slot];
            // The two programmable counters hold the events at rotation
            // offsets 0 and 1 this interval (every event when they fit).
            if !multiplexing || (slot + n - self.rotation_offset) % n < PROGRAMMABLE_COUNTERS {
                let count = wrapped_delta(snapshot.get(event), self.last_snapshot.get(event));
                let rate = if cycles > 0.0 { count / cycles } else { 0.0 };
                self.record_rate(event, rate);
                counts.push((event, count, true));
            } else {
                // Estimate from the last measured rate of this event.
                let rate = self.rate_of(event).unwrap_or(0.0);
                counts.push((event, rate * cycles, false));
            }
        }

        if multiplexing {
            self.rotation_offset = (self.rotation_offset + PROGRAMMABLE_COUNTERS) % n;
        }
        self.last_snapshot = snapshot;
        self.last_time = now;
        self.last_cycle_rate = cycles / dt.seconds();
        CounterSample { start: now - dt, end: now, cycles, counts }
    }

    /// Reconstructs a sample for an interval whose driver read was missed.
    ///
    /// The driver's state does not advance: the next successful [`sample`]
    /// call integrates across the gap. The returned sample estimates every
    /// count from the most recent measured rates (all marked inexact, so
    /// [`CounterSample::is_fresh`] is `false` for non-empty requests).
    ///
    /// [`sample`]: PmcDriver::sample
    pub fn sample_missed(&self, machine: &Machine, nominal_interval: Seconds) -> CounterSample {
        let now = machine.elapsed();
        let cycles = self.last_cycle_rate * nominal_interval.seconds();
        let counts = self
            .requested
            .iter()
            .map(|&event| (event, self.rate_of(event).unwrap_or(0.0) * cycles, false))
            .collect();
        CounterSample { start: now - nominal_interval, end: now, cycles, counts }
    }

    fn record_rate(&mut self, event: HardwareEvent, rate: f64) {
        if let Some(slot) = self.last_rates.iter_mut().find(|(e, _)| *e == event) {
            slot.1 = rate;
        } else {
            self.last_rates.push((event, rate));
        }
    }

    fn rate_of(&self, event: HardwareEvent) -> Option<f64> {
        self.last_rates.iter().find(|(e, _)| *e == event).map(|(_, r)| *r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aapm_platform::config::MachineConfig;
    use aapm_platform::phase::PhaseDescriptor;
    use aapm_platform::program::PhaseProgram;

    fn machine() -> Machine {
        let phase = PhaseDescriptor::builder("w")
            .instructions(100_000_000_000)
            .core_cpi(1.0)
            .mispredict_rate(0.0)
            .mem_fraction(0.4)
            .l1_mpi(0.02)
            .l2_mpi(0.001)
            .build()
            .unwrap();
        let mut builder = MachineConfig::builder();
        builder.execution_variation(0.0);
        Machine::new(builder.build().unwrap(), PhaseProgram::from_phase(phase))
    }

    #[test]
    fn two_events_are_measured_exactly_every_interval() {
        let mut m = machine();
        let mut pmc = PmcDriver::new(vec![
            HardwareEvent::InstructionsRetired,
            HardwareEvent::DcuMissOutstanding,
        ]);
        assert!(!pmc.is_multiplexing());
        for _ in 0..5 {
            m.tick(Seconds::from_millis(10.0));
            let s = pmc.sample(&m);
            assert!(s.measured_exactly(HardwareEvent::InstructionsRetired));
            assert!(s.measured_exactly(HardwareEvent::DcuMissOutstanding));
            assert!(s.ipc().unwrap() > 0.0);
            assert!(s.dcu().unwrap() > 0.0);
        }
    }

    #[test]
    fn cycles_are_free_and_exact() {
        let mut m = machine();
        let mut pmc = PmcDriver::new(vec![HardwareEvent::InstructionsDecoded]);
        m.tick(Seconds::from_millis(10.0));
        let s = pmc.sample(&m);
        // 2 GHz × 10 ms = 20M cycles.
        assert!((s.cycles - 20e6).abs() < 1.0);
        assert_eq!(s.count(HardwareEvent::Cycles), Some(s.cycles));
    }

    #[test]
    fn rates_match_machine_model() {
        let mut m = machine();
        let mut pmc = PmcDriver::new(vec![HardwareEvent::InstructionsRetired]);
        m.tick(Seconds::from_millis(10.0));
        let s = pmc.sample(&m);
        // CPI = 1.0 core + 0.02·10·0.8 L2 stall + 0.001·220·1.0 DRAM = 1.38.
        let expected_ipc = 1.0 / (1.0 + 0.16 + 0.22);
        assert!((s.ipc().unwrap() - expected_ipc).abs() < 1e-6);
    }

    #[test]
    fn four_events_multiplex_and_still_estimate_all() {
        let mut m = machine();
        let mut pmc = PmcDriver::new(vec![
            HardwareEvent::InstructionsRetired,
            HardwareEvent::InstructionsDecoded,
            HardwareEvent::DcuMissOutstanding,
            HardwareEvent::MemoryRequests,
        ]);
        assert!(pmc.is_multiplexing());
        // First interval: only the first pair is exact.
        m.tick(Seconds::from_millis(10.0));
        let s1 = pmc.sample(&m);
        assert!(s1.measured_exactly(HardwareEvent::InstructionsRetired));
        assert!(!s1.measured_exactly(HardwareEvent::DcuMissOutstanding));
        // Second interval: rotation brings the other pair in.
        m.tick(Seconds::from_millis(10.0));
        let s2 = pmc.sample(&m);
        assert!(s2.measured_exactly(HardwareEvent::DcuMissOutstanding));
        assert!(!s2.measured_exactly(HardwareEvent::InstructionsRetired));
        // Estimates exist for every requested event in both intervals.
        for s in [&s1, &s2] {
            for e in [
                HardwareEvent::InstructionsRetired,
                HardwareEvent::InstructionsDecoded,
                HardwareEvent::DcuMissOutstanding,
                HardwareEvent::MemoryRequests,
            ] {
                assert!(s.count(e).is_some());
            }
        }
        // On a steady phase the estimated rate converges to the exact one.
        assert!((s2.ipc().unwrap() - s1.ipc().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn unscheduled_event_with_no_history_estimates_zero() {
        let mut m = machine();
        let mut pmc = PmcDriver::new(vec![
            HardwareEvent::InstructionsRetired,
            HardwareEvent::InstructionsDecoded,
            HardwareEvent::DcuMissOutstanding,
        ]);
        m.tick(Seconds::from_millis(10.0));
        let s = pmc.sample(&m);
        assert_eq!(s.count(HardwareEvent::DcuMissOutstanding), Some(0.0));
    }

    #[test]
    fn duplicates_and_cycles_are_dropped_from_request() {
        let pmc = PmcDriver::new(vec![
            HardwareEvent::Cycles,
            HardwareEvent::InstructionsRetired,
            HardwareEvent::InstructionsRetired,
        ]);
        assert_eq!(pmc.events(), &[HardwareEvent::InstructionsRetired]);
    }

    #[test]
    fn unrequested_event_reads_none() {
        let mut m = machine();
        let mut pmc = PmcDriver::new(vec![HardwareEvent::InstructionsRetired]);
        m.tick(Seconds::from_millis(10.0));
        let s = pmc.sample(&m);
        assert_eq!(s.count(HardwareEvent::FpOperations), None);
        assert_eq!(s.dpc(), None);
    }

    #[test]
    fn wrapped_delta_reconstructs_counts_across_a_40_bit_wrap() {
        // Same epoch: identical to plain subtraction, bit for bit.
        assert_eq!(wrapped_delta(20e6, 0.0), 20e6);
        assert_eq!(wrapped_delta(123_456.75, 456.25), 123_000.5);
        let near_top = COUNTER_WRAP - 5e6;
        assert_eq!(wrapped_delta(near_top + 1e6, near_top), 1e6);
        // One wrap between reads: the register rolled over.
        assert_eq!(wrapped_delta(3e6, near_top), 8e6);
        // A register that wrapped exactly back to a smaller total.
        assert_eq!(wrapped_delta(COUNTER_WRAP + 7.0, COUNTER_WRAP - 3.0), 10.0);
    }

    #[test]
    fn sampling_across_a_wrap_matches_the_true_rate() {
        // Drive ~560 s of 2 GHz execution in big ticks so the cycle total
        // passes 2^40 ≈ 1.1e12, then check IPC is still the model's value.
        // The default test program would retire out after ~69 s, so give
        // this one enough instructions to stay busy past the wrap.
        let phase = PhaseDescriptor::builder("w")
            .instructions(10_000_000_000_000)
            .core_cpi(1.0)
            .mispredict_rate(0.0)
            .mem_fraction(0.4)
            .l1_mpi(0.02)
            .l2_mpi(0.001)
            .build()
            .unwrap();
        let mut builder = MachineConfig::builder();
        builder.execution_variation(0.0);
        let mut m = Machine::new(builder.build().unwrap(), PhaseProgram::from_phase(phase));
        let mut pmc = PmcDriver::new(vec![HardwareEvent::InstructionsRetired]);
        for _ in 0..56 {
            m.tick(Seconds::new(10.0));
            pmc.sample(&m);
        }
        assert!(m.counter_snapshot().get(HardwareEvent::Cycles) > COUNTER_WRAP);
        m.tick(Seconds::from_millis(10.0));
        let s = pmc.sample(&m);
        let expected_ipc = 1.0 / (1.0 + 0.16 + 0.22);
        assert!((s.ipc().unwrap() - expected_ipc).abs() < 1e-6);
    }

    #[test]
    fn missed_read_is_stale_and_next_read_integrates_the_gap() {
        let interval = Seconds::from_millis(10.0);
        let mut m = machine();
        let mut pmc = PmcDriver::new(vec![HardwareEvent::InstructionsRetired]);
        m.tick(interval);
        let first = pmc.sample(&m);
        assert!(first.is_fresh());

        // The driver misses the next read: its state must not advance, and
        // the reconstructed sample extrapolates the last measured rates.
        m.tick(interval);
        let missed = pmc.sample_missed(&m, interval);
        assert!(!missed.is_fresh());
        assert!((missed.cycles - first.cycles).abs() < 1.0);
        assert!((missed.ipc().unwrap() - first.ipc().unwrap()).abs() < 1e-9);

        // The next successful read covers both intervals.
        m.tick(interval);
        let recovered = pmc.sample(&m);
        assert!(recovered.is_fresh());
        assert!((recovered.cycles - 2.0 * first.cycles).abs() < 1.0);
        assert!((recovered.duration().seconds() - 0.02).abs() < 1e-9);
    }

    #[test]
    fn empty_request_is_vacuously_fresh() {
        let mut m = machine();
        let mut pmc = PmcDriver::new(vec![]);
        m.tick(Seconds::from_millis(10.0));
        assert!(pmc.sample(&m).is_fresh());
        m.tick(Seconds::from_millis(10.0));
        assert!(pmc.sample_missed(&m, Seconds::from_millis(10.0)).is_fresh());
    }
}
