//! PhasePm: PM with phase-aware raise decisions.
//!
//! Plain PM waits ten agreeing samples before raising frequency, which
//! protects against noise but costs 100 ms of performance after every
//! genuine drop in activity (e.g. each time `ammp` enters a memory-bound
//! region under a tight limit). `PhasePm` feeds the fresh DPC stream
//! through a [`PhaseDetector`]: when a *phase change* is detected — a
//! sustained-level shift, not a noisy sample — the raise window is
//! bypassed and the new best p-state is taken immediately. Everything
//! else is PM's own decision ([`PerformanceMaximizer`]): lowering stays
//! immediate, and a missed PMC read's extrapolated DPC neither feeds the
//! detector nor raises, under PM's hold and fail-safe.
//!
//! The `ablation-phase` experiment quantifies the trade: faster recovery on
//! phase transitions against the extra violations eager raising risks on
//! deceptive workloads like `galgel`.

use aapm_platform::pstate::PStateId;
use aapm_models::phase_detect::PhaseDetector;
use aapm_models::power_model::PowerModel;

use crate::governor::{Governor, GovernorCommand, SampleContext};
use crate::layer::GovernorLayer;
use crate::limits::PowerLimit;
use crate::pm::PerformanceMaximizer;

/// PM with phase-change-triggered immediate raises.
#[derive(Debug, Clone)]
pub struct PhasePm {
    inner: PerformanceMaximizer,
    detector: PhaseDetector,
}

impl PhasePm {
    /// Creates phase-aware PM with the DPC phase detector and PM's default
    /// tunables.
    pub fn new(model: PowerModel, limit: PowerLimit) -> Self {
        PhasePm {
            inner: PerformanceMaximizer::new(model, limit),
            detector: PhaseDetector::for_dpc(),
        }
    }
}

impl GovernorLayer for PhasePm {
    fn layer_name(&self) -> &str {
        "pm-phase"
    }

    fn inner_governor(&self) -> &dyn Governor {
        &self.inner
    }

    fn inner_governor_mut(&mut self) -> &mut dyn Governor {
        &mut self.inner
    }

    fn layer_decide(&mut self, ctx: &SampleContext<'_>) -> PStateId {
        // A missed read's DPC is extrapolated, not measured: it must neither
        // move the detector's baseline nor trigger a raise.
        let phase_changed =
            ctx.counters.is_fresh() && self.detector.observe(ctx.counters.dpc().unwrap_or(0.0));
        self.inner.decide_with(ctx, 1.0, phase_changed)
    }

    fn layer_command(&mut self, command: GovernorCommand) {
        self.inner.command(command);
        self.detector.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aapm_platform::events::HardwareEvent;
    use aapm_platform::pstate::PStateTable;
    use aapm_platform::units::Seconds;
    use aapm_telemetry::pmc::CounterSample;

    fn sample(dpc: f64, fresh: bool) -> CounterSample {
        let cycles = 20e6;
        CounterSample {
            start: Seconds::ZERO,
            end: Seconds::from_millis(10.0),
            cycles,
            counts: vec![(HardwareEvent::InstructionsDecoded, dpc * cycles, fresh)],
        }
    }

    fn decide(g: &mut PhasePm, table: &PStateTable, current: usize, dpc: f64) -> PStateId {
        observe(g, table, current, dpc, true)
    }

    fn observe(
        g: &mut PhasePm,
        table: &PStateTable,
        current: usize,
        dpc: f64,
        fresh: bool,
    ) -> PStateId {
        let s = sample(dpc, fresh);
        let ctx = SampleContext {
            counters: &s,
            power: None,
            temperature: None,
            current: PStateId::new(current),
            table,
            queue: None,
        };
        g.decide(&ctx)
    }

    fn governor(limit: f64) -> PhasePm {
        PhasePm::new(PowerModel::paper_table_ii(), PowerLimit::new(limit).unwrap())
    }

    #[test]
    fn steady_stream_still_waits_the_full_window() {
        let table = PStateTable::pentium_m_755();
        let mut g = governor(30.0);
        // Establish a steady baseline at the same DPC the raises will see:
        // no phase change fires, so the 10-sample window applies.
        decide(&mut g, &table, 2, 0.5);
        for i in 0..8 {
            assert_eq!(decide(&mut g, &table, 2, 0.5), PStateId::new(2), "sample {i}");
        }
        assert!(decide(&mut g, &table, 2, 0.5) > PStateId::new(2), "10th sample raises");
    }

    #[test]
    fn phase_change_raises_immediately() {
        let table = PStateTable::pentium_m_755();
        let mut g = governor(30.0);
        // Steady hot-ish phase at DPC 3.2 keeps a low state.
        for _ in 0..5 {
            decide(&mut g, &table, 2, 3.2);
        }
        // The workload drops to a cool phase: one sample suffices.
        let chosen = decide(&mut g, &table, 2, 0.4);
        assert!(chosen > PStateId::new(2), "phase change bypasses the window, got {chosen}");
    }

    #[test]
    fn lowering_remains_immediate() {
        let table = PStateTable::pentium_m_755();
        let mut g = governor(14.0);
        for _ in 0..3 {
            decide(&mut g, &table, 7, 0.3);
        }
        let chosen = decide(&mut g, &table, 7, 3.0);
        assert!(chosen < PStateId::new(7));
    }

    /// PM's stale-counter contract holds under the phase layer: a missed
    /// PMC read's extrapolated DPC never raises the clock,
    /// `STALE_HOLD_SAMPLES` stale intervals hold, and every later one steps
    /// down a state.
    #[test]
    fn stale_counters_hold_then_fail_safe() {
        let table = PStateTable::pentium_m_755();
        let mut g = governor(30.0);
        assert_eq!(decide(&mut g, &table, 2, 0.5), PStateId::new(2));
        let mut current = 2;
        let mut path = Vec::new();
        for _ in 0..40 {
            current = observe(&mut g, &table, current, 0.5, false).index();
            path.push(current);
        }
        let hold = PerformanceMaximizer::STALE_HOLD_SAMPLES;
        let mut expect = vec![2; hold];
        expect.push(1);
        expect.resize(40, 0);
        assert_eq!(path, expect);
    }

    #[test]
    fn limit_change_resets_detector_and_streak() {
        let table = PStateTable::pentium_m_755();
        let mut g = governor(30.0);
        for _ in 0..5 {
            decide(&mut g, &table, 2, 0.5);
        }
        g.command(GovernorCommand::SetPowerLimit(PowerLimit::new(20.0).unwrap()));
        // After the reset the next sample re-baselines: no phase-change
        // bypass, and the streak starts over.
        for i in 0..9 {
            assert_eq!(decide(&mut g, &table, 2, 0.5), PStateId::new(2), "sample {i}");
        }
        assert!(decide(&mut g, &table, 2, 0.5) > PStateId::new(2));
    }
}
