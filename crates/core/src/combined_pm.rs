//! CombinedPm: PM extended with clock modulation for deep power caps.
//!
//! Plain PM bottoms out at the lowest p-state: a limit below P0's power is
//! simply violated. Real parts layer ACPI T-states under the p-states for
//! exactly this case (thermal emergencies, battery-critical operation).
//! `CombinedPm` runs PM's DVFS policy unchanged and, only when even the
//! lowest p-state's estimate exceeds the limit, engages the duty-cycle
//! modulator:
//!
//! ```text
//! est(duty) = duty · est(P0) + (1 − duty) · gated_floor
//! ```
//!
//! choosing the highest duty that fits. The gated floor models the
//! leakage-only draw while the clock is stopped (the governor cannot see
//! the platform's leakage split, so it is a fixed estimate of 1.5 W, like
//! the guardband).

use aapm_platform::events::HardwareEvent;
use aapm_platform::throttle::ThrottleLevel;
use aapm_platform::units::Watts;
use aapm_models::power_model::PowerModel;

use crate::governor::{Governor, SampleContext};
use crate::layer::GovernorLayer;
use crate::limits::PowerLimit;
use crate::pm::PerformanceMaximizer;

/// Estimated draw while the clock is gated (leakage-only floor), in watts.
const GATED_FLOOR_W: f64 = 1.5;

/// PM with a clock-modulation deep-cap extension.
#[derive(Debug, Clone)]
pub struct CombinedPm {
    inner: PerformanceMaximizer,
}

impl CombinedPm {
    /// Creates combined PM with the 1.5 W gated-floor estimate.
    pub fn new(model: PowerModel, limit: PowerLimit) -> Self {
        CombinedPm { inner: PerformanceMaximizer::new(model, limit) }
    }

    /// The active power limit.
    pub fn limit(&self) -> PowerLimit {
        self.inner.limit()
    }

    /// Estimated power at the lowest p-state under `duty` modulation.
    fn gated_estimate(&self, ctx: &SampleContext<'_>, dpc: f64, duty: f64) -> Option<Watts> {
        let p0 = self.inner.estimate_at(ctx, dpc, ctx.table.lowest())?;
        Some(p0 * duty + Watts::new(GATED_FLOOR_W) * (1.0 - duty))
    }
}

impl GovernorLayer for CombinedPm {
    fn layer_name(&self) -> &str {
        "pm-combined"
    }

    fn inner_governor(&self) -> &dyn Governor {
        &self.inner
    }

    fn inner_governor_mut(&mut self) -> &mut dyn Governor {
        &mut self.inner
    }

    fn layer_events(&self) -> Vec<HardwareEvent> {
        vec![HardwareEvent::InstructionsDecoded]
    }

    fn layer_throttle(&mut self, ctx: &SampleContext<'_>) -> ThrottleLevel {
        let dpc = ctx.counters.dpc().unwrap_or(0.0);
        // DVFS headroom? Leave the clock alone.
        if let Some(p0_estimate) = self.inner.estimate_at(ctx, dpc, ctx.table.lowest()) {
            if p0_estimate <= self.limit().watts() {
                return ThrottleLevel::FULL;
            }
        }
        // Deep cap: the highest duty whose estimate fits; 1/8 if none does.
        let mut choice = ThrottleLevel::new(1).expect("1/8 duty is valid");
        for level in ThrottleLevel::all() {
            match self.gated_estimate(ctx, dpc, level.duty()) {
                Some(estimate) if estimate <= self.limit().watts() => choice = level,
                _ => {}
            }
        }
        choice
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::GovernorCommand;
    use aapm_platform::pstate::{PStateId, PStateTable};
    use aapm_platform::units::Seconds;
    use aapm_telemetry::pmc::CounterSample;

    fn sample(dpc: f64) -> CounterSample {
        let cycles = 20e6;
        CounterSample {
            start: Seconds::ZERO,
            end: Seconds::from_millis(10.0),
            cycles,
            counts: vec![(HardwareEvent::InstructionsDecoded, dpc * cycles, true)],
        }
    }

    fn ctx_at<'a>(
        s: &'a CounterSample,
        table: &'a PStateTable,
        current: usize,
    ) -> SampleContext<'a> {
        SampleContext {
            counters: s,
            power: None,
            temperature: None,
            current: PStateId::new(current),
            table,
            queue: None,
        }
    }

    #[test]
    fn generous_limit_leaves_clock_ungated() {
        let table = PStateTable::pentium_m_755();
        let mut g = CombinedPm::new(PowerModel::paper_table_ii(), PowerLimit::new(15.0).unwrap());
        let s = sample(1.0);
        let ctx = ctx_at(&s, &table, 7);
        assert!(g.throttle_decision(&ctx).is_full());
    }

    #[test]
    fn deep_cap_engages_modulation() {
        let table = PStateTable::pentium_m_755();
        // Paper Table II at P0: 0.34·DPC + 2.58; with DPC projected down
        // from P7 (×2000/600) and the 0.5 W guardband, est(P0) at DPC 1.0
        // is 0.34·3.33 + 2.58 + 0.5 ≈ 4.21 W. A 3.5 W cap needs gating.
        let mut g = CombinedPm::new(PowerModel::paper_table_ii(), PowerLimit::new(3.5).unwrap());
        let s = sample(1.0);
        let ctx = ctx_at(&s, &table, 7);
        let level = g.throttle_decision(&ctx);
        assert!(!level.is_full(), "3.5 W cap must gate the clock");
        // est(duty) = duty·4.21 + (1−duty)·1.5 ≤ 3.5 → duty ≤ 0.738 → 5/8.
        assert_eq!(level.steps(), 5, "highest duty fitting under the cap");
        // And the DVFS decision bottoms out at the lowest state.
        assert_eq!(g.decide(&ctx), table.lowest());
    }

    #[test]
    fn impossible_cap_falls_to_minimum_duty() {
        let table = PStateTable::pentium_m_755();
        let mut g = CombinedPm::new(PowerModel::paper_table_ii(), PowerLimit::new(1.0).unwrap());
        let s = sample(2.0);
        let ctx = ctx_at(&s, &table, 0);
        assert_eq!(g.throttle_decision(&ctx).steps(), 1);
    }

    #[test]
    fn limit_commands_flow_through() {
        let table = PStateTable::pentium_m_755();
        let mut g = CombinedPm::new(PowerModel::paper_table_ii(), PowerLimit::new(3.5).unwrap());
        g.command(GovernorCommand::SetPowerLimit(PowerLimit::new(20.0).unwrap()));
        let s = sample(1.0);
        let ctx = ctx_at(&s, &table, 7);
        assert!(g.throttle_decision(&ctx).is_full());
    }
}
