//! Measured-power feedback extension to PM (the paper's future-work note).
//!
//! For workloads like `galgel` whose activity falls outside the model's
//! training set, the paper suggests "PM could adapt model coefficients on
//! the fly or scale measured power for p-state changes". [`FeedbackPm`]
//! implements the scaling variant: it tracks the exponentially-weighted
//! ratio of *measured* to *estimated* power at the current p-state, and
//! multiplies every estimate by that correction before comparing against
//! the limit. Workloads the static model underestimates are throttled
//! harder; well-modelled workloads are unaffected.
//!
//! The correction bends the estimate, not the control law: the layer hands
//! it to PM's own decision ([`PerformanceMaximizer`]), which keeps PM's
//! stale-counter hold, raise window and command handling.

use aapm_platform::pstate::PStateId;
use aapm_models::power_model::PowerModel;

use crate::governor::{Governor, SampleContext};
use crate::layer::GovernorLayer;
use crate::limits::PowerLimit;
use crate::pm::PerformanceMaximizer;

/// EWMA smoothing factor of the correction, per 10 ms sample.
const SMOOTHING: f64 = 0.2;

/// PM with measured-power feedback correction.
#[derive(Debug, Clone)]
pub struct FeedbackPm {
    inner: PerformanceMaximizer,
    /// EWMA of measured/estimated power at the current state.
    correction: f64,
}

impl FeedbackPm {
    /// Creates feedback-PM with PM's default guardband and raise window.
    pub fn new(model: PowerModel, limit: PowerLimit) -> Self {
        FeedbackPm { inner: PerformanceMaximizer::new(model, limit), correction: 1.0 }
    }

    /// The current correction factor (measured / estimated, smoothed).
    pub fn correction(&self) -> f64 {
        self.correction
    }

    fn update_correction(&mut self, ctx: &SampleContext<'_>) {
        let Some(measured) = ctx.power else { return };
        // A stale counter sample pairs an extrapolated DPC with a real
        // measurement; feeding that ratio into the EWMA would corrupt the
        // correction, so hold it until fresh counters return.
        if !ctx.counters.is_fresh() {
            return;
        }
        let dpc = ctx.counters.dpc().unwrap_or(0.0);
        let Ok(estimate) = self.inner.model().estimate(ctx.current, dpc) else { return };
        if estimate.watts() <= 0.1 || measured.power.watts() <= 0.1 {
            return;
        }
        let ratio = (measured.power.watts() / estimate.watts()).clamp(0.5, 2.0);
        self.correction += SMOOTHING * (ratio - self.correction);
    }
}

impl GovernorLayer for FeedbackPm {
    fn layer_name(&self) -> &str {
        "pm-feedback"
    }

    fn inner_governor(&self) -> &dyn Governor {
        &self.inner
    }

    fn inner_governor_mut(&mut self) -> &mut dyn Governor {
        &mut self.inner
    }

    fn layer_decide(&mut self, ctx: &SampleContext<'_>) -> PStateId {
        self.update_correction(ctx);
        self.inner.decide_with(ctx, self.correction, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::GovernorCommand;
    use aapm_platform::events::HardwareEvent;
    use aapm_platform::pstate::PStateTable;
    use aapm_platform::units::{Seconds, Watts};
    use aapm_telemetry::daq::PowerSample;
    use aapm_telemetry::pmc::CounterSample;
    use proptest::prelude::*;

    fn sample(dpc: f64) -> CounterSample {
        let cycles = 20e6;
        CounterSample {
            start: Seconds::ZERO,
            end: Seconds::from_millis(10.0),
            cycles,
            counts: vec![(HardwareEvent::InstructionsDecoded, dpc * cycles, true)],
        }
    }

    fn power(watts: f64) -> PowerSample {
        PowerSample {
            start: Seconds::ZERO,
            end: Seconds::from_millis(10.0),
            power: Watts::new(watts),
            true_power: Watts::new(watts),
        }
    }

    #[test]
    fn correction_rises_when_model_underestimates() {
        let table = PStateTable::pentium_m_755();
        let mut g = FeedbackPm::new(PowerModel::paper_table_ii(), PowerLimit::new(17.5).unwrap());
        // Model at P7, DPC 1.0 → 15.04 W; measured 18 W → ratio ≈ 1.2.
        let s = sample(1.0);
        let p = power(18.0);
        for _ in 0..50 {
            let ctx = SampleContext {
                counters: &s,
                power: Some(&p), temperature: None,
                current: PStateId::new(7),
                table: &table,
                queue: None,
            };
            g.decide(&ctx);
        }
        assert!(g.correction() > 1.15, "correction {} should approach 1.2", g.correction());
    }

    #[test]
    fn underestimated_workload_gets_throttled_harder_than_plain_pm() {
        let table = PStateTable::pentium_m_755();
        let mut g = FeedbackPm::new(PowerModel::paper_table_ii(), PowerLimit::new(15.5).unwrap());
        let s = sample(1.0);
        let hot = power(18.0);
        // Warm the correction up, then check the decision.
        let mut chosen = PStateId::new(7);
        for _ in 0..50 {
            let ctx = SampleContext {
                counters: &s,
                power: Some(&hot), temperature: None,
                current: chosen,
                table: &table,
                queue: None,
            };
            chosen = g.decide(&ctx);
        }
        // Plain PM with the same model would keep P7 (est 15.04+0.5 ≤ 15.5
        // is false… est 15.54 > 15.5 → P6). Feedback must be at least as low.
        assert!(chosen < PStateId::new(7), "feedback PM must throttle, chose {chosen}");
    }

    #[test]
    fn well_modelled_workload_keeps_correction_near_one() {
        let table = PStateTable::pentium_m_755();
        let mut g = FeedbackPm::new(PowerModel::paper_table_ii(), PowerLimit::new(30.0).unwrap());
        let s = sample(1.0);
        let accurate = power(15.04); // exactly the model estimate at P7
        for _ in 0..50 {
            let ctx = SampleContext {
                counters: &s,
                power: Some(&accurate), temperature: None,
                current: PStateId::new(7),
                table: &table,
                queue: None,
            };
            g.decide(&ctx);
        }
        assert!((g.correction() - 1.0).abs() < 0.05, "correction {}", g.correction());
    }

    /// A limit command restarts the raise window, as it does in PM: nine
    /// agreeing samples, the command, then one more must not raise.
    #[test]
    fn limit_command_restarts_the_raise_window() {
        let table = PStateTable::pentium_m_755();
        let limit = PowerLimit::new(30.0).unwrap();
        let mut g = FeedbackPm::new(PowerModel::paper_table_ii(), limit);
        let mut pm = PerformanceMaximizer::new(PowerModel::paper_table_ii(), limit);
        let s = sample(0.5);
        let ctx = SampleContext {
            counters: &s,
            power: None,
            temperature: None,
            current: PStateId::new(2),
            table: &table,
            queue: None,
        };
        for _ in 0..9 {
            assert_eq!(g.decide(&ctx), PStateId::new(2));
            assert_eq!(pm.decide(&ctx), PStateId::new(2));
        }
        let command = GovernorCommand::SetPowerLimit(PowerLimit::new(25.0).unwrap());
        g.command(command);
        pm.command(command);
        assert_eq!(pm.decide(&ctx), PStateId::new(2));
        assert_eq!(g.decide(&ctx), PStateId::new(2));
    }

    #[derive(Debug, Clone)]
    enum Step {
        Samples { dpc: f64, fresh: bool, repeat: usize },
        Limit(f64),
    }

    fn steps() -> impl Strategy<Value = Vec<Step>> {
        // Two draws in three are fresh reads.
        let samples = (0.0f64..4.0, 0u32..3, 1usize..16)
            .prop_map(|(dpc, draw, repeat)| Step::Samples { dpc, fresh: draw > 0, repeat });
        let limit = (8.0f64..25.0).prop_map(Step::Limit);
        prop::collection::vec(prop_oneof![6 => samples, 1 => limit], 1..40)
    }

    proptest! {
        /// Without power samples the correction stays at 1.0, so feedback-pm
        /// decides exactly as PM does: through fresh and stale counters, the
        /// hold window, the fail-safe and limit commands.
        #[test]
        fn without_power_samples_decides_as_pm(
            start in 0usize..8,
            limit_w in 8.0f64..25.0,
            steps in steps(),
        ) {
            let table = PStateTable::pentium_m_755();
            let limit = PowerLimit::new(limit_w).unwrap();
            let mut g = FeedbackPm::new(PowerModel::paper_table_ii(), limit);
            let mut pm = PerformanceMaximizer::new(PowerModel::paper_table_ii(), limit);
            let mut current = PStateId::new(start);
            for step in &steps {
                match *step {
                    Step::Limit(watts) => {
                        let command = GovernorCommand::SetPowerLimit(PowerLimit::new(watts).unwrap());
                        g.command(command);
                        pm.command(command);
                    }
                    Step::Samples { dpc, fresh, repeat } => {
                        let cycles = 20e6;
                        let s = CounterSample {
                            start: Seconds::ZERO,
                            end: Seconds::from_millis(10.0),
                            cycles,
                            counts: vec![(HardwareEvent::InstructionsDecoded, dpc * cycles, fresh)],
                        };
                        for _ in 0..repeat {
                            let ctx = SampleContext {
                                counters: &s,
                                power: None,
                                temperature: None,
                                current,
                                table: &table,
                                queue: None,
                            };
                            let expect = pm.decide(&ctx);
                            prop_assert_eq!(g.decide(&ctx), expect);
                            current = expect;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn missing_power_sample_leaves_correction_unchanged() {
        let table = PStateTable::pentium_m_755();
        let mut g = FeedbackPm::new(PowerModel::paper_table_ii(), PowerLimit::new(17.5).unwrap());
        let s = sample(1.0);
        let ctx = SampleContext { counters: &s, power: None, temperature: None, current: PStateId::new(7), table: &table, queue: None };
        g.decide(&ctx);
        assert_eq!(g.correction(), 1.0);
    }
}
