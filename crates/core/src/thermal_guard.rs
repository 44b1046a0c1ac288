//! ThermalGuard: a thermal envelope wrapped around any inner governor.
//!
//! The paper motivates PM with "programmable power and thermal envelopes"
//! (Foxton) and "partial supply/cooling failures". Power limits bound
//! instantaneous draw; the thermal envelope bounds the *integrated* history
//! the RC package model turns into die temperature. `ThermalGuard` layers a
//! temperature ceiling over any governor: while the sensor reads above the
//! cap it ratchets a p-state ceiling downward (one state per sample —
//! temperature moves slowly, so this converges long before the package time
//! constant); once the die cools 3 °C below the cap the ceiling relaxes
//! one state per 50 cool samples. Without a sensor reading for 25
//! consecutive samples the guard can no longer prove the envelope holds,
//! and ratchets down as if the die were hot. Only the cap is settable
//! ([`ThermalGuard::with_cap`]); the default is 77 °C.

use aapm_platform::pstate::PStateId;
use aapm_platform::thermal::Celsius;
use aapm_telemetry::metrics::{Counter, EventKind, Metrics};

use crate::governor::{Governor, SampleContext};
use crate::layer::GovernorLayer;

/// Die-temperature cap of [`ThermalGuard::new`], in °C.
const DEFAULT_CAP_C: f64 = 77.0;

/// Degrees below the cap before the ceiling relaxes.
const HYSTERESIS_C: f64 = 3.0;

/// Samples below `cap − HYSTERESIS_C` before relaxing one state.
const RELAX_SAMPLES: usize = 50;

/// Consecutive missing sensor reads tolerated before the guard fails safe.
const MISSING_FAIL_SAMPLES: usize = 25;

/// A governor decorator enforcing a die-temperature cap.
#[derive(Debug, Clone)]
pub struct ThermalGuard<G> {
    inner: G,
    cap: Celsius,
    ceiling: Option<PStateId>,
    relax_streak: usize,
    /// Consecutive sensor reads that returned no temperature.
    miss_streak: usize,
    name: String,
    /// Observability handle (disabled unless the runtime installs one).
    metrics: Metrics,
}

impl<G: Governor> ThermalGuard<G> {
    /// Wraps `inner` with the default 77 °C envelope.
    pub fn new(inner: G) -> Self {
        ThermalGuard::with_cap(inner, Celsius::new(DEFAULT_CAP_C))
    }

    /// Wraps `inner` with a die-temperature cap of `cap`.
    pub fn with_cap(inner: G, cap: Celsius) -> Self {
        let name = format!("thermal<{}>", inner.name());
        ThermalGuard {
            inner,
            cap,
            ceiling: None,
            relax_streak: 0,
            miss_streak: 0,
            name,
            metrics: Metrics::disabled(),
        }
    }

    /// The wrapped governor.
    pub fn inner(&self) -> &G {
        &self.inner
    }

    /// The current p-state ceiling, if the guard is engaged.
    pub fn ceiling(&self) -> Option<PStateId> {
        self.ceiling
    }

    /// Records and applies a lowered ceiling (no event when the ratchet is
    /// already pinned at the same state, to bound trace volume).
    fn lower_ceiling(&mut self, ctx: &SampleContext<'_>, lowered: PStateId) {
        if self.ceiling != Some(lowered) {
            self.metrics.inc(Counter::ThermalGuardCeilingLowered);
            self.metrics.event(
                ctx.counters.end,
                EventKind::ThermalCeilingLowered { ceiling: lowered.index() },
            );
        }
        self.ceiling = Some(lowered);
    }

    fn update_ceiling(&mut self, ctx: &SampleContext<'_>) {
        let Some(temperature) = ctx.temperature else {
            // Sensor dropout. Brief gaps are harmless (temperature moves on
            // package time constants), but a sustained outage means the
            // envelope can no longer be verified: fail safe by ratcheting
            // down one state per sample, exactly as if the die read hot.
            self.miss_streak += 1;
            if self.miss_streak >= MISSING_FAIL_SAMPLES {
                self.relax_streak = 0;
                let current_ceiling = self.ceiling.unwrap_or_else(|| ctx.table.highest());
                let lowered = ctx
                    .table
                    .next_lower(current_ceiling.min(ctx.current))
                    .unwrap_or(ctx.table.lowest());
                self.lower_ceiling(ctx, lowered);
            }
            return;
        };
        self.miss_streak = 0;
        if temperature > self.cap {
            // Too hot: ratchet down one state per sample.
            self.relax_streak = 0;
            let current_ceiling = self.ceiling.unwrap_or_else(|| ctx.table.highest());
            let lowered =
                ctx.table.next_lower(current_ceiling.min(ctx.current)).unwrap_or(ctx.table.lowest());
            self.lower_ceiling(ctx, lowered);
        } else if temperature.degrees() < self.cap.degrees() - HYSTERESIS_C {
            // Comfortably cool: relax slowly.
            if let Some(ceiling) = self.ceiling {
                self.relax_streak += 1;
                if self.relax_streak >= RELAX_SAMPLES {
                    self.relax_streak = 0;
                    let raised = ctx.table.next_higher(ceiling);
                    self.ceiling = raised;
                    self.metrics.inc(Counter::ThermalGuardCeilingRaised);
                    self.metrics.event(
                        ctx.counters.end,
                        EventKind::ThermalCeilingRaised {
                            ceiling: raised.unwrap_or_else(|| ctx.table.highest()).index(),
                        },
                    );
                }
            }
        } else {
            self.relax_streak = 0;
        }
    }
}

impl<G: Governor> GovernorLayer for ThermalGuard<G> {
    fn layer_name(&self) -> &str {
        &self.name
    }

    fn inner_governor(&self) -> &dyn Governor {
        &self.inner
    }

    fn inner_governor_mut(&mut self) -> &mut dyn Governor {
        &mut self.inner
    }

    fn layer_decide(&mut self, ctx: &SampleContext<'_>) -> PStateId {
        self.update_ceiling(ctx);
        let wanted = self.inner.decide(ctx);
        match self.ceiling {
            Some(ceiling) => wanted.min(ceiling),
            None => wanted,
        }
    }

    fn layer_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::Unconstrained;
    use aapm_platform::pstate::PStateTable;
    use aapm_platform::units::Seconds;
    use aapm_telemetry::pmc::CounterSample;

    fn sample() -> CounterSample {
        CounterSample {
            start: Seconds::ZERO,
            end: Seconds::from_millis(10.0),
            cycles: 20e6,
            counts: vec![],
        }
    }

    fn decide(
        guard: &mut ThermalGuard<Unconstrained>,
        table: &PStateTable,
        current: usize,
        temperature: f64,
    ) -> PStateId {
        let s = sample();
        let ctx = SampleContext {
            counters: &s,
            power: None,
            temperature: Some(Celsius::new(temperature)),
            current: PStateId::new(current),
            table,
            queue: None,
        };
        guard.decide(&ctx)
    }

    #[test]
    fn cool_die_passes_inner_decision_through() {
        let table = PStateTable::pentium_m_755();
        let mut guard = ThermalGuard::new(Unconstrained::new());
        assert_eq!(decide(&mut guard, &table, 7, 60.0), table.highest());
        assert_eq!(guard.ceiling(), None);
    }

    #[test]
    fn hot_die_ratchets_the_ceiling_down() {
        let table = PStateTable::pentium_m_755();
        let mut guard = ThermalGuard::new(Unconstrained::new());
        let first = decide(&mut guard, &table, 7, 80.0);
        assert_eq!(first, PStateId::new(6), "one state down per hot sample");
        let second = decide(&mut guard, &table, 6, 80.0);
        assert_eq!(second, PStateId::new(5));
        assert!(guard.ceiling().is_some());
    }

    #[test]
    fn ceiling_relaxes_after_sustained_cooling() {
        let table = PStateTable::pentium_m_755();
        let mut guard = ThermalGuard::new(Unconstrained::new());
        decide(&mut guard, &table, 7, 80.0);
        let engaged = guard.ceiling().unwrap();
        // Within hysteresis: no relaxation, however long it lasts.
        for _ in 0..2 * RELAX_SAMPLES {
            decide(&mut guard, &table, engaged.index(), 75.0);
        }
        assert_eq!(guard.ceiling(), Some(engaged));
        // Below cap − hysteresis for RELAX_SAMPLES: one state back up.
        for _ in 0..RELAX_SAMPLES {
            decide(&mut guard, &table, engaged.index(), 70.0);
        }
        assert_eq!(guard.ceiling(), table.next_higher(engaged));
    }

    #[test]
    fn brief_sensor_dropout_is_tolerated() {
        let table = PStateTable::pentium_m_755();
        let mut guard = ThermalGuard::new(Unconstrained::new());
        let s = sample();
        let ctx = SampleContext {
            counters: &s,
            power: None,
            temperature: None,
            current: PStateId::new(7),
            table: &table,
            queue: None,
        };
        assert_eq!(guard.decide(&ctx), table.highest());
        assert_eq!(guard.ceiling(), None, "one missing read must not engage the guard");
    }

    #[test]
    fn sustained_sensor_outage_fails_safe() {
        let table = PStateTable::pentium_m_755();
        let mut guard = ThermalGuard::new(Unconstrained::new());
        let s = sample();
        let mut current = PStateId::new(7);
        // The first MISSING_FAIL_SAMPLES − 1 missing reads are tolerated.
        for _ in 0..MISSING_FAIL_SAMPLES - 1 {
            let ctx = SampleContext {
                counters: &s,
                power: None,
                temperature: None,
                current,
                table: &table,
                queue: None,
            };
            assert_eq!(guard.decide(&ctx), table.highest());
        }
        // From then on the guard ratchets down one state per sample.
        for expected in (0..7).rev() {
            let ctx = SampleContext {
                counters: &s,
                power: None,
                temperature: None,
                current,
                table: &table,
                queue: None,
            };
            current = guard.decide(&ctx);
            assert_eq!(current, PStateId::new(expected));
        }
        // A returning sensor (cool die) lets the ceiling relax again.
        for _ in 0..RELAX_SAMPLES {
            let ctx = SampleContext {
                counters: &s,
                power: None,
                temperature: Some(Celsius::new(60.0)),
                current,
                table: &table,
                queue: None,
            };
            guard.decide(&ctx);
        }
        assert_eq!(guard.ceiling(), Some(PStateId::new(1)), "recovery relaxes one state");
    }

    #[test]
    fn name_reflects_inner_governor() {
        let guard = ThermalGuard::new(Unconstrained::new());
        assert_eq!(Governor::name(&guard), "thermal<unconstrained>");
    }
}
