//! Telemetry watchdog: a last-resort safety decorator for any governor.
//!
//! Per-governor degradation (PM holding its last DPC, ThermalGuard failing
//! safe without a sensor) assumes *some* telemetry channel still works. The
//! watchdog covers the remaining case — a joint blackout where both the
//! power meter and the counter driver go silent — by forcing the table's
//! lowest p-state after [`LOSS_THRESHOLD`] consecutive blind intervals and
//! handing control back only after [`RECOVERY_SAMPLES`] consecutive
//! healthy ones. The lowest state draws the least power, so it is safe
//! under any power limit the run may carry. While engaged the watchdog
//! still calls the inner governor every sample so its internal state
//! (streaks, corrections, ceilings) tracks the run and is consistent when
//! control returns.

use aapm_platform::error::PlatformError;
use aapm_platform::pstate::PStateId;
use aapm_telemetry::metrics::{Counter, EventKind, Metrics};

use crate::governor::{Governor, SampleContext};
use crate::layer::GovernorLayer;

/// Consecutive blind intervals (no power sample *and* no fresh counter
/// sample) before the watchdog engages.
pub const LOSS_THRESHOLD: usize = 10;

/// Consecutive healthy intervals before control returns to the inner
/// governor.
pub const RECOVERY_SAMPLES: usize = 10;

/// A governor decorator forcing a safe p-state through telemetry blackouts.
///
/// # Examples
///
/// ```
/// use aapm::limits::PowerLimit;
/// use aapm::pm::PerformanceMaximizer;
/// use aapm::watchdog::Watchdog;
/// use aapm_models::power_model::PowerModel;
///
/// let pm = PerformanceMaximizer::new(PowerModel::paper_table_ii(), PowerLimit::new(12.5)?);
/// let dog = Watchdog::new(pm);
/// assert_eq!(aapm::governor::Governor::name(&dog), "watchdog<pm>");
/// assert!(!dog.engaged());
/// # Ok::<(), aapm_platform::error::PlatformError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Watchdog<G> {
    inner: G,
    loss_streak: usize,
    healthy_streak: usize,
    engaged: bool,
    name: String,
    /// Observability handle (disabled unless the runtime installs one).
    metrics: Metrics,
}

impl<G: Governor> Watchdog<G> {
    /// Wraps `inner`: engage after [`LOSS_THRESHOLD`] blind intervals,
    /// release after [`RECOVERY_SAMPLES`] healthy ones.
    pub fn new(inner: G) -> Self {
        let name = format!("watchdog<{}>", inner.name());
        Watchdog {
            inner,
            loss_streak: 0,
            healthy_streak: 0,
            engaged: false,
            name,
            metrics: Metrics::disabled(),
        }
    }

    /// The wrapped governor.
    pub fn inner(&self) -> &G {
        &self.inner
    }

    /// Whether the watchdog currently overrides the inner governor.
    pub fn engaged(&self) -> bool {
        self.engaged
    }

    /// The ongoing outage as a [`PlatformError::TelemetryLost`], if the
    /// watchdog is engaged (for surfacing in logs and experiment notes).
    pub fn outage(&self) -> Option<PlatformError> {
        self.engaged.then_some(PlatformError::TelemetryLost {
            channel: "power+pmc",
            intervals: self.loss_streak,
        })
    }

    /// A blind interval: no power sample delivered and no exactly-measured
    /// counter in the sample. Uses [`has_fresh_counts`] rather than
    /// `is_fresh`: with an inner governor that monitors no PMC events the
    /// counter sample is empty, which is *absence* of evidence, not
    /// evidence of a live driver — power loss alone must then engage the
    /// watchdog, or `watchdog<unconstrained>` would sleep through any
    /// blackout (found by the fuzz harness; pinned by corpus fixture 011).
    ///
    /// [`has_fresh_counts`]: aapm_telemetry::pmc::CounterSample::has_fresh_counts
    fn is_blind(ctx: &SampleContext<'_>) -> bool {
        ctx.power.is_none() && !ctx.counters.has_fresh_counts()
    }
}

impl<G: Governor> GovernorLayer for Watchdog<G> {
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
        if Watchdog::<G>::is_blind(ctx) {
            self.loss_streak += 1;
            self.healthy_streak = 0;
            if self.loss_streak >= LOSS_THRESHOLD && !self.engaged {
                self.engaged = true;
                self.metrics.inc(Counter::WatchdogEngagements);
                self.metrics.event(
                    ctx.counters.end,
                    EventKind::WatchdogEngaged { blind_intervals: self.loss_streak as u64 },
                );
            }
        } else {
            self.loss_streak = 0;
            if self.engaged {
                self.healthy_streak += 1;
                if self.healthy_streak >= RECOVERY_SAMPLES {
                    self.engaged = false;
                    self.healthy_streak = 0;
                    self.metrics.inc(Counter::WatchdogReleases);
                    self.metrics.event(ctx.counters.end, EventKind::WatchdogReleased);
                }
            }
        }
        // Always consult the inner governor so its state tracks the run.
        let wanted = self.inner.decide(ctx);
        if self.engaged {
            ctx.table.lowest()
        } else {
            wanted
        }
    }

    fn layer_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limits::PowerLimit;
    use crate::pm::PerformanceMaximizer;
    use aapm_models::power_model::PowerModel;
    use aapm_platform::events::HardwareEvent;
    use aapm_platform::pstate::PStateTable;
    use aapm_platform::units::{Seconds, Watts};
    use aapm_telemetry::daq::PowerSample;
    use aapm_telemetry::pmc::CounterSample;

    fn fresh_sample(dpc: f64) -> CounterSample {
        let cycles = 20e6;
        CounterSample {
            start: Seconds::ZERO,
            end: Seconds::from_millis(10.0),
            cycles,
            counts: vec![(HardwareEvent::InstructionsDecoded, dpc * cycles, true)],
        }
    }

    fn stale_sample() -> CounterSample {
        let cycles = 20e6;
        CounterSample {
            start: Seconds::ZERO,
            end: Seconds::from_millis(10.0),
            cycles,
            counts: vec![(HardwareEvent::InstructionsDecoded, 0.0, false)],
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

    fn watchdog() -> Watchdog<PerformanceMaximizer> {
        Watchdog::new(PerformanceMaximizer::new(
            PowerModel::paper_table_ii(),
            PowerLimit::new(30.0).unwrap(),
        ))
    }

    #[test]
    fn healthy_telemetry_passes_inner_decision_through() {
        let table = PStateTable::pentium_m_755();
        let mut dog = watchdog();
        let s = fresh_sample(1.0);
        let p = power(14.0);
        let ctx = SampleContext {
            counters: &s,
            power: Some(&p),
            temperature: None,
            current: PStateId::new(7),
            table: &table,
            queue: None,
        };
        assert_eq!(dog.decide(&ctx), PStateId::new(7));
        assert!(!dog.engaged());
        assert!(dog.outage().is_none());
    }

    #[test]
    fn blackout_engages_after_threshold_and_recovers() {
        let table = PStateTable::pentium_m_755();
        let mut dog = watchdog();
        let stale = stale_sample();
        let threshold = LOSS_THRESHOLD;
        // Blind intervals below the threshold: inner governor still rules
        // (PM's own stale-hold keeps the current state).
        for i in 0..threshold - 1 {
            let ctx = SampleContext {
                counters: &stale,
                power: None,
                temperature: None,
                current: PStateId::new(7),
                table: &table,
                queue: None,
            };
            // Seed PM with one fresh decision first so it has DPC history.
            if i == 0 {
                let s = fresh_sample(1.0);
                let p = power(14.0);
                let warm = SampleContext {
                    counters: &s,
                    power: Some(&p),
                    temperature: None,
                    current: PStateId::new(7),
                    table: &table,
                    queue: None,
                };
                dog.decide(&warm);
            }
            dog.decide(&ctx);
            assert!(!dog.engaged(), "interval {i} must not engage yet");
        }
        // Crossing the threshold forces the safe state.
        let ctx = SampleContext {
            counters: &stale,
            power: None,
            temperature: None,
            current: PStateId::new(7),
            table: &table,
            queue: None,
        };
        assert_eq!(dog.decide(&ctx), PStateId::new(0));
        assert!(dog.engaged());
        match dog.outage() {
            Some(PlatformError::TelemetryLost { channel, intervals }) => {
                assert_eq!(channel, "power+pmc");
                assert!(intervals >= threshold);
            }
            other => panic!("expected TelemetryLost, got {other:?}"),
        }
        // Telemetry returns: stays engaged until a full healthy window.
        let s = fresh_sample(1.0);
        let p = power(8.0);
        for i in 0..RECOVERY_SAMPLES - 1 {
            let healthy = SampleContext {
                counters: &s,
                power: Some(&p),
                temperature: None,
                current: PStateId::new(0),
                table: &table,
                queue: None,
            };
            assert_eq!(dog.decide(&healthy), PStateId::new(0), "recovery interval {i}");
            assert!(dog.engaged());
        }
        let healthy = SampleContext {
            counters: &s,
            power: Some(&p),
            temperature: None,
            current: PStateId::new(0),
            table: &table,
            queue: None,
        };
        dog.decide(&healthy);
        assert!(!dog.engaged(), "full healthy window releases the watchdog");
    }

    /// An inner governor that monitors no PMC events yields empty counter
    /// samples; an empty sample is not proof of a live driver, so power
    /// loss alone must still engage the watchdog (corpus fixture 011).
    #[test]
    fn blackout_engages_with_no_monitored_counters() {
        let table = PStateTable::pentium_m_755();
        let mut dog = Watchdog::new(crate::baselines::Unconstrained::new());
        let empty = CounterSample {
            start: Seconds::ZERO,
            end: Seconds::from_millis(10.0),
            cycles: 20e6,
            counts: Vec::new(),
        };
        for _ in 0..LOSS_THRESHOLD {
            let ctx = SampleContext {
                counters: &empty,
                power: None,
                temperature: None,
                current: PStateId::new(7),
                table: &table,
                queue: None,
            };
            dog.decide(&ctx);
        }
        assert!(dog.engaged(), "power loss alone must engage with empty counters");
        // With power back, the same empty sample is healthy again.
        let p = power(8.0);
        for _ in 0..RECOVERY_SAMPLES {
            let ctx = SampleContext {
                counters: &empty,
                power: Some(&p),
                temperature: None,
                current: PStateId::new(0),
                table: &table,
                queue: None,
            };
            dog.decide(&ctx);
        }
        assert!(!dog.engaged(), "power recovery must release the watchdog");
    }

    #[test]
    fn partial_telemetry_does_not_engage() {
        let table = PStateTable::pentium_m_755();
        let mut dog = watchdog();
        // Power lost but counters fresh: governors handle this themselves.
        let s = fresh_sample(1.0);
        for _ in 0..LOSS_THRESHOLD * 3 {
            let ctx = SampleContext {
                counters: &s,
                power: None,
                temperature: None,
                current: PStateId::new(7),
                table: &table,
                queue: None,
            };
            dog.decide(&ctx);
        }
        assert!(!dog.engaged());
        // Counters stale but power present: also not a blackout.
        let stale = stale_sample();
        let p = power(14.0);
        for _ in 0..LOSS_THRESHOLD * 3 {
            let ctx = SampleContext {
                counters: &stale,
                power: Some(&p),
                temperature: None,
                current: PStateId::new(7),
                table: &table,
                queue: None,
            };
            dog.decide(&ctx);
        }
        assert!(!dog.engaged());
    }
}
