//! Composable governor layers: interposition without forwarding boilerplate.
//!
//! Decorator governors ([`crate::watchdog::Watchdog`],
//! [`crate::thermal_guard::ThermalGuard`], [`crate::phase_pm::PhasePm`],
//! [`crate::feedback::FeedbackPm`], [`crate::combined_pm::CombinedPm`])
//! each used to hand-roll the whole [`Governor`] trait surface just to
//! override one or two methods, and the copies drifted (notably
//! `install_metrics`: Watchdog cloned the handle and kept one,
//! ThermalGuard forwarded by move and kept none — so it could never emit
//! its own events). [`GovernorLayer`] captures the pattern once: a layer
//! names its inner governor and overrides only the `layer_*` hooks it
//! interposes on; the blanket `impl Governor for L` supplies uniform
//! forwarding for everything else.
//!
//! The blanket impl fixes the metrics drift by construction: the handle is
//! always cloned down to the inner governor *and* offered to the layer via
//! [`GovernorLayer::layer_metrics`], so every level of a stack like
//! `Watchdog(ThermalGuard(Pm))` records into the same registry.
//!
//! The PM-family layers bend PM's decision rather than replace it:
//! `PhasePm` and `FeedbackPm` decide through the crate-private
//! `PerformanceMaximizer::decide_with` (a scale on every estimate and a
//! raise-now flag), and `CombinedPm` keeps PM's decision whole. PM's
//! stale-counter hold, raise window and command handling exist once.

use aapm_platform::events::HardwareEvent;
use aapm_platform::pstate::PStateId;
use aapm_platform::throttle::ThrottleLevel;
use aapm_telemetry::metrics::Metrics;

use crate::governor::{Governor, GovernorCommand, SampleContext};

/// A governor decorator: wraps an inner governor and interposes on part of
/// the control surface.
///
/// Implementors provide [`layer_name`](GovernorLayer::layer_name) and the
/// two inner-governor accessors, then override only the hooks they
/// actually interpose on; every default delegates to the inner governor.
/// The blanket `impl<L: GovernorLayer> Governor for L` turns any layer
/// into a full [`Governor`], so layers nest arbitrarily deep.
pub trait GovernorLayer {
    /// The composed name shown in reports (e.g. `"watchdog<pm>"`).
    fn layer_name(&self) -> &str;

    /// The wrapped governor.
    fn inner_governor(&self) -> &dyn Governor;

    /// The wrapped governor, mutably.
    fn inner_governor_mut(&mut self) -> &mut dyn Governor;

    /// Hardware events to monitor; defaults to the inner governor's set.
    fn layer_events(&self) -> Vec<HardwareEvent> {
        self.inner_governor().events()
    }

    /// The p-state decision; defaults to the inner governor's.
    fn layer_decide(&mut self, ctx: &SampleContext<'_>) -> PStateId {
        self.inner_governor_mut().decide(ctx)
    }

    /// The clock-modulation decision; defaults to the inner governor's.
    fn layer_throttle(&mut self, ctx: &SampleContext<'_>) -> ThrottleLevel {
        self.inner_governor_mut().throttle_decision(ctx)
    }

    /// Runtime command delivery; defaults to forwarding inward.
    fn layer_command(&mut self, command: GovernorCommand) {
        self.inner_governor_mut().command(command);
    }

    /// Receives this layer's own clone of the metrics handle. The blanket
    /// impl has already forwarded a clone to the inner governor when this
    /// is called; the default discards it (correct for layers with nothing
    /// to record).
    fn layer_metrics(&mut self, _metrics: Metrics) {}
}

impl<L: GovernorLayer> Governor for L {
    fn name(&self) -> &str {
        self.layer_name()
    }

    fn events(&self) -> Vec<HardwareEvent> {
        self.layer_events()
    }

    fn decide(&mut self, ctx: &SampleContext<'_>) -> PStateId {
        self.layer_decide(ctx)
    }

    fn throttle_decision(&mut self, ctx: &SampleContext<'_>) -> ThrottleLevel {
        self.layer_throttle(ctx)
    }

    fn command(&mut self, command: GovernorCommand) {
        self.layer_command(command);
    }

    /// Clone-then-keep, uniformly: the inner chain gets its clone first,
    /// then the layer gets the original. Every level of a stack ends up
    /// sharing one registry.
    fn install_metrics(&mut self, metrics: Metrics) {
        self.inner_governor_mut().install_metrics(metrics.clone());
        self.layer_metrics(metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aapm_platform::pstate::PStateTable;
    use aapm_platform::units::Seconds;
    use aapm_telemetry::metrics::Counter;
    use aapm_telemetry::pmc::CounterSample;

    /// A minimal layer that records whether each hook fired.
    struct Probe<G> {
        inner: G,
        name: String,
        metrics: Metrics,
    }

    impl<G: Governor> Probe<G> {
        fn new(inner: G) -> Self {
            let name = format!("probe<{}>", inner.name());
            Probe { inner, name, metrics: Metrics::disabled() }
        }
    }

    impl<G: Governor> GovernorLayer for Probe<G> {
        fn layer_name(&self) -> &str {
            &self.name
        }
        fn inner_governor(&self) -> &dyn Governor {
            &self.inner
        }
        fn inner_governor_mut(&mut self) -> &mut dyn Governor {
            &mut self.inner
        }
        fn layer_metrics(&mut self, metrics: Metrics) {
            metrics.inc(Counter::RuntimeCommandsDelivered);
            self.metrics = metrics;
        }
    }

    #[test]
    fn defaults_delegate_the_whole_surface() {
        let mut probe = Probe::new(crate::baselines::Unconstrained::new());
        let table = PStateTable::pentium_m_755();
        let s = CounterSample {
            start: Seconds::ZERO,
            end: Seconds::from_millis(10.0),
            cycles: 20e6,
            counts: vec![],
        };
        let ctx = SampleContext {
            counters: &s,
            power: None,
            temperature: None,
            current: PStateId::new(3),
            table: &table,
            queue: None,
        };
        assert_eq!(Governor::name(&probe), "probe<unconstrained>");
        assert_eq!(probe.decide(&ctx), table.highest());
        assert!(probe.throttle_decision(&ctx).is_full());
        assert!(probe.events().is_empty());
    }

    #[test]
    fn install_metrics_clones_down_and_keeps_one() {
        // A two-deep stack of probes: both layers must end up holding a
        // live clone of the same registry.
        let mut stack = Probe::new(Probe::new(crate::baselines::Unconstrained::new()));
        let metrics = Metrics::enabled();
        stack.install_metrics(metrics.clone());
        assert_eq!(metrics.snapshot().counter("runtime.commands_delivered"), 2);
        assert!(stack.metrics.is_enabled());
        assert!(stack.inner.metrics.is_enabled());
        // Both kept handles write into the shared registry.
        stack.metrics.inc(Counter::WatchdogEngagements);
        stack.inner.metrics.inc(Counter::WatchdogReleases);
        assert_eq!(metrics.snapshot().counter("watchdog.engagements"), 1);
        assert_eq!(metrics.snapshot().counter("watchdog.releases"), 1);
    }
}
