//! Online model adaptation: a governor layer that refits the power model
//! from the live counter stream (ROADMAP item 3).
//!
//! The paper trains its Table II coefficients once, offline, on MS-Loops;
//! the model-error experiment shows exactly where that breaks (art/mcf
//! miss-overlap inflates true power ~2 W above the DPC line, so PM
//! violates its cap while believing it has headroom). This layer closes
//! the loop: every interval with a fresh DPC *and* a measured power sample
//! feeds a per-p-state recursive-least-squares estimator
//! ([`aapm_models::online`]), and after each window of accepted samples
//! the refit coefficients are pushed into the wrapped governor via
//! [`GovernorCommand::SetPowerCoefficients`].
//!
//! Fallback rules (DESIGN.md §13) — the seed model is always the safe
//! harbour:
//!
//! * a **degenerate window** (DPC spread below resolution — nothing to
//!   identify a slope from — or a non-finite/negative-slope fit) discards
//!   the estimator, restores the offline seed for that p-state, and
//!   reseeds;
//! * a **telemetry outage** (a full window of consecutive intervals
//!   without a usable observation: stale counters, missing DPC, or no
//!   power sample — e.g. a PMC outage or meter blackout) restores the
//!   seed model for *every* p-state and reseeds all estimators, so the
//!   layer re-learns from scratch when telemetry returns instead of
//!   trusting a fit that ended mid-regime.
//!
//! The layer never overrides a decision — adaptation acts only through
//! the command channel, so `adaptive(pm)` under a watchdog or thermal
//! guard composes exactly like plain PM. Metrics: `adapt.refit_count`,
//! `adapt.coeff_drift_w` (refit vs seed, in watts at the operating DPC),
//! `adapt.model_error_w` (pre-update prediction error per sample),
//! `adapt.degenerate_windows`, `adapt.fallbacks`.

use std::cmp::Ordering;

use aapm_models::online::OnlineModel;
use aapm_models::power_model::PowerModel;
use aapm_platform::error::{PlatformError, Result};
use aapm_platform::events::HardwareEvent;
use aapm_platform::pstate::PStateId;
use aapm_telemetry::metrics::{Counter, EventKind, Histogram, Metrics};

use crate::governor::{Governor, GovernorCommand, SampleContext};
use crate::layer::GovernorLayer;

/// Covariance gain for freshly seeded estimators: moderate confidence in
/// the offline fit — early contradictory samples move the fit, but no
/// single sample can fling it.
const SEED_GAIN: f64 = 10.0;

/// Minimum DPC spread a window must exhibit, relative to its magnitude,
/// before a slope refit is identifiable. Below this the window is
/// degenerate (a constant-DPC phase tells us one point on the line, not
/// the line).
const MIN_RELATIVE_DPC_SPREAD: f64 = 1e-3;

/// Tunables of the adaptation loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// RLS forgetting factor λ ∈ (0, 1]: 1 = infinite memory, smaller =
    /// faster tracking of regime changes.
    pub forgetting: f64,
    /// Accepted samples per p-state between refit pushes; also the
    /// consecutive-unusable-interval count that declares a telemetry
    /// outage and restores the seed model everywhere.
    pub window: usize,
    /// Counter basis: `false` = the paper's `[DPC, 1]`, `true` = the
    /// Mazzola-style `[DPC, DCU, 1]` (collapsed back to two coefficients
    /// around the running mean DCU before pushing).
    pub multi_counter: bool,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig { forgetting: 0.98, window: 50, multi_counter: false }
    }
}

impl AdaptiveConfig {
    /// Validates the tunables.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidConfig`] for a forgetting factor
    /// outside (0, 1] or a zero window.
    pub fn validate(&self) -> Result<()> {
        if !(self.forgetting > 0.0 && self.forgetting <= 1.0) {
            return Err(PlatformError::InvalidConfig {
                parameter: "forgetting",
                reason: format!("forgetting factor must be in (0, 1], got {}", self.forgetting),
            });
        }
        if self.window == 0 {
            return Err(PlatformError::InvalidConfig {
                parameter: "window",
                reason: "refit window must be at least one sample".into(),
            });
        }
        Ok(())
    }
}

/// Per-p-state adaptation state: the estimator plus this window's
/// bookkeeping.
#[derive(Debug, Clone)]
struct StateFit {
    estimator: OnlineModel,
    /// Accepted samples in the current window.
    accepted: usize,
    /// DPC range seen in the current window (degeneracy check).
    dpc_min: f64,
    dpc_max: f64,
    /// Whether the live model for this state differs from the seed.
    refit: bool,
}

/// A governor layer that refits the wrapped governor's power model online.
///
/// # Examples
///
/// ```
/// use aapm::adaptive::Adaptive;
/// use aapm::limits::PowerLimit;
/// use aapm::pm::PerformanceMaximizer;
/// use aapm_models::power_model::PowerModel;
///
/// let model = PowerModel::paper_table_ii();
/// let pm = PerformanceMaximizer::new(model.clone(), PowerLimit::new(13.5)?);
/// let adaptive = Adaptive::new(pm, model);
/// assert_eq!(aapm::governor::Governor::name(&adaptive), "adaptive<pm>");
/// # Ok::<(), aapm_platform::error::PlatformError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Adaptive<G> {
    inner: G,
    config: AdaptiveConfig,
    /// The offline fit: the fallback whenever adaptation cannot be
    /// trusted, and the drift baseline.
    seed: PowerModel,
    /// The layer's copy of what the inner governor is currently running
    /// (seed + pushed refits) — used for pre-update error scoring.
    live: PowerModel,
    fits: Vec<StateFit>,
    /// Consecutive intervals without a usable observation.
    unusable_streak: usize,
    name: String,
    /// Observability handle (disabled unless the runtime installs one).
    metrics: Metrics,
}

impl<G: Governor> Adaptive<G> {
    /// Wraps `inner` with the default tunables, seeded from `seed` (the
    /// offline fit the inner governor was built with).
    pub fn new(inner: G, seed: PowerModel) -> Self {
        Adaptive::with_config(inner, seed, AdaptiveConfig::default())
            .expect("default adaptive config is valid")
    }

    /// Wraps `inner` with explicit tunables.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidConfig`] for invalid tunables
    /// (see [`AdaptiveConfig::validate`]).
    pub fn with_config(inner: G, seed: PowerModel, config: AdaptiveConfig) -> Result<Self> {
        config.validate()?;
        let name = format!("adaptive<{}>", inner.name());
        let fits = seed
            .iter()
            .map(|(_, c)| StateFit {
                estimator: OnlineModel::seeded(*c, config.multi_counter, config.forgetting, SEED_GAIN),
                accepted: 0,
                dpc_min: f64::INFINITY,
                dpc_max: f64::NEG_INFINITY,
                refit: false,
            })
            .collect();
        Ok(Adaptive {
            inner,
            config,
            live: seed.clone(),
            seed,
            fits,
            unusable_streak: 0,
            name,
            metrics: Metrics::disabled(),
        })
    }

    /// The adaptation tunables in use.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// The wrapped governor.
    pub fn inner(&self) -> &G {
        &self.inner
    }

    /// The layer's view of the model currently installed in the inner
    /// governor (seed plus accumulated refits).
    pub fn live_model(&self) -> &PowerModel {
        &self.live
    }

    /// Whether any p-state currently runs refit (non-seed) coefficients.
    pub fn is_refit(&self) -> bool {
        self.fits.iter().any(|f| f.refit)
    }

    /// Reseeds one p-state's estimator and clears its window bookkeeping.
    fn reseed_state(&mut self, index: usize) {
        let seed = self.seed.iter().nth(index).map(|(_, c)| *c).expect("index in range");
        let fit = &mut self.fits[index];
        fit.estimator =
            OnlineModel::seeded(seed, self.config.multi_counter, self.config.forgetting, SEED_GAIN);
        fit.accepted = 0;
        fit.dpc_min = f64::INFINITY;
        fit.dpc_max = f64::NEG_INFINITY;
    }

    /// Restores the seed coefficients for one p-state in both the layer's
    /// live copy and the inner governor.
    fn restore_seed(&mut self, index: usize) {
        if !self.fits[index].refit {
            return;
        }
        let id = PStateId::new(index);
        let seed = *self.seed.coefficients(id).expect("index in range");
        let _ = self.live.set_coefficients(id, seed);
        self.inner.command(GovernorCommand::SetPowerCoefficients(id, seed));
        self.fits[index].refit = false;
    }

    /// Full fallback: restore the seed model everywhere and reseed every
    /// estimator (telemetry outage path).
    fn fall_back_to_seed(&mut self, now: aapm_platform::units::Seconds) {
        self.metrics.inc(Counter::AdaptFallbacks);
        self.metrics.event(now, EventKind::ModelReseeded { reason: "telemetry_outage" });
        for index in 0..self.fits.len() {
            self.restore_seed(index);
            self.reseed_state(index);
        }
    }

    /// Whether this interval carries a usable observation, and the
    /// observation itself: fresh counters with a DPC rate, plus a
    /// finite measured power.
    fn observation(ctx: &SampleContext<'_>) -> Option<(f64, Option<f64>, f64)> {
        if !ctx.counters.is_fresh() {
            return None;
        }
        let dpc = ctx.counters.dpc()?;
        let watts = ctx.power?.power.watts();
        if !dpc.is_finite() || !watts.is_finite() {
            return None;
        }
        Some((dpc, ctx.counters.dcu(), watts))
    }

    /// End-of-window refit attempt for the state the interval ran at.
    fn try_refit(&mut self, index: usize, ctx: &SampleContext<'_>) {
        let now = ctx.counters.end;
        let id = PStateId::new(index);
        let fit = &self.fits[index];
        let spread = fit.dpc_max - fit.dpc_min;
        let scale = fit.dpc_max.abs().max(1.0);
        // NaN spread (an impossible window) counts as degenerate too.
        let degenerate_window =
            spread.partial_cmp(&(MIN_RELATIVE_DPC_SPREAD * scale)) != Some(Ordering::Greater);
        let coeffs = fit.estimator.coefficients();
        // A negative slope says power falls as activity rises — that is a
        // fit gone wrong (faulted meter, regime boundary), not physics.
        let degenerate_fit = !matches!(coeffs, Some(c) if c.alpha >= 0.0);
        if degenerate_window || degenerate_fit {
            self.metrics.inc(Counter::AdaptDegenerateWindows);
            self.metrics.event(now, EventKind::ModelReseeded { reason: "degenerate_window" });
            self.restore_seed(index);
            self.reseed_state(index);
            return;
        }
        let coeffs = coeffs.expect("checked above");
        let seed = *self.seed.coefficients(id).expect("index in range");
        // Drift vs the offline fit, in watts at the window's operating
        // point (the DPC where the refit actually matters).
        let operating_dpc = 0.5 * (self.fits[index].dpc_min + self.fits[index].dpc_max);
        let drift = ((coeffs.alpha - seed.alpha) * operating_dpc + (coeffs.beta - seed.beta)).abs();
        if self.live.set_coefficients(id, coeffs).is_ok() {
            self.inner.command(GovernorCommand::SetPowerCoefficients(id, coeffs));
            self.fits[index].refit = true;
            self.metrics.inc(Counter::AdaptRefitCount);
            self.metrics.observe(Histogram::AdaptCoeffDriftW, drift);
            self.metrics.event(now, EventKind::ModelRefit { pstate: index });
        }
        let fit = &mut self.fits[index];
        fit.accepted = 0;
        fit.dpc_min = f64::INFINITY;
        fit.dpc_max = f64::NEG_INFINITY;
    }
}

impl<G: Governor> GovernorLayer for Adaptive<G> {
    fn layer_name(&self) -> &str {
        &self.name
    }

    fn inner_governor(&self) -> &dyn Governor {
        &self.inner
    }

    fn inner_governor_mut(&mut self) -> &mut dyn Governor {
        &mut self.inner
    }

    /// The inner governor's events plus what the estimator needs, deduped
    /// so wrapping never duplicates a slot request (a duplicate would
    /// push the PMC driver into multiplexing for nothing).
    fn layer_events(&self) -> Vec<HardwareEvent> {
        let mut events = self.inner.events();
        let mut need = vec![HardwareEvent::InstructionsDecoded];
        if self.config.multi_counter {
            need.push(HardwareEvent::DcuMissOutstanding);
        }
        for event in need {
            if !events.contains(&event) {
                events.push(event);
            }
        }
        events
    }

    fn layer_decide(&mut self, ctx: &SampleContext<'_>) -> PStateId {
        match Adaptive::<G>::observation(ctx) {
            Some((dpc, dcu, watts)) => {
                self.unusable_streak = 0;
                let index = ctx.current.index();
                if index < self.fits.len() {
                    // Score the live model *before* updating it: honest
                    // one-step-ahead error.
                    if let Ok(predicted) = self.live.estimate(ctx.current, dpc) {
                        let error = (watts - predicted.watts()).abs();
                        self.metrics.observe(Histogram::AdaptModelErrorW, error);
                    }
                    let window = self.config.window;
                    let fit = &mut self.fits[index];
                    if fit.estimator.observe(dpc, dcu, watts) {
                        fit.accepted += 1;
                        fit.dpc_min = fit.dpc_min.min(dpc);
                        fit.dpc_max = fit.dpc_max.max(dpc);
                        if fit.accepted >= window {
                            self.try_refit(index, ctx);
                        }
                    }
                }
            }
            None => {
                self.unusable_streak += 1;
                // Trigger once per outage, exactly at the threshold; the
                // streak keeps counting so recovery needs fresh data.
                if self.unusable_streak == self.config.window {
                    self.fall_back_to_seed(ctx.counters.end);
                }
            }
        }
        // Adaptation acts only through the command channel; the decision
        // is always the inner governor's.
        self.inner.decide(ctx)
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
    use aapm_platform::pstate::PStateTable;
    use aapm_platform::units::{Seconds, Watts};
    use aapm_telemetry::daq::PowerSample;
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

    fn power(watts: f64) -> PowerSample {
        PowerSample {
            start: Seconds::ZERO,
            end: Seconds::from_millis(10.0),
            power: Watts::new(watts),
            true_power: Watts::new(watts),
        }
    }

    fn adaptive_pm(limit: f64, config: AdaptiveConfig) -> Adaptive<PerformanceMaximizer> {
        let model = PowerModel::paper_table_ii();
        let pm = PerformanceMaximizer::new(model.clone(), PowerLimit::new(limit).unwrap());
        Adaptive::with_config(pm, model, config).unwrap()
    }

    fn drive(
        layer: &mut Adaptive<PerformanceMaximizer>,
        table: &PStateTable,
        current: usize,
        dpc: f64,
        watts: Option<f64>,
    ) -> PStateId {
        let s = sample(dpc, true);
        let p = watts.map(power);
        let ctx = SampleContext {
            counters: &s,
            power: p.as_ref(),
            temperature: None,
            current: PStateId::new(current),
            table,
            queue: None,
        };
        layer.decide(&ctx)
    }

    #[test]
    fn tracks_a_hotter_regime_and_refits() {
        let table = PStateTable::pentium_m_755();
        let config = AdaptiveConfig { window: 30, ..AdaptiveConfig::default() };
        let mut layer = adaptive_pm(30.0, config);
        let metrics = Metrics::enabled();
        Governor::install_metrics(&mut layer, metrics.clone());
        // True power runs 2 W above Table II at P7 (the art/mcf
        // signature); DPC varies so the window is identifiable.
        for i in 0..120 {
            let dpc = 0.8 + 0.01 * (i % 40) as f64;
            let truth = 2.93 * dpc + 12.11 + 2.0;
            drive(&mut layer, &table, 7, dpc, Some(truth));
        }
        assert!(layer.is_refit(), "a hotter regime must trigger a refit");
        let live = layer.live_model().coefficients(PStateId::new(7)).unwrap();
        let at_dpc = live.alpha * 1.0 + live.beta;
        assert!(
            (at_dpc - (2.93 + 12.11 + 2.0)).abs() < 0.5,
            "live model should track the +2 W regime, got {at_dpc}"
        );
        let snapshot = metrics.snapshot();
        assert!(snapshot.counter("adapt.refit_count") >= 1);
        assert!(snapshot.histogram("adapt.model_error_w").is_some());
        assert!(snapshot.histogram("adapt.coeff_drift_w").is_some());
        // The refit reached the inner PM, not just the layer's copy.
        let inner = layer.inner().model().coefficients(PStateId::new(7)).unwrap();
        assert_eq!(*inner, *layer.live_model().coefficients(PStateId::new(7)).unwrap());
    }

    #[test]
    fn zero_dpc_variance_window_falls_back_to_seed() {
        let table = PStateTable::pentium_m_755();
        let config = AdaptiveConfig { window: 20, ..AdaptiveConfig::default() };
        let mut layer = adaptive_pm(30.0, config);
        let metrics = Metrics::enabled();
        Governor::install_metrics(&mut layer, metrics.clone());
        // Constant DPC: a point, not a line. Even with power 2 W off the
        // model, no refit may be pushed.
        for _ in 0..100 {
            drive(&mut layer, &table, 7, 1.0, Some(2.93 + 12.11 + 2.0));
        }
        assert!(!layer.is_refit(), "a zero-variance window must not refit");
        let live = layer.live_model().coefficients(PStateId::new(7)).unwrap();
        assert_eq!((live.alpha, live.beta), (2.93, 12.11), "seed survives");
        assert!(metrics.snapshot().counter("adapt.degenerate_windows") >= 1);
        assert_eq!(metrics.snapshot().counter("adapt.refit_count"), 0);
    }

    #[test]
    fn telemetry_outage_restores_the_seed_model() {
        let table = PStateTable::pentium_m_755();
        let config = AdaptiveConfig { window: 25, ..AdaptiveConfig::default() };
        let mut layer = adaptive_pm(30.0, config);
        let metrics = Metrics::enabled();
        Governor::install_metrics(&mut layer, metrics.clone());
        // Learn a hotter regime first.
        for i in 0..100 {
            let dpc = 0.8 + 0.012 * (i % 35) as f64;
            drive(&mut layer, &table, 7, dpc, Some(2.93 * dpc + 14.11));
        }
        assert!(layer.is_refit());
        // Then a power-meter outage a full window long.
        for _ in 0..config.window {
            drive(&mut layer, &table, 7, 1.0, None);
        }
        assert!(!layer.is_refit(), "an outage must restore the seed model");
        let live = layer.live_model().coefficients(PStateId::new(7)).unwrap();
        assert_eq!((live.alpha, live.beta), (2.93, 12.11));
        let inner = layer.inner().model().coefficients(PStateId::new(7)).unwrap();
        assert_eq!((inner.alpha, inner.beta), (2.93, 12.11), "inner PM restored too");
        assert_eq!(metrics.snapshot().counter("adapt.fallbacks"), 1);
    }

    #[test]
    fn stale_counters_are_not_usable_observations() {
        let table = PStateTable::pentium_m_755();
        let config = AdaptiveConfig { window: 10, ..AdaptiveConfig::default() };
        let mut layer = adaptive_pm(30.0, config);
        // Stale (estimated) counter samples with wild power must never
        // feed the estimator — a full window of them is an outage.
        for _ in 0..config.window {
            let s = sample(5.0, false);
            let p = power(50.0);
            let ctx = SampleContext {
                counters: &s,
                power: Some(&p),
                temperature: None,
                current: PStateId::new(7),
                table: &table,
                queue: None,
            };
            layer.decide(&ctx);
        }
        assert!(!layer.is_refit());
        assert_eq!(layer.fits.iter().map(|f| f.estimator.samples()).sum::<u64>(), 0);
    }

    #[test]
    fn decisions_are_always_the_inner_governors() {
        let table = PStateTable::pentium_m_755();
        // Same stream through plain PM and adaptive PM *before any refit
        // window completes*: decisions must be identical (the layer only
        // acts through commands).
        let model = PowerModel::paper_table_ii();
        let mut pm = PerformanceMaximizer::new(model.clone(), PowerLimit::new(15.0).unwrap());
        let big_window = AdaptiveConfig { window: 10_000, ..AdaptiveConfig::default() };
        let mut layer = adaptive_pm(15.0, big_window);
        let mut current_a = 7;
        let mut current_b = 7;
        for i in 0..200 {
            let dpc = 0.5 + 0.02 * (i % 60) as f64;
            let watts = 2.93 * dpc + 12.11;
            let s = sample(dpc, true);
            let p = power(watts);
            let ctx_a = SampleContext {
                counters: &s,
                power: Some(&p),
                temperature: None,
                current: PStateId::new(current_a),
                table: &table,
                queue: None,
            };
            let ctx_b = SampleContext {
                counters: &s,
                power: Some(&p),
                temperature: None,
                current: PStateId::new(current_b),
                table: &table,
                queue: None,
            };
            current_a = pm.decide(&ctx_a).index();
            current_b = layer.decide(&ctx_b).index();
            assert_eq!(current_a, current_b, "interval {i}");
        }
    }

    #[test]
    fn events_are_deduped_not_duplicated() {
        let model = PowerModel::paper_table_ii();
        let pm = PerformanceMaximizer::new(model.clone(), PowerLimit::new(13.5).unwrap());
        let single = Adaptive::new(pm, model.clone());
        // PM already monitors InstructionsDecoded; the layer must not
        // request it twice (a duplicate would look like a third event and
        // force multiplexing).
        assert_eq!(single.events(), vec![HardwareEvent::InstructionsDecoded]);
        let pm = PerformanceMaximizer::new(model.clone(), PowerLimit::new(13.5).unwrap());
        let multi = Adaptive::with_config(
            pm,
            model,
            AdaptiveConfig { multi_counter: true, ..AdaptiveConfig::default() },
        )
        .unwrap();
        assert_eq!(
            multi.events(),
            vec![HardwareEvent::InstructionsDecoded, HardwareEvent::DcuMissOutstanding]
        );
    }

    #[test]
    fn invalid_config_is_rejected() {
        let model = PowerModel::paper_table_ii();
        let pm = PerformanceMaximizer::new(model.clone(), PowerLimit::new(13.5).unwrap());
        let bad_forgetting = AdaptiveConfig { forgetting: 0.0, ..AdaptiveConfig::default() };
        assert!(Adaptive::with_config(pm, model.clone(), bad_forgetting).is_err());
        let pm = PerformanceMaximizer::new(model.clone(), PowerLimit::new(13.5).unwrap());
        let bad_window = AdaptiveConfig { window: 0, ..AdaptiveConfig::default() };
        assert!(Adaptive::with_config(pm, model, bad_window).is_err());
    }

    #[test]
    fn multi_counter_basis_learns_a_dcu_term() {
        let table = PStateTable::pentium_m_755();
        let config =
            AdaptiveConfig { window: 40, multi_counter: true, ..AdaptiveConfig::default() };
        let model = PowerModel::paper_table_ii();
        let pm = PerformanceMaximizer::new(model.clone(), PowerLimit::new(30.0).unwrap());
        let mut layer = Adaptive::with_config(pm, model, config).unwrap();
        // Power carries a DCU-proportional term Table II cannot see:
        // P = 2.93·DPC + 3·DCU + 12.11, DCU swinging with a different
        // period than DPC.
        let cycles = 20e6;
        for i in 0..160 {
            let dpc = 0.8 + 0.01 * (i % 40) as f64;
            let dcu = 0.3 + 0.005 * (i % 23) as f64;
            let s = CounterSample {
                start: Seconds::ZERO,
                end: Seconds::from_millis(10.0),
                cycles,
                counts: vec![
                    (HardwareEvent::InstructionsDecoded, dpc * cycles, true),
                    (HardwareEvent::DcuMissOutstanding, dcu * cycles, true),
                ],
            };
            let p = power(2.93 * dpc + 3.0 * dcu + 12.11);
            let ctx = SampleContext {
                counters: &s,
                power: Some(&p),
                temperature: None,
                current: PStateId::new(7),
                table: &table,
                queue: None,
            };
            layer.decide(&ctx);
        }
        assert!(layer.is_refit(), "the DCU term is learnable signal");
        // The collapsed model should sit near the mean-DCU regime: at the
        // mean DCU (~0.355) the extra draw is ~1.07 W over Table II.
        let live = layer.live_model().coefficients(PStateId::new(7)).unwrap();
        let at_mean = live.alpha * 1.0 + live.beta;
        assert!(
            (at_mean - (2.93 + 12.11)).abs() > 0.5,
            "collapsed fit must absorb the DCU draw, got {at_mean}"
        );
    }
}
