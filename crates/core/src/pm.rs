//! PerformanceMaximizer (PM): best performance under a power limit
//! (paper §IV.A).
//!
//! Every 10 ms PM:
//!
//! 1. **monitors** DPC (decoded instructions per cycle) — a single
//!    programmable counter;
//! 2. **predicts** DPC at every other p-state with eq. 4 and applies the
//!    per-p-state power model, adding a guardband (0.5 W by default) for
//!    model error and system variability;
//! 3. **controls**: picks the highest-frequency p-state whose estimated
//!    power stays under the limit — *lowering immediately* when even a
//!    single sample demands it, but *raising only after ten consecutive
//!    samples* (100 ms) agree a higher state is safe, minimizing violations
//!    during hard-to-predict workload transitions.
//!
//! The power limit can change at any instant (the paper delivers this via
//! Unix signals; here via [`GovernorCommand::SetPowerLimit`]).
//!
//! Missed PMC reads are held for exactly
//! [`PerformanceMaximizer::STALE_HOLD_SAMPLES`] stale intervals, never
//! raising on the held DPC; every later stale interval steps one state
//! down until a fresh sample returns (DESIGN §6).
//!
//! [`crate::feedback::FeedbackPm`] and [`crate::phase_pm::PhasePm`] decide
//! through this same law, bent by a scale on every estimate and a
//! raise-now flag, so the hold, the raise window and command handling
//! live here alone.

use aapm_platform::events::HardwareEvent;
use aapm_platform::pstate::PStateId;
use aapm_platform::units::Watts;
use aapm_models::dpc_projection::project_dpc;
use aapm_models::power_model::PowerModel;
use aapm_telemetry::metrics::{Gauge, Histogram, Metrics};

use crate::governor::{Governor, GovernorCommand, SampleContext};
use crate::hold::{self, StaleHold};
use crate::limits::PowerLimit;

/// Tunables of the PM control loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmConfig {
    /// Watts added to every estimate to absorb model error (paper: 0.5 W).
    pub guardband: Watts,
    /// Consecutive agreeing samples required before raising frequency
    /// (paper: ten 10 ms samples = 100 ms).
    pub raise_samples: usize,
}

impl Default for PmConfig {
    fn default() -> Self {
        PmConfig { guardband: Watts::new(0.5), raise_samples: 10 }
    }
}

/// The PerformanceMaximizer governor.
///
/// # Examples
///
/// ```
/// use aapm::limits::PowerLimit;
/// use aapm::pm::PerformanceMaximizer;
/// use aapm_models::power_model::PowerModel;
///
/// let pm = PerformanceMaximizer::new(
///     PowerModel::paper_table_ii(),
///     PowerLimit::new(17.5)?,
/// );
/// assert_eq!(aapm::governor::Governor::name(&pm), "pm");
/// # Ok::<(), aapm_platform::error::PlatformError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PerformanceMaximizer {
    model: PowerModel,
    limit: PowerLimit,
    config: PmConfig,
    raise_streak: usize,
    /// Most recent DPC taken from a fresh counter sample.
    last_dpc: Option<f64>,
    hold: StaleHold,
    /// DPC projected for the state chosen last interval, compared against
    /// the next fresh sample to measure eq. 4's projection error.
    predicted_dpc: Option<f64>,
    /// Guardband headroom (limit − guarded estimate at the chosen state)
    /// of the most recent fresh decision window.
    last_headroom: Option<Watts>,
    /// Watts short of affording the next-higher p-state when the limit
    /// throttled the most recent fresh decision window (`None` while
    /// unthrottled).
    last_deficit: Option<Watts>,
    /// Observability handle (disabled unless the runtime installs one).
    metrics: Metrics,
}

impl PerformanceMaximizer {
    /// Consecutive stale counter samples (missed PMC reads) PM absorbs by
    /// holding its last measured DPC before it steps the frequency down
    /// as a fail-safe: stale samples 1..=N hold, and sample N+1 takes the
    /// first step.
    pub const STALE_HOLD_SAMPLES: usize = 25;

    /// Creates PM with the default guardband and raise window.
    pub fn new(model: PowerModel, limit: PowerLimit) -> Self {
        PerformanceMaximizer::with_config(model, limit, PmConfig::default())
    }

    /// Creates PM with explicit control-loop tunables.
    pub fn with_config(model: PowerModel, limit: PowerLimit, config: PmConfig) -> Self {
        PerformanceMaximizer {
            model,
            limit,
            config,
            raise_streak: 0,
            last_dpc: None,
            hold: StaleHold::new(hold::PM),
            predicted_dpc: None,
            last_headroom: None,
            last_deficit: None,
            metrics: Metrics::disabled(),
        }
    }

    /// Guardband headroom of the most recent fresh decision window: the
    /// watts left between the power limit and the guarded estimate at the
    /// state the governor chose. This is the slack signal a cluster
    /// governor reclaims. `None` until the first fresh sample; hold and
    /// fail-safe windows keep the previous window's value. Exported as
    /// the `pm.guardband_headroom_w` gauge when metrics are installed.
    pub fn last_headroom(&self) -> Option<Watts> {
        self.last_headroom
    }

    /// How many watts short the limit left the governor of affording the
    /// next-higher p-state in the most recent fresh decision window — the
    /// hunger signal a cluster governor weighs against other nodes'
    /// [`Self::last_headroom`] slack. `None` while unthrottled (the chosen
    /// state is the top one, or the next state up fits under the limit)
    /// and before the first fresh sample; hold and fail-safe windows keep
    /// the previous window's value. Exported as the `pm.power_deficit_w`
    /// gauge when metrics are installed.
    pub fn last_deficit(&self) -> Option<Watts> {
        self.last_deficit
    }

    /// The active power limit.
    pub fn limit(&self) -> PowerLimit {
        self.limit
    }

    /// The control-loop tunables in use.
    pub fn config(&self) -> &PmConfig {
        &self.config
    }

    /// The power model in use.
    pub fn model(&self) -> &PowerModel {
        &self.model
    }

    /// Estimated power at `target` given a DPC observed at `current`
    /// (projection + model + guardband).
    pub fn estimate_at(
        &self,
        ctx: &SampleContext<'_>,
        dpc: f64,
        target: PStateId,
    ) -> Option<Watts> {
        let from = ctx.table.get(ctx.current).ok()?.frequency();
        let to = ctx.table.get(target).ok()?.frequency();
        let projected = project_dpc(dpc, from, to);
        let estimate = self.model.estimate(target, projected).ok()?;
        Some(estimate + self.config.guardband)
    }

    /// The highest p-state whose guarded estimate × `scale` fits under the
    /// limit (the lowest state if none fits).
    fn best_pstate(&self, ctx: &SampleContext<'_>, dpc: f64, scale: f64) -> PStateId {
        for (id, _) in ctx.table.iter_descending() {
            if let Some(estimate) = self.estimate_at(ctx, dpc, id) {
                if estimate * scale <= self.limit.watts() {
                    return id;
                }
            }
        }
        ctx.table.lowest()
    }

    /// PM's whole decision, bent two ways for the layers built on it:
    /// every guarded estimate is multiplied by `scale` before it meets the
    /// limit (FeedbackPm's measured-power correction), and `raise_now`
    /// takes a higher candidate without waiting out the raise window
    /// (PhasePm's phase change). PM itself passes `1.0` and `false`;
    /// multiplying by 1.0 is exact, so its decisions are the paper's law.
    pub(crate) fn decide_with(
        &mut self,
        ctx: &SampleContext<'_>,
        scale: f64,
        raise_now: bool,
    ) -> PStateId {
        let now = ctx.counters.end;
        // Graceful degradation under missed PMC reads: hold the last
        // measured DPC (never raising on stale data), then fail safe by
        // stepping the frequency down one state per sample until fresh
        // telemetry returns.
        if !ctx.counters.is_fresh() {
            let held = self.hold.stale(&self.metrics, now, Self::STALE_HOLD_SAMPLES);
            // A stale interval invalidates the one-step-ahead projection.
            self.predicted_dpc = None;
            if let (true, Some(dpc)) = (held, self.last_dpc) {
                // Only safety-driven lowering is allowed on held data.
                let candidate = self.best_pstate(ctx, dpc, scale);
                if candidate < ctx.current {
                    self.raise_streak = 0;
                    return candidate;
                }
                return ctx.current;
            }
            self.raise_streak = 0;
            self.hold.fail_safe(&self.metrics, now);
            return ctx.table.next_lower(ctx.current).unwrap_or(ctx.table.lowest());
        }
        self.hold.fresh(&self.metrics, now);
        let dpc = ctx.counters.dpc().unwrap_or(0.0);
        if let Some(predicted) = self.predicted_dpc.take() {
            self.metrics.observe(Histogram::PmProjectionErrorDpc, (dpc - predicted).abs());
        }
        self.last_dpc = Some(dpc);
        let candidate = self.best_pstate(ctx, dpc, scale);
        let chosen = if candidate < ctx.current {
            // A single over-limit sample lowers frequency immediately.
            self.raise_streak = 0;
            candidate
        } else if candidate > ctx.current {
            // Raising waits for a full window of agreeing samples, unless
            // the caller has seen cause to raise now.
            self.raise_streak += 1;
            if raise_now || self.raise_streak >= self.config.raise_samples {
                self.raise_streak = 0;
                candidate
            } else {
                ctx.current
            }
        } else {
            self.raise_streak = 0;
            ctx.current
        };
        // Guardband headroom: slack between the limit and the guarded
        // estimate at the state actually chosen — the per-window signal a
        // cluster governor reclaims and reallocates. Tracked whether or
        // not metrics are installed; hold and fail-safe windows return
        // earlier above and keep the previous window's value.
        if let Some(estimate) = self.estimate_at(ctx, dpc, chosen) {
            let headroom = self.limit.watts().watts() - (estimate * scale).watts();
            self.last_headroom = Some(Watts::new(headroom));
            if self.metrics.is_enabled() {
                self.metrics.observe(Histogram::PmGuardbandMarginW, headroom);
                self.metrics.gauge(Gauge::PmGuardbandHeadroomW, headroom);
            }
        }
        // Power deficit: when the limit throttles the node below the top
        // p-state, the extra watts the next state up would need. A cluster
        // governor reads this as negative headroom — unmet demand.
        self.last_deficit = ctx.table.next_higher(chosen).and_then(|next| {
            let estimate = self.estimate_at(ctx, dpc, next)? * scale;
            let deficit = estimate.watts() - self.limit.watts().watts();
            (deficit > 0.0).then(|| Watts::new(deficit))
        });
        if self.metrics.is_enabled() {
            if let Some(deficit) = self.last_deficit {
                self.metrics.gauge(Gauge::PmPowerDeficitW, deficit.watts());
            }
        }
        if self.metrics.is_enabled() {
            // One-step-ahead DPC projection for the chosen state (eq. 4),
            // scored against the next fresh sample.
            if let (Ok(from), Ok(to)) = (ctx.table.get(ctx.current), ctx.table.get(chosen)) {
                self.predicted_dpc =
                    Some(project_dpc(dpc, from.frequency(), to.frequency()));
            }
        }
        chosen
    }
}

impl Governor for PerformanceMaximizer {
    fn name(&self) -> &str {
        "pm"
    }

    fn events(&self) -> Vec<HardwareEvent> {
        vec![HardwareEvent::InstructionsDecoded]
    }

    fn decide(&mut self, ctx: &SampleContext<'_>) -> PStateId {
        self.decide_with(ctx, 1.0, false)
    }

    fn command(&mut self, command: GovernorCommand) {
        match command {
            GovernorCommand::SetPowerLimit(limit) => {
                self.limit = limit;
                // A fresh limit invalidates the raise history.
                self.raise_streak = 0;
            }
            GovernorCommand::SetPowerCoefficients(id, coeffs) => {
                // A rejected refit (out-of-range state, non-finite pair)
                // leaves the installed model untouched — the adaptive
                // layer validates before sending, so this is belt and
                // braces.
                if self.model.set_coefficients(id, coeffs).is_ok() {
                    self.raise_streak = 0;
                }
            }
            GovernorCommand::SetPerformanceFloor(_) => {}
        }
    }

    fn install_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aapm_platform::pstate::PStateTable;
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

    fn decide_at(pm: &mut PerformanceMaximizer, table: &PStateTable, current: usize, dpc: f64) -> PStateId {
        let s = sample(dpc);
        let ctx = SampleContext { counters: &s, power: None, temperature: None, current: PStateId::new(current), table, queue: None };
        pm.decide(&ctx)
    }

    fn pm_with_limit(watts: f64) -> PerformanceMaximizer {
        PerformanceMaximizer::new(PowerModel::paper_table_ii(), PowerLimit::new(watts).unwrap())
    }

    #[test]
    fn generous_limit_stays_at_top() {
        let table = PStateTable::pentium_m_755();
        let mut pm = pm_with_limit(30.0);
        assert_eq!(decide_at(&mut pm, &table, 7, 2.0), PStateId::new(7));
    }

    #[test]
    fn hot_sample_lowers_immediately() {
        let table = PStateTable::pentium_m_755();
        // Table II at P7: 2.93·DPC + 12.11 (+0.5 guardband) ≤ 15 fails for
        // DPC 2.0 (18.5 est); P6: 2.36·2.22+10.18+0.5 = 15.9 also fails
        // (projected DPC grows when stepping down); P5 @1600: projected DPC
        // = 2·2000/1600 = 2.5 → 1.82·2.5+8.44+0.5 = 13.5 ≤ 15 ✓.
        let mut pm = pm_with_limit(15.0);
        let chosen = decide_at(&mut pm, &table, 7, 2.0);
        assert_eq!(chosen, PStateId::new(5), "one sample is enough to lower");
    }

    #[test]
    fn raising_requires_consecutive_good_samples() {
        let table = PStateTable::pentium_m_755();
        let mut pm = pm_with_limit(30.0);
        // Start low; 9 good samples must not raise, the 10th raises.
        for i in 0..9 {
            let chosen = decide_at(&mut pm, &table, 2, 0.5);
            assert_eq!(chosen, PStateId::new(2), "sample {i} must hold");
        }
        let chosen = decide_at(&mut pm, &table, 2, 0.5);
        assert!(chosen > PStateId::new(2), "10th consecutive sample raises");
    }

    #[test]
    fn interrupted_streak_resets() {
        let table = PStateTable::pentium_m_755();
        let mut pm = pm_with_limit(14.0);
        // 5 good (low-DPC) samples…
        for _ in 0..5 {
            decide_at(&mut pm, &table, 2, 0.2);
        }
        // …then one hot sample: at DPC 8 every state above P2 estimates
        // over 14 W (P3: 1.06·8 + 5.6 + 0.5 = 14.58), so the candidate
        // equals the current state and the good streak resets.
        decide_at(&mut pm, &table, 2, 8.0);
        // 9 more good samples still must not raise (streak restarted).
        for i in 0..9 {
            let chosen = decide_at(&mut pm, &table, 2, 0.2);
            assert_eq!(chosen, PStateId::new(2), "post-reset sample {i}");
        }
        assert!(decide_at(&mut pm, &table, 2, 0.2) > PStateId::new(2));
    }

    #[test]
    fn impossible_limit_falls_to_lowest_state() {
        let table = PStateTable::pentium_m_755();
        // 2 W is below even P0's β (2.58 + guardband).
        let mut pm = pm_with_limit(2.0);
        assert_eq!(decide_at(&mut pm, &table, 7, 1.0), table.lowest());
    }

    #[test]
    fn limit_change_takes_effect_immediately() {
        let table = PStateTable::pentium_m_755();
        let mut pm = pm_with_limit(30.0);
        assert_eq!(decide_at(&mut pm, &table, 7, 2.0), PStateId::new(7));
        pm.command(GovernorCommand::SetPowerLimit(PowerLimit::new(10.0).unwrap()));
        let chosen = decide_at(&mut pm, &table, 7, 2.0);
        assert!(chosen < PStateId::new(7), "tighter limit lowers at once");
    }

    #[test]
    fn coefficient_refit_changes_estimates_immediately() {
        use aapm_models::power_model::PStateCoefficients;
        let table = PStateTable::pentium_m_755();
        // 16 W fits P7 at DPC 1.0 under Table II (15.04 + 0.5 guardband).
        let mut pm = pm_with_limit(16.0);
        assert_eq!(decide_at(&mut pm, &table, 7, 1.0), PStateId::new(7));
        // A refit reporting a 3 W hotter floor at P7 pushes it over the
        // limit; the very next decision lowers.
        pm.command(GovernorCommand::SetPowerCoefficients(
            PStateId::new(7),
            PStateCoefficients { alpha: 2.93, beta: 15.11 },
        ));
        assert!(decide_at(&mut pm, &table, 7, 1.0) < PStateId::new(7));
        // A non-finite refit is dropped and the (already refit) model kept.
        pm.command(GovernorCommand::SetPowerCoefficients(
            PStateId::new(7),
            PStateCoefficients { alpha: f64::NAN, beta: 12.11 },
        ));
        assert_eq!(pm.model().coefficients(PStateId::new(7)).unwrap().beta, 15.11);
    }

    #[test]
    fn guardband_biases_choices_down() {
        let table = PStateTable::pentium_m_755();
        // Pick a limit that P7 satisfies without guardband but not with a
        // huge one: est(P7, 1.0) = 15.04.
        let no_guard = PmConfig { guardband: Watts::new(0.0), ..PmConfig::default() };
        let big_guard = PmConfig { guardband: Watts::new(3.0), ..PmConfig::default() };
        let mut lenient = PerformanceMaximizer::with_config(
            PowerModel::paper_table_ii(),
            PowerLimit::new(15.5).unwrap(),
            no_guard,
        );
        let mut strict = PerformanceMaximizer::with_config(
            PowerModel::paper_table_ii(),
            PowerLimit::new(15.5).unwrap(),
            big_guard,
        );
        assert_eq!(decide_at(&mut lenient, &table, 7, 1.0), PStateId::new(7));
        assert!(decide_at(&mut strict, &table, 7, 1.0) < PStateId::new(7));
    }

    fn stale_sample(dpc: f64) -> CounterSample {
        let cycles = 20e6;
        CounterSample {
            start: Seconds::ZERO,
            end: Seconds::from_millis(10.0),
            cycles,
            counts: vec![(HardwareEvent::InstructionsDecoded, dpc * cycles, false)],
        }
    }

    fn decide_stale(pm: &mut PerformanceMaximizer, table: &PStateTable, current: usize) -> PStateId {
        let s = stale_sample(0.0);
        let ctx = SampleContext { counters: &s, power: None, temperature: None, current: PStateId::new(current), table, queue: None };
        pm.decide(&ctx)
    }

    #[test]
    fn stale_counters_hold_then_step_down() {
        let table = PStateTable::pentium_m_755();
        let mut pm = pm_with_limit(30.0);
        // Establish history at the top state.
        assert_eq!(decide_at(&mut pm, &table, 7, 1.0), PStateId::new(7));
        // Within the hold window the last DPC is held and the state kept.
        for i in 0..PerformanceMaximizer::STALE_HOLD_SAMPLES {
            assert_eq!(decide_stale(&mut pm, &table, 7), PStateId::new(7), "stale sample {i}");
        }
        // Past the window PM fails safe, one state at a time.
        assert_eq!(decide_stale(&mut pm, &table, 7), PStateId::new(6));
        assert_eq!(decide_stale(&mut pm, &table, 6), PStateId::new(5));
        // A fresh sample recovers normal operation (raise still gated).
        assert_eq!(decide_at(&mut pm, &table, 5, 1.0), PStateId::new(5));
    }

    #[test]
    fn stale_counters_never_raise() {
        let table = PStateTable::pentium_m_755();
        let mut pm = pm_with_limit(30.0);
        decide_at(&mut pm, &table, 2, 0.2);
        // Even a long run of benign stale samples must not raise frequency.
        for _ in 0..pm.config().raise_samples + 5 {
            let chosen = decide_stale(&mut pm, &table, 2);
            assert!(chosen <= PStateId::new(2));
        }
    }

    /// Boundary of the hold window: with `STALE_HOLD_SAMPLES = N`,
    /// exactly N stale intervals are held and the (N+1)-th steps down.
    #[test]
    fn hold_window_boundary_is_exactly_n_stale_intervals() {
        let table = PStateTable::pentium_m_755();
        let n = PerformanceMaximizer::STALE_HOLD_SAMPLES;
        let mut pm = pm_with_limit(30.0);
        assert_eq!(decide_at(&mut pm, &table, 7, 1.0), PStateId::new(7));
        for i in 1..=n {
            assert_eq!(decide_stale(&mut pm, &table, 7), PStateId::new(7), "stale sample {i} holds");
        }
        // Stale sample N+1 is the first fail-safe step.
        assert_eq!(decide_stale(&mut pm, &table, 7), PStateId::new(6), "sample N+1 steps down");
    }

    /// Hold-window entry/exit and fail-safe steps are counted when a
    /// metrics registry is installed, and the counts follow the exact-N
    /// boundary contract.
    #[test]
    fn hold_window_metrics_count_the_boundary() {
        let table = PStateTable::pentium_m_755();
        let n = PerformanceMaximizer::STALE_HOLD_SAMPLES;
        let mut pm = pm_with_limit(30.0);
        let metrics = Metrics::enabled();
        Governor::install_metrics(&mut pm, metrics.clone());
        decide_at(&mut pm, &table, 7, 1.0);
        for _ in 0..n + 2 {
            decide_stale(&mut pm, &table, 7);
        }
        decide_at(&mut pm, &table, 7, 1.0);
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.counter("pm.hold_entries"), 1);
        assert_eq!(snapshot.counter("pm.hold_exits"), 1);
        assert_eq!(snapshot.counter("pm.stale_intervals"), n as u64 + 2);
        assert_eq!(snapshot.counter("pm.failsafe_steps"), 2, "samples N+1 and N+2 step down");
        assert!(snapshot.histogram("pm.guardband_margin_w").is_some());
    }

    /// The per-window guardband headroom is tracked on fresh windows,
    /// exported as the `pm.guardband_headroom_w` gauge, and held across
    /// stale windows (the cluster governor's input signal).
    #[test]
    fn guardband_headroom_tracks_fresh_windows_and_holds_on_stale() {
        let table = PStateTable::pentium_m_755();
        let mut pm = pm_with_limit(30.0);
        assert!(pm.last_headroom().is_none(), "no headroom before the first fresh window");
        let metrics = Metrics::enabled();
        Governor::install_metrics(&mut pm, metrics.clone());
        decide_at(&mut pm, &table, 7, 1.0);
        // Staying at P7 the guarded estimate is 2.93·1.0 + 12.11 + 0.5 W
        // (Table II top state plus guardband); headroom is the remainder.
        let expect = 30.0 - (2.93 + 12.11 + 0.5);
        let got = pm.last_headroom().expect("fresh window sets headroom").watts();
        assert!((got - expect).abs() < 1e-9, "headroom {got} != {expect}");
        assert_eq!(metrics.snapshot().gauge("pm.guardband_headroom_w"), Some(got));
        // A stale window holds the previous value rather than clearing it.
        decide_stale(&mut pm, &table, 7);
        assert_eq!(pm.last_headroom().unwrap().watts(), got);
    }

    #[test]
    fn stale_with_no_history_fails_safe_immediately() {
        let table = PStateTable::pentium_m_755();
        let mut pm = pm_with_limit(30.0);
        assert_eq!(decide_stale(&mut pm, &table, 7), PStateId::new(6));
    }

    #[test]
    fn estimate_uses_projected_dpc_downward() {
        let table = PStateTable::pentium_m_755();
        let pm = pm_with_limit(15.0);
        let s = sample(1.0);
        let ctx = SampleContext { counters: &s, power: None, temperature: None, current: PStateId::new(7), table: &table, queue: None };
        // At P3 (1200 MHz) the projected DPC is 1.0 × 2000/1200 = 5/3;
        // Table II: 1.06·(5/3) + 5.60 + 0.5 guardband.
        let est = pm.estimate_at(&ctx, 1.0, PStateId::new(3)).unwrap();
        assert!((est.watts() - (1.06 * 5.0 / 3.0 + 5.60 + 0.5)).abs() < 1e-9);
    }
}
