//! SloSave: energy savings under a tail-latency SLO (the serve-traffic
//! analogue of [`PowerSave`](crate::ps::PowerSave)).
//!
//! PS's floor is a fraction of peak *throughput* — the right contract for
//! batch work, where finishing later is the only cost of running slower.
//! An open-loop server has a different contract: requests keep arriving
//! whether or not the machine keeps up, and what the operator bounds is
//! the *tail* of the sojourn time (queueing + service). SloSave's floor is
//! therefore a p99 sojourn-time SLO over a moving window of completed
//! requests:
//!
//! 1. **monitors** the per-interval [`QueueSample`] the runtime drains from
//!    the serve queue (no PMC events at all — the queue *is* the
//!    application-level telemetry, one layer above the paper's counters);
//! 2. **estimates** the current tail as the windowed p99 of completed
//!    sojourns ([`MovingWindow::percentile`]);
//! 3. **controls** with hysteresis: a violated SLO steps one p-state
//!    toward the peak immediately; stepping *down* requires a settle
//!    window of consecutive intervals comfortably inside the SLO
//!    (p99 ≤ `step_down_margin` × SLO), so the governor probes lower
//!    frequencies slowly and retreats fast — the asymmetry every
//!    latency-SLO controller needs, because a violation is observed only
//!    after users already waited.
//!
//! Degradation is fail-safe in the same direction as PS: missing queue
//! telemetry (a batch run, or a faulted sample path) holds the current
//! state for exactly [`SloSaveConfig::hold_samples`] intervals and then
//! steps toward the peak, through the same stale-telemetry hold as PM and
//! PS (DESIGN §6), and a NaN-poisoned p99 takes the violating branch.
//! Running too fast never breaches the latency contract; running too slow
//! does.
//!
//! [`QueueSample`]: aapm_platform::requests::QueueSample
//! [`MovingWindow::percentile`]: aapm_telemetry::window::MovingWindow::percentile

use aapm_platform::events::HardwareEvent;
use aapm_platform::pstate::PStateId;
use aapm_platform::units::Seconds;
use aapm_telemetry::metrics::{Counter, Gauge, Histogram, Metrics};
use aapm_telemetry::window::MovingWindow;

use crate::governor::{Governor, SampleContext};
use crate::hold::{self, StaleHold};

/// Tunables of the SloSave control loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSaveConfig {
    /// Completed sojourns the p99 is computed over. Small windows react
    /// fast but a single slow request dominates the estimated tail; the
    /// default (256) spans a few hundred ms of completions at typical
    /// service rates.
    pub window_sojourns: usize,
    /// Consecutive comfortable intervals (p99 ≤ `step_down_margin` × SLO)
    /// required before one step down. At the 10 ms control cadence the
    /// default (25) probes lower frequencies at most every 250 ms.
    pub settle_intervals: usize,
    /// How far inside the SLO the tail must sit before SloSave considers
    /// stepping down, as a fraction of the SLO in (0, 1].
    pub step_down_margin: f64,
    /// Consecutive intervals without queue telemetry absorbed by holding
    /// the current state before failing toward the peak (same contract as
    /// [`PowerSave::STALE_HOLD_SAMPLES`](crate::ps::PowerSave)).
    pub hold_samples: usize,
}

impl Default for SloSaveConfig {
    fn default() -> Self {
        SloSaveConfig {
            window_sojourns: 256,
            settle_intervals: 25,
            step_down_margin: 0.6,
            hold_samples: 50,
        }
    }
}

/// The SloSave governor.
///
/// # Examples
///
/// ```
/// use aapm::slo_save::SloSave;
/// use aapm_platform::units::Seconds;
///
/// let slo = SloSave::new(Seconds::from_millis(50.0))?;
/// assert_eq!(aapm::governor::Governor::name(&slo), "slo-save");
/// # Ok::<(), aapm_platform::error::PlatformError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SloSave {
    slo: Seconds,
    config: SloSaveConfig,
    /// Moving window of completed-request sojourn times (seconds).
    sojourns: MovingWindow,
    /// Consecutive comfortable intervals toward the settle threshold.
    good_streak: usize,
    hold: StaleHold,
    /// Total simulated time spent with the windowed p99 over the SLO.
    violation_seconds: f64,
    /// Observability handle (disabled unless the runtime installs one).
    metrics: Metrics,
}

impl SloSave {
    /// Creates SloSave with the default control-loop tunables.
    ///
    /// # Errors
    ///
    /// Returns [`aapm_platform::error::PlatformError::InvalidConfig`] for a
    /// non-positive or non-finite SLO.
    pub fn new(slo: Seconds) -> aapm_platform::error::Result<Self> {
        SloSave::with_config(slo, SloSaveConfig::default())
    }

    /// Creates SloSave with explicit control-loop tunables.
    ///
    /// # Errors
    ///
    /// Returns [`aapm_platform::error::PlatformError::InvalidConfig`] for a
    /// non-positive or non-finite SLO, a `step_down_margin` outside (0, 1],
    /// or a zero window/settle length.
    pub fn with_config(slo: Seconds, config: SloSaveConfig) -> aapm_platform::error::Result<Self> {
        let invalid = |parameter: &'static str, reason: String| {
            aapm_platform::error::PlatformError::InvalidConfig { parameter, reason }
        };
        if !(slo.seconds().is_finite() && slo.seconds() > 0.0) {
            return Err(invalid(
                "slo",
                format!("sojourn-time SLO must be positive and finite, got {}", slo.seconds()),
            ));
        }
        if !(config.step_down_margin > 0.0 && config.step_down_margin <= 1.0) {
            return Err(invalid(
                "step_down_margin",
                format!("must lie in (0, 1], got {}", config.step_down_margin),
            ));
        }
        if config.window_sojourns == 0 || config.settle_intervals == 0 {
            return Err(invalid(
                "window_sojourns",
                "window_sojourns and settle_intervals must be positive".to_owned(),
            ));
        }
        Ok(SloSave {
            slo,
            sojourns: MovingWindow::new(config.window_sojourns),
            hold: StaleHold::new(hold::SLO_SAVE),
            config,
            good_streak: 0,
            violation_seconds: 0.0,
            metrics: Metrics::disabled(),
        })
    }

    /// The active sojourn-time SLO.
    pub fn slo(&self) -> Seconds {
        self.slo
    }

    /// The control-loop tunables in use.
    pub fn config(&self) -> &SloSaveConfig {
        &self.config
    }

    /// Total simulated minutes spent with the windowed p99 over the SLO —
    /// the serve experiment's equal-violation comparison axis. Mirrored as
    /// the `slo.violation_minutes` gauge when metrics are installed.
    pub fn violation_minutes(&self) -> f64 {
        self.violation_seconds / 60.0
    }

    /// The current windowed p99 sojourn estimate, `None` before any
    /// completion has been observed.
    pub fn p99(&self) -> Option<f64> {
        self.sojourns.percentile(99.0)
    }

    fn step_up(&self, ctx: &SampleContext<'_>) -> PStateId {
        ctx.table.next_higher(ctx.current).unwrap_or_else(|| ctx.table.highest())
    }
}

impl Governor for SloSave {
    fn name(&self) -> &str {
        "slo-save"
    }

    fn events(&self) -> Vec<HardwareEvent> {
        // SloSave is driven entirely by queue telemetry: it needs no
        // programmable PMC events, so a PMC outage cannot blind it.
        Vec::new()
    }

    fn decide(&mut self, ctx: &SampleContext<'_>) -> PStateId {
        let now = ctx.counters.end;
        let interval = (ctx.counters.end - ctx.counters.start).seconds().max(0.0);

        // No queue telemetry this interval (batch run, or the sample path
        // faulted): hold a bounded window, then fail toward the peak —
        // running fast cannot breach a latency SLO.
        let Some(sample) = ctx.queue else {
            self.good_streak = 0;
            if self.hold.stale(&self.metrics, now, self.config.hold_samples) {
                return ctx.current;
            }
            self.hold.fail_safe(&self.metrics, now);
            return self.step_up(ctx);
        };
        self.hold.fresh(&self.metrics, now);

        for &sojourn in &sample.sojourns {
            self.sojourns.push(sojourn);
        }
        let Some(p99) = self.sojourns.percentile(99.0) else {
            // No completion observed yet. With work queued, run faster
            // until evidence arrives (a cold start at a low state must not
            // trap itself behind its own backlog); an idle queue can wait.
            return if sample.depth > 0 { self.step_up(ctx) } else { ctx.current };
        };
        self.metrics.observe(Histogram::SloP99S, p99);

        // `!(p99 <= slo)` rather than `p99 > slo`: a NaN-poisoned tail
        // must take the violating branch.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(p99 <= self.slo.seconds()) {
            self.violation_seconds += interval;
            self.metrics.gauge(Gauge::SloViolationMinutes, self.violation_minutes());
            self.good_streak = 0;
            self.metrics.inc(Counter::SloSaveStepsUp);
            return self.step_up(ctx);
        }

        // Inside the SLO: probe downward only after a full settle window
        // of comfortable intervals, one state at a time.
        if p99 <= self.config.step_down_margin * self.slo.seconds() {
            self.good_streak += 1;
            if self.good_streak >= self.config.settle_intervals {
                self.good_streak = 0;
                if let Some(lower) = ctx.table.next_lower(ctx.current) {
                    self.metrics.inc(Counter::SloSaveStepsDown);
                    return lower;
                }
            }
        } else {
            self.good_streak = 0;
        }
        ctx.current
    }

    fn install_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aapm_platform::pstate::PStateTable;
    use aapm_platform::requests::QueueSample;
    use aapm_telemetry::metrics::EventKind;
    use aapm_telemetry::pmc::CounterSample;

    fn counters() -> CounterSample {
        CounterSample {
            start: Seconds::ZERO,
            end: Seconds::from_millis(10.0),
            cycles: 20e6,
            counts: Vec::new(),
        }
    }

    fn queue_sample(depth: usize, sojourns: &[f64]) -> QueueSample {
        QueueSample {
            depth,
            arrived: sojourns.len() as u64,
            completed: sojourns.len() as u64,
            sojourns: sojourns.to_vec(),
        }
    }

    fn decide(
        slo: &mut SloSave,
        table: &PStateTable,
        current: PStateId,
        queue: Option<&QueueSample>,
    ) -> PStateId {
        let counters = counters();
        let ctx = SampleContext {
            counters: &counters,
            power: None,
            temperature: None,
            current,
            table,
            queue,
        };
        slo.decide(&ctx)
    }

    fn slo_50ms() -> SloSave {
        // A tiny window and settle so tests converge quickly.
        SloSave::with_config(
            Seconds::from_millis(50.0),
            SloSaveConfig {
                window_sojourns: 8,
                settle_intervals: 3,
                step_down_margin: 0.6,
                hold_samples: 4,
            },
        )
        .unwrap()
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(SloSave::new(Seconds::new(0.0)).is_err());
        assert!(SloSave::new(Seconds::new(-1.0)).is_err());
        // NaN durations cannot even be constructed (Seconds::new asserts),
        // so infinity is the only non-finite value to reject here.
        assert!(SloSave::new(Seconds::new(f64::INFINITY)).is_err());
        let bad_margin =
            SloSaveConfig { step_down_margin: 0.0, ..SloSaveConfig::default() };
        assert!(SloSave::with_config(Seconds::new(0.05), bad_margin).is_err());
        let bad_window = SloSaveConfig { window_sojourns: 0, ..SloSaveConfig::default() };
        assert!(SloSave::with_config(Seconds::new(0.05), bad_window).is_err());
    }

    #[test]
    fn violated_slo_steps_toward_peak_immediately() {
        let table = PStateTable::pentium_m_755();
        let mut slo = slo_50ms();
        let current = PStateId::new(3);
        let sample = queue_sample(5, &[0.2, 0.3]); // way over 50 ms
        let chosen = decide(&mut slo, &table, current, Some(&sample));
        assert_eq!(chosen, table.next_higher(current).unwrap());
        assert!(slo.violation_minutes() > 0.0);
    }

    #[test]
    fn comfortable_tail_steps_down_only_after_settle_window() {
        let table = PStateTable::pentium_m_755();
        let mut slo = slo_50ms();
        let current = table.highest();
        let sample = queue_sample(0, &[0.001, 0.002]); // far inside 50 ms
        // Two comfortable intervals hold; the third (settle_intervals = 3)
        // steps down one state.
        assert_eq!(decide(&mut slo, &table, current, Some(&sample)), current);
        assert_eq!(decide(&mut slo, &table, current, Some(&sample)), current);
        let stepped = decide(&mut slo, &table, current, Some(&sample));
        assert_eq!(stepped, table.next_lower(current).unwrap());
        assert_eq!(slo.violation_minutes(), 0.0);
    }

    #[test]
    fn tail_inside_slo_but_outside_margin_holds() {
        let table = PStateTable::pentium_m_755();
        let mut slo = slo_50ms();
        let current = PStateId::new(4);
        // 40 ms: under the 50 ms SLO but over the 30 ms step-down margin.
        let sample = queue_sample(1, &[0.04]);
        for _ in 0..10 {
            assert_eq!(decide(&mut slo, &table, current, Some(&sample)), current);
        }
        assert_eq!(slo.violation_minutes(), 0.0);
    }

    #[test]
    fn missing_queue_telemetry_holds_then_fails_toward_peak() {
        let table = PStateTable::pentium_m_755();
        let mut slo = slo_50ms();
        let current = PStateId::new(2);
        // hold_samples = 4: four missing intervals hold, the fifth steps up.
        for i in 0..4 {
            assert_eq!(decide(&mut slo, &table, current, None), current, "interval {i}");
        }
        assert_eq!(decide(&mut slo, &table, current, None), table.next_higher(current).unwrap());
        // Telemetry loss never counts as an SLO violation.
        assert_eq!(slo.violation_minutes(), 0.0);
    }

    /// The hold's entry, exit and fail-safe steps are counted under
    /// `slo_save.*`, and its events carry the `slo-save` tag.
    #[test]
    fn hold_window_metrics_count_the_boundary() {
        let table = PStateTable::pentium_m_755();
        let mut slo = slo_50ms();
        let metrics = Metrics::enabled();
        Governor::install_metrics(&mut slo, metrics.clone());
        let current = PStateId::new(2);
        // hold_samples = 4: six missing intervals hold four, step up two.
        for _ in 0..6 {
            decide(&mut slo, &table, current, None);
        }
        decide(&mut slo, &table, current, Some(&queue_sample(0, &[0.001])));
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.counter("slo_save.stale_intervals"), 6);
        assert_eq!(snapshot.counter("slo_save.hold_entries"), 1);
        assert_eq!(snapshot.counter("slo_save.failsafe_steps"), 2);
        assert_eq!(snapshot.counter("slo_save.hold_exits"), 1);
        let events = metrics.events();
        assert_eq!(events.len(), 4, "entered, two fail-safe steps, exited");
        for event in &events {
            match event.kind {
                EventKind::HoldEntered { governor }
                | EventKind::FailSafeStep { governor }
                | EventKind::HoldExited { governor, .. } => assert_eq!(governor, "slo-save"),
                ref other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn cold_start_with_backlog_steps_up_without_evidence() {
        let table = PStateTable::pentium_m_755();
        let mut slo = slo_50ms();
        let current = table.lowest();
        let backlog = queue_sample(12, &[]); // queued work, no completions yet
        assert_eq!(decide(&mut slo, &table, current, Some(&backlog)), table.next_higher(current).unwrap());
        let idle = queue_sample(0, &[]);
        assert_eq!(decide(&mut slo, &table, current, Some(&idle)), current);
    }

    #[test]
    fn nan_poisoned_tail_takes_the_violating_branch() {
        let table = PStateTable::pentium_m_755();
        let mut slo = slo_50ms();
        let current = PStateId::new(3);
        let sample = queue_sample(1, &[0.001, f64::NAN]);
        // The p99 over a window containing NaN is NaN; the comparison is
        // written so that counts as a violation, not a free pass.
        let chosen = decide(&mut slo, &table, current, Some(&sample));
        assert_eq!(chosen, table.next_higher(current).unwrap());
        assert!(slo.violation_minutes() > 0.0);
    }

    #[test]
    fn sign_bit_nan_sojourn_also_takes_the_violating_branch() {
        let table = PStateTable::pentium_m_755();
        let mut slo = slo_50ms();
        let current = PStateId::new(3);
        // x86-64's runtime NaN (`0.0 / 0.0`) has its sign bit set and would
        // sort below every sojourn if the window kept its bits; a full
        // window of fast requests around it must still read as violated.
        let negative_nan = f64::from_bits(0xfff8_0000_0000_0000);
        let sample = queue_sample(1, &[0.001, 0.001, negative_nan, 0.001, 0.001, 0.001, 0.001]);
        let chosen = decide(&mut slo, &table, current, Some(&sample));
        assert_eq!(chosen, table.next_higher(current).unwrap());
        assert!(slo.p99().unwrap().is_nan());
        assert!(slo.violation_minutes() > 0.0);
    }

    #[test]
    fn at_peak_a_violation_stays_at_peak() {
        let table = PStateTable::pentium_m_755();
        let mut slo = slo_50ms();
        let sample = queue_sample(50, &[0.5]);
        assert_eq!(decide(&mut slo, &table, table.highest(), Some(&sample)), table.highest());
    }

    #[test]
    fn violation_minutes_accumulate_per_violating_interval() {
        let table = PStateTable::pentium_m_755();
        let mut slo = slo_50ms();
        let sample = queue_sample(5, &[0.2]);
        for _ in 0..60 {
            decide(&mut slo, &table, table.highest(), Some(&sample));
        }
        // 60 violating intervals × 10 ms = 0.6 s = 0.01 min.
        assert!((slo.violation_minutes() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn metrics_count_control_actions() {
        let table = PStateTable::pentium_m_755();
        let mut slo = slo_50ms();
        let metrics = Metrics::enabled();
        Governor::install_metrics(&mut slo, metrics.clone());
        let bad = queue_sample(5, &[0.2]);
        decide(&mut slo, &table, PStateId::new(3), Some(&bad));
        // Each good interval completes a full window of fast requests, so
        // the 0.2 s straggler is evicted immediately.
        for _ in 0..3 {
            let good = queue_sample(0, &[0.001; 8]);
            decide(&mut slo, &table, PStateId::new(4), Some(&good));
        }
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.counter("slo_save.steps_up"), 1);
        assert_eq!(snapshot.counter("slo_save.steps_down"), 1);
        assert!(snapshot.histogram("slo.p99_s").is_some());
        assert!(snapshot.gauge("slo.violation_minutes").is_some());
    }
}
