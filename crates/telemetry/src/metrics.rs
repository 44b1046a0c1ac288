//! Lightweight metrics registry and structured event log for the control
//! loop.
//!
//! The paper's methodology is Monitor → Estimate → Control, but until now
//! the runtime recorded only the plotted power/p-state trace — governor
//! internals (hold-window activations, actuator retries, projection errors)
//! were invisible. This module is the observability backbone a production
//! power-management stack would ship with (cf. Mazzola et al.'s
//! counter-stream telemetry): **counters**, **gauges**, and **histogram
//! summaries** named by a closed vocabulary — the [`Counter`], [`Gauge`]
//! and [`Histogram`] enums, one variant per recorded name — plus a stream
//! of structured [`Event`]s stamped with *simulated* time.
//!
//! Design contract (DESIGN.md §9):
//!
//! * **One list of names.** A recording call takes a variant, never a
//!   string, so a misspelt name is a compile error rather than a new
//!   metric. The registry is three dense arrays indexed by variant, and a
//!   [`MetricsSnapshot`] lists the recorded slots in declaration order,
//!   which is the byte order of their names.
//! * **Cheap when disabled.** A [`Metrics`] handle is either *installed*
//!   (backed by a shared registry) or *disabled* (the default). Every
//!   recording call on a disabled handle is a single `Option` check;
//!   no allocation, no formatting.
//! * **Determinism.** Recording must never perturb simulation state. All
//!   values recorded are pure observations of state the control loop
//!   already computes, and events carry simulated (not wall-clock)
//!   timestamps, so a run with metrics installed is bit-identical to one
//!   without.
//! * **Single-threaded by design.** One handle instruments one simulation
//!   run, which executes on one thread (experiment cells are isolated).
//!   The cross-run aggregation layer lives in `aapm-experiments`.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use aapm_platform::units::Seconds;

/// Declares one kind of the vocabulary: an enum with one variant per
/// name, [`ALL`](Counter::ALL) in declaration order, and `name()`.
macro_rules! vocabulary {
    ($(#[$doc:meta])* $kind:ident { $($variant:ident => $name:literal,)+ }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $kind {
            $(#[doc = concat!("`", $name, "`")] $variant,)+
        }

        impl $kind {
            /// Every variant in declaration order, which is the byte order
            /// of their names: the order a snapshot lists them in.
            pub const ALL: &'static [$kind] = &[$($kind::$variant),+];

            /// The name the metric is exported under.
            pub const fn name(self) -> &'static str {
                match self {
                    $($kind::$variant => $name,)+
                }
            }
        }
    };
}

vocabulary! {
    /// A monotone event count. Listed in a snapshot once non-zero.
    Counter {
        ActuatorFailures => "actuator.failures",
        ActuatorIgnored => "actuator.ignored",
        ActuatorRecoveries => "actuator.recoveries",
        ActuatorStalled => "actuator.stalled",
        AdaptDegenerateWindows => "adapt.degenerate_windows",
        AdaptFallbacks => "adapt.fallbacks",
        AdaptRefitCount => "adapt.refit_count",
        FaultPmcMissed => "fault.pmc_missed",
        FaultPowerDropped => "fault.power_dropped",
        FaultPowerStuck => "fault.power_stuck",
        FaultThermalDropped => "fault.thermal_dropped",
        PmFailsafeSteps => "pm.failsafe_steps",
        PmHoldEntries => "pm.hold_entries",
        PmHoldExits => "pm.hold_exits",
        PmStaleIntervals => "pm.stale_intervals",
        PsFailsafeSteps => "ps.failsafe_steps",
        PsHoldEntries => "ps.hold_entries",
        PsHoldExits => "ps.hold_exits",
        PsStaleIntervals => "ps.stale_intervals",
        RuntimeCommandsDelivered => "runtime.commands_delivered",
        RuntimeIntervals => "runtime.intervals",
        RuntimePstateChanges => "runtime.pstate_changes",
        SloSaveFailsafeSteps => "slo_save.failsafe_steps",
        SloSaveHoldEntries => "slo_save.hold_entries",
        SloSaveHoldExits => "slo_save.hold_exits",
        SloSaveStaleIntervals => "slo_save.stale_intervals",
        SloSaveStepsDown => "slo_save.steps_down",
        SloSaveStepsUp => "slo_save.steps_up",
        ThermalGuardCeilingLowered => "thermal_guard.ceiling_lowered",
        ThermalGuardCeilingRaised => "thermal_guard.ceiling_raised",
        WatchdogEngagements => "watchdog.engagements",
        WatchdogReleases => "watchdog.releases",
    }
}

vocabulary! {
    /// A last-written value. Listed in a snapshot once set.
    Gauge {
        PmGuardbandHeadroomW => "pm.guardband_headroom_w",
        PmPowerDeficitW => "pm.power_deficit_w",
        QueueDepth => "queue.depth",
        ServeEnergyPerRequestJ => "serve.energy_per_request_j",
        ServeRequestsArrived => "serve.requests_arrived",
        ServeRequestsCompleted => "serve.requests_completed",
        ServeRequestsPending => "serve.requests_pending",
        SloViolationMinutes => "slo.violation_minutes",
    }
}

vocabulary! {
    /// A [`Summary`] of an observed value stream. Listed in a snapshot once
    /// it holds an observation.
    Histogram {
        AdaptCoeffDriftW => "adapt.coeff_drift_w",
        AdaptModelErrorW => "adapt.model_error_w",
        PmGuardbandMarginW => "pm.guardband_margin_w",
        PmProjectionErrorDpc => "pm.projection_error_dpc",
        PsFloorSlack => "ps.floor_slack",
        PsProjectionErrorIpc => "ps.projection_error_ipc",
        RequestSojournS => "request.sojourn_s",
        SloP99S => "slo.p99_s",
    }
}

/// Summary statistics of an observed value stream — a histogram without
/// buckets, which is all the deterministic assertions and JSON exports
/// need: count, sum (hence mean), min, and max.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
    /// Smallest observed value (0.0 when empty).
    pub min: f64,
    /// Largest observed value (0.0 when empty).
    pub max: f64,
}

impl Summary {
    /// Folds one observation in.
    pub fn observe(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
    }

    /// Merges another summary in (used by cross-run aggregation).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Mean of the observed values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A structured control-loop event. The taxonomy covers everything the
/// runtime and governors do that the plotted trace cannot show.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// The governor asked for a different p-state than the interval ran at.
    /// (Steady-state intervals emit no event to bound trace volume.)
    Decision {
        /// P-state index the interval ran at.
        from: usize,
        /// P-state index the governor chose for the next interval.
        to: usize,
    },
    /// A governor entered its stale-telemetry hold window (first stale
    /// counter sample of a streak).
    HoldEntered {
        /// Governor short name (`"pm"`, `"ps"`).
        governor: &'static str,
    },
    /// A governor left its hold window (fresh telemetry returned).
    HoldExited {
        /// Governor short name.
        governor: &'static str,
        /// Consecutive stale intervals the streak lasted.
        stale_intervals: u64,
    },
    /// A governor's hold window expired and it took one fail-safe step
    /// (PM steps down; PS steps toward the peak).
    FailSafeStep {
        /// Governor short name.
        governor: &'static str,
    },
    /// A p-state write was silently ignored (initial attempt or a failed
    /// in-interval retry). One event per ignored attempt, so the event
    /// count matches `FaultStats::actuations_ignored` exactly.
    ActuatorIgnored {
        /// 1 for the initial write, 2.. for failed retries.
        attempt: u64,
    },
    /// An in-interval retry landed after earlier ignored attempts.
    ActuatorRecovered {
        /// Total attempts including the successful one.
        attempts: u64,
    },
    /// A p-state write stalled; it lands `intervals` control intervals
    /// later unless superseded.
    ActuatorStalled {
        /// Configured stall latency in intervals.
        intervals: u64,
    },
    /// Every in-interval retry failed; the runtime absorbed the loss and
    /// the machine kept its p-state.
    ActuationFailed {
        /// Attempts made before giving up.
        attempts: u64,
    },
    /// A telemetry fault was injected this interval.
    FaultInjected {
        /// `"power_dropped"`, `"power_stuck"`, `"thermal_dropped"`, or
        /// `"pmc_missed"`.
        kind: &'static str,
    },
    /// A scheduled command reached the governor.
    CommandDelivered {
        /// `"set_power_limit"` or `"set_performance_floor"`.
        command: &'static str,
    },
    /// The telemetry watchdog engaged and overrode the inner governor.
    WatchdogEngaged {
        /// Consecutive blind intervals that tripped it.
        blind_intervals: u64,
    },
    /// The watchdog released control back to the inner governor.
    WatchdogReleased,
    /// A thermal guard lowered its p-state ceiling (hot die or a sustained
    /// sensor outage forcing the fail-safe ratchet).
    ThermalCeilingLowered {
        /// P-state index of the new ceiling.
        ceiling: usize,
    },
    /// A thermal guard relaxed its ceiling one state upward, or dropped it
    /// entirely (then `ceiling` is the table's highest state).
    ThermalCeilingRaised {
        /// P-state index of the new ceiling.
        ceiling: usize,
    },
    /// The adaptive layer pushed an online refit of one p-state's power
    /// coefficients into its inner governor.
    ModelRefit {
        /// P-state index whose coefficients were replaced.
        pstate: usize,
    },
    /// The adaptive layer abandoned its online fit and restored the
    /// offline seed model.
    ModelReseeded {
        /// `"degenerate_window"` or `"telemetry_outage"`.
        reason: &'static str,
    },
}

impl EventKind {
    /// The event's wire name (the `"event"` field of its JSONL record).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Decision { .. } => "decision",
            EventKind::HoldEntered { .. } => "hold_entered",
            EventKind::HoldExited { .. } => "hold_exited",
            EventKind::FailSafeStep { .. } => "fail_safe_step",
            EventKind::ActuatorIgnored { .. } => "actuator_ignored",
            EventKind::ActuatorRecovered { .. } => "actuator_recovered",
            EventKind::ActuatorStalled { .. } => "actuator_stalled",
            EventKind::ActuationFailed { .. } => "actuation_failed",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::CommandDelivered { .. } => "command_delivered",
            EventKind::WatchdogEngaged { .. } => "watchdog_engaged",
            EventKind::WatchdogReleased => "watchdog_released",
            EventKind::ThermalCeilingLowered { .. } => "thermal_ceiling_lowered",
            EventKind::ThermalCeilingRaised { .. } => "thermal_ceiling_raised",
            EventKind::ModelRefit { .. } => "model_refit",
            EventKind::ModelReseeded { .. } => "model_reseeded",
        }
    }
}

/// One structured event, stamped with simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Simulated time at which the event occurred (interval end for
    /// per-interval events).
    pub t: Seconds,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Renders the event as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut line = String::with_capacity(64);
        let _ = write!(
            line,
            "{{\"t\":{:.6},\"event\":\"{}\"",
            self.t.seconds(),
            self.kind.name()
        );
        match self.kind {
            EventKind::Decision { from, to } => {
                let _ = write!(line, ",\"from\":{from},\"to\":{to}");
            }
            EventKind::HoldEntered { governor } | EventKind::FailSafeStep { governor } => {
                let _ = write!(line, ",\"governor\":\"{governor}\"");
            }
            EventKind::HoldExited { governor, stale_intervals } => {
                let _ = write!(
                    line,
                    ",\"governor\":\"{governor}\",\"stale_intervals\":{stale_intervals}"
                );
            }
            EventKind::ActuatorIgnored { attempt } => {
                let _ = write!(line, ",\"attempt\":{attempt}");
            }
            EventKind::ActuatorRecovered { attempts } | EventKind::ActuationFailed { attempts } => {
                let _ = write!(line, ",\"attempts\":{attempts}");
            }
            EventKind::ActuatorStalled { intervals } => {
                let _ = write!(line, ",\"intervals\":{intervals}");
            }
            EventKind::FaultInjected { kind } => {
                let _ = write!(line, ",\"kind\":\"{kind}\"");
            }
            EventKind::CommandDelivered { command } => {
                let _ = write!(line, ",\"command\":\"{command}\"");
            }
            EventKind::WatchdogEngaged { blind_intervals } => {
                let _ = write!(line, ",\"blind_intervals\":{blind_intervals}");
            }
            EventKind::WatchdogReleased => {}
            EventKind::ThermalCeilingLowered { ceiling }
            | EventKind::ThermalCeilingRaised { ceiling } => {
                let _ = write!(line, ",\"ceiling\":{ceiling}");
            }
            EventKind::ModelRefit { pstate } => {
                let _ = write!(line, ",\"pstate\":{pstate}");
            }
            EventKind::ModelReseeded { reason } => {
                let _ = write!(line, ",\"reason\":\"{reason}\"");
            }
        }
        line.push('}');
        line
    }
}

/// The backing store of an installed [`Metrics`] handle: one slot per
/// variant of each kind.
#[derive(Debug)]
struct Registry {
    counters: [u64; Counter::ALL.len()],
    gauges: [Option<f64>; Gauge::ALL.len()],
    histograms: [Summary; Histogram::ALL.len()],
    events: Vec<Event>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            counters: [0; Counter::ALL.len()],
            gauges: [None; Gauge::ALL.len()],
            histograms: [Summary::default(); Histogram::ALL.len()],
            events: Vec::new(),
        }
    }
}

/// An immutable end-of-run snapshot of a registry, sorted by name. Plain
/// data (`Send`), carried by `RunReport` so tests can assert on
/// governor-internal behaviour instead of eyeballing traces.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Non-zero counter values, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
    /// Last-written gauge values, sorted by name.
    pub gauges: Vec<(&'static str, f64)>,
    /// Non-empty histogram summaries, sorted by name.
    pub histograms: Vec<(&'static str, Summary)>,
    /// Number of events the run emitted.
    pub events: usize,
}

impl MetricsSnapshot {
    /// Looks a counter up by name (0 when absent — an uninstalled registry
    /// and a counter that never fired are indistinguishable by design).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Looks a gauge up by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Looks a histogram summary up by name.
    pub fn histogram(&self, name: &str) -> Option<Summary> {
        self.histograms.iter().find(|(n, _)| *n == name).map(|(_, s)| *s)
    }

    /// Whether nothing was recorded (also true for disabled handles).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.events == 0
    }
}

/// A cheap, cloneable handle to a metrics registry.
///
/// `Metrics::default()` is **disabled**: every recording call is a no-op
/// behind one `Option` check, so un-instrumented runs pay nothing.
/// [`Metrics::enabled`] installs a registry; clones share it (the runtime
/// hands clones to the governor chain so all layers record into one
/// registry).
///
/// # Examples
///
/// ```
/// use aapm_platform::units::Seconds;
/// use aapm_telemetry::metrics::{Counter, EventKind, Histogram, Metrics};
///
/// let metrics = Metrics::enabled();
/// metrics.inc(Counter::ActuatorIgnored);
/// metrics.observe(Histogram::PmGuardbandMarginW, 1.25);
/// metrics.event(Seconds::new(0.01), EventKind::HoldEntered { governor: "pm" });
/// let snap = metrics.snapshot();
/// assert_eq!(snap.counter("actuator.ignored"), 1);
/// assert_eq!(snap.histogram("pm.guardband_margin_w").map(|h| h.count), Some(1));
/// assert_eq!(snap.events, 1);
///
/// let disabled = Metrics::default();
/// disabled.inc(Counter::ActuatorIgnored);
/// assert!(disabled.snapshot().is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Option<Rc<RefCell<Registry>>>,
}

impl Metrics {
    /// A handle with an installed (shared, initially empty) registry.
    pub fn enabled() -> Self {
        Metrics { inner: Some(Rc::new(RefCell::new(Registry::default()))) }
    }

    /// A disabled handle; identical to `Metrics::default()`.
    pub fn disabled() -> Self {
        Metrics::default()
    }

    /// Whether a registry is installed.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with<R>(&self, record: impl FnOnce(&mut Registry) -> R) -> Option<R> {
        self.inner.as_ref().map(|cell| record(&mut cell.borrow_mut()))
    }

    /// Increments a counter by 1.
    pub fn inc(&self, counter: Counter) {
        self.with(|r| r.counters[counter as usize] += 1);
    }

    /// Sets a gauge to `value` (last write wins).
    pub fn gauge(&self, gauge: Gauge, value: f64) {
        self.with(|r| r.gauges[gauge as usize] = Some(value));
    }

    /// Folds `value` into a histogram summary.
    pub fn observe(&self, histogram: Histogram, value: f64) {
        self.with(|r| r.histograms[histogram as usize].observe(value));
    }

    /// Appends a structured event stamped with simulated time `t`.
    pub fn event(&self, t: Seconds, kind: EventKind) {
        self.with(|r| r.events.push(Event { t, kind }));
    }

    /// A sorted snapshot of everything recorded so far: the recorded slots
    /// of each kind in declaration order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.with(|r| MetricsSnapshot {
            counters: Counter::ALL
                .iter()
                .map(|&c| (c.name(), r.counters[c as usize]))
                .filter(|&(_, v)| v > 0)
                .collect(),
            gauges: Gauge::ALL
                .iter()
                .filter_map(|&g| r.gauges[g as usize].map(|v| (g.name(), v)))
                .collect(),
            histograms: Histogram::ALL
                .iter()
                .map(|&h| (h.name(), r.histograms[h as usize]))
                .filter(|(_, s)| s.count > 0)
                .collect(),
            events: r.events.len(),
        })
        .unwrap_or_default()
    }

    /// A copy of the event stream in emission order.
    pub fn events(&self) -> Vec<Event> {
        self.with(|r| r.events.clone()).unwrap_or_default()
    }

    /// Renders the event stream as JSONL (one event per line, trailing
    /// newline after each).
    pub fn events_jsonl(&self) -> String {
        let events = self.events();
        let mut out = String::with_capacity(events.len() * 64);
        for event in &events {
            out.push_str(&event.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let metrics = Metrics::default();
        assert!(!metrics.is_enabled());
        metrics.inc(Counter::ActuatorFailures);
        metrics.gauge(Gauge::PmGuardbandHeadroomW, 1.0);
        metrics.observe(Histogram::AdaptCoeffDriftW, 2.0);
        metrics.event(Seconds::new(0.5), EventKind::WatchdogReleased);
        assert!(metrics.snapshot().is_empty());
        assert!(metrics.events().is_empty());
        assert!(metrics.events_jsonl().is_empty());
    }

    #[test]
    fn clones_share_one_registry() {
        let metrics = Metrics::enabled();
        let clone = metrics.clone();
        metrics.inc(Counter::RuntimeIntervals);
        clone.inc(Counter::RuntimeIntervals);
        clone.gauge(Gauge::PmGuardbandHeadroomW, -0.5);
        assert_eq!(metrics.snapshot().counter("runtime.intervals"), 2);
        assert_eq!(metrics.snapshot().gauge("pm.guardband_headroom_w"), Some(-0.5));
    }

    #[test]
    fn summary_tracks_count_sum_min_max() {
        let mut s = Summary::default();
        for v in [3.0, -1.0, 2.0] {
            s.observe(v);
        }
        assert_eq!(s.count, 3);
        assert!((s.sum - 4.0).abs() < 1e-12);
        assert!((s.min - -1.0).abs() < 1e-12);
        assert!((s.max - 3.0).abs() < 1e-12);
        assert!((s.mean() - 4.0 / 3.0).abs() < 1e-12);

        let mut other = Summary::default();
        other.observe(10.0);
        s.merge(&other);
        assert_eq!(s.count, 4);
        assert!((s.max - 10.0).abs() < 1e-12);
        // Merging an empty summary is a no-op; merging into one adopts.
        s.merge(&Summary::default());
        assert_eq!(s.count, 4);
        let mut empty = Summary::default();
        empty.merge(&s);
        assert_eq!(empty, s);
    }

    #[test]
    fn events_render_as_valid_single_line_json() {
        let metrics = Metrics::enabled();
        let t = Seconds::new(0.12);
        let kinds = [
            EventKind::Decision { from: 7, to: 5 },
            EventKind::HoldEntered { governor: "pm" },
            EventKind::HoldExited { governor: "pm", stale_intervals: 3 },
            EventKind::FailSafeStep { governor: "ps" },
            EventKind::ActuatorIgnored { attempt: 2 },
            EventKind::ActuatorRecovered { attempts: 3 },
            EventKind::ActuatorStalled { intervals: 3 },
            EventKind::ActuationFailed { attempts: 4 },
            EventKind::FaultInjected { kind: "pmc_missed" },
            EventKind::CommandDelivered { command: "set_power_limit" },
            EventKind::WatchdogEngaged { blind_intervals: 10 },
            EventKind::WatchdogReleased,
            EventKind::ThermalCeilingLowered { ceiling: 4 },
            EventKind::ThermalCeilingRaised { ceiling: 5 },
        ];
        for kind in kinds {
            metrics.event(t, kind);
        }
        let jsonl = metrics.events_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), kinds.len());
        for (line, kind) in lines.iter().zip(kinds) {
            assert!(line.starts_with("{\"t\":0.120000,\"event\":\""), "{line}");
            assert!(line.ends_with('}'), "{line}");
            assert!(line.contains(kind.name()), "{line} missing {}", kind.name());
            // Single-line, no raw control characters: parseable as JSONL.
            assert!(!line.contains('\n'));
        }
        assert_eq!(metrics.snapshot().events, kinds.len());
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let metrics = Metrics::enabled();
        metrics.inc(Counter::WatchdogReleases);
        metrics.inc(Counter::ActuatorFailures);
        metrics.observe(Histogram::SloP99S, 1.0);
        metrics.observe(Histogram::SloP99S, 5.0);
        let snap = metrics.snapshot();
        assert_eq!(snap.counters[0].0, "actuator.failures");
        assert_eq!(snap.counters[1].0, "watchdog.releases");
        assert_eq!(snap.counter("missing"), 0);
        let h = snap.histogram("slo.p99_s").unwrap();
        assert_eq!(h.count, 2);
        assert!((h.max - 5.0).abs() < 1e-12);
        assert_eq!(snap.histogram("absent"), None);
    }

    /// The snapshot lists slots in declaration order instead of sorting,
    /// so each kind must be declared in strictly increasing byte order of
    /// its names, which also rules out a name declared twice; and no name
    /// may belong to two kinds, or the aggregate would merge them.
    #[test]
    fn vocabulary_is_in_name_order_and_kinds_are_disjoint() {
        let kinds: [Vec<&str>; 3] = [
            Counter::ALL.iter().map(|c| c.name()).collect(),
            Gauge::ALL.iter().map(|g| g.name()).collect(),
            Histogram::ALL.iter().map(|h| h.name()).collect(),
        ];
        for names in &kinds {
            for pair in names.windows(2) {
                assert!(pair[0].as_bytes() < pair[1].as_bytes(), "{} before {}", pair[0], pair[1]);
            }
        }
        let mut all: Vec<&str> = kinds.concat();
        all.sort_unstable();
        let before = all.len();
        all.dedup();
        assert_eq!(all.len(), before, "a name belongs to two kinds");
        // A slot is its variant's declaration index.
        assert!(Counter::ALL.iter().enumerate().all(|(i, &c)| c as usize == i));
        assert!(Gauge::ALL.iter().enumerate().all(|(i, &g)| g as usize == i));
        assert!(Histogram::ALL.iter().enumerate().all(|(i, &h)| h as usize == i));
    }

    #[test]
    fn snapshot_lists_only_recorded_slots() {
        let metrics = Metrics::enabled();
        assert!(metrics.snapshot().is_empty(), "an untouched registry lists nothing");
        metrics.gauge(Gauge::QueueDepth, f64::NAN);
        metrics.gauge(Gauge::QueueDepth, 0.0);
        metrics.observe(Histogram::RequestSojournS, 0.0);
        let snap = metrics.snapshot();
        assert!(snap.counters.is_empty());
        assert_eq!(snap.gauges, vec![("queue.depth", 0.0)], "a gauge is listed once set, at 0 too");
        assert_eq!(snap.histograms.len(), 1, "a histogram is listed once it holds a value");
        assert_eq!(snap.histograms[0].1.count, 1);
    }
}
