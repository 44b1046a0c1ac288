//! The stale-telemetry hold that PM, PS and SloSave share (DESIGN §6).
//!
//! Each of the three decides from one telemetry channel: PM from its DPC
//! counter, PS from its IPC and DCU counters, SloSave from the serve
//! queue. When that channel goes stale the governor holds its last
//! decision for a window of exactly N stale intervals (stale intervals
//! 1..=N hold, and interval N+1 takes the first fail-safe step), then
//! steps one p-state per interval toward the safe side of its contract
//! until fresh telemetry returns.
//!
//! [`StaleHold`] keeps the streak and records the hold for its governor
//! under one of three name sets, [`PM`], [`PS`] and [`SLO_SAVE`]: the
//! counters `<prefix>.stale_intervals`, `.hold_entries`, `.hold_exits` and
//! `.failsafe_steps`, and the `hold_entered`, `hold_exited` and
//! `fail_safe_step` events tagged with the governor's name. The governor
//! keeps only what differs: its window (passed to [`StaleHold::stale`]),
//! what it holds, and which way it steps.

use aapm_platform::units::Seconds;
use aapm_telemetry::metrics::{Counter, EventKind, Metrics};

/// The event tag and counters a [`StaleHold`] records under. A governor
/// holds one `&'static` reference to its set, not four counters and a tag.
#[derive(Debug)]
pub(crate) struct HoldNames {
    governor: &'static str,
    stale_intervals: Counter,
    hold_entries: Counter,
    hold_exits: Counter,
    failsafe_steps: Counter,
}

/// PM's hold: `hold_*` events tagged `pm`, `pm.*` counters.
pub(crate) const PM: &HoldNames = &HoldNames {
    governor: "pm",
    stale_intervals: Counter::PmStaleIntervals,
    hold_entries: Counter::PmHoldEntries,
    hold_exits: Counter::PmHoldExits,
    failsafe_steps: Counter::PmFailsafeSteps,
};

/// PS's hold: `hold_*` events tagged `ps`, `ps.*` counters.
pub(crate) const PS: &HoldNames = &HoldNames {
    governor: "ps",
    stale_intervals: Counter::PsStaleIntervals,
    hold_entries: Counter::PsHoldEntries,
    hold_exits: Counter::PsHoldExits,
    failsafe_steps: Counter::PsFailsafeSteps,
};

/// SloSave's hold: `hold_*` events tagged `slo-save`, `slo_save.*`
/// counters.
pub(crate) const SLO_SAVE: &HoldNames = &HoldNames {
    governor: "slo-save",
    stale_intervals: Counter::SloSaveStaleIntervals,
    hold_entries: Counter::SloSaveHoldEntries,
    hold_exits: Counter::SloSaveHoldExits,
    failsafe_steps: Counter::SloSaveFailsafeSteps,
};

/// A bounded hold over stale telemetry: the streak of stale intervals.
#[derive(Debug, Clone)]
pub(crate) struct StaleHold {
    names: &'static HoldNames,
    /// Consecutive stale intervals seen.
    streak: usize,
}

impl StaleHold {
    pub(crate) fn new(names: &'static HoldNames) -> Self {
        StaleHold { names, streak: 0 }
    }

    /// Counts one stale interval, entering the hold on the first, and
    /// returns whether the streak is still inside the `window`.
    pub(crate) fn stale(&mut self, metrics: &Metrics, now: Seconds, window: usize) -> bool {
        self.streak += 1;
        metrics.inc(self.names.stale_intervals);
        if self.streak == 1 {
            metrics.inc(self.names.hold_entries);
            metrics.event(now, EventKind::HoldEntered { governor: self.names.governor });
        }
        self.streak <= window
    }

    /// Records one fail-safe step.
    pub(crate) fn fail_safe(&self, metrics: &Metrics, now: Seconds) {
        metrics.inc(self.names.failsafe_steps);
        metrics.event(now, EventKind::FailSafeStep { governor: self.names.governor });
    }

    /// A fresh interval: leaves the hold, if one is running.
    pub(crate) fn fresh(&mut self, metrics: &Metrics, now: Seconds) {
        if self.streak > 0 {
            metrics.inc(self.names.hold_exits);
            metrics.event(
                now,
                EventKind::HoldExited {
                    governor: self.names.governor,
                    stale_intervals: self.streak as u64,
                },
            );
            self.streak = 0;
        }
    }
}
