//! Deterministic fault injection for the measurement and actuation chain.
//!
//! The paper's governors ran against a physical rig — sense resistors and an
//! NI SCXI-1125 DAQ, a kernel PMC driver, ACPI p-state writes — where
//! samples drop, counters saturate, and DVFS writes occasionally stall. The
//! reproduction's telemetry is perfectly cadenced unless told otherwise;
//! this module is the "told otherwise": a seeded [`FaultPlan`] that decides,
//! per 10 ms control interval, which telemetry channels fail and whether the
//! actuator honors the governor's write.
//!
//! Two fault sources compose:
//!
//! * **stochastic rates** ([`FaultConfig`]) — independent per-interval
//!   Bernoulli faults, drawn from the plan's own seeded noise stream so an
//!   all-zero config leaves every other stream (DAQ, sensor, machine)
//!   bit-identical to a fault-free run;
//! * **scheduled windows** ([`FaultWindow`]) — deterministic outages
//!   (e.g. a two-second DAQ blackout) for reproducible degradation studies.
//!
//! The runtime threads the resulting [`IntervalFaults`] through the control
//! loop; governors see `None` power/temperature and stale counter samples
//! and must degrade gracefully rather than panic.

use aapm_platform::error::{PlatformError, Result};
use aapm_platform::noise::NoiseSource;
use aapm_platform::units::Seconds;

/// Stochastic fault rates, all per control interval.
///
/// The default config is all-zero and provably inert: [`FaultPlan`] draws
/// nothing from its noise stream when every rate is zero and no windows are
/// scheduled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the fault plan's private noise stream.
    pub seed: u64,
    /// P(power sample dropped — DAQ returns nothing this interval).
    pub power_dropout_rate: f64,
    /// P(power reading stuck at the last delivered value).
    pub power_stuck_rate: f64,
    /// P(thermal-sensor read dropped).
    pub thermal_dropout_rate: f64,
    /// P(PMC read missed — the driver's state does not advance and the
    /// governor sees a rate-estimated, stale sample).
    pub pmc_missed_rate: f64,
    /// P(a `set_pstate` write is silently ignored).
    pub actuation_ignored_rate: f64,
    /// P(a `set_pstate` write stalls and lands `stall_intervals` later).
    pub actuation_stall_rate: f64,
    /// Latency of a stalled write, in control intervals (bounded).
    pub stall_intervals: usize,
    /// In-interval retries attempted after an ignored write before the
    /// runtime gives up until the next interval (capped backoff).
    pub retry_limit: usize,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            power_dropout_rate: 0.0,
            power_stuck_rate: 0.0,
            thermal_dropout_rate: 0.0,
            pmc_missed_rate: 0.0,
            actuation_ignored_rate: 0.0,
            actuation_stall_rate: 0.0,
            stall_intervals: 3,
            retry_limit: 3,
        }
    }
}

impl FaultConfig {
    /// The stochastic rates as stable `(name, value)` pairs, in the
    /// declaration order above. This is the serialization surface: the
    /// fuzz harness's scenario codec writes these names as JSON keys and
    /// reads them back through [`FaultConfig::set_rate`].
    pub fn rates(&self) -> [(&'static str, f64); 6] {
        [
            ("power_dropout_rate", self.power_dropout_rate),
            ("power_stuck_rate", self.power_stuck_rate),
            ("thermal_dropout_rate", self.thermal_dropout_rate),
            ("pmc_missed_rate", self.pmc_missed_rate),
            ("actuation_ignored_rate", self.actuation_ignored_rate),
            ("actuation_stall_rate", self.actuation_stall_rate),
        ]
    }

    /// Sets the rate named `name` (one of the [`FaultConfig::rates`]
    /// names). Returns `false` when the name is unknown, so codecs can
    /// report the bad key instead of silently dropping it.
    pub fn set_rate(&mut self, name: &str, value: f64) -> bool {
        match name {
            "power_dropout_rate" => self.power_dropout_rate = value,
            "power_stuck_rate" => self.power_stuck_rate = value,
            "thermal_dropout_rate" => self.thermal_dropout_rate = value,
            "pmc_missed_rate" => self.pmc_missed_rate = value,
            "actuation_ignored_rate" => self.actuation_ignored_rate = value,
            "actuation_stall_rate" => self.actuation_stall_rate = value,
            _ => return false,
        }
        true
    }

    /// Whether every stochastic rate is zero (no faults will ever fire from
    /// this config alone).
    pub fn is_inert(&self) -> bool {
        self.power_dropout_rate == 0.0
            && self.power_stuck_rate == 0.0
            && self.thermal_dropout_rate == 0.0
            && self.pmc_missed_rate == 0.0
            && self.actuation_ignored_rate == 0.0
            && self.actuation_stall_rate == 0.0
    }

    /// Validates all rates are finite probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidConfig`] naming the offending rate.
    pub fn validate(&self) -> Result<()> {
        let rates = [
            ("power_dropout_rate", self.power_dropout_rate),
            ("power_stuck_rate", self.power_stuck_rate),
            ("thermal_dropout_rate", self.thermal_dropout_rate),
            ("pmc_missed_rate", self.pmc_missed_rate),
            ("actuation_ignored_rate", self.actuation_ignored_rate),
            ("actuation_stall_rate", self.actuation_stall_rate),
        ];
        for (name, rate) in rates {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(PlatformError::InvalidConfig {
                    parameter: name,
                    reason: format!("fault rate {rate} must be a probability in [0, 1]"),
                });
            }
        }
        if self.actuation_stall_rate > 0.0 && self.stall_intervals == 0 {
            return Err(PlatformError::InvalidConfig {
                parameter: "stall_intervals",
                reason: "stalled writes need a latency of at least one interval".into(),
            });
        }
        Ok(())
    }
}

/// What a scheduled outage window breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// DAQ delivers no power samples.
    PowerDropout,
    /// DAQ repeats the last delivered power value.
    PowerStuck,
    /// Thermal sensor delivers no readings.
    ThermalDropout,
    /// PMC reads are missed (driver state frozen; samples estimated).
    PmcMissed,
    /// `set_pstate` writes are ignored.
    ActuationIgnored,
    /// Power, PMC, and thermal all lost at once (e.g. the measurement rig's
    /// sync GPIO line detached).
    Blackout,
}

impl FaultKind {
    /// Every kind, in a stable order (for generators and docs).
    pub const ALL: [FaultKind; 6] = [
        FaultKind::PowerDropout,
        FaultKind::PowerStuck,
        FaultKind::ThermalDropout,
        FaultKind::PmcMissed,
        FaultKind::ActuationIgnored,
        FaultKind::Blackout,
    ];

    /// The kind's stable serialized name (kebab-case, mirroring the
    /// governor registry's kind discriminators).
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::PowerDropout => "power-dropout",
            FaultKind::PowerStuck => "power-stuck",
            FaultKind::ThermalDropout => "thermal-dropout",
            FaultKind::PmcMissed => "pmc-missed",
            FaultKind::ActuationIgnored => "actuation-ignored",
            FaultKind::Blackout => "blackout",
        }
    }

    /// Parses a serialized kind name; `None` for unknown names.
    pub fn from_name(name: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|kind| kind.as_str() == name)
    }
}

/// A deterministic outage over `[start, end)` of simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// Start of the outage (inclusive).
    pub start: Seconds,
    /// End of the outage (exclusive).
    pub end: Seconds,
    /// What fails during the outage.
    pub kind: FaultKind,
}

impl FaultWindow {
    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: Seconds) -> bool {
        self.start <= t && t < self.end
    }

    fn validate(&self) -> Result<()> {
        let (start, end) = (self.start.seconds(), self.end.seconds());
        if !start.is_finite() || !end.is_finite() || start >= end {
            return Err(PlatformError::InvalidConfig {
                parameter: "fault_windows",
                reason: format!("window [{start}, {end}) must be finite and non-empty"),
            });
        }
        Ok(())
    }
}

/// How one interval's power sample is corrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PowerFault {
    /// Sample delivered normally.
    #[default]
    Intact,
    /// Sample lost; the governor sees `None`.
    Dropped,
    /// Reading stuck at the last delivered value.
    Stuck,
}

/// How one interval's p-state write is corrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ActuationFault {
    /// Write applied normally.
    #[default]
    Intact,
    /// Write silently dropped.
    Ignored,
    /// Write lands after a bounded delay.
    Stalled,
}

/// The faults in effect for one control interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntervalFaults {
    /// Power-sample fate.
    pub power: PowerFault,
    /// Whether the thermal read is lost.
    pub thermal_dropped: bool,
    /// Whether the PMC read is missed.
    pub pmc_missed: bool,
    /// P-state-write fate.
    pub actuation: ActuationFault,
}

impl IntervalFaults {
    /// An interval with no faults.
    pub const CLEAN: IntervalFaults = IntervalFaults {
        power: PowerFault::Intact,
        thermal_dropped: false,
        pmc_missed: false,
        actuation: ActuationFault::Intact,
    };
}

/// Counters of every fault the runtime actually injected or absorbed during
/// a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Power samples dropped.
    pub power_dropouts: u64,
    /// Power samples stuck at the previous value.
    pub power_stuck: u64,
    /// Thermal reads dropped.
    pub thermal_dropouts: u64,
    /// PMC reads missed.
    pub pmc_missed: u64,
    /// `set_pstate` writes ignored (including failed retries).
    pub actuations_ignored: u64,
    /// `set_pstate` writes that stalled.
    pub actuations_stalled: u64,
    /// Intervals where every retry of a write failed and the runtime
    /// absorbed the loss (the machine kept its p-state) instead of failing
    /// the run.
    pub actuation_failures: u64,
}

impl FaultStats {
    /// Total telemetry samples lost or corrupted.
    pub fn telemetry_losses(&self) -> u64 {
        self.power_dropouts + self.power_stuck + self.thermal_dropouts + self.pmc_missed
    }

    /// Total actuator misbehaviors.
    pub fn actuation_faults(&self) -> u64 {
        self.actuations_ignored + self.actuations_stalled
    }

    /// Whether nothing at all was injected.
    pub fn is_clean(&self) -> bool {
        self == &FaultStats::default()
    }
}

/// The seeded, deterministic fault schedule for one run.
///
/// # Examples
///
/// ```
/// use aapm_platform::units::Seconds;
/// use aapm_telemetry::faults::{FaultConfig, FaultPlan};
///
/// let config = FaultConfig { seed: 7, power_dropout_rate: 0.5, ..FaultConfig::default() };
/// let mut a = FaultPlan::new(config)?;
/// let mut b = FaultPlan::new(config)?;
/// for i in 0..100 {
///     let t = Seconds::new(0.01 * i as f64);
///     assert_eq!(a.next_interval(t), b.next_interval(t));
/// }
/// # Ok::<(), aapm_platform::error::PlatformError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
    windows: Vec<FaultWindow>,
    noise: NoiseSource,
    inert: bool,
}

impl FaultPlan {
    /// A plan with stochastic faults only.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidConfig`] on out-of-range rates.
    pub fn new(config: FaultConfig) -> Result<Self> {
        FaultPlan::with_windows(config, &[])
    }

    /// A plan combining stochastic rates and scheduled outage windows.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidConfig`] on out-of-range rates or
    /// non-finite/empty windows.
    pub fn with_windows(config: FaultConfig, windows: &[FaultWindow]) -> Result<Self> {
        config.validate()?;
        for window in windows {
            window.validate()?;
        }
        let inert = config.is_inert() && windows.is_empty();
        Ok(FaultPlan {
            config,
            windows: windows.to_vec(),
            noise: NoiseSource::seeded(config.seed ^ 0x00FA_017F_A017),
            inert,
        })
    }

    /// Whether this plan can never inject anything.
    pub fn is_inert(&self) -> bool {
        self.inert
    }

    /// The configured stochastic rates.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Decides the faults for the control interval ending at `now`.
    ///
    /// Draws a fixed number of deviates from the plan's private stream per
    /// call (zero when the plan is inert), so a given `(config, windows)`
    /// pair yields the same fault sequence on every run.
    pub fn next_interval(&mut self, now: Seconds) -> IntervalFaults {
        if self.inert {
            return IntervalFaults::CLEAN;
        }
        // Stochastic draws happen unconditionally and in a fixed order so
        // scheduled windows never perturb the stream.
        let dropout = self.noise.chance(self.config.power_dropout_rate);
        let stuck = self.noise.chance(self.config.power_stuck_rate);
        let thermal = self.noise.chance(self.config.thermal_dropout_rate);
        let pmc = self.noise.chance(self.config.pmc_missed_rate);
        let ignored = self.noise.chance(self.config.actuation_ignored_rate);
        let stalled = self.noise.chance(self.config.actuation_stall_rate);

        let mut faults = IntervalFaults {
            power: if dropout {
                PowerFault::Dropped
            } else if stuck {
                PowerFault::Stuck
            } else {
                PowerFault::Intact
            },
            thermal_dropped: thermal,
            pmc_missed: pmc,
            actuation: if ignored {
                ActuationFault::Ignored
            } else if stalled {
                ActuationFault::Stalled
            } else {
                ActuationFault::Intact
            },
        };
        for window in &self.windows {
            if !window.contains(now) {
                continue;
            }
            match window.kind {
                FaultKind::PowerDropout => faults.power = PowerFault::Dropped,
                FaultKind::PowerStuck => faults.power = PowerFault::Stuck,
                FaultKind::ThermalDropout => faults.thermal_dropped = true,
                FaultKind::PmcMissed => faults.pmc_missed = true,
                FaultKind::ActuationIgnored => faults.actuation = ActuationFault::Ignored,
                FaultKind::Blackout => {
                    faults.power = PowerFault::Dropped;
                    faults.thermal_dropped = true;
                    faults.pmc_missed = true;
                }
            }
        }
        faults
    }

    /// Whether one in-interval retry of an ignored write also fails.
    ///
    /// Scheduled [`FaultKind::ActuationIgnored`] windows fail all retries
    /// deterministically; otherwise this is a fresh Bernoulli draw at the
    /// configured ignore rate.
    pub fn retry_fails(&mut self, now: Seconds) -> bool {
        if self.inert {
            return false;
        }
        if self
            .windows
            .iter()
            .any(|w| w.kind == FaultKind::ActuationIgnored && w.contains(now))
        {
            return true;
        }
        self.noise.chance(self.config.actuation_ignored_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(n: usize) -> impl Iterator<Item = Seconds> {
        (0..n).map(|i| Seconds::new(0.01 * (i + 1) as f64))
    }

    #[test]
    fn default_config_is_inert_and_draws_nothing() {
        let mut plan = FaultPlan::new(FaultConfig::default()).unwrap();
        assert!(plan.is_inert());
        for t in times(1000) {
            assert_eq!(plan.next_interval(t), IntervalFaults::CLEAN);
            assert!(!plan.retry_fails(t));
        }
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let config = FaultConfig {
            seed: 42,
            power_dropout_rate: 0.1,
            power_stuck_rate: 0.05,
            thermal_dropout_rate: 0.08,
            pmc_missed_rate: 0.1,
            actuation_ignored_rate: 0.06,
            actuation_stall_rate: 0.04,
            ..FaultConfig::default()
        };
        let mut a = FaultPlan::new(config).unwrap();
        let mut b = FaultPlan::new(config).unwrap();
        for t in times(2000) {
            assert_eq!(a.next_interval(t), b.next_interval(t));
        }
    }

    #[test]
    fn different_seeds_give_different_sequences() {
        let base = FaultConfig { power_dropout_rate: 0.3, ..FaultConfig::default() };
        let mut a = FaultPlan::new(FaultConfig { seed: 1, ..base }).unwrap();
        let mut b = FaultPlan::new(FaultConfig { seed: 2, ..base }).unwrap();
        let differing = times(500)
            .filter(|&t| a.next_interval(t) != b.next_interval(t))
            .count();
        assert!(differing > 0, "distinct seeds must produce distinct plans");
    }

    #[test]
    fn rates_are_approximately_honored() {
        let config = FaultConfig { seed: 9, power_dropout_rate: 0.1, ..FaultConfig::default() };
        let mut plan = FaultPlan::new(config).unwrap();
        let n = 20_000;
        let dropped = times(n)
            .filter(|&t| plan.next_interval(t).power == PowerFault::Dropped)
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "observed dropout rate {rate}");
    }

    #[test]
    fn windows_fire_exactly_inside_their_span() {
        let window = FaultWindow {
            start: Seconds::new(0.5),
            end: Seconds::new(1.0),
            kind: FaultKind::Blackout,
        };
        let mut plan = FaultPlan::with_windows(FaultConfig::default(), &[window]).unwrap();
        assert!(!plan.is_inert());
        for t in times(150) {
            let faults = plan.next_interval(t);
            if window.contains(t) {
                assert_eq!(faults.power, PowerFault::Dropped, "at {t}");
                assert!(faults.thermal_dropped && faults.pmc_missed, "at {t}");
            } else {
                assert_eq!(faults, IntervalFaults::CLEAN, "at {t}");
            }
        }
    }

    #[test]
    fn actuation_window_fails_retries_deterministically() {
        let window = FaultWindow {
            start: Seconds::ZERO,
            end: Seconds::new(10.0),
            kind: FaultKind::ActuationIgnored,
        };
        let mut plan = FaultPlan::with_windows(FaultConfig::default(), &[window]).unwrap();
        for t in times(10) {
            assert_eq!(plan.next_interval(t).actuation, ActuationFault::Ignored);
            assert!(plan.retry_fails(t));
        }
    }

    #[test]
    fn invalid_rates_and_windows_are_rejected() {
        let bad_rate = FaultConfig { power_dropout_rate: 1.5, ..FaultConfig::default() };
        assert!(matches!(
            FaultPlan::new(bad_rate),
            Err(PlatformError::InvalidConfig { parameter: "power_dropout_rate", .. })
        ));
        let nan_rate = FaultConfig { pmc_missed_rate: f64::NAN, ..FaultConfig::default() };
        assert!(FaultPlan::new(nan_rate).is_err());
        let no_latency = FaultConfig {
            actuation_stall_rate: 0.1,
            stall_intervals: 0,
            ..FaultConfig::default()
        };
        assert!(FaultPlan::new(no_latency).is_err());
        let empty_window = FaultWindow {
            start: Seconds::new(1.0),
            end: Seconds::new(1.0),
            kind: FaultKind::PowerDropout,
        };
        assert!(FaultPlan::with_windows(FaultConfig::default(), &[empty_window]).is_err());
    }

    /// The serialization surface round-trips: every kind name parses back
    /// to itself, and every rate written through `rates()` is readable
    /// through `set_rate`.
    #[test]
    fn serialization_helpers_round_trip() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::from_name(kind.as_str()), Some(kind));
        }
        assert_eq!(FaultKind::from_name("gamma-rays"), None);

        let source = FaultConfig {
            seed: 11,
            power_dropout_rate: 0.1,
            power_stuck_rate: 0.2,
            thermal_dropout_rate: 0.3,
            pmc_missed_rate: 0.4,
            actuation_ignored_rate: 0.5,
            actuation_stall_rate: 0.6,
            ..FaultConfig::default()
        };
        let mut rebuilt = FaultConfig { seed: 11, ..FaultConfig::default() };
        for (name, value) in source.rates() {
            assert!(rebuilt.set_rate(name, value), "unknown rate name {name}");
        }
        assert_eq!(rebuilt, source);
        assert!(!rebuilt.set_rate("not_a_rate", 0.5));
    }

    #[test]
    fn stats_roll_up() {
        let stats = FaultStats {
            power_dropouts: 3,
            power_stuck: 1,
            thermal_dropouts: 2,
            pmc_missed: 4,
            actuations_ignored: 5,
            actuations_stalled: 6,
            actuation_failures: 1,
        };
        assert_eq!(stats.telemetry_losses(), 10);
        assert_eq!(stats.actuation_faults(), 11);
        assert!(!stats.is_clean());
        assert!(FaultStats::default().is_clean());
    }
}
