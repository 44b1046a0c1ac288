//! The property oracles: run a [`Scenario`] and judge the result.
//!
//! Five properties are checked, each rendering into the stable one-line
//! verdict that corpus fixtures record:
//!
//! - **cap** — fraction of 100 ms (10-sample) trace windows whose mean
//!   *measured* power exceeds the active limit (the paper's adherence
//!   metric). Applicable when the stack carries a power limit. The first
//!   window (startup transient) and windows within 100 ms of a scheduled
//!   limit change are excluded.
//! - **floor** — performance reduction versus a clean unconstrained
//!   baseline of the same program, compared against the lowest floor the
//!   stack or command stream promises, plus the scenario's tolerance.
//! - **liveness** — for watchdog stacks with a scheduled blackout long
//!   enough to trip the loss threshold, the safe (lowest) p-state must
//!   appear in the trace within `LOSS_THRESHOLD + liveness_slack_intervals`
//!   intervals of the window opening.
//! - **conservation** — trace times strictly increase, measured energy
//!   equals the sum of per-interval sample energy, and energies are
//!   non-negative.
//! - **finite** — every report and trace value is finite.
//!
//! A panic anywhere in the run is caught and recorded as its own outcome;
//! a scenario that fails to build reports the error string instead. A run
//! that is still going after [`REPLAY_STEP_BUDGET`] control intervals is
//! abandoned with a wedged (liveness) verdict — `catch_unwind` can catch a
//! panic but not a hang, so the budget is what keeps a non-terminating
//! scenario from wedging the whole fuzz driver.
//!
//! [`Scenario`]: crate::scenario::Scenario

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use aapm::runtime::{ScheduledCommand, Session, SimulationConfig};
use aapm::spec::{GovernorSpec, SpecModels};
use aapm::watchdog::LOSS_THRESHOLD;
use aapm::{Governor, RunReport, Unconstrained};
use aapm_platform::config::MachineConfig;
use aapm_platform::error::Result;
use aapm_platform::pstate::PStateId;
use aapm_telemetry::faults::{FaultKind, FaultStats};

use crate::scenario::{CommandKind, Scenario};

/// The paper's adherence window: 10 samples at the 10 ms control interval.
pub const CAP_WINDOW: usize = 10;

/// Hard ceiling on control intervals per oracle replay: 2,000 simulated
/// seconds at the 10 ms interval, far beyond any committed fixture's
/// `max_samples` (≤ a few thousand), so legitimate scenarios never feel
/// it. A run still going at the budget is wedged — most likely stuck on a
/// state that makes no forward progress — and becomes [`Verdict::Wedged`]
/// instead of hanging `--fuzz` forever.
pub const REPLAY_STEP_BUDGET: usize = 200_000;

/// One property's outcome. `detail` values render with six decimals so the
/// verdict line is byte-stable across runs and job counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Property {
    /// The property does not apply to this scenario.
    Skip,
    /// Held, with an optional measured detail.
    Pass(Option<f64>),
    /// Violated, with an optional measured detail.
    Fail(Option<f64>),
}

impl Property {
    /// Judges a measured value against a pass condition.
    pub fn judged(pass: bool, detail: f64) -> Property {
        if pass { Property::Pass(Some(detail)) } else { Property::Fail(Some(detail)) }
    }

    /// Whether this property failed.
    pub fn is_fail(&self) -> bool {
        matches!(self, Property::Fail(_))
    }

    fn render(&self, out: &mut String) {
        match self {
            Property::Skip => out.push_str("SKIP"),
            Property::Pass(None) => out.push_str("PASS"),
            Property::Pass(Some(detail)) => {
                let _ = write!(out, "PASS({detail:.6})");
            }
            Property::Fail(None) => out.push_str("FAIL"),
            Property::Fail(Some(detail)) => {
                let _ = write!(out, "FAIL({detail:.6})");
            }
        }
    }
}

/// The judged outcome of a completed (non-panicking) run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunVerdict {
    /// Power-cap adherence.
    pub cap: Property,
    /// Performance-floor adherence.
    pub floor: Property,
    /// Watchdog liveness through scheduled blackouts.
    pub liveness: Property,
    /// Simulator conservation invariants.
    pub conservation: Property,
    /// No non-finite value anywhere in the report.
    pub finite: Property,
    /// Trace length in control intervals.
    pub samples: usize,
    /// P-state transitions performed.
    pub transitions: u64,
    /// Measured energy in joules.
    pub energy_j: f64,
    /// Total injected faults (telemetry losses + actuation faults).
    pub faults: u64,
}

/// The full verdict for one scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The run completed (possibly violating properties).
    Ran(RunVerdict),
    /// The scenario failed to build or the run returned an error.
    Invalid(String),
    /// The run panicked.
    Panicked,
    /// The run exceeded [`REPLAY_STEP_BUDGET`] control intervals without
    /// finishing: the simulation is wedged (a liveness failure of the
    /// scenario itself, caught by the budget rather than an oracle).
    Wedged,
}

impl Verdict {
    /// The stable one-line rendering recorded in corpus fixtures and
    /// byte-compared on replay.
    pub fn render(&self) -> String {
        match self {
            Verdict::Panicked => "panic=FAIL".to_owned(),
            Verdict::Wedged => format!("liveness=FAIL(wedged) budget={REPLAY_STEP_BUDGET}"),
            Verdict::Invalid(reason) => format!("invalid: {reason}"),
            Verdict::Ran(run) => {
                let mut out = String::with_capacity(128);
                for (name, property) in [
                    ("cap", run.cap),
                    ("floor", run.floor),
                    ("liveness", run.liveness),
                    ("conservation", run.conservation),
                    ("finite", run.finite),
                ] {
                    let _ = write!(out, "{name}=");
                    property.render(&mut out);
                    out.push(' ');
                }
                let _ = write!(
                    out,
                    "panic=PASS samples={} transitions={} energy_j={:.6} faults={}",
                    run.samples, run.transitions, run.energy_j, run.faults
                );
                out
            }
        }
    }

    /// Names of every failing property (`"panic"`, `"invalid"`, or the
    /// per-property names).
    pub fn failures(&self) -> Vec<&'static str> {
        match self {
            Verdict::Panicked => vec!["panic"],
            Verdict::Wedged => vec!["liveness"],
            Verdict::Invalid(_) => vec!["invalid"],
            Verdict::Ran(run) => [
                ("cap", run.cap),
                ("floor", run.floor),
                ("liveness", run.liveness),
                ("conservation", run.conservation),
                ("finite", run.finite),
            ]
            .iter()
            .filter(|(_, p)| p.is_fail())
            .map(|(name, _)| *name)
            .collect(),
        }
    }

    /// Failing properties that are *always* bugs: panics, build errors,
    /// broken conservation, non-finite values, and a dead watchdog. Cap
    /// and floor violations are excluded — the paper expects model
    /// deception to produce some (galgel), so the fuzz driver reports
    /// those as findings rather than hard failures.
    pub fn universal_failures(&self) -> Vec<&'static str> {
        self.failures()
            .into_iter()
            .filter(|name| !matches!(*name, "cap" | "floor"))
            .collect()
    }
}

/// A deliberately broken build hook: any power-limited stack becomes a
/// bare [`PerformanceMaximizer`] with a **zero** guardband, giving away
/// the safety margin that absorbs model error. Tests and the acceptance
/// gate use it to prove the cap oracle catches a broken governor; stacks
/// without a limit build normally.
///
/// [`PerformanceMaximizer`]: aapm::pm::PerformanceMaximizer
pub fn build_zero_guardband(
    spec: &GovernorSpec,
    models: &SpecModels,
) -> Result<Box<dyn Governor>> {
    use aapm::limits::PowerLimit;
    use aapm::pm::{PerformanceMaximizer, PmConfig};
    use aapm_platform::units::Watts;

    let Some(limit) = initial_limit(spec) else {
        return spec.build(models);
    };
    let config = PmConfig { guardband: Watts::new(0.0), ..PmConfig::default() };
    Ok(Box::new(PerformanceMaximizer::with_config(
        models.power.clone(),
        PowerLimit::new(limit)?,
        config,
    )))
}

/// How [`evaluate_with`] turns a spec into a governor. The default hook is
/// [`GovernorSpec::build`]; tests substitute sabotaged builds (e.g. a zero
/// guardband) to prove the oracles catch a broken governor.
pub type BuildGovernor<'a> = dyn Fn(&GovernorSpec, &SpecModels) -> Result<Box<dyn Governor>> + 'a;

/// Runs a scenario with the standard spec build and judges it.
pub fn evaluate(scenario: &Scenario) -> Verdict {
    evaluate_with(scenario, &|spec, models| spec.build(models))
}

/// Runs a scenario with a caller-supplied governor build hook.
///
/// The run executes against [`SpecModels::default`] (the paper's published
/// models) so replay needs no training data, under `catch_unwind` so a
/// panicking governor becomes a verdict instead of a crash.
pub fn evaluate_with(scenario: &Scenario, build: &BuildGovernor) -> Verdict {
    let program = match scenario.program.build() {
        Ok(program) => program,
        Err(error) => return Verdict::Invalid(error.to_string()),
    };
    let commands: Vec<ScheduledCommand> = match scenario
        .commands
        .iter()
        .map(crate::scenario::CommandSpec::command)
        .collect()
    {
        Ok(commands) => commands,
        Err(error) => return Verdict::Invalid(format!("{error}")),
    };
    let models = SpecModels::default();
    let governor = match build(&scenario.governor, &models) {
        Ok(governor) => governor,
        Err(error) => return Verdict::Invalid(error.to_string()),
    };
    let windows = scenario.faults.fault_windows();
    let sim = SimulationConfig {
        seed: scenario.seed,
        max_samples: scenario.max_samples,
        faults: scenario.faults.config,
        ..SimulationConfig::default()
    };
    let seed = scenario.seed;
    // Stepping manually (instead of `.run()`) lets the budget abandon a
    // wedged simulation: `catch_unwind` below can turn a panic into a
    // verdict but is powerless against a loop that never exits.
    let outcome = catch_unwind(AssertUnwindSafe(move || -> Result<Option<_>> {
        let mut session = Session::builder(MachineConfig::pentium_m_755(seed), program)
            .config(sim)
            .governor_boxed(governor)
            .commands(&commands)
            .faults(&windows)
            .build()?;
        let mut steps = 0usize;
        while session.step()?.is_running() {
            steps += 1;
            if steps >= REPLAY_STEP_BUDGET {
                return Ok(None);
            }
        }
        Ok(Some(session.finish()))
    }));
    let (report, stats) = match outcome {
        Err(_) => return Verdict::Panicked,
        Ok(Err(error)) => return Verdict::Invalid(error.to_string()),
        Ok(Ok(None)) => return Verdict::Wedged,
        Ok(Ok(Some(run))) => run,
    };
    judge(scenario, &report, &stats)
}

fn judge(scenario: &Scenario, report: &RunReport, stats: &FaultStats) -> Verdict {
    let floor = match floor_property(scenario, report) {
        Ok(floor) => floor,
        Err(error) => return Verdict::Invalid(format!("baseline run failed: {error}")),
    };
    Verdict::Ran(RunVerdict {
        cap: cap_property(scenario, report),
        floor,
        liveness: liveness_property(scenario, report),
        conservation: conservation_property(report),
        finite: finite_property(report),
        samples: report.trace.len(),
        transitions: report.transitions,
        energy_j: report.measured_energy.joules(),
        faults: stats.telemetry_losses() + stats.actuation_faults(),
    })
}

/// The initial power limit the stack promises, if any (wrappers recurse).
pub fn initial_limit(spec: &GovernorSpec) -> Option<f64> {
    match spec {
        GovernorSpec::Pm { limit_w }
        | GovernorSpec::FeedbackPm { limit_w }
        | GovernorSpec::CombinedPm { limit_w }
        | GovernorSpec::PhasePm { limit_w } => Some(*limit_w),
        GovernorSpec::Watchdog { inner }
        | GovernorSpec::ThermalGuard { inner }
        | GovernorSpec::Adaptive { inner, .. } => initial_limit(inner),
        _ => None,
    }
}

/// The performance floor the stack promises, if any (wrappers recurse).
pub fn initial_floor(spec: &GovernorSpec) -> Option<f64> {
    match spec {
        GovernorSpec::Ps { floor } | GovernorSpec::ThrottleSave { floor } => Some(*floor),
        GovernorSpec::Watchdog { inner }
        | GovernorSpec::ThermalGuard { inner }
        | GovernorSpec::Adaptive { inner, .. } => initial_floor(inner),
        _ => None,
    }
}

/// Whether the stack contains a watchdog layer.
pub fn has_watchdog(spec: &GovernorSpec) -> bool {
    match spec {
        GovernorSpec::Watchdog { .. } => true,
        GovernorSpec::ThermalGuard { inner } | GovernorSpec::Adaptive { inner, .. } => {
            has_watchdog(inner)
        }
        _ => false,
    }
}

fn cap_property(scenario: &Scenario, report: &RunReport) -> Property {
    let Some(limit0) = initial_limit(&scenario.governor) else {
        return Property::Skip;
    };
    let mut events: Vec<(f64, f64)> = scenario
        .commands
        .iter()
        .filter(|c| c.set == CommandKind::PowerLimit)
        .map(|c| (c.at, c.value))
        .collect();
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    let records = report.trace.records();
    let interval = report.trace.interval().seconds();
    // Grace after a limit change: the governor reacts from the next
    // decision, so windows opening inside one full window of the change
    // are not judged.
    let grace = CAP_WINDOW as f64 * interval;
    let mut considered = 0usize;
    let mut violations = 0usize;
    let mut start = CAP_WINDOW; // the first window is startup transient
    while start + CAP_WINDOW <= records.len() {
        let slice = &records[start..start + CAP_WINDOW];
        start += CAP_WINDOW;
        let start_t = slice[0].time.seconds();
        let end_t = slice[CAP_WINDOW - 1].time.seconds();
        let mut limit = limit0;
        let mut settling = false;
        for &(at, value) in &events {
            if at <= start_t {
                limit = value;
                settling = settling || start_t - at < grace;
            } else if at <= end_t {
                settling = true;
            }
        }
        if settling {
            continue;
        }
        considered += 1;
        let mean = slice.iter().map(|r| r.power.watts()).sum::<f64>() / CAP_WINDOW as f64;
        if mean > limit + 1e-9 {
            violations += 1;
        }
    }
    let fraction =
        if considered == 0 { 0.0 } else { violations as f64 / considered as f64 };
    Property::judged(fraction <= scenario.oracles.max_cap_violation + 1e-12, fraction)
}

fn floor_property(scenario: &Scenario, report: &RunReport) -> Result<Property> {
    let Some(spec_floor) = initial_floor(&scenario.governor) else {
        return Ok(Property::Skip);
    };
    let min_floor = scenario
        .commands
        .iter()
        .filter(|c| c.set == CommandKind::PerformanceFloor)
        .map(|c| c.value)
        .fold(spec_floor, f64::min);
    // Clean baseline: same machine and measurement seeds, no governor, no
    // faults, no commands — the denominator of the paper's reduction
    // metric.
    let (baseline, _) = Session::builder(
        MachineConfig::pentium_m_755(scenario.seed),
        scenario.program.build()?,
    )
    .config(SimulationConfig {
        seed: scenario.seed,
        max_samples: scenario.max_samples,
        ..SimulationConfig::default()
    })
    .governor(&mut Unconstrained::new())
    .run()?;
    let reduction = report.performance_reduction_vs(&baseline);
    let allowed = (1.0 - min_floor) + scenario.oracles.floor_tolerance;
    Ok(Property::judged(reduction <= allowed + 1e-12, reduction))
}

fn liveness_property(scenario: &Scenario, report: &RunReport) -> Property {
    if !has_watchdog(&scenario.governor) {
        return Property::Skip;
    }
    let slack = scenario.oracles.liveness_slack_intervals;
    let deadline_intervals = (LOSS_THRESHOLD + slack) as f64;
    let interval = report.trace.interval().seconds();
    let records = report.trace.records();
    let Some(last) = records.last() else {
        return Property::Skip;
    };
    // Stochastic actuation faults can defer the safe-state transition past
    // any fixed deadline, so the check only applies to clean actuation.
    if scenario.faults.config.actuation_ignored_rate != 0.0
        || scenario.faults.config.actuation_stall_rate != 0.0
    {
        return Property::Skip;
    }
    let mut applicable = false;
    let mut worst = 0.0f64;
    for window in &scenario.faults.windows {
        if window.kind != FaultKind::Blackout {
            continue;
        }
        // The outage must be long enough to trip the loss threshold, and
        // the trace must extend past the deadline for the check to mean
        // anything.
        let deadline = window.start + deadline_intervals * interval;
        if window.end < window.start + (LOSS_THRESHOLD as f64 + 1.0) * interval
            || last.time.seconds() < deadline
        {
            continue;
        }
        // Blindness must be guaranteed up to the deadline: an overlapping
        // power-stuck window scheduled after the blackout restores a
        // (stale) power sample, so the watchdog legitimately never sees a
        // blind interval; an overlapping actuation-ignored window keeps
        // the safe-state write from landing.
        let occluded = scenario.faults.windows.iter().any(|other| {
            matches!(other.kind, FaultKind::PowerStuck | FaultKind::ActuationIgnored)
                && other.start < deadline
                && other.end > window.start
        });
        if occluded {
            continue;
        }
        applicable = true;
        let engaged = records.iter().find_map(|r| {
            let t = r.time.seconds();
            // The watchdog forces the table's lowest state.
            (t >= window.start && r.pstate == PStateId::new(0))
                .then(|| (t - window.start) / interval)
        });
        match engaged {
            Some(intervals) if intervals <= deadline_intervals + 1e-9 => {
                worst = worst.max(intervals);
            }
            // Engaged too late, or never: detail is the observed latency,
            // or −1 when the safe state never appeared at all.
            Some(intervals) => return Property::judged(false, intervals),
            None => return Property::judged(false, -1.0),
        }
    }
    if applicable { Property::judged(true, worst) } else { Property::Skip }
}

fn conservation_property(report: &RunReport) -> Property {
    let records = report.trace.records();
    let interval = report.trace.interval().seconds();
    for pair in records.windows(2) {
        if pair[1].time <= pair[0].time {
            return Property::Fail(None);
        }
    }
    if let Some(last) = records.last() {
        if last.time.seconds() > report.execution_time.seconds() + interval + 1e-9 {
            return Property::Fail(None);
        }
    }
    if report.measured_energy.joules() < 0.0
        || report.true_energy.joules() < 0.0
        || report.execution_time.seconds() <= 0.0
    {
        return Property::Fail(None);
    }
    // Energy must equal the integral of measured power over the trace.
    let sum: f64 = records.iter().map(|r| r.power.watts() * interval).sum();
    let error =
        (sum - report.measured_energy.joules()).abs() / report.measured_energy.joules().max(1e-12);
    Property::judged(error <= 1e-9, error)
}

fn finite_property(report: &RunReport) -> Property {
    let mut finite = report.execution_time.seconds().is_finite()
        && report.measured_energy.joules().is_finite()
        && report.true_energy.joules().is_finite();
    for record in report.trace.records() {
        finite = finite
            && record.time.seconds().is_finite()
            && record.power.watts().is_finite()
            && record.true_power.watts().is_finite()
            && record.ipc.is_none_or(f64::is_finite)
            && record.dpc.is_none_or(f64::is_finite);
    }
    if finite { Property::Pass(None) } else { Property::Fail(None) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{FaultSpec, OracleParams, ProgramSpec, SegmentSpec, WindowSpec};

    fn segment(name: &str, cpi: f64, activity: f64) -> SegmentSpec {
        SegmentSpec {
            name: name.to_owned(),
            instructions: 900_000_000,
            core_cpi: cpi,
            decode_ratio: 1.1,
            fp_fraction: 0.35,
            mem_fraction: 0.2,
            l1_mpi: 0.012,
            l2_mpi: 0.002,
            overlap: 0.3,
            activity,
            branch_fraction: 0.12,
            mispredict_rate: 0.02,
            prefetch_per_inst: 0.003,
        }
    }

    fn scenario(spec: GovernorSpec) -> Scenario {
        Scenario {
            name: "oracle-test".to_owned(),
            seed: 11,
            max_samples: 3000,
            governor: spec,
            program: ProgramSpec {
                name: "mixed".to_owned(),
                segments: vec![segment("hot", 0.5, 1.3), segment("cool", 1.6, 0.85)],
            },
            faults: FaultSpec::inert(),
            commands: Vec::new(),
            oracles: OracleParams::default(),
        }
    }

    /// A clean PM run passes every applicable property, and the verdict
    /// line is reproducible byte for byte.
    #[test]
    fn clean_pm_run_passes_and_renders_stably() {
        let s = scenario(GovernorSpec::Pm { limit_w: 13.5 });
        let verdict = evaluate(&s);
        assert!(verdict.failures().is_empty(), "clean run must pass: {}", verdict.render());
        let line = verdict.render();
        assert!(line.starts_with("cap=PASS(0.000000) floor=SKIP"), "got: {line}");
        assert_eq!(evaluate(&s).render(), line, "verdicts must be deterministic");
    }

    /// The floor property judges PS against the clean baseline and skips
    /// the cap property.
    #[test]
    fn power_save_run_judges_the_floor() {
        let verdict = evaluate(&scenario(GovernorSpec::Ps { floor: 0.5 }));
        let Verdict::Ran(run) = &verdict else {
            panic!("must run: {}", verdict.render())
        };
        assert_eq!(run.cap, Property::Skip);
        assert!(matches!(run.floor, Property::Pass(Some(_))), "{}", verdict.render());
    }

    /// A blackout long enough to trip the watchdog makes the liveness
    /// property applicable, and the healthy watchdog passes it.
    #[test]
    fn watchdog_blackout_exercises_liveness() {
        let mut s = scenario(GovernorSpec::Watchdog {
            inner: Box::new(GovernorSpec::Pm { limit_w: 30.0 }),
        });
        s.faults.windows.push(WindowSpec { kind: FaultKind::Blackout, start: 0.3, end: 0.9 });
        let verdict = evaluate(&s);
        let Verdict::Ran(run) = &verdict else {
            panic!("must run: {}", verdict.render())
        };
        assert!(matches!(run.liveness, Property::Pass(Some(_))), "{}", verdict.render());
        assert!(run.faults > 0, "the blackout must be counted");
    }

    /// A power-stuck window overlapping the blackout restores a (stale)
    /// power sample, so the watchdog is never blind: the liveness check
    /// must skip rather than blame the governor. Likewise stochastic
    /// actuation faults void the deadline.
    #[test]
    fn occluded_blackouts_skip_the_liveness_check() {
        let mut s = scenario(GovernorSpec::Watchdog {
            inner: Box::new(GovernorSpec::Pm { limit_w: 30.0 }),
        });
        s.faults.windows.push(WindowSpec { kind: FaultKind::Blackout, start: 0.3, end: 0.9 });
        s.faults.windows.push(WindowSpec { kind: FaultKind::PowerStuck, start: 0.25, end: 0.7 });
        let verdict = evaluate(&s);
        let Verdict::Ran(run) = &verdict else {
            panic!("must run: {}", verdict.render())
        };
        assert_eq!(run.liveness, Property::Skip, "{}", verdict.render());

        let mut s = scenario(GovernorSpec::Watchdog {
            inner: Box::new(GovernorSpec::Pm { limit_w: 30.0 }),
        });
        s.faults.windows.push(WindowSpec { kind: FaultKind::Blackout, start: 0.3, end: 0.9 });
        s.faults.config.actuation_stall_rate = 0.05;
        let verdict = evaluate(&s);
        let Verdict::Ran(run) = &verdict else {
            panic!("must run: {}", verdict.render())
        };
        assert_eq!(run.liveness, Property::Skip, "{}", verdict.render());
    }

    /// A sabotaged PM build (zero guardband) is caught by the cap
    /// property: some power limit exists where the stock build holds the
    /// cap and the zero-guardband build violates it. The guardband only
    /// matters when the model estimate lands inside it, so the test scans
    /// limits across the estimate lattice instead of picking one.
    #[test]
    fn zero_guardband_sabotage_is_caught_by_the_cap_property() {
        let mut caught = false;
        for step in 0..32 {
            let limit_w = 12.0 + 0.25 * f64::from(step);
            let mut s = scenario(GovernorSpec::Pm { limit_w });
            s.program.segments = vec![crate::generate::burst_segment(1.0)];
            let stock = evaluate(&s);
            let sabotaged = evaluate_with(&s, &build_zero_guardband);
            if !stock.failures().contains(&"cap") && sabotaged.failures().contains(&"cap") {
                caught = true;
                break;
            }
        }
        assert!(caught, "some limit must separate stock from zero-guardband PM");
    }

    /// A scenario that cannot finish within the step budget is abandoned
    /// with a wedged (liveness) verdict instead of hanging the driver: the
    /// program's instruction budget dwarfs what 2,000 simulated seconds
    /// can retire, and `max_samples` sits past the replay budget so the
    /// sample cap never rescues the run first.
    #[test]
    fn wedged_scenario_fails_fast_with_a_liveness_verdict() {
        let mut s = scenario(GovernorSpec::Unconstrained);
        let mut endless = segment("endless", 0.5, 1.0);
        endless.instructions = u64::MAX / 4;
        s.program.segments = vec![endless];
        s.max_samples = REPLAY_STEP_BUDGET + 10;
        let verdict = evaluate(&s);
        assert_eq!(verdict, Verdict::Wedged);
        assert_eq!(verdict.render(), "liveness=FAIL(wedged) budget=200000");
        assert_eq!(verdict.failures(), vec!["liveness"]);
        assert_eq!(
            verdict.universal_failures(),
            vec!["liveness"],
            "a wedged run is always a bug, never excused like cap/floor findings"
        );
    }

    /// A panicking governor becomes a verdict, not a crash.
    #[test]
    fn panicking_governor_is_caught() {
        struct Bomb;
        impl Governor for Bomb {
            fn name(&self) -> &str {
                "bomb"
            }
            fn events(&self) -> Vec<aapm_platform::events::HardwareEvent> {
                Vec::new()
            }
            fn decide(
                &mut self,
                _context: &aapm::SampleContext<'_>,
            ) -> aapm_platform::pstate::PStateId {
                panic!("boom")
            }
        }
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let verdict = evaluate_with(&scenario(GovernorSpec::Unconstrained), &|_, _| {
            Ok(Box::new(Bomb))
        });
        std::panic::set_hook(hook);
        assert_eq!(verdict, Verdict::Panicked);
        assert_eq!(verdict.render(), "panic=FAIL");
        assert_eq!(verdict.universal_failures(), vec!["panic"]);
    }
}
