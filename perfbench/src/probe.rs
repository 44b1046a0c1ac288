//! Governed sessions, run as-is or replayed stage by stage.
//!
//! [`run_case`] runs a real [`Session`] and, when tracing, spans its build
//! and every step. [`replay`] is the pipeline probe: it rebuilds
//! `Session::step`'s stage order from public parts — arrivals, tick, fault
//! plan, DAQ, thermal sensor, PMC, decide, `set_pstate` — with a span
//! around each stage. With an inert fault plan the replay reproduces the
//! session bit for bit; under faults it skips the actuator's stall and
//! retry emulation, so it stays a timing probe only.

use std::rc::Rc;

use aapm::governor::{Governor, SampleContext};
use aapm::report::RunReport;
use aapm::runtime::{ScheduledCommand, Session, SimulationConfig};
use aapm_platform::config::MachineConfig;
use aapm_platform::error::Result;
use aapm_platform::workload::WorkloadSource;
use aapm_telemetry::daq::{PowerDaq, PowerSample};
use aapm_telemetry::faults::{ActuationFault, FaultPlan, FaultStats, FaultWindow, PowerFault};
use aapm_telemetry::metrics::Metrics;
use aapm_telemetry::pmc::PmcDriver;
use aapm_telemetry::sensor::ThermalSensor;

use crate::decorators::{Source, TimedSource};
use crate::trace;

/// Builds a fresh governor stack for one run.
pub type GovernorFactory = Rc<dyn Fn() -> Result<Box<dyn Governor>>>;

/// One governed session's inputs.
#[derive(Clone)]
pub struct Case {
    /// Machine configuration (seed included).
    pub machine: MachineConfig,
    /// The work it executes.
    pub source: Source,
    /// Builds the governor (a timed stack when the caller traces).
    pub governor: GovernorFactory,
    /// Simulation configuration (DAQ seed, sample cap, fault rates).
    pub sim: SimulationConfig,
    /// Scheduled governor commands.
    pub commands: Vec<ScheduledCommand>,
    /// Scheduled fault windows.
    pub windows: Vec<FaultWindow>,
    /// The source's thinning envelope in requests per second (0 for a
    /// batch program).
    pub envelope_rps: f64,
}

impl Case {
    /// A fault-free case with the default simulation settings but `seed`
    /// and `max_samples`.
    pub fn new(
        machine: MachineConfig,
        source: Source,
        governor: GovernorFactory,
        seed: u64,
        max_samples: usize,
        envelope_rps: f64,
    ) -> Self {
        Case {
            machine,
            source,
            governor,
            sim: SimulationConfig {
                seed,
                max_samples,
                ..SimulationConfig::default()
            },
            commands: Vec::new(),
            windows: Vec::new(),
            envelope_rps,
        }
    }
}

/// The simulated outcome the replay must reproduce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Ground-truth energy, joules.
    pub true_energy_j: f64,
    /// P-state transitions performed.
    pub transitions: u64,
    /// `(arrived, completed, pending)` for open-loop runs.
    pub requests: Option<(u64, u64, u64)>,
    /// Control intervals executed.
    pub intervals: usize,
}

impl Outcome {
    /// The outcome of a finished session.
    pub fn of(report: &RunReport) -> Self {
        Outcome {
            true_energy_j: report.true_energy.joules(),
            transitions: report.transitions,
            requests: report.requests.map(|r| (r.arrived, r.completed, r.pending)),
            intervals: report.trace.len(),
        }
    }
}

/// Runs `case` as a real session with `metrics` installed. Under a tracer
/// the build and each step are spanned (`core.build`, `core.step`),
/// arrivals are timed, and the run's transitions and simulated seconds are
/// tallied.
///
/// # Errors
///
/// As [`Session::step`] and the builder.
pub fn run_case(case: &Case, metrics: &Metrics) -> Result<(RunReport, FaultStats)> {
    let governor = (case.governor)()?;
    let source = TimedSource::new(case.source.clone(), case.envelope_rps);
    let mut session = {
        let _span = trace::span("core.build");
        Session::builder(case.machine.clone(), source)
            .config(case.sim)
            .governor_boxed(governor)
            .commands(&case.commands)
            .faults(&case.windows)
            .observer(metrics)
            .build()?
    };
    loop {
        let status = {
            let _span = trace::span("core.step");
            session.step()?
        };
        if status.is_finished() {
            let (report, stats) = session.finish();
            trace::tally("platform.transitions", report.transitions as f64);
            trace::tally(
                "platform.sim_s",
                report.trace.len() as f64 * case.sim.sample_interval.seconds(),
            );
            return Ok((report, stats));
        }
    }
}

/// Span names of the replayed stages, whose summed time is the probe's
/// account of one interval.
pub const STAGES: [&str; 9] = [
    "probe.arrivals",
    "platform.tick",
    "platform.tick_serve",
    "telemetry.faults",
    "telemetry.daq",
    "telemetry.thermal",
    "telemetry.pmc",
    "probe.decide",
    "platform.set_pstate",
];

/// Replays `case` stage by stage in `Session::step`'s order, spanning each
/// stage (see [`STAGES`]).
///
/// # Errors
///
/// Propagates fault-plan validation and platform errors.
pub fn replay(case: &Case) -> Result<Outcome> {
    let sim = &case.sim;
    let mut governor = (case.governor)()?;
    governor.install_metrics(Metrics::disabled());
    let mut plan = FaultPlan::with_windows(sim.faults, &case.windows)?;
    let mut source = case.source.clone();
    let open_loop = source.open_loop();
    let table = case.machine.pstates().clone();
    let mut machine = source.machine(case.machine.clone());
    let mut daq = PowerDaq::new(sim.daq, sim.seed);
    let mut pmc = PmcDriver::new(governor.events());
    let mut thermal = ThermalSensor::new(sim.thermal_sensor, sim.seed);
    let mut commands = case.commands.clone();
    commands.sort_by(|a, b| a.at.seconds().total_cmp(&b.at.seconds()));
    let mut next_command = 0;
    let mut last_delivered: Option<PowerSample> = None;
    let mut arrivals = Vec::new();
    let mut intervals = 0;
    let tick_stage = if machine.is_serving() {
        "platform.tick_serve"
    } else {
        "platform.tick"
    };

    while !machine.finished() && intervals < sim.max_samples {
        while next_command < commands.len() && commands[next_command].at <= machine.elapsed() {
            governor.command(commands[next_command].command);
            next_command += 1;
        }
        if open_loop {
            let _span = trace::span("probe.arrivals");
            let start = machine.elapsed();
            arrivals.clear();
            source.arrivals_into(start, start + sim.sample_interval, &mut arrivals);
            for request in arrivals.drain(..) {
                machine.offer_request(request);
            }
        }
        let interval_pstate = machine.pstate();
        let queue = {
            let _span = trace::span(tick_stage);
            machine.tick(sim.sample_interval);
            machine.take_queue_sample()
        };
        let now = machine.elapsed();
        let faults = {
            let _span = trace::span("telemetry.faults");
            plan.next_interval(now)
        };
        let power = {
            let _span = trace::span("telemetry.daq");
            daq.sample(&machine)
        };
        let temperature = {
            let _span = trace::span("telemetry.thermal");
            thermal.read(&machine)
        };
        let counters = {
            let _span = trace::span("telemetry.pmc");
            if faults.pmc_missed {
                pmc.sample_missed(&machine, sim.sample_interval)
            } else {
                pmc.sample(&machine)
            }
        };
        let shown_power = match (faults.power, last_delivered) {
            (PowerFault::Dropped, _) => None,
            (PowerFault::Stuck, Some(prev)) => Some(PowerSample {
                power: prev.power,
                ..power
            }),
            (PowerFault::Intact | PowerFault::Stuck, _) => {
                last_delivered = Some(power);
                Some(power)
            }
        };
        let ctx = SampleContext {
            counters: &counters,
            power: shown_power.as_ref(),
            temperature: (!faults.thermal_dropped).then_some(temperature),
            current: interval_pstate,
            table: &table,
            queue: queue.as_ref(),
        };
        let (target, throttle) = {
            let _span = trace::span("probe.decide");
            (governor.decide(&ctx), governor.throttle_decision(&ctx))
        };
        {
            let _span = trace::span("platform.set_pstate");
            if faults.actuation == ActuationFault::Intact {
                machine.set_pstate(target)?;
            }
            machine.set_throttle(throttle);
        }
        intervals += 1;
    }
    trace::tally("probe.intervals", intervals as f64);
    Ok(Outcome {
        true_energy_j: machine.true_energy().joules(),
        transitions: machine.transitions_performed(),
        requests: machine
            .queue()
            .map(|q| (q.arrived(), q.completed(), q.pending() as u64)),
        intervals,
    })
}
