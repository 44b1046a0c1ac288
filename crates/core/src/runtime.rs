//! The simulation runtime: machine + telemetry + governor, wired together.
//!
//! Reproduces the paper's software stack: a user-level controller reads the
//! PMC driver every 10 ms, consults its models, and writes the DVFS MSRs.
//! The external DAQ samples power on the same cadence (it ran at 333 kS/s in
//! the paper — far faster than needed for 10 ms averages).
//!
//! The single entry point is [`Session::builder`]: faults, scheduled
//! commands, and an observability handle are all optional builder calls,
//! and [`Session::step`] exposes the control loop one interval at a time
//! so a future scheduler can interleave many sessions.
//!
//! The interval pipeline itself is the crate-private `NodeLoop`, which
//! runs around a tick it does not own: a session ticks its own machine
//! between the loop's two halves, and the fleet controller
//! ([`crate::cluster::FleetPmController`]) runs the same halves on each
//! fleet lane after the fleet's batch sweep has ticked it.
//!
//! Sessions are generic over the [`WorkloadSource`] they drive. A batch
//! source (a [`PhaseProgram`](aapm_platform::program::PhaseProgram)) runs
//! to completion; an open-loop source keeps its machine's request queue
//! fed — the node loop queues the arrivals for each upcoming interval
//! before the tick, drains a
//! [`QueueSample`](aapm_platform::requests::QueueSample) afterwards, and
//! shows it to the governor ([`SampleContext::queue`]) and the metrics
//! registry (`queue.depth` gauge, `request.sojourn_s` histogram).

use aapm_platform::config::MachineConfig;
use aapm_platform::error::{PlatformError, Result};
use aapm_platform::machine::Machine;
use aapm_platform::pstate::{PStateId, PStateTable};
use aapm_platform::requests::Request;
use aapm_platform::units::{Joules, Seconds, Watts};
use aapm_platform::workload::WorkloadSource;
use aapm_telemetry::daq::{DaqConfig, PowerDaq, PowerSample};
use aapm_telemetry::faults::{
    ActuationFault, FaultConfig, FaultPlan, FaultStats, FaultWindow, PowerFault,
};
use aapm_telemetry::metrics::{Counter, EventKind, Gauge, Histogram, Metrics};
use aapm_telemetry::pmc::{CounterSample, PmcDriver};
use aapm_telemetry::sensor::{ThermalSensor, ThermalSensorConfig};
use aapm_telemetry::trace::RunTrace;

use crate::governor::{Governor, GovernorCommand, SampleContext};
use crate::layer::GovernorLayer;
use crate::report::{RequestSummary, RunReport};
use crate::spec::{GovernorSpec, SpecModels};

/// Configuration of a governed run.
#[derive(Debug, Clone, Copy)]
pub struct SimulationConfig {
    /// Sampling/control interval (paper: 10 ms).
    pub sample_interval: Seconds,
    /// Power-measurement chain configuration.
    pub daq: DaqConfig,
    /// On-die thermal-sensor configuration.
    pub thermal_sensor: ThermalSensorConfig,
    /// Seed for DAQ noise (machine noise comes from [`MachineConfig`]).
    pub seed: u64,
    /// Safety cap on control intervals (runaway protection).
    pub max_samples: usize,
    /// Stochastic fault injection (default: all-zero rates, provably
    /// inert — a run with the default config is bit-identical to one
    /// without fault plumbing).
    pub faults: FaultConfig,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            sample_interval: Seconds::from_millis(10.0),
            daq: DaqConfig::default(),
            thermal_sensor: ThermalSensorConfig::default(),
            seed: 0,
            max_samples: 500_000, // 5 000 simulated seconds
            faults: FaultConfig::default(),
        }
    }
}

/// A command delivered to the governor at a scheduled time — the
/// reproduction of the paper's "PM can receive a new power limit at any
/// instant" Unix-signal interface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledCommand {
    /// Simulated time at which the command fires.
    pub at: Seconds,
    /// The command.
    pub command: GovernorCommand,
}

/// The wire name of a command for event records.
fn command_name(command: GovernorCommand) -> &'static str {
    match command {
        GovernorCommand::SetPowerLimit(_) => "set_power_limit",
        GovernorCommand::SetPerformanceFloor(_) => "set_performance_floor",
        GovernorCommand::SetPowerCoefficients(..) => "set_power_coefficients",
    }
}

/// How a session holds its governor: borrowed from the caller (the common
/// case — the caller keeps the governor to inspect its state afterwards)
/// or owned (built from a [`GovernorSpec`]). A transparent layer: the
/// blanket [`GovernorLayer`] impl forwards the whole surface to it.
enum GovernorSlot<'a> {
    Borrowed(&'a mut dyn Governor),
    Owned(Box<dyn Governor>),
}

impl GovernorLayer for GovernorSlot<'_> {
    fn layer_name(&self) -> &str {
        self.inner_governor().name()
    }

    fn inner_governor(&self) -> &dyn Governor {
        match self {
            GovernorSlot::Borrowed(g) => &**g,
            GovernorSlot::Owned(g) => &**g,
        }
    }

    fn inner_governor_mut(&mut self) -> &mut dyn Governor {
        match self {
            GovernorSlot::Borrowed(g) => &mut **g,
            GovernorSlot::Owned(g) => &mut **g,
        }
    }
}

/// One node's Monitor → Estimate → Control loop, run around a machine tick
/// it does not own. Before the tick, [`before_tick`](NodeLoop::before_tick)
/// delivers due commands and queues the caller's arrival window; after it,
/// [`after_tick`](NodeLoop::after_tick) runs queue sample → fault plan →
/// DAQ → thermal sensor → PMC → decide/throttle → actuator.
///
/// [`Session`] is one machine plus one loop; the fleet controller
/// ([`crate::cluster::FleetPmController`]) is one loop per fleet lane.
/// The loop never clones the p-state table: callers pass theirs in.
pub(crate) struct NodeLoop<G> {
    /// The governor deciding for this node.
    pub(crate) governor: G,
    /// The open-loop source feeding the node's queue (`None` for batch
    /// work or when the caller queues arrivals itself).
    pub(crate) source: Option<Box<dyn WorkloadSource>>,
    /// Scratch buffer for each interval's arrivals (reused across steps).
    arrivals: Vec<Request>,
    daq: PowerDaq,
    pmc: PmcDriver,
    thermal: ThermalSensor,
    plan: FaultPlan,
    /// A stalled p-state write still in flight: `(target, intervals until
    /// it lands)`.
    stalled_write: Option<(PStateId, usize)>,
    stats: FaultStats,
    metrics: Metrics,
    /// Scheduled commands, stable-sorted by `at`.
    commands: Vec<ScheduledCommand>,
    next_command: usize,
    /// The most recent power reading actually delivered to the governor;
    /// a stuck reading repeats this value.
    last_delivered: Option<Watts>,
}

impl<G: Governor> std::fmt::Debug for NodeLoop<G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeLoop").field("governor", &self.governor.name()).finish_non_exhaustive()
    }
}

impl<G: Governor> NodeLoop<G> {
    /// Installs `metrics` into `governor` and builds the node's telemetry
    /// chain: DAQ and thermal sensor seeded from `config.seed` and a PMC
    /// driver for the governor's events. `plan` injects the faults.
    pub(crate) fn new(
        mut governor: G,
        config: &SimulationConfig,
        plan: FaultPlan,
        mut commands: Vec<ScheduledCommand>,
        metrics: Metrics,
    ) -> Self {
        governor.install_metrics(metrics.clone());
        commands.sort_by(|a, b| a.at.seconds().total_cmp(&b.at.seconds()));
        NodeLoop {
            pmc: PmcDriver::new(governor.events()),
            governor,
            source: None,
            arrivals: Vec::new(),
            daq: PowerDaq::new(config.daq, config.seed),
            thermal: ThermalSensor::new(config.thermal_sensor, config.seed),
            plan,
            stalled_write: None,
            stats: FaultStats::default(),
            metrics,
            commands,
            next_command: 0,
            last_delivered: None,
        }
    }

    /// Before the tick: delivers every command due by the interval start
    /// (the machine's clock, delivery contract on [`Session::step`]), then
    /// queues the source's arrivals in `[start, end)`. Windows must abut
    /// exactly (`end` = next `start`), so every arrival is offered once.
    pub(crate) fn before_tick(&mut self, machine: &mut Machine, start: Seconds, end: Seconds) {
        let now = machine.elapsed();
        while self.next_command < self.commands.len() && self.commands[self.next_command].at <= now
        {
            let command = self.commands[self.next_command].command;
            self.governor.command(command);
            self.metrics.inc(Counter::RuntimeCommandsDelivered);
            self.metrics.event(now, EventKind::CommandDelivered { command: command_name(command) });
            self.next_command += 1;
        }
        if let Some(source) = &mut self.source {
            source.arrivals_into(start, end, &mut self.arrivals);
            for request in self.arrivals.drain(..) {
                machine.offer_request(request);
            }
        }
    }

    /// After the tick: drains the interval's queue sample, draws its
    /// faults, samples the DAQ, thermal sensor and PMC, asks the governor
    /// for the next p-state and throttle, and actuates them. `current` is
    /// the p-state the interval ran at and `interval` its nominal length.
    /// Returns the DAQ's raw sample and the counter sample the governor
    /// saw.
    ///
    /// # Errors
    ///
    /// Propagates real platform errors (invalid p-states from a
    /// misbehaving governor). Injected actuation losses are absorbed into
    /// the loop's [`FaultStats`] instead.
    pub(crate) fn after_tick(
        &mut self,
        machine: &mut Machine,
        table: &PStateTable,
        current: PStateId,
        interval: Seconds,
    ) -> Result<(PowerSample, CounterSample)> {
        let now = machine.elapsed();
        let queue = machine.take_queue_sample();
        if let Some(sample) = &queue {
            self.metrics.gauge(Gauge::QueueDepth, sample.depth as f64);
            for &sojourn in &sample.sojourns {
                self.metrics.observe(Histogram::RequestSojournS, sojourn);
            }
        }
        let faults = self.plan.next_interval(now);

        // The DAQ and thermal sensor are sampled unconditionally so their
        // noise streams stay aligned with a fault-free run; faults corrupt
        // only what the governor is shown.
        let power = self.daq.sample(machine);
        let temperature = self.thermal.read(machine);
        let counters = if faults.pmc_missed {
            self.stats.pmc_missed += 1;
            self.metrics.inc(Counter::FaultPmcMissed);
            self.metrics.event(now, EventKind::FaultInjected { kind: "pmc_missed" });
            self.pmc.sample_missed(machine, interval)
        } else {
            self.pmc.sample(machine)
        };

        let shown_power: Option<PowerSample> = match faults.power {
            PowerFault::Intact => {
                self.last_delivered = Some(power.power);
                Some(power)
            }
            PowerFault::Dropped => {
                self.stats.power_dropouts += 1;
                self.metrics.inc(Counter::FaultPowerDropped);
                self.metrics.event(now, EventKind::FaultInjected { kind: "power_dropped" });
                None
            }
            PowerFault::Stuck => match self.last_delivered {
                // Stuck at the last delivered value, stamped with the
                // current interval.
                Some(prev) => {
                    self.stats.power_stuck += 1;
                    self.metrics.inc(Counter::FaultPowerStuck);
                    self.metrics.event(now, EventKind::FaultInjected { kind: "power_stuck" });
                    Some(PowerSample { power: prev, ..power })
                }
                // Nothing to be stuck at yet: indistinguishable from a
                // normal delivery.
                None => {
                    self.last_delivered = Some(power.power);
                    Some(power)
                }
            },
        };
        let shown_temperature = if faults.thermal_dropped {
            self.stats.thermal_dropouts += 1;
            self.metrics.inc(Counter::FaultThermalDropped);
            self.metrics.event(now, EventKind::FaultInjected { kind: "thermal_dropped" });
            None
        } else {
            Some(temperature)
        };

        let ctx = SampleContext {
            counters: &counters,
            power: shown_power.as_ref(),
            temperature: shown_temperature,
            current,
            table,
            queue: queue.as_ref(),
        };
        let target = self.governor.decide(&ctx);
        let throttle = self.governor.throttle_decision(&ctx);
        self.metrics.inc(Counter::RuntimeIntervals);
        if target != current {
            self.metrics.inc(Counter::RuntimePstateChanges);
            self.metrics
                .event(now, EventKind::Decision { from: current.index(), to: target.index() });
        }

        self.actuate(machine, target, faults.actuation, now)?;
        machine.set_throttle(throttle);
        Ok((power, counters))
    }

    /// The p-state actuator with injected write faults layered on top,
    /// modelling an MSR-write path: first lands a stalled write that has
    /// come due, then applies `target` under `fault`. An ignored write is
    /// retried in-interval up to the configured limit; on exhaustion the
    /// loss is absorbed (counted in [`FaultStats::actuation_failures`]) and
    /// the machine keeps its p-state — the governor simply tries again
    /// next interval. A stalled write lands `stall_intervals` intervals
    /// later unless an intact write supersedes it, exactly as a later MSR
    /// write overrides an earlier one.
    ///
    /// # Errors
    ///
    /// Propagates real platform errors (e.g. an out-of-range p-state).
    fn actuate(
        &mut self,
        machine: &mut Machine,
        target: PStateId,
        fault: ActuationFault,
        now: Seconds,
    ) -> Result<()> {
        if let Some((stalled, remaining)) = self.stalled_write.take() {
            if remaining <= 1 {
                machine.set_pstate(stalled)?;
            } else {
                self.stalled_write = Some((stalled, remaining - 1));
            }
        }
        let config = *self.plan.config();
        match fault {
            ActuationFault::Intact => {
                self.stalled_write = None;
                machine.set_pstate(target)
            }
            ActuationFault::Stalled => {
                let intervals = config.stall_intervals.max(1);
                self.stats.actuations_stalled += 1;
                self.metrics.inc(Counter::ActuatorStalled);
                self.metrics.event(now, EventKind::ActuatorStalled { intervals: intervals as u64 });
                self.stalled_write = Some((target, intervals));
                Ok(())
            }
            ActuationFault::Ignored => {
                self.stats.actuations_ignored += 1;
                self.metrics.inc(Counter::ActuatorIgnored);
                self.metrics.event(now, EventKind::ActuatorIgnored { attempt: 1 });
                for retry in 0..config.retry_limit {
                    if !self.plan.retry_fails(now) {
                        self.stalled_write = None;
                        self.metrics.inc(Counter::ActuatorRecoveries);
                        self.metrics.event(
                            now,
                            EventKind::ActuatorRecovered { attempts: retry as u64 + 2 },
                        );
                        return machine.set_pstate(target);
                    }
                    self.stats.actuations_ignored += 1;
                    self.metrics.inc(Counter::ActuatorIgnored);
                    self.metrics
                        .event(now, EventKind::ActuatorIgnored { attempt: retry as u64 + 2 });
                }
                self.stats.actuation_failures += 1;
                self.metrics.inc(Counter::ActuatorFailures);
                let attempts = config.retry_limit as u64 + 1;
                self.metrics.event(now, EventKind::ActuationFailed { attempts });
                Ok(())
            }
        }
    }
}

/// What [`Session::step`] reports after an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// The program has intervals left to run.
    Running,
    /// The program completed or the sample cap was reached; further
    /// `step()` calls are no-ops.
    Finished,
}

impl SessionStatus {
    /// Whether the session has intervals left to run.
    pub fn is_running(self) -> bool {
        matches!(self, SessionStatus::Running)
    }

    /// Whether the session is done stepping.
    pub fn is_finished(self) -> bool {
        matches!(self, SessionStatus::Finished)
    }
}

/// Builder for a [`Session`]. Obtained from [`Session::builder`]; every
/// call except a governor is optional.
#[must_use = "a SessionBuilder does nothing until build() or run()"]
pub struct SessionBuilder<'a> {
    machine_config: MachineConfig,
    source: Box<dyn WorkloadSource>,
    config: SimulationConfig,
    governor: Option<GovernorSlot<'a>>,
    commands: Vec<ScheduledCommand>,
    fault_windows: Vec<FaultWindow>,
    metrics: Metrics,
}

impl<'a> SessionBuilder<'a> {
    /// Sets the simulation configuration (default: [`SimulationConfig::default`]).
    pub fn config(mut self, config: SimulationConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs under a borrowed governor; the caller keeps it and can inspect
    /// its state after the run.
    pub fn governor<'b>(self, governor: &'b mut dyn Governor) -> SessionBuilder<'b>
    where
        'a: 'b,
    {
        let SessionBuilder {
            machine_config, source, config, commands, fault_windows, metrics, ..
        } = self;
        SessionBuilder {
            machine_config,
            source,
            config,
            governor: Some(GovernorSlot::Borrowed(governor)),
            commands,
            fault_windows,
            metrics,
        }
    }

    /// Runs under an owned (boxed) governor.
    pub fn governor_boxed(mut self, governor: Box<dyn Governor>) -> Self {
        self.governor = Some(GovernorSlot::Owned(governor));
        self
    }

    /// Builds the governor from a [`GovernorSpec`] against `models` and
    /// runs under it.
    ///
    /// # Errors
    ///
    /// Propagates spec parameter validation ([`GovernorSpec::build`]).
    pub fn governor_spec(self, spec: &GovernorSpec, models: &SpecModels) -> Result<Self> {
        Ok(self.governor_boxed(spec.build(models)?))
    }

    /// Schedules mid-run governor commands (delivery contract on
    /// [`Session::step`]).
    pub fn commands(mut self, commands: &[ScheduledCommand]) -> Self {
        self.commands = commands.to_vec();
        self
    }

    /// Adds deterministic fault windows on top of the stochastic rates in
    /// [`SimulationConfig::faults`].
    pub fn faults(mut self, fault_windows: &[FaultWindow]) -> Self {
        self.fault_windows = fault_windows.to_vec();
        self
    }

    /// Installs an observability handle: it is cloned into the governor
    /// chain and the runtime emits structured events (decisions, hold
    /// windows, actuator retries/stalls, injected faults, command
    /// deliveries) stamped with *simulated* time, plus counters for each.
    /// A disabled handle (the default) is free; an enabled one must not
    /// perturb the simulation either — recording is observation-only
    /// (DESIGN.md §9).
    pub fn observer(mut self, metrics: &Metrics) -> Self {
        self.metrics = metrics.clone();
        self
    }

    /// Validates the configuration and constructs the session's machine,
    /// telemetry chain, and fault plan.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidConfig`] when no governor was set,
    /// for non-finite scheduled command times, or for invalid fault
    /// rates/windows.
    pub fn build(self) -> Result<Session<'a>> {
        let SessionBuilder {
            machine_config, source, config, governor, commands, fault_windows, metrics,
        } = self;
        let Some(governor) = governor else {
            return Err(PlatformError::InvalidConfig {
                parameter: "governor",
                reason: "a session needs a governor: call .governor(), \
                         .governor_boxed(), or .governor_spec()"
                    .to_owned(),
            });
        };
        for command in &commands {
            if !command.at.seconds().is_finite() {
                return Err(PlatformError::InvalidConfig {
                    parameter: "commands",
                    reason: format!(
                        "scheduled command time {} must be finite",
                        command.at.seconds()
                    ),
                });
            }
        }
        let plan = FaultPlan::with_windows(config.faults, &fault_windows)?;

        let workload = source.name().to_owned();
        let table = machine_config.pstates().clone();
        let machine = source.machine(machine_config);
        if source.open_loop() && !machine.is_serving() {
            return Err(PlatformError::InvalidConfig {
                parameter: "source",
                reason: format!(
                    "open-loop workload '{workload}' must build a serve-mode machine"
                ),
            });
        }
        let mut node = NodeLoop::new(governor, &config, plan, commands, metrics);
        node.source = source.open_loop().then_some(source);

        Ok(Session {
            config,
            node,
            machine,
            trace: RunTrace::new(config.sample_interval),
            table,
            workload,
            samples: 0,
        })
    }

    /// Convenience: [`build`](SessionBuilder::build) then
    /// [`Session::run`].
    ///
    /// # Errors
    ///
    /// As [`SessionBuilder::build`] and [`Session::step`].
    pub fn run(self) -> Result<(RunReport, FaultStats)> {
        self.build()?.run()
    }
}

/// One governed run in progress: the machine, the telemetry chain, and the
/// governor, advanced one 10 ms control interval per [`step`](Session::step).
///
/// Degradation semantics under injected faults, per interval:
///
/// * dropped power sample → the governor sees `power: None`;
/// * stuck power sample → the governor sees the last delivered value;
/// * dropped thermal read → the governor sees `temperature: None`;
/// * missed PMC read → the governor sees a rate-extrapolated stale sample
///   ([`CounterSample::is_fresh`] is false) and the driver integrates the
///   gap on its next successful read;
/// * ignored p-state write → retried in-interval up to the configured
///   limit; on exhaustion the error is absorbed (counted in
///   [`FaultStats::actuation_failures`]) and the machine keeps its p-state —
///   the governor simply tries again next interval;
/// * stalled p-state write → lands `stall_intervals` intervals later unless
///   a subsequent intact write supersedes it.
///
/// The trace always records the DAQ's raw sample (the experimenter's
/// logging path), not the governor's possibly-corrupted view.
///
/// [`CounterSample::is_fresh`]: aapm_telemetry::pmc::CounterSample::is_fresh
///
/// # Examples
///
/// ```
/// use aapm::baselines::Unconstrained;
/// use aapm::runtime::Session;
/// use aapm_platform::config::MachineConfig;
/// use aapm_platform::phase::PhaseDescriptor;
/// use aapm_platform::program::PhaseProgram;
///
/// let phase = PhaseDescriptor::builder("w").instructions(50_000_000).build()?;
/// let mut governor = Unconstrained::new();
/// let (report, faults) = Session::builder(
///     MachineConfig::pentium_m_755(1),
///     PhaseProgram::from_phase(phase),
/// )
/// .governor(&mut governor)
/// .run()?;
/// assert!(report.completed);
/// assert_eq!(faults.power_dropouts, 0);
/// # Ok::<(), aapm_platform::error::PlatformError>(())
/// ```
#[must_use = "a Session does nothing until stepped or run"]
pub struct Session<'a> {
    config: SimulationConfig,
    node: NodeLoop<GovernorSlot<'a>>,
    machine: Machine,
    trace: RunTrace,
    table: PStateTable,
    workload: String,
    samples: usize,
}

impl<'a> Session<'a> {
    /// Starts configuring a run of `source` on `machine_config`.
    ///
    /// Any [`WorkloadSource`] works: a
    /// [`PhaseProgram`](aapm_platform::program::PhaseProgram) runs as a
    /// batch job to completion, an open-loop request workload (e.g.
    /// `aapm_workloads::RequestWorkload`) runs as a server until the
    /// sample cap.
    pub fn builder(
        machine_config: MachineConfig,
        source: impl WorkloadSource + 'static,
    ) -> SessionBuilder<'a> {
        SessionBuilder {
            machine_config,
            source: Box::new(source),
            config: SimulationConfig::default(),
            governor: None,
            commands: Vec::new(),
            fault_windows: Vec::new(),
            metrics: Metrics::disabled(),
        }
    }

    /// Executes one control interval: delivers due commands, ticks the
    /// machine, samples the telemetry chain, asks the governor for the
    /// next p-state and throttle, and actuates them.
    ///
    /// Scheduled-command delivery contract: commands are stable-sorted by
    /// `at`, so two commands with the same `at` are delivered in their
    /// submission order (the later one in the slice wins any conflict). A
    /// command is delivered at the start of the first control interval
    /// whose start time is ≥ `at`; in particular a command at `t = 0` (or
    /// any non-positive time) reaches the governor before the very first
    /// sample is decided.
    ///
    /// Calling `step` after the session finished is a no-op returning
    /// [`SessionStatus::Finished`].
    ///
    /// # Errors
    ///
    /// Propagates real platform errors (invalid p-states from a
    /// misbehaving governor). Injected actuation losses are absorbed into
    /// the session's [`FaultStats`] instead.
    pub fn step(&mut self) -> Result<SessionStatus> {
        if self.done() {
            return Ok(SessionStatus::Finished);
        }
        let interval = self.config.sample_interval;
        let start = self.machine.elapsed();
        self.node.before_tick(&mut self.machine, start, start + interval);
        let interval_pstate = self.machine.pstate();
        self.machine.tick(interval);
        let (power, counters) =
            self.node.after_tick(&mut self.machine, &self.table, interval_pstate, interval)?;
        self.trace.push_sample(&power, interval_pstate, counters.ipc(), counters.dpc());
        self.samples += 1;
        Ok(if self.done() { SessionStatus::Finished } else { SessionStatus::Running })
    }

    /// Whether the program completed or the sample cap was reached.
    fn done(&self) -> bool {
        self.machine.finished() || self.samples >= self.config.max_samples
    }

    /// Steps until finished, then produces the report.
    ///
    /// # Errors
    ///
    /// As [`Session::step`].
    pub fn run(mut self) -> Result<(RunReport, FaultStats)> {
        while self.step()?.is_running() {}
        Ok(self.finish())
    }

    /// Consumes the session and produces the run report plus the fault
    /// statistics accumulated so far.
    pub fn finish(self) -> (RunReport, FaultStats) {
        let completed = self.machine.finished();
        let execution_time =
            self.machine.completion_time().unwrap_or_else(|| self.machine.elapsed());
        let requests = self.machine.queue().map(|queue| {
            let done = queue.completed();
            RequestSummary {
                arrived: queue.arrived(),
                completed: done,
                pending: queue.pending() as u64,
                energy_per_request: if done > 0 {
                    Joules::new(self.machine.true_energy().joules() / done as f64)
                } else {
                    Joules::new(0.0)
                },
                mean_sojourn: if done > 0 {
                    Seconds::new(queue.total_sojourn() / done as f64)
                } else {
                    Seconds::new(0.0)
                },
            }
        });
        if let Some(summary) = &requests {
            let metrics = &self.node.metrics;
            metrics.gauge(Gauge::ServeRequestsArrived, summary.arrived as f64);
            metrics.gauge(Gauge::ServeRequestsCompleted, summary.completed as f64);
            metrics.gauge(Gauge::ServeRequestsPending, summary.pending as f64);
            metrics.gauge(Gauge::ServeEnergyPerRequestJ, summary.energy_per_request.joules());
        }
        let report = RunReport {
            workload: self.workload,
            governor: self.node.governor.name().to_owned(),
            execution_time,
            measured_energy: self.trace.measured_energy(),
            true_energy: self.machine.true_energy(),
            transitions: self.machine.transitions_performed(),
            completed,
            trace: self.trace,
            metrics: self.node.metrics.snapshot(),
            requests,
        };
        (report, self.node.stats)
    }

    /// Simulated time elapsed so far.
    pub fn elapsed(&self) -> Seconds {
        self.machine.elapsed()
    }

    /// The machine's current p-state.
    pub fn pstate(&self) -> PStateId {
        self.machine.pstate()
    }

    /// Control intervals executed so far.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Whether the program has completed.
    pub fn finished(&self) -> bool {
        self.machine.finished()
    }

    /// The run trace accumulated so far (one record per executed interval).
    pub fn trace(&self) -> &RunTrace {
        &self.trace
    }

    /// The governor's report name.
    pub fn governor_name(&self) -> &str {
        self.node.governor.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{StaticClock, Unconstrained};
    use crate::governor::GovernorCommand;
    use crate::limits::PowerLimit;
    use crate::pm::PerformanceMaximizer;
    use aapm_models::power_model::PowerModel;
    use aapm_platform::phase::PhaseDescriptor;
    use aapm_platform::program::PhaseProgram;
    use aapm_platform::pstate::PStateId;

    fn program(instructions: u64) -> PhaseProgram {
        let phase = PhaseDescriptor::builder("test-load")
            .instructions(instructions)
            .core_cpi(0.8)
            .decode_ratio(1.2)
            .mispredict_rate(0.0)
            .build()
            .unwrap();
        PhaseProgram::from_phase(phase)
    }

    fn quiet_machine(seed: u64) -> MachineConfig {
        let mut b = MachineConfig::builder();
        b.execution_variation(0.0).seed(seed);
        b.build().unwrap()
    }

    /// Plain run: builder with a borrowed governor, default config.
    fn run_plain(
        governor: &mut dyn Governor,
        machine_config: MachineConfig,
        program: PhaseProgram,
        config: SimulationConfig,
        commands: &[ScheduledCommand],
    ) -> RunReport {
        Session::builder(machine_config, program)
            .config(config)
            .governor(governor)
            .commands(commands)
            .run()
            .unwrap()
            .0
    }

    #[test]
    fn unconstrained_run_completes_at_top_speed() {
        // 1G instructions at CPI 0.8 → 0.4 s at 2 GHz.
        let report = run_plain(
            &mut Unconstrained::new(),
            quiet_machine(1),
            program(1_000_000_000),
            SimulationConfig::default(),
            &[],
        );
        assert!(report.completed);
        assert!((report.execution_time.seconds() - 0.4).abs() < 0.02, "{}", report.execution_time);
        assert!(report.measured_energy.joules() > 0.0);
        assert_eq!(report.governor, "unconstrained");
    }

    #[test]
    fn static_clock_run_is_slower_and_cheaper() {
        let fast = run_plain(
            &mut Unconstrained::new(),
            quiet_machine(1),
            program(1_000_000_000),
            SimulationConfig::default(),
            &[],
        );
        let slow = run_plain(
            &mut StaticClock::new(PStateId::new(0)),
            quiet_machine(1),
            program(1_000_000_000),
            SimulationConfig::default(),
            &[],
        );
        assert!(slow.execution_time > fast.execution_time);
        assert!(slow.true_energy < fast.true_energy);
    }

    #[test]
    fn measured_and_true_energy_agree_with_ideal_daq() {
        let config = SimulationConfig { daq: DaqConfig::ideal(), ..SimulationConfig::default() };
        let report = run_plain(
            &mut Unconstrained::new(),
            quiet_machine(1),
            program(500_000_000),
            config,
            &[],
        );
        let ratio = report.measured_energy.joules() / report.true_energy.joules();
        // The final tick's idle tail is included in measured samples, so
        // allow a small discrepancy.
        assert!((ratio - 1.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn scheduled_command_changes_behaviour_mid_run() {
        // PM with a generous limit, tightened hard at t = 0.2 s.
        let model = PowerModel::paper_table_ii();
        let mut pm = PerformanceMaximizer::new(model, PowerLimit::new(30.0).unwrap());
        let commands = [ScheduledCommand {
            at: Seconds::new(0.2),
            command: GovernorCommand::SetPowerLimit(PowerLimit::new(6.0).unwrap()),
        }];
        let config = SimulationConfig::default();
        let report =
            run_plain(&mut pm, quiet_machine(1), program(1_000_000_000), config, &commands);
        assert!(report.completed);
        // Early samples run at the top p-state; after the command the
        // governor must drop several states. The "late" probe sits 50 ms
        // past the command, expressed in control intervals so the test
        // tracks the configured cadence rather than assuming 10 ms.
        let early = &report.trace.records()[..15];
        let late_start = (0.25 / config.sample_interval.seconds()).round() as usize;
        let late = &report.trace.records()[late_start..late_start + 15];
        assert!(early.iter().all(|r| r.pstate == PStateId::new(7)));
        assert!(late.iter().all(|r| r.pstate < PStateId::new(5)), "limit 6 W forces low states");
        // And the run takes longer than unconstrained would.
        assert!(report.execution_time.seconds() > 0.4);
    }

    #[test]
    fn trace_interval_matches_config() {
        let report = run_plain(
            &mut Unconstrained::new(),
            quiet_machine(1),
            program(100_000_000),
            SimulationConfig::default(),
            &[],
        );
        assert_eq!(report.trace.interval(), Seconds::from_millis(10.0));
        assert!(!report.trace.is_empty());
    }

    #[test]
    fn runs_are_reproducible_with_same_seeds() {
        let a = run_plain(
            &mut Unconstrained::new(),
            quiet_machine(9),
            program(300_000_000),
            SimulationConfig::default(),
            &[],
        );
        let b = run_plain(
            &mut Unconstrained::new(),
            quiet_machine(9),
            program(300_000_000),
            SimulationConfig::default(),
            &[],
        );
        assert_eq!(a.execution_time, b.execution_time);
        assert_eq!(a.measured_energy, b.measured_energy);
        assert_eq!(a.trace, b.trace);
    }

    /// step() exposes the same run one interval at a time: stepping until
    /// Finished produces the identical trace, and the incremental
    /// accessors track the run.
    #[test]
    fn stepped_session_matches_run_and_exposes_progress() {
        let whole = run_plain(
            &mut Unconstrained::new(),
            quiet_machine(5),
            program(300_000_000),
            SimulationConfig::default(),
            &[],
        );
        let mut governor = Unconstrained::new();
        let mut session = Session::builder(quiet_machine(5), program(300_000_000))
            .governor(&mut governor)
            .build()
            .unwrap();
        assert_eq!(session.samples(), 0);
        assert!(!session.finished());
        assert_eq!(session.governor_name(), "unconstrained");
        let mut steps = 0usize;
        while session.step().unwrap().is_running() {
            steps += 1;
            assert_eq!(session.samples(), steps);
            assert_eq!(session.trace().len(), steps);
        }
        assert!(session.finished());
        // A step after Finished is a no-op.
        let samples_at_finish = session.samples();
        assert_eq!(session.step().unwrap(), SessionStatus::Finished);
        assert_eq!(session.samples(), samples_at_finish);
        let (report, _) = session.finish();
        assert_eq!(report.trace, whole.trace);
        assert_eq!(report.execution_time, whole.execution_time);
    }

    #[test]
    fn builder_without_governor_is_rejected() {
        let result = Session::builder(quiet_machine(1), program(1_000_000)).build();
        assert!(matches!(
            result,
            Err(PlatformError::InvalidConfig { parameter: "governor", .. })
        ));
    }

    #[test]
    fn governor_spec_builds_and_runs() {
        use crate::spec::{GovernorSpec, SpecModels};
        let report = Session::builder(quiet_machine(1), program(200_000_000))
            .governor_spec(&GovernorSpec::Pm { limit_w: 12.5 }, &SpecModels::default())
            .unwrap()
            .run()
            .unwrap()
            .0;
        assert!(report.completed);
        assert_eq!(report.governor, "pm");
    }

    fn limited_pm(watts: f64) -> PerformanceMaximizer {
        PerformanceMaximizer::new(PowerModel::paper_table_ii(), PowerLimit::new(watts).unwrap())
    }

    fn set_limit(at: f64, watts: f64) -> ScheduledCommand {
        ScheduledCommand {
            at: Seconds::new(at),
            command: GovernorCommand::SetPowerLimit(PowerLimit::new(watts).unwrap()),
        }
    }

    fn pm_trace(commands: &[ScheduledCommand]) -> RunTrace {
        run_plain(
            &mut limited_pm(30.0),
            quiet_machine(1),
            program(1_000_000_000),
            SimulationConfig::default(),
            commands,
        )
        .trace
    }

    /// Two commands with the same `at`: submission order is preserved, so
    /// the later one in the slice is delivered last and wins.
    #[test]
    fn same_instant_commands_deliver_in_submission_order() {
        let loose_then_tight = pm_trace(&[set_limit(0.2, 30.0), set_limit(0.2, 6.0)]);
        let tight_then_loose = pm_trace(&[set_limit(0.2, 6.0), set_limit(0.2, 30.0)]);
        let probe = (0.3 / 0.01) as usize;
        assert!(
            loose_then_tight.records()[probe].pstate < PStateId::new(5),
            "6 W delivered last must pin low states"
        );
        assert_eq!(
            tight_then_loose.records()[probe].pstate,
            PStateId::new(7),
            "30 W delivered last must restore the top state"
        );
    }

    /// Commands supplied out of order are stable-sorted by `at`, so the
    /// run is identical to one given the same commands pre-sorted.
    #[test]
    fn out_of_order_commands_match_sorted_delivery() {
        let sorted = pm_trace(&[set_limit(0.1, 25.0), set_limit(0.3, 6.0)]);
        let shuffled = pm_trace(&[set_limit(0.3, 6.0), set_limit(0.1, 25.0)]);
        assert_eq!(sorted, shuffled);
    }

    /// A command at t = 0 reaches the governor before the first decision,
    /// so the second interval already runs at the commanded limit.
    #[test]
    fn command_at_time_zero_lands_before_first_decision() {
        let unlimited = pm_trace(&[]);
        let capped = pm_trace(&[set_limit(0.0, 6.0)]);
        assert_eq!(unlimited.records()[1].pstate, PStateId::new(7));
        assert!(
            capped.records()[1].pstate < PStateId::new(5),
            "t=0 command must shape the very first decision"
        );
    }

    /// An enabled metrics registry must not perturb the simulation: the
    /// trace is bit-identical with and without it, and the snapshot counts
    /// what actually happened.
    #[test]
    fn metrics_registry_does_not_perturb_the_run() {
        let faults = FaultConfig {
            pmc_missed_rate: 0.05,
            actuation_ignored_rate: 0.05,
            seed: 7,
            ..FaultConfig::default()
        };
        let config = SimulationConfig { faults, ..SimulationConfig::default() };
        let run_once = |metrics: &Metrics| {
            Session::builder(quiet_machine(3), program(500_000_000))
                .config(config)
                .governor_boxed(Box::new(limited_pm(12.0)))
                .commands(&[set_limit(0.1, 8.0)])
                .observer(metrics)
                .run()
                .unwrap()
        };
        let (plain, plain_stats) = run_once(&Metrics::disabled());
        let metrics = Metrics::enabled();
        let (observed, observed_stats) = run_once(&metrics);

        assert_eq!(plain.trace, observed.trace);
        assert_eq!(plain.execution_time, observed.execution_time);
        assert_eq!(plain_stats, observed_stats);
        assert!(plain.metrics.is_empty(), "disabled handle records nothing");

        let snapshot = &observed.metrics;
        assert_eq!(snapshot.counter("runtime.intervals"), observed.trace.len() as u64);
        assert_eq!(snapshot.counter("fault.pmc_missed"), observed_stats.pmc_missed);
        assert_eq!(snapshot.counter("runtime.commands_delivered"), 1);
        assert!(snapshot.counter("runtime.pstate_changes") > 0);
    }

    /// A fixed-rate open-loop source for runtime tests: one 2 M-instruction
    /// request every 2 ms (service ≈ 0.8 ms at the top p-state, so the
    /// queue keeps up at full frequency). The integer cursor makes window
    /// stitching exact: each arrival is emitted in the first window whose
    /// (floating-point) end lies past it, never twice.
    #[derive(Default)]
    struct ScriptedServe {
        next_k: u64,
    }

    impl WorkloadSource for ScriptedServe {
        fn name(&self) -> &str {
            "scripted-serve"
        }

        fn machine(&self, config: MachineConfig) -> Machine {
            let service = PhaseDescriptor::builder("service")
                .instructions(2_000_000)
                .core_cpi(0.8)
                .decode_ratio(1.2)
                .mispredict_rate(0.0)
                .build()
                .unwrap();
            Machine::server(config, service)
        }

        fn arrivals_into(&mut self, _start: Seconds, end: Seconds, out: &mut Vec<Request>) {
            const SPACING: f64 = 0.002;
            loop {
                let t = self.next_k as f64 * SPACING;
                if t >= end.seconds() {
                    break;
                }
                out.push(Request::new(Seconds::new(t), 2_000_000.0));
                self.next_k += 1;
            }
        }

        fn open_loop(&self) -> bool {
            true
        }
    }

    #[test]
    fn serve_session_runs_to_cap_and_reports_request_accounting() {
        let metrics = Metrics::enabled();
        let config = SimulationConfig { max_samples: 100, ..SimulationConfig::default() };
        let (report, _) = Session::builder(quiet_machine(2), ScriptedServe::default())
            .config(config)
            .governor_boxed(Box::new(Unconstrained::new()))
            .observer(&metrics)
            .run()
            .unwrap();
        assert_eq!(report.workload, "scripted-serve");
        assert!(!report.completed, "an open-loop server never finishes");
        assert_eq!(report.trace.len(), 100, "runs to the sample cap");
        let summary = report.requests.expect("serve runs report request accounting");
        // 1 s of arrivals at 500 rps starting at t = 0; whether the t = 1 s
        // arrival lands depends on the floating-point end of the final
        // window, so allow both.
        assert!((500..=501).contains(&summary.arrived), "arrived {}", summary.arrived);
        assert!(summary.completed > 0 && summary.completed <= summary.arrived);
        assert!(summary.energy_per_request.joules() > 0.0);
        assert!(summary.mean_sojourn.seconds() > 0.0);
        // The sojourn histogram has one observation per completion and the
        // end-of-run gauges mirror the summary.
        let sojourns = report.metrics.histogram("request.sojourn_s").unwrap();
        assert_eq!(sojourns.count, summary.completed);
        assert_eq!(
            report.metrics.gauge("serve.requests_arrived"),
            Some(summary.arrived as f64)
        );
        assert_eq!(
            report.metrics.gauge("serve.requests_completed"),
            Some(summary.completed as f64)
        );
        assert_eq!(
            report.metrics.gauge("serve.energy_per_request_j"),
            Some(summary.energy_per_request.joules())
        );
        assert!(report.metrics.gauge("queue.depth").is_some());
    }

    /// Serve sessions show the governor a queue sample every interval;
    /// batch sessions show `None` — same contract as missing power or
    /// thermal telemetry.
    #[test]
    fn governor_sees_queue_sample_only_on_serve_runs() {
        #[derive(Default)]
        struct QueueProbe {
            with_queue: usize,
            without_queue: usize,
        }
        impl Governor for QueueProbe {
            fn name(&self) -> &str {
                "queue-probe"
            }
            fn events(&self) -> Vec<aapm_platform::events::HardwareEvent> {
                Vec::new()
            }
            fn decide(&mut self, ctx: &SampleContext<'_>) -> PStateId {
                match ctx.queue {
                    Some(_) => self.with_queue += 1,
                    None => self.without_queue += 1,
                }
                ctx.current
            }
        }

        let config = SimulationConfig { max_samples: 20, ..SimulationConfig::default() };
        let mut probe = QueueProbe::default();
        Session::builder(quiet_machine(2), ScriptedServe::default())
            .config(config)
            .governor(&mut probe)
            .run()
            .unwrap();
        assert_eq!(probe.with_queue, 20);
        assert_eq!(probe.without_queue, 0);

        let mut probe = QueueProbe::default();
        Session::builder(quiet_machine(2), program(50_000_000))
            .governor(&mut probe)
            .run()
            .unwrap();
        assert_eq!(probe.with_queue, 0);
        assert!(probe.without_queue > 0);
    }

    /// Same seeds, same source → bit-identical serve runs (the trace and
    /// the request accounting both).
    #[test]
    fn serve_runs_are_reproducible_with_same_seeds() {
        let run_once = || {
            let config = SimulationConfig { max_samples: 50, ..SimulationConfig::default() };
            Session::builder(quiet_machine(4), ScriptedServe::default())
                .config(config)
                .governor_boxed(Box::new(Unconstrained::new()))
                .run()
                .unwrap()
                .0
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.true_energy, b.true_energy);
    }

    #[test]
    fn sample_cap_prevents_runaway() {
        let config = SimulationConfig { max_samples: 10, ..SimulationConfig::default() };
        let report = run_plain(
            &mut StaticClock::new(PStateId::new(0)),
            quiet_machine(1),
            program(u64::MAX / 4),
            config,
            &[],
        );
        assert!(!report.completed);
        assert_eq!(report.trace.len(), 10);
    }

    /// There is one control loop: a one-node fleet stepped every 10 ms
    /// under a uniform PM cap and a PM session at the same cap, on the same
    /// machine seed and program over the same horizon, end bit-identical.
    #[test]
    fn one_node_fleet_and_pm_session_step_the_same_loop() {
        use crate::cluster::FleetPmController;
        use aapm_platform::fleet::{CohortMode, Fleet};

        const CAP_W: f64 = 11.0;
        const HORIZON: u64 = 400;
        let compute = PhaseDescriptor::builder("compute")
            .instructions(2_000_000_000)
            .core_cpi(0.7)
            .build()
            .unwrap();
        let memory = PhaseDescriptor::builder("memory")
            .instructions(20_000_000_000)
            .core_cpi(1.1)
            .mem_fraction(0.5)
            .l1_mpi(0.04)
            .l2_mpi(0.005)
            .build()
            .unwrap();
        let program = PhaseProgram::new("two-phase", vec![compute, memory]).unwrap();
        let (model, table) = (PowerModel::paper_table_ii(), PStateTable::pentium_m_755());

        let mut fleet = Fleet::new(Seconds::from_millis(10.0));
        let node = Machine::new(MachineConfig::pentium_m_755(3), program.clone());
        fleet.add_cohort(vec![node], CohortMode::Governed { cadence_ticks: 1 }).unwrap();
        let mut controller = FleetPmController::uniform(table, &model, vec![CAP_W]).unwrap();
        fleet.run_des(HORIZON, 0, &mut controller).unwrap();

        let mut pm = limited_pm(CAP_W);
        let config =
            SimulationConfig { max_samples: HORIZON as usize, ..SimulationConfig::default() };
        let mut session = Session::builder(MachineConfig::pentium_m_755(3), program)
            .config(config)
            .governor(&mut pm)
            .build()
            .unwrap();
        while session.step().unwrap().is_running() {}

        let lane = fleet.machine(0, 0);
        let machine = &session.machine;
        assert!(!machine.finished(), "the horizon ends before the program");
        assert!(machine.transitions_performed() > 1, "PM must move the p-state");
        assert_eq!(fleet.energy(0, 0).joules().to_bits(), machine.true_energy().joules().to_bits());
        assert_eq!(fleet.elapsed(0, 0).seconds().to_bits(), machine.elapsed().seconds().to_bits());
        assert_eq!(fleet.counter_snapshot(0, 0), machine.counter_snapshot());
        assert_eq!(lane.transitions_performed(), machine.transitions_performed());
        assert_eq!(lane.pstate(), machine.pstate());
    }
}
