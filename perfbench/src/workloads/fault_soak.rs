//! `fault-soak`: adversarial scenarios drawn by
//! `aapm_fuzz::generate::draw_scenarios`, each one a governed session under
//! its drawn fault plan and command stream, with every registry stack in
//! the draw and metrics recording on. Same interval pipeline as the paper
//! suite, plus faults, actuator retries and recording; session set-up is a
//! large share of each short unit.
//!
//! Set-up per round: the scenario draw. Checks per scenario: no error or
//! panic, `runtime.intervals` equal to the trace length, and every fault
//! counter equal to the session's `FaultStats`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

use aapm::runtime::SimulationConfig;
use aapm::spec::SpecModels;
use aapm_fuzz::generate::draw_scenarios;
use aapm_fuzz::scenario::{CommandSpec, Scenario};
use aapm_platform::config::MachineConfig;
use aapm_platform::error::Result;
use aapm_telemetry::metrics::Metrics;

use crate::decorators::{timed_stack, Source};
use crate::probe::{run_case, Case};
use crate::{trace, Bench, Pass, Size};

/// Scenarios drawn per round.
const SCENARIOS_PER_ROUND: usize = 50_000;

/// Scenarios the probe replays.
const PROBE_SCENARIOS: usize = 32;

pub(crate) struct FaultSoak {
    size: Size,
    scenarios: Vec<Scenario>,
}

impl FaultSoak {
    pub(crate) fn new(size: Size) -> Self {
        FaultSoak {
            size,
            scenarios: Vec::new(),
        }
    }
}

/// The session a scenario describes, as the fuzz oracle runs it.
fn case(scenario: &Scenario, traced: bool) -> Result<Case> {
    let program = scenario.program.build()?;
    let commands = scenario
        .commands
        .iter()
        .map(CommandSpec::command)
        .collect::<Result<_>>()?;
    let spec = scenario.governor.clone();
    let models = SpecModels::default();
    Ok(Case {
        machine: MachineConfig::pentium_m_755(scenario.seed),
        source: Source::Batch(program),
        governor: Rc::new(move || {
            if traced {
                timed_stack(&spec, &models)
            } else {
                spec.build(&models)
            }
        }),
        sim: SimulationConfig {
            seed: scenario.seed,
            max_samples: scenario.max_samples,
            faults: scenario.faults.config,
            ..SimulationConfig::default()
        },
        commands,
        windows: scenario.faults.fault_windows(),
        envelope_rps: 0.0,
    })
}

impl Bench for FaultSoak {
    fn setup(&mut self, seed: u64) -> Result<()> {
        let count = match self.size {
            Size::Full => SCENARIOS_PER_ROUND,
            Size::Tiny => 100,
        };
        let _span = trace::span_items("fuzz.draw", count as u64);
        self.scenarios = draw_scenarios(seed, count);
        Ok(())
    }

    fn pass(&mut self, _round: usize, traced: bool) -> Result<Pass> {
        let mut pass = Pass::default();
        for (index, scenario) in self.scenarios.iter().enumerate() {
            trace::set_unit(index as u64);
            let t = Instant::now();
            let ran = catch_unwind(AssertUnwindSafe(|| {
                run_case(&case(scenario, traced)?, &Metrics::enabled())
            }));
            pass.unit_ns.push(t.elapsed().as_nanos() as u64);
            pass.attempted += 1;
            let (report, stats) = match ran {
                Err(_) => {
                    pass.fail(format!("{}: panicked", scenario.name));
                    continue;
                }
                Ok(Err(e)) => {
                    pass.fail(format!("{}: {e}", scenario.name));
                    continue;
                }
                Ok(Ok(run)) => run,
            };
            let intervals = report.trace.len() as u64;
            for (counter, expected) in [
                ("runtime.intervals", intervals),
                ("fault.pmc_missed", stats.pmc_missed),
                ("fault.power_dropped", stats.power_dropouts),
                ("fault.power_stuck", stats.power_stuck),
                ("fault.thermal_dropped", stats.thermal_dropouts),
                ("actuator.stalled", stats.actuations_stalled),
                ("actuator.ignored", stats.actuations_ignored),
                ("actuator.failures", stats.actuation_failures),
            ] {
                let recorded = report.metrics.counter(counter);
                if recorded != expected {
                    pass.fail(format!(
                        "{}: {counter} = {recorded}, expected {expected}",
                        scenario.name
                    ));
                }
            }
            let d = &mut pass.digest;
            d.u64(intervals);
            d.u64(report.transitions);
            d.f64(report.measured_energy.joules());
            d.f64(report.true_energy.joules());
            d.u64(stats.telemetry_losses());
            d.u64(stats.actuation_faults());
            d.u64(stats.actuation_failures);
            pass.sim_s += intervals as f64 * report.trace.interval().seconds();
            pass.sessions += 1;
            pass.intervals += intervals;
        }
        Ok(pass)
    }

    fn probe_cases(&self) -> Result<Vec<Case>> {
        let count = match self.size {
            Size::Full => PROBE_SCENARIOS,
            Size::Tiny => 8,
        };
        self.scenarios
            .iter()
            .take(count)
            .map(|s| case(s, true))
            .collect()
    }
}
