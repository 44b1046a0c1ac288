//! `serve-day`: the serve experiment's 86.4 s diurnal day with a 3×
//! lunchtime burst, under three governor arms — `slo-save`, a static cap
//! at 14.5 W and `uncapped` — each wrapped in the arm-independent
//! `SloMeter` at 75 ms. Traffic is open-loop in simulated time; each day
//! is one unit, run to the day's sample cap.
//!
//! Set-up per round: the worst-case power curve that picks the static
//! arm's p-state. Checks per day: request conservation and finite energy.

use std::rc::Rc;
use std::time::Instant;

use aapm::baselines::{StaticClock, Unconstrained};
use aapm::governor::Governor;
use aapm::limits::PowerLimit;
use aapm::slo_save::{SloSave, SloSaveConfig};
use aapm_experiments::runner::{sim_seed, static_frequency_for_limit, worst_case_power_curve};
use aapm_experiments::serve::{
    SloMeter, BASE_RPS, BURST_END_S, BURST_MULTIPLIER, BURST_START_S, DAY_S, MAX_SAMPLES, PEAK_RPS,
    SLO_GUARDBAND, SLO_MS, STATIC_LIMIT_W,
};
use aapm_experiments::Pool;
use aapm_platform::config::MachineConfig;
use aapm_platform::error::Result;
use aapm_platform::pstate::{PStateId, PStateTable};
use aapm_platform::units::Seconds;
use aapm_telemetry::metrics::Metrics;
use aapm_workloads::requests::RequestWorkload;

use crate::decorators::{decide_span, Source, Timed};
use crate::probe::{run_case, Case};
use crate::stats::derive_seed;
use crate::{trace, Bench, Pass, Size};

/// Day seeds per round (each runs under every arm).
const SEEDS_PER_ROUND: usize = 9;

#[derive(Debug, Clone, Copy)]
enum Arm {
    SloSave,
    StaticCap,
    Uncapped,
}

const ARMS: [Arm; 3] = [Arm::SloSave, Arm::StaticCap, Arm::Uncapped];

impl Arm {
    fn kind(self) -> &'static str {
        match self {
            Arm::SloSave => "slo-save",
            Arm::StaticCap => "static-clock",
            Arm::Uncapped => "unconstrained",
        }
    }

    /// The serve experiment's arm governor.
    fn governor(self, static_pstate: PStateId) -> Result<Box<dyn Governor>> {
        Ok(match self {
            Arm::SloSave => Box::new(SloSave::with_config(
                Seconds::from_millis(SLO_MS * SLO_GUARDBAND),
                SloSaveConfig {
                    window_sojourns: 64,
                    settle_intervals: 100,
                    step_down_margin: 0.5,
                    hold_samples: 50,
                },
            )?),
            Arm::StaticCap => Box::new(StaticClock::new(static_pstate)),
            Arm::Uncapped => Box::new(Unconstrained::new()),
        })
    }
}

/// The serve experiment's seeded day.
fn day(seed: u64) -> Result<RequestWorkload> {
    RequestWorkload::builder("front-end")
        .seed(seed)
        .day(Seconds::new(DAY_S))
        .rates(BASE_RPS, PEAK_RPS)
        .burst(
            Seconds::new(BURST_START_S),
            Seconds::new(BURST_END_S),
            BURST_MULTIPLIER,
        )
        .build()
}

pub(crate) struct ServeDay {
    size: Size,
    table: PStateTable,
    static_pstate: PStateId,
    seeds: Vec<u64>,
}

impl ServeDay {
    pub(crate) fn new(size: Size) -> Self {
        ServeDay {
            size,
            table: PStateTable::pentium_m_755(),
            static_pstate: PStateId::new(0),
            seeds: Vec::new(),
        }
    }

    /// One arm's day. Traced, the arm's governor is timed inside the
    /// meter and the meter outside it, so the meter's self time shows.
    fn case(&self, arm: Arm, seed: u64, traced: bool, max_samples: usize) -> Result<Case> {
        let machine = {
            let mut b = MachineConfig::builder();
            b.pstates(self.table.clone()).seed(seed);
            b.build()?
        };
        let static_pstate = self.static_pstate;
        let governor = Rc::new(move || -> Result<Box<dyn Governor>> {
            let mut inner = arm.governor(static_pstate)?;
            if traced {
                inner = Box::new(Timed::new(decide_span(arm.kind()), inner));
            }
            let meter = Box::new(SloMeter::new(inner, Seconds::from_millis(SLO_MS)));
            Ok(if traced {
                Box::new(Timed::new("experiments.slo_meter", meter))
            } else {
                meter
            })
        });
        Ok(Case::new(
            machine,
            Source::Serve(Box::new(day(seed)?)),
            governor,
            sim_seed(seed),
            max_samples,
            PEAK_RPS * BURST_MULTIPLIER,
        ))
    }
}

impl Bench for ServeDay {
    fn setup(&mut self, seed: u64) -> Result<()> {
        let curve = worst_case_power_curve(&Pool::new(1), &self.table)?;
        self.static_pstate =
            static_frequency_for_limit(&curve, &self.table, PowerLimit::new(STATIC_LIMIT_W)?);
        let seeds = match self.size {
            Size::Full => SEEDS_PER_ROUND,
            Size::Tiny => 1,
        };
        self.seeds = (0..seeds as u64).map(|i| derive_seed(seed, i)).collect();
        Ok(())
    }

    fn pass(&mut self, _round: usize, traced: bool) -> Result<Pass> {
        let mut pass = Pass::default();
        for (index, &seed) in self.seeds.iter().enumerate() {
            for (a, arm) in ARMS.into_iter().enumerate() {
                trace::set_unit((index * ARMS.len() + a) as u64);
                let t = Instant::now();
                let ran = self
                    .case(arm, seed, traced, MAX_SAMPLES)
                    .and_then(|case| run_case(&case, &Metrics::disabled()));
                pass.unit_ns.push(t.elapsed().as_nanos() as u64);
                pass.attempted += 1;
                let (report, _) = match ran {
                    Ok(run) => run,
                    Err(e) => {
                        pass.fail(format!("{} day {seed}: {e}", arm.kind()));
                        continue;
                    }
                };
                let Some(requests) = report.requests else {
                    pass.fail(format!("{} day {seed}: no request accounting", arm.kind()));
                    continue;
                };
                let energy = report.true_energy.joules();
                if requests.arrived != requests.completed + requests.pending
                    || !(energy.is_finite() && energy > 0.0)
                {
                    pass.fail(format!(
                        "{} day {seed}: arrived {} != completed {} + pending {}, or energy {energy}",
                        arm.kind(),
                        requests.arrived,
                        requests.completed,
                        requests.pending
                    ));
                }
                let d = &mut pass.digest;
                d.u64(requests.arrived);
                d.u64(requests.completed);
                d.u64(requests.pending);
                d.f64(energy);
                d.f64(report.measured_energy.joules());
                d.u64(report.transitions);
                pass.sim_s += report.trace.len() as f64 * report.trace.interval().seconds();
                pass.sessions += 1;
                pass.intervals += report.trace.len() as u64;
                pass.requests += requests.completed;
            }
        }
        Ok(pass)
    }

    fn probe_cases(&self) -> Result<Vec<Case>> {
        let max_samples = match self.size {
            Size::Full => MAX_SAMPLES,
            Size::Tiny => 1_000,
        };
        ARMS.into_iter()
            .map(|arm| self.case(arm, self.seeds[0], true, max_samples))
            .collect()
    }
}
