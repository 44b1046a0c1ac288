//! The shared suite sweep: every benchmark under PM at each power limit,
//! under the Table-IV static clock for each limit, and under PS at every
//! floor × exponent.
//!
//! Figures 2, 6, 7, 9, 10 and 11, the PM-adherence sweep, the headline
//! claims and `efficiency` are views of this one grid of three-seed median
//! runs, and fig8 and five ablations read their reference runs from it, so
//! the suite computes it once and each of them reads it. Each benchmark
//! also runs unconstrained (the performance/energy reference) and at
//! 600 MHz (the upper bound on DVFS savings the paper sorts Figures 10/11
//! by). Limits that share a static clock share its run.

use aapm::limits::PowerLimit;
use aapm::spec::{GovernorSpec, SpecModels};
use aapm_models::perf_model::{PerfModel, PerfModelParams};
use aapm_platform::error::Result;
use aapm_platform::pstate::PStateId;
use aapm_platform::units::MegaHertz;
use aapm_workloads::spec;

use crate::context::ExperimentContext;
use crate::pool::Pool;
use crate::runner::{
    median_run_spec, pm_power_limits, ps_floors, static_frequency_for_limit,
    worst_case_power_curve,
};

/// Which eq.-3 exponent a PS run used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Exponent {
    /// The paper's primary fit, 0.81.
    Primary,
    /// The paper's alternate local minimum, 0.59.
    Alternate,
}

impl Exponent {
    /// Both exponents, primary first.
    pub const BOTH: [Exponent; 2] = [Exponent::Primary, Exponent::Alternate];

    /// The numeric exponent value.
    pub fn value(self) -> f64 {
        match self {
            Exponent::Primary => PerfModelParams::paper().exponent,
            Exponent::Alternate => PerfModelParams::paper_alternate().exponent,
        }
    }

    fn model(self) -> PerfModel {
        match self {
            Exponent::Primary => PerfModel::new(PerfModelParams::paper()),
            Exponent::Alternate => PerfModel::new(PerfModelParams::paper_alternate()),
        }
    }
}

/// One (time, energy) measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measure {
    /// Execution time in seconds.
    pub time_s: f64,
    /// Measured energy in joules.
    pub energy_j: f64,
}

/// PM and static clocking under one power limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LimitRuns {
    /// PM at the limit.
    pub pm: Measure,
    /// Fraction of PM's 100 ms windows whose mean power exceeds the limit.
    pub pm_violation: f64,
    /// The limit's Table-IV static clock.
    pub static_clock: Measure,
}

/// All measurements for one benchmark.
#[derive(Debug, Clone)]
pub struct BenchmarkSweep {
    /// Benchmark name.
    pub benchmark: String,
    /// Unconstrained 2 GHz reference.
    pub unconstrained: Measure,
    /// Static 600 MHz bound.
    pub at_600mhz: Measure,
    /// `(exponent, floor, measure)` for every grid point.
    pub ps_runs: Vec<(Exponent, f64, Measure)>,
    /// PM and static clocking at each of [`PsSweep::limits`], in order.
    pub limit_runs: Vec<LimitRuns>,
}

impl BenchmarkSweep {
    /// The PS measure for a grid point.
    pub fn ps(&self, exponent: Exponent, floor: f64) -> &Measure {
        &self
            .ps_runs
            .iter()
            .find(|(e, f, _)| *e == exponent && (*f - floor).abs() < 1e-9)
            .expect("grid point exists")
            .2
    }

    /// Performance reduction vs unconstrained at a grid point.
    pub fn reduction(&self, exponent: Exponent, floor: f64) -> f64 {
        1.0 - self.unconstrained.time_s / self.ps(exponent, floor).time_s
    }

    /// Energy savings vs unconstrained at a grid point.
    pub fn savings(&self, exponent: Exponent, floor: f64) -> f64 {
        1.0 - self.ps(exponent, floor).energy_j / self.unconstrained.energy_j
    }

    /// Maximum possible DVFS savings (600 MHz) vs unconstrained.
    pub fn max_savings(&self) -> f64 {
        1.0 - self.at_600mhz.energy_j / self.unconstrained.energy_j
    }

    /// Maximum performance reduction (600 MHz) vs unconstrained.
    pub fn max_reduction(&self) -> f64 {
        1.0 - self.unconstrained.time_s / self.at_600mhz.time_s
    }
}

/// The full sweep over the suite.
#[derive(Debug, Clone)]
pub struct PsSweep {
    /// The PM power limits ([`pm_power_limits`] order), each with the
    /// frequency of its Table-IV static clock.
    pub limits: Vec<(PowerLimit, MegaHertz)>,
    /// Per-benchmark measurements.
    pub benchmarks: Vec<BenchmarkSweep>,
}

impl PsSweep {
    /// Suite-level performance reduction at a grid point (total-time based,
    /// as in the paper's Figure 9).
    pub fn suite_reduction(&self, exponent: Exponent, floor: f64) -> f64 {
        let t_ref: f64 = self.benchmarks.iter().map(|b| b.unconstrained.time_s).sum();
        let t_ps: f64 = self.benchmarks.iter().map(|b| b.ps(exponent, floor).time_s).sum();
        1.0 - t_ref / t_ps
    }

    /// Suite-level energy savings at a grid point.
    pub fn suite_savings(&self, exponent: Exponent, floor: f64) -> f64 {
        let e_ref: f64 = self.benchmarks.iter().map(|b| b.unconstrained.energy_j).sum();
        let e_ps: f64 = self.benchmarks.iter().map(|b| b.ps(exponent, floor).energy_j).sum();
        1.0 - e_ps / e_ref
    }

    /// One benchmark's sweep, by name.
    pub fn benchmark(&self, name: &str) -> Option<&BenchmarkSweep> {
        self.benchmarks.iter().find(|b| b.benchmark == name)
    }

    /// The index into [`limits`](Self::limits), and so into every
    /// [`BenchmarkSweep::limit_runs`], of the limit of `watts`.
    pub(crate) fn limit_index(&self, watts: f64) -> Option<usize> {
        self.limits.iter().position(|(limit, _)| (limit.watts().watts() - watts).abs() < 1e-9)
    }

    /// The index of the first limit whose Table-IV static clock runs at
    /// `mhz`.
    pub(crate) fn clock_index(&self, mhz: u32) -> Option<usize> {
        self.limits.iter().position(|(_, clock)| clock.mhz() == mhz)
    }
}

fn measure_of(report: &aapm::report::RunReport) -> Measure {
    Measure {
        time_s: report.execution_time.seconds(),
        energy_j: report.measured_energy.joules(),
    }
}

/// Computes the full sweep: the worst-case power curve first, then one
/// pool cell per benchmark.
///
/// # Errors
///
/// Propagates platform errors.
pub fn compute(ctx: &ExperimentContext, pool: &Pool) -> Result<PsSweep> {
    let curve = worst_case_power_curve(pool, ctx.table())?;
    let clocks: Vec<(PowerLimit, PStateId)> = pm_power_limits()
        .into_iter()
        .map(|limit| (limit, static_frequency_for_limit(&curve, ctx.table(), limit)))
        .collect();
    let models = ctx.spec_models();
    let (models_ref, clocks_ref) = (&models, &clocks);
    // Each cell runs its benchmark's whole grid, so the merged sweep keeps
    // the suite's benchmark order.
    let cells: Vec<_> = spec::suite()
        .into_iter()
        .map(|bench| {
            move || -> Result<BenchmarkSweep> {
                let run = |spec: &GovernorSpec, models: &SpecModels| {
                    median_run_spec(pool, spec, models, bench.program(), ctx.table())
                };
                let unconstrained = measure_of(&run(&GovernorSpec::Unconstrained, models_ref)?);
                let low = GovernorSpec::StaticClock { pstate: ctx.table().lowest().index() };
                let at_600mhz = measure_of(&run(&low, models_ref)?);
                let mut ps_runs = Vec::new();
                for exponent in Exponent::BOTH {
                    // The exponent under test rides in through the model
                    // set; the spec itself stays the plain PS entry.
                    let exp_models =
                        SpecModels { power: models_ref.power.clone(), perf: exponent.model() };
                    for floor in ps_floors() {
                        let report = run(&GovernorSpec::Ps { floor }, &exp_models)?;
                        ps_runs.push((exponent, floor, measure_of(&report)));
                    }
                }
                let mut statics: Vec<(PStateId, Measure)> = Vec::new();
                let mut limit_runs = Vec::new();
                for &(limit, pstate) in clocks_ref {
                    let pm = run(&GovernorSpec::Pm { limit_w: limit.watts().watts() }, models_ref)?;
                    let static_clock = match statics.iter().find(|(id, _)| *id == pstate) {
                        Some(&(_, measure)) => measure,
                        None => {
                            let spec = GovernorSpec::StaticClock { pstate: pstate.index() };
                            let measure = measure_of(&run(&spec, models_ref)?);
                            statics.push((pstate, measure));
                            measure
                        }
                    };
                    limit_runs.push(LimitRuns {
                        pm: measure_of(&pm),
                        pm_violation: pm.violation_fraction(limit.watts(), 10),
                        static_clock,
                    });
                }
                Ok(BenchmarkSweep {
                    benchmark: bench.name().to_owned(),
                    unconstrained,
                    at_600mhz,
                    ps_runs,
                    limit_runs,
                })
            }
        })
        .collect();
    let benchmarks = pool.run(cells).into_iter().collect::<Result<Vec<_>>>()?;
    let limits = clocks
        .iter()
        .map(|&(limit, pstate)| Ok((limit, ctx.table().get(pstate)?.frequency())))
        .collect::<Result<Vec<_>>>()?;
    Ok(PsSweep { limits, benchmarks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::test_sweep;

    #[test]
    fn sweep_covers_grid() {
        let sweep = test_sweep();
        assert_eq!(sweep.benchmarks.len(), 26);
        assert_eq!(sweep.limits.len(), 8);
        for b in &sweep.benchmarks {
            assert_eq!(b.ps_runs.len(), 8, "{}: 2 exponents × 4 floors", b.benchmark);
            assert_eq!(b.limit_runs.len(), sweep.limits.len(), "{}: one per limit", b.benchmark);
            assert!(b.unconstrained.time_s > 0.0);
            assert!(b.at_600mhz.time_s > b.unconstrained.time_s);
        }
    }

    #[test]
    fn savings_bounded_by_600mhz_bound() {
        let sweep = test_sweep();
        for b in &sweep.benchmarks {
            for exponent in Exponent::BOTH {
                for floor in [0.8, 0.6, 0.4, 0.2] {
                    let s = b.savings(exponent, floor);
                    assert!(
                        s <= b.max_savings() + 0.03,
                        "{}: floor {floor} saves {s} beyond the bound {}",
                        b.benchmark,
                        b.max_savings()
                    );
                }
            }
        }
    }

    #[test]
    fn lower_floors_save_no_less_energy() {
        let sweep = test_sweep();
        for exponent in Exponent::BOTH {
            let mut last = -1.0;
            for floor in [0.8, 0.6, 0.4, 0.2] {
                let s = sweep.suite_savings(exponent, floor);
                assert!(s >= last - 0.01, "floor {floor}: {s} < {last}");
                last = s;
            }
        }
    }
}
