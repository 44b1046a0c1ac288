//! Ablation studies on the design choices the paper calls out.
//!
//! * **Guardband** (paper uses 0.5 W): violation rate and performance as
//!   the guardband varies — the safety/performance trade.
//! * **Raise window** (paper: lower immediately, raise after 10 agreeing
//!   samples): violations vs responsiveness on bursty galgel.
//! * **Measured-power feedback** (paper's future-work sketch): the
//!   [`aapm::feedback::FeedbackPm`] variant vs plain PM on galgel.
//! * **Demand-based switching**: the related-work baseline saves nothing at
//!   full load, motivating PS.
//!
//! The feedback and DBS studies read plain PM and the unconstrained
//! reference from the shared suite sweep ([`ps_sweep`](crate::ps_sweep))
//! and run only the governor they study.

use aapm::governor::Governor;
use aapm::limits::PowerLimit;
use aapm::pm::{PerformanceMaximizer, PmConfig};
use aapm::spec::GovernorSpec;
use aapm_platform::error::Result;
use aapm_platform::units::Watts;
use aapm_workloads::spec;

use crate::context::ExperimentContext;
use crate::output::ExperimentOutput;
use crate::pool::Pool;
use crate::ps_sweep::PsSweep;
// The guardband and raise-window sweeps tune `PmConfig` fields the spec
// grammar deliberately does not expose, so they keep the closure-based
// `median_run`; everything spec-expressible goes through `median_run_spec`.
use crate::runner::{median_run, median_run_spec};
use crate::table::{f3, pct, TextTable};

/// The limit used by the galgel-focused ablations: the paper's worst case.
pub const GALGEL_LIMIT_W: f64 = 13.5;

/// Guardband sweep on galgel (the hardest workload) at 13.5 W.
///
/// # Errors
///
/// Propagates platform errors.
pub fn guardband(ctx: &ExperimentContext, pool: &Pool) -> Result<ExperimentOutput> {
    let mut out = ExperimentOutput::new(
        "ablation-guardband",
        "PM guardband sweep on galgel at 13.5 W (paper uses 0.5 W)",
    );
    let galgel = spec::by_name("galgel").expect("galgel in suite");
    let limit = PowerLimit::new(GALGEL_LIMIT_W).expect("valid limit");
    let mut table = TextTable::new(vec!["guardband_w", "violations", "time_s"]);
    let guardbands = [0.0, 0.25, 0.5, 1.0, 2.0];
    let galgel_ref = &galgel;
    let cells: Vec<_> = guardbands
        .into_iter()
        .map(|guardband| {
            move || -> Result<(f64, f64)> {
                let config =
                    PmConfig { guardband: Watts::new(guardband), ..PmConfig::default() };
                let factory = || {
                    Box::new(PerformanceMaximizer::with_config(
                        ctx.power_model().clone(),
                        limit,
                        config,
                    )) as Box<dyn Governor>
                };
                let infix = format!("-gb{guardband}");
                let report = median_run(pool, &infix, &factory, galgel_ref.program(), ctx.table())?;
                Ok((
                    report.violation_fraction(limit.watts(), 10),
                    report.execution_time.seconds(),
                ))
            }
        })
        .collect();
    let results = pool.run(cells).into_iter().collect::<Result<Vec<_>>>()?;
    for (guardband, (violations, time_s)) in guardbands.into_iter().zip(results) {
        table.row(vec![f3(guardband), pct(violations), f3(time_s)]);
    }
    out.table("sweep", table);
    out.note("larger guardbands trade performance for fewer limit excursions");
    Ok(out)
}

/// Raise-window sweep on galgel at 13.5 W.
///
/// # Errors
///
/// Propagates platform errors.
pub fn raise_window(ctx: &ExperimentContext, pool: &Pool) -> Result<ExperimentOutput> {
    let mut out = ExperimentOutput::new(
        "ablation-window",
        "PM raise-window sweep on galgel at 13.5 W (paper waits 10 samples)",
    );
    let galgel = spec::by_name("galgel").expect("galgel in suite");
    let limit = PowerLimit::new(GALGEL_LIMIT_W).expect("valid limit");
    let mut table =
        TextTable::new(vec!["raise_samples", "violations", "time_s", "transitions"]);
    let windows = [1usize, 3, 10, 30];
    let galgel_ref = &galgel;
    let cells: Vec<_> = windows
        .into_iter()
        .map(|raise_samples| {
            move || -> Result<(f64, f64, u64)> {
                let config = PmConfig { raise_samples, ..PmConfig::default() };
                let factory = || {
                    Box::new(PerformanceMaximizer::with_config(
                        ctx.power_model().clone(),
                        limit,
                        config,
                    )) as Box<dyn Governor>
                };
                let infix = format!("-rw{raise_samples}");
                let report = median_run(pool, &infix, &factory, galgel_ref.program(), ctx.table())?;
                Ok((
                    report.violation_fraction(limit.watts(), 10),
                    report.execution_time.seconds(),
                    report.transitions,
                ))
            }
        })
        .collect();
    let results = pool.run(cells).into_iter().collect::<Result<Vec<_>>>()?;
    for (raise_samples, (violations, time_s, transitions)) in windows.into_iter().zip(results) {
        table.row(vec![
            raise_samples.to_string(),
            pct(violations),
            f3(time_s),
            transitions.to_string(),
        ]);
    }
    out.table("sweep", table);
    out.note(
        "eager raising (1 sample) chases every quiet stretch into the next \
         burst; long windows sacrifice performance for calm",
    );
    Ok(out)
}

/// Measured-power feedback PM vs plain PM on galgel; plain PM's runs are
/// the sweep's.
///
/// # Errors
///
/// Propagates platform errors.
pub fn feedback(ctx: &ExperimentContext, pool: &Pool, sweep: &PsSweep) -> Result<ExperimentOutput> {
    let mut out = ExperimentOutput::new(
        "ablation-feedback",
        "Plain PM vs measured-power-feedback PM on galgel (paper's future-work sketch)",
    );
    let galgel = spec::by_name("galgel").expect("galgel in suite");
    let galgel_pm = &sweep.benchmark("galgel").expect("galgel in suite").limit_runs;
    let mut table =
        TextTable::new(vec!["limit_w", "pm_violations", "feedback_violations", "pm_time_s", "feedback_time_s"]);
    let mut improved = 0usize;
    let mut compared = 0usize;
    let limits_w = [17.5, 15.5, 13.5, 11.5];
    let galgel_ref = &galgel;
    let models = ctx.spec_models();
    let models_ref = &models;
    let cells: Vec<_> = limits_w
        .into_iter()
        .map(|watts| {
            move || -> Result<(f64, f64, f64, f64)> {
                let limit = PowerLimit::new(watts).expect("valid limit");
                let pm = &galgel_pm[sweep.limit_index(watts).expect("a sweep limit")];
                let fb_spec = GovernorSpec::FeedbackPm { limit_w: watts };
                let fb = median_run_spec(
                    pool,
                    &fb_spec,
                    models_ref,
                    galgel_ref.program(),
                    ctx.table(),
                )?;
                Ok((
                    pm.pm_violation,
                    fb.violation_fraction(limit.watts(), 10),
                    pm.pm.time_s,
                    fb.execution_time.seconds(),
                ))
            }
        })
        .collect();
    let results = pool.run(cells).into_iter().collect::<Result<Vec<_>>>()?;
    for (watts, (pm_violations, fb_violations, pm_time, fb_time)) in
        limits_w.into_iter().zip(results)
    {
        if pm_violations > 0.001 {
            compared += 1;
            if fb_violations <= pm_violations {
                improved += 1;
            }
        }
        table.row(vec![
            format!("{watts:.1}"),
            pct(pm_violations),
            pct(fb_violations),
            f3(pm_time),
            f3(fb_time),
        ]);
    }
    out.table("comparison", table);
    out.note(format!(
        "feedback matched or reduced violations in {improved}/{compared} \
         of the limits where plain PM violated"
    ));
    Ok(out)
}

/// Demand-based switching vs unconstrained on the saturated suite; the
/// unconstrained runs are the sweep's.
///
/// # Errors
///
/// Propagates platform errors.
pub fn dbs(ctx: &ExperimentContext, pool: &Pool, sweep: &PsSweep) -> Result<ExperimentOutput> {
    let mut out = ExperimentOutput::new(
        "ablation-dbs",
        "Demand-based switching saves nothing at full load (paper §IV.B motivation)",
    );
    let mut table = TextTable::new(vec!["benchmark", "dbs_energy_savings", "dbs_slowdown"]);
    let mut worst_saving = 0.0f64;
    let benches: Vec<_> = spec::suite().into_iter().take(8).collect();
    let models = ctx.spec_models();
    let models_ref = &models;
    let cells: Vec<_> = benches
        .iter()
        .map(|bench| {
            move || -> Result<(f64, f64)> {
                let reference =
                    sweep.benchmark(bench.name()).expect("suite benchmark").unconstrained;
                // Matches `DemandBasedSwitching::new()`'s 0.8 default.
                let dbs_spec = GovernorSpec::Dbs { target_utilization: 0.8 };
                let dbs_run = median_run_spec(
                    pool,
                    &dbs_spec,
                    models_ref,
                    bench.program(),
                    ctx.table(),
                )?;
                Ok((
                    1.0 - dbs_run.measured_energy.joules() / reference.energy_j,
                    dbs_run.execution_time.seconds() / reference.time_s,
                ))
            }
        })
        .collect();
    let results = pool.run(cells).into_iter().collect::<Result<Vec<_>>>()?;
    for (bench, (savings, slowdown)) in benches.iter().zip(results) {
        worst_saving = worst_saving.max(savings.abs());
        table.row(vec![bench.name().into(), pct(savings), f3(slowdown)]);
    }
    out.table("comparison", table);
    out.note(format!(
        "at 100% load DBS tracks the unconstrained run (|savings| ≤ {}): \
         utilization-driven DVFS cannot trade performance for energy — PS's \
         explicit floor can",
        pct(worst_saving)
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{test_ctx, test_pool, test_sweep};

    #[test]
    fn guardband_reduces_violations_monotonically_enough() {
        let out = guardband(test_ctx(), test_pool()).unwrap();
        let rows: Vec<Vec<String>> = out.tables[0]
            .1
            .to_csv()
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(str::to_owned).collect())
            .collect();
        let violations: Vec<f64> = rows
            .iter()
            .map(|r| r[1].trim_end_matches('%').parse::<f64>().unwrap())
            .collect();
        // The largest guardband must not violate more than the smallest.
        assert!(violations.last().unwrap() <= violations.first().unwrap());
        // Times grow (weakly) with guardband.
        let times: Vec<f64> = rows.iter().map(|r| r[2].parse().unwrap()).collect();
        assert!(*times.last().unwrap() >= times.first().unwrap() - 0.05);
    }

    #[test]
    fn dbs_saves_nothing_at_full_load() {
        let out = dbs(test_ctx(), test_pool(), test_sweep()).unwrap();
        for line in out.tables[0].1.to_csv().lines().skip(1) {
            let savings: f64 = line
                .split(',')
                .nth(1)
                .unwrap()
                .trim_end_matches('%')
                .parse()
                .unwrap();
            assert!(savings.abs() < 3.0, "DBS saved {savings}% — should be ≈0");
        }
    }
}
