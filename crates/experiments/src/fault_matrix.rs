//! Fault matrix: governor robustness under injected telemetry/actuator
//! faults.
//!
//! The paper's governors ran against real hardware whose measurement chain
//! (DAQ, PMC driver, thermal diode) and actuation path (p-state MSR writes)
//! can all fail transiently. This experiment sweeps a common fault rate
//! across PM, PS, and watchdog-wrapped PM on ammp and reports how limit
//! adherence and performance degrade: the graceful-degradation paths should
//! hold adherence close to the fault-free baseline up to ~10 % dropout,
//! trading a bounded amount of performance instead.

use aapm::limits::PowerLimit;
use aapm::spec::GovernorSpec;
use aapm_platform::error::Result;
use aapm_telemetry::faults::FaultConfig;
use aapm_workloads::spec;

use crate::context::ExperimentContext;
use crate::output::ExperimentOutput;
use crate::pool::Pool;
use crate::runner::{median_run_impl, run_spec_header};
use crate::table::{pct, TextTable};

/// Fault rates swept (applied to power, thermal, and PMC channels; the
/// actuation-ignore rate runs at half this).
pub const DROPOUT_RATES: [f64; 4] = [0.0, 0.02, 0.05, 0.10];

/// The PM power limit used throughout the matrix.
const PM_LIMIT_W: f64 = 12.5;

/// The PS performance floor used throughout the matrix.
const PS_FLOOR: f64 = 0.6;

fn fault_config(rate: f64, seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        power_dropout_rate: rate,
        thermal_dropout_rate: rate,
        pmc_missed_rate: rate,
        actuation_ignored_rate: rate / 2.0,
        ..FaultConfig::default()
    }
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates platform errors.
pub fn run(ctx: &ExperimentContext, pool: &Pool) -> Result<ExperimentOutput> {
    let mut out = ExperimentOutput::new(
        "fault-matrix",
        "governor limit adherence and slowdown under injected telemetry/actuator faults",
    );
    let ammp = spec::by_name("ammp").expect("ammp is in the suite");
    let limit = PowerLimit::new(PM_LIMIT_W).expect("valid limit");

    let mut table =
        TextTable::new(vec!["governor", "dropout", "violations", "slowdown", "telemetry_losses"]);
    // One cell per (governor, rate); per-governor baselines (rate 0.0) are
    // resolved at merge time, so the cells stay independent.
    let governor_specs = [
        GovernorSpec::Pm { limit_w: PM_LIMIT_W },
        GovernorSpec::Ps { floor: PS_FLOOR },
        GovernorSpec::Watchdog { inner: Box::new(GovernorSpec::Pm { limit_w: PM_LIMIT_W }) },
    ];
    let models = ctx.spec_models();
    let (ammp_ref, specs_ref, models_ref) = (&ammp, &governor_specs, &models);
    let mut cells = Vec::new();
    for governor_spec in specs_ref {
        for rate in DROPOUT_RATES {
            cells.push(move || -> Result<(f64, f64, u64)> {
                // The median of the paper's three seeds, each under its
                // own fault plan; traces are labelled with the rate.
                let (report, stats) = median_run_impl(
                    pool,
                    &|| governor_spec.build(models_ref),
                    Some(&run_spec_header(governor_spec, models_ref)),
                    &format!("-r{rate:.2}"),
                    ammp_ref.program(),
                    ctx.table(),
                    Some(&|seed| fault_config(rate, seed ^ 0xFA17)),
                )?;
                Ok((
                    report.execution_time.seconds(),
                    report.violation_fraction(limit.watts(), 10),
                    stats.telemetry_losses(),
                ))
            });
        }
    }
    let results = pool.run(cells).into_iter().collect::<Result<Vec<_>>>()?;
    for (g, governor_spec) in governor_specs.iter().enumerate() {
        let governor_name = governor_spec.governor_name();
        let per_rate = &results[g * DROPOUT_RATES.len()..(g + 1) * DROPOUT_RATES.len()];
        let baseline = per_rate[0].0;
        for (rate, &(time, violations, losses)) in DROPOUT_RATES.into_iter().zip(per_rate) {
            let slowdown = time / baseline - 1.0;
            table.row(vec![
                governor_name.clone(),
                pct(rate),
                pct(violations),
                pct(slowdown),
                losses.to_string(),
            ]);
        }
    }
    out.table("matrix", table);
    out.note(format!(
        "faults: power/thermal/PMC dropout at the listed rate, actuator writes \
         ignored at half of it; PM limit {PM_LIMIT_W} W, PS floor {PS_FLOOR}; \
         adherence should degrade gracefully (not collapse) up to 10 % dropout"
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{test_ctx, test_pool};

    #[test]
    fn adherence_degrades_gracefully_up_to_ten_percent_dropout() {
        let out = run(test_ctx(), test_pool()).unwrap();
        let rows: Vec<Vec<String>> = out.tables[0]
            .1
            .to_csv()
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(str::to_owned).collect())
            .collect();
        assert_eq!(rows.len(), 3 * DROPOUT_RATES.len());
        let parse_pct =
            |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap() / 100.0;
        for row in &rows {
            let (gov, rate) = (row[0].as_str(), parse_pct(&row[1]));
            let violations = parse_pct(&row[2]);
            let slowdown = parse_pct(&row[3]);
            let losses: u64 = row[4].parse().unwrap();
            if rate == 0.0 {
                assert_eq!(losses, 0, "{gov}: zero rate must inject nothing");
                assert!(
                    slowdown.abs() < 1e-12,
                    "{gov}: zero rate is its own baseline"
                );
            } else {
                assert!(losses > 0, "{gov} at {rate}: faults must be injected");
            }
            // PM's limit-adherence contract: violations stay bounded near
            // the fault-free level (the paper sees ~0 on ammp) at every
            // dropout rate — degradation must be graceful, not a collapse.
            if gov != "ps" {
                assert!(
                    violations < 0.05,
                    "{gov} at {rate}: violations {violations} not graceful"
                );
            }
            // Losing telemetry may cost performance but must stay bounded.
            assert!(
                slowdown < 0.5,
                "{gov} at {rate}: slowdown {slowdown} out of bounds"
            );
        }
    }
}
