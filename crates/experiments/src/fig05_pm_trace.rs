//! Figure 5 — PerformanceMaximizer controlling `ammp`.
//!
//! The paper's figure shows three runs of `ammp`: unconstrained 2 GHz
//! operation and PM with 14.5 W and 10.5 W limits, with the frequency
//! modulating to workload demands. This experiment reproduces the three
//! runs, emits downsampled power/frequency traces, and summarizes p-state
//! residency and completion times.

use aapm::spec::GovernorSpec;
use aapm_platform::error::Result;
use aapm_workloads::spec;

use crate::context::ExperimentContext;
use crate::output::ExperimentOutput;
use crate::pool::Pool;
use crate::runner::median_run_spec;
use crate::table::{f3, pct, TextTable};

/// The two PM limits of the paper's figure.
pub const LIMITS_W: [f64; 2] = [14.5, 10.5];

/// Runs the experiment.
///
/// # Errors
///
/// Propagates platform errors.
pub fn run(ctx: &ExperimentContext, pool: &Pool) -> Result<ExperimentOutput> {
    let mut out = ExperimentOutput::new(
        "fig5",
        "PM on ammp: unconstrained vs 14.5 W and 10.5 W limits (paper Figure 5)",
    );
    let ammp = spec::by_name("ammp").expect("ammp is in the suite");

    let mut summary = TextTable::new(vec![
        "configuration",
        "time_s",
        "mean_w",
        "max_100ms_w",
        "violations",
        "pstates_used",
    ]);
    let mut trace = TextTable::new(vec!["configuration", "t_ms", "power_w", "freq_mhz"]);

    let mut configs: Vec<(String, GovernorSpec)> =
        vec![("unconstrained".to_owned(), GovernorSpec::Unconstrained)];
    for watts in LIMITS_W {
        configs.push((format!("pm-{watts}W"), GovernorSpec::Pm { limit_w: watts }));
    }

    let models = ctx.spec_models();
    let (ammp_ref, models_ref) = (&ammp, &models);
    let cells: Vec<_> = configs
        .iter()
        .map(|(_, governor)| {
            move || {
                median_run_spec(pool, governor, models_ref, ammp_ref.program(), ctx.table())
            }
        })
        .collect();
    let reports = pool.run(cells).into_iter().collect::<Result<Vec<_>>>()?;
    for ((label, _), report) in configs.iter().zip(reports) {
        let max_window = report
            .trace
            .moving_average_power(10)
            .into_iter()
            .fold(0.0f64, f64::max);
        let limit = label
            .strip_prefix("pm-")
            .and_then(|s| s.strip_suffix('W'))
            .and_then(|s| s.parse::<f64>().ok());
        let violations = limit.map_or(0.0, |l| {
            report.violation_fraction(aapm_platform::units::Watts::new(l), 10)
        });
        let residency = report
            .trace
            .pstate_residency()
            .into_iter()
            .map(|(id, frac)| {
                let mhz = ctx.table().get(id).map(|s| s.frequency().mhz()).unwrap_or(0);
                format!("{mhz}:{}", pct(frac))
            })
            .collect::<Vec<_>>()
            .join(" ");
        summary.row(vec![
            label.clone(),
            f3(report.execution_time.seconds()),
            f3(report.mean_power().map_or(0.0, |w| w.watts())),
            f3(max_window),
            pct(violations),
            residency,
        ]);
        for (i, record) in report.trace.records().iter().enumerate() {
            if i % 5 == 0 {
                let mhz = ctx
                    .table()
                    .get(record.pstate)
                    .map(|s| s.frequency().mhz())
                    .unwrap_or(0);
                trace.row(vec![
                    label.clone(),
                    format!("{:.0}", record.time.millis()),
                    f3(record.power.watts()),
                    mhz.to_string(),
                ]);
            }
        }
    }
    out.table("summary", summary);
    out.table("trace", trace);
    out.note(
        "PM modulates frequency with ammp's alternating memory/core phases; \
         tighter limits shift residency toward lower p-states and stretch \
         completion time (paper: ammp runs to completion in each case)",
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::test_ctx;

    #[test]
    fn tighter_limits_run_longer_and_cooler() {
        let out = run(test_ctx(), crate::test_support::test_pool()).unwrap();
        let rows: Vec<Vec<String>> = out.tables[0]
            .1
            .to_csv()
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(str::to_owned).collect())
            .collect();
        assert_eq!(rows.len(), 3);
        let time = |i: usize| rows[i][1].parse::<f64>().unwrap();
        let mean_w = |i: usize| rows[i][2].parse::<f64>().unwrap();
        // unconstrained < pm-14.5 < pm-10.5 in time; reverse in power.
        assert!(time(0) <= time(1) && time(1) < time(2));
        assert!(mean_w(0) >= mean_w(1) && mean_w(1) > mean_w(2));
        // Both PM runs meet their limits over 100 ms windows.
        let max_window = |i: usize| rows[i][3].parse::<f64>().unwrap();
        assert!(max_window(1) <= 14.5 + 0.2, "14.5 W run peaked at {}", max_window(1));
        assert!(max_window(2) <= 10.5 + 0.2, "10.5 W run peaked at {}", max_window(2));
    }
}
