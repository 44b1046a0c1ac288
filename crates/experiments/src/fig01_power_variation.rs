//! Figure 1 — power variation across the SPEC CPU2000 suite at 2 GHz.
//!
//! The paper's figure plots 10 ms power samples over time for the whole
//! suite at a fixed 2 GHz, showing a range spanning more than 35 % of the
//! chip's peak operating power. This experiment reruns the suite
//! unconstrained and reports, per benchmark, the mean / min / max measured
//! power and the suite-wide range, plus a downsampled sample trace suitable
//! for plotting.

use aapm::spec::GovernorSpec;
use aapm_platform::error::Result;
use aapm_workloads::spec;

use crate::context::ExperimentContext;
use crate::output::ExperimentOutput;
use crate::pool::Pool;
use crate::runner::median_run_spec;
use crate::table::{f3, pct, TextTable};

/// Peak operating power used to normalize the range (the Pentium M 755's
/// TDP class).
const PEAK_OPERATING_POWER: f64 = 21.0;

/// Runs the experiment.
///
/// # Errors
///
/// Propagates platform errors from the runs.
pub fn run(ctx: &ExperimentContext, pool: &Pool) -> Result<ExperimentOutput> {
    let mut out = ExperimentOutput::new(
        "fig1",
        "Power variation for SPEC CPU2000 at 2 GHz (paper Figure 1)",
    );
    let mut per_bench = TextTable::new(vec!["benchmark", "mean_w", "min_w", "max_w"]);
    let mut trace_table = TextTable::new(vec!["benchmark", "t_ms", "power_w"]);

    let mut suite_min = f64::INFINITY;
    let mut suite_max = f64::NEG_INFINITY;
    let benches = spec::suite();
    let models = ctx.spec_models();
    let models_ref = &models;
    let cells: Vec<_> = benches
        .iter()
        .map(|bench| {
            move || {
                median_run_spec(
                    pool,
                    &GovernorSpec::Unconstrained,
                    models_ref,
                    bench.program(),
                    ctx.table(),
                )
            }
        })
        .collect();
    let reports = pool.run(cells).into_iter().collect::<Result<Vec<_>>>()?;
    for (bench, report) in benches.iter().zip(reports) {
        let powers: Vec<f64> =
            report.trace.records().iter().map(|r| r.power.watts()).collect();
        let mean = powers.iter().sum::<f64>() / powers.len() as f64;
        let min = powers.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = powers.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        suite_min = suite_min.min(mean);
        suite_max = suite_max.max(mean);
        per_bench.row(vec![bench.name().into(), f3(mean), f3(min), f3(max)]);
        // Downsample the trace (every 10th sample) for plotting.
        for (i, record) in report.trace.records().iter().enumerate() {
            if i % 10 == 0 {
                trace_table.row(vec![
                    bench.name().into(),
                    format!("{:.0}", record.time.millis()),
                    f3(record.power.watts()),
                ]);
            }
        }
    }

    let range = suite_max - suite_min;
    out.table("per_benchmark", per_bench);
    out.table("trace", trace_table);
    out.note(format!(
        "suite mean-power range at 2 GHz: {suite_min:.2}–{suite_max:.2} W \
         (range {range:.2} W = {} of {PEAK_OPERATING_POWER} W peak; paper: >35%)",
        pct(range / PEAK_OPERATING_POWER)
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{test_ctx, test_pool};

    #[test]
    fn range_exceeds_35_percent_of_peak() {
        let out = run(test_ctx(), test_pool()).unwrap();
        assert_eq!(out.tables[0].1.len(), 26);
        // The note carries the suite range; re-derive the check from the
        // per-benchmark table to avoid string parsing.
        let means: Vec<f64> = out.tables[0]
            .1
            .to_csv()
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse::<f64>().unwrap())
            .collect();
        let min = means.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = means.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 0.35 * PEAK_OPERATING_POWER, "range {}", max - min);
    }
}
