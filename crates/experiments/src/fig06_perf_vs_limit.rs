//! Figure 6 — suite performance vs power limit: PM dynamic clocking vs
//! worst-case static clocking.
//!
//! A view of the shared suite sweep ([`ps_sweep`](crate::ps_sweep)): for each of the eight
//! power limits, the whole suite under PM and under the Table-IV static
//! frequency; performance is normalized as `unconstrained suite time /
//! constrained suite time`. The paper's shape: the PM line dominates the
//! static dots everywhere, and static approaches PM only where the limit
//! sits just above a fixed frequency's own worst-case power.

use crate::output::ExperimentOutput;
use crate::ps_sweep::PsSweep;
use crate::table::{f3, TextTable};

/// Runs the experiment with a precomputed sweep.
pub fn run_with(sweep: &PsSweep) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "fig6",
        "Suite performance vs power limit: PM vs static clocking (paper Figure 6)",
    );
    let mut table = TextTable::new(vec![
        "limit_w",
        "pm_normalized_perf",
        "static_mhz",
        "static_normalized_perf",
        "pm_advantage",
    ]);
    // Suite times are summed in suite order: a float sum depends on its
    // order, and the committed CSV holds this one.
    let t_unconstrained: f64 = sweep.benchmarks.iter().map(|b| b.unconstrained.time_s).sum();
    let mut pm_always_wins = true;
    for (i, (limit, static_mhz)) in sweep.limits.iter().enumerate() {
        let t_pm: f64 = sweep.benchmarks.iter().map(|b| b.limit_runs[i].pm.time_s).sum();
        let t_static: f64 =
            sweep.benchmarks.iter().map(|b| b.limit_runs[i].static_clock.time_s).sum();
        let pm_perf = t_unconstrained / t_pm;
        let static_perf = t_unconstrained / t_static;
        pm_always_wins &= pm_perf >= static_perf - 1e-6;
        table.row(vec![
            format!("{:.1}", limit.watts().watts()),
            f3(pm_perf),
            static_mhz.mhz().to_string(),
            f3(static_perf),
            f3(pm_perf / static_perf),
        ]);
    }
    out.table("performance_vs_limit", table);
    out.note(format!(
        "PM dominates static clocking at every limit: {pm_always_wins} \
         (paper: static approaches dynamic only when the limit is near a \
         fixed frequency's peak power)"
    ));
    out
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::test_sweep;

    #[test]
    fn pm_dominates_static_at_every_limit() {
        let out = run_with(test_sweep());
        let rows: Vec<Vec<f64>> = out.tables[0]
            .1
            .to_csv()
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(|c| c.parse::<f64>().unwrap()).collect())
            .collect();
        assert_eq!(rows.len(), 8);
        for row in &rows {
            assert!(row[1] >= row[3] - 1e-6, "PM {} < static {} at {} W", row[1], row[3], row[0]);
        }
        // Performance falls (weakly) as limits tighten, for both schemes.
        for pair in rows.windows(2) {
            assert!(pair[1][1] <= pair[0][1] + 1e-6, "PM perf must not rise as limit tightens");
            assert!(pair[1][3] <= pair[0][3] + 1e-6);
        }
        // At the loosest limit PM is close to unconstrained performance.
        assert!(rows[0][1] > 0.9, "PM at 17.5 W achieves {} of peak", rows[0][1]);
    }
}
