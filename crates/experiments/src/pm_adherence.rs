//! PM power-limit adherence (paper §IV.A.2, prose evaluation).
//!
//! The paper evaluates PM's constraint adherence over 100 ms moving
//! windows across all benchmarks and limits: "PM is able to enforce the
//! power limit for every benchmark except galgel, which in the worst case
//! spends approximately 10% of run-time over the power limit". This
//! experiment reproduces that evaluation from the PM runs of the shared
//! suite sweep ([`ps_sweep`](crate::ps_sweep)).

use crate::output::ExperimentOutput;
use crate::ps_sweep::PsSweep;
use crate::table::{pct, TextTable};

/// Violation threshold below which adherence counts as "enforced" (one
/// 100 ms window in a thousand tolerates measurement noise).
pub const ENFORCED_THRESHOLD: f64 = 0.002;

/// Runs the experiment with a precomputed sweep.
pub fn run_with(sweep: &PsSweep) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "pm-adherence",
        "PM 100 ms-window power-limit adherence across benchmarks and limits (paper §IV.A.2)",
    );
    let mut table = TextTable::new(vec!["benchmark", "worst_violation", "worst_limit_w"]);
    let mut offenders = Vec::new();
    for b in &sweep.benchmarks {
        // The first limit with the strictly largest violation.
        let mut worst = 0.0f64;
        let mut worst_limit = 0.0;
        for ((limit, _), runs) in sweep.limits.iter().zip(&b.limit_runs) {
            if runs.pm_violation > worst {
                worst = runs.pm_violation;
                worst_limit = limit.watts().watts();
            }
        }
        if worst > ENFORCED_THRESHOLD {
            offenders.push(b.benchmark.clone());
        }
        table.row(vec![b.benchmark.clone(), pct(worst), format!("{worst_limit:.1}")]);
    }
    out.table("adherence", table);
    out.note(format!(
        "benchmarks with any violation above {}: {:?} \
         (paper: only galgel, worst ≈10% of run-time at 13.5 W)",
        pct(ENFORCED_THRESHOLD),
        offenders
    ));
    out
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::test_sweep;

    #[test]
    fn only_galgel_violates_materially() {
        let out = run_with(test_sweep());
        let rows: Vec<Vec<String>> = out.tables[0]
            .1
            .to_csv()
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(str::to_owned).collect())
            .collect();
        assert_eq!(rows.len(), 26);
        for row in &rows {
            let worst: f64 = row[1].trim_end_matches('%').parse::<f64>().unwrap() / 100.0;
            if row[0] == "galgel" {
                assert!(
                    worst > 0.01 && worst < 0.25,
                    "galgel worst violation {worst} should be material but bounded"
                );
            } else {
                assert!(worst <= 0.02, "{} violates {worst}", row[0]);
            }
        }
    }
}
