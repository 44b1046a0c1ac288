//! Figure 9 — suite performance reduction and energy savings vs PS floor.
//!
//! For floors of 80/60/40/20 % the paper plots the suite's total
//! performance reduction (vs full-speed 2 GHz) and energy savings, with the
//! 600 MHz run as the bound. Key observations reproduced here: PS keeps the
//! suite reduction within each floor's allowance, and because p-states are
//! discrete the realized reduction sits below the allowed maximum.

use crate::output::ExperimentOutput;
use crate::ps_sweep::{Exponent, PsSweep};
use crate::runner::ps_floors;
use crate::table::{pct, TextTable};

/// Runs the experiment with a precomputed sweep.
pub fn run_with(sweep: &PsSweep) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "fig9",
        "Suite performance reduction & energy savings vs PS floor (paper Figure 9)",
    );
    let mut table = TextTable::new(vec![
        "floor",
        "allowed_reduction",
        "perf_reduction",
        "energy_savings",
    ]);
    for floor in ps_floors() {
        table.row(vec![
            pct(floor),
            pct(1.0 - floor),
            pct(sweep.suite_reduction(Exponent::Primary, floor)),
            pct(sweep.suite_savings(Exponent::Primary, floor)),
        ]);
    }
    // The 600 MHz bound.
    let t_ref: f64 = sweep.benchmarks.iter().map(|b| b.unconstrained.time_s).sum();
    let t_600: f64 = sweep.benchmarks.iter().map(|b| b.at_600mhz.time_s).sum();
    let e_ref: f64 = sweep.benchmarks.iter().map(|b| b.unconstrained.energy_j).sum();
    let e_600: f64 = sweep.benchmarks.iter().map(|b| b.at_600mhz.energy_j).sum();
    table.row(vec![
        "600MHz bound".into(),
        "-".into(),
        pct(1.0 - t_ref / t_600),
        pct(1.0 - e_600 / e_ref),
    ]);
    out.table("suite", table);
    out.note(format!(
        "at the 80% floor the suite loses {} for {} energy savings \
         (paper: ~10% loss for 19.2% savings; our mid-tier workloads scale \
         more strongly with frequency, so the loss lands higher while \
         staying within the allowed 20%)",
        pct(sweep.suite_reduction(Exponent::Primary, 0.8)),
        pct(sweep.suite_savings(Exponent::Primary, 0.8))
    ));
    out
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::test_sweep;

    #[test]
    fn suite_reduction_within_each_floor_allowance() {
        let sweep = test_sweep();
        for floor in ps_floors() {
            let reduction = sweep.suite_reduction(Exponent::Primary, floor);
            assert!(
                reduction <= (1.0 - floor) + 0.02,
                "floor {floor}: reduction {reduction} exceeds allowance"
            );
        }
    }

    #[test]
    fn savings_at_80_floor_in_paper_corridor() {
        let sweep = test_sweep();
        let savings = sweep.suite_savings(Exponent::Primary, 0.8);
        // Paper headline: 19.2%. Accept 15–25%.
        assert!((0.15..=0.25).contains(&savings), "savings {savings}");
    }

    #[test]
    fn reductions_monotone_in_floor() {
        let sweep = test_sweep();
        let mut last = 0.0;
        for floor in ps_floors() {
            let r = sweep.suite_reduction(Exponent::Primary, floor);
            assert!(r >= last - 0.01, "floor {floor}: {r} < {last}");
            last = r;
        }
    }
}
