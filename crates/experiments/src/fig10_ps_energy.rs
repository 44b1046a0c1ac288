//! Figure 10 — per-benchmark energy savings at each PS floor.
//!
//! The paper sorts workloads by the maximum benefit available with DVFS
//! (the 600 MHz run) and plots savings at each floor, with an ALLBENCH
//! aggregate separating above- from below-average savers. Memory-bound
//! workloads (swim, equake, mcf, lucas, applu) save the most; core-bound
//! ones (eon, sixtrack, crafty, twolf, mesa) the least.

use crate::output::ExperimentOutput;
use crate::ps_sweep::{Exponent, PsSweep};
use crate::runner::ps_floors;
use crate::table::{pct, TextTable};

/// Runs the experiment with a precomputed sweep.
pub fn run_with(sweep: &PsSweep) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "fig10",
        "Energy savings per workload and PS floor (paper Figure 10)",
    );
    let mut rows: Vec<&crate::ps_sweep::BenchmarkSweep> = sweep.benchmarks.iter().collect();
    rows.sort_by(|a, b| b.max_savings().total_cmp(&a.max_savings()));

    let mut table = TextTable::new(vec![
        "benchmark",
        "floor80",
        "floor60",
        "floor40",
        "floor20",
        "max_600mhz",
    ]);
    for b in &rows {
        table.row(vec![
            b.benchmark.clone(),
            pct(b.savings(Exponent::Primary, 0.8)),
            pct(b.savings(Exponent::Primary, 0.6)),
            pct(b.savings(Exponent::Primary, 0.4)),
            pct(b.savings(Exponent::Primary, 0.2)),
            pct(b.max_savings()),
        ]);
    }
    // ALLBENCH aggregate.
    let e_ref: f64 = sweep.benchmarks.iter().map(|b| b.unconstrained.energy_j).sum();
    let e_600: f64 = sweep.benchmarks.iter().map(|b| b.at_600mhz.energy_j).sum();
    let mut allbench = vec!["ALLBENCH".to_owned()];
    for floor in ps_floors() {
        allbench.push(pct(sweep.suite_savings(Exponent::Primary, floor)));
    }
    allbench.push(pct(1.0 - e_600 / e_ref));
    table.row(allbench);
    out.table("savings", table);
    out.note(
        "sorted by the 600 MHz bound: memory-bound workloads head the list \
         (PS can slow them cheaply), core-bound workloads trail it — the \
         paper's Figure 10 ordering",
    );
    out
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::test_sweep;

    #[test]
    fn memory_bound_save_more_than_core_bound() {
        let sweep = test_sweep();
        for saver in ["swim", "equake", "lucas"] {
            for miser in ["eon", "sixtrack", "crafty", "mesa"] {
                let s = sweep.benchmark(saver).unwrap().savings(Exponent::Primary, 0.8);
                let m = sweep.benchmark(miser).unwrap().savings(Exponent::Primary, 0.8);
                assert!(
                    s > m,
                    "{saver} ({s:.3}) should out-save {miser} ({m:.3}) at the 80% floor"
                );
            }
        }
    }

    #[test]
    fn max_savings_ordering_puts_memory_bound_first() {
        let sweep = test_sweep();
        let mut ordered: Vec<(&str, f64)> = sweep
            .benchmarks
            .iter()
            .map(|b| (b.benchmark.as_str(), b.max_savings()))
            .collect();
        ordered.sort_by(|a, b| b.1.total_cmp(&a.1));
        let top: Vec<&str> = ordered.iter().take(8).map(|(n, _)| *n).collect();
        for name in ["swim", "equake", "lucas", "mcf"] {
            assert!(top.contains(&name), "{name} should be in the top savers: {top:?}");
        }
    }
}
