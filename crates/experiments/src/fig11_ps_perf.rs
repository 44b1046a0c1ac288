//! Figure 11 — per-benchmark performance reduction at each PS floor.
//!
//! Nearly the mirror of Figure 10: memory-bound workloads lose the least
//! performance, core-bound the most. The paper's key finding reproduced
//! here: `art` and `mcf` — memory-bound to the DCU counter, but with
//! heavily-overlapped misses — *violate* their floors under the primary
//! 0.81 exponent, and the alternate 0.59 exponent repairs (or nearly
//! repairs) the violations.

use crate::output::ExperimentOutput;
use crate::ps_sweep::{Exponent, PsSweep};
use crate::table::{pct, TextTable};

/// Runs the experiment with a precomputed sweep.
pub fn run_with(sweep: &PsSweep) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "fig11",
        "Performance reduction per workload and PS floor, exponents 0.81 and 0.59 (paper Figure 11)",
    );
    let mut rows: Vec<&crate::ps_sweep::BenchmarkSweep> = sweep.benchmarks.iter().collect();
    rows.sort_by(|a, b| b.max_reduction().total_cmp(&a.max_reduction()));

    for exponent in Exponent::BOTH {
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
                pct(b.reduction(exponent, 0.8)),
                pct(b.reduction(exponent, 0.6)),
                pct(b.reduction(exponent, 0.4)),
                pct(b.reduction(exponent, 0.2)),
                pct(b.max_reduction()),
            ]);
        }
        let name = match exponent {
            Exponent::Primary => "reduction_exponent_081",
            Exponent::Alternate => "reduction_exponent_059",
        };
        out.table(name, table);
    }

    for name in ["art", "mcf"] {
        let b = sweep.benchmark(name).expect("violation cases in suite");
        out.note(format!(
            "{name} at the 80% floor: {} reduction with exponent 0.81 \
             (allowed 20% — violated), {} with 0.59 \
             (paper: art 42.2%→26.3%, mcf 27.7%→17.9%)",
            pct(b.reduction(Exponent::Primary, 0.8)),
            pct(b.reduction(Exponent::Alternate, 0.8)),
        ));
    }
    out
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::test_sweep;

    #[test]
    fn art_and_mcf_violate_with_081_and_improve_with_059() {
        let sweep = test_sweep();
        let art = sweep.benchmark("art").unwrap();
        let mcf = sweep.benchmark("mcf").unwrap();
        // Violations with the primary exponent (allowance is 20%).
        let art_081 = art.reduction(Exponent::Primary, 0.8);
        let mcf_081 = mcf.reduction(Exponent::Primary, 0.8);
        assert!(art_081 > 0.30, "art should violate hard: {art_081}");
        assert!(mcf_081 > 0.22, "mcf should violate: {mcf_081}");
        // The alternate exponent repairs mcf and pulls art close.
        let art_059 = art.reduction(Exponent::Alternate, 0.8);
        let mcf_059 = mcf.reduction(Exponent::Alternate, 0.8);
        assert!(mcf_059 <= 0.20 + 0.01, "mcf repaired: {mcf_059}");
        assert!(art_059 < art_081 - 0.08, "art improved: {art_059} vs {art_081}");
    }

    #[test]
    fn well_modelled_benchmarks_meet_their_floors() {
        let sweep = test_sweep();
        for name in ["swim", "sixtrack", "mesa", "gzip", "ammp"] {
            let b = sweep.benchmark(name).unwrap();
            let r = b.reduction(Exponent::Primary, 0.8);
            assert!(r <= 0.21, "{name} at 80% floor: reduction {r} exceeds allowance");
        }
    }

    #[test]
    fn memory_bound_lose_least_core_bound_most() {
        let sweep = test_sweep();
        let swim = sweep.benchmark("swim").unwrap().reduction(Exponent::Primary, 0.8);
        let sixtrack = sweep.benchmark("sixtrack").unwrap().reduction(Exponent::Primary, 0.8);
        assert!(swim < sixtrack, "swim {swim} vs sixtrack {sixtrack}");
    }
}
