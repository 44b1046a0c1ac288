//! The paper's headline claims, read in one place out of the shared suite
//! sweep ([`ps_sweep`](crate::ps_sweep)).
//!
//! * PM at a 17.5 W budget obtains ≈86 % of the possible suite speedup.
//! * PS at the 80 % floor saves ≈19.2 % energy for ≈10 % performance loss.
//! * PM enforces every limit except on galgel.
//! * art/mcf violate PS floors under exponent 0.81; 0.59 repairs them.

use aapm_platform::error::Result;

use crate::context::ExperimentContext;
use crate::fig07_pm_speedup;
use crate::output::ExperimentOutput;
use crate::pool::Pool;
use crate::ps_sweep::{Exponent, PsSweep};
use crate::table::{pct, TextTable};

/// Runs the headline summary with a precomputed sweep. `ctx` and `pool`
/// are unused: the sweep holds every run the claims read.
///
/// # Errors
///
/// None; the signature is kept for its existing callers.
pub fn run_with(
    _ctx: &ExperimentContext,
    _pool: &Pool,
    sweep: &PsSweep,
) -> Result<ExperimentOutput> {
    let mut out = ExperimentOutput::new("headline", "Headline claims: paper vs reproduction");
    let (_, capture) = fig07_pm_speedup::compute(sweep);

    let mut table = TextTable::new(vec!["claim", "paper", "reproduction"]);
    table.row(vec![
        "PM fraction of possible suite speedup at 17.5 W".into(),
        "86%".into(),
        pct(capture),
    ]);
    table.row(vec![
        "PS suite energy savings at 80% floor".into(),
        "19.2%".into(),
        pct(sweep.suite_savings(Exponent::Primary, 0.8)),
    ]);
    table.row(vec![
        "PS suite performance reduction at 80% floor".into(),
        "10%".into(),
        pct(sweep.suite_reduction(Exponent::Primary, 0.8)),
    ]);
    table.row(vec![
        "PS suite reduction at 60% floor (allowed 40%)".into(),
        "30.8%".into(),
        pct(sweep.suite_reduction(Exponent::Primary, 0.6)),
    ]);
    let art = sweep.benchmark("art").expect("art in suite");
    let mcf = sweep.benchmark("mcf").expect("mcf in suite");
    table.row(vec![
        "art reduction at 80% floor, exponent 0.81".into(),
        "42.2%".into(),
        pct(art.reduction(Exponent::Primary, 0.8)),
    ]);
    table.row(vec![
        "art reduction at 80% floor, exponent 0.59".into(),
        "26.3%".into(),
        pct(art.reduction(Exponent::Alternate, 0.8)),
    ]);
    table.row(vec![
        "mcf reduction at 80% floor, exponent 0.81".into(),
        "27.7%".into(),
        pct(mcf.reduction(Exponent::Primary, 0.8)),
    ]);
    table.row(vec![
        "mcf reduction at 80% floor, exponent 0.59".into(),
        "17.9%".into(),
        pct(mcf.reduction(Exponent::Alternate, 0.8)),
    ]);
    out.table("claims", table);
    Ok(out)
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{test_ctx, test_sweep};

    #[test]
    fn headline_numbers_land_in_paper_corridors() {
        let ctx = test_ctx();
        let sweep = test_sweep();
        let out = run_with(ctx, crate::test_support::test_pool(), sweep).unwrap();
        assert_eq!(out.tables[0].1.len(), 8);
        // The corridor checks live in the fig7/fig9/fig11 tests; here just
        // confirm the table renders every claim with a percentage.
        let csv = out.tables[0].1.to_csv();
        for line in csv.lines().skip(1) {
            assert!(line.contains('%'), "row missing percentage: {line}");
        }
    }
}
