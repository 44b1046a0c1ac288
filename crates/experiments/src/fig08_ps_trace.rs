//! Figure 8 — PowerSave in action on `ammp` with an 80 % floor.
//!
//! The paper's figure shows PS lowering frequency during `ammp`'s
//! memory-bound regions while sustaining the 80 %-of-peak performance
//! requirement. This experiment reproduces the run and reports the
//! frequency/power trace, residency, and the realized performance. It runs
//! PS itself, for the trace, and reads the unconstrained reference from
//! the shared suite sweep ([`ps_sweep`](crate::ps_sweep)).

use aapm::spec::GovernorSpec;
use aapm_platform::error::Result;
use aapm_workloads::spec;

use crate::context::ExperimentContext;
use crate::output::ExperimentOutput;
use crate::pool::Pool;
use crate::ps_sweep::PsSweep;
use crate::runner::median_run_spec;
use crate::table::{f3, pct, TextTable};

/// The figure's performance floor.
pub const FLOOR: f64 = 0.8;

/// Runs the experiment.
///
/// # Errors
///
/// Propagates platform errors.
pub fn run(ctx: &ExperimentContext, pool: &Pool, sweep: &PsSweep) -> Result<ExperimentOutput> {
    let mut out = ExperimentOutput::new(
        "fig8",
        "PS on ammp with an 80% performance floor (paper Figure 8)",
    );
    let ammp = spec::by_name("ammp").expect("ammp is in the suite");
    let reference = sweep.benchmark("ammp").expect("ammp is in the suite").unconstrained;
    let ps = median_run_spec(
        pool,
        &GovernorSpec::Ps { floor: FLOOR },
        &ctx.spec_models(),
        ammp.program(),
        ctx.table(),
    )?;

    let realized = reference.time_s / ps.execution_time.seconds();
    let savings = 1.0 - ps.measured_energy.joules() / reference.energy_j;

    let mut summary = TextTable::new(vec!["metric", "value"]);
    summary.row(vec!["reference time (2 GHz)".into(), f3(reference.time_s)]);
    summary.row(vec!["ps time".into(), f3(ps.execution_time.seconds())]);
    summary.row(vec!["realized performance".into(), pct(realized)]);
    summary.row(vec!["energy savings".into(), pct(savings)]);
    summary.row(vec!["p-state transitions".into(), ps.transitions.to_string()]);
    out.table("summary", summary);

    let mut residency = TextTable::new(vec!["freq_mhz", "residency"]);
    for (id, frac) in ps.trace.pstate_residency() {
        residency.row(vec![ctx.table().get(id)?.frequency().mhz().to_string(), pct(frac)]);
    }
    out.table("residency", residency);

    let mut trace = TextTable::new(vec!["t_ms", "power_w", "freq_mhz", "ipc"]);
    for (i, record) in ps.trace.records().iter().enumerate() {
        if i % 5 == 0 {
            trace.row(vec![
                format!("{:.0}", record.time.millis()),
                f3(record.power.watts()),
                ctx.table().get(record.pstate)?.frequency().mhz().to_string(),
                record.ipc.map_or_else(|| "-".into(), f3),
            ]);
        }
    }
    out.table("trace", trace);
    out.note(format!(
        "PS sustains {} of peak performance (floor {}), modulating between \
         p-states as ammp alternates memory- and core-bound phases",
        pct(realized),
        pct(FLOOR)
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{test_ctx, test_pool, test_sweep};

    #[test]
    fn ps_respects_floor_and_modulates() {
        let out = run(test_ctx(), test_pool(), test_sweep()).unwrap();
        // Realized performance ≥ 80% (ammp is well-modelled).
        let summary = &out.tables[0].1;
        let realized: f64 = summary
            .to_csv()
            .lines()
            .find(|l| l.starts_with("realized"))
            .unwrap()
            .split(',')
            .nth(1)
            .unwrap()
            .trim_end_matches('%')
            .parse()
            .unwrap();
        assert!(realized >= 78.0, "realized {realized}%");
        // PS uses more than one p-state on ammp.
        let residency = &out.tables[1].1;
        assert!(residency.len() >= 2, "expected modulation across p-states");
    }
}
