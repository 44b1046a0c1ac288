//! Fleet-scale power budgeting: hierarchical reallocation vs uniform caps.
//!
//! Scales the paper's single-node PM governor to a 24-node fleet under a
//! datacenter → rack → node budget tree and asks the question the
//! hierarchy exists to answer: does reclaiming slack from memory-bound
//! and finished nodes buy real throughput for the compute-bound ones, at
//! the same total power budget? Three arms share one fleet shape:
//!
//! * **hierarchical** — [`FleetPmController::hierarchical`]: every rack
//!   cadence the [`ClusterGovernor`] folds per-node guardband headroom
//!   bottom-up and water-fills caps top-down.
//! * **uniform** — the same per-node PM governors under static caps of
//!   `datacenter / n` watts each; no slack ever moves.
//! * **uncapped** — PM with an unreachable limit; the throughput ceiling
//!   the budget arms are measured against.

use aapm::cluster::{BudgetTree, ClusterGovernor, FleetPmController, NodeSpec, RackSpec};
use aapm_platform::config::MachineConfig;
use aapm_platform::error::Result;
use aapm_platform::events::HardwareEvent;
use aapm_platform::fleet::{CohortMode, Fleet};
use aapm_platform::machine::Machine;
use aapm_platform::phase::PhaseDescriptor;
use aapm_platform::program::PhaseProgram;
use aapm_platform::units::Seconds;

use crate::context::ExperimentContext;
use crate::output::ExperimentOutput;
use crate::pool::Pool;
use crate::table::{f3, pct, TextTable};

/// Nodes per workload class (one rack each).
pub const NODES_PER_CLASS: usize = 8;
/// Total fleet size.
pub const NODES: usize = 3 * NODES_PER_CLASS;
/// Total datacenter budget: 10 W per node, well below the worst-case draw.
pub const DATACENTER_W: f64 = 240.0;
/// Simulation horizon in base ticks (10 ms each): 20 simulated seconds.
pub const HORIZON_TICKS: u64 = 2_000;
/// Node PM decision cadence in base ticks (100 ms windows).
pub const NODE_CADENCE_TICKS: u64 = 10;
/// Cluster reallocation cadence in base ticks (once per second).
pub const GOVERNOR_EVERY_TICKS: u64 = 100;

fn cpu_machine(seed: u64) -> Machine {
    // ~40 s of work at the top p-state: never finishes inside the horizon,
    // so every extra watt the hierarchy grants is spent on instructions.
    let phase = PhaseDescriptor::builder("fleet-cpu")
        .instructions(80_000_000_000)
        .core_cpi(0.7)
        .build()
        .expect("static phase is valid");
    Machine::new(MachineConfig::pentium_m_755(seed), PhaseProgram::from_phase(phase))
}

fn mem_machine(seed: u64) -> Machine {
    // Memory-bound: low decode rate, low power, persistent headroom.
    let phase = PhaseDescriptor::builder("fleet-mem")
        .instructions(20_000_000_000)
        .core_cpi(1.1)
        .mem_fraction(0.5)
        .l1_mpi(0.04)
        .l2_mpi(0.005)
        .overlap(0.3)
        .build()
        .expect("static phase is valid");
    Machine::new(MachineConfig::pentium_m_755(seed), PhaseProgram::from_phase(phase))
}

fn burst_machine(seed: u64) -> Machine {
    // Finishes after a couple of simulated seconds; the finished node then
    // donates its whole cap (minus the floor) back to the tree.
    let phase = PhaseDescriptor::builder("fleet-burst")
        .instructions(2_000_000_000)
        .core_cpi(0.7)
        .build()
        .expect("static phase is valid");
    Machine::new(MachineConfig::pentium_m_755(seed), PhaseProgram::from_phase(phase))
}

/// The shared fleet shape: one homogeneous cohort (= rack) per class.
fn build_fleet() -> Result<Fleet> {
    let governed = CohortMode::Governed { cadence_ticks: NODE_CADENCE_TICKS };
    let mut fleet = Fleet::new(Seconds::from_millis(10.0));
    fleet.add_cohort((0..NODES_PER_CLASS).map(|i| cpu_machine(100 + i as u64)).collect(), governed)?;
    fleet.add_cohort((0..NODES_PER_CLASS).map(|i| mem_machine(200 + i as u64)).collect(), governed)?;
    fleet
        .add_cohort((0..NODES_PER_CLASS).map(|i| burst_machine(300 + i as u64)).collect(), governed)?;
    Ok(fleet)
}

/// The budget tree matching `build_fleet`'s node order: one rack per
/// cohort, rack ceilings loose enough (120 W) that a compute rack can
/// absorb most of the slack the other racks give back.
pub fn budget_racks() -> Vec<RackSpec> {
    let node = NodeSpec { floor_w: 6.0, ceiling_w: 24.5 };
    (0..3).map(|_| RackSpec { ceiling_w: 120.0, nodes: vec![node; NODES_PER_CLASS] }).collect()
}

/// What one arm of the experiment measures.
struct ArmStats {
    energy_j: f64,
    ginstr: f64,
    violation_fraction: f64,
    reallocations: u64,
}

fn run_arm(mut controller: FleetPmController) -> Result<ArmStats> {
    let mut fleet = build_fleet()?;
    fleet.run_des(HORIZON_TICKS, GOVERNOR_EVERY_TICKS, &mut controller)?;
    let mut energy_j = 0.0;
    let mut instructions = 0.0;
    for cohort in 0..fleet.cohort_count() {
        for lane in 0..fleet.lanes(cohort) {
            energy_j += fleet.energy(cohort, lane).joules();
            instructions +=
                fleet.counter_snapshot(cohort, lane).get(HardwareEvent::InstructionsRetired);
        }
    }
    Ok(ArmStats {
        energy_j,
        ginstr: instructions / 1e9,
        violation_fraction: controller.cap_violation_fraction(),
        reallocations: controller.cluster().map_or(0, ClusterGovernor::reallocations),
    })
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates platform errors.
pub fn run(ctx: &ExperimentContext, pool: &Pool) -> Result<ExperimentOutput> {
    let mut out = ExperimentOutput::new(
        "fleet",
        "24-node fleet: hierarchical budget tree vs uniform static caps",
    );

    type ArmBuilder = Box<dyn FnOnce() -> Result<FleetPmController> + Send>;
    let uniform_cap = DATACENTER_W / NODES as f64;
    let arms: Vec<(&str, ArmBuilder)> = vec![
        ("hierarchical", {
            let table = ctx.table().clone();
            let model = ctx.power_model().clone();
            Box::new(move || {
                let tree = BudgetTree::new(DATACENTER_W, &budget_racks())?;
                let governor = ClusterGovernor::with_reserve(tree, 0.5)?;
                FleetPmController::hierarchical(table, &model, governor)
            })
        }),
        ("uniform", {
            let table = ctx.table().clone();
            let model = ctx.power_model().clone();
            Box::new(move || FleetPmController::uniform(table, &model, vec![uniform_cap; NODES]))
        }),
        ("uncapped", {
            let table = ctx.table().clone();
            let model = ctx.power_model().clone();
            Box::new(move || FleetPmController::uniform(table, &model, vec![1_000.0; NODES]))
        }),
    ];

    let cells: Vec<_> = arms
        .into_iter()
        .map(|(label, build)| move || -> Result<(&'static str, ArmStats)> {
            Ok((label, run_arm(build()?)?))
        })
        .collect();
    let results = pool.run(cells).into_iter().collect::<Result<Vec<_>>>()?;

    let sim_seconds = HORIZON_TICKS as f64 * 0.010;
    let mut table = TextTable::new(vec![
        "arm",
        "energy_j",
        "ginstr",
        "agg_gips",
        "cap_violation_pct",
        "nj_per_instr",
        "reallocations",
    ]);
    for (label, stats) in &results {
        table.row(vec![
            (*label).into(),
            f3(stats.energy_j),
            f3(stats.ginstr),
            f3(stats.ginstr / sim_seconds),
            pct(stats.violation_fraction),
            f3(stats.energy_j / stats.ginstr),
            stats.reallocations.to_string(),
        ]);
    }
    out.table("arms", table);

    let by = |name: &str| {
        &results.iter().find(|(label, _)| *label == name).expect("arm exists").1
    };
    let (hier, unif, open) = (by("hierarchical"), by("uniform"), by("uncapped"));
    out.note(format!(
        "hierarchical retires {:.1}% more instructions than uniform at the \
         same {DATACENTER_W:.0} W datacenter budget ({:.1} vs {:.1} Ginstr; \
         uncapped ceiling {:.1}), by moving slack from memory-bound and \
         finished nodes to the compute rack",
        (hier.ginstr / unif.ginstr - 1.0) * 100.0,
        hier.ginstr,
        unif.ginstr,
        open.ginstr,
    ));
    out.note(format!(
        "cap adherence: hierarchical {} vs uniform {} violation windows; \
         {} cluster reallocations over {:.0} s",
        pct(hier.violation_fraction),
        pct(unif.violation_fraction),
        hier.reallocations,
        HORIZON_TICKS as f64 * 0.010,
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{test_ctx, test_pool};

    #[test]
    fn hierarchical_beats_uniform_at_equal_budget() {
        let out = run(test_ctx(), test_pool()).unwrap();
        let rows: Vec<Vec<String>> = out.tables[0]
            .1
            .to_csv()
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(str::to_owned).collect())
            .collect();
        let get = |name: &str, col: usize| -> f64 {
            rows.iter().find(|r| r[0] == name).unwrap()[col].parse().unwrap()
        };
        // The headline: slack reallocation buys instructions at the same
        // datacenter budget, and the uncapped arm bounds both from above.
        assert!(get("hierarchical", 2) > get("uniform", 2) * 1.01, "≥1% throughput win");
        assert!(get("uncapped", 2) >= get("hierarchical", 2));
        // The hierarchy actually ran: one reallocation per governor tick.
        assert_eq!(
            get("hierarchical", 6) as u64,
            HORIZON_TICKS / GOVERNOR_EVERY_TICKS
        );
        assert_eq!(get("uniform", 6) as u64, 0);
    }
}
