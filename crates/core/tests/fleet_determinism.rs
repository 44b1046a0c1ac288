//! The discrete-event fleet engine must be **byte-identical** to naive
//! lockstep stepping when driven by the real cluster-governed PM
//! controller — p-state actuations, cap reallocations, violation
//! metering and all. This is the end-to-end determinism pin for the
//! fleet layer; the engine-only equivalence (no-op controller) lives in
//! `aapm-platform`'s `fleet` module tests.

use aapm::cluster::{BudgetTree, ClusterGovernor, FleetPmController, NodeSpec, RackSpec};
use aapm_models::power_model::PowerModel;
use aapm_platform::config::MachineConfig;
use aapm_platform::fleet::{CohortMode, Fleet};
use aapm_platform::machine::Machine;
use aapm_platform::phase::PhaseDescriptor;
use aapm_platform::program::PhaseProgram;
use aapm_platform::pstate::PStateTable;
use aapm_platform::units::Seconds;

fn cpu_machine(seed: u64, instructions: u64) -> Machine {
    let phase = PhaseDescriptor::builder("cpu-heavy")
        .instructions(instructions)
        .core_cpi(0.7)
        .build()
        .unwrap();
    Machine::new(MachineConfig::pentium_m_755(seed), PhaseProgram::from_phase(phase))
}

fn mem_machine(seed: u64, instructions: u64) -> Machine {
    let phase = PhaseDescriptor::builder("mem-bound")
        .instructions(instructions)
        .core_cpi(1.1)
        .mem_fraction(0.5)
        .l1_mpi(0.04)
        .l2_mpi(0.005)
        .overlap(0.3)
        .build()
        .unwrap();
    Machine::new(MachineConfig::pentium_m_755(seed), PhaseProgram::from_phase(phase))
}

/// Two governed cohorts at different cadences (one lane finishing
/// mid-run) plus a fast-forward cohort — 9 nodes total.
fn build_fleet() -> Fleet {
    let mut fleet = Fleet::new(Seconds::from_millis(10.0));
    fleet
        .add_cohort(
            vec![
                cpu_machine(11, 30_000_000_000),
                cpu_machine(12, 28_000_000_000),
                cpu_machine(13, 26_000_000_000),
                cpu_machine(14, 32_000_000_000),
            ],
            CohortMode::Governed { cadence_ticks: 10 },
        )
        .unwrap();
    fleet
        .add_cohort(
            vec![
                mem_machine(21, 20_000_000_000),
                mem_machine(22, 18_000_000_000),
                // Finishes around one simulated second: exercises the
                // finished-node full-slack headroom path.
                mem_machine(23, 1_500_000_000),
            ],
            CohortMode::Governed { cadence_ticks: 25 },
        )
        .unwrap();
    fleet
        .add_cohort(
            vec![cpu_machine(31, 40_000_000_000), cpu_machine(32, 120_000_000)],
            CohortMode::FastForward,
        )
        .unwrap();
    fleet
}

fn build_controller() -> FleetPmController {
    let node = NodeSpec { floor_w: 6.0, ceiling_w: 24.5 };
    let racks = vec![
        RackSpec { ceiling_w: 50.0, nodes: vec![node; 4] },
        RackSpec { ceiling_w: 45.0, nodes: vec![node; 5] },
    ];
    let tree = BudgetTree::new(80.0, &racks).unwrap();
    let governor = ClusterGovernor::with_reserve(tree, 0.5).unwrap();
    FleetPmController::hierarchical(
        PStateTable::pentium_m_755(),
        &PowerModel::paper_table_ii(),
        governor,
    )
    .unwrap()
}

/// Everything observable about one node, as exact bits: energy, elapsed
/// time, every counter, completion time (if finished) and p-state index.
type NodeBits = (u64, u64, Vec<u64>, Option<u64>, usize);

/// [`NodeBits`] for every node of the fleet.
fn node_state(fleet: &Fleet) -> Vec<NodeBits> {
    use aapm_platform::events::HardwareEvent;
    let mut out = Vec::new();
    for cohort in 0..fleet.cohort_count() {
        for lane in 0..fleet.lanes(cohort) {
            let machine = fleet.machine(cohort, lane);
            let snapshot = fleet.counter_snapshot(cohort, lane);
            let counters: Vec<u64> =
                HardwareEvent::ALL.iter().map(|&e| snapshot.get(e).to_bits()).collect();
            out.push((
                fleet.energy(cohort, lane).joules().to_bits(),
                fleet.elapsed(cohort, lane).seconds().to_bits(),
                counters,
                machine.completion_time().map(|t| t.seconds().to_bits()),
                machine.pstate().index(),
            ));
        }
    }
    out
}

#[test]
fn des_fleet_is_byte_identical_to_naive_lockstep_under_cluster_control() {
    const HORIZON_TICKS: u64 = 600; // 6 simulated seconds
    const GOVERNOR_EVERY: u64 = 100; // cluster reallocation each second

    let mut des_fleet = build_fleet();
    let mut des_ctl = build_controller();
    des_fleet.run_des(HORIZON_TICKS, GOVERNOR_EVERY, &mut des_ctl).unwrap();

    let mut naive_fleet = build_fleet();
    let mut naive_ctl = build_controller();
    naive_fleet.run_lockstep(HORIZON_TICKS, GOVERNOR_EVERY, &mut naive_ctl).unwrap();

    // The run must have actually exercised the control stack.
    assert!(des_ctl.windows() > 0, "PM windows were metered");
    let cluster = des_ctl.cluster().expect("hierarchical controller");
    assert_eq!(cluster.reallocations(), HORIZON_TICKS / GOVERNOR_EVERY);
    cluster.tree().assert_invariants();

    // Byte-identical machine state across every node...
    assert_eq!(node_state(&des_fleet), node_state(&naive_fleet));
    // ...and byte-identical controller state.
    let des_caps: Vec<u64> = des_ctl.caps_w().iter().map(|c| c.to_bits()).collect();
    let naive_caps: Vec<u64> = naive_ctl.caps_w().iter().map(|c| c.to_bits()).collect();
    assert_eq!(des_caps, naive_caps);
    assert_eq!(des_ctl.windows(), naive_ctl.windows());
    assert_eq!(
        des_ctl.cap_violation_fraction().to_bits(),
        naive_ctl.cap_violation_fraction().to_bits()
    );
    assert_eq!(
        des_ctl.cluster().unwrap().reallocations(),
        naive_ctl.cluster().unwrap().reallocations()
    );
}

#[test]
fn cluster_control_actually_moves_caps() {
    // Sanity against a vacuous determinism pin: with a mixed fleet the
    // governor's reallocation must shift at least one cap away from the
    // initial fair split.
    let mut fleet = build_fleet();
    let mut ctl = build_controller();
    let initial: Vec<f64> = ctl.caps_w().to_vec();
    fleet.run_des(600, 100, &mut ctl).unwrap();
    let moved = ctl.caps_w().iter().zip(&initial).any(|(a, b)| (a - b).abs() > 1e-6);
    assert!(moved, "reallocation never moved a cap: {:?}", ctl.caps_w());
}
