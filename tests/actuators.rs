//! End-to-end integration tests for the actuator extensions: clock
//! modulation, deep power caps, and the thermal envelope.

use aapm::baselines::Unconstrained;
use aapm::combined_pm::CombinedPm;

use aapm::governor::Governor;
use aapm::limits::{PerformanceFloor, PowerLimit};
use aapm::pm::PerformanceMaximizer;
use aapm::runtime::Session;
use aapm::thermal_guard::ThermalGuard;
use aapm::throttle_save::ThrottleSave;
use aapm_models::power_model::PowerModel;
use aapm_platform::config::MachineConfig;
use aapm_platform::program::PhaseProgram;
use aapm_platform::thermal::{Celsius, ThermalModel};
use aapm_workloads::spec;

fn run_under(governor: &mut dyn Governor, program: PhaseProgram) -> aapm::report::RunReport {
    let (report, _) = Session::builder(MachineConfig::pentium_m_755(3), program)
        .governor(governor)
        .run()
        .expect("session run");
    report
}

fn reference(name: &str, scale: f64) -> aapm::report::RunReport {
    let bench = spec::by_name(name).expect("known benchmark");
    run_under(&mut Unconstrained::new(), bench.program().scaled(scale))
}

#[test]
fn throttle_save_meets_floor_but_saves_nothing() {
    let reference = reference("gzip", 0.5);
    let bench = spec::by_name("gzip").unwrap();
    let mut governor = ThrottleSave::new(PerformanceFloor::new(0.75).unwrap());
    let report = run_under(&mut governor, bench.program().scaled(0.5));
    let realized = reference.execution_time / report.execution_time;
    assert!(realized >= 0.73, "floor respected: {realized}");
    // Average power drops…
    assert!(report.mean_power().unwrap() < reference.mean_power().unwrap());
    // …but energy does not (leakage over the stretched run).
    assert!(report.measured_energy >= reference.measured_energy * 0.98);
}

#[test]
fn combined_pm_holds_a_cap_below_p0_power() {
    let bench = spec::by_name("gzip").unwrap();
    let limit = PowerLimit::new(2.5).unwrap();
    let model = PowerModel::paper_table_ii();

    let mut plain = PerformanceMaximizer::new(model.clone(), limit);
    let plain_run = run_under(&mut plain, bench.program().scaled(0.3));
    let mut combined = CombinedPm::new(model, limit);
    let combined_run = run_under(&mut combined, bench.program().scaled(0.3));

    assert!(
        plain_run.violation_fraction(limit.watts(), 10) > 0.9,
        "plain PM cannot reach 2.5 W"
    );
    assert!(
        combined_run.violation_fraction(limit.watts(), 10) < 0.02,
        "combined PM holds 2.5 W, violated {}",
        combined_run.violation_fraction(limit.watts(), 10)
    );
    assert!(combined_run.completed);
}

#[test]
fn thermal_guard_composes_over_pm() {
    // Hot workload, long run, power limit AND thermal cap together.
    let bench = spec::by_name("crafty").unwrap();
    let program = bench.program().scaled(4.0);
    let cap = Celsius::new(72.0);
    let limit = PowerLimit::new(17.5).unwrap();
    let mut governor = ThermalGuard::with_cap(
        PerformanceMaximizer::new(PowerModel::paper_table_ii(), limit),
        cap,
    );
    let report = run_under(&mut governor, program);
    assert!(report.completed);
    // Replay the power trace through the package model: the die must stay
    // within ~1.5 °C of the cap (sensor quantization + one-sample lag).
    let mut model = ThermalModel::new(*MachineConfig::default().thermal());
    let mut peak = 0.0f64;
    for record in report.trace.records() {
        model.advance(record.true_power, report.trace.interval());
        peak = peak.max(model.temperature().degrees());
    }
    assert!(peak <= cap.degrees() + 1.5, "die peaked at {peak:.1} °C");
    // And the power limit still holds.
    assert!(report.violation_fraction(limit.watts(), 10) < 0.01);
}

#[test]
fn governor_trait_defaults_keep_clock_ungated() {
    // A plain PM run must never engage the modulator (default trait impl).
    let bench = spec::by_name("swim").unwrap();
    let mut pm =
        PerformanceMaximizer::new(PowerModel::paper_table_ii(), PowerLimit::new(10.5).unwrap());
    let report = run_under(&mut pm, bench.program().scaled(0.3));
    // swim at 10.5 W barely throttles DVFS; if the clock had been gated the
    // run would stretch far beyond the unconstrained time.
    let reference = reference("swim", 0.3);
    assert!(report.execution_time.seconds() < reference.execution_time.seconds() * 1.1);
}
