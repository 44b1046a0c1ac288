//! Thermal envelopes: power limits bound instantaneous draw; die
//! temperature integrates history. This example shows a hot workload
//! overheating a mobile package under a pure power limit, and the
//! `ThermalGuard` decorator holding a 72 °C envelope on top of PM.
//!
//! ```text
//! cargo run --release --example thermal_envelope
//! ```

use aapm::baselines::Unconstrained;
use aapm::governor::Governor;
use aapm::limits::PowerLimit;
use aapm::pm::PerformanceMaximizer;
use aapm::runtime::{Session, SimulationConfig};
use aapm::thermal_guard::ThermalGuard;
use aapm_models::power_model::PowerModel;
use aapm_platform::config::MachineConfig;
use aapm_platform::thermal::{Celsius, ThermalModel};
use aapm_workloads::spec;

/// Replays a run's power trace through the package RC model and reports
/// the peak die temperature.
fn peak_temperature(report: &aapm::report::RunReport) -> f64 {
    let mut model = ThermalModel::new(*MachineConfig::default().thermal());
    let mut peak = model.temperature().degrees();
    for record in report.trace.records() {
        model.advance(record.true_power, report.trace.interval());
        peak = peak.max(model.temperature().degrees());
    }
    peak
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let crafty = spec::by_name("crafty").expect("crafty is in the suite");
    // Long enough for the package (τ ≈ 4 s) to heat through.
    let program = crafty.program().scaled(4.0);
    let machine = MachineConfig::pentium_m_755(17);
    let sim = SimulationConfig::default();
    let cap = 72.0;

    println!("{:<26} {:>8} {:>10} {:>8}", "configuration", "time_s", "peak_die_C", "mean_W");
    println!("{}", "-".repeat(56));
    let run_one = |label: &str, governor: &mut dyn Governor| -> Result<(), Box<dyn std::error::Error>> {
        let (report, _) = Session::builder(machine.clone(), program.clone())
            .config(sim)
            .governor(governor)
            .run()?;
        println!(
            "{label:<26} {:>8.2} {:>10.1} {:>8.2}",
            report.execution_time.seconds(),
            peak_temperature(&report),
            report.mean_power().map_or(0.0, |w| w.watts()),
        );
        Ok(())
    };

    run_one("unconstrained", &mut Unconstrained::new())?;

    // A 17.5 W power limit alone does not save the package: crafty's
    // sustained draw still exceeds the thermal budget.
    let model = PowerModel::paper_table_ii();
    run_one(
        "pm @17.5 W",
        &mut PerformanceMaximizer::new(model.clone(), PowerLimit::new(17.5)?),
    )?;

    // ThermalGuard over PM: same power limit, plus a 72 °C die cap.
    run_one(
        "thermal<pm> @17.5 W, 72 C",
        &mut ThermalGuard::with_cap(
            PerformanceMaximizer::new(model, PowerLimit::new(17.5)?),
            Celsius::new(cap),
        ),
    )?;

    println!();
    println!("the guard trades a slice of performance for a die that never");
    println!("crosses the {cap:.0} °C envelope — the paper's \"partial cooling");
    println!("failure\" scenario handled by composition, not a new governor.");
    Ok(())
}
