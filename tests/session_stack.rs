//! Acceptance tests for composed governor stacks under the session
//! runtime: metrics forwarding through every decorator level, and runtime
//! command delivery through a two-deep stack (including the t = 0 and
//! same-timestamp edge cases).

use aapm::governor::GovernorCommand;
use aapm::limits::PowerLimit;
use aapm::pm::PerformanceMaximizer;
use aapm::runtime::{ScheduledCommand, Session, SimulationConfig};
use aapm::thermal_guard::ThermalGuard;
use aapm::watchdog::Watchdog;
use aapm_models::power_model::PowerModel;
use aapm_platform::config::MachineConfig;
use aapm_platform::thermal::Celsius;
use aapm_platform::units::Seconds;
use aapm_telemetry::faults::{FaultKind, FaultWindow};
use aapm_telemetry::metrics::{EventKind, Metrics};
use aapm_workloads::spec;

fn pm(limit: f64) -> PerformanceMaximizer {
    PerformanceMaximizer::new(PowerModel::paper_table_ii(), PowerLimit::new(limit).unwrap())
}

/// A `Watchdog(ThermalGuard(Pm))` stack must record events at every level
/// into one shared registry: the watchdog's blackout engagement, the
/// guard's ceiling moves, and PM's own hold bookkeeping all land in the
/// same snapshot. (Before the blanket layer impl, ThermalGuard forwarded
/// its metrics handle by move and could never emit its own events.)
#[test]
fn every_level_of_a_two_deep_stack_records_metrics() {
    // Hot workload, long run: crafty heats the package past a 72 °C cap.
    let crafty = spec::by_name("crafty").expect("crafty exists");
    let program = crafty.program().scaled(4.0);
    // A telemetry blackout engages the watchdog and starves PM's PMC feed.
    let window = FaultWindow {
        start: Seconds::new(1.0),
        end: Seconds::new(2.0),
        kind: FaultKind::Blackout,
    };
    // Generous 30 W limit so the thermal envelope, not the power limit,
    // is the binding constraint once telemetry recovers.
    let mut stack = Watchdog::new(ThermalGuard::with_cap(pm(30.0), Celsius::new(72.0)));

    let metrics = Metrics::enabled();
    let (report, stats) = Session::builder(MachineConfig::pentium_m_755(7), program)
        .config(SimulationConfig::default())
        .governor(&mut stack)
        .faults(&[window])
        .observer(&metrics)
        .run()
        .unwrap();
    assert!(report.completed);
    assert!(stats.power_dropouts > 0, "the blackout must fire: {stats:?}");

    let snapshot = metrics.snapshot();
    // Outer layer: the watchdog engaged during the blackout and released.
    assert!(snapshot.counter("watchdog.engagements") >= 1, "watchdog level silent");
    assert!(snapshot.counter("watchdog.releases") >= 1, "watchdog never released");
    // Middle layer: the guard lowered the ceiling on the hot stretch.
    assert!(snapshot.counter("thermal_guard.ceiling_lowered") >= 1, "guard level silent");
    // Innermost governor: PM saw the starved PMC feed as stale intervals.
    assert_eq!(snapshot.counter("pm.stale_intervals"), stats.pmc_missed);
    assert!(snapshot.counter("pm.stale_intervals") > 0, "pm level silent");

    // The event stream carries all three levels too.
    let events = metrics.events();
    assert!(events.iter().any(|e| matches!(e.kind, EventKind::WatchdogEngaged { .. })));
    assert!(events.iter().any(|e| matches!(e.kind, EventKind::ThermalCeilingLowered { .. })));
    assert!(events.iter().any(|e| matches!(e.kind, EventKind::HoldEntered { governor: "pm" })));
}

/// Runs crafty under a `Watchdog(ThermalGuard(Pm))` stack with the given
/// schedule and returns the report.
fn run_stacked(initial_limit: f64, commands: &[ScheduledCommand]) -> aapm::report::RunReport {
    let crafty = spec::by_name("crafty").expect("crafty exists");
    let mut stack = Watchdog::new(ThermalGuard::new(pm(initial_limit)));
    let (report, _) = Session::builder(MachineConfig::pentium_m_755(5), crafty.program().clone())
        .governor(&mut stack)
        .commands(commands)
        .run()
        .unwrap();
    report
}

/// A mid-run `SetPowerLimit` must pass through both decorator levels and
/// reach the innermost PM: the p-state drops right after delivery and the
/// new limit holds for the rest of the run.
#[test]
fn command_reaches_innermost_governor_through_the_stack() {
    let commands = [ScheduledCommand {
        at: Seconds::new(1.0),
        command: GovernorCommand::SetPowerLimit(PowerLimit::new(8.5).unwrap()),
    }];
    let report = run_stacked(17.5, &commands);
    let late_violation: usize = report
        .trace
        .moving_average_power(10)
        .iter()
        .skip(110) // windows fully after the change
        .filter(|&&p| p > 8.5)
        .count();
    assert_eq!(late_violation, 0, "late windows must respect the forwarded 8.5 W limit");
    // And the limit genuinely throttled: early samples run hotter.
    let early_peak = report
        .trace
        .records()
        .iter()
        .filter(|r| r.time.seconds() < 0.9)
        .map(|r| r.power.watts())
        .fold(0.0f64, f64::max);
    assert!(early_peak > 8.5, "the 17.5 W era must draw more than the later cap");
}

/// A command scheduled at t = 0 lands before the first decision: the run
/// is bit-identical to constructing the innermost governor with that limit
/// in the first place.
#[test]
fn t_zero_command_applies_before_the_first_decision() {
    let commands = [ScheduledCommand {
        at: Seconds::ZERO,
        command: GovernorCommand::SetPowerLimit(PowerLimit::new(8.5).unwrap()),
    }];
    let commanded = run_stacked(17.5, &commands);
    let constructed = run_stacked(8.5, &[]);
    assert_eq!(commanded.trace, constructed.trace, "traces must match bit for bit");
    assert_eq!(commanded.execution_time, constructed.execution_time);
}

/// Two commands with the same timestamp are delivered in schedule order
/// within one interval, so the last write wins — identical to scheduling
/// only the final command.
#[test]
fn same_timestamp_commands_deliver_in_order_last_write_wins() {
    let both = [
        ScheduledCommand {
            at: Seconds::new(1.0),
            command: GovernorCommand::SetPowerLimit(PowerLimit::new(15.0).unwrap()),
        },
        ScheduledCommand {
            at: Seconds::new(1.0),
            command: GovernorCommand::SetPowerLimit(PowerLimit::new(8.5).unwrap()),
        },
    ];
    let only_last = [both[1]];
    let a = run_stacked(17.5, &both);
    let b = run_stacked(17.5, &only_last);
    assert_eq!(a.trace, b.trace, "the interposed 15 W write must be superseded");
    assert_eq!(a.execution_time, b.execution_time);
}
