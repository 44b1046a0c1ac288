//! Cross-crate fault-injection tests: provable inertness of the all-zero
//! fault config, seeded reproducibility of fault plans, graceful governor
//! degradation under sensor dropout, watchdog engagement through a
//! scheduled telemetry blackout, and scheduled-command validation.

use aapm::limits::PowerLimit;
use aapm::pm::PerformanceMaximizer;
use aapm::runtime::{ScheduledCommand, Session, SimulationConfig};
use aapm::slo_save::SloSave;
use aapm::watchdog::Watchdog;
use aapm::GovernorCommand;
use aapm_models::power_model::PowerModel;
use aapm_platform::config::MachineConfig;
use aapm_platform::error::PlatformError;
use aapm_platform::program::PhaseProgram;
use aapm_platform::pstate::PStateId;
use aapm_platform::units::Seconds;
use aapm_telemetry::faults::{FaultConfig, FaultKind, FaultWindow};
use aapm_telemetry::pmc::{wrapped_delta, COUNTER_WRAP};
use aapm_workloads::requests::RequestWorkload;
use aapm_workloads::synth::random_program;
use proptest::prelude::*;

fn short_program(seed: u64) -> PhaseProgram {
    let program = random_program(seed, 4);
    let target: u64 = 400_000_000;
    let factor = target as f64 / program.total_instructions() as f64;
    program.scaled(factor.min(1.0))
}

fn quick_sim() -> SimulationConfig {
    SimulationConfig { max_samples: 30_000, ..SimulationConfig::default() }
}

fn pm(limit: f64) -> PerformanceMaximizer {
    PerformanceMaximizer::new(PowerModel::paper_table_ii(), PowerLimit::new(limit).unwrap())
}

fn dropout_faults(seed: u64, rate: f64) -> FaultConfig {
    FaultConfig {
        seed,
        power_dropout_rate: rate,
        thermal_dropout_rate: rate,
        pmc_missed_rate: rate,
        actuation_ignored_rate: rate / 2.0,
        ..FaultConfig::default()
    }
}

/// The all-zero fault config must be provably inert: a session built with
/// an explicit (empty) fault plan produces a bit-identical report to one
/// built without, and zero stats.
#[test]
fn zero_fault_config_is_bit_identical_to_plain_run() {
    let program = short_program(3);
    let (baseline, _) = Session::builder(MachineConfig::pentium_m_755(3), program.clone())
        .config(quick_sim())
        .governor(&mut pm(12.5))
        .run()
        .unwrap();
    let (faulted, stats) = Session::builder(MachineConfig::pentium_m_755(3), program)
        .config(quick_sim())
        .governor(&mut pm(12.5))
        .faults(&[])
        .run()
        .unwrap();
    assert!(stats.is_clean(), "inert config must inject nothing: {stats:?}");
    assert_eq!(baseline.execution_time, faulted.execution_time);
    assert_eq!(baseline.measured_energy, faulted.measured_energy);
    assert_eq!(baseline.true_energy, faulted.true_energy);
    assert_eq!(baseline.trace, faulted.trace, "traces must match bit for bit");
}

/// Scheduled commands with non-finite times are rejected up front instead
/// of panicking inside the sort (the old `partial_cmp(...).expect(...)`).
#[test]
fn non_finite_command_times_are_rejected() {
    let nan = Seconds::new(f64::INFINITY) - Seconds::new(f64::INFINITY);
    assert!(nan.seconds().is_nan(), "NaN must be constructible via subtraction");
    for bad in [nan, Seconds::new(f64::INFINITY)] {
        let commands = [
            ScheduledCommand {
                at: Seconds::new(0.1),
                command: GovernorCommand::SetPowerLimit(PowerLimit::new(10.0).unwrap()),
            },
            ScheduledCommand {
                at: bad,
                command: GovernorCommand::SetPowerLimit(PowerLimit::new(8.0).unwrap()),
            },
        ];
        let result = Session::builder(MachineConfig::pentium_m_755(1), short_program(1))
            .config(quick_sim())
            .governor(&mut pm(12.5))
            .commands(&commands)
            .run();
        assert!(
            matches!(result, Err(PlatformError::InvalidConfig { parameter: "commands", .. })),
            "time {bad} must be rejected, got {result:?}"
        );
    }
}

/// A scheduled blackout (power + PMC + thermal all lost) must drive the
/// watchdog to its safe p-state, and control must return after recovery.
#[test]
fn watchdog_forces_safe_pstate_through_blackout_and_recovers() {
    let window = FaultWindow {
        start: Seconds::new(1.0),
        end: Seconds::new(2.0),
        kind: FaultKind::Blackout,
    };
    let mut dog = Watchdog::new(pm(30.0));
    // A long program so the run spans well past the window.
    let program = short_program(7).scaled(10.0);
    let (report, stats) = Session::builder(MachineConfig::pentium_m_755(7), program)
        .config(quick_sim())
        .governor(&mut dog)
        .faults(&[window])
        .run()
        .unwrap();
    assert!(stats.power_dropouts >= 90, "the window covers ~100 samples");
    let records = report.trace.records();
    let interval = report.trace.interval().seconds();
    let at = |t: f64| ((t / interval) as usize).min(records.len() - 1);
    // Well inside the window (threshold 10 intervals + margin for the
    // engage decision and p-state transition to propagate): the safe
    // state, the table's lowest.
    for record in &records[at(1.3)..at(1.9)] {
        assert_eq!(
            record.pstate,
            PStateId::new(0),
            "watchdog must hold the safe state at t={}",
            record.time
        );
    }
    // Before the window: PM's generous 30 W limit keeps a high state.
    assert!(records[at(0.5)].pstate > PStateId::new(4), "healthy run starts fast");
    // Well after the window (recovery window + PM raise streak): control
    // returned and frequency came back up.
    assert!(
        records[at(2.5)..].iter().any(|r| r.pstate > PStateId::new(4)),
        "inner governor must regain control after the blackout"
    );
}

/// Sensor dropout must not break PM's power-limit contract: violations
/// under ≤10 % dropout stay within a small margin of the fault-free run.
#[test]
fn pm_adherence_degrades_gracefully_under_dropout() {
    let limit = 12.5;
    let program = short_program(11);
    let (clean, _) = Session::builder(MachineConfig::pentium_m_755(11), program.clone())
        .config(quick_sim())
        .governor(&mut pm(limit))
        .run()
        .unwrap();
    let clean_violation =
        clean.violation_fraction(PowerLimit::new(limit).unwrap().watts(), 10);
    for rate in [0.02, 0.05, 0.10] {
        let sim = SimulationConfig {
            faults: dropout_faults(0xD0_11 ^ (rate * 1000.0) as u64, rate),
            ..quick_sim()
        };
        let (faulted, stats) = Session::builder(MachineConfig::pentium_m_755(11), program.clone())
            .config(sim)
            .governor(&mut pm(limit))
            .run()
            .unwrap();
        assert!(stats.telemetry_losses() > 0, "rate {rate} must inject faults");
        let violation =
            faulted.violation_fraction(PowerLimit::new(limit).unwrap().watts(), 10);
        assert!(
            violation <= clean_violation + 0.02,
            "rate {rate}: violations {violation} vs clean {clean_violation}"
        );
        assert!(faulted.completed, "rate {rate}: run must still complete");
    }
}

/// Boundary behavior of the 40-bit counter arithmetic at exactly
/// 2^40 − 1 → 0: the last representable value before the wrap, the wrap
/// itself, and the first reads after it.
#[test]
fn pmc_wrap_boundary_at_exactly_top_of_range() {
    let top = COUNTER_WRAP - 1.0; // 2^40 − 1, exactly representable in f64
    assert_eq!(top as u64, (1u64 << 40) - 1);
    // One count accumulated as the register ticks from 2^40−1 to 0 (the
    // raw total reaches 2^40, which reads back as 0 modulo the width).
    assert_eq!(wrapped_delta(COUNTER_WRAP, top), 1.0);
    assert_eq!(wrapped_delta(0.0, top), 1.0, "a read of 0 right after the top is one count");
    // Reading the same boundary value twice is zero counts, not a wrap.
    assert_eq!(wrapped_delta(top, top), 0.0);
    // A read that lands a few counts past the wrap reconstructs the full
    // distance across the discontinuity.
    assert_eq!(wrapped_delta(5.0, COUNTER_WRAP - 3.0), 8.0);
    // And one count below the top stays a plain difference.
    assert_eq!(wrapped_delta(top, top - 1.0), 1.0);
}

/// A fault window opening at t = 0 corrupts the very first control
/// interval — before the governor has made any decision — and the runtime
/// must start up blind without panicking or miscounting.
#[test]
fn fault_at_t_zero_precedes_the_first_governor_decision() {
    let window = FaultWindow {
        start: Seconds::ZERO,
        end: Seconds::new(0.05),
        kind: FaultKind::Blackout,
    };
    let (report, stats) = Session::builder(MachineConfig::pentium_m_755(5), short_program(5))
        .config(quick_sim())
        .governor(&mut pm(12.5))
        .faults(&[window])
        .run()
        .unwrap();
    assert!(report.completed, "a blind start must still complete");
    assert!(
        stats.power_dropouts >= 4,
        "the [0, 0.05) window must cover the first intervals, got {stats:?}"
    );
    assert_eq!(
        stats.power_dropouts, stats.pmc_missed,
        "a blackout loses power and PMC reads together"
    );
    // The governor saw no telemetry in interval one; its first decision
    // must still have been recorded (the trace starts at the beginning).
    let records = report.trace.records();
    assert!(!records.is_empty());
    assert!(records[0].time.seconds() < 0.02, "trace must start at the first interval");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Faulted runs are bit-reproducible: the same seeds (machine, DAQ, and
    /// fault plan) give identical reports and fault stats.
    #[test]
    fn faulted_runs_reproducible_with_same_seeds(seed in 0u64..100) {
        let program = short_program(seed);
        let sim = SimulationConfig {
            faults: dropout_faults(seed ^ 0xFA17, 0.08),
            ..quick_sim()
        };
        let make = || {
            Session::builder(MachineConfig::pentium_m_755(seed), program.clone())
                .config(sim)
                .governor(&mut pm(12.5))
                .run()
                .expect("run succeeds")
        };
        let (a, stats_a) = make();
        let (b, stats_b) = make();
        prop_assert_eq!(stats_a, stats_b);
        prop_assert!(stats_a.telemetry_losses() > 0, "8% rates must fire");
        prop_assert_eq!(a.execution_time, b.execution_time);
        prop_assert_eq!(a.measured_energy, b.measured_energy);
        prop_assert_eq!(a.trace, b.trace);
    }

    /// Open-loop serve sessions conserve request accounting under any
    /// fault plan: every arrival the source emitted is either completed or
    /// still queued when the sample cap lands, whatever telemetry the
    /// faults ate along the way.
    #[test]
    fn serve_queue_conserves_requests_under_faults(seed in 0u64..100) {
        let mut b = RequestWorkload::builder("serve-faulted");
        b.seed(seed).day(Seconds::new(4.0)).rates(60.0, 180.0);
        let workload = b.build().unwrap();
        let faults = FaultConfig {
            seed: seed ^ 0x5EED,
            power_dropout_rate: 0.15,
            power_stuck_rate: 0.1,
            thermal_dropout_rate: 0.15,
            pmc_missed_rate: 0.15,
            actuation_ignored_rate: 0.1,
            actuation_stall_rate: 0.1,
            ..FaultConfig::default()
        };
        let sim = SimulationConfig { max_samples: 400, faults, ..SimulationConfig::default() };
        let (report, stats) = Session::builder(MachineConfig::pentium_m_755(seed), workload)
            .config(sim)
            .governor(&mut SloSave::new(Seconds::from_millis(40.0)).unwrap())
            .run()
            .expect("serve run reaches the sample cap");
        prop_assert!(!report.completed, "an open-loop server never finishes");
        let summary = report.requests.expect("serve runs report request accounting");
        prop_assert_eq!(
            summary.arrived,
            summary.completed + summary.pending,
            "queue accounting must conserve requests"
        );
        prop_assert!(summary.arrived > 0, "4 s at ≥60 rps must see traffic");
        prop_assert!(summary.completed > 0, "the governed server must serve");
        prop_assert!(stats.telemetry_losses() > 0, "heavy rates must fire");
    }

    /// No governor panics and every run completes under heavy mixed faults
    /// (including stuck power readings and stalled/ignored actuations).
    #[test]
    fn heavy_faults_never_panic_and_runs_complete(seed in 0u64..50) {
        let program = short_program(seed);
        let faults = FaultConfig {
            seed: seed ^ 0xBAD,
            power_dropout_rate: 0.15,
            power_stuck_rate: 0.1,
            thermal_dropout_rate: 0.15,
            pmc_missed_rate: 0.15,
            actuation_ignored_rate: 0.1,
            actuation_stall_rate: 0.1,
            ..FaultConfig::default()
        };
        let sim = SimulationConfig { faults, ..quick_sim() };
        let (report, stats) = Session::builder(MachineConfig::pentium_m_755(seed), program)
            .config(sim)
            .governor(&mut Watchdog::new(pm(12.5)))
            .run()
            .expect("run succeeds");
        prop_assert!(report.completed, "run must complete despite faults");
        prop_assert!(stats.telemetry_losses() > 0);
        prop_assert!(stats.actuation_faults() > 0);
    }
}
