//! Run orchestration shared by all experiments.
//!
//! Implements the paper's methodology details: each (workload, governor)
//! pair runs three times with different seeds and the run with the median
//! execution time is reported; static-clocking frequencies are derived from
//! the worst-case FMA-256K power curve (Tables III/IV).
//!
//! [`median_run`] fans its seed runs out over a [`Pool`]: every seed builds
//! a fresh `Machine`, DAQ, and governor, so the cells are fully isolated
//! and their results are merged in deterministic submission order. The
//! fault matrix takes the same path with a fault plan per seed. Under
//! `--trace-out` every run says which cell produced it: a spec run
//! ([`median_run_spec`]) opens with a `run_spec` header naming the spec
//! and the eq.-3 parameters, and a closure run's label carries an infix
//! naming the value its closure sets.
//! [`worst_case_power_curve`] instead runs its eight short ungoverned
//! p-state cells as one pool cell.

use aapm::governor::Governor;
use aapm::limits::PowerLimit;
use aapm::report::RunReport;
use aapm::runtime::{Session, SimulationConfig};
use aapm::spec::{GovernorSpec, SpecModels};
use aapm_telemetry::metrics::Metrics;
use aapm_platform::error::{PlatformError, Result};
use aapm_platform::machine::Machine;
use aapm_platform::program::PhaseProgram;
use aapm_platform::pstate::{PStateId, PStateTable};
use aapm_platform::units::{MegaHertz, Seconds, Watts};
use aapm_platform::MachineConfig;
use aapm_telemetry::daq::{DaqConfig, PowerDaq};
use aapm_telemetry::faults::{FaultConfig, FaultStats};
use aapm_workloads::characterize::{characterize_with_budget, CharacterizedLoop};
use aapm_workloads::footprint::Footprint;
use aapm_workloads::loops::MicroLoop;

use crate::pool::Pool;

/// Seeds for the paper's "execute three times, report the median" protocol.
pub const RUN_SEEDS: [u64; 3] = [11, 23, 47];

/// Salt XORed into a machine seed to derive the simulation-runtime seed,
/// so the machine's process variation and the DAQ's measurement noise draw
/// from decorrelated streams.
pub const SIM_SEED_SALT: u64 = 0x5EED;

/// Derives the simulation-runtime seed from a machine seed.
///
/// Every harness path — [`median_run`], the fault matrix, ad-hoc traces —
/// must derive its [`SimulationConfig::seed`] through this helper so the
/// seed streams cannot drift apart between call sites.
#[must_use]
pub fn sim_seed(machine_seed: u64) -> u64 {
    machine_seed ^ SIM_SEED_SALT
}

/// Runs one workload under a fresh governor per seed (fanned out over the
/// pool) and returns the run with the median execution time.
///
/// `make_governor` is called once per seed so each run starts from clean
/// governor state; it must be callable from multiple worker threads.
/// `infix` goes into each run's `--trace-out` label ahead of the seed and
/// names the value the closure sets (`-gb0.25`, `-rw3`, `-cap72`), since
/// no `run_spec` header describes the governor.
///
/// # Errors
///
/// Propagates platform errors from any run, and returns
/// [`PlatformError::NonFiniteMeasurement`] when any seed's execution time
/// is NaN or ±∞ (no meaningful median exists then).
pub fn median_run(
    pool: &Pool,
    infix: &str,
    make_governor: &(dyn Fn() -> Box<dyn Governor> + Sync),
    program: &PhaseProgram,
    table: &PStateTable,
) -> Result<RunReport> {
    median_run_impl(pool, &|| Ok(make_governor()), None, infix, program, table, None)
        .map(|(report, _)| report)
}

/// [`median_run`] for a registry-described governor: the fresh governor
/// per seed is built from `spec` against `models`, and each run's
/// `--trace-out` stream opens with a `run_spec` header recording the spec
/// and the eq.-3 parameters of `models`' performance model.
/// Experiments should prefer this entry point; the closure-based
/// [`median_run`] remains for configurations the spec grammar cannot
/// express (ablation-specific tunables).
///
/// # Errors
///
/// As [`median_run`], plus spec parameter validation.
pub fn median_run_spec(
    pool: &Pool,
    spec: &GovernorSpec,
    models: &SpecModels,
    program: &PhaseProgram,
    table: &PStateTable,
) -> Result<RunReport> {
    let header = run_spec_header(spec, models);
    median_run_impl(pool, &|| spec.build(models), Some(&header), "", program, table, None)
        .map(|(report, _)| report)
}

/// The fields of a spec run's `run_spec` trace header: the spec, and the
/// eq.-3 parameters its models carry, so runs of one spec under different
/// performance models (the sweep's two PS exponents) say which is which.
pub(crate) fn run_spec_header(spec: &GovernorSpec, models: &SpecModels) -> String {
    let perf = models.perf.params();
    format!(
        "\"spec\":{},\"perf\":{{\"dcu_threshold\":{},\"exponent\":{}}}",
        spec.to_json(),
        perf.dcu_threshold,
        perf.exponent
    )
}

/// The one median path: [`median_run`] and [`median_run_spec`] without
/// faults, the fault matrix with a fault plan per machine seed. `header`
/// and `infix` describe the runs in `--trace-out`. Returns the median
/// run's report and the faults that run injected.
pub(crate) fn median_run_impl(
    pool: &Pool,
    make_governor: &(dyn Fn() -> Result<Box<dyn Governor>> + Sync),
    header: Option<&str>,
    infix: &str,
    program: &PhaseProgram,
    table: &PStateTable,
    faults: Option<&(dyn Fn(u64) -> FaultConfig + Sync)>,
) -> Result<(RunReport, FaultStats)> {
    let observer = pool.observer().cloned();
    let cells: Vec<_> = RUN_SEEDS
        .into_iter()
        .map(|seed| {
            let observer = observer.clone();
            move || -> Result<(RunReport, FaultStats)> {
                let machine = {
                    let mut b = MachineConfig::builder();
                    b.pstates(table.clone()).seed(seed);
                    b.build()?
                };
                let sim = SimulationConfig {
                    seed: sim_seed(seed),
                    faults: faults.map_or_else(FaultConfig::default, |config| config(seed)),
                    ..SimulationConfig::default()
                };
                let mut governor = make_governor()?;
                // Metrics are enabled only when an observer is attached, so
                // un-observed suites pay nothing.
                let metrics =
                    if observer.is_some() { Metrics::enabled() } else { Metrics::disabled() };
                let (report, stats) = Session::builder(machine, program.clone())
                    .config(sim)
                    .governor(governor.as_mut())
                    .observer(&metrics)
                    .run()?;
                if let Some(observer) = &observer {
                    let label = format!("{}-{}{infix}-s{seed}", report.workload, report.governor);
                    observer.observe_run_with_spec(&label, &metrics, header);
                }
                Ok((report, stats))
            }
        })
        .collect();
    let runs = pool.run(cells).into_iter().collect::<Result<Vec<_>>>()?;
    select_median(runs)
}

/// Picks the median-execution-time run out of a set of seed runs.
///
/// # Errors
///
/// Returns [`PlatformError::NonFiniteMeasurement`] when any execution time
/// is NaN or ±∞ — a garbage median must not silently enter the results.
fn select_median(mut runs: Vec<(RunReport, FaultStats)>) -> Result<(RunReport, FaultStats)> {
    for (report, _) in &runs {
        let time = report.execution_time.seconds();
        if !time.is_finite() {
            return Err(PlatformError::NonFiniteMeasurement {
                quantity: "execution time",
                value: time,
            });
        }
    }
    runs.sort_by(|(a, _), (b, _)| {
        a.execution_time.seconds().total_cmp(&b.execution_time.seconds())
    });
    Ok(runs.swap_remove(runs.len() / 2))
}

/// Measures the FMA-256K worst-case power at every p-state (our Table III):
/// mean measured power over a window of settled 10 ms samples.
///
/// All eight p-state cells run the same program at the same 10 ms cadence
/// with no governor, as one pool cell that ticks and samples each machine
/// in turn; each machine's DAQ draws from its own noise stream.
///
/// # Errors
///
/// Propagates platform errors.
pub fn worst_case_power_curve(pool: &Pool, table: &PStateTable) -> Result<Vec<(MegaHertz, Watts)>> {
    let fma: CharacterizedLoop =
        characterize_with_budget(MicroLoop::Fma, Footprint::L2, 4_000_000_000)?;
    let fma = &fma;
    let cell = move || -> Result<Vec<(MegaHertz, Watts)>> {
        let tick = Seconds::from_millis(10.0);
        let samples = 50;
        let mut curve = Vec::new();
        for (pstate, state) in table.iter() {
            let machine_config = {
                let mut b = MachineConfig::builder();
                b.pstates(table.clone()).initial_pstate(pstate).seed(0xFA_256);
                b.build()?
            };
            let mut machine = Machine::new(machine_config, fma.program());
            let mut daq = PowerDaq::new(DaqConfig::default(), 0xFA_256 ^ pstate.index() as u64);
            // Settle, then average 50 samples.
            for _ in 0..5 {
                machine.tick(tick);
                let _ = daq.sample(&machine);
            }
            let mut sum = 0.0;
            for _ in 0..samples {
                machine.tick(tick);
                sum += daq.sample(&machine).power.watts();
            }
            curve.push((state.frequency(), Watts::new(sum / f64::from(samples))));
        }
        Ok(curve)
    };
    pool.run(vec![cell]).into_iter().next().expect("one cell was submitted")
}

/// Derives the static-clocking frequency for each power limit (our
/// Table IV): the highest p-state whose worst-case power stays at or below
/// the limit. Falls back to the lowest state when even it exceeds the
/// limit.
pub fn static_frequency_for_limit(
    curve: &[(MegaHertz, Watts)],
    table: &PStateTable,
    limit: PowerLimit,
) -> PStateId {
    let mut choice = table.lowest();
    for (idx, (_, watts)) in curve.iter().enumerate() {
        if *watts <= limit.watts() {
            choice = PStateId::new(idx);
        }
    }
    choice
}

/// The eight power limits of the paper's PM evaluation: 17.5 W down to
/// 10.5 W in 1 W steps.
pub fn pm_power_limits() -> Vec<PowerLimit> {
    (0..8)
        .map(|i| PowerLimit::new(17.5 - i as f64).expect("limits are positive"))
        .collect()
}

/// The four performance floors of the paper's PS evaluation.
pub fn ps_floors() -> Vec<f64> {
    vec![0.8, 0.6, 0.4, 0.2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use aapm::baselines::Unconstrained;
    use aapm_models::perf_model::{PerfModel, PerfModelParams};
    use aapm_platform::phase::PhaseDescriptor;

    fn program() -> PhaseProgram {
        let phase = PhaseDescriptor::builder("w")
            .instructions(400_000_000)
            .core_cpi(0.8)
            .build()
            .unwrap();
        PhaseProgram::from_phase(phase)
    }

    #[test]
    fn median_run_is_deterministic() {
        let table = PStateTable::pentium_m_755();
        let factory = || Box::new(Unconstrained::new()) as Box<dyn Governor>;
        let pool = Pool::serial();
        let a = median_run(&pool, "", &factory, &program(), &table).unwrap();
        let b = median_run(&pool, "", &factory, &program(), &table).unwrap();
        assert_eq!(a.execution_time, b.execution_time);
        assert!(a.completed);
    }

    #[test]
    fn median_run_matches_across_pool_widths() {
        let table = PStateTable::pentium_m_755();
        let factory = || Box::new(Unconstrained::new()) as Box<dyn Governor>;
        let serial = median_run(&Pool::new(1), "", &factory, &program(), &table).unwrap();
        let parallel = median_run(&Pool::new(8), "", &factory, &program(), &table).unwrap();
        assert_eq!(serial.execution_time, parallel.execution_time);
        assert_eq!(serial.measured_energy, parallel.measured_energy);
        assert_eq!(serial.transitions, parallel.transitions);
    }

    #[test]
    fn spec_runs_match_factory_runs() {
        let table = PStateTable::pentium_m_755();
        let factory = || Box::new(Unconstrained::new()) as Box<dyn Governor>;
        let pool = Pool::serial();
        let a = median_run(&pool, "", &factory, &program(), &table).unwrap();
        let b = median_run_spec(
            &pool,
            &GovernorSpec::Unconstrained,
            &SpecModels::default(),
            &program(),
            &table,
        )
        .unwrap();
        assert_eq!(a.execution_time, b.execution_time);
        assert_eq!(a.measured_energy, b.measured_energy);
        assert_eq!(a.governor, b.governor);
    }

    /// fig2 reads its 2000 MHz column from the sweep's unconstrained runs,
    /// so they must be the static-clock runs at the top p-state, bit for
    /// bit.
    #[test]
    fn unconstrained_runs_as_a_static_clock_at_the_top_pstate() {
        let ctx = crate::test_support::test_ctx();
        let pool = Pool::serial();
        let top = GovernorSpec::StaticClock { pstate: ctx.table().highest().index() };
        for name in ["swim", "gap", "sixtrack"] {
            let program = aapm_workloads::spec::by_name(name).expect("known benchmark");
            let models = SpecModels::default();
            let run = |spec: &GovernorSpec| {
                let report =
                    median_run_spec(&pool, spec, &models, program.program(), ctx.table()).unwrap();
                (
                    report.execution_time.seconds().to_bits(),
                    report.measured_energy.joules().to_bits(),
                    report.true_energy.joules().to_bits(),
                    report.transitions,
                )
            };
            assert_eq!(run(&GovernorSpec::Unconstrained), run(&top), "{name}");
        }
    }

    /// Every trace file names the cell that produced it: a spec run's
    /// header carries the performance model's parameters, and a closure
    /// run's label carries the value its closure sets.
    #[test]
    fn trace_files_name_their_cell() {
        let dir = std::env::temp_dir().join(format!("aapm-runner-labels-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let observer = std::sync::Arc::new(crate::RunObserver::new(Some(dir.clone())));
        let pool = Pool::with_observer(1, std::sync::Arc::clone(&observer));
        let table = PStateTable::pentium_m_755();
        let ps = GovernorSpec::Ps { floor: 0.8 };
        for params in [PerfModelParams::paper(), PerfModelParams::paper_alternate()] {
            let models = SpecModels { perf: PerfModel::new(params), ..SpecModels::default() };
            median_run_spec(&pool, &ps, &models, &program(), &table).unwrap();
        }
        let factory = || Box::new(Unconstrained::new()) as Box<dyn Governor>;
        median_run(&pool, "-gb0.25", &factory, &program(), &table).unwrap();
        observer.finish(None).unwrap();

        let mut headers = Vec::new();
        let mut closure_runs = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with("w-ps-s11-") {
                let body = std::fs::read_to_string(&path).unwrap();
                headers.push(body.lines().next().unwrap().to_owned());
            }
            closure_runs += usize::from(name.starts_with("w-unconstrained-gb0.25-s"));
        }
        headers.sort();
        let header = |exponent: &str| {
            format!(
                "{{\"t\":0.000000,\"event\":\"run_spec\",\"spec\":{{\"kind\":\"ps\",\"floor\":0.8}},\
                 \"perf\":{{\"dcu_threshold\":1.21,\"exponent\":{exponent}}}}}"
            )
        };
        assert_eq!(headers, vec![header("0.59"), header("0.81")], "one file per exponent");
        assert_eq!(closure_runs, 3, "each seed's closure run carries the infix");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sim_seed_is_the_documented_convention() {
        assert_eq!(sim_seed(0), SIM_SEED_SALT);
        assert_eq!(sim_seed(0x5EED), 0);
        for seed in RUN_SEEDS {
            assert_eq!(sim_seed(seed), seed ^ 0x5EED);
            assert_eq!(sim_seed(sim_seed(seed)), seed, "XOR salt must be an involution");
        }
    }

    #[test]
    fn select_median_rejects_non_finite_times() {
        let table = PStateTable::pentium_m_755();
        let factory = || Box::new(Unconstrained::new()) as Box<dyn Governor>;
        let pool = Pool::serial();
        let good = median_run(&pool, "", &factory, &program(), &table).unwrap();
        let inf = Seconds::new(f64::INFINITY);
        // `Seconds::new` rejects NaN, but arithmetic can still produce one.
        let nan = inf - inf;
        for bad_time in [nan, inf, Seconds::new(f64::NEG_INFINITY)] {
            let mut bad = good.clone();
            bad.execution_time = bad_time;
            let run = |report: RunReport| (report, FaultStats::default());
            let result = select_median(vec![run(good.clone()), run(bad), run(good.clone())]);
            match result {
                Err(PlatformError::NonFiniteMeasurement { quantity, .. }) => {
                    assert_eq!(quantity, "execution time");
                }
                other => panic!("expected NonFiniteMeasurement, got {other:?}"),
            }
        }
    }

    #[test]
    fn worst_case_curve_is_monotone_and_matches_table_iii_scale() {
        let table = PStateTable::pentium_m_755();
        let curve = worst_case_power_curve(&Pool::serial(), &table).unwrap();
        assert_eq!(curve.len(), 8);
        let mut last = Watts::ZERO;
        for &(_, w) in &curve {
            assert!(w > last, "worst-case power must grow with frequency");
            last = w;
        }
        // Paper Table III: 3.86 W at 600 MHz, 17.78 W at 2 GHz. The
        // simulated platform should land within ~15 %.
        let low = curve[0].1.watts();
        let high = curve[7].1.watts();
        assert!((low - 3.86).abs() < 0.6, "600 MHz worst case {low:.2} vs paper 3.86");
        assert!((high - 17.78).abs() < 2.7, "2 GHz worst case {high:.2} vs paper 17.78");
    }

    #[test]
    fn static_frequencies_follow_the_curve() {
        let table = PStateTable::pentium_m_755();
        let curve = worst_case_power_curve(&Pool::serial(), &table).unwrap();
        // Tighter limits must never pick higher frequencies.
        let mut last = usize::MAX;
        for limit in pm_power_limits() {
            let id = static_frequency_for_limit(&curve, &table, limit);
            assert!(id.index() <= last);
            last = id.index();
        }
        // An absurdly low limit falls back to the lowest state.
        let floor =
            static_frequency_for_limit(&curve, &table, PowerLimit::new(0.1).unwrap());
        assert_eq!(floor, table.lowest());
    }

    /// FNV-1a over the fault-free, command-free feedback-pm and phase-pm
    /// runs of `ablation-feedback` and `ablation-phase`, seed by seed:
    /// every trace p-state and measured-power bit, the execution time,
    /// both energies and the transitions. Both governors decide through
    /// PM's control law, so a change to that law that moves any of their
    /// decisions moves the hash.
    #[test]
    fn pm_family_ablation_runs_are_pinned() {
        let ctx = crate::test_support::test_ctx();
        let models = ctx.spec_models();
        let mut cells: Vec<(&str, GovernorSpec)> = [17.5, 15.5, 13.5, 11.5]
            .into_iter()
            .map(|limit_w| ("galgel", GovernorSpec::FeedbackPm { limit_w }))
            .collect();
        let phase = [("ammp", 10.5), ("ammp", 12.5), ("galgel", 13.5), ("galgel", 15.5)];
        for (bench, limit_w) in phase {
            cells.push((bench, GovernorSpec::PhasePm { limit_w }));
        }
        let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
        let mut mix = |bits: u64| hash = (hash ^ bits).wrapping_mul(0x0000_0100_0000_01B3);
        for (bench, spec) in &cells {
            let program = aapm_workloads::spec::by_name(bench).expect("known benchmark");
            for seed in RUN_SEEDS {
                let machine = {
                    let mut b = MachineConfig::builder();
                    b.pstates(ctx.table().clone()).seed(seed);
                    b.build().unwrap()
                };
                let sim = SimulationConfig { seed: sim_seed(seed), ..SimulationConfig::default() };
                let mut governor = spec.build(&models).unwrap();
                let (report, _) = Session::builder(machine, program.program().clone())
                    .config(sim)
                    .governor(governor.as_mut())
                    .run()
                    .unwrap();
                for record in report.trace.records() {
                    mix(record.pstate.index() as u64);
                    mix(record.power.watts().to_bits());
                }
                mix(report.execution_time.seconds().to_bits());
                mix(report.measured_energy.joules().to_bits());
                mix(report.true_energy.joules().to_bits());
                mix(report.transitions);
            }
        }
        assert_eq!(hash, 0x4C81_44F1_B7D0_B384, "PM-family ablation runs moved: {hash:#018X}");
    }

    #[test]
    fn limits_and_floors_match_paper() {
        let limits = pm_power_limits();
        assert_eq!(limits.len(), 8);
        assert!((limits[0].watts().watts() - 17.5).abs() < 1e-12);
        assert!((limits[7].watts().watts() - 10.5).abs() < 1e-12);
        assert_eq!(ps_floors(), vec![0.8, 0.6, 0.4, 0.2]);
    }
}
