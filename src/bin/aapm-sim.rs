//! `aapm-sim` — run any workload under any governor and inspect the result.
//!
//! ```text
//! aapm-sim --workload ammp --governor pm --limit 14.5
//! aapm-sim --workload swim --governor ps --floor 0.8 --trace trace.csv
//! aapm-sim --workload crafty --governor thermal-pm --limit 17.5 --cap 72
//! aapm-sim --list-workloads
//! ```
//!
//! Governors: `unconstrained`, `static-<mhz>`, `dbs`, `pm`, `pm-feedback`,
//! `thermal-pm`, `ps`, `ps-alt` (exponent 0.59), `throttle-save`.
//! `pm`-family governors train the power model on the MS-Loops first
//! (paper §III.A) unless `--paper-model` selects the published Table II
//! coefficients.

use std::fmt::Write as _;
use std::process::ExitCode;

use aapm::baselines::{DemandBasedSwitching, StaticClock, Unconstrained};
use aapm::feedback::FeedbackPm;
use aapm::governor::Governor;
use aapm::limits::{PerformanceFloor, PowerLimit};
use aapm::pm::PerformanceMaximizer;
use aapm::ps::PowerSave;
use aapm::runtime::{Session, SimulationConfig};
use aapm::thermal_guard::ThermalGuard;
use aapm::throttle_save::ThrottleSave;
use aapm_models::perf_model::{PerfModel, PerfModelParams};
use aapm_models::power_model::PowerModel;
use aapm_models::training::{collect_training_data, train_power_model, TrainingConfig};
use aapm_platform::config::MachineConfig;
use aapm_platform::pstate::PStateTable;
use aapm_platform::thermal::Celsius;
use aapm_platform::units::MegaHertz;
use aapm_workloads::spec;

#[derive(Debug)]
struct Args {
    workload: String,
    governor: String,
    limit: f64,
    floor: f64,
    cap: f64,
    seed: u64,
    scale: f64,
    paper_model: bool,
    trace_path: Option<String>,
    workload_file: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            workload: "ammp".into(),
            governor: "pm".into(),
            limit: 14.5,
            floor: 0.8,
            cap: 77.0,
            seed: 42,
            scale: 1.0,
            paper_model: false,
            trace_path: None,
            workload_file: None,
        }
    }
}

fn usage() {
    eprintln!(
        "usage: aapm-sim [--workload NAME | --workload-file FILE] [--governor G]\n\
        \u{20}               [--limit W] [--floor F]\n\
        \u{20}               [--cap C] [--seed N] [--scale X] [--paper-model] [--trace FILE]\n\
        \u{20}      aapm-sim --list-workloads | --list-governors"
    );
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args::default();
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--list-workloads" => {
                for b in spec::suite() {
                    println!("{}", b.name());
                }
                return Ok(None);
            }
            "--list-governors" => {
                for g in [
                    "unconstrained",
                    "static-<mhz>",
                    "dbs",
                    "pm",
                    "pm-feedback",
                    "thermal-pm",
                    "ps",
                    "ps-alt",
                    "throttle-save",
                ] {
                    println!("{g}");
                }
                return Ok(None);
            }
            "--workload" => args.workload = value("--workload")?,
            "--workload-file" => args.workload_file = Some(value("--workload-file")?),
            "--governor" => args.governor = value("--governor")?,
            "--limit" => {
                args.limit = value("--limit")?.parse().map_err(|e| format!("--limit: {e}"))?
            }
            "--floor" => {
                args.floor = value("--floor")?.parse().map_err(|e| format!("--floor: {e}"))?
            }
            "--cap" => args.cap = value("--cap")?.parse().map_err(|e| format!("--cap: {e}"))?,
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--scale" => {
                args.scale = value("--scale")?.parse().map_err(|e| format!("--scale: {e}"))?
            }
            "--paper-model" => args.paper_model = true,
            "--trace" => args.trace_path = Some(value("--trace")?),
            "--help" | "-h" => {
                usage();
                return Ok(None);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Some(args))
}

fn power_model(args: &Args, table: &PStateTable) -> Result<PowerModel, String> {
    if args.paper_model {
        return Ok(PowerModel::paper_table_ii());
    }
    eprintln!("training the power model on the MS-Loops (use --paper-model to skip)…");
    let data = collect_training_data(&TrainingConfig::default(), table)
        .map_err(|e| format!("training failed: {e}"))?;
    train_power_model(&data).map_err(|e| format!("fit failed: {e}"))
}

fn build_governor(args: &Args, table: &PStateTable) -> Result<Box<dyn Governor>, String> {
    let limit = PowerLimit::new(args.limit).map_err(|e| e.to_string())?;
    let floor = PerformanceFloor::new(args.floor).map_err(|e| e.to_string())?;
    Ok(match args.governor.as_str() {
        "unconstrained" => Box::new(Unconstrained::new()),
        "dbs" => Box::new(DemandBasedSwitching::new()),
        "pm" => Box::new(PerformanceMaximizer::new(power_model(args, table)?, limit)),
        "pm-feedback" => Box::new(FeedbackPm::new(power_model(args, table)?, limit)),
        "thermal-pm" => Box::new(ThermalGuard::with_cap(
            PerformanceMaximizer::new(power_model(args, table)?, limit),
            Celsius::new(args.cap),
        )),
        "ps" => Box::new(PowerSave::new(PerfModel::new(PerfModelParams::paper()), floor)),
        "ps-alt" => {
            Box::new(PowerSave::new(PerfModel::new(PerfModelParams::paper_alternate()), floor))
        }
        "throttle-save" => Box::new(ThrottleSave::new(floor)),
        other => {
            if let Some(mhz) = other.strip_prefix("static-") {
                let mhz: u32 = mhz.parse().map_err(|e| format!("static frequency: {e}"))?;
                let id = table
                    .id_of_frequency(MegaHertz::new(mhz))
                    .map_err(|e| e.to_string())?;
                Box::new(StaticClock::new(id))
            } else {
                return Err(format!("unknown governor `{other}` (see --list-governors)"));
            }
        }
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            usage();
            return ExitCode::FAILURE;
        }
    };

    let base_program = if let Some(path) = &args.workload_file {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match aapm_workloads::dsl::parse_program(&text) {
            Ok(program) => program,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let Some(bench) = spec::by_name(&args.workload) else {
            eprintln!("error: unknown workload `{}` (see --list-workloads)", args.workload);
            return ExitCode::FAILURE;
        };
        bench.program().clone()
    };
    let table = PStateTable::pentium_m_755();
    let mut governor = match build_governor(&args, &table) {
        Ok(governor) => governor,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };

    let program = base_program.scaled(args.scale);
    let report = match Session::builder(MachineConfig::pentium_m_755(args.seed), program)
        .config(SimulationConfig { seed: args.seed ^ 0x51_0b, ..SimulationConfig::default() })
        .governor(governor.as_mut())
        .run()
    {
        Ok((report, _faults)) => report,
        Err(e) => {
            eprintln!("run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("workload   : {}", report.workload);
    println!("governor   : {}", report.governor);
    println!("completed  : {}", report.completed);
    println!("time       : {}", report.execution_time);
    println!("energy     : {}", report.measured_energy);
    if let Some(mean) = report.mean_power() {
        println!("mean power : {mean}");
    }
    if let Some(max) = report.max_power() {
        println!("peak sample: {max}");
    }
    let max_window =
        report.trace.moving_average_power(10).into_iter().fold(0.0f64, f64::max);
    println!("peak 100ms : {max_window:.3} W");
    println!("transitions: {}", report.transitions);
    println!("residency  :");
    for (id, fraction) in report.trace.pstate_residency() {
        let mhz = table.get(id).map(|s| s.frequency().mhz()).unwrap_or(0);
        println!("  {mhz:>5} MHz  {:>5.1}%", fraction * 100.0);
    }

    if let Some(path) = &args.trace_path {
        let mut csv = String::from("t_ms,power_w,true_power_w,freq_mhz,ipc,dpc\n");
        for r in report.trace.records() {
            let mhz = table.get(r.pstate).map(|s| s.frequency().mhz()).unwrap_or(0);
            let _ = writeln!(
                csv,
                "{:.0},{:.4},{:.4},{},{},{}",
                r.time.millis(),
                r.power.watts(),
                r.true_power.watts(),
                mhz,
                r.ipc.map_or_else(|| "".into(), |v| format!("{v:.4}")),
                r.dpc.map_or_else(|| "".into(), |v| format!("{v:.4}")),
            );
        }
        if let Err(e) = std::fs::write(path, csv) {
            eprintln!("failed to write trace: {e}");
            return ExitCode::FAILURE;
        }
        println!("trace      : {path}");
    }
    ExitCode::SUCCESS
}
