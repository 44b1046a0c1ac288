//! ```text
//! aapm-perfbench --workload <paper-suite|serve-day|fleet-day|fault-soak>
//!                [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR]
//! ```
//!
//! Prints every metric by name with its unit, then, on the last line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`, the
//! per-layer ones, and the spans are written under the trace directory
//! (default: `perfbench-trace` in `$CARGO_TARGET_DIR`, else in `target`).

use std::path::PathBuf;
use std::process::ExitCode;

use aapm_perfbench::{run, Options, Size, Workload};

fn usage() -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: aapm-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--trace-dir DIR]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Option<Options> {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::PaperSuite,
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_dir: target.join("perfbench-trace"),
        size: Size::Full,
    };
    let mut pairs = args.chunks(2);
    for pair in &mut pairs {
        let [flag, value] = pair else {
            return None;
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value)?),
            "--seed" => opts.seed = value.parse().ok()?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                };
            }
            "--trace-dir" => opts.trace_dir = PathBuf::from(value),
            _ => return None,
        }
    }
    opts.workload = workload?;
    Some(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(opts) = parse(&args) else {
        return usage();
    };
    match run(&opts) {
        Ok(report) => {
            print!("{}", report.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {e}", opts.workload.name());
            ExitCode::FAILURE
        }
    }
}
