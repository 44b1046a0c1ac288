//! Figure 2 — workload-specific performance impact across three p-states.
//!
//! The paper shows relative performance at 1600/1800/2000 MHz for three
//! workloads spanning the spectrum: memory-bound `swim` (flat), in-between
//! `gap`, and core-bound `sixtrack` (linear in frequency).
//!
//! A view of the shared suite sweep ([`ps_sweep`](crate::ps_sweep)): 1600
//! and 1800 MHz are Table-IV static clocks the sweep runs for its limits,
//! and 2000 MHz is its unconstrained reference, which runs at the top
//! p-state throughout exactly as a static clock there would.

use crate::output::ExperimentOutput;
use crate::ps_sweep::PsSweep;
use crate::table::{f3, TextTable};

/// The three workloads of the paper's figure.
pub const WORKLOADS: [&str; 3] = ["swim", "gap", "sixtrack"];

/// The three p-state frequencies of the paper's figure.
pub const FREQUENCIES_MHZ: [u32; 3] = [1600, 1800, 2000];

/// Formats the experiment from the sweep: relative performance (time at
/// 2 GHz / time at f) for each workload × frequency.
pub fn run_with(sweep: &PsSweep) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "fig2",
        "Performance impact across p-states for swim / gap / sixtrack (paper Figure 2)",
    );
    let mut table = TextTable::new(vec!["benchmark", "1600MHz", "1800MHz", "2000MHz"]);
    let mut swim_range = 0.0f64;
    let mut sixtrack_range = 0.0f64;
    for name in WORKLOADS {
        let bench = sweep.benchmark(name).expect("figure workloads are in the suite");
        let times: Vec<f64> = FREQUENCIES_MHZ
            .into_iter()
            .map(|mhz| {
                if mhz == 2000 {
                    return bench.unconstrained.time_s;
                }
                let i = sweep.clock_index(mhz).expect("Table IV pins 1600 and 1800 MHz");
                bench.limit_runs[i].static_clock.time_s
            })
            .collect();
        let t2000 = times[2];
        let rel: Vec<f64> = times.iter().map(|t| t2000 / t).collect();
        table.row(vec![name.into(), f3(rel[0]), f3(rel[1]), f3(rel[2])]);
        if name == "swim" {
            swim_range = 1.0 - rel[0];
        }
        if name == "sixtrack" {
            sixtrack_range = 1.0 - rel[0];
        }
    }
    out.table("relative_performance", table);
    out.note(format!(
        "swim loses only {:.1}% from 2000→1600 MHz while sixtrack loses {:.1}% \
         (paper: swim minimal, sixtrack scales linearly — 20% would be the full ratio)",
        swim_range * 100.0,
        sixtrack_range * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::test_sweep;

    #[test]
    fn swim_flat_sixtrack_linear() {
        let out = run_with(test_sweep());
        let rows: Vec<Vec<String>> = out.tables[0]
            .1
            .to_csv()
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(str::to_owned).collect())
            .collect();
        let value = |bench: &str, col: usize| -> f64 {
            rows.iter().find(|r| r[0] == bench).unwrap()[col].parse().unwrap()
        };
        // swim at 1600 retains ≥ 95% of its 2 GHz performance.
        assert!(value("swim", 1) > 0.95, "swim 1600: {}", value("swim", 1));
        // sixtrack at 1600 retains ≈ 1600/2000 = 80%.
        assert!((value("sixtrack", 1) - 0.8).abs() < 0.02);
        // gap sits between them.
        assert!(value("gap", 1) > value("sixtrack", 1));
        assert!(value("gap", 1) < value("swim", 1));
    }
}
