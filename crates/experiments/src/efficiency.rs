//! Governor efficiency comparison: energy, EDP, ED²P.
//!
//! Beyond the paper's own metrics, this tabulates the classic efficiency
//! products for every governor on a representative workload mix. The
//! expected shape: PS wins on raw energy (it was designed to), the
//! unconstrained run wins on ED²P for core-bound work (performance
//! dominates), and PM sits between — it spends energy only where the limit
//! allows performance to buy something.
//!
//! A view of the shared suite sweep ([`ps_sweep`](crate::ps_sweep)): all
//! 15 (benchmark, governor) measures are sweep runs.

use crate::output::ExperimentOutput;
use crate::ps_sweep::{Exponent, Measure, PsSweep};
use crate::table::{f3, TextTable};

/// The representative mix: one memory-bound, one phased, one hot.
pub const MIX: [&str; 3] = ["swim", "ammp", "crafty"];

/// The governors compared, as the table labels them.
const GOVERNORS: [&str; 5] = ["unconstrained", "static-1400", "pm-13.5W", "ps-80%", "ps-60%"];

/// Formats the experiment from the sweep.
pub fn run_with(sweep: &PsSweep) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "efficiency",
        "Energy / EDP / ED²P per governor on a representative mix",
    );
    let mut table = TextTable::new(vec![
        "governor",
        "time_s",
        "energy_j",
        "edp_js",
        "ed2p_js2",
    ]);

    let static_1400 = sweep.clock_index(1400).expect("Table IV pins 1400 MHz");
    let pm = sweep.limit_index(13.5).expect("13.5 W is a sweep limit");
    // Each mix benchmark's measure under each of GOVERNORS, in order.
    let mix: Vec<[Measure; 5]> = MIX
        .into_iter()
        .map(|name| {
            let b = sweep.benchmark(name).expect("mix is in the suite");
            [
                b.unconstrained,
                b.limit_runs[static_1400].static_clock,
                b.limit_runs[pm].pm,
                *b.ps(Exponent::Primary, 0.8),
                *b.ps(Exponent::Primary, 0.6),
            ]
        })
        .collect();

    let mut rows = Vec::new();
    for (g, label) in GOVERNORS.into_iter().enumerate() {
        let mut time = 0.0;
        let mut energy = 0.0;
        for measures in &mix {
            time += measures[g].time_s;
            energy += measures[g].energy_j;
        }
        rows.push((label, time, energy));
        table.row(vec![
            label.into(),
            f3(time),
            f3(energy),
            f3(energy * time),
            f3(energy * time * time),
        ]);
    }
    out.table("efficiency", table);

    // Sanity highlights for the note.
    let by = |name: &str| rows.iter().find(|(l, _, _)| *l == name).expect("row exists");
    let (_, t_un, e_un) = by("unconstrained");
    let (_, t_ps, e_ps) = by("ps-80%");
    out.note(format!(
        "ps-80% trades {:.0}% more time for {:.0}% less energy than \
         unconstrained; EDP ranks the middle ground, ED²P leans back toward \
         performance",
        (t_ps / t_un - 1.0) * 100.0,
        (1.0 - e_ps / e_un) * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::test_sweep;

    #[test]
    fn efficiency_orderings_hold() {
        let out = run_with(test_sweep());
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
        // Unconstrained is fastest; PS-60% uses the least energy of the
        // DVFS governors.
        for other in ["static-1400", "pm-13.5W", "ps-80%", "ps-60%"] {
            assert!(get("unconstrained", 1) <= get(other, 1) + 1e-9, "{other} time");
        }
        assert!(get("ps-60%", 2) < get("unconstrained", 2));
        assert!(get("ps-60%", 2) <= get("ps-80%", 2) + 1e-9);
        // PM under a 13.5 W limit still beats static-1400 on time.
        assert!(get("pm-13.5W", 1) < get("static-1400", 1));
    }
}
