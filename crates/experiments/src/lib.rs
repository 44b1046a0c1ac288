//! # aapm-experiments — regenerating every table and figure
//!
//! One module per table/figure of the paper's evaluation, plus the prose
//! PM-adherence sweep, the headline-claims summary, and ablations. Each
//! experiment fans its independent cells over the [`pool`] job pool; the
//! `aapm-experiments` binary drives them. One table ([`ids`] lists it)
//! says how each id runs: on its own, as `run(&ExperimentContext, &Pool)`,
//! or by reading the shared suite sweep ([`ps_sweep`]), which holds every
//! benchmark's unconstrained reference, PM and the Table-IV static clock
//! at each limit, and PS at each floor and exponent. Figures 2, 6, 7 and
//! 9–11, pm-adherence, headline and efficiency only format the sweep; fig8
//! and the feedback, DBS, throttle, deep-cap and phase ablations read their
//! reference runs from it and run the governor they study. [`run_suite`]
//! computes the sweep once for all of them; [`run_by_id`] computes it
//! only for an id that reads it.
//!
//! | id | paper content | module |
//! |---|---|---|
//! | fig1 | suite power variation at 2 GHz | [`fig01_power_variation`] |
//! | fig2 | p-state impact on swim/gap/sixtrack | [`fig02_pstate_impact`] |
//! | tab1 | MS-Loops roster + characterization | [`tab01_microbench`] |
//! | tab2 | per-p-state power model | [`tab02_power_model`] |
//! | tab3 | FMA-256K worst-case power curve | [`tab03_worst_case`] |
//! | tab4 | limit → static frequency | [`tab04_static_freq`] |
//! | fig5 | PM trace on ammp | [`fig05_pm_trace`] |
//! | fig6 | suite performance vs limit | [`fig06_perf_vs_limit`] |
//! | fig7 | per-benchmark PM speedup at 17.5 W | [`fig07_pm_speedup`] |
//! | fig8 | PS trace on ammp | [`fig08_ps_trace`] |
//! | fig9 | suite reduction/savings vs floor | [`fig09_ps_suite`] |
//! | fig10 | per-benchmark energy savings | [`fig10_ps_energy`] |
//! | fig11 | per-benchmark perf reduction | [`fig11_ps_perf`] |
//! | pm-adherence | §IV.A.2 limit enforcement | [`pm_adherence`] |
//! | headline | paper-vs-reproduction claims | [`headline`] |
//! | ablation-* | guardband/window/feedback/DBS | [`ablations`] |
//! | ablation-throttle/-thermal/-deepcap/-phase | actuator studies | [`ablation_actuators`] |
//! | adaptive | static vs online-refit power model | [`adaptive`] |
//! | efficiency | energy/EDP/ED²P per governor | [`efficiency`] |
//! | fault-matrix | robustness under injected faults | [`fault_matrix`] |
//! | fleet | hierarchical vs uniform fleet budgets | [`fleet`] |
//! | serve | SLO governor vs static cap on open-loop traffic | [`serve`] |

pub mod ablation_actuators;
pub mod ablations;
pub mod adaptive;
pub mod context;
pub mod efficiency;
pub mod fault_matrix;
pub mod fig01_power_variation;
pub mod fig02_pstate_impact;
pub mod fig05_pm_trace;
pub mod fig06_perf_vs_limit;
pub mod fig07_pm_speedup;
pub mod fig08_ps_trace;
pub mod fig09_ps_suite;
pub mod fig10_ps_energy;
pub mod fig11_ps_perf;
pub mod fleet;
pub mod headline;
pub mod model_error;
pub mod observe;
pub mod output;
pub mod pm_adherence;
pub mod pool;
pub mod ps_sweep;
pub mod runner;
pub mod serve;
pub mod signatures;
pub mod tab01_microbench;
pub mod tab02_power_model;
pub mod tab03_worst_case;
pub mod tab04_static_freq;
pub mod table;
#[cfg(test)]
mod test_support;

pub use context::ExperimentContext;
pub use observe::RunObserver;
pub use output::ExperimentOutput;
pub use pool::Pool;

use aapm_platform::error::{PlatformError, Result};

use crate::ps_sweep::PsSweep;

/// How an experiment gets its runs.
#[derive(Clone, Copy)]
enum Runs {
    /// It runs everything it shows.
    Own(fn(&ExperimentContext, &Pool) -> Result<ExperimentOutput>),
    /// It reads the shared suite sweep, and runs only what the sweep lacks.
    Sweep(fn(&ExperimentContext, &Pool, &PsSweep) -> Result<ExperimentOutput>),
}

/// Every experiment, in presentation order, with how it runs.
const EXPERIMENTS: [(&str, Runs); 30] = [
    ("fig1", Runs::Own(fig01_power_variation::run)),
    ("fig2", Runs::Sweep(|_, _, sweep| Ok(fig02_pstate_impact::run_with(sweep)))),
    ("tab1", Runs::Own(tab01_microbench::run)),
    ("tab2", Runs::Own(tab02_power_model::run)),
    ("tab3", Runs::Own(tab03_worst_case::run)),
    ("tab4", Runs::Own(tab04_static_freq::run)),
    ("fig5", Runs::Own(fig05_pm_trace::run)),
    ("fig6", Runs::Sweep(|_, _, sweep| Ok(fig06_perf_vs_limit::run_with(sweep)))),
    ("fig7", Runs::Sweep(|_, _, sweep| Ok(fig07_pm_speedup::run_with(sweep)))),
    ("fig8", Runs::Sweep(fig08_ps_trace::run)),
    ("fig9", Runs::Sweep(|_, _, sweep| Ok(fig09_ps_suite::run_with(sweep)))),
    ("fig10", Runs::Sweep(|_, _, sweep| Ok(fig10_ps_energy::run_with(sweep)))),
    ("fig11", Runs::Sweep(|_, _, sweep| Ok(fig11_ps_perf::run_with(sweep)))),
    ("pm-adherence", Runs::Sweep(|_, _, sweep| Ok(pm_adherence::run_with(sweep)))),
    ("headline", Runs::Sweep(headline::run_with)),
    ("ablation-guardband", Runs::Own(ablations::guardband)),
    ("ablation-window", Runs::Own(ablations::raise_window)),
    ("ablation-feedback", Runs::Sweep(ablations::feedback)),
    ("ablation-dbs", Runs::Sweep(ablations::dbs)),
    ("ablation-throttle", Runs::Sweep(ablation_actuators::throttle_vs_dvfs)),
    ("ablation-thermal", Runs::Own(ablation_actuators::thermal_envelope)),
    ("ablation-deepcap", Runs::Sweep(ablation_actuators::deep_caps)),
    ("ablation-phase", Runs::Sweep(ablation_actuators::phase_pm)),
    ("adaptive", Runs::Own(adaptive::run)),
    ("signatures", Runs::Own(signatures::run)),
    ("model-error", Runs::Own(model_error::run)),
    ("efficiency", Runs::Sweep(|_, _, sweep| Ok(efficiency::run_with(sweep)))),
    ("fault-matrix", Runs::Own(fault_matrix::run)),
    ("fleet", Runs::Own(fleet::run)),
    ("serve", Runs::Own(serve::run)),
];

/// Every id [`run_by_id`] accepts, in presentation order: each
/// experiment's, then `all`.
pub fn ids() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS.iter().map(|&(id, _)| id).chain(["all"])
}

/// Checks that `id` names an experiment or `all`, without running
/// anything.
///
/// # Errors
///
/// Unknown ids return an `InvalidConfig` error that lists the known ones.
pub fn check_id(id: &str) -> Result<()> {
    if ids().any(|known| known == id) {
        Ok(())
    } else {
        Err(unknown_id(id))
    }
}

fn unknown_id(id: &str) -> PlatformError {
    PlatformError::InvalidConfig {
        parameter: "experiment",
        reason: format!("unknown experiment id `{id}`; known: {:?}", ids().collect::<Vec<_>>()),
    }
}

/// Runs one experiment by id, or the whole suite for `"all"`. The shared
/// sweep is computed only for an experiment that reads it.
///
/// # Errors
///
/// Propagates platform errors; unknown ids return an `InvalidConfig` error.
pub fn run_by_id(ctx: &ExperimentContext, pool: &Pool, id: &str) -> Result<Vec<ExperimentOutput>> {
    match EXPERIMENTS.iter().find(|&&(known, _)| known == id) {
        Some((_, Runs::Own(run))) => Ok(vec![run(ctx, pool)?]),
        Some((_, Runs::Sweep(run))) => Ok(vec![run(ctx, pool, &ps_sweep::compute(ctx, pool)?)?]),
        None if id == "all" => run_suite(ctx, pool),
        None => Err(unknown_id(id)),
    }
}

/// Runs the full suite: the shared sweep ([`ps_sweep`]) first, fanned over
/// the whole pool, then every experiment as one wave in presentation
/// order, each that reads the sweep reading this one.
///
/// Cells are merged in submission order, so the output sequence (and every
/// byte in it) is identical whatever the pool width.
///
/// # Errors
///
/// Propagates the first failing experiment's error.
pub fn run_suite(ctx: &ExperimentContext, pool: &Pool) -> Result<Vec<ExperimentOutput>> {
    let sweep = ps_sweep::compute(ctx, pool)?;
    let sweep = &sweep;
    let cells: Vec<_> = EXPERIMENTS
        .iter()
        .map(|&(_, runs)| {
            move || match runs {
                Runs::Own(run) => run(ctx, pool),
                Runs::Sweep(run) => run(ctx, pool, sweep),
            }
        })
        .collect();
    pool.run(cells).into_iter().collect()
}
