//! # aapm-experiments — regenerating every table and figure
//!
//! One module per table/figure of the paper's evaluation, plus the prose
//! PM-adherence sweep, the headline-claims summary, and ablations. Each
//! module exposes `run(&ExperimentContext, &Pool) -> Result<ExperimentOutput>`
//! and fans its independent cells over the [`pool`] job pool; the
//! `aapm-experiments` binary drives them. Figures 6, 7 and 9–11,
//! pm-adherence and headline are views of the shared suite sweep
//! ([`ps_sweep`]): each also exposes a `run_with` that formats a computed
//! sweep, and [`run_suite`] computes the sweep once for all seven.
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
//! | ablation-throttle/-thermal | actuator studies | [`ablation_actuators`] |
//! | adaptive | static vs online-refit power model | [`adaptive`] |
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

use aapm_platform::error::Result;

/// Ids of all experiments, in presentation order.
pub const ALL_IDS: [&str; 31] = [
    "fig1", "fig2", "tab1", "tab2", "tab3", "tab4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "fig10", "fig11", "pm-adherence", "headline", "ablation-guardband", "ablation-window",
    "ablation-feedback", "ablation-dbs", "ablation-throttle", "ablation-thermal", "ablation-deepcap", "ablation-phase", "adaptive", "signatures", "model-error", "efficiency",
    "fault-matrix", "fleet", "serve", "all",
];

/// Runs one experiment by id (`"all"` is handled by callers).
///
/// # Errors
///
/// Propagates platform errors; unknown ids return an `InvalidConfig` error.
pub fn run_by_id(ctx: &ExperimentContext, pool: &Pool, id: &str) -> Result<Vec<ExperimentOutput>> {
    let single = |out: ExperimentOutput| Ok(vec![out]);
    match id {
        "fig1" => single(fig01_power_variation::run(ctx, pool)?),
        "fig2" => single(fig02_pstate_impact::run(ctx, pool)?),
        "tab1" => single(tab01_microbench::run(ctx, pool)?),
        "tab2" => single(tab02_power_model::run(ctx, pool)?),
        "tab3" => single(tab03_worst_case::run(ctx, pool)?),
        "tab4" => single(tab04_static_freq::run(ctx, pool)?),
        "fig5" => single(fig05_pm_trace::run(ctx, pool)?),
        "fig6" => single(fig06_perf_vs_limit::run(ctx, pool)?),
        "fig7" => single(fig07_pm_speedup::run(ctx, pool)?),
        "fig8" => single(fig08_ps_trace::run(ctx, pool)?),
        "fig9" => single(fig09_ps_suite::run(ctx, pool)?),
        "fig10" => single(fig10_ps_energy::run(ctx, pool)?),
        "fig11" => single(fig11_ps_perf::run(ctx, pool)?),
        "pm-adherence" => single(pm_adherence::run(ctx, pool)?),
        "headline" => single(headline::run(ctx, pool)?),
        "ablation-guardband" => single(ablations::guardband(ctx, pool)?),
        "ablation-window" => single(ablations::raise_window(ctx, pool)?),
        "ablation-feedback" => single(ablations::feedback(ctx, pool)?),
        "ablation-dbs" => single(ablations::dbs(ctx, pool)?),
        "ablation-throttle" => single(ablation_actuators::throttle_vs_dvfs(ctx, pool)?),
        "ablation-thermal" => single(ablation_actuators::thermal_envelope(ctx, pool)?),
        "ablation-deepcap" => single(ablation_actuators::deep_caps(ctx, pool)?),
        "ablation-phase" => single(ablation_actuators::phase_pm(ctx, pool)?),
        "adaptive" => single(adaptive::run(ctx, pool)?),
        "signatures" => single(signatures::run(ctx, pool)?),
        "model-error" => single(model_error::run(ctx, pool)?),
        "efficiency" => single(efficiency::run(ctx, pool)?),
        "fault-matrix" => single(fault_matrix::run(ctx, pool)?),
        "fleet" => single(fleet::run(ctx, pool)?),
        "serve" => single(serve::run(ctx, pool)?),
        "all" => run_suite(ctx, pool),
        other => Err(aapm_platform::error::PlatformError::InvalidConfig {
            parameter: "experiment",
            reason: format!("unknown experiment id `{other}`; known: {ALL_IDS:?}"),
        }),
    }
}

/// Runs the full suite: the shared sweep ([`ps_sweep`]) first, fanned over
/// the whole pool, then every experiment as one wave in presentation
/// order, with the sweep's views formatting the sweep.
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
    let cells: Vec<_> = ALL_IDS
        .into_iter()
        .filter(|&id| id != "all")
        .map(|id| {
            move || match id {
                "fig6" => Ok(vec![fig06_perf_vs_limit::run_with(sweep)]),
                "fig7" => Ok(vec![fig07_pm_speedup::run_with(sweep)]),
                "fig9" => Ok(vec![fig09_ps_suite::run_with(sweep)]),
                "fig10" => Ok(vec![fig10_ps_energy::run_with(sweep)]),
                "fig11" => Ok(vec![fig11_ps_perf::run_with(sweep)]),
                "pm-adherence" => Ok(vec![pm_adherence::run_with(sweep)]),
                "headline" => headline::run_with(ctx, pool, sweep).map(|out| vec![out]),
                _ => run_by_id(ctx, pool, id),
            }
        })
        .collect();
    let mut outputs = Vec::new();
    for outs in pool.run(cells).into_iter().collect::<Result<Vec<_>>>()? {
        outputs.extend(outs);
    }
    Ok(outputs)
}
