//! `paper-suite`: the user's headline command, `all` — model training,
//! then every table and figure of the paper (thousands of short governed
//! batch cells under the PM, PS and ablation stacks). It is the only
//! workload where training (cache simulation plus fits) and the job pool
//! matter. Its seeds are fixed by `RUN_SEEDS`, so `--seed` changes
//! nothing, and the committed `results/*.csv` are its oracle.
//!
//! Set-up per round: `ExperimentContext::train`. Units per round: the
//! suite on a one-wide pool (`unit_ms`) and on a two-wide pool
//! (`suite_j2_s`), alternating which runs first. Check: every CSV of every
//! run is byte-equal to the committed one.

use std::collections::BTreeMap;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use aapm::runtime::SimulationConfig;
use aapm::spec::GovernorSpec;
use aapm_experiments::runner::{sim_seed, RUN_SEEDS};
use aapm_experiments::{
    fig09_ps_suite, fig10_ps_energy, fig11_ps_perf, headline, ps_sweep, run_by_id, run_suite,
    ExperimentContext, ExperimentOutput, Pool,
};
use aapm_platform::config::MachineConfig;
use aapm_platform::error::Result;
use aapm_platform::pstate::PStateTable;
use aapm_workloads::spec;

use crate::decorators::{timed_stack, Source};
use crate::layers::training_components;
use crate::probe::Case;
use crate::stats::Digest;
use crate::{trace, Bench, Pass, Size};

/// `run_suite`'s first wave, before the shared PS sweep.
const SUITE_PRE: [&str; 10] = [
    "fig1", "fig2", "tab1", "tab2", "tab3", "tab4", "fig5", "fig6", "fig7", "fig8",
];

/// `run_suite`'s second wave, after the sweep-derived figures.
const SUITE_POST: [&str; 15] = [
    "ablation-guardband",
    "ablation-window",
    "ablation-feedback",
    "ablation-dbs",
    "ablation-throttle",
    "ablation-thermal",
    "ablation-deepcap",
    "ablation-phase",
    "adaptive",
    "signatures",
    "model-error",
    "efficiency",
    "fault-matrix",
    "fleet",
    "serve",
];

/// The span an experiment's time is booked under: the suite's largest
/// experiments get their own, the rest share one.
fn bucket(id: &str) -> &'static str {
    match id {
        "serve" => "suite.serve",
        "fig6" => "suite.fig6",
        "fig7" => "suite.fig7",
        "pm-adherence" => "suite.pm-adherence",
        _ => "suite.rest",
    }
}

/// The committed CSVs under the repository's `results/`, by file name.
fn committed_csvs() -> std::result::Result<BTreeMap<String, String>, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../results");
    let read = |e: std::io::Error| format!("cannot read {}: {e}", dir.display());
    let mut csvs = BTreeMap::new();
    for entry in std::fs::read_dir(&dir).map_err(read)? {
        let path = entry.map_err(read)?.path();
        if path.extension().is_some_and(|ext| ext == "csv") {
            let name = path
                .file_name()
                .expect("a listed file has a name")
                .to_string_lossy();
            csvs.insert(
                name.into_owned(),
                std::fs::read_to_string(&path).map_err(read)?,
            );
        }
    }
    if csvs.is_empty() {
        return Err(format!("no committed CSVs under {}", dir.display()));
    }
    Ok(csvs)
}

pub(crate) struct PaperSuite {
    size: Size,
    committed: std::result::Result<BTreeMap<String, String>, String>,
    table: PStateTable,
    ctx: Option<ExperimentContext>,
}

impl PaperSuite {
    pub(crate) fn new(size: Size) -> Self {
        PaperSuite {
            size,
            committed: committed_csvs(),
            table: PStateTable::pentium_m_755(),
            ctx: None,
        }
    }

    fn ctx(&self) -> &ExperimentContext {
        self.ctx
            .as_ref()
            .expect("set-up trains the context before any pass")
    }

    /// Checks one suite run against the committed CSVs and returns its
    /// digest, or why it does not match.
    fn check(
        &self,
        outputs: &Result<Vec<ExperimentOutput>>,
    ) -> std::result::Result<Digest, String> {
        let outputs = outputs.as_ref().map_err(|e| format!("suite failed: {e}"))?;
        let committed = self.committed.as_ref().map_err(Clone::clone)?;
        let produced: BTreeMap<String, String> = outputs
            .iter()
            .flat_map(|o| {
                o.tables
                    .iter()
                    .map(move |(name, t)| (format!("{}_{name}.csv", o.id), t.to_csv()))
            })
            .collect();
        if let Some(name) = committed.keys().find(|name| !produced.contains_key(*name)) {
            return Err(format!("{name} was not produced"));
        }
        let mut digest = Digest::default();
        for (name, csv) in &produced {
            if committed.get(name) != Some(csv) {
                return Err(format!("{name} differs from results/{name}"));
            }
            digest.bytes(name.as_bytes());
            digest.bytes(csv.as_bytes());
        }
        Ok(digest)
    }

    /// The suite in `run_suite`'s order on a one-wide pool, each
    /// experiment under its bucket's span.
    fn traced_suite(&self) -> Result<Vec<ExperimentOutput>> {
        let ctx = self.ctx();
        let pool = Pool::new(1);
        let mut outputs = Vec::new();
        for id in SUITE_PRE {
            let _span = trace::span(bucket(id));
            outputs.extend(run_by_id(ctx, &pool, id)?);
        }
        let sweep = {
            let _span = trace::span("suite.ps_sweep");
            ps_sweep::compute(ctx, &pool)?
        };
        {
            let _span = trace::span(bucket("fig9"));
            outputs.push(fig09_ps_suite::run_with(&sweep));
            outputs.push(fig10_ps_energy::run_with(&sweep));
            outputs.push(fig11_ps_perf::run_with(&sweep));
        }
        {
            let _span = trace::span(bucket("pm-adherence"));
            outputs.extend(run_by_id(ctx, &pool, "pm-adherence")?);
        }
        {
            let _span = trace::span("suite.headline");
            outputs.push(headline::run_with(ctx, &pool, &sweep)?);
        }
        for id in SUITE_POST {
            let _span = trace::span(bucket(id));
            outputs.extend(run_by_id(ctx, &pool, id)?);
        }
        Ok(outputs)
    }
}

impl Bench for PaperSuite {
    fn setup(&mut self, _seed: u64) -> Result<()> {
        if trace::enabled() {
            training_components(&self.table)?;
        }
        self.ctx = Some(ExperimentContext::train()?);
        Ok(())
    }

    fn pass(&mut self, round: usize, traced: bool) -> Result<Pass> {
        let mut pass = Pass::default();
        let mut digests = [Digest::default(); 2];
        let widths = if traced || round.is_multiple_of(2) {
            [1, 2]
        } else {
            [2, 1]
        };
        for jobs in widths {
            let pool = Pool::new(jobs);
            let t = Instant::now();
            let outputs = if jobs == 1 && traced {
                self.traced_suite()
            } else {
                let _span = trace::span("suite.j2");
                run_suite(self.ctx(), &pool)
            };
            let wall = t.elapsed();
            pass.attempted += 1;
            match self.check(&outputs) {
                Ok(digest) => digests[jobs - 1] = digest,
                Err(why) => pass.fail(format!("jobs {jobs}: {why}")),
            }
            let stats = pool.stats();
            if jobs == 1 {
                pass.unit_ns.push(wall.as_nanos() as u64);
                pass.sessions += stats.cells_run as u64;
            } else if !traced {
                let wall_s = wall.as_secs_f64();
                pass.extras.push(("suite_j2_s", wall_s, "s"));
                pass.extras.push((
                    "experiments.pool.efficiency",
                    stats.top_busy.as_secs_f64() / (wall_s * jobs as f64),
                    "ratio",
                ));
                pass.extras.push((
                    "experiments.pool.critical_s",
                    stats.longest_top_cell.as_secs_f64(),
                    "s",
                ));
            }
        }
        for digest in digests {
            pass.digest.bytes(digest.hex().as_bytes());
        }
        Ok(pass)
    }

    fn probe_cases(&self) -> Result<Vec<Case>> {
        let programs = match self.size {
            Size::Full => spec::NAMES.len(),
            Size::Tiny => 2,
        };
        let models = self.ctx().spec_models();
        let machine = {
            let mut b = MachineConfig::builder();
            b.pstates(self.table.clone()).seed(RUN_SEEDS[0]);
            b.build()?
        };
        Ok(spec::suite()
            .into_iter()
            .take(programs)
            .enumerate()
            .map(|(index, benchmark)| {
                let spec = if index % 2 == 0 {
                    GovernorSpec::Pm { limit_w: 13.5 }
                } else {
                    GovernorSpec::Ps { floor: 0.8 }
                };
                let models = models.clone();
                Case::new(
                    machine.clone(),
                    Source::Batch(benchmark.program().clone()),
                    Rc::new(move || timed_stack(&spec, &models)),
                    sim_seed(RUN_SEEDS[0]),
                    SimulationConfig::default().max_samples,
                    0.0,
                )
            })
            .collect())
    }
}
