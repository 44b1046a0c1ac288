//! Shared experiment context: the trained models and platform constants.
//!
//! Training the models is the expensive preamble of every experiment
//! (characterize 12 loops, run them at 8 p-states, fit). The context does it
//! once, the characterizations on a job pool, and is shared by reference
//! across all experiment modules.

use aapm::spec::SpecModels;
use aapm_models::perf_model::{PerfModel, PerfModelParams};
use aapm_models::power_model::PowerModel;
use aapm_models::training::{
    collect_training_data_from, train_perf_model, train_power_model, PerfFitReport,
    TrainingConfig, TrainingData,
};
use aapm_platform::error::Result;
use aapm_platform::pipeline::MemoryTimings;
use aapm_platform::pstate::PStateTable;
use aapm_workloads::characterize::{characterize, CharacterizedLoop};
use aapm_workloads::footprint::Footprint;
use aapm_workloads::loops::MicroLoop;

use crate::pool::{self, Pool};

/// Trained models plus the platform constants experiments need.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    table: PStateTable,
    timings: MemoryTimings,
    power_model: PowerModel,
    perf_fit: PerfFitReport,
    training: TrainingData,
    characterized: Vec<CharacterizedLoop>,
}

impl ExperimentContext {
    /// Trains the models on the simulated platform (the paper's §III.A
    /// procedure) and captures everything experiments share.
    ///
    /// It runs [`ExperimentContext::train_on`] on a pool as wide as the
    /// CLI's default `--jobs`, the host's available parallelism. The
    /// context is the same, bit for bit, at every width.
    ///
    /// # Errors
    ///
    /// Propagates platform errors from training.
    pub fn train() -> Result<Self> {
        ExperimentContext::train_on(&Pool::new(pool::default_jobs()))
    }

    /// Trains the models with the 12 MS-Loops characterizations as cells of
    /// `pool`; collecting the samples and both fits then run on the calling
    /// thread.
    ///
    /// The cells go in longest first, so MLOAD_RAND-8MB, the critical path,
    /// starts at once. The pool returns them in that submission order, and
    /// they are put back into Table-I order before collection, so the
    /// models do not depend on the pool's width.
    ///
    /// # Errors
    ///
    /// Propagates platform errors from training, and a panicking cell as
    /// [`aapm_platform::error::PlatformError::CellPanicked`].
    pub fn train_on(pool: &Pool) -> Result<Self> {
        let table = PStateTable::pentium_m_755();
        // Characterize the 12-point training set once; experiments that
        // need the loops themselves (Table I) reuse it instead of paying
        // for the cache simulation again.
        let characterized = characterize_on(pool)?;
        let training =
            collect_training_data_from(&TrainingConfig::default(), &table, &characterized)?;
        let power_model = train_power_model(&training)?;
        let perf_fit = train_perf_model(&training);
        Ok(ExperimentContext {
            table,
            timings: MemoryTimings::pentium_m_755(),
            power_model,
            perf_fit,
            training,
            characterized,
        })
    }

    /// The characterized 12-point MS-Loops training set (4 loops × 3
    /// footprints, Table I order).
    pub fn characterized(&self) -> &[CharacterizedLoop] {
        &self.characterized
    }

    /// The platform's p-state table.
    pub fn table(&self) -> &PStateTable {
        &self.table
    }

    /// The platform's memory timings.
    pub fn timings(&self) -> &MemoryTimings {
        &self.timings
    }

    /// The power model trained on this platform (our Table II analogue).
    pub fn power_model(&self) -> &PowerModel {
        &self.power_model
    }

    /// The trained eq.-3 parameter fit.
    pub fn perf_fit(&self) -> &PerfFitReport {
        &self.perf_fit
    }

    /// A performance model with the *paper's* primary parameters
    /// (threshold 1.21, exponent 0.81) — used by default so the
    /// reproduction exercises the published configuration.
    pub fn perf_model_paper(&self) -> PerfModel {
        PerfModel::new(PerfModelParams::paper())
    }

    /// The raw training data (for the Table II experiment's error columns).
    pub fn training(&self) -> &TrainingData {
        &self.training
    }

    /// The model set governor specs are built against in this context:
    /// the *trained* power model plus the paper's primary performance
    /// parameters — the same pair the factory-based experiments always
    /// used, as opposed to [`SpecModels::default`]'s published Table II
    /// coefficients.
    pub fn spec_models(&self) -> SpecModels {
        SpecModels { power: self.power_model.clone(), perf: self.perf_model_paper() }
    }
}

/// The 4 loops × 3 footprints training set, characterized as cells of
/// `pool` and returned in Table-I order, footprints smallest first.
fn characterize_on(pool: &Pool) -> Result<Vec<CharacterizedLoop>> {
    // Longest first: a point's cost grows with its footprint, an 8 MB pass
    // being 32 times a 256 KB one, and at one footprint the random loads of
    // MLOAD_RAND miss most. So footprints go largest first, and the loops
    // in reverse Table-I order.
    let cells: Vec<_> = Footprint::ALL
        .iter()
        .rev()
        .flat_map(|&footprint| {
            MicroLoop::ALL
                .iter()
                .rev()
                .map(move |&microloop| move || characterize(microloop, footprint))
        })
        .collect();
    let mut characterized = pool.run(cells).into_iter().collect::<Result<Vec<_>>>()?;
    characterized.sort_by_key(|c| (c.microloop, c.footprint));
    Ok(characterized)
}
