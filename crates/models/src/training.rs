//! Model training from microbenchmark runs (paper §III.A).
//!
//! The training pipeline mirrors the paper's: run each MS-Loops
//! microbenchmark at each p-state at the highest priority (here: alone on
//! the simulated machine), sample counters and power every 10 ms, then
//!
//! * fit `Power = α·DPC + β` per p-state with the least-absolute-error
//!   criterion (→ a [`PowerModel`], our analogue of Table II), and
//! * grid-search the DCU/IPC threshold and frequency exponent of eq. 3 to
//!   minimize relative IPC-projection error across all p-state pairs
//!   (→ [`PerfModelParams`]).

use aapm_platform::error::Result;
use aapm_platform::events::HardwareEvent;
use aapm_platform::machine::Machine;
use aapm_platform::pstate::{PStateId, PStateTable};
use aapm_platform::units::{MegaHertz, Seconds};
use aapm_platform::MachineConfig;
use aapm_telemetry::daq::{DaqConfig, PowerDaq};
use aapm_telemetry::pmc::PmcDriver;
use aapm_workloads::characterize::{training_set, CharacterizedLoop};

use crate::fit::{least_absolute, mean_absolute_error, LinearFit};
use crate::perf_model::{PerfModel, PerfModelParams};
use crate::power_model::{PowerModel, PStateCoefficients};

/// Configuration of a training run.
#[derive(Debug, Clone, Copy)]
pub struct TrainingConfig {
    /// 10 ms samples collected per (loop, p-state) point after warm-up.
    pub samples_per_point: usize,
    /// Warm-up samples discarded before collection.
    pub warmup_samples: usize,
    /// Sampling interval.
    pub sample_interval: Seconds,
    /// Seed for machine and DAQ noise.
    pub seed: u64,
    /// DAQ chain configuration.
    pub daq: DaqConfig,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            samples_per_point: 30,
            warmup_samples: 3,
            sample_interval: Seconds::from_millis(10.0),
            seed: 0x7241_1A11,
            daq: DaqConfig::default(),
        }
    }
}

/// Measurements for one (loop, p-state) training point.
#[derive(Debug, Clone)]
pub struct TrainingPoint {
    /// Loop name (e.g. `FMA-256KB`).
    pub workload: String,
    /// The p-state the point was measured at.
    pub pstate: PStateId,
    /// Per-sample (DPC, measured power) pairs.
    pub samples: Vec<(f64, f64)>,
    /// Mean retired IPC over the collected samples.
    pub mean_ipc: f64,
    /// Mean DCU-outstanding cycles per cycle.
    pub mean_dcu: f64,
    /// Mean DPC.
    pub mean_dpc: f64,
    /// Mean measured power in watts.
    pub mean_power: f64,
}

/// The complete training data set.
#[derive(Debug, Clone)]
pub struct TrainingData {
    points: Vec<TrainingPoint>,
    table: PStateTable,
}

impl TrainingData {
    /// All collected points.
    pub fn points(&self) -> &[TrainingPoint] {
        &self.points
    }

    /// Points measured at one p-state.
    pub fn points_at(&self, pstate: PStateId) -> impl Iterator<Item = &TrainingPoint> {
        self.points.iter().filter(move |p| p.pstate == pstate)
    }

    /// The p-state table the data was collected over.
    pub fn table(&self) -> &PStateTable {
        &self.table
    }
}

/// Runs one characterized loop at one p-state and samples it.
fn measure_point(
    loop_: &CharacterizedLoop,
    pstate: PStateId,
    config: &TrainingConfig,
    table: &PStateTable,
) -> Result<TrainingPoint> {
    let machine_config = {
        let mut b = MachineConfig::builder();
        b.pstates(table.clone())
            .initial_pstate(pstate)
            .seed(config.seed ^ (pstate.index() as u64) << 8 ^ loop_.microloop as u64);
        b.build()?
    };
    let mut machine = Machine::new(machine_config, loop_.program());
    let mut daq = PowerDaq::new(config.daq, config.seed ^ 0xD0_0D ^ pstate.index() as u64);
    let mut pmc = PmcDriver::new(vec![
        HardwareEvent::InstructionsDecoded,
        HardwareEvent::InstructionsRetired,
        HardwareEvent::DcuMissOutstanding,
    ]);
    // Three events on two counters: the driver multiplexes, as the real one
    // would have to. Warm-up also primes the rotation history.
    for _ in 0..config.warmup_samples {
        machine.tick(config.sample_interval);
        let _ = daq.sample(&machine);
        let _ = pmc.sample(&machine);
    }
    let mut samples = Vec::with_capacity(config.samples_per_point);
    let (mut sum_ipc, mut sum_dcu, mut sum_dpc, mut sum_power) = (0.0, 0.0, 0.0, 0.0);
    for _ in 0..config.samples_per_point {
        machine.tick(config.sample_interval);
        let power = daq.sample(&machine);
        let counters = pmc.sample(&machine);
        let dpc = counters.dpc().unwrap_or(0.0);
        samples.push((dpc, power.power.watts()));
        sum_ipc += counters.ipc().unwrap_or(0.0);
        sum_dcu += counters.dcu().unwrap_or(0.0);
        sum_dpc += dpc;
        sum_power += power.power.watts();
    }
    let n = config.samples_per_point as f64;
    Ok(TrainingPoint {
        workload: loop_.name(),
        pstate,
        samples,
        mean_ipc: sum_ipc / n,
        mean_dcu: sum_dcu / n,
        mean_dpc: sum_dpc / n,
        mean_power: sum_power / n,
    })
}

/// Collects the full training data set: every MS-Loops point at every
/// p-state of `table`.
///
/// # Errors
///
/// Propagates platform errors from characterization or machine setup.
pub fn collect_training_data(config: &TrainingConfig, table: &PStateTable) -> Result<TrainingData> {
    collect_training_data_from(config, table, &training_set()?)
}

/// [`collect_training_data`] over an already-characterized training set,
/// for callers (the experiment context) that also need the characterized
/// loops themselves and should not pay for cache simulation twice.
///
/// # Errors
///
/// Propagates platform errors from machine setup.
pub fn collect_training_data_from(
    config: &TrainingConfig,
    table: &PStateTable,
    loops: &[CharacterizedLoop],
) -> Result<TrainingData> {
    let mut points = Vec::with_capacity(loops.len() * table.len());
    for loop_ in loops {
        for (pstate, _) in table.iter() {
            points.push(measure_point(loop_, pstate, config, table)?);
        }
    }
    Ok(TrainingData { points, table: table.clone() })
}

/// Fits the per-p-state linear DPC power model (least absolute error).
///
/// # Errors
///
/// Returns an error if any p-state lacks enough distinct samples to fit.
pub fn train_power_model(data: &TrainingData) -> Result<PowerModel> {
    let mut coefficients = Vec::with_capacity(data.table.len());
    for (pstate, _) in data.table.iter() {
        let samples: Vec<(f64, f64)> =
            data.points_at(pstate).flat_map(|p| p.samples.iter().copied()).collect();
        let fit: LinearFit = least_absolute(&samples, 30).ok_or_else(|| {
            aapm_platform::error::PlatformError::InvalidConfig {
                parameter: "training_data",
                reason: format!("not enough distinct samples at {pstate}"),
            }
        })?;
        coefficients.push(PStateCoefficients { alpha: fit.slope, beta: fit.intercept });
    }
    PowerModel::new(coefficients)
}

/// Result of the eq.-3 parameter search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfFitReport {
    /// The best parameters found.
    pub params: PerfModelParams,
    /// Mean relative IPC-projection error at the optimum.
    pub mean_relative_error: f64,
}

/// One IPC projection the eq.-3 fit scores: a workload's IPC and DCU
/// measured at one p-state, projected to another p-state of the same
/// workload and compared with the IPC measured there.
struct Projection {
    ipc: f64,
    dcu: f64,
    from: MegaHertz,
    to: MegaHertz,
    measured_ipc: f64,
}

/// Every same-workload, ordered p-state pair of the training data, in the
/// order [`perf_model_error`] sums them.
fn projections(data: &TrainingData) -> Vec<Projection> {
    let mut out = Vec::new();
    for point_from in data.points() {
        if point_from.mean_ipc <= 0.0 {
            continue;
        }
        let Ok(from_state) = data.table.get(point_from.pstate) else { continue };
        for point_to in data.points() {
            if point_to.workload != point_from.workload
                || point_to.pstate == point_from.pstate
                || point_to.mean_ipc <= 0.0
            {
                continue;
            }
            let Ok(to_state) = data.table.get(point_to.pstate) else { continue };
            out.push(Projection {
                ipc: point_from.mean_ipc,
                dcu: point_from.mean_dcu,
                from: from_state.frequency(),
                to: to_state.frequency(),
                measured_ipc: point_to.mean_ipc,
            });
        }
    }
    out
}

/// Scores a candidate eq.-3 parameterization: mean relative
/// IPC-projection error over `projections`.
fn perf_model_error(projections: &[Projection], params: PerfModelParams) -> Option<f64> {
    let model = PerfModel::new(params);
    let mut error_sum = 0.0;
    for p in projections {
        let predicted = model.project_ipc(p.ipc, p.dcu, p.from, p.to);
        error_sum += (predicted - p.measured_ipc).abs() / p.measured_ipc;
    }
    (!projections.is_empty()).then(|| error_sum / projections.len() as f64)
}

/// Golden-section refinement of the exponent within `[lo, hi]`, holding the
/// threshold fixed. The error surface is piecewise-smooth in the exponent
/// for a fixed classification, so the bracket from the grid search refines
/// quickly.
fn refine_exponent(projections: &[Projection], threshold: f64, lo: f64, hi: f64) -> f64 {
    const GOLDEN: f64 = 0.618_033_988_749_894_8;
    let score = |exponent: f64| {
        perf_model_error(projections, PerfModelParams { dcu_threshold: threshold, exponent })
            .unwrap_or(f64::INFINITY)
    };
    let (mut a, mut b) = (lo, hi);
    let mut c = b - GOLDEN * (b - a);
    let mut d = a + GOLDEN * (b - a);
    let (mut fc, mut fd) = (score(c), score(d));
    for _ in 0..40 {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - GOLDEN * (b - a);
            fc = score(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + GOLDEN * (b - a);
            fd = score(d);
        }
        if (b - a).abs() < 1e-4 {
            break;
        }
    }
    (a + b) / 2.0
}

/// Grid-searches eq. 3's threshold and exponent against the training data,
/// then refines the exponent by golden-section search around the grid
/// optimum.
///
/// For every workload and every ordered p-state pair `(from, to)`, the
/// candidate model projects the IPC measured at `from` to `to` and is
/// scored on mean relative error against the IPC actually measured at `to`.
pub fn train_perf_model(data: &TrainingData) -> PerfFitReport {
    let projections = projections(data);
    let mut best = PerfFitReport {
        params: PerfModelParams { dcu_threshold: 1.0, exponent: 0.8 },
        mean_relative_error: f64::INFINITY,
    };
    for threshold_step in 0..=40 {
        let threshold = 0.2 + threshold_step as f64 * 0.1; // 0.2 … 4.2
        for exponent_step in 0..=50 {
            let exponent = exponent_step as f64 * 0.02; // 0 … 1
            let params = PerfModelParams { dcu_threshold: threshold, exponent };
            let Some(mean) = perf_model_error(&projections, params) else { continue };
            if mean < best.mean_relative_error {
                best = PerfFitReport { params, mean_relative_error: mean };
            }
        }
    }
    // Refine the exponent within the grid cell around the optimum.
    let refined_exponent = refine_exponent(
        &projections,
        best.params.dcu_threshold,
        (best.params.exponent - 0.02).max(0.0),
        (best.params.exponent + 0.02).min(1.0),
    );
    let refined = PerfModelParams {
        dcu_threshold: best.params.dcu_threshold,
        exponent: refined_exponent,
    };
    if let Some(error) = perf_model_error(&projections, refined) {
        if error < best.mean_relative_error {
            best = PerfFitReport { params: refined, mean_relative_error: error };
        }
    }
    best
}

/// Per-p-state mean absolute error of a power model over the training data.
pub fn power_model_training_error(data: &TrainingData, model: &PowerModel) -> Vec<(PStateId, f64)> {
    data.table
        .iter()
        .map(|(pstate, _)| {
            let samples: Vec<(f64, f64)> =
                data.points_at(pstate).flat_map(|p| p.samples.iter().copied()).collect();
            let c = model.coefficients(pstate).expect("model covers table");
            let fit = LinearFit { slope: c.alpha, intercept: c.beta };
            (pstate, mean_absolute_error(&fit, &samples))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> TrainingConfig {
        TrainingConfig { samples_per_point: 12, warmup_samples: 2, ..TrainingConfig::default() }
    }

    fn data() -> TrainingData {
        collect_training_data(&quick_config(), &PStateTable::pentium_m_755()).unwrap()
    }

    #[test]
    fn training_data_covers_all_points() {
        let d = data();
        assert_eq!(d.points().len(), 12 * 8);
        for (pstate, _) in d.table().iter() {
            assert_eq!(d.points_at(pstate).count(), 12);
        }
    }

    #[test]
    fn trained_power_model_matches_table_ii_shape() {
        let d = data();
        let model = train_power_model(&d).unwrap();
        assert!(model.covers(d.table()));
        // α and β must both rise monotonically with the p-state, like the
        // paper's Table II.
        let mut last_alpha = 0.0;
        let mut last_beta = 0.0;
        for (_, c) in model.iter() {
            assert!(c.alpha > last_alpha, "alpha must grow: {} after {}", c.alpha, last_alpha);
            assert!(c.beta > last_beta, "beta must grow: {} after {}", c.beta, last_beta);
            last_alpha = c.alpha;
            last_beta = c.beta;
        }
    }

    #[test]
    fn trained_power_model_tracks_fma_within_guardband_scale() {
        // FMA is the extreme point of the fit; the paper absorbs residual
        // model error with a 0.5 W guardband and reports per-sample errors
        // of this order. Demand estimates within ~3× guardband.
        let d = data();
        let model = train_power_model(&d).unwrap();
        for point in d.points().iter().filter(|p| p.workload == "FMA-256KB") {
            let estimated = model.estimate(point.pstate, point.mean_dpc).unwrap().watts();
            assert!(
                (estimated - point.mean_power).abs() < 1.5,
                "{} at {}: est {estimated:.2} vs measured {:.2}",
                point.workload,
                point.pstate,
                point.mean_power
            );
        }
    }

    #[test]
    fn training_error_is_small_on_training_set() {
        let d = data();
        let model = train_power_model(&d).unwrap();
        for (pstate, mae) in power_model_training_error(&d, &model) {
            assert!(mae < 1.0, "{pstate}: training MAE {mae:.3} W too high");
        }
    }

    #[test]
    fn perf_fit_finds_plausible_parameters() {
        let d = data();
        let report = train_perf_model(&d);
        assert!(report.mean_relative_error < 0.2, "error {}", report.mean_relative_error);
        // The exponent should land in the upper half: the training loops'
        // memory-bound members (MLOAD_RAND especially) are latency-bound.
        assert!(
            (0.4..=1.0).contains(&report.params.exponent),
            "exponent {}",
            report.params.exponent
        );
        assert!(
            (0.2..=4.0).contains(&report.params.dcu_threshold),
            "threshold {}",
            report.params.dcu_threshold
        );
    }

    #[test]
    fn training_is_deterministic() {
        let a = collect_training_data(&quick_config(), &PStateTable::pentium_m_755()).unwrap();
        let b = collect_training_data(&quick_config(), &PStateTable::pentium_m_755()).unwrap();
        assert_eq!(a.points().len(), b.points().len());
        for (pa, pb) in a.points().iter().zip(b.points()) {
            assert_eq!(pa.samples, pb.samples, "{} at {}", pa.workload, pa.pstate);
        }
    }
}
