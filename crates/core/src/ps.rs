//! PowerSave (PS): energy savings under a performance floor (paper §IV.B).
//!
//! Where demand-based switching only saves energy when the system is idle,
//! PS trades an *explicit, bounded* amount of performance for energy even at
//! full load. Every 10 ms it:
//!
//! 1. **monitors** retired IPC and DCU-miss-outstanding cycles — exactly the
//!    two programmable counters the Pentium M has;
//! 2. **estimates** IPC (and hence throughput) at every p-state via eq. 3;
//! 3. **controls**: picks the lowest-frequency p-state whose predicted
//!    throughput stays at or above `floor ×` the predicted peak throughput.
//!
//! Because p-states are discrete, the chosen state usually sits above the
//! floor — the next lower state would cross it (the paper makes the same
//! observation about its Figure 9 results).
//!
//! Missed PMC reads repeat the last fresh choice for exactly
//! [`PowerSave::STALE_HOLD_SAMPLES`] stale intervals; every later stale
//! interval steps one state toward the peak, the safe side of a
//! performance floor (DESIGN §6).

use aapm_platform::events::HardwareEvent;
use aapm_platform::pstate::PStateId;
use aapm_models::perf_model::PerfModel;
use aapm_telemetry::metrics::{Histogram, Metrics};

use crate::governor::{Governor, GovernorCommand, SampleContext};
use crate::hold::{self, StaleHold};
use crate::limits::PerformanceFloor;

/// The PowerSave governor.
///
/// # Examples
///
/// ```
/// use aapm::limits::PerformanceFloor;
/// use aapm::ps::PowerSave;
/// use aapm_models::perf_model::{PerfModel, PerfModelParams};
///
/// let ps = PowerSave::new(
///     PerfModel::new(PerfModelParams::paper()),
///     PerformanceFloor::new(0.8)?,
/// );
/// assert_eq!(aapm::governor::Governor::name(&ps), "ps");
/// # Ok::<(), aapm_platform::error::PlatformError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PowerSave {
    model: PerfModel,
    floor: PerformanceFloor,
    /// Choice made on the last fresh counter sample, held during outages.
    last_choice: Option<PStateId>,
    hold: StaleHold,
    /// IPC projected for the state chosen last interval, compared against
    /// the next fresh sample to measure eq. 3's projection error.
    predicted_ipc: Option<f64>,
    /// Observability handle (disabled unless the runtime installs one).
    metrics: Metrics,
}

impl PowerSave {
    /// Consecutive stale counter samples (missed PMC reads) PS absorbs by
    /// repeating its last fresh choice before it fails safe toward the
    /// peak state, protecting the performance floor when the workload may
    /// have shifted unseen: stale samples 1..=N hold, and sample N+1 takes
    /// the first step up.
    pub const STALE_HOLD_SAMPLES: usize = 50;

    /// Creates PS with the given projection model and floor.
    pub fn new(model: PerfModel, floor: PerformanceFloor) -> Self {
        PowerSave {
            model,
            floor,
            last_choice: None,
            hold: StaleHold::new(hold::PS),
            predicted_ipc: None,
            metrics: Metrics::disabled(),
        }
    }

    /// The active performance floor.
    pub fn floor(&self) -> PerformanceFloor {
        self.floor
    }

    /// The projection model in use.
    pub fn model(&self) -> &PerfModel {
        &self.model
    }

    /// Predicted throughput at `target` relative to the predicted peak
    /// (highest p-state), from a sample observed at `ctx.current`.
    pub fn predicted_relative_performance(
        &self,
        ctx: &SampleContext<'_>,
        ipc: f64,
        dcu: f64,
        target: PStateId,
    ) -> Option<f64> {
        let from = ctx.table.get(ctx.current).ok()?.frequency();
        let to = ctx.table.get(target).ok()?.frequency();
        let peak = ctx.table.get(ctx.table.highest()).ok()?.frequency();
        let to_target = self.model.relative_performance(ipc, dcu, from, to);
        let to_peak = self.model.relative_performance(ipc, dcu, from, peak);
        if to_peak <= 0.0 {
            return None;
        }
        Some(to_target / to_peak)
    }
}

impl Governor for PowerSave {
    fn name(&self) -> &str {
        "ps"
    }

    fn events(&self) -> Vec<HardwareEvent> {
        vec![HardwareEvent::InstructionsRetired, HardwareEvent::DcuMissOutstanding]
    }

    fn decide(&mut self, ctx: &SampleContext<'_>) -> PStateId {
        let now = ctx.counters.end;
        // Graceful degradation under missed PMC reads: hold the last fresh
        // choice, then step back up toward the peak — PS's contract is a
        // performance floor, and running too fast is the safe failure
        // direction.
        if !ctx.counters.is_fresh() {
            let held = self.hold.stale(&self.metrics, now, Self::STALE_HOLD_SAMPLES);
            // A stale interval invalidates the one-step-ahead projection.
            self.predicted_ipc = None;
            if let (true, Some(choice)) = (held, self.last_choice) {
                return choice;
            }
            self.hold.fail_safe(&self.metrics, now);
            return ctx.table.next_higher(ctx.current).unwrap_or_else(|| ctx.table.highest());
        }
        self.hold.fresh(&self.metrics, now);
        let ipc = ctx.counters.ipc().unwrap_or(0.0);
        let dcu = ctx.counters.dcu().unwrap_or(0.0);
        if let Some(predicted) = self.predicted_ipc.take() {
            self.metrics.observe(Histogram::PsProjectionErrorIpc, (ipc - predicted).abs());
        }
        // Scan from the lowest frequency up; take the first state whose
        // predicted throughput clears the floor. The peak state always
        // clears it (ratio 1.0), so the loop always returns.
        let mut chosen = ctx.table.highest();
        for (id, _) in ctx.table.iter() {
            if let Some(relative) = self.predicted_relative_performance(ctx, ipc, dcu, id) {
                if relative >= self.floor.fraction() {
                    chosen = id;
                    break;
                }
            }
        }
        self.last_choice = Some(chosen);
        if self.metrics.is_enabled() {
            // Floor slack: how far above the floor the discrete choice
            // lands (the Figure 9 "p-states are coarse" observation).
            if let Some(relative) = self.predicted_relative_performance(ctx, ipc, dcu, chosen) {
                self.metrics.observe(Histogram::PsFloorSlack, relative - self.floor.fraction());
            }
            // One-step-ahead IPC projection for the chosen state (eq. 3):
            // performance ∝ IPC × f, so the predicted IPC rescales the
            // relative-performance projection by the frequency ratio.
            if let (Ok(from), Ok(to)) = (ctx.table.get(ctx.current), ctx.table.get(chosen)) {
                let rel = self.model.relative_performance(ipc, dcu, from.frequency(), to.frequency());
                let ratio = from.frequency().mhz() as f64 / to.frequency().mhz() as f64;
                self.predicted_ipc = Some(ipc * rel * ratio);
            }
        }
        chosen
    }

    fn command(&mut self, command: GovernorCommand) {
        if let GovernorCommand::SetPerformanceFloor(floor) = command {
            self.floor = floor;
        }
    }

    fn install_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aapm_models::perf_model::PerfModelParams;
    use aapm_platform::pstate::PStateTable;
    use aapm_platform::units::Seconds;
    use aapm_telemetry::pmc::CounterSample;

    fn sample(ipc: f64, dcu: f64) -> CounterSample {
        let cycles = 20e6;
        CounterSample {
            start: Seconds::ZERO,
            end: Seconds::from_millis(10.0),
            cycles,
            counts: vec![
                (HardwareEvent::InstructionsRetired, ipc * cycles, true),
                (HardwareEvent::DcuMissOutstanding, dcu * cycles, true),
            ],
        }
    }

    fn ps_with_floor(floor: f64) -> PowerSave {
        PowerSave::new(PerfModel::new(PerfModelParams::paper()), PerformanceFloor::new(floor).unwrap())
    }

    fn decide_at(ps: &mut PowerSave, table: &PStateTable, current: usize, ipc: f64, dcu: f64) -> PStateId {
        let s = sample(ipc, dcu);
        let ctx = SampleContext { counters: &s, power: None, temperature: None, current: PStateId::new(current), table, queue: None };
        ps.decide(&ctx)
    }

    #[test]
    fn core_bound_workload_respects_frequency_floor() {
        let table = PStateTable::pentium_m_755();
        // Core-bound: performance ∝ f, so floor 0.8 requires f ≥ 1600 MHz.
        let mut ps = ps_with_floor(0.8);
        let chosen = decide_at(&mut ps, &table, 7, 1.5, 0.1);
        let freq = table.get(chosen).unwrap().frequency().mhz();
        assert_eq!(freq, 1600, "1600/2000 = 0.8 exactly meets the floor");
    }

    #[test]
    fn memory_bound_workload_drops_much_lower() {
        let table = PStateTable::pentium_m_755();
        let mut ps = ps_with_floor(0.8);
        // Strongly memory-bound (DCU/IPC = 6): (f'/f)^0.19 ≥ 0.8 allows
        // f' ≥ 2000·0.8^(1/0.19) ≈ 616 MHz → PS picks 800 MHz.
        let chosen = decide_at(&mut ps, &table, 7, 0.3, 1.8);
        let freq = table.get(chosen).unwrap().frequency().mhz();
        assert_eq!(freq, 800, "memory-bound work tolerates deep slowdowns");
    }

    #[test]
    fn floor_one_keeps_max_frequency_for_core_bound() {
        let table = PStateTable::pentium_m_755();
        let mut ps = ps_with_floor(1.0);
        let chosen = decide_at(&mut ps, &table, 7, 1.5, 0.1);
        assert_eq!(chosen, table.highest());
    }

    #[test]
    fn lower_floor_never_chooses_higher_frequency() {
        let table = PStateTable::pentium_m_755();
        for (ipc, dcu) in [(1.5, 0.1), (0.3, 1.8), (0.6, 0.75)] {
            let mut last_freq = u32::MAX;
            for floor in [0.9, 0.7, 0.5, 0.3] {
                let mut ps = ps_with_floor(floor);
                let chosen = decide_at(&mut ps, &table, 7, ipc, dcu);
                let freq = table.get(chosen).unwrap().frequency().mhz();
                assert!(freq <= last_freq, "floor {floor}: {freq} > {last_freq}");
                last_freq = freq;
            }
        }
    }

    #[test]
    fn decision_is_stable_across_current_pstate() {
        // From any current state, the projected-to-peak normalization makes
        // the choice depend only on the workload, not where we observe it —
        // for core-bound work where IPC is truly state-independent.
        let table = PStateTable::pentium_m_755();
        let mut ps = ps_with_floor(0.8);
        let from_top = decide_at(&mut ps, &table, 7, 1.5, 0.1);
        let from_low = decide_at(&mut ps, &table, 1, 1.5, 0.1);
        assert_eq!(from_top, from_low);
    }

    #[test]
    fn zero_ipc_sample_chooses_lowest_state() {
        // A fully-stalled interval can sacrifice frequency for free.
        let table = PStateTable::pentium_m_755();
        let mut ps = ps_with_floor(0.8);
        let chosen = decide_at(&mut ps, &table, 7, 0.0, 2.0);
        assert_eq!(chosen, table.lowest());
    }

    #[test]
    fn floor_change_takes_effect() {
        let table = PStateTable::pentium_m_755();
        let mut ps = ps_with_floor(0.8);
        let before = decide_at(&mut ps, &table, 7, 1.5, 0.1);
        ps.command(GovernorCommand::SetPerformanceFloor(PerformanceFloor::new(0.4).unwrap()));
        let after = decide_at(&mut ps, &table, 7, 1.5, 0.1);
        assert!(after < before);
    }

    fn stale_sample() -> CounterSample {
        let cycles = 20e6;
        CounterSample {
            start: Seconds::ZERO,
            end: Seconds::from_millis(10.0),
            cycles,
            counts: vec![
                (HardwareEvent::InstructionsRetired, 0.0, false),
                (HardwareEvent::DcuMissOutstanding, 0.0, false),
            ],
        }
    }

    #[test]
    fn stale_counters_hold_then_step_toward_peak() {
        let table = PStateTable::pentium_m_755();
        let mut ps = ps_with_floor(0.8);
        // Establish a choice from fresh memory-bound telemetry (800 MHz).
        let held = decide_at(&mut ps, &table, 7, 0.3, 1.8);
        assert_eq!(table.get(held).unwrap().frequency().mhz(), 800);
        let s = stale_sample();
        // Within the hold window the previous choice is repeated.
        for i in 0..PowerSave::STALE_HOLD_SAMPLES {
            let ctx = SampleContext { counters: &s, power: None, temperature: None, current: held, table: &table, queue: None };
            assert_eq!(ps.decide(&ctx), held, "stale sample {i}");
        }
        // Past the window PS fails toward the performance floor's safe
        // side: higher frequency, one state per sample.
        let ctx = SampleContext { counters: &s, power: None, temperature: None, current: held, table: &table, queue: None };
        let stepped = ps.decide(&ctx);
        assert_eq!(stepped, table.next_higher(held).unwrap());
    }

    /// Boundary of the hold window: with `STALE_HOLD_SAMPLES = N`,
    /// exactly N stale intervals repeat the held choice and the (N+1)-th
    /// steps up.
    #[test]
    fn hold_window_boundary_is_exactly_n_stale_intervals() {
        let table = PStateTable::pentium_m_755();
        let n = PowerSave::STALE_HOLD_SAMPLES;
        let mut ps = ps_with_floor(0.8);
        let held = decide_at(&mut ps, &table, 7, 0.3, 1.8);
        let s = stale_sample();
        for i in 1..=n {
            let ctx = SampleContext { counters: &s, power: None, temperature: None, current: held, table: &table, queue: None };
            assert_eq!(ps.decide(&ctx), held, "stale sample {i} holds");
        }
        // Stale sample N+1 is the first fail-safe step toward the peak.
        let ctx = SampleContext { counters: &s, power: None, temperature: None, current: held, table: &table, queue: None };
        assert_eq!(ps.decide(&ctx), table.next_higher(held).unwrap(), "sample N+1 steps up");
    }

    /// Hold-window entry/exit and fail-safe steps are counted when a
    /// metrics registry is installed.
    #[test]
    fn hold_window_metrics_count_the_boundary() {
        let table = PStateTable::pentium_m_755();
        let n = PowerSave::STALE_HOLD_SAMPLES;
        let mut ps = ps_with_floor(0.8);
        let metrics = Metrics::enabled();
        Governor::install_metrics(&mut ps, metrics.clone());
        let held = decide_at(&mut ps, &table, 7, 0.3, 1.8);
        let s = stale_sample();
        for _ in 0..n + 3 {
            let ctx = SampleContext { counters: &s, power: None, temperature: None, current: held, table: &table, queue: None };
            ps.decide(&ctx);
        }
        decide_at(&mut ps, &table, 7, 0.3, 1.8);
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.counter("ps.hold_entries"), 1);
        assert_eq!(snapshot.counter("ps.hold_exits"), 1);
        assert_eq!(snapshot.counter("ps.stale_intervals"), n as u64 + 3);
        assert_eq!(snapshot.counter("ps.failsafe_steps"), 3);
        assert!(snapshot.histogram("ps.floor_slack").is_some());
    }

    #[test]
    fn stale_counters_with_no_history_fail_toward_peak() {
        let table = PStateTable::pentium_m_755();
        let mut ps = ps_with_floor(0.8);
        let s = stale_sample();
        let ctx = SampleContext { counters: &s, power: None, temperature: None, current: PStateId::new(2), table: &table, queue: None };
        assert_eq!(ps.decide(&ctx), PStateId::new(3), "no history: step up immediately");
    }

    #[test]
    fn alternate_exponent_is_more_conservative() {
        let table = PStateTable::pentium_m_755();
        // In-between workload: memory-classified but not extreme.
        let (ipc, dcu) = (0.45, 0.7);
        let mut primary = ps_with_floor(0.8);
        let mut alternate = PowerSave::new(
            PerfModel::new(PerfModelParams::paper_alternate()),
            PerformanceFloor::new(0.8).unwrap(),
        );
        let f_primary = table
            .get(decide_at(&mut primary, &table, 7, ipc, dcu))
            .unwrap()
            .frequency()
            .mhz();
        let f_alternate = table
            .get(decide_at(&mut alternate, &table, 7, ipc, dcu))
            .unwrap()
            .frequency()
            .mhz();
        assert!(
            f_alternate >= f_primary,
            "exponent 0.59 predicts more loss → keeps frequency ≥ 0.81's choice"
        );
    }
}
