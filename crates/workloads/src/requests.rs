//! Open-loop request workloads: diurnal rate curves × Poisson/burst
//! arrivals × heavy-tailed service demands.
//!
//! This is the production-serving workload family of ROADMAP item 2: a
//! [`RequestWorkload`] is a seeded, deterministic arrival process that
//! implements [`WorkloadSource`], so a session (or a fleet cohort) can run
//! it exactly like a batch program — except the machine is built in serve
//! mode and work arrives continuously instead of being fixed up front.
//!
//! The generator composes three classical ingredients:
//!
//! * a **diurnal rate curve** — a raised-cosine day between `base_rps`
//!   (midnight trough at `t = 0`) and `peak_rps` (midday), cyclic in the
//!   configured day length so multi-day runs repeat the pattern;
//! * **burst windows** — multiplicative rate spikes (the `serve`
//!   experiment's lunchtime burst) layered on the curve;
//! * **heavy-tailed service demands** — bounded-Pareto instruction counts
//!   (shape `alpha`, scale `mean_instructions`, cap `tail_cap × xmin`),
//!   the textbook model for web-request service times.
//!
//! Arrivals are drawn by *thinning* against a piecewise-constant
//! majorant. The time axis is cut into a fixed grid of cells, 256 per day
//! but never narrower than `1 / envelope`, where the envelope is
//! `peak_rps` times the largest product of burst multipliers covering any
//! one instant (overlapping bursts compound). Each cell carries a majorant
//! `M`, an upper bound on the rate over the cell, and `sure`, a lower bound
//! on `rate / M` there; both are padded to hold for every float time in the
//! cell. A candidate spends an Exp(1) hazard walking forward from the last
//! candidate at each cell's own `M`, carrying what is left across cell
//! ends, which inverts the cumulative majorant; it is accepted when a
//! uniform `v < rate(t) / M`, which samples the nonhomogeneous Poisson
//! process exactly for any `M ≥ rate`. `v < sure` settles that test without
//! evaluating the rate, and since `M` sits within ~1 % of the rate, a
//! request costs about one candidate. The width floor caps the walk at
//! `envelope` cells per simulated second, the global envelope's own
//! candidate count; a cell too narrow to hold a float time draws at the
//! global envelope and decides by the exact test. Tier-1 proves the law,
//! not just the bytes: by the time-rescaling theorem the integrated-rate
//! gaps between arrivals are i.i.d. Exp(1), and a Kolmogorov–Smirnov
//! oracle checks them (and the demands against the bounded-Pareto CDF) on
//! fixed seeds. Everything flows from one [`NoiseSource`], so the stream is
//! a pure function of the seed and the window sequence — byte-identical
//! across runs and pool widths.

use aapm_platform::config::MachineConfig;
use aapm_platform::error::{PlatformError, Result};
use aapm_platform::machine::Machine;
use aapm_platform::noise::NoiseSource;
use aapm_platform::phase::PhaseDescriptor;
use aapm_platform::requests::Request;
use aapm_platform::units::Seconds;
use aapm_platform::workload::WorkloadSource;

/// Grid cells per `day` over which thinning bounds the rate: narrow
/// enough that a cell's majorant sits ~1 % above its rate, wide enough
/// that a cell's bounds are computed once per tens of candidates.
const CELLS_PER_DAY: f64 = 256.0;

/// Relative padding of a cell's bounds: far above the few-ulp rounding of
/// `rate_at`, far below the gap between the bounds.
const BOUND_PAD: f64 = 1e-9;

/// One grid cell `[start, end)` of the workload's time axis with its
/// thinning bounds (see `RequestWorkload::cell_at`).
#[derive(Debug, Clone, Copy)]
struct Cell {
    start: f64,
    end: f64,
    /// Upper bound on the rate over the cell (rps): the walk draws
    /// candidates at this rate while it is in the cell.
    majorant: f64,
    /// Lower bound on `rate / majorant` over the cell: a uniform below it
    /// accepts without evaluating the rate.
    sure: f64,
}

impl Cell {
    /// Contains no time, so the first candidate computes its cell.
    const EMPTY: Cell = Cell { start: 0.0, end: 0.0, majorant: 1.0, sure: 0.0 };

    fn contains(&self, t: f64) -> bool {
        self.start <= t && t < self.end
    }

    /// Holds no float time: `cell_at`'s fallback below `t`'s ulp.
    fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A multiplicative rate spike over `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burst {
    /// Spike start (simulated seconds).
    pub start: Seconds,
    /// Spike end (exclusive).
    pub end: Seconds,
    /// Rate multiplier (≥ 1 for a spike; < 1 models a partial outage).
    pub multiplier: f64,
}

/// Configuration for a [`RequestWorkload`]. Construct with
/// [`RequestWorkload::builder`].
#[derive(Debug, Clone)]
pub struct RequestWorkloadBuilder {
    name: String,
    seed: u64,
    day: Seconds,
    base_rps: f64,
    peak_rps: f64,
    bursts: Vec<Burst>,
    mean_instructions: f64,
    tail_alpha: f64,
    tail_cap: f64,
}

impl RequestWorkloadBuilder {
    /// Seed for the arrival/demand stream (default 0).
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Length of one diurnal cycle (default 86.4 s — a 1000× compressed
    /// day, so a full day simulates in minutes of machine time).
    pub fn day(&mut self, day: Seconds) -> &mut Self {
        self.day = day;
        self
    }

    /// Trough and peak arrival rates in requests per second (defaults
    /// 40 / 160).
    pub fn rates(&mut self, base_rps: f64, peak_rps: f64) -> &mut Self {
        self.base_rps = base_rps;
        self.peak_rps = peak_rps;
        self
    }

    /// Adds a burst window on top of the diurnal curve.
    pub fn burst(&mut self, start: Seconds, end: Seconds, multiplier: f64) -> &mut Self {
        self.bursts.push(Burst { start, end, multiplier });
        self
    }

    /// Service-demand distribution: mean instructions per request, Pareto
    /// tail shape, and the tail cap as a multiple of the minimum demand
    /// (defaults 2e6 instructions, α = 1.5, cap 50×).
    pub fn demand(&mut self, mean_instructions: f64, alpha: f64, cap: f64) -> &mut Self {
        self.mean_instructions = mean_instructions;
        self.tail_alpha = alpha;
        self.tail_cap = cap;
        self
    }

    /// Validates and builds the workload.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidConfig`] for non-finite or
    /// non-positive rates/day/demand parameters, `peak < base`, or burst
    /// windows with `end <= start` or a non-positive multiplier.
    pub fn build(&self) -> Result<RequestWorkload> {
        let invalid = |parameter: &'static str, reason: String| PlatformError::InvalidConfig {
            parameter,
            reason,
        };
        if !(self.day.seconds().is_finite() && self.day.is_positive()) {
            return Err(invalid("day", format!("day length {} must be positive", self.day)));
        }
        if !(self.base_rps.is_finite() && self.base_rps > 0.0) {
            return Err(invalid("base_rps", format!("base rate {} must be positive", self.base_rps)));
        }
        if !(self.peak_rps.is_finite() && self.peak_rps >= self.base_rps) {
            return Err(invalid(
                "peak_rps",
                format!("peak rate {} must be ≥ base rate {}", self.peak_rps, self.base_rps),
            ));
        }
        for b in &self.bursts {
            if !(b.start.seconds().is_finite() && b.end.seconds().is_finite() && b.end > b.start) {
                return Err(invalid(
                    "bursts",
                    format!("burst window [{}, {}) must be non-empty", b.start, b.end),
                ));
            }
            if !(b.multiplier.is_finite() && b.multiplier > 0.0) {
                return Err(invalid(
                    "bursts",
                    format!("burst multiplier {} must be positive", b.multiplier),
                ));
            }
        }
        if !(self.mean_instructions.is_finite() && self.mean_instructions >= 1.0) {
            return Err(invalid(
                "mean_instructions",
                format!("mean demand {} must be ≥ 1 instruction", self.mean_instructions),
            ));
        }
        if !(self.tail_alpha.is_finite() && self.tail_alpha > 1.0) {
            return Err(invalid(
                "tail_alpha",
                format!("Pareto shape {} must exceed 1 (finite mean)", self.tail_alpha),
            ));
        }
        if !(self.tail_cap.is_finite() && self.tail_cap > 1.0) {
            return Err(invalid(
                "tail_cap",
                format!("tail cap {} must exceed 1", self.tail_cap),
            ));
        }
        let service = default_service_phase()?;
        // The global envelope, which floors the cell width and draws the
        // candidates of a cell too narrow to hold a float: the diurnal peak
        // times the largest burst amplification at any instant. `rate_at`
        // multiplies every burst covering `t`, so overlapping bursts
        // compound (multipliers < 1 cannot raise the rate). The covering
        // set only grows at a burst's start, so the maximum sits at one of
        // the start edges.
        let amplification = self
            .bursts
            .iter()
            .map(|edge| {
                self.bursts
                    .iter()
                    .filter(|b| b.start <= edge.start && edge.start < b.end)
                    .map(|b| b.multiplier.max(1.0))
                    .product::<f64>()
            })
            .fold(1.0f64, f64::max);
        // Bounded Pareto with mean `mean_instructions`: solve for xmin
        // from E[X] = xmin × α/(α−1) × (1 − r^(α−1)) / (1 − r^α) with
        // r = 1/cap.
        let a = self.tail_alpha;
        let r = 1.0 / self.tail_cap;
        let mean_over_xmin = a / (a - 1.0) * (1.0 - r.powf(a - 1.0)) / (1.0 - r.powf(a));
        let xmin = (self.mean_instructions / mean_over_xmin).max(1.0);
        let xmax = xmin * self.tail_cap;
        Ok(RequestWorkload {
            name: self.name.clone(),
            seed: self.seed,
            day: self.day,
            base_rps: self.base_rps,
            peak_rps: self.peak_rps,
            bursts: self.bursts.clone(),
            envelope_rps: self.peak_rps * amplification,
            xmin,
            xmax,
            tail_span: 1.0 - (xmin / xmax).powf(a),
            inv_alpha: 1.0 / a,
            service,
            rng: NoiseSource::seeded(self.seed ^ 0x005E_27EA_FF1C),
            cursor: Seconds::ZERO,
            cell: Cell::EMPTY,
            staged: None,
        })
    }
}

/// The per-request instruction mix: a web-serving blend — moderate CPI,
/// some memory traffic, branchy.
fn default_service_phase() -> Result<PhaseDescriptor> {
    PhaseDescriptor::builder("serve-request")
        .instructions(1) // demand comes from each request
        .core_cpi(1.1)
        .decode_ratio(1.2)
        .mem_fraction(0.3)
        .l1_mpi(0.02)
        .l2_mpi(0.004)
        .branch_fraction(0.18)
        .mispredict_rate(0.01)
        .activity(0.85)
        .build()
}

/// A seeded open-loop request workload (see the module docs).
///
/// # Examples
///
/// ```
/// use aapm_platform::units::Seconds;
/// use aapm_platform::workload::WorkloadSource;
/// use aapm_workloads::requests::RequestWorkload;
///
/// let mut load = RequestWorkload::builder("front-end")
///     .seed(7)
///     .rates(50.0, 200.0)
///     .burst(Seconds::new(40.0), Seconds::new(50.0), 3.0)
///     .build()?;
/// let mut out = Vec::new();
/// load.arrivals_into(Seconds::ZERO, Seconds::new(10.0), &mut out);
/// assert!(!out.is_empty());
/// # Ok::<(), aapm_platform::error::PlatformError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RequestWorkload {
    name: String,
    seed: u64,
    day: Seconds,
    base_rps: f64,
    peak_rps: f64,
    bursts: Vec<Burst>,
    envelope_rps: f64,
    xmin: f64,
    xmax: f64,
    /// `1 − (xmin/xmax)^α`, hoisted out of the bounded-Pareto inverse CDF.
    tail_span: f64,
    /// `1/α`, likewise.
    inv_alpha: f64,
    service: PhaseDescriptor,
    rng: NoiseSource,
    /// Last candidate arrival time drawn (the thinning clock).
    cursor: Seconds,
    /// The grid cell the walk last entered, with its thinning bounds.
    cell: Cell,
    /// An accepted arrival beyond the last window's end, carried into the
    /// next window so no draw is ever discarded.
    staged: Option<Request>,
}

impl RequestWorkload {
    /// Starts configuring a request workload named `name`.
    pub fn builder(name: impl Into<String>) -> RequestWorkloadBuilder {
        RequestWorkloadBuilder {
            name: name.into(),
            seed: 0,
            day: Seconds::new(86.4),
            base_rps: 40.0,
            peak_rps: 160.0,
            bursts: Vec::new(),
            mean_instructions: 2e6,
            tail_alpha: 1.5,
            tail_cap: 50.0,
        }
    }

    /// The instantaneous arrival rate at simulated time `t`: the diurnal
    /// raised cosine (trough at `t = 0`, peak at half a day, cyclic) times
    /// any burst multipliers covering `t`.
    pub fn rate_at(&self, t: Seconds) -> f64 {
        let burst: f64 = self
            .bursts
            .iter()
            .filter(|b| b.start <= t && t < b.end)
            .map(|b| b.multiplier)
            .product();
        self.diurnal(self.phase(t.seconds())) * burst
    }

    /// Position of `t` within its day, in `[0, 1)`.
    fn phase(&self, t: f64) -> f64 {
        (t / self.day.seconds()).rem_euclid(1.0)
    }

    /// The raised-cosine diurnal rate at `phase`.
    fn diurnal(&self, phase: f64) -> f64 {
        self.base_rps
            + (self.peak_rps - self.base_rps)
                * 0.5
                * (1.0 - (2.0 * std::f64::consts::PI * phase).cos())
    }

    /// The grid cell containing `t`, with bounds `lo ≤ rate_at(t') ≤ hi`
    /// for every float `t'` in it: its majorant is `hi` and its sure-accept
    /// bound `lo / majorant`, both padded. Cells are `day / CELLS_PER_DAY`
    /// wide but at least `1 / envelope`, so a walk crosses no more cells
    /// per simulated second than the global envelope draws candidates.
    fn cell_at(&self, t: f64) -> Cell {
        let day = self.day.seconds();
        let width = (day / CELLS_PER_DAY).max(1.0 / self.envelope_rps);
        // Rounding can put `t` one cell off `floor(t / width)`; step so
        // `start ≤ t < end` holds for the edges as computed.
        let mut k = (t / width).floor();
        if k * width > t {
            k -= 1.0;
        } else if (k + 1.0) * width <= t {
            k += 1.0;
        }
        let (start, end) = (k * width, (k + 1.0) * width);
        if !(start <= t && t < end) {
            // `width` is below `t`'s ulp: a cell that contains nothing
            // draws this candidate at the global envelope, decided by the
            // exact test.
            return Cell { start: t, end: t, majorant: self.envelope_rps, sure: 0.0 };
        }
        // The raised cosine is monotone from its trough (phase 0) to its
        // crest (phase ½) and back, so over a cell shorter than a day it
        // lies between its edge values unless the phases wrap past 0 or
        // cross ½.
        let (mut lo, mut hi) = if end - start >= day {
            (self.base_rps, self.peak_rps)
        } else {
            let (p0, p1) = (self.phase(start), self.phase(end));
            let (d0, d1) = (self.diurnal(p0), self.diurnal(p1));
            let wraps = p1 < p0;
            let crest = if wraps { p0 <= 0.5 || 0.5 <= p1 } else { p0 <= 0.5 && 0.5 <= p1 };
            (
                if wraps { self.base_rps } else { d0.min(d1) },
                if crest { self.peak_rps } else { d0.max(d1) },
            )
        };
        for b in &self.bursts {
            let (b_start, b_end) = (b.start.seconds(), b.end.seconds());
            if b_start <= start && end <= b_end {
                lo *= b.multiplier;
                hi *= b.multiplier;
            } else if b_start < end && start < b_end {
                lo *= b.multiplier.min(1.0);
                hi *= b.multiplier.max(1.0);
            }
        }
        let majorant = hi * (1.0 + BOUND_PAD);
        Cell { start, end, majorant, sure: lo * (1.0 - BOUND_PAD) / majorant }
    }

    /// The seed this workload draws from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A copy of this workload with a different seed and a reset stream
    /// (for per-lane fleet cohorts drawing independent traffic).
    pub fn reseeded(&self, seed: u64) -> RequestWorkload {
        let mut copy = self.clone();
        copy.seed = seed;
        copy.rng = NoiseSource::seeded(seed ^ 0x005E_27EA_FF1C);
        copy.cursor = Seconds::ZERO;
        copy.cell = Cell::EMPTY;
        copy.staged = None;
        copy
    }

    /// Draws the next accepted arrival strictly after the cursor.
    fn next_request(&mut self) -> Request {
        loop {
            // Invert the cumulative majorant: spend an Exp(1) hazard at each
            // cell's own rate, carrying what is left across its end.
            let u = self.rng.uniform(f64::MIN_POSITIVE, 1.0);
            let mut hazard = -u.ln();
            let mut t = self.cursor.seconds();
            loop {
                if !self.cell.contains(t) {
                    self.cell = self.cell_at(t);
                }
                let next = t + hazard / self.cell.majorant;
                if next < self.cell.end || self.cell.is_empty() {
                    t = next;
                    break;
                }
                hazard = (hazard - (self.cell.end - t) * self.cell.majorant).max(0.0);
                t = self.cell.end;
            }
            self.cursor = Seconds::new(t);
            // The exact test is `v < rate(t) / majorant`; the cell's `sure`
            // bound settles it unless `v` falls above it.
            let v = self.rng.uniform(0.0, 1.0);
            if v < self.cell.sure || v < self.rate_at(self.cursor) / self.cell.majorant {
                let demand = self.draw_demand();
                return Request::new(self.cursor, demand);
            }
        }
    }

    /// Bounded-Pareto demand by inverse-CDF.
    fn draw_demand(&mut self) -> f64 {
        let u = self.rng.uniform(0.0, 1.0);
        let x = self.xmin / (1.0 - u * self.tail_span).powf(self.inv_alpha);
        x.clamp(self.xmin, self.xmax)
    }
}

impl WorkloadSource for RequestWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn machine(&self, config: MachineConfig) -> Machine {
        Machine::server(config, self.service.clone())
    }

    fn arrivals_into(&mut self, _start: Seconds, end: Seconds, out: &mut Vec<Request>) {
        loop {
            let staged = match self.staged.take() {
                Some(r) => r,
                None => self.next_request(),
            };
            if staged.arrival >= end {
                self.staged = Some(staged);
                return;
            }
            out.push(staged);
        }
    }

    fn open_loop(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn workload(seed: u64) -> RequestWorkload {
        RequestWorkload::builder("t").seed(seed).build().unwrap()
    }

    fn drain(load: &mut RequestWorkload, start: f64, end: f64) -> Vec<Request> {
        let mut out = Vec::new();
        load.arrivals_into(Seconds::new(start), Seconds::new(end), &mut out);
        out
    }

    #[test]
    fn same_seed_same_stream_across_window_splits() {
        let mut whole = workload(9);
        let mut split = workload(9);
        let all = drain(&mut whole, 0.0, 30.0);
        let mut stitched = Vec::new();
        for w in 0..30 {
            stitched.extend(drain(&mut split, w as f64, (w + 1) as f64));
        }
        assert_eq!(all, stitched, "window boundaries must not perturb the stream");
        assert!(!all.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let a = drain(&mut workload(1), 0.0, 10.0);
        let b = drain(&mut workload(2), 0.0, 10.0);
        assert_ne!(a, b);
    }

    #[test]
    fn arrivals_are_ordered_and_in_window() {
        let mut load = workload(3);
        let out = drain(&mut load, 0.0, 20.0);
        for pair in out.windows(2) {
            assert!(pair[0].arrival <= pair[1].arrival);
        }
        assert!(out.iter().all(|r| r.arrival < Seconds::new(20.0)));
        assert!(out.iter().all(|r| r.instructions >= 1.0));
    }

    #[test]
    fn diurnal_curve_peaks_mid_day_and_wraps() {
        let load = workload(0);
        let trough = load.rate_at(Seconds::ZERO);
        let peak = load.rate_at(Seconds::new(43.2));
        assert!((trough - 40.0).abs() < 1e-9);
        assert!((peak - 160.0).abs() < 1e-9);
        assert!((load.rate_at(Seconds::new(86.4)) - trough).abs() < 1e-9, "cyclic");
    }

    #[test]
    fn burst_multiplies_the_rate_inside_its_window() {
        let mut b = RequestWorkload::builder("b");
        b.burst(Seconds::new(10.0), Seconds::new(20.0), 3.0);
        let load = b.build().unwrap();
        let plain = workload(0);
        let inside = Seconds::new(15.0);
        assert!((load.rate_at(inside) - 3.0 * plain.rate_at(inside)).abs() < 1e-9);
        let outside = Seconds::new(25.0);
        assert!((load.rate_at(outside) - plain.rate_at(outside)).abs() < 1e-9);
    }

    #[test]
    fn empirical_rate_tracks_the_curve() {
        // Count arrivals over the peak hour vs the trough hour of one
        // compressed day; the ratio should approximate peak/base = 4.
        let mut load = workload(11);
        let all = drain(&mut load, 0.0, 86.4);
        let near_trough =
            all.iter().filter(|r| r.arrival.seconds() < 8.0).count() as f64;
        let near_peak = all
            .iter()
            .filter(|r| (39.0..47.0).contains(&r.arrival.seconds()))
            .count() as f64;
        assert!(near_peak > 2.0 * near_trough, "peak {near_peak} vs trough {near_trough}");
    }

    #[test]
    fn demands_are_heavy_tailed_with_the_configured_mean() {
        let mut load = workload(5);
        let all = drain(&mut load, 0.0, 86.4);
        assert!(all.len() > 1000, "one day yields thousands of requests");
        let mean = all.iter().map(|r| r.instructions).sum::<f64>() / all.len() as f64;
        assert!((mean / 2e6 - 1.0).abs() < 0.25, "mean demand {mean} ≈ 2e6");
        let max = all.iter().map(|r| r.instructions).fold(0.0, f64::max);
        assert!(max > 5.0 * mean, "tail requests dwarf the mean: {max} vs {mean}");
        assert!(max <= load.xmax, "bounded tail");
    }

    #[test]
    fn reseeded_stream_is_independent_but_reproducible() {
        let proto = workload(1);
        let a = drain(&mut proto.reseeded(77), 0.0, 10.0);
        let b = drain(&mut proto.reseeded(77), 0.0, 10.0);
        let c = drain(&mut proto.reseeded(78), 0.0, 10.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn source_builds_a_serving_machine() {
        let load = workload(0);
        assert!(load.open_loop());
        let machine = load.machine(MachineConfig::default());
        assert!(machine.is_serving());
    }

    #[test]
    fn overlapping_bursts_draw_their_full_rate() {
        // The window of `overlapping_bursts` runs at 600 rps, so 50 seeds
        // expect Λ = 300,000 arrivals in it (σ = √Λ).
        let arrived: usize = (0..50)
            .map(|seed| {
                let mut load = overlapping_bursts().seed(seed).build().unwrap();
                let all = drain(&mut load, 0.0, 30.0);
                all.iter().filter(|r| (10.0..20.0).contains(&r.arrival.seconds())).count()
            })
            .sum();
        let lambda = 50.0 * 600.0 * 10.0;
        assert!(
            (arrived as f64 - lambda).abs() < 5.0 * f64::sqrt(lambda),
            "{arrived} arrivals in the burst window against Λ = {lambda}"
        );
        for shape in [overlapping_bursts(), staggered_bursts()] {
            let load = shape.build().unwrap();
            for b in &load.bursts {
                for edge in [b.start.seconds(), b.end.seconds()] {
                    for t in [edge.next_down(), edge, edge.next_up()] {
                        let rate = load.rate_at(Seconds::new(t));
                        assert!(rate <= load.envelope_rps, "rate {rate} at {t} above the envelope");
                    }
                }
            }
        }
    }

    /// A flat 100 rps under 2× and 3× bursts on the same [10, 20) s.
    fn overlapping_bursts() -> RequestWorkloadBuilder {
        let mut b = RequestWorkload::builder("overlap");
        b.rates(100.0, 100.0)
            .burst(Seconds::new(10.0), Seconds::new(20.0), 2.0)
            .burst(Seconds::new(10.0), Seconds::new(20.0), 3.0);
        b
    }

    /// The default day under four staggered bursts, one a 0.5× outage.
    fn staggered_bursts() -> RequestWorkloadBuilder {
        let mut b = RequestWorkload::builder("staggered");
        b.burst(Seconds::new(10.0), Seconds::new(20.0), 2.0)
            .burst(Seconds::new(15.0), Seconds::new(25.0), 3.0)
            .burst(Seconds::new(18.0), Seconds::new(30.0), 0.5)
            .burst(Seconds::new(22.0), Seconds::new(40.0), 4.0);
        b
    }

    /// Drains `load` up to `end` through `next_request` with the staged
    /// carry of `arrivals_into`.
    fn drain_with(
        load: &mut RequestWorkload,
        end: Seconds,
        out: &mut Vec<Request>,
        mut next_request: impl FnMut(&mut RequestWorkload) -> Request,
    ) {
        loop {
            let staged = match load.staged.take() {
                Some(r) => r,
                None => next_request(load),
            };
            if staged.arrival >= end {
                load.staged = Some(staged);
                return;
            }
            out.push(staged);
        }
    }

    /// The thinning loop as it was before per-cell majorants, kept as the
    /// second sampler the law oracle checks: candidate gaps are exponential
    /// at one global `envelope` and every candidate is decided by
    /// `chance(rate_at / envelope)`. Drives `load`'s own RNG, cursor and
    /// staged request.
    fn reference_arrivals(
        load: &mut RequestWorkload,
        envelope: f64,
        end: Seconds,
        out: &mut Vec<Request>,
    ) {
        drain_with(load, end, out, |load| loop {
            let u = load.rng.uniform(f64::MIN_POSITIVE, 1.0);
            load.cursor += Seconds::new(-u.ln() / envelope);
            let accept = load.rate_at(load.cursor) / envelope;
            if load.rng.chance(accept.clamp(0.0, 1.0)) {
                let demand = load.draw_demand();
                return Request::new(load.cursor, demand);
            }
        });
    }

    /// The walk of `next_request`, with each cell computed afresh, every
    /// candidate decided by the exact test `v < rate_at(t) / majorant`
    /// alone, and every demand drawn by the direct bounded-Pareto formula
    /// with shape `alpha`: the reference that the cell cache, the `sure`
    /// bound and the hoisted `tail_span` / `inv_alpha` must not change a
    /// bit of.
    fn exact_walk(load: &mut RequestWorkload, alpha: f64, end: Seconds, out: &mut Vec<Request>) {
        drain_with(load, end, out, |load| loop {
            let mut hazard = -load.rng.uniform(f64::MIN_POSITIVE, 1.0).ln();
            let mut t = load.cursor.seconds();
            let cell = loop {
                let cell = load.cell_at(t);
                let next = t + hazard / cell.majorant;
                if next < cell.end || cell.is_empty() {
                    t = next;
                    break cell;
                }
                hazard = (hazard - (cell.end - t) * cell.majorant).max(0.0);
                t = cell.end;
            };
            load.cursor = Seconds::new(t);
            if load.rng.uniform(0.0, 1.0) < load.rate_at(load.cursor) / cell.majorant {
                let u = load.rng.uniform(0.0, 1.0);
                let ratio = (load.xmin / load.xmax).powf(alpha);
                let x = load.xmin / (1.0 - u * (1.0 - ratio)).powf(1.0 / alpha);
                return Request::new(load.cursor, x.clamp(load.xmin, load.xmax));
            }
        });
    }

    fn bits(requests: &[Request]) -> Vec<(u64, u64)> {
        requests.iter().map(|r| (r.arrival.seconds().to_bits(), r.instructions.to_bits())).collect()
    }

    /// Draws `load` (demand shape `alpha`) from its cursor up to `horizon`
    /// through windows cycling over `splits` (seconds) and requires
    /// `exact_walk`'s one-window stream, bit for bit.
    fn assert_matches_exact_walk(load: RequestWorkload, alpha: f64, horizon: f64, splits: &[f64]) {
        let mut reference = load.clone();
        let mut expected = Vec::new();
        exact_walk(&mut reference, alpha, Seconds::new(horizon), &mut expected);
        let mut load = load;
        let mut got = Vec::new();
        let mut start = load.cursor.seconds();
        for split in splits.iter().cycle() {
            let end = (start + split).min(horizon);
            load.arrivals_into(Seconds::new(start), Seconds::new(end), &mut got);
            if end >= horizon {
                break;
            }
            start = end;
        }
        assert_eq!(bits(&got), bits(&expected));
    }

    /// Drawn shapes: a day, trough and peak rates, and up to three bursts
    /// (often overlapping, multipliers 0.25–4) whose edges sit anywhere,
    /// on a cell edge, or one ulp to either side of one.
    fn shapes() -> impl Strategy<Value = RequestWorkloadBuilder> {
        let burst = (0.0f64..2.0, 0.0f64..1.0, 0u8..4, 0u8..4, 0.25f64..4.0);
        let bursts = prop::collection::vec(burst, 0..4);
        (0u64..u64::MAX, 0.5f64..10.0, 1.0f64..150.0, 1.0f64..4.0, bursts).prop_map(
            |(seed, day, base, peak_over_base, bursts)| {
                let width = day / CELLS_PER_DAY;
                let snap = |t: f64, how: u8| {
                    let edge = (t / width).round() * width;
                    match how {
                        0 => t,
                        1 => edge,
                        2 => edge.next_down(),
                        _ => edge.next_up(),
                    }
                };
                let mut b = RequestWorkload::builder("drawn");
                b.seed(seed).day(Seconds::new(day)).rates(base, base * peak_over_base);
                for (start, length, snap_start, snap_end, multiplier) in bursts {
                    let start = snap(start * day, snap_start);
                    let end = snap(start + length * day, snap_end).max(start.next_up());
                    b.burst(Seconds::new(start), Seconds::new(end), multiplier);
                }
                b
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Settling candidates from the `sure` bound and a cached cell, and
        /// drawing demands with the hoisted Pareto constants, changes no
        /// bit: the stream, drawn through random window splits over up to
        /// three days, equals `exact_walk`'s bit for bit.
        #[test]
        fn bounded_thinning_matches_the_reference_stream(
            shape in shapes(),
            alpha in 1.1f64..3.0,
            cap in 2.0f64..100.0,
            days in 1.0f64..3.0,
            splits in prop::collection::vec(0.0005f64..0.5, 1..6),
        ) {
            let mut shape = shape;
            let load = shape.demand(2e6, alpha, cap).build().unwrap();
            let day = load.day.seconds();
            let splits: Vec<f64> = splits.iter().map(|split| split * day).collect();
            assert_matches_exact_walk(load, alpha, days * day, &splits);
        }

        /// Cell bounds hold on drawn shapes (see
        /// `cell_bounds_contain_the_exact_acceptance`).
        #[test]
        fn drawn_cell_bounds_contain_the_exact_acceptance(shape in shapes()) {
            let load = shape.build().unwrap();
            check_cell_bounds(&load, 2.0 * load.day.seconds());
        }
    }

    #[test]
    fn vanishing_cells_fall_back_to_the_exact_test() {
        // A 1 ns day would make 3.9e-12 s cells, and a walk would cross
        // 5e16 of them here; the 1/envelope floor makes each cell 8.3 s,
        // spanning billions of days, with trough and crest bounds.
        let mut b = RequestWorkload::builder("vanishing");
        b.seed(3)
            .day(Seconds::new(1e-9))
            .rates(0.01, 0.04)
            .burst(Seconds::new(3e4), Seconds::new(1e5), 3.0);
        let load = b.build().unwrap();
        check_cell_bounds(&load, 2e5);
        assert_matches_exact_walk(load.clone(), 1.5, 2e5, &[1e4]);
        // Past 2^57 s floats sit 32 s apart, wider than a cell, so some
        // cells hold no float: there the walk draws at the global envelope
        // and the exact test decides.
        let far = 2f64.powi(57);
        assert!(!load.cell_at(far).contains(far));
        let mut load = load;
        load.cursor = Seconds::new(far);
        assert_matches_exact_walk(load, 1.5, far + 1e4, &[1e3]);
    }

    /// Walks the cells from 0 to `horizon` and checks each: it starts where
    /// the last ended, is at least `1 / envelope` wide, and has `sure ≤
    /// rate_at(t) / majorant ≤ 1` at its edges, its midpoint and each burst
    /// edge ± 1 ulp inside it. Returns how many candidates the exact test
    /// is expected to decide over `[0, horizon)`: a cell draws candidates
    /// at its majorant and leaves `1 − sure` of them to the exact test, so
    /// `Σ (1 − sure) · majorant · width`.
    fn check_cell_bounds(load: &RequestWorkload, horizon: f64) -> f64 {
        let burst_edges: Vec<f64> = load
            .bursts
            .iter()
            .flat_map(|b| [b.start.seconds(), b.end.seconds()])
            .flat_map(|e| [e.next_down(), e, e.next_up()])
            .collect();
        let mut undecided = 0.0;
        let mut start = 0.0;
        while start < horizon {
            let cell = load.cell_at(start);
            assert_eq!(cell.start, start, "cells must tile the axis");
            assert!(
                cell.end - cell.start >= (1.0 - BOUND_PAD) / load.envelope_rps,
                "{cell:?} is narrower than 1/envelope = {}",
                1.0 / load.envelope_rps
            );
            undecided += (1.0 - cell.sure) * cell.majorant * (cell.end.min(horizon) - cell.start);
            let edges = [cell.start, cell.end.next_down(), 0.5 * (cell.start + cell.end)];
            let inside = burst_edges.iter().copied().filter(|&t| cell.contains(t));
            for t in edges.into_iter().chain(inside) {
                assert!(cell.contains(t), "{t} outside {cell:?}");
                let rate = load.rate_at(Seconds::new(t));
                assert!(
                    cell.sure <= rate / cell.majorant && rate <= cell.majorant,
                    "rate({t}) = {rate} outside {cell:?}"
                );
            }
            start = cell.end;
        }
        undecided
    }

    /// The serve experiment's day (`serve.rs`): 86.4 s, 40/160 rps and a
    /// 3× burst over [40, 48) s.
    fn serve_day() -> RequestWorkloadBuilder {
        let mut b = RequestWorkload::builder("front-end");
        b.rates(40.0, 160.0).burst(Seconds::new(40.0), Seconds::new(48.0), 3.0);
        b
    }

    /// The fleet short day (`serve.rs`'s fleet stage and perfbench's
    /// fleet-day): 20 s, 40/160 rps and a 3× burst over [8, 12) s.
    fn short_day() -> RequestWorkloadBuilder {
        let mut b = RequestWorkload::builder("short-day");
        b.day(Seconds::new(20.0))
            .rates(40.0, 160.0)
            .burst(Seconds::new(8.0), Seconds::new(12.0), 3.0);
        b
    }

    #[test]
    fn cell_bounds_contain_the_exact_acceptance() {
        // On the two committed shapes the walk evaluates the rate for fewer
        // than 2 in 100 requests over two days (0.0191 and 0.0167). The
        // global envelope did so exactly as often: in either sampler a
        // cell's candidates reach the exact test at `hi − lo` per second.
        for shape in [serve_day(), short_day()] {
            let load = shape.build().unwrap();
            let horizon = 2.0 * load.day.seconds();
            let per_request = check_cell_bounds(&load, horizon) / integrated_rate(&load, horizon);
            assert!(per_request < 0.02, "{}: {per_request} exact tests per request", shape.name);
        }
    }

    /// `Λ(t) = ∫₀ᵗ rate_at`, in closed form: the raised cosine's
    /// antiderivative, times the burst product on each piece between burst
    /// edges.
    fn integrated_rate(load: &RequestWorkload, t: f64) -> f64 {
        use std::f64::consts::TAU;
        let day = load.day.seconds();
        let swing = load.peak_rps - load.base_rps;
        let diurnal =
            |s: f64| load.base_rps * s + 0.5 * swing * (s - day / TAU * (TAU * s / day).sin());
        let mut edges: Vec<f64> = load
            .bursts
            .iter()
            .flat_map(|b| [b.start.seconds(), b.end.seconds()])
            .filter(|&edge| 0.0 < edge && edge < t)
            .chain([0.0, t])
            .collect();
        edges.sort_by(f64::total_cmp);
        edges
            .windows(2)
            .map(|piece| {
                let (a, b) = (piece[0], piece[1]);
                let burst: f64 = load
                    .bursts
                    .iter()
                    .filter(|x| x.start.seconds() <= a && a < x.end.seconds())
                    .map(|x| x.multiplier)
                    .product();
                burst * (diurnal(b) - diurnal(a))
            })
            .sum()
    }

    /// `√n · D`, the Kolmogorov–Smirnov statistic of `samples` against
    /// `cdf`.
    fn ks_statistic(mut samples: Vec<f64>, cdf: impl Fn(f64) -> f64) -> f64 {
        samples.sort_by(f64::total_cmp);
        let n = samples.len() as f64;
        let d = samples
            .iter()
            .enumerate()
            .map(|(i, &x)| (cdf(x) - i as f64 / n).max((i + 1) as f64 / n - cdf(x)))
            .fold(0.0, f64::max);
        n.sqrt() * d
    }

    /// The 0.1 % critical value of `√n · D`.
    const KS_CRITICAL: f64 = 1.95;

    /// The law oracle. Draws `shape` over `[0, horizon)` at seeds 1–8 with
    /// `sample` and returns `√n · D` of the time-rescaled gaps `Λ(tᵢ) −
    /// Λ(tᵢ₋₁)` against Exp(1) (Brown et al., *Neural Computation* 14(2),
    /// 2002: the gaps of a Poisson process with integrated rate Λ are
    /// i.i.d. Exp(1)), and of the demands against the bounded-Pareto CDF.
    fn law_statistics(
        shape: &RequestWorkloadBuilder,
        horizon: f64,
        sample: impl Fn(&mut RequestWorkload, Seconds) -> Vec<Request>,
    ) -> (f64, f64) {
        let (mut gaps, mut demands) = (Vec::new(), Vec::new());
        let load = shape.build().unwrap();
        for seed in 1..=8 {
            let mut last = 0.0;
            for r in sample(&mut load.reseeded(seed), Seconds::new(horizon)) {
                let lambda = integrated_rate(&load, r.arrival.seconds());
                gaps.push(lambda - last);
                last = lambda;
                demands.push(r.instructions);
            }
        }
        let alpha = shape.tail_alpha;
        let pareto = |x: f64| {
            (1.0 - (load.xmin / x).powf(alpha)) / (1.0 - (load.xmin / load.xmax).powf(alpha))
        };
        (ks_statistic(gaps, |x| -(-x).exp_m1()), ks_statistic(demands, pareto))
    }

    /// The oracle's shapes and horizons: the serve day, two short days,
    /// and the overlapping and staggered bursts past their last edge.
    fn oracle_shapes() -> [(RequestWorkloadBuilder, f64); 4] {
        [
            (serve_day(), 86.4),
            (short_day(), 40.0),
            (overlapping_bursts(), 30.0),
            (staggered_bursts(), 50.0),
        ]
    }

    #[test]
    fn arrival_law_holds_for_both_samplers() {
        let walk = |load: &mut RequestWorkload, end: Seconds| {
            let mut out = Vec::new();
            load.arrivals_into(Seconds::ZERO, end, &mut out);
            out
        };
        let global = |load: &mut RequestWorkload, end: Seconds| {
            let mut out = Vec::new();
            let envelope = load.envelope_rps;
            reference_arrivals(load, envelope, end, &mut out);
            out
        };
        for (shape, horizon) in oracle_shapes() {
            let walked = law_statistics(&shape, horizon, walk);
            let enveloped = law_statistics(&shape, horizon, global);
            for (sampler, (gaps, demands)) in [("walk", walked), ("global", enveloped)] {
                let name = &shape.name;
                assert!(gaps < KS_CRITICAL, "{name}: {sampler} gaps √n·D = {gaps}");
                assert!(demands < KS_CRITICAL, "{name}: {sampler} demands √n·D = {demands}");
            }
        }
    }

    #[test]
    fn arrival_law_oracle_catches_an_envelope_below_the_rate() {
        // The envelope before overlapping bursts compounded: the peak times
        // the largest single multiplier, 300 rps where the rate is 600.
        let shape = overlapping_bursts();
        let single = |load: &mut RequestWorkload, end: Seconds| {
            let mut out = Vec::new();
            let largest = load.bursts.iter().map(|b| b.multiplier).fold(1.0, f64::max);
            let envelope = load.peak_rps * largest;
            reference_arrivals(load, envelope, end, &mut out);
            out
        };
        let (gaps, _) = law_statistics(&shape, 30.0, single);
        assert!(gaps > KS_CRITICAL, "√n·D = {gaps} misses the clipped rate");
    }

    /// FNV-1a over the bit patterns of every arrival time and demand.
    fn stream_hash(requests: &[Request]) -> u64 {
        requests
            .iter()
            .flat_map(|r| [r.arrival.seconds().to_bits(), r.instructions.to_bits()])
            .fold(0xCBF2_9CE4_8422_2325 ^ requests.len() as u64, |h, bits| {
                (h ^ bits).wrapping_mul(0x0000_0100_0000_01B3)
            })
    }

    #[test]
    fn committed_stream_families_are_pinned() {
        // The serve day at the run seeds 11/23/47, and the short day as
        // the fleet stage's per-lane `reseeded` copies of one family,
        // drawn over two days in 0.1 s windows. A change to any bit of
        // any arrival or demand moves a hash.
        let serve: Vec<u64> = [11, 23, 47]
            .iter()
            .map(|&seed| {
                let mut load = serve_day().seed(seed).build().unwrap();
                stream_hash(&drain(&mut load, 0.0, 86.4))
            })
            .collect();
        let family = short_day().seed(0xF1EE7).build().unwrap();
        let lanes: Vec<u64> = (1_000..1_004)
            .map(|lane| {
                let mut load = family.reseeded(lane);
                let mut out = Vec::new();
                for w in 0..400 {
                    let (start, end) = (w as f64 * 0.1, (w + 1) as f64 * 0.1);
                    load.arrivals_into(Seconds::new(start), Seconds::new(end), &mut out);
                }
                stream_hash(&out)
            })
            .collect();
        assert_eq!(
            serve,
            [0xE47F_6B5A_CF1D_CBD5, 0xBC76_3273_1F37_B328, 0x4E44_44DF_D0EF_BDAE],
            "serve day streams moved"
        );
        assert_eq!(
            lanes,
            [
                0xFFBA_3E6E_7F50_3E65,
                0xFD99_1793_9E26_A408,
                0x40DA_52C9_961D_BF33,
                0x2DBE_37AF_07BD_262A
            ],
            "fleet short-day lanes moved"
        );
    }

    #[test]
    fn builder_rejects_bad_parameters() {
        assert!(RequestWorkload::builder("x").rates(0.0, 10.0).build().is_err());
        assert!(RequestWorkload::builder("x").rates(10.0, 5.0).build().is_err());
        assert!(RequestWorkload::builder("x").day(Seconds::ZERO).build().is_err());
        assert!(RequestWorkload::builder("x").demand(2e6, 1.0, 50.0).build().is_err());
        assert!(RequestWorkload::builder("x").demand(2e6, 1.5, 0.5).build().is_err());
        let mut b = RequestWorkload::builder("x");
        b.burst(Seconds::new(5.0), Seconds::new(5.0), 2.0);
        assert!(b.build().is_err());
    }
}
