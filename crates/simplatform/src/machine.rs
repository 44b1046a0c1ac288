//! The machine executor: runs a [`PhaseProgram`] under DVFS control.
//!
//! [`Machine`] is the system under test. It advances in continuous time
//! (ticks of any length, typically the 10 ms sampling interval), executing
//! the program's phases at the current p-state, accumulating hardware event
//! counts and true energy. Governors interact with it only through
//! [`Machine::set_pstate`] and the telemetry layer — just as the paper's
//! user-level controller saw the real machine only through the PMC driver
//! and the DAQ.

use crate::config::MachineConfig;
use crate::counters::{CounterBlock, CounterSnapshot};
use crate::dvfs::transition_cost;
use crate::error::{PlatformError, Result};
use crate::events::HardwareEvent;
use crate::noise::NoiseSource;
use crate::phase::PhaseDescriptor;
use crate::pipeline::{evaluate, PhaseRates};
use crate::power::GroundTruthPower;
use crate::program::PhaseProgram;
use crate::requests::{QueueSample, Request, RequestQueue};
use crate::pstate::{PState, PStateId};
use crate::thermal::{Celsius, ThermalModel};
use crate::throttle::ThrottleLevel;
use crate::units::{Joules, Seconds, Watts};

/// Relative instruction-count tolerance for phase completion.
///
/// The boundary rule: a phase is complete as soon as its *remaining*
/// instruction count drops to within `budget × PHASE_END_REL_EPS` of zero.
/// The tolerance is relative because both error sources scale with the
/// budget — the `left / ips × ips` round-trip at an exact boundary loses a
/// few ulps of `left`, and `phase_done_instructions` accumulates one ulp of
/// the budget per sub-step. A relative rule keeps the admitted time error
/// below `1e-9 × phase_time` at any `ips`, where the old absolute `1e-6`
/// residue (machine.rs pre-refactor) was simultaneously too loose for tiny
/// phases and too strict for multi-billion-instruction ones, and the exact
/// float compare it was paired with could fire on one path but not the
/// other, double-advancing a boundary.
pub(crate) const PHASE_END_REL_EPS: f64 = 1e-9;

/// Derived per-segment state, memoized across ticks.
///
/// Everything here is a pure function of the (phase index, p-state,
/// throttle) key plus machine constants, so reusing it across the sub-steps
/// of a segment is bit-identical to recomputing it — the property tests in
/// this module drive a memoized machine against the uncached reference path
/// to prove it.
///
/// Every per-segment cost expression lives on this type. Clock modulation
/// gates the core clock for (1 − duty) of the wall-clock time: work and
/// cycle-counted events scale with the duty, the gated fraction draws
/// leakage only.
#[derive(Debug, Clone, Copy)]
struct SegmentMemo {
    phase_index: usize,
    pstate: PStateId,
    throttle: ThrottleLevel,
    rates: PhaseRates,
    active_power: Watts,
    gated_power: Watts,
    phase_instructions: f64,
    hz: f64,
    duty: f64,
}

impl SegmentMemo {
    /// Retired instructions per second at execution jitter `jitter`.
    fn ips(&self, jitter: f64) -> f64 {
        self.rates.instructions_per_second * jitter * self.duty
    }

    /// Unhalted core cycles over `adv`.
    fn cycles(&self, adv: Seconds) -> f64 {
        self.hz * (adv * self.duty).seconds()
    }

    /// True energy over `adv`: active power while the clock runs, gated
    /// (leakage) power for the rest.
    fn energy(&self, adv: Seconds) -> Joules {
        self.active_power * (adv * self.duty) + self.gated_power * (adv * (1.0 - self.duty))
    }
}

/// What ended a segment.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SegmentEnd {
    /// The caller's limit, or the end of a DVFS stall.
    Limit,
    /// The current phase or head request completed.
    Done,
    /// An idle core reached the next request arrival, at this time.
    Arrival(Seconds),
}

/// One segment advanced by the segment primitive, for the caller to commit.
#[derive(Debug, Clone, Copy)]
struct Segment {
    adv: Seconds,
    executed: f64,
    energy: Joules,
    end: SegmentEnd,
}

/// Time to the current phase boundary at `ips` retired instructions per
/// second. Zero when nothing is left; unbounded when the segment retires
/// nothing (a zero-rate segment never reaches its boundary on its own) —
/// the plain `left / ips` division would produce `0/0 = NaN` there. On
/// every reachable rate the result is bit-identical to the division.
fn time_to_phase_end(left_in_phase: f64, ips: f64) -> Seconds {
    if left_in_phase <= 0.0 {
        Seconds::ZERO
    } else if ips <= 0.0 {
        Seconds::new(f64::INFINITY)
    } else {
        Seconds::new(left_in_phase / ips)
    }
}

/// What happened during one [`Machine::tick`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickOutcome {
    /// Simulated time advanced (the requested `dt` for [`Machine::tick`];
    /// the executed segment length for [`Machine::fast_forward`]).
    pub advanced: Seconds,
    /// Instructions retired during the tick.
    pub instructions: f64,
    /// Average true power over the tick.
    pub average_power: Watts,
    /// Whether the program finished during or before this tick.
    pub finished: bool,
}

/// The simulated system under test.
///
/// # Examples
///
/// ```
/// use aapm_platform::config::MachineConfig;
/// use aapm_platform::machine::Machine;
/// use aapm_platform::phase::PhaseDescriptor;
/// use aapm_platform::program::PhaseProgram;
/// use aapm_platform::units::Seconds;
///
/// let phase = PhaseDescriptor::builder("work").instructions(10_000_000).build()?;
/// let mut machine = Machine::new(MachineConfig::default(), PhaseProgram::from_phase(phase));
/// while !machine.finished() {
///     machine.tick(Seconds::from_millis(10.0));
/// }
/// assert!(machine.completion_time().is_some());
/// # Ok::<(), aapm_platform::error::PlatformError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
    power_model: GroundTruthPower,
    program: PhaseProgram,
    current: PStateId,
    phase_index: usize,
    phase_done_instructions: f64,
    phase_jitter: f64,
    counters: CounterBlock,
    elapsed: Seconds,
    true_energy: Joules,
    transition_remaining: Seconds,
    transitions_performed: u64,
    completion_time: Option<Seconds>,
    throttle: ThrottleLevel,
    thermal: ThermalModel,
    noise: NoiseSource,
    memo: Option<SegmentMemo>,
    /// Serve mode: an open-loop request queue drained work-conservingly by
    /// [`Machine::tick`] instead of the batch phase loop. `None` for batch
    /// machines.
    serve: Option<RequestQueue>,
}

impl Machine {
    /// Creates a machine ready to execute `program` from its first phase.
    pub fn new(config: MachineConfig, program: PhaseProgram) -> Self {
        let mut noise = NoiseSource::seeded(config.seed());
        let phase_jitter = Self::sample_jitter(&mut noise, config.execution_variation());
        let thermal = ThermalModel::new(*config.thermal());
        Machine {
            power_model: *config.power(),
            current: config.initial_pstate(),
            config,
            program,
            phase_index: 0,
            phase_done_instructions: 0.0,
            phase_jitter,
            counters: CounterBlock::new(),
            elapsed: Seconds::ZERO,
            true_energy: Joules::ZERO,
            transition_remaining: Seconds::ZERO,
            transitions_performed: 0,
            completion_time: None,
            throttle: ThrottleLevel::FULL,
            thermal,
            noise,
            memo: None,
            serve: None,
        }
    }

    /// Creates a serve-mode machine: an open-loop server whose work
    /// arrives as [`Request`]s instead of a fixed instruction budget.
    ///
    /// `service` describes the per-request instruction *mix* (CPI, memory
    /// behaviour, activity); its own instruction budget is ignored — each
    /// request carries its demand. A serve-mode machine never finishes:
    /// [`Machine::finished`] stays false and ticking an empty queue idles
    /// at the current p-state's idle power.
    pub fn server(config: MachineConfig, service: PhaseDescriptor) -> Self {
        let mut machine = Machine::new(config, PhaseProgram::from_phase(service));
        machine.serve = Some(RequestQueue::new());
        machine
    }

    fn sample_jitter(noise: &mut NoiseSource, variation: f64) -> f64 {
        if variation == 0.0 {
            1.0
        } else {
            // Clamp to keep throughput positive even in the far tails.
            noise.gaussian(1.0, variation).clamp(0.5, 1.5)
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The program being executed.
    pub fn program(&self) -> &PhaseProgram {
        &self.program
    }

    /// The current p-state id.
    pub fn pstate(&self) -> PStateId {
        self.current
    }

    /// The current operating point.
    pub fn operating_point(&self) -> &PState {
        self.config.pstates().get(self.current).expect("current p-state always valid")
    }

    /// Simulated time since boot.
    pub fn elapsed(&self) -> Seconds {
        self.elapsed
    }

    /// True energy consumed since boot (what a perfect meter would report).
    pub fn true_energy(&self) -> Joules {
        self.true_energy
    }

    /// Whether the program has retired all of its instructions.
    pub fn finished(&self) -> bool {
        self.phase_index >= self.program.len()
    }

    /// Time at which the program finished, if it has.
    pub fn completion_time(&self) -> Option<Seconds> {
        self.completion_time
    }

    /// Number of p-state transitions performed so far.
    pub fn transitions_performed(&self) -> u64 {
        self.transitions_performed
    }

    /// Snapshot of the hardware counters (the PMC driver reads this).
    pub fn counter_snapshot(&self) -> CounterSnapshot {
        self.counters.snapshot()
    }

    /// Whether this machine serves an open-loop request queue.
    pub fn is_serving(&self) -> bool {
        self.serve.is_some()
    }

    /// The request queue, when in serve mode.
    pub fn queue(&self) -> Option<&RequestQueue> {
        self.serve.as_ref()
    }

    /// Offers a request to the serve queue (arrivals may lie in the
    /// future; the server starts them once simulated time reaches them).
    ///
    /// # Panics
    ///
    /// Panics if the machine is not in serve mode, or (debug) if arrivals
    /// regress.
    pub fn offer_request(&mut self, request: Request) {
        self.serve.as_mut().expect("offer_request on a batch machine").offer(request);
    }

    /// Drains the completions since the previous call into a
    /// [`QueueSample`] stamped at the current simulated time. `None` for
    /// batch machines.
    pub fn take_queue_sample(&mut self) -> Option<QueueSample> {
        let now = self.elapsed;
        self.serve.as_mut().map(|q| q.drain_sample(now))
    }

    /// Instantaneous true power right now (idle power if finished or
    /// mid-transition; duty-weighted under clock modulation).
    pub fn instantaneous_power(&self) -> Watts {
        let ps = *self.operating_point();
        if self.finished() || self.transition_remaining.is_positive() {
            return self.power_model.idle_power(&ps);
        }
        // An open-loop server with nothing in the queue draws idle power.
        if self.serve.as_ref().is_some_and(|q| q.head_at(self.elapsed).is_none()) {
            return self.power_model.idle_power(&ps);
        }
        let m = self.live_memo().copied().unwrap_or_else(|| self.derive_memo());
        m.active_power * m.duty + m.gated_power * (1.0 - m.duty)
    }

    /// The current clock-modulation (throttle) level.
    pub fn throttle(&self) -> ThrottleLevel {
        self.throttle
    }

    /// Sets the clock-modulation duty level, effective immediately. Unlike
    /// DVFS, clock modulation reprograms within microseconds, so no stall
    /// is charged.
    pub fn set_throttle(&mut self, level: ThrottleLevel) {
        self.throttle = level;
    }

    /// Requests a p-state change, effective immediately; the core stalls for
    /// the transition cost before executing further instructions. Requesting
    /// the current p-state is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::PlatformError::UnknownPState`] if `target` is
    /// not in the table.
    pub fn set_pstate(&mut self, target: PStateId) -> Result<()> {
        let to = *self.config.pstates().get(target)?;
        if target == self.current {
            return Ok(());
        }
        let from = *self.operating_point();
        let transition = transition_cost(&from, &to, self.config.dvfs());
        self.current = target;
        self.transition_remaining += transition.stall;
        self.transitions_performed += 1;
        Ok(())
    }

    /// Advances simulated time by `dt`, executing the program (or, in serve
    /// mode, draining the request queue).
    ///
    /// The tick loops the machine's one segment primitive, so it subdivides
    /// at DVFS stalls, phase boundaries, request completions and arrivals;
    /// counters, energy, and elapsed time always advance by exactly `dt`
    /// worth of simulation. Two clock rules hold:
    ///
    /// * Segment limits come from the shrinking tick remainder, so a first
    ///   segment that nothing cuts short advances by exactly `dt`, and a
    ///   completion is stamped `elapsed + (dt − remaining)`.
    /// * An idle segment that ends at an arrival *assigns* the clock to the
    ///   arrival time instead of reaching it by subtraction. A sub-ulp
    ///   arrival gap (an arrival one ulp past the clock, common once
    ///   arrivals come from a different float-summation order than the tick
    ///   grid) vanishes when subtracted from the remainder, and the loop
    ///   would otherwise spin forever without advancing.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn tick(&mut self, dt: Seconds) -> TickOutcome {
        assert!(dt.is_positive(), "tick duration must be positive");
        let mut remaining = dt;
        let mut now = self.elapsed;
        let mut energy = Joules::ZERO;
        let mut instructions = 0.0;

        while remaining.is_positive() {
            let seg = self.advance(now, remaining).expect("a finite tick always advances");
            energy += seg.energy;
            instructions += seg.executed;
            remaining = (remaining - seg.adv).clamp_non_negative();
            now = match seg.end {
                SegmentEnd::Arrival(at) => at,
                _ => self.elapsed + (dt - remaining),
            };
            if seg.end == SegmentEnd::Done {
                self.complete_work(now);
            }
        }

        self.elapsed += dt;
        self.true_energy += energy;
        let average_power = energy / dt;
        self.thermal.advance(average_power, dt);
        TickOutcome { advanced: dt, instructions, average_power, finished: self.finished() }
    }

    /// Advances the machine analytically by exactly one *segment*: the
    /// shortest of `max_dt`, the rest of a DVFS stall, or the time to the
    /// current phase boundary — energy, counters, thermal state, and
    /// completion time all advance in one closed-form step.
    ///
    /// Eligibility rule: `fast_forward` produces the same end state as an
    /// equivalent tick loop up to float summation order, but it never
    /// materializes the intermediate states, so it may only drive runs
    /// where nothing samples inside a segment — [`Machine::run_to_completion`],
    /// characterization sweeps, benches. Governed runs must keep calling
    /// [`Machine::tick`] at the sampling cadence: the DAQ/PMC sample and the
    /// governor decides (and noise streams advance) at every tick, so
    /// skipping ticks would change observable history, not just speed.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NoForwardProgress`] when `max_dt` is
    /// unbounded and the current segment retires nothing (zeroed phase
    /// rates): no finite advance reaches the phase boundary, so the old
    /// behaviour — booking `0 × ∞ = NaN` instructions and spinning forever
    /// under [`Machine::run_to_completion`] — is replaced by an error. With
    /// a finite `max_dt` the same segment advances boundedly instead: the
    /// full horizon elapses, gated/leakage energy is booked, and zero
    /// instructions retire — exactly what an equivalent [`Machine::tick`]
    /// would do.
    ///
    /// # Panics
    ///
    /// Panics if `max_dt` is not positive, or if the program has finished
    /// and `max_dt` is non-finite (an unbounded idle segment never ends).
    pub fn fast_forward(&mut self, max_dt: Seconds) -> Result<TickOutcome> {
        assert!(max_dt.is_positive(), "fast_forward horizon must be positive");
        // A serve-mode machine has no closed form (arrivals subdivide any
        // span), so a bounded horizon delegates to the tick loop; an
        // unbounded one can never end — an open-loop server never finishes.
        if self.serve.is_some() {
            assert!(
                max_dt.seconds().is_finite(),
                "cannot fast_forward an open-loop server over an unbounded horizon"
            );
            return Ok(self.tick(max_dt));
        }
        let seg = self.advance(self.elapsed, max_dt)?;
        Ok(self.book_segment(seg))
    }

    /// The segment primitive behind [`Machine::tick`] and
    /// [`Machine::fast_forward`]. Starting at simulated time `now`,
    /// advances by the shortest of `limit`, the rest of a DVFS stall, the
    /// time to the current phase boundary or head-request completion, and
    /// (on an idle server) the next arrival. Books the segment's counters
    /// and its phase or queue progress; the caller commits the returned
    /// time, work and energy, and completes the work on
    /// [`SegmentEnd::Done`].
    ///
    /// An idle core (finished program, or no arrived request) draws idle
    /// power and counts halted-clock cycles only. A zero-rate segment
    /// (corrupted jitter) runs to `limit` retiring nothing.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NoForwardProgress`], booking nothing, when
    /// `limit` is unbounded and the segment retires nothing.
    ///
    /// # Panics
    ///
    /// Panics if the core would idle over an unbounded `limit`.
    // Forced inline: as an out-of-line call (returning its `Result` through
    // memory) it made a batch `tick` ~15 % slower than the loop it replaced
    // (release build, 2-vCPU x86-64 VM).
    #[inline(always)]
    fn advance(&mut self, now: Seconds, limit: Seconds) -> Result<Segment> {
        // DVFS stall: clock halted, idle power, no events.
        if self.transition_remaining.is_positive() {
            let adv = limit.min(self.transition_remaining);
            self.transition_remaining = (self.transition_remaining - adv).clamp_non_negative();
            let energy = self.power_model.idle_power(self.operating_point()) * adv;
            return Ok(Segment { adv, executed: 0.0, energy, end: SegmentEnd::Limit });
        }

        let idle = match &self.serve {
            Some(queue) => queue.head_at(now).is_none(),
            None => self.finished(),
        };
        if idle {
            let arrival = self
                .serve
                .as_ref()
                .and_then(|queue| queue.next_arrival_after(now))
                .filter(|&at| at - now < limit);
            let adv = arrival.map_or(limit, |at| at - now);
            assert!(
                adv.seconds().is_finite(),
                "cannot fast_forward a finished machine over an unbounded horizon"
            );
            let (energy, cycles) = self.idle_cost(adv);
            self.counters.add(HardwareEvent::Cycles, cycles);
            let end = arrival.map_or(SegmentEnd::Limit, SegmentEnd::Arrival);
            return Ok(Segment { adv, executed: 0.0, energy, end });
        }

        // Execute the current phase or head request. The memo is borrowed
        // field by field, never copied, on this hot path.
        self.refresh_memo();
        let memo = self.memo.as_ref().expect("refresh_memo fills the memo");
        let ips = memo.ips(self.phase_jitter);
        let left = match &self.serve {
            Some(queue) => queue.head_remaining(),
            None => memo.phase_instructions - self.phase_done_instructions,
        };
        let adv = limit.min(time_to_phase_end(left, ips));
        if !adv.seconds().is_finite() {
            return Err(PlatformError::NoForwardProgress {
                phase: self.program.phases()[self.phase_index].name().to_owned(),
                pending: left,
            });
        }
        let executed = ips * adv.seconds();
        self.counters.add_rates(&memo.rates, memo.cycles(adv));
        // The single completion rule for phases and requests alike (see
        // PHASE_END_REL_EPS).
        let done = match &mut self.serve {
            Some(queue) => {
                queue.advance_head(executed);
                queue.head_complete()
            }
            None => {
                self.phase_done_instructions += executed;
                memo.phase_instructions - self.phase_done_instructions
                    <= memo.phase_instructions * PHASE_END_REL_EPS
            }
        };
        let end = if done { SegmentEnd::Done } else { SegmentEnd::Limit };
        Ok(Segment { adv, executed, energy: memo.energy(adv), end })
    }

    /// The memoized segment state, if its (phase, p-state, throttle) key
    /// still matches the machine.
    fn live_memo(&self) -> Option<&SegmentMemo> {
        self.memo.as_ref().filter(|m| {
            m.phase_index == self.phase_index
                && m.pstate == self.current
                && m.throttle == self.throttle
        })
    }

    /// Derives the segment state for the current key from scratch.
    fn derive_memo(&self) -> SegmentMemo {
        let ps = self.operating_point();
        let phase = &self.program.phases()[self.phase_index];
        let rates = evaluate(phase, ps, self.config.timings());
        SegmentMemo {
            phase_index: self.phase_index,
            pstate: self.current,
            throttle: self.throttle,
            rates,
            active_power: self.power_model.power(ps, &rates, phase.activity()),
            gated_power: self.power_model.gated_power(ps),
            phase_instructions: phase.instructions() as f64,
            hz: ps.frequency().hz(),
            duty: self.throttle.duty(),
        }
    }

    /// Derives and caches the segment state on a key change.
    fn refresh_memo(&mut self) {
        if self.live_memo().is_none() {
            self.memo = Some(self.derive_memo());
        }
    }

    /// Energy and (halted-clock) cycle count of idling for `adv` at the
    /// current p-state.
    fn idle_cost(&self, adv: Seconds) -> (Joules, f64) {
        let ps = self.operating_point();
        (self.power_model.idle_power(ps) * adv, ps.frequency().hz() * adv.seconds())
    }

    /// Completes the current phase or head request at simulated time `now`:
    /// resamples the execution jitter (per phase, or per request — the
    /// serve analogue) and latches the completion time once the program is
    /// done.
    fn complete_work(&mut self, now: Seconds) {
        match &mut self.serve {
            Some(queue) => queue.complete_head(now),
            None => {
                self.phase_index += 1;
                self.phase_done_instructions = 0.0;
            }
        }
        self.phase_jitter = Self::sample_jitter(&mut self.noise, self.config.execution_variation());
        if self.finished() {
            self.completion_time = Some(now);
        }
    }

    /// Commits a fast-forwarded segment: completes the work at the
    /// segment's end, then advances elapsed time, energy, and the thermal
    /// model. A zero-length segment (e.g. a zero-instruction phase) books
    /// nothing.
    fn book_segment(&mut self, seg: Segment) -> TickOutcome {
        if seg.end == SegmentEnd::Done {
            self.complete_work(self.elapsed + seg.adv);
        }
        let Segment { adv, executed: instructions, energy, .. } = seg;
        self.elapsed += adv;
        self.true_energy += energy;
        let average_power = if adv.is_positive() { energy / adv } else { Watts::ZERO };
        if adv.is_positive() {
            self.thermal.advance(average_power, adv);
        }
        TickOutcome { advanced: adv, instructions, average_power, finished: self.finished() }
    }

    /// Current die temperature from the integrated RC thermal model.
    pub fn temperature(&self) -> Celsius {
        self.thermal.temperature()
    }

    /// Runs the machine to completion segment-by-segment (see
    /// [`Machine::fast_forward`]), returning total wall-clock time. For
    /// unobserved runs only — tests, characterization, benches; governed
    /// runs must tick at their sampling cadence instead.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NoForwardProgress`] when a segment retires
    /// nothing (zeroed phase rates), since the program can then never
    /// finish.
    pub fn run_to_completion(&mut self) -> Result<Seconds> {
        while !self.finished() {
            self.fast_forward(Seconds::new(f64::INFINITY))?;
        }
        Ok(self.completion_time().expect("finished machines have a completion time"))
    }

    /// Reference implementation of [`Machine::tick`] with no memoization:
    /// rates and powers are re-derived from scratch on every sub-step and
    /// counters advance through per-event dispatched adds. The property
    /// tests drive this against the memoized `tick` on identical inputs to
    /// prove the memo changes nothing, bit for bit.
    #[cfg(test)]
    fn tick_uncached(&mut self, dt: Seconds) -> TickOutcome {
        assert!(dt.is_positive(), "tick duration must be positive");
        let mut remaining = dt;
        let mut energy = Joules::ZERO;
        let mut instructions = 0.0;

        while remaining.is_positive() {
            let ps = *self.operating_point();

            if self.transition_remaining.is_positive() {
                let adv = remaining.min(self.transition_remaining);
                energy += self.power_model.idle_power(&ps) * adv;
                self.transition_remaining = (self.transition_remaining - adv).clamp_non_negative();
                remaining = (remaining - adv).clamp_non_negative();
                continue;
            }

            if self.finished() {
                energy += self.power_model.idle_power(&ps) * remaining;
                self.counters.add(HardwareEvent::Cycles, ps.frequency().hz() * remaining.seconds());
                remaining = Seconds::ZERO;
                continue;
            }

            let duty = self.throttle.duty();
            // Derive everything fresh inside a scoped borrow of the phase,
            // ending the borrow before the counter/energy mutations below.
            let (rates, active_power, gated_power, phase_instructions) = {
                let phase = &self.program.phases()[self.phase_index];
                let rates = evaluate(phase, &ps, self.config.timings());
                (
                    rates,
                    self.power_model.power(&ps, &rates, phase.activity()),
                    self.power_model.gated_power(&ps),
                    phase.instructions() as f64,
                )
            };
            let ips = rates.instructions_per_second * self.phase_jitter * duty;
            let left_in_phase = phase_instructions - self.phase_done_instructions;
            let ttpe = time_to_phase_end(left_in_phase, ips);
            let adv = remaining.min(ttpe);

            let executed = ips * adv.seconds();
            let cycles = ps.frequency().hz() * (adv * duty).seconds();
            let c = &mut self.counters;
            c.add(HardwareEvent::Cycles, cycles);
            c.add(HardwareEvent::InstructionsRetired, rates.ipc * cycles);
            c.add(HardwareEvent::InstructionsDecoded, rates.dpc * cycles);
            c.add(HardwareEvent::DcuMissOutstanding, rates.dcu_outstanding_per_cycle * cycles);
            c.add(HardwareEvent::ResourceStalls, rates.resource_stalls_per_cycle * cycles);
            c.add(HardwareEvent::MemoryRequests, rates.memory_requests_per_cycle * cycles);
            c.add(HardwareEvent::L2Requests, rates.l2_requests_per_cycle * cycles);
            c.add(HardwareEvent::L1DMisses, rates.l1_misses_per_cycle * cycles);
            c.add(HardwareEvent::L2Misses, rates.l2_misses_per_cycle * cycles);
            c.add(HardwareEvent::FpOperations, rates.fp_per_cycle * cycles);
            c.add(HardwareEvent::BranchesRetired, rates.branches_per_cycle * cycles);
            c.add(HardwareEvent::BranchMispredictions, rates.mispredicts_per_cycle * cycles);
            c.add(HardwareEvent::HardwarePrefetches, rates.prefetches_per_cycle * cycles);
            c.add(HardwareEvent::UopsRetired, rates.uops_per_cycle * cycles);
            energy += active_power * (adv * duty) + gated_power * (adv * (1.0 - duty));
            instructions += executed;
            self.phase_done_instructions += executed;
            remaining = (remaining - adv).clamp_non_negative();

            if phase_instructions - self.phase_done_instructions
                <= phase_instructions * PHASE_END_REL_EPS
            {
                self.complete_work(self.elapsed + (dt - remaining));
            }
        }

        self.elapsed += dt;
        self.true_energy += energy;
        let average_power = energy / dt;
        self.thermal.advance(average_power, dt);
        TickOutcome { advanced: dt, instructions, average_power, finished: self.finished() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::PhaseDescriptor;

    fn simple_program(instructions: u64) -> PhaseProgram {
        // Mispredict rate zeroed so total CPI equals core CPI exactly.
        let phase = PhaseDescriptor::builder("work")
            .instructions(instructions)
            .core_cpi(1.0)
            .mispredict_rate(0.0)
            .build()
            .unwrap();
        PhaseProgram::from_phase(phase)
    }

    fn quiet_config() -> MachineConfig {
        let mut builder = MachineConfig::builder();
        builder.execution_variation(0.0).seed(1);
        builder.build().unwrap()
    }

    #[test]
    fn program_completes_in_expected_time() {
        // 20M instructions at CPI 1.0, 2 GHz → 10 ms.
        let mut machine = Machine::new(quiet_config(), simple_program(20_000_000));
        let time = machine.run_to_completion().unwrap();
        assert!((time.millis() - 10.0).abs() < 0.1, "took {time}");
    }

    #[test]
    fn counters_match_analytic_rates() {
        let mut machine = Machine::new(quiet_config(), simple_program(200_000_000));
        let before = machine.counter_snapshot();
        machine.tick(Seconds::from_millis(10.0));
        let delta = machine.counter_snapshot() - before;
        // 2 GHz for 10 ms = 20M cycles; CPI 1.0 → 20M instructions.
        assert!((delta.get(HardwareEvent::Cycles) - 20e6).abs() < 1.0);
        assert!((delta.ipc() - 1.0).abs() < 1e-9);
        assert!((delta.dpc() - 1.1).abs() < 1e-9, "default decode ratio 1.1");
    }

    #[test]
    fn lower_pstate_slows_execution() {
        let config = quiet_config();
        let mut fast = Machine::new(config.clone(), simple_program(50_000_000));
        let mut slow = Machine::new(config, simple_program(50_000_000));
        slow.set_pstate(PStateId::new(0)).unwrap();
        let t_fast = fast.run_to_completion().unwrap();
        let t_slow = slow.run_to_completion().unwrap();
        // Core-bound: time ratio ≈ frequency ratio 2000/600.
        let ratio = t_slow / t_fast;
        assert!((ratio - 2000.0 / 600.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn energy_accumulates_and_scales_with_pstate() {
        let config = quiet_config();
        let mut fast = Machine::new(config.clone(), simple_program(50_000_000));
        let mut slow = Machine::new(config, simple_program(50_000_000));
        slow.set_pstate(PStateId::new(0)).unwrap();
        fast.run_to_completion().unwrap();
        slow.run_to_completion().unwrap();
        assert!(fast.true_energy() > Joules::ZERO);
        // Core-bound work at low V/f takes longer but still wins on energy.
        assert!(slow.true_energy() < fast.true_energy());
    }

    #[test]
    fn transition_stall_consumes_time_without_instructions() {
        let mut machine = Machine::new(quiet_config(), simple_program(100_000_000));
        machine.set_pstate(PStateId::new(0)).unwrap();
        machine.set_pstate(PStateId::new(7)).unwrap(); // long upward ramp
        let before = machine.counter_snapshot();
        // The upward ramp is ~354 µs; tick 100 µs: entirely stalled.
        let outcome = machine.tick(Seconds::from_micros(100.0));
        let delta = machine.counter_snapshot() - before;
        assert_eq!(outcome.instructions, 0.0);
        assert_eq!(delta.get(HardwareEvent::InstructionsRetired), 0.0);
        assert!(outcome.average_power > Watts::ZERO, "idle power still drawn");
    }

    #[test]
    fn setting_same_pstate_is_free() {
        let mut machine = Machine::new(quiet_config(), simple_program(1_000_000));
        let current = machine.pstate();
        machine.set_pstate(current).unwrap();
        assert_eq!(machine.transitions_performed(), 0);
    }

    #[test]
    fn unknown_pstate_rejected() {
        let mut machine = Machine::new(quiet_config(), simple_program(1_000_000));
        assert!(machine.set_pstate(PStateId::new(42)).is_err());
    }

    #[test]
    fn finished_machine_idles() {
        let mut machine = Machine::new(quiet_config(), simple_program(1_000));
        machine.run_to_completion().unwrap();
        let energy_before = machine.true_energy();
        let outcome = machine.tick(Seconds::from_millis(10.0));
        assert!(outcome.finished);
        assert_eq!(outcome.instructions, 0.0);
        assert!(machine.true_energy() > energy_before, "idle power accumulates");
    }

    #[test]
    fn multi_phase_program_advances_through_phases() {
        let a = PhaseDescriptor::builder("a")
            .instructions(10_000_000)
            .mispredict_rate(0.0)
            .build()
            .unwrap();
        let b = PhaseDescriptor::builder("b")
            .instructions(10_000_000)
            .core_cpi(2.0)
            .mispredict_rate(0.0)
            .build()
            .unwrap();
        let program = PhaseProgram::new("ab", vec![a, b]).unwrap();
        let mut machine = Machine::new(quiet_config(), program);
        let time = machine.run_to_completion().unwrap();
        // 10M @ CPI 1 + 10M @ CPI 2 at 2 GHz = 5ms + 10ms.
        assert!((time.millis() - 15.0).abs() < 0.2, "took {time}");
    }

    #[test]
    fn completion_time_is_within_final_tick() {
        let mut machine = Machine::new(quiet_config(), simple_program(20_000_000));
        // Run with a coarse tick so completion lands mid-tick.
        while !machine.finished() {
            machine.tick(Seconds::from_millis(3.0));
        }
        let t = machine.completion_time().unwrap();
        assert!(t <= machine.elapsed());
        assert!((t.millis() - 10.0).abs() < 0.1, "completed at {t}");
    }

    #[test]
    fn die_heats_while_running_and_more_at_higher_pstates() {
        let mut hot = Machine::new(quiet_config(), simple_program(2_000_000_000));
        let mut cool = Machine::new(quiet_config(), simple_program(2_000_000_000));
        cool.set_pstate(PStateId::new(0)).unwrap();
        let ambient = hot.temperature();
        for _ in 0..200 {
            hot.tick(Seconds::from_millis(10.0));
            cool.tick(Seconds::from_millis(10.0));
        }
        assert!(hot.temperature() > ambient);
        assert!(hot.temperature() > cool.temperature());
    }

    #[test]
    fn throttling_slows_execution_proportionally() {
        let mut full = Machine::new(quiet_config(), simple_program(50_000_000));
        let mut half = Machine::new(quiet_config(), simple_program(50_000_000));
        half.set_throttle(crate::throttle::ThrottleLevel::new(4).unwrap());
        let t_full = full.run_to_completion().unwrap();
        let t_half = half.run_to_completion().unwrap();
        let ratio = t_half / t_full;
        assert!((ratio - 2.0).abs() < 0.01, "50% duty doubles time, got {ratio}");
    }

    #[test]
    fn throttling_cuts_average_power_but_not_energy() {
        let mut full = Machine::new(quiet_config(), simple_program(50_000_000));
        let mut half = Machine::new(quiet_config(), simple_program(50_000_000));
        half.set_throttle(crate::throttle::ThrottleLevel::new(4).unwrap());
        let t_full = full.run_to_completion().unwrap();
        let t_half = half.run_to_completion().unwrap();
        let p_full = full.true_energy() / t_full;
        let p_half = half.true_energy() / t_half;
        assert!(p_half < p_full, "gating halves the active time per second");
        // No voltage scaling: the same active energy is spent, plus extra
        // leakage over the doubled run time — total energy must not drop.
        assert!(
            half.true_energy() >= full.true_energy(),
            "throttling saves no energy: {} vs {}",
            half.true_energy(),
            full.true_energy()
        );
    }

    #[test]
    fn throttled_counters_scale_with_duty() {
        let mut machine = Machine::new(quiet_config(), simple_program(200_000_000));
        machine.set_throttle(crate::throttle::ThrottleLevel::new(2).unwrap());
        let before = machine.counter_snapshot();
        machine.tick(Seconds::from_millis(10.0));
        let delta = machine.counter_snapshot() - before;
        // At 2 GHz × 10 ms × 2/8 duty, only 5M unhalted cycles elapse…
        assert!((delta.get(HardwareEvent::Cycles) - 5e6).abs() < 1.0);
        // …and per-cycle rates look normal to the counters.
        assert!((delta.ipc() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let config = MachineConfig::pentium_m_755(99);
        let mut m1 = Machine::new(config.clone(), simple_program(30_000_000));
        let mut m2 = Machine::new(config, simple_program(30_000_000));
        let t1 = m1.run_to_completion().unwrap();
        let t2 = m2.run_to_completion().unwrap();
        assert_eq!(t1, t2);
        assert_eq!(m1.true_energy(), m2.true_energy());
    }

    #[test]
    fn different_seeds_vary_execution_time_slightly() {
        let t1 = Machine::new(MachineConfig::pentium_m_755(1), simple_program(200_000_000))
            .run_to_completion().unwrap();
        let t2 = Machine::new(MachineConfig::pentium_m_755(2), simple_program(200_000_000))
            .run_to_completion().unwrap();
        assert_ne!(t1, t2);
        let rel = (t1 / t2 - 1.0).abs();
        assert!(rel < 0.05, "variation should be small, got {rel}");
    }

    fn two_phase_program(instructions: u64) -> PhaseProgram {
        let a = PhaseDescriptor::builder("a")
            .instructions(instructions)
            .core_cpi(1.0)
            .mispredict_rate(0.0)
            .build()
            .unwrap();
        let b = PhaseDescriptor::builder("b")
            .instructions(instructions)
            .core_cpi(1.0)
            .mispredict_rate(0.0)
            .build()
            .unwrap();
        PhaseProgram::new("ab", vec![a, b]).unwrap()
    }

    #[test]
    fn exact_boundary_tick_advances_phase_exactly_once() {
        // 20M instructions at CPI 1.0, 2 GHz is exactly 10 ms, so a 10 ms
        // tick lands on the phase boundary to within an ulp. The old exact
        // float compare plus the absolute residue could fire twice here and
        // skip phase b entirely; the relative rule must advance exactly one
        // phase per boundary regardless of which side the ulp falls on.
        let mut machine = Machine::new(quiet_config(), two_phase_program(20_000_000));
        let first = machine.tick(Seconds::from_millis(10.0));
        assert!(!first.finished, "phase b must still be pending");
        assert!(
            (first.instructions - 20e6).abs() < 1.0,
            "first tick retires phase a: {}",
            first.instructions
        );
        let second = machine.tick(Seconds::from_millis(10.0));
        assert!(second.finished, "phase b completes in the second tick");
        let t = machine.completion_time().unwrap();
        assert!((t.millis() - 20.0).abs() < 1e-6, "completed at {t}");
    }

    #[test]
    fn sliced_boundary_conserves_instructions_at_tiny_ips() {
        // Cross both phase boundaries in sub-microsecond slices at the
        // slowest p-state with a heavy CPI, where the retired-per-tick
        // count is small and residue accumulates; the relative rule must
        // neither double-advance nor strand instructions.
        let a = PhaseDescriptor::builder("a")
            .instructions(50_000)
            .core_cpi(4.0)
            .mispredict_rate(0.0)
            .build()
            .unwrap();
        let b = PhaseDescriptor::builder("b")
            .instructions(50_000)
            .core_cpi(4.0)
            .mispredict_rate(0.0)
            .build()
            .unwrap();
        let program = PhaseProgram::new("ab", vec![a, b]).unwrap();
        let mut machine = Machine::new(quiet_config(), program);
        machine.set_pstate(PStateId::new(0)).unwrap();
        let mut retired = 0.0;
        let mut guard = 0;
        while !machine.finished() && guard < 5_000_000 {
            retired += machine.tick(Seconds::from_micros(0.37)).instructions;
            guard += 1;
        }
        assert!(machine.finished(), "machine must finish");
        let budget = 100_000.0;
        assert!(
            (retired - budget).abs() / budget < 1e-6,
            "retired {retired} of {budget}"
        );
    }

    #[test]
    fn fast_forward_matches_ticked_physics() {
        // Same seed, same program: the segment-level fast path must agree
        // with a fine tick loop on completion time (analytically exact in
        // both) and on energy up to the ticked run's idle tail.
        let config = MachineConfig::pentium_m_755(7);
        let mut fast = Machine::new(config.clone(), two_phase_program(10_000_000));
        let mut ticked = Machine::new(config, two_phase_program(10_000_000));
        let t_fast = fast.run_to_completion().unwrap();
        while !ticked.finished() {
            ticked.tick(Seconds::from_micros(50.0));
        }
        let t_ticked = ticked.completion_time().unwrap();
        assert!(
            (t_fast.seconds() - t_ticked.seconds()).abs() < 1e-9,
            "completion {t_fast} vs {t_ticked}"
        );
        let e_fast = fast.true_energy().joules();
        let e_ticked = ticked.true_energy().joules();
        // The ticked run idles out the tail of its final 50 µs tick.
        assert!((e_fast - e_ticked).abs() < 13.0 * 50e-6, "energy {e_fast} vs {e_ticked}");
        let i_fast = fast.counter_snapshot().get(HardwareEvent::InstructionsRetired);
        let i_ticked = ticked.counter_snapshot().get(HardwareEvent::InstructionsRetired);
        assert!((i_fast - i_ticked).abs() / i_ticked < 1e-9);
    }

    #[test]
    fn fast_forward_respects_horizon_and_stalls() {
        let mut machine = Machine::new(quiet_config(), simple_program(2_000_000_000));
        let horizon = Seconds::from_millis(1.0);
        let outcome = machine.fast_forward(horizon).unwrap();
        assert_eq!(outcome.advanced, horizon, "segment clipped to the horizon");
        assert!(outcome.instructions > 0.0);
        // A DVFS transition stalls the core: the next segment is the stall
        // itself, retiring nothing.
        machine.set_pstate(PStateId::new(0)).unwrap();
        let stalled = machine.fast_forward(Seconds::new(f64::INFINITY)).unwrap();
        assert_eq!(stalled.instructions, 0.0);
        assert!(stalled.advanced < horizon, "stall is microseconds, not the horizon");
        assert_eq!(machine.elapsed(), horizon + stalled.advanced);
    }

    /// Forces the current segment's effective retire rate to zero. Every
    /// validated phase keeps `ips` strictly positive (finite CPI > 0,
    /// positive frequency, duty ≥ 1/8, jitter clamped to [0.5, 1.5]), so
    /// the degenerate segment is reachable only by corrupting the jitter —
    /// which is exactly what this in-module helper does.
    fn zero_rate(machine: &mut Machine) {
        machine.phase_jitter = 0.0;
    }

    #[test]
    fn zero_rate_segment_fast_forwards_boundedly_on_a_finite_horizon() {
        let mut machine = Machine::new(quiet_config(), simple_program(50_000_000));
        zero_rate(&mut machine);
        let horizon = Seconds::from_millis(10.0);
        let outcome = machine.fast_forward(horizon).unwrap();
        // The whole horizon elapses, zero instructions retire, and the
        // booked quantities stay finite — the old `left / 0` division made
        // `advanced` infinite here.
        assert_eq!(outcome.advanced, horizon);
        assert_eq!(outcome.instructions, 0.0);
        assert!(outcome.average_power.watts().is_finite());
        assert!(machine.true_energy().joules().is_finite());
        assert_eq!(machine.elapsed(), horizon);
        assert!(!machine.finished());
    }

    #[test]
    fn zero_rate_segment_errors_on_an_unbounded_horizon() {
        let mut machine = Machine::new(quiet_config(), simple_program(50_000_000));
        zero_rate(&mut machine);
        let error = machine.fast_forward(Seconds::new(f64::INFINITY)).unwrap_err();
        assert!(
            matches!(
                &error,
                PlatformError::NoForwardProgress { phase, pending }
                    if phase == "work" && *pending == 50_000_000.0
            ),
            "unexpected error: {error}"
        );
        // Nothing was booked: the machine is untouched and usable.
        assert_eq!(machine.elapsed(), Seconds::ZERO);
        assert_eq!(machine.true_energy(), Joules::ZERO);
    }

    #[test]
    fn zero_rate_segment_fails_run_to_completion_instead_of_spinning() {
        // Pre-fix this looped forever: each infinite-horizon fast_forward
        // booked 0 × ∞ = NaN instructions without ever finishing the phase.
        let mut machine = Machine::new(quiet_config(), simple_program(50_000_000));
        zero_rate(&mut machine);
        assert!(matches!(
            machine.run_to_completion(),
            Err(PlatformError::NoForwardProgress { .. })
        ));
    }

    #[test]
    fn zero_rate_segment_ticks_idly_without_nan() {
        // `tick` shares the guarded time-to-phase-end rule: a zero-rate
        // segment idles through the tick (gated energy, no work) instead of
        // poisoning the accumulators with NaN.
        let mut machine = Machine::new(quiet_config(), simple_program(50_000_000));
        zero_rate(&mut machine);
        let outcome = machine.tick(Seconds::from_millis(10.0));
        assert_eq!(outcome.instructions, 0.0);
        assert!(outcome.average_power.watts().is_finite());
        assert!(machine.temperature().degrees().is_finite());
        assert_eq!(machine.elapsed(), Seconds::from_millis(10.0));
    }

    mod serve_mode {
        use super::*;
        use crate::requests::Request;

        fn service_phase() -> PhaseDescriptor {
            // CPI 1.0 at 2 GHz → 2e9 instructions/s at the top p-state.
            PhaseDescriptor::builder("svc")
                .instructions(1) // ignored: demand comes from each request
                .core_cpi(1.0)
                .mispredict_rate(0.0)
                .build()
                .unwrap()
        }

        fn server() -> Machine {
            Machine::server(quiet_config(), service_phase())
        }

        #[test]
        fn serve_machine_never_finishes_and_samples_queues() {
            let mut m = server();
            assert!(m.is_serving());
            assert!(!m.finished());
            m.tick(Seconds::from_millis(10.0));
            assert!(!m.finished(), "an open-loop server never finishes");
            let sample = m.take_queue_sample().unwrap();
            assert_eq!(sample.depth, 0);
            assert_eq!(sample.arrived, 0);
        }

        #[test]
        fn request_completes_at_analytic_service_time() {
            let mut m = server();
            // 20M instructions at 2e9 ips = 10 ms of service.
            m.offer_request(Request::new(Seconds::ZERO, 20e6));
            let outcome = m.tick(Seconds::from_millis(10.0));
            assert!((outcome.instructions - 20e6).abs() < 1.0);
            let sample = m.take_queue_sample().unwrap();
            assert_eq!(sample.completed, 1);
            assert_eq!(sample.sojourns.len(), 1);
            assert!((sample.sojourns[0] - 0.010).abs() < 1e-9, "{}", sample.sojourns[0]);
        }

        #[test]
        fn sojourn_includes_queueing_delay() {
            let mut m = server();
            // Two requests arriving together: the second waits for the
            // first, so its sojourn is service + queueing.
            m.offer_request(Request::new(Seconds::ZERO, 10e6)); // 5 ms service
            m.offer_request(Request::new(Seconds::ZERO, 10e6));
            m.tick(Seconds::from_millis(10.0));
            let sample = m.take_queue_sample().unwrap();
            assert_eq!(sample.completed, 2);
            assert!((sample.sojourns[0] - 0.005).abs() < 1e-9);
            assert!((sample.sojourns[1] - 0.010).abs() < 1e-9, "waited 5 ms");
        }

        #[test]
        fn future_arrival_idles_then_serves() {
            let mut busy = server();
            let mut lazy = server();
            busy.offer_request(Request::new(Seconds::ZERO, 10e6));
            // Same demand arriving 5 ms in: the server idles first, and
            // the sojourn clock starts at the arrival, not the offer.
            lazy.offer_request(Request::new(Seconds::from_millis(5.0), 10e6));
            busy.tick(Seconds::from_millis(10.0));
            lazy.tick(Seconds::from_millis(10.0));
            let b = busy.take_queue_sample().unwrap();
            let l = lazy.take_queue_sample().unwrap();
            assert_eq!(b.completed, 1);
            assert_eq!(l.completed, 1);
            assert!((b.sojourns[0] - l.sojourns[0]).abs() < 1e-9, "equal sojourns");
            // Both spend 5 ms active + 5 ms idle (busy idles after its
            // early completion), just in opposite order — equal energy.
            assert_eq!(lazy.true_energy(), busy.true_energy());
        }

        #[test]
        fn lower_pstate_serves_slower_and_queues_deepen() {
            let mut fast = server();
            let mut slow = server();
            slow.set_pstate(PStateId::new(0)).unwrap();
            slow.tick(Seconds::from_millis(1.0)); // absorb the DVFS stall
            fast.tick(Seconds::from_millis(1.0));
            for i in 0..10 {
                let at = Seconds::from_millis(1.0 + f64::from(i));
                fast.offer_request(Request::new(at, 10e6));
                slow.offer_request(Request::new(at, 10e6));
            }
            for _ in 0..10 {
                fast.tick(Seconds::from_millis(1.0));
                slow.tick(Seconds::from_millis(1.0));
            }
            let f = fast.take_queue_sample().unwrap();
            let s = slow.take_queue_sample().unwrap();
            assert!(s.completed < f.completed, "600 MHz retires fewer: {s:?} vs {f:?}");
            assert!(s.depth > f.depth, "backlog builds at the low p-state");
            let q = slow.queue().unwrap();
            assert_eq!(q.arrived(), q.completed() + q.pending() as u64, "conservation");
        }

        #[test]
        fn empty_queue_draws_idle_power() {
            let mut m = server();
            assert_eq!(
                m.instantaneous_power(),
                m.power_model.idle_power(m.operating_point()),
                "no arrived work → idle power"
            );
            m.tick(Seconds::from_millis(10.0));
            let idle_energy = m.true_energy();
            let mut busy = server();
            busy.offer_request(Request::new(Seconds::ZERO, 100e6));
            busy.tick(Seconds::from_millis(10.0));
            assert!(idle_energy < busy.true_energy());
        }

        #[test]
        fn fast_forward_finite_horizon_matches_tick() {
            let mut a = server();
            let mut b = server();
            for m in [&mut a, &mut b] {
                m.offer_request(Request::new(Seconds::from_millis(2.0), 5e6));
                m.offer_request(Request::new(Seconds::from_millis(4.0), 5e6));
            }
            let ta = a.tick(Seconds::from_millis(10.0));
            let tb = b.fast_forward(Seconds::from_millis(10.0)).unwrap();
            assert_eq!(ta, tb);
            assert_eq!(a.true_energy(), b.true_energy());
            assert_eq!(a.counter_snapshot(), b.counter_snapshot());
        }

        #[test]
        #[should_panic(expected = "unbounded horizon")]
        fn fast_forward_unbounded_horizon_panics() {
            let mut m = server();
            let _ = m.fast_forward(Seconds::new(f64::INFINITY));
        }

        #[test]
        fn zero_rate_serve_segment_idles_without_nan() {
            let mut m = server();
            m.offer_request(Request::new(Seconds::ZERO, 10e6));
            m.phase_jitter = 0.0;
            let outcome = m.tick(Seconds::from_millis(10.0));
            assert_eq!(outcome.instructions, 0.0);
            assert!(outcome.average_power.watts().is_finite());
            assert_eq!(m.elapsed(), Seconds::from_millis(10.0));
            assert_eq!(m.take_queue_sample().unwrap().completed, 0);
        }

        #[test]
        fn serve_runs_are_reproducible_with_same_seeds() {
            let run = || {
                let mut m = Machine::server(MachineConfig::pentium_m_755(3), service_phase());
                for i in 0..50 {
                    m.offer_request(Request::new(Seconds::from_millis(f64::from(i)), 3e6));
                }
                for _ in 0..60 {
                    m.tick(Seconds::from_millis(1.0));
                }
                (m.true_energy(), m.take_queue_sample().unwrap())
            };
            let (e1, s1) = run();
            let (e2, s2) = run();
            assert_eq!(e1, e2);
            assert_eq!(s1, s2);
        }

        mod clock {
            use super::*;
            use proptest::prelude::*;

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(64))]

                /// Pins the sub-ulp arrival-hang fix. Requests land one ulp
                /// before, on, or one ulp after the start or end of a tick
                /// while tick lengths (1 µs to 100 ms, log-uniform),
                /// p-states and throttle levels vary, from start clocks on
                /// both sides of 0.1 s: below it a one-ulp arrival gap is
                /// less than half an ulp of a 100 ms tick remainder, so
                /// subtracting the gap from the remainder changes nothing.
                /// Every tick must return on the tick grid, conserve
                /// requests, and keep the energy finite.
                #[test]
                fn serve_ticks_survive_requests_on_tick_boundaries(
                    seed in 0u64..256,
                    start_exp in prop_oneof![-6.0f64..-1.0, -1.0f64..2.0],
                    script in prop::collection::vec(
                        (-6.0f64..-1.0, 0u8..10, 1u8..9, 0u8..6, 0u8..3, 0.0f64..7.0),
                        1..40,
                    ),
                ) {
                    let mut m =
                        Machine::server(MachineConfig::pentium_m_755(seed), service_phase());
                    m.tick(Seconds::new(10f64.powf(start_exp)));
                    let mut last = 0.0f64;
                    for (dt_exp, ps, level, place, count, demand_exp) in script {
                        if ps < 8 {
                            m.set_pstate(PStateId::new(usize::from(ps))).unwrap();
                        }
                        m.set_throttle(ThrottleLevel::new(level).unwrap());
                        let dt = Seconds::new(10f64.powf(dt_exp));
                        let before = m.elapsed();
                        let boundary =
                            if place < 3 { before } else { before + dt }.seconds();
                        let at = match place % 3 {
                            0 => boundary.next_down(),
                            1 => boundary,
                            _ => boundary.next_up(),
                        };
                        // Keep offers in arrival order across steps.
                        last = last.max(at);
                        for _ in 0..count {
                            m.offer_request(Request::new(
                                Seconds::new(last),
                                10f64.powf(demand_exp),
                            ));
                        }
                        let outcome = m.tick(dt);
                        prop_assert_eq!(m.elapsed(), before + dt);
                        prop_assert!(outcome.average_power.watts().is_finite());
                        prop_assert!(m.true_energy().joules().is_finite());
                        let q = m.queue().unwrap();
                        prop_assert_eq!(q.arrived(), q.completed() + q.pending() as u64);
                    }
                }
            }
        }
    }

    mod memo_bit_identity {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Driving the memoized `tick` and the uncached reference path
            /// through an identical script of random tick sizes, p-state
            /// changes, and throttle levels leaves both machines in
            /// bit-identical externally observable state at every step.
            #[test]
            fn memoized_tick_is_bit_identical_to_uncached_reference(
                seed in 0u64..512,
                script in prop::collection::vec((1u32..20_000, 0u8..10, 1u8..9), 1..48),
            ) {
                let config = MachineConfig::pentium_m_755(seed);
                let program = two_phase_program(40_000_000);
                let mut cached = Machine::new(config.clone(), program.clone());
                let mut reference = Machine::new(config, program);
                for (us, ps, steps) in script {
                    if ps < 8 {
                        cached.set_pstate(PStateId::new(ps as usize)).unwrap();
                        reference.set_pstate(PStateId::new(ps as usize)).unwrap();
                    }
                    let level = ThrottleLevel::new(steps).unwrap();
                    cached.set_throttle(level);
                    reference.set_throttle(level);
                    let dt = Seconds::from_micros(f64::from(us));
                    let a = cached.tick(dt);
                    let b = reference.tick_uncached(dt);
                    prop_assert_eq!(a, b);
                    prop_assert_eq!(cached.counter_snapshot(), reference.counter_snapshot());
                    prop_assert_eq!(cached.true_energy(), reference.true_energy());
                    prop_assert_eq!(cached.elapsed(), reference.elapsed());
                    prop_assert_eq!(cached.completion_time(), reference.completion_time());
                    prop_assert_eq!(cached.instantaneous_power(), reference.instantaneous_power());
                    prop_assert_eq!(cached.temperature(), reference.temperature());
                }
            }
        }
    }
}
