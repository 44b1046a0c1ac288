//! Discrete-event fleet simulation: thousands of machines in cohorts.
//!
//! A [`Fleet`] holds N independent [`Machine`]s grouped into *cohorts* —
//! sets of lanes that share a control cadence and therefore wake together,
//! each lane ticking its own machine. Time advances through a
//! discrete-event scheduler: a min-heap of
//! `(next_wake_tick, class, cohort_id)` keyed on **integer multiples of a
//! base interval**, so equal wake times compare exactly, per-step tick
//! lengths are a constant [`Seconds`] value, and idle or far-future nodes
//! cost nothing — a retired cohort simply never re-enters the heap.
//! Cohorts that no controller observes ([`CohortMode::FastForward`]) are
//! not scheduled at all; they advance through the closed-form
//! [`Machine::fast_forward`] path only when a controller meters them (and
//! to the horizon when a run drains).
//!
//! Control policy lives outside this crate: a [`FleetController`] gets a
//! callback after every cohort step (the per-node governor cadence) and at
//! a global governor cadence (the cluster-reallocation point), and may
//! read and drive any lane's machine directly ([`Fleet::machine_mut`]).
//! The cluster-governor layer in `aapm-core` implements it, running one
//! node control loop per lane.
//!
//! Determinism contract: [`Fleet::run_des`] is **byte-identical** to
//! [`Fleet::run_lockstep`], the naive engine that walks every base tick and
//! ticks every machine at every multiple of its cadence. Both engines
//! deliver the same callback sequence (equal-tick events order cohorts
//! ascending, then the governor) and tick each machine with the same
//! per-step `dt`, computed by one shared expression. The tests in this
//! module and the cluster-governed test in `aapm-core` pin the
//! equivalence.
//!
//! Retirement semantics: a governed cohort retires (stops waking) at the
//! first step on which *all* its lanes have finished; individual finished
//! lanes keep ticking at idle power until then. A fast-forward lane
//! freezes at its own completion time — it books no idle energy after its
//! program ends.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::counters::CounterSnapshot;
use crate::error::{PlatformError, Result};
use crate::machine::Machine;
use crate::requests::{Request, RequestQueue};
use crate::units::{Joules, Seconds};

/// Identifies one cohort within a [`Fleet`].
pub type CohortId = usize;

/// How a cohort advances through simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CohortMode {
    /// Every lane ticks every `cadence_ticks` base ticks, with a
    /// [`FleetController::cohort_stepped`] callback after each step.
    Governed {
        /// Control cadence in base ticks (must be positive).
        cadence_ticks: u64,
    },
    /// Never scheduled: advanced only by closed-form
    /// [`Machine::fast_forward`] spans when the controller (or the
    /// end-of-run drain) calls [`Fleet::advance_fastforward_to`].
    FastForward,
}

/// One same-cadence group of lanes.
#[derive(Debug)]
struct Cohort {
    machines: Vec<Machine>,
    mode: CohortMode,
    /// Global node id of this cohort's lane 0.
    node_offset: usize,
    /// A retired cohort (all lanes finished) never re-enters the heap.
    retired: bool,
    /// How far (in base ticks) fast-forward lanes have been advanced.
    advanced_ticks: u64,
}

impl Cohort {
    fn all_finished(&self) -> bool {
        self.machines.iter().all(Machine::finished)
    }
}

/// The control policy driven by a fleet run. Implementations must be
/// deterministic functions of the observed state — both engines replay
/// the identical callback sequence and expect identical actuations back.
pub trait FleetController {
    /// Called after a governed cohort advanced one cadence step (the
    /// per-node governor's decision point).
    ///
    /// # Errors
    ///
    /// Propagated out of the run.
    fn cohort_stepped(&mut self, fleet: &mut Fleet, cohort: CohortId, now_ticks: u64)
        -> Result<()>;

    /// Called at every multiple of the run's governor cadence, after all
    /// same-tick cohort steps (the cluster-reallocation point).
    ///
    /// # Errors
    ///
    /// Propagated out of the run.
    fn governor_tick(&mut self, fleet: &mut Fleet, now_ticks: u64) -> Result<()>;
}

/// A no-op controller: the fleet free-runs under its initial p-states.
#[derive(Debug, Default, Clone, Copy)]
pub struct UncontrolledFleet;

impl FleetController for UncontrolledFleet {
    fn cohort_stepped(&mut self, _: &mut Fleet, _: CohortId, _: u64) -> Result<()> {
        Ok(())
    }

    fn governor_tick(&mut self, _: &mut Fleet, _: u64) -> Result<()> {
        Ok(())
    }
}

/// Event classes at one heap timestamp: cohort steps first (ascending
/// id), then the governor.
const CLASS_COHORT: u8 = 0;
const CLASS_GOVERNOR: u8 = 1;

/// N machines under discrete-event scheduling (see module docs).
#[derive(Debug)]
pub struct Fleet {
    base: Seconds,
    cohorts: Vec<Cohort>,
    nodes: usize,
}

impl Fleet {
    /// Creates an empty fleet whose event clock counts multiples of
    /// `base_interval`.
    ///
    /// # Panics
    ///
    /// Panics if `base_interval` is not positive and finite.
    pub fn new(base_interval: Seconds) -> Self {
        assert!(
            base_interval.is_positive() && base_interval.seconds().is_finite(),
            "fleet base interval must be positive and finite"
        );
        Fleet { base: base_interval, cohorts: Vec::new(), nodes: 0 }
    }

    /// Adds a cohort; lanes get the next contiguous run of global node
    /// ids, in order.
    ///
    /// # Errors
    ///
    /// Rejects empty cohorts and zero governed cadences.
    pub fn add_cohort(&mut self, machines: Vec<Machine>, mode: CohortMode) -> Result<CohortId> {
        if machines.is_empty() {
            return Err(PlatformError::InvalidConfig {
                parameter: "fleet_cohort",
                reason: "a cohort needs at least one lane".into(),
            });
        }
        if matches!(mode, CohortMode::Governed { cadence_ticks: 0 }) {
            return Err(PlatformError::InvalidConfig {
                parameter: "fleet_cohort",
                reason: "governed cadence must be at least one base tick".into(),
            });
        }
        let id = self.cohorts.len();
        let node_offset = self.nodes;
        self.nodes += machines.len();
        self.cohorts.push(Cohort {
            machines,
            mode,
            node_offset,
            retired: false,
            advanced_ticks: 0,
        });
        Ok(id)
    }

    /// The base interval one event tick represents.
    pub fn base_interval(&self) -> Seconds {
        self.base
    }

    /// Simulated time at an event tick. Both engines and all metering use
    /// this one expression, so timestamps compare bit-exactly.
    pub fn time_at(&self, tick: u64) -> Seconds {
        Seconds::new(self.base.seconds() * tick as f64)
    }

    /// Number of cohorts.
    pub fn cohort_count(&self) -> usize {
        self.cohorts.len()
    }

    /// Number of lanes in `cohort`.
    pub fn lanes(&self, cohort: CohortId) -> usize {
        self.cohorts[cohort].machines.len()
    }

    /// Total nodes across all cohorts.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Global node id of `cohort`'s lane 0 (lane `l` is `offset + l`).
    pub fn node_offset(&self, cohort: CohortId) -> usize {
        self.cohorts[cohort].node_offset
    }

    /// A cohort's stepping mode.
    pub fn mode(&self, cohort: CohortId) -> CohortMode {
        self.cohorts[cohort].mode
    }

    /// Whether a governed cohort has retired (all lanes finished).
    pub fn retired(&self, cohort: CohortId) -> bool {
        self.cohorts[cohort].retired
    }

    /// A governed cohort's per-step tick length — the shared expression
    /// both engines use.
    ///
    /// # Panics
    ///
    /// Panics if the cohort is not governed.
    pub fn cohort_dt(&self, cohort: CohortId) -> Seconds {
        match self.cohorts[cohort].mode {
            CohortMode::Governed { cadence_ticks } => {
                Seconds::new(self.base.seconds() * cadence_ticks as f64)
            }
            CohortMode::FastForward => {
                panic!("fast-forward cohorts have no step cadence")
            }
        }
    }

    /// Read access to one lane's machine.
    pub fn machine(&self, cohort: CohortId, lane: usize) -> &Machine {
        &self.cohorts[cohort].machines[lane]
    }

    /// Exclusive access to one lane's machine — the path a controller's
    /// per-node control loop samples and actuates through.
    pub fn machine_mut(&mut self, cohort: CohortId, lane: usize) -> &mut Machine {
        &mut self.cohorts[cohort].machines[lane]
    }

    /// A lane's cumulative counters.
    pub fn counter_snapshot(&self, cohort: CohortId, lane: usize) -> CounterSnapshot {
        self.machine(cohort, lane).counter_snapshot()
    }

    /// A lane's accumulated true energy.
    pub fn energy(&self, cohort: CohortId, lane: usize) -> Joules {
        self.machine(cohort, lane).true_energy()
    }

    /// A lane's elapsed simulated time.
    pub fn elapsed(&self, cohort: CohortId, lane: usize) -> Seconds {
        self.machine(cohort, lane).elapsed()
    }

    /// Offers a request to one serve-mode lane. Open-loop fleet cohorts
    /// are fed by their controller: queue a cadence window of arrivals
    /// *before* the window is ticked (future arrival times are fine — the
    /// queue starts a request only once lane time reaches it).
    ///
    /// # Panics
    ///
    /// As [`Machine::offer_request`]: panics if the lane is a batch
    /// (program-driven) machine.
    pub fn offer_request(&mut self, cohort: CohortId, lane: usize, request: Request) {
        self.machine_mut(cohort, lane).offer_request(request);
    }

    /// A serve-mode lane's request queue, `None` for batch lanes.
    pub fn queue(&self, cohort: CohortId, lane: usize) -> Option<&RequestQueue> {
        self.machine(cohort, lane).queue()
    }

    /// Advances every fast-forward cohort to `tick` through closed-form
    /// [`Machine::fast_forward`] spans. Lanes freeze at their completion
    /// time (no idle energy after a program ends); unfinished lanes land
    /// exactly on `time_at(tick)`. Idempotent per tick, so controllers may
    /// call it at every metering point.
    ///
    /// # Errors
    ///
    /// Propagates [`PlatformError::NoForwardProgress`] from degenerate
    /// zero-rate segments.
    pub fn advance_fastforward_to(&mut self, tick: u64) -> Result<()> {
        let target = self.time_at(tick);
        for cohort in &mut self.cohorts {
            if cohort.mode != CohortMode::FastForward || cohort.advanced_ticks >= tick {
                continue;
            }
            cohort.advanced_ticks = tick;
            for machine in &mut cohort.machines {
                let mut remaining = (target - machine.elapsed()).clamp_non_negative();
                while !machine.finished() && remaining.is_positive() {
                    let advanced = machine.fast_forward(remaining)?.advanced;
                    remaining = (remaining - advanced).clamp_non_negative();
                }
            }
        }
        Ok(())
    }

    /// Runs the fleet to `horizon_ticks` under the discrete-event engine:
    /// a min-heap of `(next_wake, class, cohort)` wakes each governed
    /// cohort at multiples of its cadence (every lane ticks, then the
    /// controller callback) and the controller's governor at multiples of
    /// `governor_every` (0 disables governor wakes). Equal-timestamp
    /// events run cohorts in ascending id order, then the governor.
    /// Fast-forward cohorts are drained to the horizon at the end.
    ///
    /// # Errors
    ///
    /// Propagates controller and fast-forward errors.
    pub fn run_des(
        &mut self,
        horizon_ticks: u64,
        governor_every: u64,
        controller: &mut dyn FleetController,
    ) -> Result<()> {
        let mut heap: BinaryHeap<Reverse<(u64, u8, usize)>> = BinaryHeap::new();
        for (id, cohort) in self.cohorts.iter().enumerate() {
            if cohort.retired {
                continue;
            }
            if let CohortMode::Governed { cadence_ticks } = cohort.mode {
                if cadence_ticks <= horizon_ticks {
                    heap.push(Reverse((cadence_ticks, CLASS_COHORT, id)));
                }
            }
        }
        if governor_every > 0 && governor_every <= horizon_ticks {
            heap.push(Reverse((governor_every, CLASS_GOVERNOR, usize::MAX)));
        }
        while let Some(Reverse((tick, class, id))) = heap.pop() {
            if class == CLASS_COHORT {
                self.step_cohort(id);
                controller.cohort_stepped(self, id, tick)?;
                if self.cohorts[id].all_finished() {
                    // Idle nodes cost nothing: the cohort never wakes again.
                    self.cohorts[id].retired = true;
                } else if let CohortMode::Governed { cadence_ticks } = self.cohorts[id].mode {
                    let next = tick + cadence_ticks;
                    if next <= horizon_ticks {
                        heap.push(Reverse((next, CLASS_COHORT, id)));
                    }
                }
            } else {
                controller.governor_tick(self, tick)?;
                let next = tick + governor_every;
                if next <= horizon_ticks {
                    heap.push(Reverse((next, CLASS_GOVERNOR, usize::MAX)));
                }
            }
        }
        self.advance_fastforward_to(horizon_ticks)
    }

    /// The naive reference engine: walks every base tick from 1 to the
    /// horizon and ticks each governed cohort's machines whenever the tick
    /// is a multiple of its cadence, with the same callbacks, ordering, and
    /// retirement rule as [`Fleet::run_des`]. Exists to pin the DES
    /// engine's byte-identity; it is O(horizon × cohorts) even when
    /// nothing wakes.
    ///
    /// # Errors
    ///
    /// Propagates controller and fast-forward errors.
    pub fn run_lockstep(
        &mut self,
        horizon_ticks: u64,
        governor_every: u64,
        controller: &mut dyn FleetController,
    ) -> Result<()> {
        for tick in 1..=horizon_ticks {
            for id in 0..self.cohorts.len() {
                let CohortMode::Governed { cadence_ticks } = self.cohorts[id].mode else {
                    continue;
                };
                if self.cohorts[id].retired || tick % cadence_ticks != 0 {
                    continue;
                }
                self.step_cohort(id);
                controller.cohort_stepped(self, id, tick)?;
                if self.cohorts[id].all_finished() {
                    self.cohorts[id].retired = true;
                }
            }
            if governor_every > 0 && tick % governor_every == 0 {
                controller.governor_tick(self, tick)?;
            }
        }
        self.advance_fastforward_to(horizon_ticks)
    }

    /// Ticks every lane of a governed cohort by its step length.
    fn step_cohort(&mut self, cohort: CohortId) {
        let dt = self.cohort_dt(cohort);
        for machine in &mut self.cohorts[cohort].machines {
            machine.tick(dt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::phase::PhaseDescriptor;
    use crate::program::PhaseProgram;
    use crate::pstate::PStateId;

    fn program(instructions: u64, core_cpi: f64) -> PhaseProgram {
        let phase = PhaseDescriptor::builder("fleet-test")
            .instructions(instructions)
            .core_cpi(core_cpi)
            .build()
            .unwrap();
        PhaseProgram::from_phase(phase)
    }

    fn machine(seed: u64, instructions: u64, core_cpi: f64) -> Machine {
        Machine::new(MachineConfig::pentium_m_755(seed), program(instructions, core_cpi))
    }

    /// Builds the same heterogeneous fleet twice (cadences 3 and 7, plus a
    /// fast-forward cohort).
    fn build_fleet() -> Fleet {
        // The model retires ~2e9 instructions/s at the top p-state, so
        // cohort 0 (~100 s of work) outlives every horizon below, cohort 1
        // (~1 s) finishes mid-run, and the fast-forward cohort mixes an
        // ~18 s program with one that completes almost immediately.
        let mut fleet = Fleet::new(Seconds::from_millis(10.0));
        fleet
            .add_cohort(
                vec![machine(1, 200_000_000_000, 1.0), machine(2, 300_000_000_000, 0.7)],
                CohortMode::Governed { cadence_ticks: 3 },
            )
            .unwrap();
        fleet
            .add_cohort(
                vec![machine(3, 1_200_000_000, 2.0), machine(4, 1_000_000_000, 1.4)],
                CohortMode::Governed { cadence_ticks: 7 },
            )
            .unwrap();
        fleet
            .add_cohort(
                vec![machine(5, 40_000_000_000, 0.9), machine(6, 120_000_000, 1.1)],
                CohortMode::FastForward,
            )
            .unwrap();
        fleet
    }

    /// Records the callback sequence and actuates a deterministic p-state
    /// script, so both engines tick through DVFS stalls.
    #[derive(Default)]
    struct Recorder {
        log: Vec<(u64, usize)>,
        governor_log: Vec<u64>,
        decisions: usize,
    }

    impl FleetController for Recorder {
        fn cohort_stepped(&mut self, fleet: &mut Fleet, cohort: CohortId, now: u64) -> Result<()> {
            self.log.push((now, cohort));
            self.decisions += 1;
            // Cycle lane 0 of every stepped cohort through p-states.
            let target = PStateId::new(self.decisions % 8);
            fleet.machine_mut(cohort, 0).set_pstate(target)
        }

        fn governor_tick(&mut self, fleet: &mut Fleet, now: u64) -> Result<()> {
            self.governor_log.push(now);
            // Meter fast-forward cohorts at the governor cadence.
            fleet.advance_fastforward_to(now)
        }
    }

    /// Everything observable about one node, bit-exact.
    fn node_state(fleet: &Fleet) -> Vec<(u64, u64, CounterSnapshot, Option<Seconds>, PStateId)> {
        let mut out = Vec::new();
        for cohort in 0..fleet.cohort_count() {
            for lane in 0..fleet.lanes(cohort) {
                let machine = fleet.machine(cohort, lane);
                out.push((
                    fleet.energy(cohort, lane).joules().to_bits(),
                    fleet.elapsed(cohort, lane).seconds().to_bits(),
                    fleet.counter_snapshot(cohort, lane),
                    machine.completion_time(),
                    machine.pstate(),
                ));
            }
        }
        out
    }

    #[test]
    fn des_is_byte_identical_to_naive_lockstep() {
        let mut des = build_fleet();
        let mut naive = build_fleet();
        let mut des_ctl = Recorder::default();
        let mut naive_ctl = Recorder::default();
        des.run_des(500, 50, &mut des_ctl).unwrap();
        naive.run_lockstep(500, 50, &mut naive_ctl).unwrap();
        assert_eq!(des_ctl.log, naive_ctl.log, "callback sequences must match");
        assert_eq!(des_ctl.governor_log, naive_ctl.governor_log);
        assert_eq!(node_state(&des), node_state(&naive));
    }

    #[test]
    fn equal_tick_events_order_cohorts_then_governor() {
        // Cadences 3 and 7 first coincide at tick 21; the governor fires
        // there too. The recorded order at tick 21 must be cohort 0,
        // cohort 1, governor.
        let mut fleet = build_fleet();
        let mut ctl = Recorder::default();
        fleet.run_des(21, 21, &mut ctl).unwrap();
        let at_21: Vec<usize> =
            ctl.log.iter().filter(|(t, _)| *t == 21).map(|(_, c)| *c).collect();
        assert_eq!(at_21, vec![0, 1], "cohorts step in ascending id order");
        assert_eq!(ctl.governor_log, vec![21], "governor fires after same-tick cohort steps");
    }

    #[test]
    fn finished_cohorts_retire_and_stop_waking() {
        // Cohort 1's programs (~1 simulated second of work) finish well
        // inside the 20 s horizon; after retirement it must produce no
        // further callbacks and its lanes' elapsed time must freeze.
        let mut fleet = build_fleet();
        let mut ctl = Recorder::default();
        fleet.run_des(2_000, 0, &mut ctl).unwrap();
        assert!(fleet.retired(1), "cohort 1 must retire");
        assert!(!fleet.retired(0), "cohort 0 keeps running");
        let last_wake = ctl.log.iter().filter(|(_, c)| *c == 1).map(|(t, _)| *t).max().unwrap();
        assert!(last_wake < 2_000, "retired cohort stops waking (last wake {last_wake})");
        let frozen = fleet.elapsed(1, 0).seconds();
        let wake_time = fleet.time_at(last_wake).seconds();
        assert!(
            (frozen - wake_time).abs() < 1e-9 * wake_time,
            "elapsed freezes at the retirement step ({frozen} vs {wake_time})"
        );
    }

    #[test]
    fn fastforward_drain_lands_on_the_horizon() {
        let mut fleet = build_fleet();
        fleet.run_des(500, 0, &mut UncontrolledFleet).unwrap();
        // Lane 0 of the FF cohort runs a 2G-instruction program (far past
        // the 5 s horizon): it must land exactly on the horizon time. Lane
        // 1 finishes early and freezes at completion.
        let horizon = fleet.time_at(500).seconds();
        let landed = fleet.elapsed(2, 0).seconds();
        assert!(
            (landed - horizon).abs() < 1e-9 * horizon,
            "unfinished FF lane lands on the horizon ({landed} vs {horizon})"
        );
        let done = fleet.machine(2, 1).completion_time().expect("lane 1 finishes");
        assert_eq!(fleet.elapsed(2, 1), done, "finished FF lanes freeze at completion");
        assert!(done < fleet.time_at(500));
    }

    fn server(seed: u64) -> Machine {
        let service = PhaseDescriptor::builder("service")
            .instructions(1)
            .core_cpi(1.0)
            .build()
            .unwrap();
        Machine::server(MachineConfig::pentium_m_755(seed), service)
    }

    /// Serve fleet: one open-loop cohort (cadence 5) next to a governed
    /// batch cohort, so serve lanes and program lanes interleave in the
    /// event heap.
    fn build_serve_fleet() -> Fleet {
        let mut fleet = Fleet::new(Seconds::from_millis(10.0));
        fleet
            .add_cohort(vec![server(11), server(12)], CohortMode::Governed { cadence_ticks: 5 })
            .unwrap();
        fleet
            .add_cohort(
                vec![machine(3, 200_000_000_000, 1.0)],
                CohortMode::Governed { cadence_ticks: 3 },
            )
            .unwrap();
        fleet
    }

    /// Feeds a deterministic open-loop arrival script into the serve
    /// cohort, always one cadence window ahead of the lanes' clock, and
    /// cycles lane 0 through p-states to cover DVFS on the serve path.
    struct ServeScript {
        cadence: u64,
        fed_until: u64,
        offered: u64,
        decisions: usize,
    }

    impl ServeScript {
        fn new(cadence: u64) -> Self {
            Self { cadence, fed_until: 0, offered: 0, decisions: 0 }
        }

        /// One 8M-instruction request per lane every second tick.
        fn feed(&mut self, fleet: &mut Fleet, upto: u64) {
            while self.fed_until < upto {
                let tick = self.fed_until;
                if tick.is_multiple_of(2) {
                    let arrival = fleet.time_at(tick);
                    for lane in 0..fleet.lanes(0) {
                        fleet.offer_request(0, lane, Request::new(arrival, 8e6));
                        self.offered += 1;
                    }
                }
                self.fed_until += 1;
            }
        }
    }

    impl FleetController for ServeScript {
        fn cohort_stepped(&mut self, fleet: &mut Fleet, cohort: CohortId, now: u64) -> Result<()> {
            if cohort == 0 {
                self.feed(fleet, now + self.cadence);
                self.decisions += 1;
                fleet.machine_mut(0, 0).set_pstate(PStateId::new(self.decisions % 8))?;
            }
            Ok(())
        }

        fn governor_tick(&mut self, _fleet: &mut Fleet, _now: u64) -> Result<()> {
            Ok(())
        }
    }

    /// Queue accounting per serve lane, bit-exact.
    fn queue_state(fleet: &Fleet) -> Vec<(u64, u64, usize, u64)> {
        (0..fleet.lanes(0))
            .map(|lane| {
                let q = fleet.queue(0, lane).expect("serve lanes expose their queue");
                (q.arrived(), q.completed(), q.pending(), q.total_sojourn().to_bits())
            })
            .collect()
    }

    #[test]
    fn serve_cohort_des_matches_lockstep_and_conserves_requests() {
        let mut des = build_serve_fleet();
        let mut naive = build_serve_fleet();
        let mut des_ctl = ServeScript::new(5);
        let mut naive_ctl = ServeScript::new(5);
        des_ctl.feed(&mut des, 5);
        naive_ctl.feed(&mut naive, 5);
        des.run_des(400, 0, &mut des_ctl).unwrap();
        naive.run_lockstep(400, 0, &mut naive_ctl).unwrap();

        assert_eq!(des_ctl.offered, naive_ctl.offered);
        assert_eq!(node_state(&des), node_state(&naive));
        assert_eq!(queue_state(&des), queue_state(&naive));

        // Conservation: every offered request is either completed or still
        // queued; an open-loop cohort never retires.
        let total: u64 = queue_state(&des)
            .iter()
            .map(|(arrived, completed, pending, _)| {
                assert_eq!(*arrived, completed + *pending as u64, "queue accounting conserves");
                *arrived
            })
            .sum();
        assert_eq!(total, des_ctl.offered, "every offered request arrived at a queue");
        let completed: u64 = queue_state(&des).iter().map(|(_, c, _, _)| *c).sum();
        assert!(completed > 0, "the fleet must actually serve traffic");
        assert!(!des.retired(0), "serve cohorts never retire");
    }

    #[test]
    fn empty_cohorts_and_zero_cadence_are_rejected() {
        let mut fleet = Fleet::new(Seconds::from_millis(10.0));
        assert!(fleet.add_cohort(Vec::new(), CohortMode::FastForward).is_err());
        assert!(fleet
            .add_cohort(vec![machine(1, 1_000_000, 1.0)], CohortMode::Governed {
                cadence_ticks: 0
            })
            .is_err());
    }
}
