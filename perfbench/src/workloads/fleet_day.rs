//! `fleet-day`: a thousand nodes in fifty rack cohorts under
//! `FleetPmController::hierarchical` and a `BudgetTree` — local power
//! managers under a global one — over a 20 s horizon with a reallocation
//! every simulated second. Racks cycle through serve racks (fed per-lane
//! reseeded request streams by this module's feeder), compute, memory,
//! burst-then-retire and fast-forward racks; governed cohorts cycle
//! through 10, 20 and 50 tick cadences. It is the only workload that runs
//! the discrete-event heap, the batched SoA lanes, per-node PM and the
//! budget tree.
//!
//! Set-up per round: building the round's fleets, trees and controllers.
//! Checks: after every reallocation, node caps within each rack budget and
//! rack budgets within the datacenter budget; at the end of a day, every
//! serve lane conserves requests and the lanes received what was offered.

use std::rc::Rc;
use std::time::Instant;

use aapm::cluster::{BudgetTree, ClusterGovernor, FleetPmController, NodeSpec, RackSpec};
use aapm::spec::{GovernorSpec, SpecModels};
use aapm_models::power_model::PowerModel;
use aapm_platform::config::MachineConfig;
use aapm_platform::error::Result;
use aapm_platform::events::HardwareEvent;
use aapm_platform::fleet::{CohortId, CohortMode, Fleet, FleetController};
use aapm_platform::machine::Machine;
use aapm_platform::phase::PhaseDescriptor;
use aapm_platform::program::PhaseProgram;
use aapm_platform::pstate::PStateTable;
use aapm_platform::requests::Request;
use aapm_platform::units::Seconds;
use aapm_platform::workload::WorkloadSource;
use aapm_workloads::requests::RequestWorkload;

use crate::decorators::{timed_stack, Source, TimedSource};
use crate::layers::{short_day_stream, SHORT_DAY_ENVELOPE_RPS};
use crate::probe::{Case, GovernorFactory};
use crate::stats::derive_seed;
use crate::{trace, Bench, Pass, Size};

/// One day's shape.
#[derive(Debug, Clone, Copy)]
struct Shape {
    racks: usize,
    nodes_per_rack: usize,
    horizon_ticks: u64,
    governor_every: u64,
    days_per_round: usize,
}

const FULL: Shape = Shape {
    racks: 50,
    nodes_per_rack: 20,
    horizon_ticks: 2_000,
    governor_every: 100,
    days_per_round: 5,
};
const TINY: Shape = Shape {
    racks: 5,
    nodes_per_rack: 4,
    horizon_ticks: 500,
    governor_every: 100,
    days_per_round: 1,
};

/// The base event tick.
const BASE_TICK_MS: f64 = 10.0;
/// Governed cohorts' step cadences, cycled rack by rack.
const CADENCES: [u64; 3] = [10, 20, 50];
/// Every node's band in the tree.
const NODE: NodeSpec = NodeSpec {
    floor_w: 6.0,
    ceiling_w: 24.5,
};
/// Rack ceiling per node and datacenter budget per node: the datacenter
/// cannot grant every rack its ceiling, so slack has to move.
const RACK_W_PER_NODE: f64 = 15.0;
const DATACENTER_W_PER_NODE: f64 = 10.0;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Rack {
    Serve,
    Compute,
    Memory,
    Burst,
    FastForward,
}

const RACKS: [Rack; 5] = [
    Rack::Serve,
    Rack::Compute,
    Rack::Memory,
    Rack::Burst,
    Rack::FastForward,
];

fn program(name: &str, instructions: u64, core_cpi: f64, mem_fraction: f64) -> PhaseProgram {
    let phase = PhaseDescriptor::builder(name)
        .instructions(instructions)
        .core_cpi(core_cpi)
        .mem_fraction(mem_fraction)
        .l1_mpi(0.08 * mem_fraction)
        .l2_mpi(0.01 * mem_fraction)
        .overlap(0.3)
        .build()
        .expect("the fleet phases are valid");
    PhaseProgram::from_phase(phase)
}

/// The batch programs a day's racks run.
struct Programs {
    compute: PhaseProgram,
    memory: PhaseProgram,
    burst: PhaseProgram,
    long: PhaseProgram,
    short: PhaseProgram,
}

impl Programs {
    fn new() -> Self {
        Programs {
            // ~40 s of work: never finishes inside the horizon.
            compute: program("fleet-compute", 80_000_000_000, 0.7, 0.1),
            // Memory-bound, low power: persistent headroom to give away.
            memory: program("fleet-memory", 20_000_000_000, 1.1, 0.5),
            // Finishes after a simulated second or two, then retires.
            burst: program("fleet-burst", 2_000_000_000, 0.7, 0.1),
            // Fast-forward lanes: one long, one that completes early.
            long: program("fleet-ff-long", 60_000_000_000, 0.9, 0.3),
            short: program("fleet-ff-short", 1_200_000_000, 1.1, 0.3),
        }
    }

    fn for_lane(&self, rack: Rack, lane: usize) -> &PhaseProgram {
        match rack {
            Rack::Serve => unreachable!("serve racks run request streams, not programs"),
            Rack::Compute => &self.compute,
            Rack::Memory => &self.memory,
            Rack::Burst => &self.burst,
            Rack::FastForward if lane.is_multiple_of(2) => &self.long,
            Rack::FastForward => &self.short,
        }
    }
}

/// A serve rack's arrival streams, fed one cadence window ahead.
struct Feed {
    cohort: CohortId,
    cadence: u64,
    streams: Vec<TimedSource<RequestWorkload>>,
    fed_ticks: u64,
}

/// The controller a day runs under: the feeder for serve racks, then the
/// per-node PMs and the cluster governor, with the budget checks after
/// every reallocation. Its spans split the DES run into the controller's
/// parts.
struct DayController {
    inner: FleetPmController,
    feeds: Vec<Feed>,
    feed_of: Vec<Option<usize>>,
    nodes_per_rack: usize,
    arrivals: Vec<Request>,
    offered: u64,
    node_steps: u64,
    reallocations: u64,
    budget_violations: Vec<String>,
}

impl DayController {
    /// Queues every serve lane's arrivals in `[fed, upto)`.
    fn feed(&mut self, fleet: &mut Fleet, index: usize, upto: u64) {
        let feed = &mut self.feeds[index];
        if upto <= feed.fed_ticks {
            return;
        }
        let (start, end) = (fleet.time_at(feed.fed_ticks), fleet.time_at(upto));
        for (lane, stream) in feed.streams.iter_mut().enumerate() {
            self.arrivals.clear();
            stream.arrivals_into(start, end, &mut self.arrivals);
            self.offered += self.arrivals.len() as u64;
            for request in self.arrivals.drain(..) {
                fleet.offer_request(feed.cohort, lane, request);
            }
        }
        feed.fed_ticks = upto;
    }

    /// Σ node caps ≤ rack budget for every rack, Σ rack budgets ≤
    /// datacenter, under exact float comparison.
    fn check_budgets(&mut self, now_ticks: u64) {
        let Some(cluster) = self.inner.cluster() else {
            return;
        };
        let tree = cluster.tree();
        let mut racks_w = 0.0;
        for (rack, caps) in tree.caps().chunks(self.nodes_per_rack).enumerate() {
            let budget = tree.rack_budget_w(rack);
            let caps_w: f64 = caps.iter().sum();
            if caps_w > budget {
                self.budget_violations.push(format!(
                    "tick {now_ticks}: rack {rack} caps {caps_w} W > budget {budget} W"
                ));
            }
            racks_w += budget;
        }
        if racks_w > tree.datacenter_w() {
            self.budget_violations.push(format!(
                "tick {now_ticks}: racks {racks_w} W > datacenter {} W",
                tree.datacenter_w()
            ));
        }
    }
}

impl FleetController for DayController {
    fn cohort_stepped(
        &mut self,
        fleet: &mut Fleet,
        cohort: CohortId,
        now_ticks: u64,
    ) -> Result<()> {
        if let Some(index) = self.feed_of[cohort] {
            let upto = now_ticks + self.feeds[index].cadence;
            self.feed(fleet, index, upto);
        }
        let lanes = fleet.lanes(cohort) as u64;
        self.node_steps += lanes;
        let _span = trace::span_items("core.fleet_pm", lanes);
        self.inner.cohort_stepped(fleet, cohort, now_ticks)
    }

    fn governor_tick(&mut self, fleet: &mut Fleet, now_ticks: u64) -> Result<()> {
        // Idempotent per tick: `FleetPmController`'s own call below then finds
        // the fast-forward lanes already advanced.
        {
            let _span = trace::span("platform.ff_advance");
            fleet.advance_fastforward_to(now_ticks)?;
        }
        {
            let _span = trace::span("core.cluster.realloc");
            self.inner.governor_tick(fleet, now_ticks)?;
        }
        self.reallocations += 1;
        self.check_budgets(now_ticks);
        Ok(())
    }
}

/// A day ready to run.
struct Day {
    shape: Shape,
    fleet: Fleet,
    controller: DayController,
}

fn build_day(shape: Shape, day_seed: u64, programs: &Programs, model: &PowerModel) -> Result<Day> {
    let mut fleet = Fleet::new(Seconds::from_millis(BASE_TICK_MS));
    let family = short_day_stream(day_seed)?;
    let mut feeds = Vec::new();
    let mut feed_of = Vec::new();
    let mut racks = Vec::new();
    for r in 0..shape.racks {
        let rack = RACKS[r % RACKS.len()];
        let cadence = CADENCES[r % CADENCES.len()];
        let seed = |lane: usize| derive_seed(day_seed, (r * shape.nodes_per_rack + lane) as u64);
        let mode = match rack {
            Rack::FastForward => CohortMode::FastForward,
            _ => CohortMode::Governed {
                cadence_ticks: cadence,
            },
        };
        let cohort = if rack == Rack::Serve {
            let streams: Vec<_> = (0..shape.nodes_per_rack)
                .map(|lane| TimedSource::new(family.reseeded(seed(lane)), SHORT_DAY_ENVELOPE_RPS))
                .collect();
            let machines = streams
                .iter()
                .enumerate()
                .map(|(lane, s)| s.machine(MachineConfig::pentium_m_755(seed(lane))))
                .collect();
            let cohort = fleet.add_cohort(machines, mode)?;
            feeds.push(Feed {
                cohort,
                cadence,
                streams,
                fed_ticks: 0,
            });
            cohort
        } else {
            let machines = (0..shape.nodes_per_rack)
                .map(|lane| {
                    let config = MachineConfig::pentium_m_755(seed(lane));
                    Machine::new(config, programs.for_lane(rack, lane).clone())
                })
                .collect();
            fleet.add_cohort(machines, mode)?
        };
        feed_of.push((rack == Rack::Serve).then(|| feeds.len() - 1));
        debug_assert_eq!(feed_of.len(), cohort + 1);
        let n = shape.nodes_per_rack;
        racks.push(RackSpec {
            ceiling_w: n as f64 * RACK_W_PER_NODE,
            nodes: vec![NODE; n],
        });
    }
    let tree = BudgetTree::new(fleet.nodes() as f64 * DATACENTER_W_PER_NODE, &racks)?;
    let inner = FleetPmController::hierarchical(
        PStateTable::pentium_m_755(),
        model,
        ClusterGovernor::with_reserve(tree, 0.5)?,
    )?;
    let mut controller = DayController {
        inner,
        feeds,
        feed_of,
        nodes_per_rack: shape.nodes_per_rack,
        arrivals: Vec::new(),
        offered: 0,
        node_steps: 0,
        reallocations: 0,
        budget_violations: Vec::new(),
    };
    // The first cohort step comes after its first window is served, so
    // that window's arrivals are queued before the run starts.
    for index in 0..controller.feeds.len() {
        let cadence = controller.feeds[index].cadence;
        controller.feed(&mut fleet, index, cadence);
    }
    Ok(Day {
        shape,
        fleet,
        controller,
    })
}

/// Runs a day, checks it, and books it into `pass`.
fn run_day(mut day: Day, pass: &mut Pass) -> Result<()> {
    let t = Instant::now();
    {
        let _span = trace::span("platform.des");
        day.fleet.run_des(
            day.shape.horizon_ticks,
            day.shape.governor_every,
            &mut day.controller,
        )?;
    }
    pass.unit_ns.push(t.elapsed().as_nanos() as u64);
    pass.attempted += 1;
    trace::tally("fleet.node_steps", day.controller.node_steps as f64);
    let (fleet, controller) = (&day.fleet, &day.controller);
    let mut failures = controller.budget_violations.clone();
    let expected = day.shape.horizon_ticks / day.shape.governor_every;
    if controller.reallocations != expected {
        failures.push(format!(
            "{} reallocations, expected {expected}",
            controller.reallocations
        ));
    }
    let mut arrived = 0;
    let d = &mut pass.digest;
    for cohort in 0..fleet.cohort_count() {
        for lane in 0..fleet.lanes(cohort) {
            let machine = fleet.machine(cohort, lane);
            d.f64(fleet.energy(cohort, lane).joules());
            d.f64(fleet.elapsed(cohort, lane).seconds());
            d.f64(
                fleet
                    .counter_snapshot(cohort, lane)
                    .get(HardwareEvent::InstructionsRetired),
            );
            d.u64(machine.transitions_performed());
            trace::tally(
                "platform.transitions",
                machine.transitions_performed() as f64,
            );
            if let Some(queue) = fleet.queue(cohort, lane) {
                if queue.arrived() != queue.completed() + queue.pending() as u64 {
                    failures.push(format!(
                        "cohort {cohort} lane {lane}: arrived {} != completed {} + pending {}",
                        queue.arrived(),
                        queue.completed(),
                        queue.pending()
                    ));
                }
                arrived += queue.arrived();
                pass.requests += queue.completed();
                d.u64(queue.arrived());
                d.u64(queue.completed());
            }
        }
    }
    for cap in controller.inner.caps_w() {
        d.f64(*cap);
    }
    if arrived != controller.offered {
        failures.push(format!(
            "{arrived} requests arrived of {} offered",
            controller.offered
        ));
    }
    let node_seconds = fleet.nodes() as f64 * fleet.time_at(day.shape.horizon_ticks).seconds();
    trace::tally("platform.sim_s", node_seconds);
    pass.sim_s += node_seconds;
    pass.sessions += fleet.nodes() as u64;
    pass.intervals += controller.node_steps;
    if let Some(first) = failures.first() {
        pass.fail(format!(
            "{} check(s) failed; first: {first}",
            failures.len()
        ));
    }
    Ok(())
}

pub(crate) struct FleetDay {
    shape: Shape,
    /// Passes per round: a traced run consumes one set of days per pass.
    copies: usize,
    programs: Programs,
    model: PowerModel,
    /// Built days, one set per pending pass.
    sets: Vec<Vec<Day>>,
}

impl FleetDay {
    pub(crate) fn new(size: Size, traced_run: bool) -> Self {
        FleetDay {
            shape: match size {
                Size::Full => FULL,
                Size::Tiny => TINY,
            },
            copies: if traced_run { 2 } else { 1 },
            programs: Programs::new(),
            model: PowerModel::paper_table_ii(),
            sets: Vec::new(),
        }
    }
}

impl Bench for FleetDay {
    fn setup(&mut self, seed: u64) -> Result<()> {
        self.sets.clear();
        for _ in 0..self.copies {
            let days = (0..self.shape.days_per_round as u64)
                .map(|day| {
                    build_day(
                        self.shape,
                        derive_seed(seed, day),
                        &self.programs,
                        &self.model,
                    )
                })
                .collect::<Result<_>>()?;
            self.sets.push(days);
        }
        Ok(())
    }

    fn pass(&mut self, _round: usize, _traced: bool) -> Result<Pass> {
        let mut pass = Pass::default();
        let days = self
            .sets
            .pop()
            .expect("set-up builds one set of days per pass");
        for (index, day) in days.into_iter().enumerate() {
            trace::set_unit(index as u64);
            if let Err(e) = run_day(day, &mut pass) {
                pass.attempted += 1;
                pass.fail(format!("day {index}: {e}"));
            }
        }
        Ok(pass)
    }

    /// Scalar sessions on one node of each kind the day schedules: a serve
    /// lane's stream, a compute and a memory node, under node PM.
    fn probe_cases(&self) -> Result<Vec<Case>> {
        let max_samples = self.shape.horizon_ticks as usize;
        let governor = || -> GovernorFactory {
            let models = SpecModels {
                power: self.model.clone(),
                ..SpecModels::default()
            };
            Rc::new(move || {
                timed_stack(
                    &GovernorSpec::Pm {
                        limit_w: DATACENTER_W_PER_NODE,
                    },
                    &models,
                )
            })
        };
        let seed = 7;
        Ok(vec![
            Case::new(
                MachineConfig::pentium_m_755(seed),
                Source::Serve(Box::new(short_day_stream(seed)?)),
                governor(),
                seed,
                max_samples,
                SHORT_DAY_ENVELOPE_RPS,
            ),
            Case::new(
                MachineConfig::pentium_m_755(seed),
                Source::Batch(self.programs.compute.clone()),
                governor(),
                seed,
                max_samples,
                0.0,
            ),
            Case::new(
                MachineConfig::pentium_m_755(seed),
                Source::Batch(self.programs.memory.clone()),
                governor(),
                seed,
                max_samples,
                0.0,
            ),
        ])
    }
}

/// The fleet fixture: one small day, traced by the caller's tracer.
pub(crate) fn fixture() -> Result<()> {
    let day = build_day(TINY, 7, &Programs::new(), &PowerModel::paper_table_ii())?;
    run_day(day, &mut Pass::default())
}
