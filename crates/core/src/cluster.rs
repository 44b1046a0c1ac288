//! Hierarchical power budgets: datacenter → rack → node.
//!
//! The paper's Monitor→Estimate→Control loop manages one machine against
//! one power limit. This module lifts it to fleet scale: a [`BudgetTree`]
//! holds a datacenter budget split across racks and racks split across
//! nodes, and a [`ClusterGovernor`] periodically *reallocates* those
//! splits from the per-node guardband-headroom signal the PM governor
//! already measures ([`PerformanceMaximizer::last_headroom`]).
//!
//! Reallocation runs in two sweeps:
//!
//! 1. **Bottom-up reclaim** — each node's demand (its current cap minus
//!    observed headroom, plus a configurable reserve) is clamped to its
//!    `[floor, ceiling]` band; rack demand is the sum of its nodes capped
//!    at the rack ceiling. Headroom is slack, so an over-provisioned node
//!    *asks for less* and the difference flows up the tree.
//! 2. **Top-down distribute** — each parent hands its budget to its
//!    children in three passes with a running remainder: floors first,
//!    then proportional-to-demand, then leftover slack water-filled
//!    toward ceilings (letting under-demand nodes burst). Every grant is
//!    `min(share, remaining)` and a final rounding backstop shaves any
//!    ULP overshoot, so the invariant *children's grants never sum above
//!    the parent's budget* holds under exact float comparison — the
//!    property tests in this module pin it under adversarial demands
//!    (NaN, ±∞, negatives).
//!
//! [`FleetPmController`] is the glue to the discrete-event fleet
//! simulator ([`aapm_platform::fleet`]): it runs one node control loop —
//! the same pipeline a [`Session`](crate::runtime::Session) steps, around
//! a real [`PerformanceMaximizer`] — on every lane, folds each window's
//! minimum headroom per node, and at the cluster cadence feeds those into
//! the tree and pushes the resulting caps back down as
//! [`GovernorCommand::SetPowerLimit`] commands.

use aapm_models::power_model::PowerModel;
use aapm_platform::error::{PlatformError, Result};
use aapm_platform::fleet::{CohortId, CohortMode, Fleet, FleetController};
use aapm_platform::pstate::PStateTable;
use aapm_platform::units::Watts;
use aapm_platform::workload::WorkloadSource;
use aapm_telemetry::faults::FaultPlan;
use aapm_telemetry::metrics::Metrics;

use crate::governor::{Governor, GovernorCommand};
use crate::limits::PowerLimit;
use crate::pm::PerformanceMaximizer;
use crate::runtime::{NodeLoop, SimulationConfig};

/// Caps pushed to node PMs never fall below this, so
/// [`PowerLimit::new`] always accepts them even if a degenerate tree
/// starves a node.
const MIN_NODE_CAP_W: f64 = 0.1;

fn invalid(reason: impl Into<String>) -> PlatformError {
    PlatformError::InvalidConfig { parameter: "cluster", reason: reason.into() }
}

/// One node's configured band in the tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    /// Minimum cap this node is always granted (watts, positive).
    pub floor_w: f64,
    /// Seed ceiling: the node's cap never exceeds this (watts).
    pub ceiling_w: f64,
}

/// One rack's configuration: a ceiling and its nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct RackSpec {
    /// The rack's budget never exceeds this (watts).
    pub ceiling_w: f64,
    /// The nodes housed in this rack.
    pub nodes: Vec<NodeSpec>,
}

/// A node's live budget state.
#[derive(Debug, Clone, Copy)]
struct NodeBudget {
    floor_w: f64,
    ceiling_w: f64,
    cap_w: f64,
}

/// A rack's live budget state.
#[derive(Debug, Clone)]
struct Rack {
    ceiling_w: f64,
    budget_w: f64,
    nodes: Vec<NodeBudget>,
}

/// A child's claim during one distribution pass.
struct Claim {
    floor: f64,
    desired: f64,
    ceiling: f64,
}

/// Hands `budget` to children in three running-remainder passes: floors,
/// proportional-to-demand, then slack water-filled toward ceilings. Every
/// grant is capped at the remaining budget, and a final backstop shaves
/// float-rounding overshoot, so the returned grants sum to at most
/// `budget` under exact comparison and never exceed their ceilings.
fn distribute(budget: f64, claims: &[Claim]) -> Vec<f64> {
    let mut grants = vec![0.0; claims.len()];
    let mut remaining = budget.max(0.0);
    for (grant, claim) in grants.iter_mut().zip(claims) {
        let give = claim.floor.max(0.0).min(remaining);
        *grant = give;
        remaining = (remaining - give).max(0.0);
    }
    let want_total: f64 = grants.iter().zip(claims).map(|(g, c)| (c.desired - g).max(0.0)).sum();
    if remaining > 0.0 && want_total > 0.0 {
        let scale = (remaining / want_total).min(1.0);
        for (grant, claim) in grants.iter_mut().zip(claims) {
            let give = ((claim.desired - *grant).max(0.0) * scale).min(remaining);
            *grant += give;
            remaining = (remaining - give).max(0.0);
        }
    }
    let room_total: f64 = grants.iter().zip(claims).map(|(g, c)| (c.ceiling - g).max(0.0)).sum();
    if remaining > 0.0 && room_total > 0.0 {
        let scale = (remaining / room_total).min(1.0);
        for (grant, claim) in grants.iter_mut().zip(claims) {
            let give = ((claim.ceiling - *grant).max(0.0) * scale).min(remaining);
            *grant += give;
            remaining = (remaining - give).max(0.0);
        }
    }
    // Rounding backstop: running subtraction keeps `remaining` ≥ 0 but a
    // sum of grants can still overshoot the budget by an ULP; shave the
    // largest grant until the invariant holds exactly. Shaving only ever
    // lowers a grant, so ceilings stay respected.
    loop {
        let total: f64 = grants.iter().sum();
        if total <= budget || grants.iter().all(|g| *g <= 0.0) {
            return grants;
        }
        let (i, &largest) =
            grants.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).expect("non-empty");
        let reduced = (largest - (total - budget)).max(0.0);
        // Guarantee strict progress even when the excess rounds away.
        grants[i] = if reduced < largest { reduced } else { largest * (1.0 - f64::EPSILON) };
    }
}

/// The datacenter → rack → node budget hierarchy.
///
/// Node indices are **rack-major**: rack 0's nodes first, in order, then
/// rack 1's, matching [`Fleet`] node ids when cohorts are added rack by
/// rack.
#[derive(Debug, Clone)]
pub struct BudgetTree {
    datacenter_w: f64,
    racks: Vec<Rack>,
}

impl BudgetTree {
    /// Builds a tree and performs the initial allocation (full-demand
    /// water-fill, so every node starts at its fair share of the budget).
    ///
    /// # Errors
    ///
    /// Rejects empty racks, non-positive or non-finite parameters,
    /// floors above ceilings, and budgets too small to cover the floors
    /// beneath them.
    pub fn new(datacenter_w: f64, racks: &[RackSpec]) -> Result<Self> {
        if !datacenter_w.is_finite() || datacenter_w <= 0.0 {
            return Err(invalid(format!("datacenter budget must be positive, got {datacenter_w}")));
        }
        if racks.is_empty() {
            return Err(invalid("a budget tree needs at least one rack".to_owned()));
        }
        let mut floor_total = 0.0;
        let mut built = Vec::with_capacity(racks.len());
        for (r, rack) in racks.iter().enumerate() {
            if !rack.ceiling_w.is_finite() || rack.ceiling_w <= 0.0 {
                return Err(invalid(format!("rack {r} ceiling must be positive")));
            }
            if rack.nodes.is_empty() {
                return Err(invalid(format!("rack {r} has no nodes")));
            }
            let mut rack_floor = 0.0;
            let mut nodes = Vec::with_capacity(rack.nodes.len());
            for (n, node) in rack.nodes.iter().enumerate() {
                if !node.floor_w.is_finite() || node.floor_w <= 0.0 {
                    return Err(invalid(format!("rack {r} node {n} floor must be positive")));
                }
                if !node.ceiling_w.is_finite() || node.ceiling_w < node.floor_w {
                    return Err(invalid(format!(
                        "rack {r} node {n} ceiling must be finite and at least the floor"
                    )));
                }
                rack_floor += node.floor_w;
                nodes.push(NodeBudget {
                    floor_w: node.floor_w,
                    ceiling_w: node.ceiling_w,
                    cap_w: node.floor_w,
                });
            }
            if rack.ceiling_w < rack_floor {
                return Err(invalid(format!(
                    "rack {r} ceiling {} cannot cover its node floors ({rack_floor})",
                    rack.ceiling_w
                )));
            }
            floor_total += rack_floor;
            built.push(Rack { ceiling_w: rack.ceiling_w, budget_w: 0.0, nodes });
        }
        if datacenter_w < floor_total {
            return Err(invalid(format!(
                "datacenter budget {datacenter_w} cannot cover the node floors ({floor_total})"
            )));
        }
        let mut tree = BudgetTree { datacenter_w, racks: built };
        let full_demand = vec![f64::INFINITY; tree.node_count()];
        tree.reallocate(&full_demand);
        Ok(tree)
    }

    /// Total nodes across all racks.
    pub fn node_count(&self) -> usize {
        self.racks.iter().map(|r| r.nodes.len()).sum()
    }

    /// The datacenter-level budget.
    pub fn datacenter_w(&self) -> f64 {
        self.datacenter_w
    }

    /// A rack's currently granted budget.
    pub fn rack_budget_w(&self, rack: usize) -> f64 {
        self.racks[rack].budget_w
    }

    /// Current node caps in rack-major order.
    pub fn caps(&self) -> Vec<f64> {
        self.racks.iter().flat_map(|r| r.nodes.iter().map(|n| n.cap_w)).collect()
    }

    /// Node ceilings in rack-major order.
    pub fn ceilings(&self) -> Vec<f64> {
        self.racks.iter().flat_map(|r| r.nodes.iter().map(|n| n.ceiling_w)).collect()
    }

    /// Reallocates the whole tree from per-node demands (watts, rack-major
    /// order). Demands are clamped to each node's `[floor, ceiling]` band;
    /// NaN falls back to the floor. See the module docs for the sweep
    /// structure and invariants.
    ///
    /// # Panics
    ///
    /// Panics if `demands` is not one entry per node.
    pub fn reallocate(&mut self, demands: &[f64]) {
        assert_eq!(demands.len(), self.node_count(), "one demand per node");
        let mut idx = 0;
        let mut rack_claims = Vec::with_capacity(self.racks.len());
        let mut node_desired = Vec::with_capacity(self.racks.len());
        for rack in &self.racks {
            let mut floor_sum = 0.0;
            let mut desired_sum = 0.0;
            let mut desired = Vec::with_capacity(rack.nodes.len());
            for node in &rack.nodes {
                let d = demands[idx];
                idx += 1;
                let d = if d.is_nan() { node.floor_w } else { d.clamp(node.floor_w, node.ceiling_w) };
                floor_sum += node.floor_w;
                desired_sum += d;
                desired.push(d);
            }
            rack_claims.push(Claim {
                floor: floor_sum,
                desired: desired_sum.min(rack.ceiling_w),
                ceiling: rack.ceiling_w,
            });
            node_desired.push(desired);
        }
        let rack_grants = distribute(self.datacenter_w, &rack_claims);
        for ((rack, grant), desired) in self.racks.iter_mut().zip(rack_grants).zip(node_desired) {
            rack.budget_w = grant;
            let claims: Vec<Claim> = rack
                .nodes
                .iter()
                .zip(&desired)
                .map(|(n, &d)| Claim { floor: n.floor_w, desired: d, ceiling: n.ceiling_w })
                .collect();
            let caps = distribute(grant, &claims);
            for (node, cap) in rack.nodes.iter_mut().zip(caps) {
                node.cap_w = cap;
            }
        }
    }

    /// Panics unless every structural invariant holds under exact float
    /// comparison: node caps within `[0, ceiling]`, each rack's caps sum
    /// to at most its budget, rack budgets within their ceilings, and
    /// rack budgets sum to at most the datacenter budget.
    #[doc(hidden)]
    pub fn assert_invariants(&self) {
        let mut rack_sum = 0.0;
        for (r, rack) in self.racks.iter().enumerate() {
            assert!(
                rack.budget_w >= 0.0 && rack.budget_w <= rack.ceiling_w,
                "rack {r} budget {} outside [0, {}]",
                rack.budget_w,
                rack.ceiling_w
            );
            rack_sum += rack.budget_w;
            let mut cap_sum = 0.0;
            for (n, node) in rack.nodes.iter().enumerate() {
                assert!(
                    node.cap_w >= 0.0 && node.cap_w <= node.ceiling_w,
                    "rack {r} node {n} cap {} outside [0, {}]",
                    node.cap_w,
                    node.ceiling_w
                );
                cap_sum += node.cap_w;
            }
            assert!(
                cap_sum <= rack.budget_w,
                "rack {r} caps sum {cap_sum} above budget {}",
                rack.budget_w
            );
        }
        assert!(
            rack_sum <= self.datacenter_w,
            "rack budgets sum {rack_sum} above datacenter {}",
            self.datacenter_w
        );
    }
}

/// The cluster-level control loop: headroom in, caps out.
#[derive(Debug, Clone)]
pub struct ClusterGovernor {
    tree: BudgetTree,
    reserve_w: f64,
    reallocations: u64,
}

impl ClusterGovernor {
    /// A governor with no reserve margin.
    pub fn new(tree: BudgetTree) -> Self {
        ClusterGovernor { tree, reserve_w: 0.0, reallocations: 0 }
    }

    /// A governor that keeps `reserve_w` watts of each node's demand in
    /// hand above its estimated need (absorbs between-window bursts).
    ///
    /// # Errors
    ///
    /// Rejects a non-finite or negative reserve.
    pub fn with_reserve(tree: BudgetTree, reserve_w: f64) -> Result<Self> {
        if !reserve_w.is_finite() || reserve_w < 0.0 {
            return Err(invalid(format!("reserve must be non-negative, got {reserve_w}")));
        }
        Ok(ClusterGovernor { tree, reserve_w, reallocations: 0 })
    }

    /// The budget tree being governed.
    pub fn tree(&self) -> &BudgetTree {
        &self.tree
    }

    /// How many reallocation sweeps have run.
    pub fn reallocations(&self) -> u64 {
        self.reallocations
    }

    /// One cluster control step: per-node observed headroom (minimum over
    /// the window; `None` = no signal, hold the node's current demand) is
    /// turned into demands — current cap minus headroom plus reserve — and
    /// the tree reallocates. Returns the new caps in rack-major order.
    ///
    /// # Panics
    ///
    /// Panics if `headrooms` is not one entry per node.
    pub fn reallocate(&mut self, headrooms: &[Option<f64>]) -> Vec<f64> {
        assert_eq!(headrooms.len(), self.tree.node_count(), "one headroom per node");
        let caps = self.tree.caps();
        let demands: Vec<f64> = caps
            .iter()
            .zip(headrooms)
            .map(|(&cap, h)| match h {
                Some(h) if h.is_finite() => cap - h + self.reserve_w,
                _ => cap,
            })
            .collect();
        self.tree.reallocate(&demands);
        self.reallocations += 1;
        self.tree.caps()
    }
}

/// Drives a fleet with one node control loop per node — the session
/// pipeline around a [`PerformanceMaximizer`] — and an optional
/// [`ClusterGovernor`] reallocating caps at the governor cadence (`None` =
/// static caps, the uniform baseline).
///
/// Node indexing must line up: the tree's rack-major node order (or the
/// static caps vector) is the fleet's global node order, and a fleet with
/// a different node count is rejected at the first callback. Node loops
/// run with an inert fault plan, a disabled metrics handle, and DAQ and
/// thermal sensors seeded by node id. Fast-forward cohorts never step, so
/// their nodes simply hold their caps; they are advanced to the governor
/// tick here so metering stays current.
#[derive(Debug)]
pub struct FleetPmController {
    table: PStateTable,
    cluster: Option<ClusterGovernor>,
    caps_w: Vec<f64>,
    nodes: Vec<NodeLoop<PerformanceMaximizer>>,
    prev_energy_j: Vec<f64>,
    /// Per-node minimum guardband headroom observed this cluster window.
    min_headroom_w: Vec<Option<f64>>,
    windows: u64,
    violation_windows: u64,
}

impl FleetPmController {
    /// A controller whose caps are reallocated by `governor`'s budget
    /// tree; the tree must have exactly one node per fleet node.
    ///
    /// # Errors
    ///
    /// Propagates [`PowerLimit::new`] (unreachable for valid trees).
    pub fn hierarchical(
        table: PStateTable,
        model: &PowerModel,
        governor: ClusterGovernor,
    ) -> Result<Self> {
        let caps = governor.tree().caps();
        Self::build(table, model, caps, Some(governor))
    }

    /// A controller with fixed per-node caps (the uniform-static arm).
    ///
    /// # Errors
    ///
    /// Rejects non-positive or non-finite caps.
    pub fn uniform(table: PStateTable, model: &PowerModel, caps_w: Vec<f64>) -> Result<Self> {
        for (i, cap) in caps_w.iter().enumerate() {
            if !cap.is_finite() || *cap <= 0.0 {
                return Err(invalid(format!("node {i} cap must be positive, got {cap}")));
            }
        }
        Self::build(table, model, caps_w, None)
    }

    fn build(
        table: PStateTable,
        model: &PowerModel,
        caps_w: Vec<f64>,
        cluster: Option<ClusterGovernor>,
    ) -> Result<Self> {
        let n = caps_w.len();
        let mut nodes = Vec::with_capacity(n);
        for (node, cap) in caps_w.iter().enumerate() {
            let limit = PowerLimit::new(cap.max(MIN_NODE_CAP_W))?;
            let pm = PerformanceMaximizer::new(model.clone(), limit);
            let config = SimulationConfig { seed: node as u64, ..SimulationConfig::default() };
            let plan = FaultPlan::new(config.faults)?;
            nodes.push(NodeLoop::new(pm, &config, plan, Vec::new(), Metrics::disabled()));
        }
        Ok(FleetPmController {
            table,
            cluster,
            caps_w,
            nodes,
            prev_energy_j: vec![0.0; n],
            min_headroom_w: vec![None; n],
            windows: 0,
            violation_windows: 0,
        })
    }

    /// Hands `cohort`'s lanes one open-loop arrival stream each, in lane
    /// order. Each lane's node loop queues the window `[time_at(now),
    /// time_at(now + cadence))` right after its decision at tick `now`;
    /// the first window, from 0, is queued here, so call this before the
    /// run.
    ///
    /// # Errors
    ///
    /// Rejects a fleet whose node count differs from the controller's, a
    /// fast-forward cohort, a cohort with a batch (program) lane, and a
    /// stream count other than the cohort's lane count — before any lane
    /// is fed.
    pub fn feed<S: WorkloadSource + 'static>(
        &mut self,
        fleet: &mut Fleet,
        cohort: CohortId,
        streams: Vec<S>,
    ) -> Result<()> {
        self.check_nodes(fleet)?;
        let CohortMode::Governed { cadence_ticks } = fleet.mode(cohort) else {
            return Err(invalid(format!("cohort {cohort} is fast-forward and takes no arrivals")));
        };
        if streams.len() != fleet.lanes(cohort) {
            return Err(invalid(format!(
                "cohort {cohort} has {} lanes but {} streams",
                fleet.lanes(cohort),
                streams.len()
            )));
        }
        let serves = |lane: usize| fleet.queue(cohort, lane).is_some();
        if let Some(lane) = (0..fleet.lanes(cohort)).find(|&lane| !serves(lane)) {
            return Err(invalid(format!(
                "cohort {cohort} lane {lane} runs a program and takes no arrivals"
            )));
        }
        let (start, end) = (fleet.time_at(0), fleet.time_at(cadence_ticks));
        let offset = fleet.node_offset(cohort);
        for (lane, stream) in streams.into_iter().enumerate() {
            let node = &mut self.nodes[offset + lane];
            node.source = Some(Box::new(stream));
            node.before_tick(fleet.machine_mut(cohort, lane), start, end);
        }
        Ok(())
    }

    /// Current per-node caps in fleet node order.
    pub fn caps_w(&self) -> &[f64] {
        &self.caps_w
    }

    /// The cluster governor, when running hierarchically.
    pub fn cluster(&self) -> Option<&ClusterGovernor> {
        self.cluster.as_ref()
    }

    /// Decision windows metered so far, across all nodes.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Fraction of metered windows whose average node power exceeded the
    /// node's cap at the time.
    pub fn cap_violation_fraction(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.violation_windows as f64 / self.windows as f64
            }
        }
    }

    fn fold_headroom(&mut self, node: usize, headroom_w: f64) {
        let slot = &mut self.min_headroom_w[node];
        *slot = Some(match *slot {
            Some(prev) => prev.min(headroom_w),
            None => headroom_w,
        });
    }

    /// One per-node state per fleet node: a bigger fleet would index past
    /// it, a smaller one would leave phantom tree nodes holding budget.
    fn check_nodes(&self, fleet: &Fleet) -> Result<()> {
        if fleet.nodes() == self.nodes.len() {
            return Ok(());
        }
        Err(invalid(format!(
            "the fleet has {} nodes but the controller governs {}",
            fleet.nodes(),
            self.nodes.len()
        )))
    }
}

impl FleetController for FleetPmController {
    fn cohort_stepped(&mut self, fleet: &mut Fleet, cohort: CohortId, now_ticks: u64) -> Result<()> {
        self.check_nodes(fleet)?;
        let CohortMode::Governed { cadence_ticks } = fleet.mode(cohort) else {
            return Ok(());
        };
        let offset = fleet.node_offset(cohort);
        let interval = fleet.cohort_dt(cohort);
        let now = fleet.time_at(now_ticks);
        let next = fleet.time_at(now_ticks + cadence_ticks);
        // Power is metered over the step's span of the fleet clock.
        let dt = now.seconds() - fleet.time_at(now_ticks.saturating_sub(cadence_ticks)).seconds();
        for lane in 0..fleet.lanes(cohort) {
            let node = offset + lane;
            let energy_j = fleet.energy(cohort, lane).joules();
            if fleet.machine(cohort, lane).finished() {
                // A completed node's whole cap is reclaimable slack.
                self.fold_headroom(node, self.caps_w[node]);
            } else {
                self.windows += 1;
                if (energy_j - self.prev_energy_j[node]) / dt > self.caps_w[node] {
                    self.violation_windows += 1;
                }
                let node_loop = &mut self.nodes[node];
                let machine = fleet.machine_mut(cohort, lane);
                let current = machine.pstate();
                node_loop.after_tick(machine, &self.table, current, interval)?;
                node_loop.before_tick(machine, now, next);
                // A throttled node's deficit is negative headroom: its
                // demand rises above the current cap by exactly what the
                // next p-state up would cost, so slack reclaimed elsewhere
                // flows here.
                let pm = &node_loop.governor;
                let deficit_w = pm.last_deficit().map(|deficit| -deficit.watts());
                if let Some(headroom_w) = deficit_w.or(pm.last_headroom().map(Watts::watts)) {
                    self.fold_headroom(node, headroom_w);
                }
            }
            self.prev_energy_j[node] = energy_j;
        }
        Ok(())
    }

    fn governor_tick(&mut self, fleet: &mut Fleet, now_ticks: u64) -> Result<()> {
        self.check_nodes(fleet)?;
        // Keep unobserved (fast-forward) spans advanced to the cluster
        // cadence so their books are current.
        fleet.advance_fastforward_to(now_ticks)?;
        if let Some(cluster) = &mut self.cluster {
            let new_caps = cluster.reallocate(&self.min_headroom_w);
            for (node, cap) in new_caps.into_iter().enumerate() {
                if cap != self.caps_w[node] {
                    self.caps_w[node] = cap;
                    self.nodes[node].governor.command(GovernorCommand::SetPowerLimit(
                        PowerLimit::new(cap.max(MIN_NODE_CAP_W))?,
                    ));
                }
            }
        }
        // A fresh observation window starts for every node.
        for slot in &mut self.min_headroom_w {
            *slot = None;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aapm_platform::config::MachineConfig;
    use aapm_platform::machine::Machine;
    use aapm_platform::phase::PhaseDescriptor;
    use aapm_platform::program::PhaseProgram;
    use aapm_platform::units::Seconds;
    use aapm_workloads::requests::RequestWorkload;
    use proptest::prelude::*;

    fn two_rack_spec() -> Vec<RackSpec> {
        vec![
            RackSpec {
                ceiling_w: 40.0,
                nodes: vec![
                    NodeSpec { floor_w: 6.0, ceiling_w: 24.5 },
                    NodeSpec { floor_w: 6.0, ceiling_w: 24.5 },
                ],
            },
            RackSpec {
                ceiling_w: 30.0,
                nodes: vec![
                    NodeSpec { floor_w: 6.0, ceiling_w: 24.5 },
                    NodeSpec { floor_w: 6.0, ceiling_w: 24.5 },
                ],
            },
        ]
    }

    #[test]
    fn initial_allocation_water_fills_and_respects_the_tree() {
        let tree = BudgetTree::new(60.0, &two_rack_spec()).unwrap();
        tree.assert_invariants();
        let caps = tree.caps();
        assert_eq!(caps.len(), 4);
        // 60 W across four full-demand nodes: everyone well above floor.
        for cap in &caps {
            assert!(*cap > 6.0, "initial cap {cap} should exceed the floor");
        }
    }

    #[test]
    fn slack_flows_from_idle_to_hungry_nodes() {
        let tree = BudgetTree::new(60.0, &two_rack_spec()).unwrap();
        let mut governor = ClusterGovernor::new(tree);
        let before = governor.tree().caps();
        // Node 0 has lots of headroom (near-idle); node 1 is over budget
        // (negative headroom = it wanted more than its cap).
        let caps = governor.reallocate(&[Some(10.0), Some(-5.0), Some(0.0), Some(0.0)]);
        governor.tree().assert_invariants();
        assert!(caps[0] < before[0], "idle node surrenders cap");
        assert!(caps[1] > before[1], "hungry node receives cap");
        assert_eq!(governor.reallocations(), 1);
    }

    #[test]
    fn missing_headroom_signal_holds_demand() {
        let tree = BudgetTree::new(60.0, &two_rack_spec()).unwrap();
        let mut governor = ClusterGovernor::new(tree);
        let before = governor.tree().caps();
        let after = governor.reallocate(&[None, None, None, None]);
        governor.tree().assert_invariants();
        // With no signal anywhere, the split stays where it was (up to the
        // water-fill's re-derivation of the same fixpoint).
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-9, "cap moved without a signal: {b} -> {a}");
        }
    }

    #[test]
    fn construction_rejects_bad_trees() {
        assert!(BudgetTree::new(0.0, &two_rack_spec()).is_err());
        assert!(BudgetTree::new(f64::NAN, &two_rack_spec()).is_err());
        assert!(BudgetTree::new(100.0, &[]).is_err());
        assert!(
            BudgetTree::new(100.0, &[RackSpec { ceiling_w: 20.0, nodes: vec![] }]).is_err(),
            "empty rack"
        );
        assert!(
            BudgetTree::new(
                100.0,
                &[RackSpec {
                    ceiling_w: 20.0,
                    nodes: vec![NodeSpec { floor_w: 10.0, ceiling_w: 5.0 }],
                }]
            )
            .is_err(),
            "floor above ceiling"
        );
        assert!(
            BudgetTree::new(
                5.0,
                &[RackSpec {
                    ceiling_w: 20.0,
                    nodes: vec![NodeSpec { floor_w: 10.0, ceiling_w: 15.0 }],
                }]
            )
            .is_err(),
            "datacenter below floors"
        );
        assert!(ClusterGovernor::with_reserve(
            BudgetTree::new(60.0, &two_rack_spec()).unwrap(),
            -1.0
        )
        .is_err());
    }

    /// Strategy: a valid tree (floors fit under every budget) plus a
    /// sequence of adversarial demand vectors.
    fn tree_strategy() -> impl Strategy<Value = (f64, Vec<RackSpec>)> {
        let node = (0.5f64..8.0, 0.0f64..30.0)
            .prop_map(|(floor, extra)| NodeSpec { floor_w: floor, ceiling_w: floor + extra });
        let rack = (proptest::collection::vec(node, 1..5), 0.0f64..40.0).prop_map(
            |(nodes, slack)| {
                let floors: f64 = nodes.iter().map(|n| n.floor_w).sum();
                RackSpec { ceiling_w: floors + slack, nodes }
            },
        );
        (proptest::collection::vec(rack, 1..4), 0.0f64..100.0).prop_map(|(racks, slack)| {
            let floors: f64 =
                racks.iter().flat_map(|r| r.nodes.iter().map(|n| n.floor_w)).sum();
            (floors + slack, racks)
        })
    }

    fn demand_strategy(nodes: usize, rounds: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
        let demand = prop_oneof![
            5 => -10.0f64..120.0,
            1 => Just(f64::NAN),
            1 => Just(f64::INFINITY),
            1 => Just(f64::NEG_INFINITY),
        ];
        proptest::collection::vec(proptest::collection::vec(demand, nodes..nodes + 1), 1..rounds + 1)
    }

    proptest! {
        /// After any reallocation sequence — including NaN/±∞/negative
        /// demands — every node cap stays within its seed ceiling and
        /// every parent's children sum at most to its budget, under exact
        /// float comparison.
        #[test]
        fn budget_invariants_survive_any_demand_sequence(
            config in tree_strategy(),
            seed_demands in proptest::collection::vec(-10.0f64..120.0, 24..25),
        ) {
            let (datacenter, racks) = config;
            let mut tree = BudgetTree::new(datacenter, &racks).unwrap();
            tree.assert_invariants();
            let n = tree.node_count();
            // Reuse the flat pool as several demand rounds of width n.
            for round in seed_demands.chunks(n.max(1)) {
                let mut demands: Vec<f64> = round.to_vec();
                demands.resize(n, f64::INFINITY);
                tree.reallocate(&demands);
                tree.assert_invariants();
            }
        }
    }

    proptest! {
        /// The same invariants hold when demands come through the
        /// cluster governor's headroom path.
        #[test]
        fn governor_reallocation_preserves_invariants(
            config in tree_strategy(),
            reserve in 0.0f64..2.0,
        ) {
            let (datacenter, racks) = config;
            let tree = BudgetTree::new(datacenter, &racks).unwrap();
            let n = tree.node_count();
            let mut governor = ClusterGovernor::with_reserve(tree, reserve).unwrap();
            let patterns: Vec<Vec<Option<f64>>> = vec![
                vec![Some(4.0); n],
                vec![None; n],
                (0..n).map(|i| if i % 2 == 0 { Some(-3.0) } else { Some(f64::INFINITY) }).collect(),
                (0..n).map(|i| if i % 3 == 0 { None } else { Some(0.5) }).collect(),
            ];
            for headrooms in &patterns {
                let caps = governor.reallocate(headrooms);
                governor.tree().assert_invariants();
                let ceilings = governor.tree().ceilings();
                for (cap, ceiling) in caps.iter().zip(&ceilings) {
                    prop_assert!(cap <= ceiling, "cap {cap} above seed ceiling {ceiling}");
                }
            }
        }
    }

    proptest! {
        /// Dedicated NaN/±∞ coverage: adversarial demand vectors drawn
        /// per round against a matching tree.
        #[test]
        fn adversarial_demands_never_break_the_tree(
            case in tree_strategy().prop_flat_map(|(d, r)| {
                let n: usize = r.iter().map(|rack| rack.nodes.len()).sum();
                (Just((d, r)), demand_strategy(n, 4))
            }),
        ) {
            let ((datacenter, racks), rounds) = case;
            let mut tree = BudgetTree::new(datacenter, &racks).unwrap();
            for demands in &rounds {
                tree.reallocate(demands);
                tree.assert_invariants();
            }
        }
    }

    /// A fleet of `lanes` long-running batch nodes in one 10-tick cohort.
    fn batch_fleet(lanes: usize) -> Fleet {
        let phase = PhaseDescriptor::builder("fleet-node")
            .instructions(50_000_000_000)
            .core_cpi(0.8)
            .build()
            .unwrap();
        let machines = (0..lanes)
            .map(|lane| {
                let config = MachineConfig::pentium_m_755(lane as u64);
                Machine::new(config, PhaseProgram::from_phase(phase.clone()))
            })
            .collect();
        let mut fleet = Fleet::new(Seconds::from_millis(10.0));
        fleet.add_cohort(machines, CohortMode::Governed { cadence_ticks: 10 }).unwrap();
        fleet
    }

    /// Both directions of a node-count mismatch fail the run with a
    /// config error instead of indexing past the per-node state (more
    /// fleet nodes) or leaving phantom tree nodes holding budget (fewer).
    #[test]
    fn fleets_with_another_node_count_are_rejected() {
        let (table, model) = (PStateTable::pentium_m_755(), PowerModel::paper_table_ii());
        let two_node_tree = vec![RackSpec {
            ceiling_w: 40.0,
            nodes: vec![NodeSpec { floor_w: 6.0, ceiling_w: 24.5 }; 2],
        }];
        let governor = ClusterGovernor::new(BudgetTree::new(30.0, &two_node_tree).unwrap());
        let mut bigger_fleet =
            FleetPmController::hierarchical(table.clone(), &model, governor).unwrap();
        let mut smaller_fleet = FleetPmController::uniform(table, &model, vec![12.0; 3]).unwrap();
        for (lanes, controller) in [(3, &mut bigger_fleet), (2, &mut smaller_fleet)] {
            let err = batch_fleet(lanes).run_des(100, 50, controller).unwrap_err();
            assert!(
                matches!(err, PlatformError::InvalidConfig { parameter: "cluster", .. }),
                "{lanes}-node fleet: {err}"
            );
            assert_eq!(controller.windows(), 0, "{lanes}-node fleet: no node was stepped");
        }
    }

    /// Arrivals go to serve lanes only: a cohort holding a program lane is
    /// rejected before any of its lanes gets a source, instead of
    /// panicking in `Machine::offer_request` inside `feed` or mid-run.
    #[test]
    fn feeding_a_cohort_with_a_program_lane_is_rejected() {
        let mut family = RequestWorkload::builder("fed");
        family.seed(5).day(Seconds::new(4.0)).rates(80.0, 160.0);
        let family = family.build().unwrap();
        let phase = PhaseDescriptor::builder("program-lane").instructions(1_000_000_000).build();
        let program =
            Machine::new(MachineConfig::pentium_m_755(1), PhaseProgram::from_phase(phase.unwrap()));
        // A serve lane ahead of the program lane, then an all-program cohort.
        let mut mixed = Fleet::new(Seconds::from_millis(10.0));
        let lanes = vec![family.machine(MachineConfig::pentium_m_755(0)), program];
        mixed.add_cohort(lanes, CohortMode::Governed { cadence_ticks: 10 }).unwrap();
        for mut fleet in [mixed, batch_fleet(2)] {
            let (table, model) = (PStateTable::pentium_m_755(), PowerModel::paper_table_ii());
            let mut controller = FleetPmController::uniform(table, &model, vec![14.0; 2]).unwrap();
            let streams: Vec<RequestWorkload> = (0..2).map(|lane| family.reseeded(lane)).collect();
            let err = controller.feed(&mut fleet, 0, streams).unwrap_err();
            assert!(
                matches!(err, PlatformError::InvalidConfig { parameter: "cluster", .. }),
                "{err}"
            );
            assert!(controller.nodes.iter().all(|node| node.source.is_none()), "no lane was fed");
            assert_eq!(fleet.queue(0, 0).map_or(0, |queue| queue.arrived()), 0);
            // Unfed, the run steps every lane without offering anything.
            fleet.run_des(100, 50, &mut controller).unwrap();
        }
    }

    /// Serve lanes under the controller have their completions drained
    /// every window, the way a session drains them, so a lane's queue
    /// holds only the sojourns of the window since its last decision —
    /// not every completion of the run.
    #[test]
    fn serve_lanes_drain_their_sojourns_every_window() {
        let mut family = RequestWorkload::builder("drain");
        family.seed(5).day(Seconds::new(4.0)).rates(80.0, 160.0);
        let family = family.build().unwrap();
        let streams: Vec<RequestWorkload> = (0..2).map(|lane| family.reseeded(lane)).collect();
        let machines = streams
            .iter()
            .enumerate()
            .map(|(lane, stream)| stream.machine(MachineConfig::pentium_m_755(lane as u64)))
            .collect();
        let mut fleet = Fleet::new(Seconds::from_millis(10.0));
        fleet.add_cohort(machines, CohortMode::Governed { cadence_ticks: 10 }).unwrap();
        let (table, model) = (PStateTable::pentium_m_755(), PowerModel::paper_table_ii());
        let mut controller = FleetPmController::uniform(table, &model, vec![14.0; 2]).unwrap();
        controller.feed(&mut fleet, 0, streams).unwrap();
        fleet.run_des(300, 100, &mut controller).unwrap();

        let dt = fleet.cohort_dt(0);
        for lane in 0..2 {
            let machine = fleet.machine_mut(0, lane);
            let before = machine.queue().unwrap().completed();
            // One more window: the node loop queued its arrivals already.
            machine.tick(dt);
            let sample = machine.take_queue_sample().unwrap();
            assert_eq!(
                sample.sojourns.len() as u64,
                sample.completed - before,
                "lane {lane}: only the last window's completions are pending"
            );
            assert!(before > sample.sojourns.len() as u64, "lane {lane} served the run");
        }
    }
}
