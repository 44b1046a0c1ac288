//! The four workloads.

mod fault_soak;
mod fleet_day;
mod paper_suite;
mod serve_day;

use crate::{Bench, Size, Workload};

pub(crate) use fleet_day::fixture as fleet_fixture;

/// The workload's rounds. `traced_run` tells a workload whose set-up is
/// consumed by a pass to prepare one copy per pass.
pub(crate) fn new(workload: Workload, size: Size, traced_run: bool) -> Box<dyn Bench> {
    match workload {
        Workload::PaperSuite => Box::new(paper_suite::PaperSuite::new(size)),
        Workload::ServeDay => Box::new(serve_day::ServeDay::new(size)),
        Workload::FleetDay => Box::new(fleet_day::FleetDay::new(size, traced_run)),
        Workload::FaultSoak => Box::new(fault_soak::FaultSoak::new(size)),
    }
}
