//! # aapm — Application-Aware Power Management
//!
//! Reproduction of the core contribution of *Application-Aware Power
//! Management* (Rajamani, Hanson, Rubio, Ghiasi, Rawson — IISWC 2006): a
//! three-phase **Monitor → Estimate → Control** methodology that lets a
//! user-level governor predict, every 10 ms, the power and performance
//! consequences of every available p-state — and two governors built on it:
//!
//! * [`pm::PerformanceMaximizer`] — the best possible performance under an
//!   explicit power limit (dynamic clocking vs worst-case static clocking);
//! * [`ps::PowerSave`] — energy savings under an explicit performance
//!   floor, even at 100 % load.
//!
//! Baselines ([`baselines`]), the measured-power-feedback extension the
//! paper sketches as future work ([`feedback`]), decorator layers built on
//! [`layer::GovernorLayer`], a data-driven governor registry
//! ([`spec::GovernorSpec`]), and the [`runtime::Session`] builder that
//! wires governors to the simulated Pentium M platform round out the
//! crate.
//!
//! # Quickstart
//!
//! Run PM against a synthetic SPEC workload under a 14.5 W limit:
//!
//! ```
//! use aapm::limits::PowerLimit;
//! use aapm::pm::PerformanceMaximizer;
//! use aapm::runtime::Session;
//! use aapm_models::power_model::PowerModel;
//! use aapm_platform::config::MachineConfig;
//! use aapm_workloads::spec;
//!
//! let ammp = spec::by_name("ammp").expect("ammp is in the suite");
//! let mut pm = PerformanceMaximizer::new(
//!     PowerModel::paper_table_ii(),
//!     PowerLimit::new(14.5)?,
//! );
//! let (report, _faults) = Session::builder(
//!     MachineConfig::pentium_m_755(42),
//!     ammp.program().scaled(0.02), // shortened for the doc test
//! )
//! .governor(&mut pm)
//! .run()?;
//! assert!(report.completed);
//! # Ok::<(), aapm_platform::error::PlatformError>(())
//! ```
//!
//! The same run from a serializable spec (the registry path the
//! experiment harness uses):
//!
//! ```
//! use aapm::runtime::Session;
//! use aapm::spec::{GovernorSpec, SpecModels};
//! use aapm_platform::config::MachineConfig;
//! use aapm_workloads::spec;
//!
//! let ammp = spec::by_name("ammp").expect("ammp is in the suite");
//! let spec = GovernorSpec::from_json(r#"{"kind":"pm","limit_w":14.5}"#)?;
//! let (report, _faults) = Session::builder(
//!     MachineConfig::pentium_m_755(42),
//!     ammp.program().scaled(0.02),
//! )
//! .governor_spec(&spec, &SpecModels::default())?
//! .run()?;
//! assert_eq!(report.governor, "pm");
//! # Ok::<(), aapm_platform::error::PlatformError>(())
//! ```

pub mod adaptive;
pub mod baselines;
pub mod cluster;
pub mod combined_pm;
pub mod feedback;
pub mod governor;
mod hold;
pub mod json;
pub mod layer;
pub mod limits;
pub mod phase_pm;
pub mod pm;
pub mod ps;
pub mod report;
pub mod runtime;
pub mod slo_save;
pub mod spec;
pub mod thermal_guard;
pub mod throttle_save;
pub mod watchdog;

pub use baselines::{DemandBasedSwitching, StaticClock, Unconstrained};
pub use cluster::{BudgetTree, ClusterGovernor, FleetPmController, NodeSpec, RackSpec};
pub use combined_pm::CombinedPm;
pub use feedback::FeedbackPm;
pub use governor::{BoxedGovernor, Governor, GovernorCommand, SampleContext};
pub use layer::GovernorLayer;
pub use limits::{PerformanceFloor, PowerLimit};
pub use phase_pm::PhasePm;
pub use pm::{PerformanceMaximizer, PmConfig};
pub use ps::PowerSave;
pub use report::RunReport;
pub use runtime::{ScheduledCommand, Session, SessionBuilder, SessionStatus, SimulationConfig};
pub use slo_save::{SloSave, SloSaveConfig};
pub use spec::{GovernorSpec, RegistryEntry, SpecModels, REGISTRY};
pub use thermal_guard::ThermalGuard;
pub use throttle_save::ThrottleSave;
pub use watchdog::Watchdog;
