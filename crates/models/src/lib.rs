//! # aapm-models — counter-based power & performance estimation
//!
//! The paper's distinguishing capability: from a handful of performance
//! counters observed at the *current* p-state, predict both **power** and
//! **performance** at *every* p-state, cheaply enough to run every 10 ms.
//!
//! * [`power_model`] — `Power = α·DPC + β` per p-state (paper eq. 2 /
//!   Table II), driven by decoded (speculative) instruction counts;
//! * [`dpc_projection`] — conservative DPC projection across p-states
//!   (paper eq. 4);
//! * [`perf_model`] — two-class IPC projection split on DCU/IPC
//!   memory-boundedness (paper eq. 3, threshold 1.21, exponents 0.81/0.59);
//! * [`training`] — the microbenchmark training pipeline that produces both
//!   models from simulated measurements (our analogue of Table II);
//! * [`fit`] — least-absolute-error linear fitting;
//! * [`online`] — recursive (forgetting-factor) refit of the power model
//!   from the live counter stream, with a Mazzola-style multi-counter
//!   basis (feeds the `adaptive` governor layer).
//!
//! # Examples
//!
//! Estimate power at a lower p-state from a sample taken at 2 GHz:
//!
//! ```
//! use aapm_models::{dpc_projection::project_dpc, power_model::PowerModel};
//! use aapm_platform::pstate::{PStateId, PStateTable};
//!
//! let table = PStateTable::pentium_m_755();
//! let model = PowerModel::paper_table_ii();
//! let observed_dpc = 1.4; // at 2 GHz (P7)
//! let target = PStateId::new(5); // 1.6 GHz
//! let projected = project_dpc(
//!     observed_dpc,
//!     table.get(table.highest())?.frequency(),
//!     table.get(target)?.frequency(),
//! );
//! let watts = model.estimate(target, projected)?;
//! assert!(watts.watts() > 0.0);
//! # Ok::<(), aapm_platform::error::PlatformError>(())
//! ```

pub mod dpc_projection;
pub mod fit;
pub mod online;
pub mod perf_model;
pub mod phase_detect;
pub mod power_model;
pub mod training;

pub use dpc_projection::project_dpc;
pub use online::{OnlineModel, Rls, RunningMean};
pub use perf_model::{PerfModel, PerfModelParams, WorkloadClass};
pub use phase_detect::PhaseDetector;
pub use power_model::{PowerModel, PStateCoefficients};
pub use training::{collect_training_data, train_perf_model, train_power_model, TrainingConfig};
