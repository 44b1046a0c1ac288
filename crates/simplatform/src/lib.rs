//! # aapm-platform — the simulated system under test
//!
//! A Pentium M 755-class platform model for reproducing *Application-Aware
//! Power Management* (Rajamani et al., IISWC 2006) without the original
//! hardware. It provides:
//!
//! * the eight Enhanced SpeedStep p-states of the paper's machine
//!   ([`pstate::PStateTable::pentium_m_755`]);
//! * an analytic pipeline/memory timing model that turns
//!   frequency-independent workload *phases* into per-cycle event rates
//!   ([`pipeline`]), with on-chip latencies fixed in cycles and DRAM latency
//!   fixed in nanoseconds — the mechanism behind workload-dependent DVFS
//!   sensitivity;
//! * a ground-truth CMOS power model ([`power`]) richer than the linear
//!   counter models the governors use, so estimation error is realistic;
//! * a set-associative cache simulator and DRAM row-buffer model
//!   ([`cache`], [`dram`], [`hierarchy`]) used to characterize
//!   microbenchmarks from their address streams;
//! * DVFS transition costs ([`dvfs`]) and hardware event counters
//!   ([`events`], [`counters`]);
//! * the machine executor ([`machine::Machine`]) that runs phase programs
//!   under external p-state control.
//!
//! # Quickstart
//!
//! ```
//! use aapm_platform::config::MachineConfig;
//! use aapm_platform::machine::Machine;
//! use aapm_platform::phase::PhaseDescriptor;
//! use aapm_platform::program::PhaseProgram;
//!
//! let phase = PhaseDescriptor::builder("demo")
//!     .instructions(50_000_000)
//!     .core_cpi(0.8)
//!     .build()?;
//! let mut machine = Machine::new(
//!     MachineConfig::pentium_m_755(42),
//!     PhaseProgram::from_phase(phase),
//! );
//! let time = machine.run_to_completion()?;
//! println!("finished in {time}, used {}", machine.true_energy());
//! # Ok::<(), aapm_platform::error::PlatformError>(())
//! ```

pub mod cache;
pub mod config;
pub mod counters;
pub mod dram;
pub mod dvfs;
pub mod error;
pub mod events;
pub mod fleet;
pub mod hierarchy;
pub mod machine;
pub mod noise;
pub mod phase;
pub mod pipeline;
pub mod power;
pub mod program;
pub mod pstate;
pub mod requests;
pub mod thermal;
pub mod throttle;
pub mod units;
pub mod workload;

pub use config::MachineConfig;
pub use counters::{CounterDelta, CounterSnapshot};
pub use error::PlatformError;
pub use events::HardwareEvent;
pub use fleet::{CohortId, CohortMode, Fleet, FleetController};
pub use machine::Machine;
pub use phase::PhaseDescriptor;
pub use program::PhaseProgram;
pub use pstate::{PState, PStateId, PStateTable};
pub use requests::{QueueSample, Request, RequestQueue};
pub use thermal::{Celsius, ThermalModel, ThermalParams};
pub use throttle::ThrottleLevel;
pub use units::{Joules, MegaHertz, Seconds, Volts, Watts};
pub use workload::WorkloadSource;
