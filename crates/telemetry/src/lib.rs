//! # aapm-telemetry — the measurement infrastructure, simulated
//!
//! The paper's experimental rig consisted of (a) a sense-resistor power
//! measurement chain sampled at 10 ms and (b) a low-overhead driver reading
//! the Pentium M's two performance counters every 10 ms. (The rig's GPIO
//! line marked benchmark boundaries in one continuous capture; each
//! simulated run gets its own machine and trace, so there is nothing to
//! slice.) Governors in `aapm` observe the platform *only* through this
//! crate:
//!
//! * [`daq`] — the power meter: gain error, noise, quantization;
//! * [`pmc`] — the counter driver: two programmable counters, event
//!   multiplexing when oversubscribed;
//! * [`sensor`] — the on-die thermal diode (quantized temperature);
//! * [`trace`] — power/p-state time series, moving-average violation
//!   metrics, energy summation (the paper's energy metric);
//! * [`window`] — moving windows (PM's 100 ms enforcement window);
//! * [`stats`] — summaries, medians (the paper's three-run median);
//! * [`faults`] — seeded fault injection for the whole chain (sample
//!   dropouts, stuck readings, missed counter reads, ignored/stalled
//!   actuator writes);
//! * [`metrics`] — the observability layer: counters, gauges and
//!   histograms named by a closed vocabulary and recorded by slot, plus
//!   structured control-loop events stamped with simulated time (one
//!   branch per call when no registry is installed).

pub mod daq;
pub mod derived;
pub mod faults;
pub mod metrics;
pub mod pmc;
pub mod sensor;
pub mod stats;
pub mod trace;
pub mod window;

pub use daq::{DaqConfig, PowerDaq, PowerSample};
pub use derived::{derive, DerivedMetrics};
pub use faults::{
    ActuationFault, FaultConfig, FaultKind, FaultPlan, FaultStats, FaultWindow, IntervalFaults,
    PowerFault,
};
pub use metrics::{Event, EventKind, Metrics, MetricsSnapshot, Summary};
pub use pmc::{CounterSample, PmcDriver, PROGRAMMABLE_COUNTERS};
pub use sensor::{ThermalSensor, ThermalSensorConfig};
pub use trace::{RunTrace, TraceRecord};
pub use window::MovingWindow;
