//! Results of a governed run.

use aapm_platform::units::{Joules, Seconds, Watts};
use aapm_telemetry::metrics::MetricsSnapshot;
use aapm_telemetry::trace::RunTrace;

/// Everything measured during one governed run of one workload.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload (program) name.
    pub workload: String,
    /// Governor name.
    pub governor: String,
    /// Wall-clock time to program completion.
    pub execution_time: Seconds,
    /// Energy summed from measured 10 ms power samples (the paper's energy
    /// metric).
    pub measured_energy: Joules,
    /// Ground-truth energy (what a perfect meter would report).
    pub true_energy: Joules,
    /// Number of p-state transitions the governor performed.
    pub transitions: u64,
    /// Whether the program ran to completion (false only if the safety cap
    /// on samples was hit).
    pub completed: bool,
    /// The full sample trace.
    pub trace: RunTrace,
    /// End-of-run metrics snapshot (empty unless an enabled registry was
    /// installed via `SessionBuilder::observer`).
    pub metrics: MetricsSnapshot,
    /// Request accounting for open-loop (serve) runs; `None` on batch
    /// runs.
    pub requests: Option<RequestSummary>,
}

/// Request-level accounting of an open-loop serve run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestSummary {
    /// Requests that arrived during the run.
    pub arrived: u64,
    /// Requests completed during the run.
    pub completed: u64,
    /// Requests still queued when the run ended (the backlog). Queue
    /// accounting conserves: `arrived == completed + pending` always.
    pub pending: u64,
    /// True energy divided by completed requests (the serve experiment's
    /// headline metric); zero when nothing completed.
    pub energy_per_request: Joules,
    /// Mean sojourn (queueing + service) time over completed requests;
    /// zero when nothing completed.
    pub mean_sojourn: Seconds,
}

impl RunReport {
    /// Mean measured power over the run.
    pub fn mean_power(&self) -> Option<Watts> {
        self.trace.mean_power()
    }

    /// Maximum single-sample measured power.
    pub fn max_power(&self) -> Option<Watts> {
        self.trace.max_power()
    }

    /// Fraction of `window`-sample moving averages above `limit`
    /// (the paper's 100 ms adherence metric with `window = 10`).
    pub fn violation_fraction(&self, limit: Watts, window: usize) -> f64 {
        self.trace.violation_fraction(limit, window)
    }

    /// Performance reduction relative to a baseline:
    /// `1 − baseline_time / this_time` (positive = slower than baseline).
    pub fn performance_reduction_vs(&self, baseline: &RunReport) -> f64 {
        1.0 - baseline.execution_time / self.execution_time
    }

    /// Energy saved relative to a baseline, as a fraction of the baseline's
    /// measured energy.
    pub fn energy_savings_vs(&self, baseline: &RunReport) -> f64 {
        1.0 - self.measured_energy / baseline.measured_energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(time_s: f64, energy_j: f64) -> RunReport {
        RunReport {
            workload: "w".into(),
            governor: "g".into(),
            execution_time: Seconds::new(time_s),
            measured_energy: Joules::new(energy_j),
            true_energy: Joules::new(energy_j),
            transitions: 0,
            completed: true,
            trace: RunTrace::new(Seconds::from_millis(10.0)),
            metrics: MetricsSnapshot::default(),
            requests: None,
        }
    }

    #[test]
    fn relative_metrics() {
        let fast = report(10.0, 150.0);
        let slow = report(12.5, 100.0);
        assert!((slow.performance_reduction_vs(&fast) - 0.2).abs() < 1e-12);
        assert!((slow.energy_savings_vs(&fast) - (1.0 - 100.0 / 150.0)).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_has_no_power_stats() {
        let r = report(1.0, 1.0);
        assert!(r.mean_power().is_none());
        assert!(r.max_power().is_none());
        assert_eq!(r.violation_fraction(Watts::new(10.0), 10), 0.0);
    }
}
