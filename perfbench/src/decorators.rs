//! Decorators over the library's public traits that time calls from
//! outside: a [`Governor`] layer, a [`WorkloadSource`], and governor stacks
//! with a timed layer between every wrapper so each registry kind gets its
//! own self time.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use aapm::adaptive::{Adaptive, AdaptiveConfig};
use aapm::governor::{BoxedGovernor, Governor, GovernorCommand, SampleContext};
use aapm::spec::{GovernorSpec, SpecModels};
use aapm::thermal_guard::ThermalGuard;
use aapm::watchdog::Watchdog;
use aapm_platform::config::MachineConfig;
use aapm_platform::error::{PlatformError, Result};
use aapm_platform::events::HardwareEvent;
use aapm_platform::machine::Machine;
use aapm_platform::program::PhaseProgram;
use aapm_platform::pstate::PStateId;
use aapm_platform::requests::Request;
use aapm_platform::throttle::ThrottleLevel;
use aapm_platform::units::Seconds;
use aapm_platform::workload::WorkloadSource;
use aapm_telemetry::metrics::Metrics;
use aapm_workloads::requests::RequestWorkload;

use crate::trace;

/// The span name `core.decide.<kind>` for a registry kind.
pub fn decide_span(kind: &str) -> &'static str {
    static NAMES: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();
    let mut names = NAMES
        .get_or_init(Mutex::default)
        .lock()
        .expect("the span-name cache is never poisoned: inserts cannot panic");
    names
        .entry(kind.to_owned())
        .or_insert_with(|| Box::leak(format!("core.decide.{kind}").into_boxed_str()))
}

/// A governor layer whose decisions are timed under one span name. The
/// throttle decision is timed under the same name as part of the same
/// decision (it adds time but no item).
pub struct Timed {
    span: &'static str,
    inner: Box<dyn Governor>,
}

impl Timed {
    /// Times `inner` under `span`.
    pub fn new(span: &'static str, inner: Box<dyn Governor>) -> Self {
        Timed { span, inner }
    }
}

impl Governor for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn events(&self) -> Vec<HardwareEvent> {
        self.inner.events()
    }

    fn decide(&mut self, ctx: &SampleContext<'_>) -> PStateId {
        let _span = trace::span(self.span);
        self.inner.decide(ctx)
    }

    fn throttle_decision(&mut self, ctx: &SampleContext<'_>) -> ThrottleLevel {
        let _span = trace::span_items(self.span, 0);
        self.inner.throttle_decision(ctx)
    }

    fn command(&mut self, command: GovernorCommand) {
        self.inner.command(command);
    }

    fn install_metrics(&mut self, metrics: Metrics) {
        self.inner.install_metrics(metrics);
    }
}

/// Builds `spec` as [`GovernorSpec::build`] does, with a [`Timed`] layer
/// around every level of the stack, so a wrapper's span minus its inner
/// span is the wrapper's own decision time.
///
/// # Errors
///
/// As [`GovernorSpec::build`].
pub fn timed_stack(spec: &GovernorSpec, models: &SpecModels) -> Result<Box<dyn Governor>> {
    let inner = |spec: &GovernorSpec| timed_stack(spec, models).map(BoxedGovernor);
    let layer: Box<dyn Governor> = match spec {
        GovernorSpec::Watchdog { inner: wrapped } => Box::new(Watchdog::new(inner(wrapped)?)),
        GovernorSpec::ThermalGuard { inner: wrapped } => {
            Box::new(ThermalGuard::new(inner(wrapped)?))
        }
        GovernorSpec::Adaptive {
            forgetting,
            window,
            counters,
            inner: wrapped,
        } => {
            let multi_counter = match counters {
                1 => false,
                2 => true,
                other => {
                    return Err(PlatformError::InvalidConfig {
                        parameter: "governor_spec",
                        reason: format!("adaptive \"counters\" must be 1 or 2, got {other}"),
                    })
                }
            };
            let config = AdaptiveConfig {
                forgetting: *forgetting,
                window: *window,
                multi_counter,
            };
            Box::new(Adaptive::with_config(
                inner(wrapped)?,
                models.power.clone(),
                config,
            )?)
        }
        leaf => leaf.build(models)?,
    };
    Ok(Box::new(Timed::new(decide_span(spec.kind()), layer)))
}

/// What a benchmark session executes: a batch program or an open-loop
/// request stream.
#[derive(Debug, Clone)]
pub enum Source {
    /// A batch program run to completion.
    Batch(PhaseProgram),
    /// An open-loop request stream run to the sample cap.
    Serve(Box<RequestWorkload>),
}

impl WorkloadSource for Source {
    fn name(&self) -> &str {
        match self {
            Source::Batch(program) => WorkloadSource::name(program),
            Source::Serve(requests) => requests.name(),
        }
    }

    fn machine(&self, config: MachineConfig) -> Machine {
        match self {
            Source::Batch(program) => WorkloadSource::machine(program, config),
            Source::Serve(requests) => requests.machine(config),
        }
    }

    fn arrivals_into(&mut self, start: Seconds, end: Seconds, out: &mut Vec<Request>) {
        if let Source::Serve(requests) = self {
            requests.arrivals_into(start, end, out);
        }
    }

    fn open_loop(&self) -> bool {
        matches!(self, Source::Serve(_))
    }
}

/// A workload source whose arrival draws are timed. It also tallies the
/// accepted arrivals against the candidates the thinning envelope would
/// draw on average over the same windows, which gives the thinning
/// acceptance ratio.
pub struct TimedSource<S> {
    inner: S,
    envelope_rps: f64,
}

impl<S> TimedSource<S> {
    /// Times `inner`, whose thinning envelope is `envelope_rps`.
    pub fn new(inner: S, envelope_rps: f64) -> Self {
        TimedSource {
            inner,
            envelope_rps,
        }
    }
}

impl<S: WorkloadSource> WorkloadSource for TimedSource<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn machine(&self, config: MachineConfig) -> Machine {
        self.inner.machine(config)
    }

    fn arrivals_into(&mut self, start: Seconds, end: Seconds, out: &mut Vec<Request>) {
        if !self.inner.open_loop() {
            return;
        }
        let before = out.len();
        {
            let _span = trace::span("workloads.arrivals");
            self.inner.arrivals_into(start, end, out);
        }
        trace::tally("workloads.accepted", (out.len() - before) as f64);
        trace::tally(
            "workloads.candidates",
            self.envelope_rps * (end - start).seconds(),
        );
    }

    fn open_loop(&self) -> bool {
        self.inner.open_loop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_span_names_are_interned() {
        assert_eq!(decide_span("pm"), "core.decide.pm");
        assert!(std::ptr::eq(decide_span("ps"), decide_span("ps")));
    }

    #[test]
    fn timed_stacks_keep_the_stack_names() {
        let models = SpecModels::default();
        let spec = GovernorSpec::Watchdog {
            inner: Box::new(GovernorSpec::Adaptive {
                forgetting: 0.95,
                window: 40,
                counters: 2,
                inner: Box::new(GovernorSpec::ThermalGuard {
                    inner: Box::new(GovernorSpec::Pm { limit_w: 12.5 }),
                }),
            }),
        };
        let timed = timed_stack(&spec, &models).unwrap();
        assert_eq!(timed.name(), spec.build(&models).unwrap().name());
        assert_eq!(timed.events(), spec.build(&models).unwrap().events());
    }
}
