//! The per-layer table: which spans each metric comes from, the probe
//! phase every traced run ends with, and the fixtures that measure a layer
//! a workload does not exercise itself.
//!
//! A traced run derives every metric it can from its own spans (its units
//! and the pipeline probe on its own inputs; the note column says `own`).
//! For the rest it runs small committed fixtures in a separate tracer (the
//! note says `fixture`): the five former criterion benches (model
//! evaluation, governor decisions for every registry kind, cache
//! simulation, machine ticks, training), plus a serve stream, a small
//! fleet and a scenario draw.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use aapm::slo_save::SloSave;
use aapm::spec::{GovernorSpec, SpecModels};
use aapm_experiments::serve::{BASE_RPS, PEAK_RPS};
use aapm_models::perf_model::{PerfModel, PerfModelParams};
use aapm_models::power_model::PowerModel;
use aapm_models::training::{
    collect_training_data_from, train_perf_model, train_power_model, TrainingConfig,
};
use aapm_platform::config::MachineConfig;
use aapm_platform::error::Result;
use aapm_platform::hierarchy::{MemoryHierarchy, PrefetchConfig};
use aapm_platform::phase::PhaseDescriptor;
use aapm_platform::program::PhaseProgram;
use aapm_platform::pstate::{PStateId, PStateTable};
use aapm_platform::units::{MegaHertz, Seconds};
use aapm_telemetry::metrics::Metrics;
use aapm_telemetry::window::MovingWindow;
use aapm_workloads::characterize::training_set;
use aapm_workloads::requests::RequestWorkload;

use crate::decorators::{decide_span, timed_stack, Source, Timed};
use crate::probe::{replay, run_case, Case, Outcome, STAGES};
use crate::stats::{derive_seed, median};
use crate::trace::{self, Tracer};
use crate::Metric;

/// Where a metric comes from when a workload's own run leaves it empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fixture {
    /// Always measured by the run itself.
    Own,
    /// The probe on the fixture batch program.
    BatchProbe,
    /// The probe on the fixture serve stream.
    ServeProbe,
    /// Every registry kind deciding on the fixture serve stream.
    Decide,
    /// A small fleet day.
    Fleet,
    /// Cache-hierarchy address streams.
    Cache,
    /// Power-model and performance-model evaluation loops.
    Models,
    /// Windowed p99 over sojourn samples.
    Window,
    /// The model-training pipeline.
    Training,
    /// A fault-scenario draw.
    Draw,
}

/// One governor spec per registry kind, as the decide fixture builds them.
pub fn kind_specs() -> Vec<GovernorSpec> {
    let pm = || Box::new(GovernorSpec::Pm { limit_w: 13.5 });
    vec![
        GovernorSpec::Unconstrained,
        GovernorSpec::StaticClock { pstate: 4 },
        GovernorSpec::Dbs {
            target_utilization: 0.8,
        },
        GovernorSpec::Pm { limit_w: 13.5 },
        GovernorSpec::Ps { floor: 0.8 },
        GovernorSpec::FeedbackPm { limit_w: 13.5 },
        GovernorSpec::CombinedPm { limit_w: 8.5 },
        GovernorSpec::PhasePm { limit_w: 13.5 },
        GovernorSpec::ThrottleSave { floor: 0.8 },
        GovernorSpec::SloSave { slo_ms: 75.0 },
        GovernorSpec::Watchdog { inner: pm() },
        GovernorSpec::ThermalGuard { inner: pm() },
        GovernorSpec::Adaptive {
            forgetting: 0.98,
            window: 50,
            counters: 1,
            inner: pm(),
        },
    ]
}

/// The per-layer metrics, in `BENCHMARK.json` order: name, unit, and the
/// fixture that fills it in.
pub fn layer_metrics() -> Vec<(String, &'static str, Fixture)> {
    use Fixture::*;
    let mut metrics: Vec<(String, &'static str, Fixture)> = [
        ("platform.tick.ns", "ns", BatchProbe),
        ("platform.tick_serve.ns", "ns", ServeProbe),
        ("platform.set_pstate.ns", "ns", BatchProbe),
        ("platform.ff_advance.us", "us", Fleet),
        ("platform.des.self_ns", "ns", Fleet),
        ("platform.cache.access.ns", "ns", Cache),
        ("platform.transitions", "1/sim-s", BatchProbe),
        ("telemetry.daq.ns", "ns", BatchProbe),
        ("telemetry.pmc.ns", "ns", BatchProbe),
        ("telemetry.thermal.ns", "ns", BatchProbe),
        ("telemetry.faults.ns", "ns", BatchProbe),
        ("telemetry.window_p99.w64.ns", "ns", Window),
        ("telemetry.window_p99.w256.ns", "ns", Window),
        ("telemetry.metrics.overhead", "ratio", Own),
        ("models.power_estimate.ns", "ns", Models),
        ("models.perf_project.ns", "ns", Models),
        ("models.collect.s", "s", Training),
        ("models.fit.s", "s", Training),
        ("workloads.characterize.s", "s", Training),
        ("workloads.arrivals.ns", "ns", ServeProbe),
        ("workloads.thinning.accept", "ratio", ServeProbe),
        ("core.build.us", "us", BatchProbe),
        ("core.step.self_ns", "ns", Own),
        ("core.step.coverage", "ratio", Own),
    ]
    .into_iter()
    .map(|(name, unit, fixture)| (name.to_owned(), unit, fixture))
    .collect();
    for spec in kind_specs() {
        metrics.push((format!("{}.ns", decide_span(spec.kind())), "ns", Decide));
    }
    for (name, unit, fixture) in [
        ("core.fleet_pm.node_ns", "ns", Fleet),
        ("core.cluster.realloc_us", "us", Fleet),
        ("fuzz.draw.us", "us", Draw),
        ("count.sessions", "count", Own),
        ("trace.overhead", "ratio", Own),
    ] {
        metrics.push((name.to_owned(), unit, fixture));
    }
    metrics
}

/// The value of metric `name` from the spans and tallies in `t`, if they
/// hold any.
fn derive(name: &str, t: &Tracer) -> Option<f64> {
    let per = |span: &str, scale: f64| t.agg(span).ns_per_item().map(|ns| ns / scale);
    let ratio = |num: &str, den: &str| {
        let den = t.tally(den);
        (den > 0.0).then(|| t.tally(num) / den)
    };
    match name {
        "platform.tick.ns" => per("platform.tick", 1.0),
        "platform.tick_serve.ns" => per("platform.tick_serve", 1.0),
        "platform.set_pstate.ns" => per("platform.set_pstate", 1.0),
        "platform.ff_advance.us" => per("platform.ff_advance", 1e3),
        "platform.des.self_ns" => {
            let des = t.agg("platform.des");
            let steps = t.tally("fleet.node_steps");
            (des.calls > 0 && steps > 0.0).then(|| des.self_ns() / steps)
        }
        "platform.cache.access.ns" => per("platform.cache.access", 1.0),
        "platform.transitions" => ratio("platform.transitions", "platform.sim_s"),
        "telemetry.daq.ns" => per("telemetry.daq", 1.0),
        "telemetry.pmc.ns" => per("telemetry.pmc", 1.0),
        "telemetry.thermal.ns" => per("telemetry.thermal", 1.0),
        "telemetry.faults.ns" => per("telemetry.faults", 1.0),
        "telemetry.window_p99.w64.ns" => per("telemetry.window_p99.w64", 1.0),
        "telemetry.window_p99.w256.ns" => per("telemetry.window_p99.w256", 1.0),
        "telemetry.metrics.overhead" => ratio("metrics.on_ns", "metrics.off_ns"),
        "models.power_estimate.ns" => per("models.power_estimate", 1.0),
        "models.perf_project.ns" => per("models.perf_project", 1.0),
        "models.collect.s" => per("models.collect", 1e9),
        "models.fit.s" => per("models.fit", 1e9),
        "workloads.characterize.s" => per("workloads.characterize", 1e9),
        "workloads.arrivals.ns" => {
            let accepted = t.tally("workloads.accepted");
            (accepted > 0.0).then(|| t.agg("workloads.arrivals").total_ns as f64 / accepted)
        }
        "workloads.thinning.accept" => ratio("workloads.accepted", "workloads.candidates"),
        "core.build.us" => per("core.build", 1e3),
        "core.step.self_ns" => t.agg("core.step").self_ns_per_item(),
        "core.step.coverage" => {
            let stage_ns: u64 = STAGES.iter().map(|s| t.agg(s).total_ns).sum();
            let intervals = t.tally("probe.intervals");
            let step_ns = per("core.step", 1.0)?;
            (intervals > 0.0).then(|| stage_ns as f64 / intervals / step_ns)
        }
        "core.fleet_pm.node_ns" => per("core.fleet_pm", 1.0),
        "core.cluster.realloc_us" => per("core.cluster.realloc", 1e3),
        "fuzz.draw.us" => per("fuzz.draw", 1e3),
        other => {
            let kind = other.strip_prefix("core.decide.")?.strip_suffix(".ns")?;
            t.agg(decide_span(kind)).self_ns_per_item()
        }
    }
}

/// Measurements of the same work repeated in separate tracers, so each
/// metric can take its steadiest value.
const REPEATS: usize = 3;

/// The value of metric `name` (in `unit`) over tracers that each measured
/// the same kind of work: a duration takes the lowest (other load only
/// ever adds time); a self time, a difference of two durations whose
/// lowest value is mostly noise, and anything else take the median.
fn steadiest(name: &str, unit: &str, tracers: &[Tracer]) -> Option<f64> {
    let values: Vec<f64> = tracers.iter().filter_map(|t| derive(name, t)).collect();
    let self_time = name.contains("self_ns") || name.starts_with("core.decide.");
    if matches!(unit, "ns" | "us" | "s") && !self_time {
        values.into_iter().reduce(f64::min)
    } else {
        median(&values)
    }
}

/// How the probe phase went.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProbeSummary {
    /// Fault-free cases whose replay was compared with the session.
    pub compared: usize,
    /// Of those, the cases the replay reproduced bit for bit.
    pub identical: usize,
}

/// Times every case untraced with metrics recording off and on, then, in
/// each of [`REPEATS`] fresh tracers, runs it twice as a traced session
/// and twice through the probe. Returns the tracers.
///
/// # Errors
///
/// Propagates session and replay errors.
pub fn probe_phase(cases: &[Case]) -> Result<(ProbeSummary, Vec<Tracer>)> {
    let mut costs = Vec::with_capacity(cases.len());
    for case in cases {
        costs.push(metrics_cost(case)?);
    }
    let mut summary = ProbeSummary::default();
    let mut tracers = Vec::with_capacity(REPEATS);
    for repeat in 0..REPEATS {
        trace::start();
        let ran = cases.iter().enumerate().try_for_each(|(index, case)| {
            trace::set_unit(index as u64);
            // Session and replay twice each, in both orders, so neither
            // side of the coverage ratio always runs first.
            let (report, _) = run_case(case, &Metrics::disabled())?;
            let replayed = [replay(case)?, replay(case)?];
            run_case(case, &Metrics::disabled())?;
            if repeat == 0 && case.sim.faults.is_inert() && case.windows.is_empty() {
                summary.compared += 1;
                summary.identical +=
                    usize::from(replayed.iter().all(|r| *r == Outcome::of(&report)));
            }
            Ok(())
        });
        if repeat == 0 {
            for (on_ns, off_ns) in &costs {
                trace::tally("metrics.on_ns", *on_ns);
                trace::tally("metrics.off_ns", *off_ns);
            }
        }
        tracers.push(trace::finish().expect("started above"));
        ran?;
    }
    Ok((summary, tracers))
}

/// Host time of `case` with metrics recording on and off, over
/// alternating repeats.
fn metrics_cost(case: &Case) -> Result<(f64, f64)> {
    let (mut on, mut off) = (0.0, 0.0);
    for enabled in [false, true, true, false] {
        let metrics = if enabled {
            Metrics::enabled()
        } else {
            Metrics::disabled()
        };
        let t = Instant::now();
        run_case(case, &metrics)?;
        let ns = t.elapsed().as_nanos() as f64;
        if enabled {
            on += ns;
        } else {
            off += ns;
        }
    }
    Ok((on, off))
}

/// The per-layer table of a traced run: every metric of
/// [`layer_metrics`], from the run's own tracers (one per traced round and
/// per probe repeat) where they measured it, else from fixtures run
/// [`REPEATS`] times (whose tracers are returned for export).
///
/// # Errors
///
/// Propagates fixture errors.
pub fn table(own: &[Tracer], sessions: f64, overhead: f64) -> Result<(Vec<Metric>, Vec<Tracer>)> {
    let metrics = layer_metrics();
    let own_value = |name: &str, unit: &str| match name {
        "count.sessions" => Some(sessions),
        "trace.overhead" => Some(overhead),
        other => steadiest(other, unit, own),
    };
    let values: Vec<Option<f64>> = metrics
        .iter()
        .map(|(name, unit, _)| own_value(name, unit))
        .collect();
    let needed: BTreeSet<Fixture> = metrics
        .iter()
        .zip(&values)
        .filter(|(_, value)| value.is_none())
        .map(|((_, _, fixture), _)| *fixture)
        .filter(|fixture| *fixture != Fixture::Own)
        .collect();
    let mut fixtures = Vec::new();
    for _ in 0..if needed.is_empty() { 0 } else { REPEATS } {
        trace::start();
        let ran = needed.iter().try_for_each(|fixture| run_fixture(*fixture));
        fixtures.push(trace::finish().expect("started above"));
        ran?;
    }
    let table = metrics
        .iter()
        .zip(values)
        .map(|((name, unit, _), value)| match value {
            Some(value) => Metric::new(name.clone(), value, unit, "own"),
            None => match steadiest(name, unit, &fixtures) {
                Some(value) => Metric::new(name.clone(), value, unit, "fixture"),
                None => Metric::new(name.clone(), f64::NAN, unit, "missing"),
            },
        })
        .collect();
    Ok((table, fixtures))
}

/// The fixture batch program: a steady mid-intensity phase followed by a
/// memory-bound one, so decisions move.
pub fn fixture_program() -> PhaseProgram {
    let steady = PhaseDescriptor::builder("fixture-steady")
        .instructions(4_000_000_000)
        .core_cpi(0.7)
        .decode_ratio(1.25)
        .fp_fraction(0.2)
        .mem_fraction(0.4)
        .l1_mpi(0.03)
        .l2_mpi(0.004)
        .overlap(0.3)
        .build()
        .expect("the fixture phase is valid");
    let memory = PhaseDescriptor::builder("fixture-memory")
        .instructions(1_500_000_000)
        .core_cpi(1.1)
        .mem_fraction(0.5)
        .l1_mpi(0.04)
        .l2_mpi(0.01)
        .overlap(0.3)
        .build()
        .expect("the fixture phase is valid");
    PhaseProgram::new("fixture", vec![steady, memory]).expect("two phases make a program")
}

/// The serve experiment's fleet-stage request family: the diurnal day
/// compressed to 20 s, with a 3× spike at 8–12 s. Fleet-day serve lanes
/// and the serve fixtures draw from it.
pub fn short_day_stream(seed: u64) -> Result<RequestWorkload> {
    RequestWorkload::builder("short-day")
        .seed(seed)
        .day(Seconds::new(20.0))
        .rates(BASE_RPS, PEAK_RPS)
        .burst(Seconds::new(8.0), Seconds::new(12.0), 3.0)
        .build()
}

/// The short day's thinning envelope (peak rate × spike).
pub const SHORT_DAY_ENVELOPE_RPS: f64 = PEAK_RPS * 3.0;

fn serve_case(governor: crate::probe::GovernorFactory, max_samples: usize) -> Result<Case> {
    Ok(Case::new(
        MachineConfig::pentium_m_755(7),
        Source::Serve(Box::new(short_day_stream(7)?)),
        governor,
        7,
        max_samples,
        SHORT_DAY_ENVELOPE_RPS,
    ))
}

fn run_fixture(fixture: Fixture) -> Result<()> {
    match fixture {
        Fixture::Own => Ok(()),
        Fixture::BatchProbe => {
            let models = SpecModels::default();
            let spec = GovernorSpec::Pm { limit_w: 13.5 };
            let case = Case::new(
                MachineConfig::pentium_m_755(7),
                Source::Batch(fixture_program()),
                Rc::new(move || timed_stack(&spec, &models)),
                7,
                2_000,
                0.0,
            );
            run_case(&case, &Metrics::disabled())?;
            replay(&case).map(drop)
        }
        Fixture::ServeProbe => {
            let case = serve_case(
                Rc::new(|| {
                    let slo = SloSave::new(Seconds::from_millis(75.0))?;
                    Ok(Box::new(Timed::new(decide_span("slo-save"), Box::new(slo))) as _)
                }),
                2_000,
            )?;
            run_case(&case, &Metrics::disabled())?;
            replay(&case).map(drop)
        }
        Fixture::Decide => {
            for spec in kind_specs() {
                let models = SpecModels::default();
                let case = serve_case(Rc::new(move || timed_stack(&spec, &models)), 2_000)?;
                run_case(&case, &Metrics::disabled())?;
            }
            Ok(())
        }
        Fixture::Fleet => crate::workloads::fleet_fixture(),
        Fixture::Cache => {
            const LEN: u64 = 64 * 1024;
            let sequential: Vec<u64> = (0..LEN).map(|i| i * 64).collect();
            let scattered: Vec<u64> = (0..LEN).map(|i| (i * 7_368_787) % (64 << 20)).collect();
            let mut memory =
                MemoryHierarchy::pentium_m_755()?.with_prefetcher(PrefetchConfig::pentium_m());
            for stream in [&sequential, &scattered, &sequential, &scattered] {
                let _span = trace::span_items("platform.cache.access", LEN);
                for &addr in stream {
                    black_box(memory.access(black_box(addr)));
                }
            }
            Ok(())
        }
        Fixture::Models => {
            const CALLS: u64 = 200_000;
            let power = PowerModel::paper_table_ii();
            let perf = PerfModel::new(PerfModelParams::paper());
            {
                let _span = trace::span_items("models.power_estimate", CALLS);
                for i in 0..CALLS {
                    black_box(power.estimate(PStateId::new((i % 8) as usize), black_box(1.37))?);
                }
            }
            let _span = trace::span_items("models.perf_project", CALLS);
            for i in 0..CALLS {
                black_box(perf.relative_performance(
                    black_box(0.45),
                    black_box(0.9),
                    MegaHertz::new(2000),
                    MegaHertz::new(600 + 200 * (i % 8) as u32),
                ));
            }
            Ok(())
        }
        Fixture::Window => {
            const CALLS: u64 = 5_000;
            for (capacity, span) in [
                (64, "telemetry.window_p99.w64"),
                (256, "telemetry.window_p99.w256"),
            ] {
                let mut window = MovingWindow::new(capacity);
                let mut x = 1u64;
                let mut sojourn = || {
                    x = derive_seed(x, 1);
                    0.005 + (x >> 11) as f64 / (1u64 << 53) as f64 * 0.08
                };
                for _ in 0..capacity {
                    window.push(sojourn());
                }
                let _span = trace::span_items(span, CALLS);
                for _ in 0..CALLS {
                    window.push(sojourn());
                    black_box(window.percentile(99.0));
                }
            }
            Ok(())
        }
        Fixture::Training => training_components(&PStateTable::pentium_m_755()),
        Fixture::Draw => {
            const SCENARIOS: usize = 256;
            let _span = trace::span_items("fuzz.draw", SCENARIOS as u64);
            black_box(aapm_fuzz::generate::draw_scenarios(7, SCENARIOS));
            Ok(())
        }
    }
}

/// The steps of `ExperimentContext::train`, each under its own span.
///
/// # Errors
///
/// Propagates training errors.
pub fn training_components(table: &PStateTable) -> Result<()> {
    let characterized = {
        let _span = trace::span("workloads.characterize");
        training_set()?
    };
    let data = {
        let _span = trace::span("models.collect");
        collect_training_data_from(&TrainingConfig::default(), table, &characterized)?
    };
    let _span = trace::span("models.fit");
    black_box(train_power_model(&data)?);
    black_box(train_perf_model(&data));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_specs_cover_the_registry_once_each() {
        let kinds: Vec<&str> = kind_specs().iter().map(GovernorSpec::kind).collect();
        let registry: Vec<&str> = aapm::spec::REGISTRY.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, registry);
    }

    #[test]
    fn every_layer_metric_has_a_derivation_or_an_own_source() {
        let empty = Tracer::new();
        for (name, _, fixture) in layer_metrics() {
            assert!(
                derive(&name, &empty).is_none(),
                "{name} derives from nothing"
            );
            let derivable = fixture != Fixture::Own
                || matches!(
                    name.as_str(),
                    "telemetry.metrics.overhead"
                        | "core.step.self_ns"
                        | "core.step.coverage"
                        | "count.sessions"
                        | "trace.overhead"
                );
            assert!(derivable, "{name}");
        }
    }
}
