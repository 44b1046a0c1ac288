//! The pipeline probe replays a real session bit for bit when no fault
//! fires, and the timing decorators never change what is simulated.

use std::rc::Rc;

use aapm::governor::Governor;
use aapm::runtime::Session;
use aapm::slo_save::SloSave;
use aapm::spec::{GovernorSpec, SpecModels};
use aapm_perfbench::decorators::{decide_span, timed_stack, Source, Timed};
use aapm_perfbench::layers::{
    fixture_program, kind_specs, short_day_stream, SHORT_DAY_ENVELOPE_RPS,
};
use aapm_perfbench::probe::{replay, run_case, Case, GovernorFactory, Outcome};
use aapm_platform::config::MachineConfig;
use aapm_platform::error::Result;
use aapm_platform::units::Seconds;
use aapm_telemetry::metrics::Metrics;

fn spec_factory(spec: GovernorSpec) -> GovernorFactory {
    Rc::new(move || timed_stack(&spec, &SpecModels::default()))
}

fn batch_case(spec: GovernorSpec) -> Case {
    Case::new(
        MachineConfig::pentium_m_755(3),
        Source::Batch(fixture_program()),
        spec_factory(spec),
        5,
        3_000,
        0.0,
    )
}

fn serve_case(governor: GovernorFactory) -> Case {
    Case::new(
        MachineConfig::pentium_m_755(3),
        Source::Serve(Box::new(short_day_stream(11).unwrap())),
        governor,
        5,
        2_000,
        SHORT_DAY_ENVELOPE_RPS,
    )
}

/// The plain library path: the session builder with the spec's own build.
fn plain_session(case: &Case, spec: &GovernorSpec) -> Outcome {
    let (report, _) = Session::builder(case.machine.clone(), case.source.clone())
        .config(case.sim)
        .governor_spec(spec, &SpecModels::default())
        .unwrap()
        .run()
        .unwrap();
    Outcome::of(&report)
}

#[test]
fn probe_replays_batch_sessions_bit_for_bit() {
    for spec in [
        GovernorSpec::Pm { limit_w: 12.5 },
        GovernorSpec::Ps { floor: 0.6 },
    ] {
        let case = batch_case(spec.clone());
        let (report, _) = run_case(&case, &Metrics::disabled()).unwrap();
        let session = Outcome::of(&report);
        assert!(session.transitions > 0, "{spec:?} must move the p-state");
        assert_eq!(replay(&case).unwrap(), session, "{spec:?}");
        assert_eq!(
            plain_session(&case, &spec),
            session,
            "{spec:?}: decorators changed the run"
        );
    }
}

fn slo_save() -> Result<Box<dyn Governor>> {
    Ok(Box::new(SloSave::new(Seconds::from_millis(50.0))?))
}

#[test]
fn probe_replays_a_serve_day_bit_for_bit() {
    let timed = serve_case(Rc::new(|| {
        Ok(Box::new(Timed::new(decide_span("slo-save"), slo_save()?)) as _)
    }));
    let (report, _) = run_case(&timed, &Metrics::disabled()).unwrap();
    let session = Outcome::of(&report);
    let (arrived, completed, pending) = session.requests.expect("serve runs count requests");
    assert!(completed > 0 && arrived == completed + pending);
    assert!(session.transitions > 0, "slo-save must move the p-state");
    assert_eq!(replay(&timed).unwrap(), session);
    let plain = serve_case(Rc::new(slo_save));
    assert_eq!(
        replay(&plain).unwrap(),
        session,
        "the decorator changed the run"
    );
}

#[test]
fn timed_stacks_simulate_exactly_what_the_registry_builds() {
    for spec in kind_specs() {
        let case = serve_case(spec_factory(spec.clone()));
        let (report, _) = run_case(&case, &Metrics::disabled()).unwrap();
        assert_eq!(
            Outcome::of(&report),
            plain_session(&case, &spec),
            "{}",
            spec.kind()
        );
    }
}
