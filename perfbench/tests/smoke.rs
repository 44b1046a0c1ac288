//! A tiny round of every workload, untraced and traced, passes its checks
//! and prints exactly the metric names `BENCHMARK.json` lists.

use std::path::{Path, PathBuf};

use aapm_perfbench::{run, Options, Size, Workload};

/// The `"name"` values of one metric array of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let spec =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
    let start = spec
        .find(&format!("\"{section}\": ["))
        .expect("section present");
    let body = &spec[start..start + spec[start..].find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_owned())
        .collect()
}

fn smoke(workload: Workload, trace: bool) {
    let opts = Options {
        workload,
        seed: 3,
        seconds: 0.0,
        trace,
        trace_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-trace"),
        size: Size::Tiny,
    };
    let report = run(&opts).unwrap();
    let rendered = report.render();
    assert!(report.correct(), "{rendered}");
    assert!(report.attempted > 0);
    let names: Vec<String> = report.metrics.iter().map(|m| m.name.clone()).collect();
    let section = if trace { "per_layer" } else { "end_to_end" };
    assert_eq!(
        names,
        declared(section),
        "{} trace={trace}",
        workload.name()
    );
    let last = rendered.lines().last().unwrap();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    for name in &names {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing from {last}"
        );
    }
    if trace {
        let stem = format!("{}-3", workload.name());
        assert!(opts.trace_dir.join(format!("{stem}.spans.jsonl")).exists());
        assert!(opts.trace_dir.join(format!("{stem}.layers.json")).exists());
    }
}

#[test]
fn paper_suite_smoke() {
    smoke(Workload::PaperSuite, false);
    smoke(Workload::PaperSuite, true);
}

#[test]
fn serve_day_smoke() {
    smoke(Workload::ServeDay, false);
    smoke(Workload::ServeDay, true);
}

#[test]
fn fleet_day_smoke() {
    smoke(Workload::FleetDay, false);
    smoke(Workload::FleetDay, true);
}

#[test]
fn fault_soak_smoke() {
    smoke(Workload::FaultSoak, false);
    smoke(Workload::FaultSoak, true);
}

#[test]
fn traced_and_untraced_runs_simulate_the_same_thing() {
    for workload in [Workload::ServeDay, Workload::FleetDay, Workload::FaultSoak] {
        let opts = |trace| Options {
            workload,
            seed: 9,
            seconds: 0.0,
            trace,
            trace_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("digest-trace"),
            size: Size::Tiny,
        };
        let plain = run(&opts(false)).unwrap();
        let traced = run(&opts(true)).unwrap();
        assert_eq!(plain.sim_digest, traced.sim_digest, "{}", workload.name());
        assert!(plain.correct() && traced.correct());
    }
}
