//! Cross-width determinism: parallel execution must be invisible in the
//! output.
//!
//! The pool merges cell results in submission order, so a wide pool has to
//! render byte-for-byte the same tables, notes, and row order as
//! `--jobs 1`. These tests train one context and replay a representative
//! slice of the suite at both widths: closure-built median runs fanned
//! under an outer fan (ablation-guardband), a pooled measurement curve
//! reused by two tables (tab3/tab4), and spec-built median runs under an
//! outer fan (fig5). One more test
//! runs the whole suite at widths 1 and 2 and checks it against the
//! committed `results/*.csv`, and one runs `fault-matrix` under an
//! observer against the committed metrics aggregate and trace names.
//! Training on the pool must give the same models, bit for bit, at every
//! width.

use aapm_experiments::{
    run_by_id, run_suite, ExperimentContext, ExperimentOutput, Pool, RunObserver,
};
use aapm_telemetry::metrics::{Counter, Gauge, Histogram};
use aapm_workloads::footprint::Footprint;
use aapm_workloads::loops::MicroLoop;
use std::path::Path;
use std::sync::{Arc, OnceLock};

fn ctx() -> &'static ExperimentContext {
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| ExperimentContext::train().expect("training succeeds"))
}

fn rendered(pool: &Pool, id: &str) -> Vec<String> {
    run_by_id(ctx(), pool, id)
        .unwrap_or_else(|e| panic!("{id} failed: {e}"))
        .iter()
        .map(ToString::to_string)
        .collect()
}

/// Every number a trained context holds, as bits, labelled by what it
/// belongs to: the characterized loops, the training points, the power
/// coefficients and the eq.-3 fit.
fn training_bits(ctx: &ExperimentContext) -> Vec<(String, Vec<u64>)> {
    let mut out = Vec::new();
    for c in ctx.characterized() {
        let (s, p) = (c.measurements, &c.phase);
        let mut bits = vec![
            s.accesses,
            s.l1_hits,
            s.l2_hits,
            s.dram_accesses,
            s.prefetches_issued,
            s.prefetch_dram_fills,
            p.instructions(),
        ];
        bits.extend(
            [
                s.mean_dram_latency_ns,
                p.core_cpi(),
                p.decode_ratio(),
                p.fp_fraction(),
                p.mem_fraction(),
                p.l1_mpi(),
                p.l2_mpi(),
                p.overlap(),
                p.activity(),
                p.branch_fraction(),
                p.mispredict_rate(),
                p.prefetch_per_inst(),
            ]
            .map(f64::to_bits),
        );
        out.push((c.name(), bits));
    }
    for point in ctx.training().points() {
        let mut bits: Vec<u64> =
            point.samples.iter().flat_map(|&(dpc, watts)| [dpc, watts]).map(f64::to_bits).collect();
        bits.extend(
            [point.mean_ipc, point.mean_dcu, point.mean_dpc, point.mean_power].map(f64::to_bits),
        );
        out.push((format!("{} at {}", point.workload, point.pstate), bits));
    }
    for (pstate, c) in ctx.power_model().iter() {
        out.push((format!("power at {pstate}"), vec![c.alpha.to_bits(), c.beta.to_bits()]));
    }
    let fit = ctx.perf_fit();
    out.push((
        "eq. 3".to_owned(),
        [fit.params.dcu_threshold, fit.params.exponent, fit.mean_relative_error]
            .map(f64::to_bits)
            .to_vec(),
    ));
    out
}

/// The pool runs the 12 characterizations longest first and merges them
/// in that order; putting them back into Table-I order must make training
/// invisible in every bit of the models, at any width.
#[test]
fn training_is_bit_identical_across_widths() {
    let train = |jobs| training_bits(&ExperimentContext::train_on(&Pool::new(jobs)).unwrap());
    let serial = train(1);
    let table_i: Vec<String> = MicroLoop::ALL
        .iter()
        .flat_map(|l| Footprint::ALL.iter().map(move |f| format!("{}-{f}", l.name())))
        .collect();
    let names: Vec<&String> = serial.iter().take(12).map(|(name, _)| name).collect();
    assert_eq!(names, table_i.iter().collect::<Vec<_>>(), "characterized in Table-I order");
    for jobs in [2, 8] {
        assert!(train(jobs) == serial, "training at pool width {jobs} differs from width 1");
    }
    assert!(training_bits(ctx()) == serial, "`train()` differs from `train_on` at width 1");
}

#[test]
fn parallel_output_is_byte_identical_to_serial() {
    let serial = Pool::new(1);
    let wide = Pool::new(8);
    for id in ["ablation-guardband", "tab3", "fig5"] {
        assert_eq!(
            rendered(&serial, id),
            rendered(&wide, id),
            "`{id}` must not depend on pool width"
        );
    }
}

#[test]
fn pool_accounts_for_the_cells_it_ran() {
    let pool = Pool::new(4);
    let outputs =
        run_by_id(ctx(), &pool, "ablation-guardband").expect("ablation-guardband succeeds");
    assert_eq!(outputs.len(), 1);
    let stats = pool.stats();
    assert_eq!(stats.jobs, 4);
    // ablation-guardband fans 5 guardbands, each a nested 3-seed
    // median_run: 5 top-level cells plus 15 nested ones.
    assert_eq!(stats.cells_run, 20);
    assert_eq!(stats.top_cells, 5);
    assert!(stats.top_busy >= stats.longest_top_cell);
}

/// Acceptance: installing the metrics registry must not perturb any run,
/// and the observability artifacts themselves must be identical across
/// pool widths.
#[test]
fn observer_outputs_are_byte_identical_across_widths() {
    let temp = std::env::temp_dir().join(format!("aapm-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&temp);

    let run_observed_suite = |jobs: usize| {
        let trace_dir = temp.join(format!("traces-{jobs}"));
        let metrics_path = temp.join(format!("metrics-{jobs}.json"));
        let observer = Arc::new(RunObserver::new(Some(trace_dir.clone())));
        let pool = Pool::with_observer(jobs, Arc::clone(&observer));
        let output = rendered(&pool, "fig5");
        observer.finish(Some(&metrics_path)).expect("observer output is writable");
        assert!(observer.runs_observed() > 0, "fig5 must observe its runs");
        let mut traces: Vec<(String, String)> = std::fs::read_dir(&trace_dir)
            .expect("trace dir exists")
            .map(|e| {
                let e = e.unwrap();
                let name = e.file_name().into_string().unwrap();
                let body = std::fs::read_to_string(e.path()).unwrap();
                (name, body)
            })
            .collect();
        traces.sort();
        let metrics_json = std::fs::read_to_string(&metrics_path).unwrap();
        (output, traces, metrics_json)
    };

    let (out_serial, traces_serial, json_serial) = run_observed_suite(1);
    let (out_wide, traces_wide, json_wide) = run_observed_suite(8);

    // The run itself must be unchanged by the registry…
    assert_eq!(
        out_serial,
        rendered(&Pool::new(1), "fig5"),
        "metrics registry must not perturb the rendered output"
    );
    // …and every artifact must be width-independent.
    assert_eq!(out_serial, out_wide);
    assert_eq!(traces_serial, traces_wide, "trace files must not depend on pool width");
    assert_eq!(json_serial, json_wide, "aggregate must not depend on pool width");

    assert!(!traces_serial.is_empty());
    // A steady-state baseline can emit zero events, but at least one of
    // fig5's runs (PM stepping around the limit) must produce a stream,
    // and every present line must be well-formed.
    assert!(
        traces_serial.iter().any(|(_, body)| !body.is_empty()),
        "fig5's PM runs must carry events"
    );
    for (name, body) in &traces_serial {
        for line in body.lines() {
            assert!(
                line.starts_with("{\"t\":") && line.ends_with('}'),
                "{name}: malformed JSONL line {line}"
            );
        }
    }
    assert!(json_serial.contains("\"runtime.intervals\""));

    let _ = std::fs::remove_dir_all(&temp);
}

/// The experiments whose cells own stateful simulations must render
/// byte-identically at pool widths 1 and 2 — the tables and notes the CLI
/// prints for `--jobs 1` and `--jobs 2`:
///
/// * `serve` — open-loop arrivals, the SLO governor and the fleet spike
///   stage: every arrival stream is owned by exactly one cell, so the
///   fan-out must not perturb a single draw;
/// * `fleet` — per-arm fleets and controllers live inside each cell, so
///   pool width must not leak into the discrete-event schedule or the
///   budget-tree arithmetic;
/// * `adaptive` — the refit layer's RLS state lives inside each cell.
#[test]
fn serve_output_is_byte_identical_across_widths() {
    for id in ["serve", "fleet", "adaptive"] {
        assert_eq!(
            rendered(&Pool::new(1), id),
            rendered(&Pool::new(2), id),
            "`{id}` must not depend on pool width"
        );
    }
}

/// Pool cells one suite run executes, at any width: the shared sweep's
/// 1,665 (the power-curve cell, 26 benchmark cells and 3 seed cells for
/// each of their 21 median runs) plus 444 for the experiments: one cell
/// each for the 30 of them, and 414 for the runs they make beyond the
/// sweep. An experiment that goes back to running a sweep run itself moves
/// it.
const SUITE_CELLS: usize = 2109;

/// The committed-CSV gate: the full suite on a 1-wide and a 2-wide pool
/// renders every table as the `<id>_<name>.csv` that `all --csv results/`
/// writes, and those files must be exactly the committed `results/*.csv`
/// — the same names (no CSV dropped, none left uncommitted) and the same
/// bytes. Both widths run exactly [`SUITE_CELLS`] cells.
#[test]
fn suite_reproduces_every_committed_csv() {
    for jobs in [1, 2] {
        let pool = Pool::new(jobs);
        let outputs = run_suite(ctx(), &pool).expect("the suite runs");
        assert_eq!(pool.stats().cells_run, SUITE_CELLS, "cells run at width {jobs}");
        check_committed_csvs(&outputs, jobs);
    }
}

fn check_committed_csvs(outputs: &[ExperimentOutput], jobs: usize) {
    let mut produced: Vec<(String, String)> = outputs
        .iter()
        .flat_map(|output| {
            output
                .tables
                .iter()
                .map(|(name, table)| (format!("{}_{name}.csv", output.id), table.to_csv()))
        })
        .collect();
    produced.sort();

    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut committed: Vec<(String, String)> = std::fs::read_dir(&results)
        .expect("results/ is readable")
        .map(|entry| entry.expect("results/ entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "csv"))
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let body = std::fs::read_to_string(&path).expect("committed CSV is readable");
            (name, body)
        })
        .collect();
    committed.sort();

    let names = |files: &[(String, String)]| -> Vec<String> {
        files.iter().map(|(name, _)| name.clone()).collect()
    };
    assert_eq!(
        names(&produced),
        names(&committed),
        "produced vs committed CSV names at width {jobs}"
    );
    for ((name, body), (_, committed_body)) in produced.iter().zip(&committed) {
        assert!(
            body == committed_body,
            "{name} differs from results/{name} at width {jobs}; \
             `all --csv results/` and `git diff` show how"
        );
    }
}

/// The sorted trace file names `fault-matrix` writes, recorded before the
/// metrics registry moved to typed slots. Each name ends in the 16-hex
/// FNV-1a of its file's body, so the list pins every trace byte.
const FAULT_MATRIX_TRACES: [&str; 36] = [
    "ammp-pm-r0.00-s11-3d4defcfe5bf5412.jsonl",
    "ammp-pm-r0.00-s23-b52ef9880453aa54.jsonl",
    "ammp-pm-r0.00-s47-2868af8be8f5b7fc.jsonl",
    "ammp-pm-r0.02-s11-cc88599a28df87b9.jsonl",
    "ammp-pm-r0.02-s23-3ec626ab4f7d5018.jsonl",
    "ammp-pm-r0.02-s47-fbf844e063573d33.jsonl",
    "ammp-pm-r0.05-s11-ddb516819296d21a.jsonl",
    "ammp-pm-r0.05-s23-ca56aa1a14ecc44d.jsonl",
    "ammp-pm-r0.05-s47-d40ece144df718c4.jsonl",
    "ammp-pm-r0.10-s11-a9bf39626a32efa5.jsonl",
    "ammp-pm-r0.10-s23-3cf3868c965522e6.jsonl",
    "ammp-pm-r0.10-s47-eb73acaf2966455b.jsonl",
    "ammp-ps-r0.00-s11-dc22e859974827af.jsonl",
    "ammp-ps-r0.00-s23-959614ae7107374e.jsonl",
    "ammp-ps-r0.00-s47-0281ae656af46e6e.jsonl",
    "ammp-ps-r0.02-s11-06e9621f33ae3577.jsonl",
    "ammp-ps-r0.02-s23-d4fb784c636ea34d.jsonl",
    "ammp-ps-r0.02-s47-798442f7de17ebf9.jsonl",
    "ammp-ps-r0.05-s11-3a926d4a442d9e89.jsonl",
    "ammp-ps-r0.05-s23-d671a1eb9dab5c69.jsonl",
    "ammp-ps-r0.05-s47-59bd078fc2499253.jsonl",
    "ammp-ps-r0.10-s11-06ac105ebc99270f.jsonl",
    "ammp-ps-r0.10-s23-06c018c6512b464c.jsonl",
    "ammp-ps-r0.10-s47-b3db835347dfbfce.jsonl",
    "ammp-watchdog_pm_-r0.00-s11-43271497f4bdef8d.jsonl",
    "ammp-watchdog_pm_-r0.00-s23-0d7dc7b0a9a69c93.jsonl",
    "ammp-watchdog_pm_-r0.00-s47-475d31937aa0e8b7.jsonl",
    "ammp-watchdog_pm_-r0.02-s11-493ada75b32a7752.jsonl",
    "ammp-watchdog_pm_-r0.02-s23-ff5eb468e28edb85.jsonl",
    "ammp-watchdog_pm_-r0.02-s47-9c5633994fa5f35c.jsonl",
    "ammp-watchdog_pm_-r0.05-s11-fbe9de141a290c7b.jsonl",
    "ammp-watchdog_pm_-r0.05-s23-63b21fc5477066d8.jsonl",
    "ammp-watchdog_pm_-r0.05-s47-517e131a7f7dc871.jsonl",
    "ammp-watchdog_pm_-r0.10-s11-b47bb6d86d11613e.jsonl",
    "ammp-watchdog_pm_-r0.10-s23-0edfcc16378d0fab.jsonl",
    "ammp-watchdog_pm_-r0.10-s47-a063d7bf0e13236c.jsonl",
];

/// The committed metrics aggregate is a Tier-1 gate: `fault-matrix` on a
/// 2-wide observer pool must rewrite `results/METRICS_fault_matrix.json`
/// byte for byte and write exactly [`FAULT_MATRIX_TRACES`].
#[test]
fn fault_matrix_reproduces_the_committed_metrics_and_traces() {
    let temp = std::env::temp_dir().join(format!("aapm-fault-matrix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&temp);
    let trace_dir = temp.join("traces");
    let metrics_path = temp.join("METRICS_fault_matrix.json");
    let observer = Arc::new(RunObserver::new(Some(trace_dir.clone())));
    let pool = Pool::with_observer(2, Arc::clone(&observer));
    run_by_id(ctx(), &pool, "fault-matrix").expect("fault-matrix runs");
    observer.finish(Some(&metrics_path)).expect("observer output is writable");

    let produced = std::fs::read_to_string(&metrics_path).unwrap();
    assert!(
        produced == committed_metrics(),
        "the fault-matrix aggregate differs from results/METRICS_fault_matrix.json; \
         `fault-matrix --metrics-out` and `git diff` show how"
    );
    let mut names: Vec<String> = std::fs::read_dir(&trace_dir)
        .expect("trace dir exists")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names, FAULT_MATRIX_TRACES, "fault-matrix trace names or bodies moved");
    let _ = std::fs::remove_dir_all(&temp);
}

/// Every key of the committed aggregate names a variant of its kind, so
/// the vocabulary still covers each metric the gate above pins.
#[test]
fn committed_metrics_keys_are_in_the_vocabulary() {
    let json = aapm::json::parse(&committed_metrics()).expect("the aggregate is JSON");
    let kinds: [(&str, Vec<&str>); 3] = [
        ("counters", Counter::ALL.iter().map(|c| c.name()).collect()),
        ("gauges", Gauge::ALL.iter().map(|g| g.name()).collect()),
        ("histograms", Histogram::ALL.iter().map(|h| h.name()).collect()),
    ];
    for (kind, names) in kinds {
        let fields = json.get(kind).and_then(|v| v.as_object()).expect("a kind object");
        assert!(!fields.is_empty(), "the aggregate records some {kind}");
        for (key, _) in fields {
            assert!(names.contains(&key.as_str()), "{kind} key {key} names no variant");
        }
    }
}

fn committed_metrics() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/METRICS_fault_matrix.json");
    std::fs::read_to_string(path).expect("results/METRICS_fault_matrix.json is readable")
}

#[test]
fn unknown_ids_error_at_any_width() {
    for pool in [Pool::new(1), Pool::new(8)] {
        let err = run_by_id(ctx(), &pool, "fig99").unwrap_err();
        assert!(err.to_string().contains("unknown experiment id"), "{err}");
    }
}
