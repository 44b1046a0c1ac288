//! Experiment driver: regenerate any table or figure of the paper.
//!
//! ```text
//! aapm-experiments <id> [--csv <dir>] [--jobs <n>]
//!                       [--trace-out <dir>] [--metrics-out <path>]
//! aapm-experiments all --csv results/ --jobs 4
//! aapm-experiments --replay-corpus [--corpus-dir corpus] [--jobs <n>] [--bless]
//! aapm-experiments --fuzz [--cases <n>] [--seed <s>] [--jobs <n>] [--minimize]
//! aapm-experiments --list
//! aapm-experiments --list-governors
//! ```
//!
//! `--jobs 1` forces the serial path (the determinism reference); the
//! default fans experiment cells over every available core. An unknown id
//! fails before any model is trained. Each run ends with one stderr line
//! of wall-clock and pool statistics.
//! `--trace-out` enables the observability layer and writes one JSONL
//! event stream per simulation run; `--metrics-out` writes an aggregated
//! end-of-suite metrics snapshot. Both outputs are deterministic across
//! `--jobs` widths.
//!
//! `--replay-corpus` re-evaluates every committed adversarial fixture
//! under `corpus/` and byte-compares each fresh verdict line against the
//! recorded one; `--bless` rewrites fixtures whose verdicts drifted (the
//! "commit your shrunk failure" workflow). `--fuzz` draws scenarios from a
//! fixed seed, judges them against the property oracles, and fails on any
//! universal-property violation (panic, non-finite metric, conservation or
//! watchdog-liveness breach); cap/floor findings are reported as fixture
//! candidates. Both modes print one verdict line per item on stdout, in a
//! deterministic order independent of `--jobs`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use aapm_experiments::pool::default_jobs;
use aapm_experiments::{check_id, ids, run_by_id, ExperimentContext, Pool, RunObserver};

fn usage() {
    eprintln!(
        "usage: aapm-experiments <id>|all [--csv <dir>] [--jobs <n>] \
         [--trace-out <dir>] [--metrics-out <path>]"
    );
    eprintln!(
        "       aapm-experiments --replay-corpus [--corpus-dir <dir>] [--jobs <n>] [--bless]"
    );
    eprintln!(
        "       aapm-experiments --fuzz [--cases <n>] [--seed <s>] [--jobs <n>] [--minimize]"
    );
    eprintln!("       aapm-experiments --list");
    eprintln!("       aapm-experiments --list-governors");
}

/// Parses a `--jobs`-style positive integer, or reports why it can't.
fn parse_positive(flag: &str, value: &str) -> Result<usize, ExitCode> {
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => {
            eprintln!("{flag} wants a positive integer, got `{value}`");
            Err(ExitCode::FAILURE)
        }
    }
}

/// Replays the committed adversarial corpus and byte-compares verdicts.
fn replay_corpus_mode(args: &[String]) -> ExitCode {
    let mut dir = PathBuf::from("corpus");
    let mut jobs: Option<usize> = None;
    let mut bless = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--corpus-dir" if i + 1 < args.len() => {
                dir = PathBuf::from(&args[i + 1]);
                i += 2;
            }
            "--jobs" if i + 1 < args.len() => {
                match parse_positive("--jobs", &args[i + 1]) {
                    Ok(n) => jobs = Some(n),
                    Err(code) => return code,
                }
                i += 2;
            }
            "--bless" => {
                bless = true;
                i += 1;
            }
            other => {
                eprintln!("unknown --replay-corpus argument `{other}`");
                usage();
                return ExitCode::FAILURE;
            }
        }
    }
    let entries = match aapm_fuzz::corpus::load_dir(&dir) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("corpus error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if entries.is_empty() {
        eprintln!("no fixtures found under {}", dir.display());
        return ExitCode::FAILURE;
    }
    let pool = Pool::new(jobs.unwrap_or_else(default_jobs));
    let cells: Vec<_> = entries
        .iter()
        .map(|entry| {
            let fixture = entry.fixture.clone();
            move || Ok(fixture.replay())
        })
        .collect();
    let start = Instant::now();
    let fresh = pool.run(cells);
    let mut mismatches = 0usize;
    let mut blessed = 0usize;
    for (entry, result) in entries.iter().zip(&fresh) {
        let verdict = match result {
            Ok(verdict) => verdict,
            Err(e) => {
                eprintln!("{}: replay cell failed: {e}", entry.file);
                return ExitCode::FAILURE;
            }
        };
        println!("{}: {verdict}", entry.file);
        if verdict == &entry.fixture.verdict {
            continue;
        }
        if bless {
            let updated = aapm_fuzz::corpus::Fixture {
                verdict: verdict.clone(),
                scenario: entry.fixture.scenario.clone(),
            };
            if let Err(e) = std::fs::write(dir.join(&entry.file), updated.to_json()) {
                eprintln!("failed to bless {}: {e}", entry.file);
                return ExitCode::FAILURE;
            }
            blessed += 1;
        } else {
            eprintln!(
                "verdict drift in {}:\n  recorded: {}\n  replayed: {verdict}",
                entry.file, entry.fixture.verdict
            );
            mismatches += 1;
        }
    }
    eprintln!(
        "corpus: {} fixture(s) replayed from {} in {:.2}s ({} job(s)), {}",
        entries.len(),
        dir.display(),
        start.elapsed().as_secs_f64(),
        pool.jobs(),
        if bless {
            format!("{blessed} blessed")
        } else {
            format!("{mismatches} mismatch(es)")
        },
    );
    if mismatches > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Draws adversarial scenarios from a fixed seed and judges each against
/// the property oracles.
fn fuzz_mode(args: &[String]) -> ExitCode {
    let mut cases = 48usize;
    let mut seed = 1u64;
    let mut jobs: Option<usize> = None;
    let mut shrink_findings = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--cases" if i + 1 < args.len() => {
                match parse_positive("--cases", &args[i + 1]) {
                    Ok(n) => cases = n,
                    Err(code) => return code,
                }
                i += 2;
            }
            "--seed" if i + 1 < args.len() => {
                match args[i + 1].parse::<u64>() {
                    Ok(n) => seed = n,
                    Err(_) => {
                        eprintln!("--seed wants an unsigned integer, got `{}`", args[i + 1]);
                        return ExitCode::FAILURE;
                    }
                }
                i += 2;
            }
            "--jobs" if i + 1 < args.len() => {
                match parse_positive("--jobs", &args[i + 1]) {
                    Ok(n) => jobs = Some(n),
                    Err(code) => return code,
                }
                i += 2;
            }
            "--minimize" => {
                shrink_findings = true;
                i += 1;
            }
            other => {
                eprintln!("unknown --fuzz argument `{other}`");
                usage();
                return ExitCode::FAILURE;
            }
        }
    }
    let scenarios = aapm_fuzz::generate::draw_scenarios(seed, cases);
    let pool = Pool::new(jobs.unwrap_or_else(default_jobs));
    let cells: Vec<_> = scenarios
        .iter()
        .map(|scenario| {
            let scenario = scenario.clone();
            move || Ok(aapm_fuzz::oracle::evaluate(&scenario))
        })
        .collect();
    let start = Instant::now();
    let verdicts = pool.run(cells);
    let mut findings = 0usize;
    let mut hard_failures = 0usize;
    for (scenario, result) in scenarios.iter().zip(&verdicts) {
        let verdict = match result {
            Ok(verdict) => verdict,
            Err(e) => {
                eprintln!("{}: fuzz cell failed: {e}", scenario.name);
                return ExitCode::FAILURE;
            }
        };
        println!("{}: {}", scenario.name, verdict.render());
        let universal = verdict.universal_failures();
        if !universal.is_empty() {
            hard_failures += 1;
            eprintln!(
                "HARD FAILURE in {} ({}); shrinking the counterexample…",
                scenario.name,
                universal.join(", ")
            );
            let shrunk = aapm_fuzz::minimize::minimize(scenario, |s| {
                !aapm_fuzz::oracle::evaluate(s).universal_failures().is_empty()
            });
            eprintln!(
                "shrunk counterexample ({} segment(s)) — commit it under corpus/:\n{}",
                shrunk.program.segments.len(),
                aapm_fuzz::corpus::Fixture::record(shrunk).to_json()
            );
            continue;
        }
        let failed = verdict.failures();
        if let Some(first) = failed.first() {
            findings += 1;
            eprintln!("finding in {}: {} oracle failed", scenario.name, failed.join(", "));
            if shrink_findings {
                let property: &'static str = first;
                let shrunk = aapm_fuzz::minimize::minimize(scenario, |s| {
                    aapm_fuzz::oracle::evaluate(s).failures().contains(&property)
                });
                eprintln!(
                    "fixture candidate ({} segment(s)):\n{}",
                    shrunk.program.segments.len(),
                    aapm_fuzz::corpus::Fixture::record(shrunk).to_json()
                );
            }
        }
    }
    eprintln!(
        "fuzz: {cases} scenario(s) from seed {seed} in {:.2}s ({} job(s)): \
         {findings} finding(s), {hard_failures} hard failure(s)",
        start.elapsed().as_secs_f64(),
        pool.jobs(),
    );
    if hard_failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }
    if args[0] == "--list" {
        for id in ids() {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }
    if args[0] == "--list-governors" {
        let width =
            aapm::spec::REGISTRY.iter().map(|e| e.kind.len()).max().unwrap_or(0);
        for entry in aapm::spec::REGISTRY {
            let params =
                if entry.params.is_empty() { String::new() } else { format!(" {{{}}}", entry.params) };
            println!("{:width$}{params}  — {}", entry.kind, entry.description);
        }
        return ExitCode::SUCCESS;
    }
    if args[0] == "--replay-corpus" {
        return replay_corpus_mode(&args[1..]);
    }
    if args[0] == "--fuzz" {
        return fuzz_mode(&args[1..]);
    }
    let id = args[0].clone();
    let mut csv_dir: Option<PathBuf> = None;
    let mut jobs: Option<usize> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--csv" if i + 1 < args.len() => {
                csv_dir = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--trace-out" if i + 1 < args.len() => {
                trace_out = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--metrics-out" if i + 1 < args.len() => {
                metrics_out = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--jobs" if i + 1 < args.len() => {
                match parse_positive("--jobs", &args[i + 1]) {
                    Ok(n) => jobs = Some(n),
                    Err(code) => return code,
                }
                i += 2;
            }
            other => {
                eprintln!("unknown argument `{other}`");
                usage();
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = check_id(&id) {
        eprintln!("experiment failed: {e}");
        return ExitCode::FAILURE;
    }
    let observer = (trace_out.is_some() || metrics_out.is_some())
        .then(|| Arc::new(RunObserver::new(trace_out.clone())));
    let jobs_count = jobs.unwrap_or_else(default_jobs);
    let pool = match &observer {
        Some(observer) => Pool::with_observer(jobs_count, Arc::clone(observer)),
        None => Pool::new(jobs_count),
    };

    eprintln!("training models on the simulated platform…");
    // A pool of its own, so the suite's pool statistics describe the
    // suite alone.
    let train_pool = Pool::new(jobs_count);
    let train_start = Instant::now();
    let ctx = match ExperimentContext::train_on(&train_pool) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("training failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trained = ctx.perf_fit();
    eprintln!(
        "trained in {:.2}s ({:.2}s cell-busy): eq-3 threshold {:.2}, exponent {:.2}; \
         running `{id}` with {} job(s)…",
        train_start.elapsed().as_secs_f64(),
        train_pool.stats().top_busy.as_secs_f64(),
        trained.params.dcu_threshold,
        trained.params.exponent,
        pool.jobs(),
    );

    let suite_start = Instant::now();
    match run_by_id(&ctx, &pool, &id) {
        Ok(outputs) => {
            let suite_wall = suite_start.elapsed();
            for output in &outputs {
                println!("{output}");
                if let Some(dir) = &csv_dir {
                    if let Err(e) = output.write_csvs(dir) {
                        eprintln!("failed to write CSVs for {}: {e}", output.id);
                        return ExitCode::FAILURE;
                    }
                }
            }
            if let Some(dir) = &csv_dir {
                eprintln!("CSVs written under {}", dir.display());
            }
            let stats = pool.stats();
            eprintln!(
                "`{id}`: {} experiment(s) in {:.2}s wall / {:.2}s cell-busy \
                 ({} cells, {} jobs, est. {:.2}x vs serial)",
                outputs.len(),
                suite_wall.as_secs_f64(),
                stats.top_busy.as_secs_f64(),
                stats.cells_run,
                stats.jobs,
                if suite_wall.as_secs_f64() > 0.0 {
                    stats.top_busy.as_secs_f64() / suite_wall.as_secs_f64()
                } else {
                    1.0
                },
            );
            if let Some(observer) = &observer {
                if let Err(e) = observer.finish(metrics_out.as_deref()) {
                    eprintln!("failed to write observability output: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!(
                    "observability: {} run(s) observed{}{}",
                    observer.runs_observed(),
                    trace_out
                        .as_ref()
                        .map(|d| format!(", traces under {}", d.display()))
                        .unwrap_or_default(),
                    metrics_out
                        .as_ref()
                        .map(|p| format!(", metrics snapshot at {}", p.display()))
                        .unwrap_or_default(),
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("experiment failed: {e}");
            ExitCode::FAILURE
        }
    }
}
