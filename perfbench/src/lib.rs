//! # aapm-perfbench — the repository's benchmark
//!
//! One binary measures what a user of the reproduction waits for, on four
//! workloads, and where that time goes, layer by layer:
//!
//! * `paper-suite` — model training, then the paper's full suite (`all`)
//!   on a one-wide and a two-wide pool, checked against the committed
//!   `results/*.csv`;
//! * `serve-day` — compressed diurnal serve days under three governor arms
//!   (open-loop traffic in simulated time);
//! * `fleet-day` — thousand-node fleet days under the hierarchical budget
//!   tree, run by the discrete-event engine;
//! * `fault-soak` — drawn adversarial scenarios under fault plans with
//!   metrics recording on.
//!
//! Every workload repeats one round, drawn from the seed, until the time
//! budget is spent: a timed shared set-up, then timed units, each starting
//! when the previous one ends (a closed host loop). Every round must
//! simulate exactly what the first did. End-to-end metrics are measured
//! with tracing off. A traced run ([`Options::trace`]) additionally records
//! spans from this crate's decorators, the pipeline probe ([`probe`]) and
//! the layer fixtures ([`layers`]), and reports the per-layer table.
//!
//! Usage and the metric glossary are in this crate's `README.md`.

pub mod decorators;
pub mod layers;
pub mod probe;
pub mod stats;
pub mod trace;
mod workloads;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use aapm_platform::error::Result;

use crate::probe::Case;
use crate::stats::{median, quantile, tail_percentile, Digest};
use crate::trace::Tracer;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Training plus the paper's full suite at pool widths 1 and 2.
    PaperSuite,
    /// Diurnal serve days under three governor arms.
    ServeDay,
    /// Thousand-node fleet days under a budget tree.
    FleetDay,
    /// Drawn fault scenarios with metrics recording on.
    FaultSoak,
}

impl Workload {
    /// Every workload, in presentation order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperSuite,
        Workload::ServeDay,
        Workload::FleetDay,
        Workload::FaultSoak,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSuite => "paper-suite",
            Workload::ServeDay => "serve-day",
            Workload::FleetDay => "fleet-day",
            Workload::FaultSoak => "fault-soak",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work one round holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's rounds.
    Full,
    /// One small round, for smoke tests.
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Host-time budget for the rounds, seconds.
    pub seconds: f64,
    /// Whether to run the traced per-layer measurement.
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub trace_dir: PathBuf,
    /// Round size.
    pub size: Size,
}

/// What one pass over a round's units measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host time of each unit counted in `unit_ms`.
    pub unit_ns: Vec<u64>,
    /// Units attempted.
    pub attempted: u64,
    /// Units whose output check failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Digest of the simulated outcomes.
    pub digest: Digest,
    /// Simulated seconds (node-seconds on a fleet).
    pub sim_s: f64,
    /// Sessions simulated (pool cells on the paper suite, node-days on a
    /// fleet).
    pub sessions: u64,
    /// Control intervals simulated (node steps on a fleet).
    pub intervals: u64,
    /// Requests completed.
    pub requests: u64,
    /// Workload-specific per-round values: name, value, unit.
    pub extras: Vec<(&'static str, f64, &'static str)>,
}

impl Pass {
    /// Records a failed unit.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(message);
        }
    }
}

/// A workload's rounds: a timed set-up, timed passes over its units, and
/// the inputs its traced run replays through the probe.
trait Bench {
    /// The round's shared set-up; every round repeats it from the run's
    /// seed.
    fn setup(&mut self, seed: u64) -> Result<()>;
    /// Runs the round's units. `round` lets a workload alternate orders.
    fn pass(&mut self, round: usize, traced: bool) -> Result<Pass>;
    /// This workload's own inputs for the pipeline probe.
    fn probe_cases(&self) -> Result<Vec<Case>>;
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count or source note.
    pub note: String,
}

impl Metric {
    fn new(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        }
    }
}

/// Everything one invocation measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload run.
    pub workload: Workload,
    /// The seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Rounds completed.
    pub rounds: usize,
    /// Units attempted.
    pub attempted: u64,
    /// Units that failed a check.
    pub failed: u64,
    /// Failure messages.
    pub failures: Vec<String>,
    /// The metrics of the run's kind (end-to-end or per-layer), in the
    /// order `BENCHMARK.json` lists them.
    pub metrics: Vec<Metric>,
    /// Workload-specific numbers printed beside them.
    pub extras: Vec<Metric>,
    /// Digest of the simulated outcomes of a round (every round must
    /// repeat it).
    pub sim_digest: String,
}

impl Report {
    /// Whether every unit passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The human-readable table followed, on the last line, by the JSON
    /// result object.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "aapm-perfbench workload={} seed={} trace={} rounds={} attempted={} failed={}",
            self.workload.name(),
            self.seed,
            u8::from(self.traced),
            self.rounds,
            self.attempted,
            self.failed
        );
        for failure in &self.failures {
            let _ = writeln!(out, "FAILED: {failure}");
        }
        for (tag, metrics) in [("metric", &self.metrics), ("extra", &self.extras)] {
            for m in metrics {
                let _ = writeln!(
                    out,
                    "{tag:6} {:32} {:>16.6} {:14} {}",
                    m.name, m.value, m.unit, m.note
                );
            }
        }
        let _ = writeln!(out, "sim_digest {}", self.sim_digest);
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".into()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
        out
    }
}

/// Runs `f` with `tracer` installed on this thread (when there is one).
fn with_tracer<T>(tracer: &mut Option<Tracer>, f: impl FnOnce() -> T) -> T {
    match tracer.take() {
        Some(t) => {
            trace::install(t);
            let out = f();
            *tracer = trace::finish();
            out
        }
        None => f(),
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Peak resident set size of this process, MB (the kernel's `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The passes of one kind (untraced or traced) across rounds. Every round
/// repeats the same inputs, so the per-round counts are the same each time.
#[derive(Default)]
struct Passes {
    round_s: Vec<f64>,
    unit_ns: Vec<Vec<u64>>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    sim_s: f64,
    sessions: u64,
    intervals: u64,
    requests: u64,
    extras: BTreeMap<&'static str, (Vec<f64>, &'static str)>,
}

impl Passes {
    fn add(&mut self, pass: Pass, round_s: f64) {
        self.round_s.push(round_s);
        self.unit_ns.push(pass.unit_ns);
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        for failure in pass.failures {
            if self.failures.len() < 5 {
                self.failures.push(failure);
            }
        }
        self.sim_s = pass.sim_s;
        self.sessions = pass.sessions;
        self.intervals = pass.intervals;
        self.requests = pass.requests;
        for (name, value, unit) in pass.extras {
            self.extras
                .entry(name)
                .or_insert_with(|| (Vec::new(), unit))
                .0
                .push(value);
        }
    }

    /// The round whose units took the least host time. Interference from
    /// other load only ever slows a round down, so the fastest of several
    /// identical rounds is the steadiest measure of the code's own cost.
    fn fastest(&self) -> usize {
        (0..self.round_s.len())
            .min_by(|&a, &b| self.round_s[a].total_cmp(&self.round_s[b]))
            .expect("a run completes at least one round")
    }
}

/// Runs one benchmark invocation.
///
/// # Errors
///
/// Returns set-up and platform errors that stop the workload outright
/// (failed unit checks are counted instead).
pub fn run(opts: &Options) -> Result<Report> {
    let mut bench = workloads::new(opts.workload, opts.size, opts.trace);
    // One tracer per traced round: its set-up and its traced pass.
    let mut round_tracers = Vec::new();
    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    let start = Instant::now();
    let mut setup_s = Vec::new();
    let mut plain = Passes::default();
    let mut traced = Passes::default();
    let mut first_digest = None;
    let mut rounds = 0;
    loop {
        let mut own = opts.trace.then(Tracer::new);
        let t = Instant::now();
        with_tracer(&mut own, || bench.setup(opts.seed))?;
        setup_s.push(secs(t.elapsed()));
        // Alternate which pass runs first so neither always runs cold.
        let order: &[bool] = match (opts.trace, rounds % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &is_traced in order {
            let t = Instant::now();
            let mut pass = if is_traced {
                with_tracer(&mut own, || bench.pass(rounds, true))?
            } else {
                bench.pass(rounds, false)?
            };
            let round_s = secs(t.elapsed());
            let digest = *first_digest.get_or_insert(pass.digest);
            if pass.digest != digest {
                pass.fail(format!(
                    "round {rounds} ({}): sim_digest {} differs from round 0's {}",
                    if is_traced { "traced" } else { "untraced" },
                    pass.digest.hex(),
                    digest.hex()
                ));
            }
            if is_traced {
                traced.add(pass, round_s);
            } else {
                plain.add(pass, round_s);
            }
        }
        eprintln!(
            "round {rounds}: setup {:.4} s, units {:.4} s{}",
            setup_s[rounds],
            plain.round_s[rounds],
            traced
                .round_s
                .get(rounds)
                .map_or(String::new(), |s| format!(", traced {s:.4} s"))
        );
        round_tracers.extend(own);
        rounds += 1;
        let elapsed = start.elapsed();
        let per_round = elapsed / rounds as u32;
        if opts.size == Size::Tiny || elapsed + per_round > budget {
            break;
        }
    }

    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    let mut failures = plain.failures.clone();
    failures.extend(traced.failures.iter().cloned());
    let fastest = plain.fastest();
    let mut extras = extra_metrics(&plain);

    let metrics = if opts.trace {
        let cases = bench.probe_cases()?;
        let (probe, probe_tracers) = layers::probe_phase(&cases)?;
        extras.push(Metric::new(
            "probe.identical",
            probe.identical as f64,
            "count",
            format!(
                "of {} fault-free cases replayed bit for bit",
                probe.compared
            ),
        ));
        let overhead = traced.round_s[traced.fastest()] / plain.round_s[fastest];
        extras.extend(span_extras(&round_tracers));
        let traced_rounds = round_tracers.len();
        let own: Vec<Tracer> = round_tracers.into_iter().chain(probe_tracers).collect();
        let (table, fixtures) = layers::table(&own, plain.sessions as f64, overhead)?;
        let (rounds_own, probes_own) = own.split_at(traced_rounds);
        let groups = [
            ("round", rounds_own),
            ("probe", probes_own),
            ("fixture", &fixtures[..]),
        ];
        write_trace(opts, &groups, &table, &extras);
        table
    } else {
        let unit_ms: Vec<f64> = plain.unit_ns[fastest]
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        vec![
            Metric::new(
                "setup_s",
                median(&setup_s).unwrap_or(f64::NAN),
                "s",
                format!("median of {}", setup_s.len()),
            ),
            Metric::new(
                "run_s",
                plain.round_s[fastest],
                "s",
                format!("fastest of {rounds} rounds"),
            ),
            Metric::new(
                "unit_ms.p50",
                median(&unit_ms).unwrap_or(f64::NAN),
                "ms",
                format!("n={} in the fastest round", unit_ms.len()),
            ),
            Metric::new(
                "rss_mb",
                peak_rss_mb().unwrap_or(f64::NAN),
                "MB",
                "VmHWM at exit",
            ),
        ]
    };
    Ok(Report {
        workload: opts.workload,
        seed: opts.seed,
        traced: opts.trace,
        rounds,
        attempted,
        failed,
        failures,
        metrics,
        extras,
        sim_digest: first_digest.unwrap_or_default().hex(),
    })
}

/// The workload-specific numbers of the untraced passes.
fn extra_metrics(plain: &Passes) -> Vec<Metric> {
    let mut extras = Vec::new();
    let unit_ms: Vec<f64> = plain
        .unit_ns
        .iter()
        .flatten()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    if let Some(p) = tail_percentile(unit_ms.len()) {
        let value = quantile(&unit_ms, p / 100.0).unwrap_or(f64::NAN);
        extras.push(Metric::new(
            format!("unit_ms.p{p}"),
            value,
            "ms",
            format!("n={} over all rounds", unit_ms.len()),
        ));
    }
    if plain.sim_s > 0.0 {
        extras.push(Metric::new(
            "sim_rate",
            plain.sim_s / plain.round_s[plain.fastest()],
            "sim-s/host-s",
            "fastest round",
        ));
    }
    for (name, count) in [
        ("count.intervals", plain.intervals),
        ("count.requests", plain.requests),
    ] {
        if count > 0 {
            extras.push(Metric::new(name, count as f64, "count", "per round"));
        }
    }
    for (name, (values, unit)) in &plain.extras {
        let value = median(values).unwrap_or(f64::NAN);
        extras.push(Metric::new(
            *name,
            value,
            unit,
            format!("median of {}", values.len()),
        ));
    }
    let attempted = plain.attempted.max(1) as f64;
    extras.push(Metric::new(
        "fail_frac",
        plain.failed as f64 / attempted,
        "ratio",
        "",
    ));
    extras
}

/// The workload-specific layer numbers of a traced run, each the lowest
/// any traced round measured: the paper suite's time per experiment
/// bucket and the serve meter's self time.
fn span_extras(rounds: &[Tracer]) -> Vec<Metric> {
    let lowest = |f: &dyn Fn(&Tracer) -> Option<f64>| rounds.iter().filter_map(f).reduce(f64::min);
    let mut extras = Vec::new();
    let buckets: BTreeSet<&str> = rounds
        .iter()
        .flat_map(|t| t.aggs().into_keys())
        .filter_map(|name| name.strip_prefix("suite."))
        .collect();
    for bucket in buckets {
        let span = format!("suite.{bucket}");
        if let Some(s) = lowest(&|t| t.agg(&span).ns_per_item().map(|ns| ns / 1e9)) {
            extras.push(Metric::new(
                format!("experiments.{bucket}.s"),
                s,
                "s",
                "per round",
            ));
        }
    }
    if let Some(ns) = lowest(&|t| t.agg("experiments.slo_meter").self_ns_per_item()) {
        extras.push(Metric::new(
            "experiments.slo_meter.ns",
            ns,
            "ns",
            "self time per decision",
        ));
    }
    if let Some(first) = rounds.first() {
        extras.push(Metric::new(
            "trace.span_cost_ns",
            first.span_cost_ns() as f64,
            "ns",
            "calibrated, subtracted from spans",
        ));
    }
    extras
}

/// Writes the spans and the layer table of a traced run: the span records
/// of the first tracer of each group and the aggregates of all of them. A
/// failure to write is reported but does not fail the run.
fn write_trace(opts: &Options, groups: &[(&str, &[Tracer])], table: &[Metric], extras: &[Metric]) {
    let stem = format!("{}-{}", opts.workload.name(), opts.seed);
    let mut spans = String::new();
    for (group, tracers) in groups {
        if let Some(first) = tracers.first() {
            first.write_jsonl(&format!("{group}0"), &mut spans);
        }
    }
    let mut summary = String::from("{\n  \"layers\": [\n");
    let rows: Vec<String> = table
        .iter()
        .chain(extras)
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"note\": \"{}\"}}",
                m.name,
                if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".into()
                },
                m.unit,
                m.note
            )
        })
        .collect();
    summary.push_str(&rows.join(",\n"));
    summary.push_str("\n  ],\n  \"spans\": {\n");
    let mut aggs: Vec<String> = Vec::new();
    for (group, tracers) in groups {
        for (index, tracer) in tracers.iter().enumerate() {
            for (name, agg) in tracer.aggs() {
                aggs.push(format!(
                    "    \"{group}{index}:{name}\": {{\"calls\": {}, \"items\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                    agg.calls,
                    agg.items,
                    agg.total_ns,
                    agg.self_ns()
                ));
            }
        }
    }
    summary.push_str(&aggs.join(",\n"));
    summary.push_str("\n  }\n}\n");
    let written = std::fs::create_dir_all(&opts.trace_dir).and_then(|()| {
        std::fs::write(opts.trace_dir.join(format!("{stem}.spans.jsonl")), spans)?;
        std::fs::write(opts.trace_dir.join(format!("{stem}.layers.json")), summary)
    });
    match written {
        Ok(()) => eprintln!("trace written under {}", opts.trace_dir.display()),
        Err(e) => eprintln!(
            "could not write the trace under {}: {e}",
            opts.trace_dir.display()
        ),
    }
}
