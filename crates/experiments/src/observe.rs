//! Cross-run observability sink: collects per-run event streams and
//! metrics snapshots from every simulation cell and writes them out as
//! JSONL traces (`--trace-out`) and an aggregated end-of-suite snapshot
//! (`--metrics-out`).
//!
//! Determinism contract: cells report in whatever order the pool finishes
//! them, so the observer only *buffers* during the run. All output is
//! produced by [`RunObserver::finish`]. A trace file is named after its
//! run's label and a hash of its body, so its name depends on that run
//! alone; the aggregate merges runs sorted by label (ties broken by
//! content). Neither depends on `--jobs` or scheduling.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use aapm_platform::error::{PlatformError, Result};
use aapm_telemetry::metrics::{Metrics, MetricsSnapshot, Summary};

/// Everything one simulation cell reported.
#[derive(Debug)]
struct RunRecord {
    /// Caller-supplied label (`{workload}-{governor}-s{seed}`…).
    label: String,
    /// The run's event stream, already rendered as JSONL.
    jsonl: String,
    /// The run's end-of-run metrics snapshot.
    snapshot: MetricsSnapshot,
}

/// A thread-safe sink for per-run observability data, shared by all cells
/// of a suite via [`crate::pool::Pool::with_observer`].
#[derive(Debug, Default)]
pub struct RunObserver {
    trace_dir: Option<PathBuf>,
    runs: Mutex<Vec<RunRecord>>,
}

impl RunObserver {
    /// Creates an observer. When `trace_dir` is set, [`finish`] writes one
    /// JSONL event-stream file per observed run into it.
    ///
    /// [`finish`]: RunObserver::finish
    pub fn new(trace_dir: Option<PathBuf>) -> Self {
        RunObserver { trace_dir, runs: Mutex::new(Vec::new()) }
    }

    /// Buffers one finished run's event stream and snapshot under `label`.
    /// Labels need not be unique. When the run's governor was built from a
    /// [`GovernorSpec`](aapm::spec::GovernorSpec), `run_spec` holds the
    /// JSON members that describe it (`"spec":{…},"perf":{…}`, see
    /// [`median_run_spec`](crate::runner::median_run_spec)), recorded as a
    /// `run_spec` header line ahead of the event stream, so a trace file is
    /// self-describing: the exact governor configuration travels with the
    /// events it produced.
    pub fn observe_run_with_spec(&self, label: &str, metrics: &Metrics, run_spec: Option<&str>) {
        let mut jsonl = String::new();
        if let Some(members) = run_spec {
            // Same line shape as every event record: a "t" key first, an
            // "event" tag second (downstream line-oriented consumers key
            // on both).
            jsonl.push_str(&format!("{{\"t\":0.000000,\"event\":\"run_spec\",{members}}}\n"));
        }
        jsonl.push_str(&metrics.events_jsonl());
        let record =
            RunRecord { label: label.to_owned(), jsonl, snapshot: metrics.snapshot() };
        self.runs.lock().expect("observer mutex is never poisoned").push(record);
    }

    /// Number of runs observed so far.
    pub fn runs_observed(&self) -> usize {
        self.runs.lock().expect("observer mutex is never poisoned").len()
    }

    /// Writes all buffered output: each run's stream as
    /// `<label>-<FNV-1a of the stream, 16 hex digits>.jsonl` into the trace
    /// directory (when configured), so byte-identical runs under one label
    /// share a file, and, when `metrics_out` is given, a single aggregated
    /// JSON snapshot across every observed run.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidConfig`] when the trace directory or
    /// snapshot file cannot be created or written.
    pub fn finish(&self, metrics_out: Option<&Path>) -> Result<()> {
        let mut runs = self.runs.lock().expect("observer mutex is never poisoned");
        // Deterministic order regardless of pool scheduling: by label,
        // ties (identical cells re-run by different experiments) by
        // content, so the aggregate's floating-point sums are stable.
        runs.sort_by(|a, b| (&a.label, &a.jsonl).cmp(&(&b.label, &b.jsonl)));

        if let Some(dir) = &self.trace_dir {
            fs::create_dir_all(dir).map_err(|e| io_config_error("trace-out", dir, &e))?;
            for record in runs.iter() {
                // A byte-identical re-run rewrites its first run's file.
                let hash = fnv1a(record.jsonl.as_bytes());
                let path = dir.join(format!("{}-{hash:016x}.jsonl", sanitize_label(&record.label)));
                fs::write(&path, &record.jsonl)
                    .map_err(|e| io_config_error("trace-out", &path, &e))?;
            }
        }

        if let Some(path) = metrics_out {
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                fs::create_dir_all(parent).map_err(|e| io_config_error("metrics-out", parent, &e))?;
            }
            let json = aggregate_json(&runs);
            fs::write(path, json).map_err(|e| io_config_error("metrics-out", path, &e))?;
        }
        Ok(())
    }
}

fn io_config_error(parameter: &'static str, path: &Path, error: &std::io::Error) -> PlatformError {
    PlatformError::InvalidConfig {
        parameter,
        reason: format!("cannot write {}: {error}", path.display()),
    }
}

/// 64-bit FNV-1a: the content half of a trace file's name.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Maps a run label to a safe file stem (`watchdog<pm>` → `watchdog_pm_`).
fn sanitize_label(label: &str) -> String {
    let mapped: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') { c } else { '_' })
        .collect();
    if mapped.is_empty() { "run".to_owned() } else { mapped }
}

/// Renders an f64 as a JSON value (non-finite values become `null`).
fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

fn json_summary(summary: &Summary) -> String {
    format!(
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{}}}",
        summary.count,
        json_f64(summary.sum),
        json_f64(summary.min),
        json_f64(summary.max),
        json_f64(summary.mean())
    )
}

/// Merges every run's snapshot into one JSON document: counters are
/// summed, histograms merged, and per-run gauge finals folded into a
/// summary (a gauge is one value per run, so the cross-run shape is a
/// distribution).
fn aggregate_json(runs: &[RunRecord]) -> String {
    let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut gauges: BTreeMap<&'static str, Summary> = BTreeMap::new();
    let mut histograms: BTreeMap<&'static str, Summary> = BTreeMap::new();
    let mut events = 0usize;
    for record in runs {
        events += record.snapshot.events;
        for &(name, value) in &record.snapshot.counters {
            *counters.entry(name).or_insert(0) += value;
        }
        for &(name, value) in &record.snapshot.gauges {
            gauges.entry(name).or_default().observe(value);
        }
        for &(name, ref summary) in &record.snapshot.histograms {
            histograms.entry(name).or_default().merge(summary);
        }
    }

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"runs\": {},\n", runs.len()));
    out.push_str(&format!("  \"events\": {events},\n"));
    out.push_str("  \"counters\": {");
    let counter_body: Vec<String> =
        counters.iter().map(|(name, value)| format!("\"{name}\": {value}")).collect();
    out.push_str(&counter_body.join(", "));
    out.push_str("},\n");
    out.push_str("  \"gauges\": {");
    let gauge_body: Vec<String> =
        gauges.iter().map(|(name, s)| format!("\"{name}\": {}", json_summary(s))).collect();
    out.push_str(&gauge_body.join(", "));
    out.push_str("},\n");
    out.push_str("  \"histograms\": {");
    let histogram_body: Vec<String> =
        histograms.iter().map(|(name, s)| format!("\"{name}\": {}", json_summary(s))).collect();
    out.push_str(&histogram_body.join(", "));
    out.push_str("}\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aapm_platform::units::Seconds;
    use aapm_telemetry::metrics::EventKind;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("aapm-observe-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn instrumented(counter: &'static str, value: f64) -> Metrics {
        let metrics = Metrics::enabled();
        metrics.inc(counter);
        metrics.observe("h.margin", value);
        metrics.gauge("g.final", value);
        metrics.event(Seconds::new(0.01), EventKind::HoldEntered { governor: "pm" });
        metrics
    }

    #[test]
    fn traces_and_snapshot_are_written_deterministically() {
        let dir = temp_dir("det");
        let out = dir.join("METRICS.json");
        // Same labels reported in two different arrival orders.
        let contents = |order: &[usize]| {
            let observer = RunObserver::new(Some(dir.clone()));
            let runs = [
                ("ammp-pm-s11", 1.0),
                ("ammp-pm-s11", 1.0), // duplicate label, identical content
                ("art-ps-s23", 2.0),
            ];
            for &i in order {
                let (label, v) = runs[i];
                observer.observe_run_with_spec(label, &instrumented("c.hit", v), None);
            }
            assert_eq!(observer.runs_observed(), 3);
            observer.finish(Some(&out)).unwrap();
            let mut files: Vec<String> = fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .filter(|n| n.ends_with(".jsonl"))
                .collect();
            files.sort();
            (files, fs::read_to_string(&out).unwrap())
        };
        let (files_a, json_a) = contents(&[0, 1, 2]);
        let (files_b, json_b) = contents(&[2, 1, 0]);
        assert_eq!(files_a, files_b);
        assert_eq!(json_a, json_b, "aggregate must not depend on arrival order");
        assert_eq!(
            files_a,
            vec![
                "ammp-pm-s11-0818d1e692a3cd4c.jsonl".to_owned(),
                "art-ps-s23-0818d1e692a3cd4c.jsonl".to_owned()
            ],
            "a byte-identical re-run shares its first run's file"
        );
        assert!(json_a.contains("\"runs\": 3"), "the aggregate counts every run");
        assert!(json_a.contains("\"c.hit\": 3"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_header_precedes_the_event_stream() {
        let dir = temp_dir("spec");
        let observer = RunObserver::new(Some(dir.clone()));
        observer.observe_run_with_spec(
            "ammp-pm-s11",
            &instrumented("c.hit", 1.0),
            Some(r#""spec":{"kind":"pm","limit_w":12.5},"perf":{"dcu_threshold":1.21,"exponent":0.81}"#),
        );
        observer.finish(None).unwrap();
        let trace = fs::read_to_string(dir.join("ammp-pm-s11-eeba579c76be978f.jsonl")).unwrap();
        let mut lines = trace.lines();
        let header = lines.next().unwrap();
        assert_eq!(
            header,
            r#"{"t":0.000000,"event":"run_spec","spec":{"kind":"pm","limit_w":12.5},"perf":{"dcu_threshold":1.21,"exponent":0.81}}"#
        );
        // Every line, header included, keeps the event-record line shape.
        for line in trace.lines() {
            assert!(line.starts_with("{\"t\":") && line.ends_with('}'), "{line}");
        }
        assert!(lines.next().unwrap().contains("hold_entered"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn labels_are_sanitized_for_the_filesystem() {
        assert_eq!(sanitize_label("ammp-watchdog<pm>-s11"), "ammp-watchdog_pm_-s11");
        assert_eq!(sanitize_label("a/b\\c d"), "a_b_c_d");
        assert_eq!(sanitize_label(""), "run");
    }

    #[test]
    fn aggregate_handles_non_finite_gauges() {
        let observer = RunObserver::new(None);
        let metrics = Metrics::enabled();
        metrics.gauge("g.bad", f64::NAN);
        observer.observe_run_with_spec("x", &metrics, None);
        let runs = observer.runs.lock().unwrap();
        let json = aggregate_json(&runs);
        assert!(json.contains("null"), "{json}");
        assert!(!json.contains("NaN"), "{json}");
    }
}
