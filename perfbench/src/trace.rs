//! In-memory spans around the calls into each layer.
//!
//! A traced run installs a [`Tracer`] on the current thread; [`span`]
//! guards then record name, start, end and parent (the enclosing open
//! span), and fold every span into a per-name aggregate whose self time
//! is its duration minus the time its child spans cover. Untraced runs
//! install nothing, and every guard is a no-op. Raw span records are kept
//! up to [`SPAN_CAP`] and written out when the run ends; the aggregates
//! always cover every span.
//!
//! The process first times empty spans to learn what a span costs, and the
//! aggregates subtract that cost: a span's duration loses the part of the
//! cost that falls inside its own timestamps, and its parent's children
//! are charged the whole cost, so neither a call nor its caller's self
//! time is inflated by the bookkeeping. The exported raw records keep the
//! uncorrected timestamps.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;
use std::time::Instant;

/// Raw span records kept for the JSONL export; later spans are counted in
/// the aggregates only.
pub const SPAN_CAP: usize = 50_000;

/// Totals over every span of one name.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Agg {
    /// Spans closed.
    pub calls: u64,
    /// Work items the spans covered (one per call unless stated).
    pub items: u64,
    /// Summed duration, net of the tracer's own cost.
    pub total_ns: u64,
    /// Summed footprint of direct child spans.
    pub child_ns: u64,
}

impl Agg {
    /// Mean duration per work item.
    pub fn ns_per_item(&self) -> Option<f64> {
        (self.items > 0).then(|| self.total_ns as f64 / self.items as f64)
    }

    /// Mean self time (duration minus children) per work item. For a
    /// layer that does almost nothing besides calling its child this is a
    /// few nanoseconds either side of zero: the correction for the tracer's
    /// cost is only that exact.
    pub fn self_ns_per_item(&self) -> Option<f64> {
        (self.items > 0).then(|| self.self_ns() / self.items as f64)
    }

    /// Summed self time (duration minus children).
    pub fn self_ns(&self) -> f64 {
        self.total_ns as f64 - self.child_ns as f64
    }
}

#[derive(Debug, Clone, Copy)]
struct Record {
    id: u64,
    parent: u64,
    unit: u64,
    slot: usize,
    start: Instant,
    end: Instant,
}

#[derive(Debug)]
struct Open {
    id: u64,
    slot: usize,
    items: u64,
    child_ns: u64,
}

/// Hashes a span name's address: names are `'static` strings, so the
/// address identifies the literal without reading it.
#[derive(Default)]
struct AddressHasher(u64);

impl Hasher for AddressHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 << 8 | u64::from(byte)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    fn write_usize(&mut self, address: usize) {
        self.0 = (address as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// The spans, aggregates and tallies of one traced phase.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    stack: Vec<Open>,
    next_id: u64,
    unit: u64,
    names: Vec<&'static str>,
    aggs: Vec<Agg>,
    slot_of: HashMap<usize, usize, BuildHasherDefault<AddressHasher>>,
    records: Vec<Record>,
    tallies: BTreeMap<&'static str, f64>,
    /// Raw records kept at most.
    record_cap: usize,
    /// Cost of an empty span that falls between its own timestamps.
    inner_ns: u64,
    /// Whole cost of an empty span, as an enclosing span sees it.
    cost_ns: u64,
}

impl Tracer {
    fn uncalibrated() -> Self {
        Tracer {
            origin: Instant::now(),
            stack: Vec::new(),
            next_id: 1,
            unit: 0,
            names: Vec::new(),
            aggs: Vec::new(),
            slot_of: HashMap::default(),
            records: Vec::new(),
            tallies: BTreeMap::new(),
            record_cap: SPAN_CAP,
            inner_ns: 0,
            cost_ns: 0,
        }
    }

    /// An empty tracer whose span times count from now. The first tracer
    /// of the process calibrates the cost correction on its thread; every
    /// later one reuses it, so all tracers of a run correct alike.
    pub fn new() -> Self {
        static CALIBRATION: OnceLock<(u64, u64)> = OnceLock::new();
        let &(inner_ns, cost_ns) = CALIBRATION.get_or_init(calibrate);
        Tracer {
            inner_ns,
            cost_ns,
            ..Tracer::uncalibrated()
        }
    }

    /// The aggregate of every span named `name`.
    pub fn agg(&self, name: &str) -> Agg {
        let mut sum = Agg::default();
        for (n, agg) in self.names.iter().zip(&self.aggs) {
            if *n == name {
                sum.calls += agg.calls;
                sum.items += agg.items;
                sum.total_ns += agg.total_ns;
                sum.child_ns += agg.child_ns;
            }
        }
        sum
    }

    /// Every aggregate, by name.
    pub fn aggs(&self) -> BTreeMap<&'static str, Agg> {
        let mut names: Vec<&'static str> = self.names.clone();
        names.sort_unstable();
        names.dedup();
        names
            .into_iter()
            .map(|name| (name, self.agg(name)))
            .collect()
    }

    /// The sum of every value tallied under `name` (0 when none).
    pub fn tally(&self, name: &str) -> f64 {
        self.tallies.get(name).copied().unwrap_or(0.0)
    }

    /// The calibrated whole cost of one span, ns.
    pub fn span_cost_ns(&self) -> u64 {
        self.cost_ns
    }

    /// Appends the kept spans as JSON lines tagged with `phase`.
    pub fn write_jsonl(&self, phase: &str, out: &mut String) {
        let since = |t: Instant| (t - self.origin).as_nanos();
        for r in &self.records {
            let _ = writeln!(
                out,
                "{{\"phase\":\"{phase}\",\"id\":{},\"parent\":{},\"unit\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                r.id,
                r.parent,
                r.unit,
                self.names[r.slot],
                since(r.start),
                since(r.end)
            );
        }
    }

    fn slot(&mut self, name: &'static str) -> usize {
        if let Some(&slot) = self.slot_of.get(&(name.as_ptr() as usize)) {
            if self.names[slot].len() == name.len() {
                return slot;
            }
        }
        let slot = self.names.len();
        self.names.push(name);
        self.aggs.push(Agg::default());
        self.slot_of.insert(name.as_ptr() as usize, slot);
        slot
    }

    fn open(&mut self, name: &'static str, items: u64) {
        let id = self.next_id;
        self.next_id += 1;
        let slot = self.slot(name);
        self.stack.push(Open {
            id,
            slot,
            items,
            child_ns: 0,
        });
    }

    fn close(&mut self, start: Instant, end: Instant) {
        let open = self
            .stack
            .pop()
            .expect("spans close in the order they opened");
        let raw = u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX);
        let net = raw.saturating_sub(self.inner_ns);
        let parent = self.stack.last_mut().map_or(0, |p| {
            p.child_ns += net + self.cost_ns;
            p.id
        });
        let agg = &mut self.aggs[open.slot];
        agg.calls += 1;
        agg.items += open.items;
        agg.total_ns += net;
        agg.child_ns += open.child_ns;
        if self.records.len() < self.record_cap {
            self.records.push(Record {
                id: open.id,
                parent,
                unit: self.unit,
                slot: open.slot,
                start,
                end,
            });
        }
    }
}

/// Times batches of empty spans and returns the cost of one that falls
/// between its own timestamps and its whole cost, from the cheapest batch:
/// the least disturbed one, so correcting by it never pushes a span below
/// what it measured. The calibration tracer keeps no records, like a
/// tracer past [`SPAN_CAP`], where almost every span of a long run falls.
fn calibrate() -> (u64, u64) {
    const BATCHES: usize = 101;
    const SPANS: u32 = 256;
    let previous = finish();
    install(Tracer {
        record_cap: 0,
        ..Tracer::uncalibrated()
    });
    let timed_ns = || {
        TRACER.with(|t| {
            t.borrow()
                .as_ref()
                .map_or(0, |t| t.agg("trace.calibration").total_ns)
        })
    };
    let (mut inner_ns, mut cost_ns) = (u64::MAX, u64::MAX);
    for _ in 0..BATCHES {
        let before = timed_ns();
        let t = Instant::now();
        for _ in 0..SPANS {
            let _span = span("trace.calibration");
        }
        cost_ns = cost_ns.min((t.elapsed() / SPANS).as_nanos() as u64);
        inner_ns = inner_ns.min((timed_ns() - before) / u64::from(SPANS));
    }
    finish();
    if let Some(previous) = previous {
        install(previous);
    }
    (inner_ns, cost_ns)
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Installs a fresh tracer on this thread (replacing any other).
pub fn start() {
    install(Tracer::new());
}

/// Installs `tracer` on this thread (replacing any other), to resume
/// recording into it after [`finish`].
pub fn install(tracer: Tracer) {
    TRACER.with(|t| *t.borrow_mut() = Some(tracer));
}

/// Removes and returns this thread's tracer.
pub fn finish() -> Option<Tracer> {
    TRACER.with(|t| t.borrow_mut().take())
}

/// Whether a tracer is installed on this thread.
pub fn enabled() -> bool {
    TRACER.with(|t| t.borrow().is_some())
}

/// Tags the spans that follow with a unit identifier (spans of one unit
/// share it).
pub fn set_unit(unit: u64) {
    TRACER.with(|t| {
        if let Some(tracer) = t.borrow_mut().as_mut() {
            tracer.unit = unit;
        }
    });
}

/// Adds `value` to the tally `name`.
pub fn tally(name: &'static str, value: f64) {
    TRACER.with(|t| {
        if let Some(tracer) = t.borrow_mut().as_mut() {
            *tracer.tallies.entry(name).or_insert(0.0) += value;
        }
    });
}

/// An open span; closes when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let end = Instant::now();
            TRACER.with(|t| {
                if let Some(tracer) = t.borrow_mut().as_mut() {
                    tracer.close(start, end);
                }
            });
        }
    }
}

/// Opens a span named `name` covering one work item.
pub fn span(name: &'static str) -> Span {
    span_items(name, 1)
}

/// Opens a span named `name` covering `items` work items (0 for a call
/// that belongs to another call's item, such as a governor's throttle
/// decision after its p-state decision).
pub fn span_items(name: &'static str, items: u64) -> Span {
    let opened = TRACER.with(|t| match t.borrow_mut().as_mut() {
        Some(tracer) => {
            tracer.open(name, items);
            true
        }
        None => false,
    });
    // The clock is read after the bookkeeping, and read again before the
    // closing bookkeeping, so little of the tracer's cost is timed.
    Span {
        start: opened.then(Instant::now),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        start();
        {
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _inner = span_items("inner", 3);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        tally("x", 2.0);
        tally("x", 3.0);
        let tracer = finish().unwrap();
        let outer = tracer.agg("outer");
        let inner = tracer.agg("inner");
        assert_eq!((outer.calls, inner.calls, inner.items), (1, 1, 3));
        assert_eq!(outer.child_ns, inner.total_ns + tracer.span_cost_ns());
        assert!(outer.total_ns > inner.total_ns);
        assert_eq!(tracer.tally("x"), 5.0);
        assert_eq!(tracer.aggs().len(), 2);
        let mut jsonl = String::new();
        tracer.write_jsonl("own", &mut jsonl);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"inner\"") && lines[0].contains("\"parent\":1"));
        assert!(lines[1].contains("\"name\":\"outer\"") && lines[1].contains("\"parent\":0"));
    }

    #[test]
    fn equal_names_from_different_literals_share_an_aggregate() {
        start();
        let owned: &'static str = Box::leak(String::from("same").into_boxed_str());
        drop(span("same"));
        drop(span(owned));
        let tracer = finish().unwrap();
        assert_eq!(tracer.agg("same").calls, 2);
        assert_eq!(tracer.aggs().len(), 1);
    }

    #[test]
    fn calibration_leaves_no_spans_behind() {
        let tracer = Tracer::new();
        assert!(tracer.aggs().is_empty());
        assert!(tracer.span_cost_ns() > 0);
    }

    #[test]
    fn guards_are_inert_without_a_tracer() {
        assert!(!enabled());
        let _span = span("nothing");
        tally("nothing", 1.0);
        assert!(finish().is_none());
    }
}
