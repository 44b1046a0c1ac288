//! Scoped-thread job pool with deterministic merge.
//!
//! Every cell of the experiment matrix — one `(experiment, workload,
//! governor, seed)` simulation — is independent: [`crate::runner::median_run`]
//! constructs a fresh `Machine`, DAQ, and governor per seed, and nothing in
//! the simulation stack touches global state. The pool exploits that by
//! fanning submitted cells over `jobs` OS threads while guaranteeing that
//! the *merged* result vector is in submission order, so a parallel run is
//! bit-identical to a serial one.
//!
//! Design points:
//!
//! * **Std threads only.** The build is fully offline; no rayon/crossbeam.
//!   Workers are `std::thread::scope` threads pulling cell indices from an
//!   atomic cursor (work stealing degenerates to a shared queue, which is
//!   enough — cells are coarse).
//! * **Bounded nesting.** Experiments fan out benchmarks, and each
//!   benchmark fans out its three seeds. A naive implementation would spawn
//!   `jobs × jobs` threads. Instead the pool holds `jobs − 1` *permits*:
//!   every `run` call (the submitting thread always works too) acquires as
//!   many extra workers as are free, and a nested call that finds none
//!   simply runs its cells inline on the worker that submitted them. Total
//!   live threads never exceed `jobs`.
//! * **Panic containment.** A panicking cell fails *that cell* with
//!   [`PlatformError::CellPanicked`]; sibling cells and the suite continue.
//! * **Timing.** The pool accumulates per-cell wall-clock so the suite can
//!   report cells/sec and an estimated speedup vs serial execution
//!   (see [`PoolStats`]).
//!
//! `Pool::new(1)` (or `--jobs 1`) preserves the historical serial path:
//! cells execute in submission order on the calling thread.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use aapm_platform::error::{PlatformError, Result};

use crate::observe::RunObserver;

/// Shared state behind a cloneable [`Pool`] handle.
#[derive(Debug)]
struct PoolInner {
    /// Maximum concurrent worker threads (including the submitting thread).
    jobs: usize,
    /// Extra worker threads currently available (`jobs − 1` when idle).
    permits: AtomicUsize,
    /// `run` calls currently active (for top-level-cell accounting).
    active_runs: AtomicUsize,
    /// Cells executed, at any nesting depth.
    cells_run: AtomicUsize,
    /// Cells that returned an error (including contained panics).
    cells_failed: AtomicUsize,
    /// Cells executed by top-level (non-nested) `run` calls.
    top_cells: AtomicUsize,
    /// Σ wall-clock of top-level cells — the serial-execution estimate.
    top_busy_nanos: AtomicU64,
    /// Longest single top-level cell.
    top_max_cell_nanos: AtomicU64,
    /// Σ wall-clock of *all* cells, at any nesting depth.
    busy_nanos: AtomicU64,
    /// Cells submitted but not yet claimed by a worker.
    queued: AtomicUsize,
    /// High-water mark of `queued`.
    peak_queued: AtomicUsize,
    /// Observability sink consulted by [`crate::runner::median_run`]; when
    /// present, every simulation cell runs with an enabled metrics
    /// registry and reports its event stream here.
    observer: Option<Arc<RunObserver>>,
}

/// A work pool that fans independent experiment cells over OS threads and
/// merges their results in deterministic submission order.
///
/// Handles are cheap to clone and share one set of permits and counters,
/// so a single pool bounds the thread count of an entire suite run.
#[derive(Debug, Clone)]
pub struct Pool {
    inner: Arc<PoolInner>,
}

/// Counters accumulated over a pool's lifetime.
///
/// "Top-level" cells are those submitted by `run` calls that were not
/// themselves nested inside another cell of the same pool; they partition
/// the suite's work, so `top_busy` — the sum of their individual wall
/// times — estimates what a fully serial execution would have cost, and
/// `top_busy / suite_wall` estimates the realized speedup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Configured parallelism.
    pub jobs: usize,
    /// Cells executed at any nesting depth (every simulation run).
    pub cells_run: usize,
    /// Cells that failed (errors and contained panics).
    pub cells_failed: usize,
    /// Top-level cells executed.
    pub top_cells: usize,
    /// Σ wall-clock of top-level cells (serial-execution estimate).
    pub top_busy: Duration,
    /// Longest single top-level cell (lower bound on parallel wall-clock).
    pub longest_top_cell: Duration,
    /// Σ wall-clock of all cells at any nesting depth.
    pub cell_busy: Duration,
    /// High-water mark of cells submitted but not yet claimed by a worker.
    pub peak_queue_depth: usize,
}

impl Pool {
    /// Creates a pool running at most `jobs` concurrent cells
    /// (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        Pool::build(jobs, None)
    }

    /// Creates a pool with an observability sink attached: simulation
    /// cells run with metrics enabled and report their event streams and
    /// snapshots to `observer`.
    pub fn with_observer(jobs: usize, observer: Arc<RunObserver>) -> Self {
        Pool::build(jobs, Some(observer))
    }

    fn build(jobs: usize, observer: Option<Arc<RunObserver>>) -> Self {
        let jobs = jobs.max(1);
        Pool {
            inner: Arc::new(PoolInner {
                jobs,
                permits: AtomicUsize::new(jobs - 1),
                active_runs: AtomicUsize::new(0),
                cells_run: AtomicUsize::new(0),
                cells_failed: AtomicUsize::new(0),
                top_cells: AtomicUsize::new(0),
                top_busy_nanos: AtomicU64::new(0),
                top_max_cell_nanos: AtomicU64::new(0),
                busy_nanos: AtomicU64::new(0),
                queued: AtomicUsize::new(0),
                peak_queued: AtomicUsize::new(0),
                observer,
            }),
        }
    }

    /// The attached observability sink, if any.
    pub fn observer(&self) -> Option<&Arc<RunObserver>> {
        self.inner.observer.as_ref()
    }

    /// The historical serial path: cells run in submission order on the
    /// calling thread.
    pub fn serial() -> Self {
        Pool::new(1)
    }

    /// Configured parallelism.
    pub fn jobs(&self) -> usize {
        self.inner.jobs
    }

    /// A snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        let inner = &self.inner;
        PoolStats {
            jobs: inner.jobs,
            cells_run: inner.cells_run.load(Ordering::Relaxed),
            cells_failed: inner.cells_failed.load(Ordering::Relaxed),
            top_cells: inner.top_cells.load(Ordering::Relaxed),
            top_busy: Duration::from_nanos(inner.top_busy_nanos.load(Ordering::Relaxed)),
            longest_top_cell: Duration::from_nanos(
                inner.top_max_cell_nanos.load(Ordering::Relaxed),
            ),
            cell_busy: Duration::from_nanos(inner.busy_nanos.load(Ordering::Relaxed)),
            peak_queue_depth: inner.peak_queued.load(Ordering::Relaxed),
        }
    }

    /// Runs every cell and returns their results **in submission order**,
    /// regardless of which worker finished which cell when.
    ///
    /// A cell that panics yields [`PlatformError::CellPanicked`] for its
    /// slot; the other cells are unaffected. Nested `run` calls from inside
    /// a cell are safe: they execute inline when the pool is saturated.
    pub fn run<T, F>(&self, cells: Vec<F>) -> Vec<Result<T>>
    where
        T: Send,
        F: FnOnce() -> Result<T> + Send,
    {
        let top_level = self.inner.active_runs.fetch_add(1, Ordering::SeqCst) == 0;
        let results = self.run_inner(cells, top_level);
        self.inner.active_runs.fetch_sub(1, Ordering::SeqCst);
        results
    }

    fn run_inner<T, F>(&self, cells: Vec<F>, top_level: bool) -> Vec<Result<T>>
    where
        T: Send,
        F: FnOnce() -> Result<T> + Send,
    {
        let count = cells.len();
        let depth = self.inner.queued.fetch_add(count, Ordering::Relaxed) + count;
        self.inner.peak_queued.fetch_max(depth, Ordering::Relaxed);
        let extra_wanted = count.saturating_sub(1);
        let extra = if self.inner.jobs == 1 { 0 } else { self.acquire(extra_wanted) };
        if extra == 0 {
            // Serial path: submission order on the calling thread.
            return cells
                .into_iter()
                .map(|cell| {
                    self.inner.queued.fetch_sub(1, Ordering::Relaxed);
                    self.run_cell(cell, top_level)
                })
                .collect();
        }

        let tasks: Vec<Mutex<Option<F>>> =
            cells.into_iter().map(|cell| Mutex::new(Some(cell))).collect();
        let slots: Vec<Mutex<Option<Result<T>>>> =
            (0..count).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let worker = || loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            if index >= count {
                break;
            }
            let cell = tasks[index]
                .lock()
                .expect("task mutex is never poisoned: cells cannot panic while held")
                .take()
                .expect("each task index is claimed exactly once");
            self.inner.queued.fetch_sub(1, Ordering::Relaxed);
            let result = self.run_cell(cell, top_level);
            *slots[index]
                .lock()
                .expect("slot mutex is never poisoned: results are plain moves") =
                Some(result);
        };
        std::thread::scope(|scope| {
            for _ in 0..extra {
                scope.spawn(worker);
            }
            // The submitting thread is always the last worker.
            worker();
        });
        self.release(extra);

        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot mutex is never poisoned")
                    .expect("every index below the cursor was executed")
            })
            .collect()
    }

    /// Executes one cell with panic containment and timing.
    fn run_cell<T>(&self, cell: impl FnOnce() -> Result<T>, top_level: bool) -> Result<T> {
        let start = Instant::now();
        let result = match catch_unwind(AssertUnwindSafe(cell)) {
            Ok(result) => result,
            Err(payload) => {
                Err(PlatformError::CellPanicked { message: panic_message(payload.as_ref()) })
            }
        };
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.inner.cells_run.fetch_add(1, Ordering::Relaxed);
        self.inner.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
        if result.is_err() {
            self.inner.cells_failed.fetch_add(1, Ordering::Relaxed);
        }
        if top_level {
            self.inner.top_cells.fetch_add(1, Ordering::Relaxed);
            self.inner.top_busy_nanos.fetch_add(nanos, Ordering::Relaxed);
            self.inner.top_max_cell_nanos.fetch_max(nanos, Ordering::Relaxed);
        }
        result
    }

    /// Takes up to `want` worker permits; returns how many were granted.
    fn acquire(&self, want: usize) -> usize {
        let permits = &self.inner.permits;
        let mut available = permits.load(Ordering::Acquire);
        loop {
            let take = want.min(available);
            if take == 0 {
                return 0;
            }
            match permits.compare_exchange(
                available,
                available - take,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return take,
                Err(now) => available = now,
            }
        }
    }

    fn release(&self, granted: usize) {
        self.inner.permits.fetch_add(granted, Ordering::Release);
    }
}

/// The CLI's default `--jobs`: the host's available parallelism, or 1 when
/// it cannot be read.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Renders a panic payload (almost always a `&str` or `String`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_owned()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_submission_order() {
        for jobs in [1, 2, 8] {
            let pool = Pool::new(jobs);
            let cells: Vec<_> = (0..32)
                .map(|i| move || -> Result<usize> { Ok(i * i) })
                .collect();
            let results: Vec<usize> =
                pool.run(cells).into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(results, (0..32).map(|i| i * i).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn a_panicking_cell_fails_alone() {
        let pool = Pool::new(4);
        let cells: Vec<Box<dyn FnOnce() -> Result<u32> + Send>> = vec![
            Box::new(|| Ok(1)),
            Box::new(|| panic!("injected cell panic")),
            Box::new(|| Ok(3)),
        ];
        let results = pool.run(cells);
        assert_eq!(results[0], Ok(1));
        assert_eq!(results[2], Ok(3));
        match &results[1] {
            Err(PlatformError::CellPanicked { message }) => {
                assert!(message.contains("injected cell panic"), "{message}");
            }
            other => panic!("expected CellPanicked, got {other:?}"),
        }
        assert_eq!(pool.stats().cells_failed, 1);
    }

    #[test]
    fn nested_runs_do_not_deadlock_or_reorder() {
        let pool = Pool::new(3);
        let outer: Vec<_> = (0..6)
            .map(|i| {
                let pool = pool.clone();
                move || -> Result<Vec<usize>> {
                    let inner: Vec<_> =
                        (0..4).map(|j| move || -> Result<usize> { Ok(10 * i + j) }).collect();
                    pool.run(inner).into_iter().collect()
                }
            })
            .collect();
        let results = pool.run(outer);
        for (i, result) in results.into_iter().enumerate() {
            let values = result.unwrap();
            assert_eq!(values, (0..4).map(|j| 10 * i + j).collect::<Vec<_>>());
        }
        // All permits returned.
        assert_eq!(pool.inner.permits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn stats_separate_top_level_from_nested_cells() {
        let pool = Pool::new(2);
        let outer: Vec<_> = (0..3)
            .map(|_| {
                let pool = pool.clone();
                move || -> Result<usize> {
                    let inner: Vec<_> = (0..2).map(|j| move || -> Result<usize> { Ok(j) }).collect();
                    Ok(pool.run(inner).into_iter().map(|r| r.unwrap()).sum())
                }
            })
            .collect();
        let _ = pool.run(outer);
        let stats = pool.stats();
        assert_eq!(stats.top_cells, 3, "only the outer cells are top-level");
        assert_eq!(stats.cells_run, 3 + 3 * 2, "nested cells still counted in the total");
        assert_eq!(stats.cells_failed, 0);
        assert!(stats.top_busy >= stats.longest_top_cell);
    }

    #[test]
    fn queue_and_busy_accounting() {
        for jobs in [1, 4] {
            let pool = Pool::new(jobs);
            let cells: Vec<_> = (0..8)
                .map(|i| {
                    move || -> Result<usize> {
                        std::thread::sleep(Duration::from_millis(1));
                        Ok(i)
                    }
                })
                .collect();
            let _ = pool.run(cells);
            let stats = pool.stats();
            assert!(
                (1..=8).contains(&stats.peak_queue_depth),
                "jobs={jobs}: peak {}",
                stats.peak_queue_depth
            );
            assert!(stats.cell_busy >= stats.longest_top_cell, "jobs={jobs}");
            assert_eq!(pool.inner.queued.load(Ordering::SeqCst), 0, "queue drains");
        }
    }

    #[test]
    fn zero_jobs_clamps_to_serial() {
        let pool = Pool::new(0);
        assert_eq!(pool.jobs(), 1);
        let results = pool.run(vec![|| Ok(7u8)]);
        assert_eq!(results, vec![Ok(7)]);
    }
}
