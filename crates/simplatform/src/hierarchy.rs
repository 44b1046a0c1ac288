//! Two-level cache hierarchy + DRAM, for address-stream characterization.
//!
//! Drives an address stream through L1 → L2 → DRAM and reports where each
//! access was served. `aapm-workloads` uses this to turn the MS-Loops
//! microbenchmarks' address streams into per-footprint miss rates — the
//! simulated analogue of running the loops on the instrumented Pentium M.

use crate::cache::{Cache, CacheGeometry};
use crate::dram::{Dram, DramTimings};
use crate::error::Result;

/// Configuration of the hardware sequential prefetcher.
///
/// The Pentium M's prefetcher detects ascending line streams and pulls
/// upcoming lines into the caches ahead of demand. The paper's FMA loop
/// "most exercises" it; prefetching is why L2-resident streaming loops keep
/// the core fed (high power) instead of stalling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// Number of consecutive ascending-line misses before the stream is
    /// considered detected.
    pub trigger_streak: u32,
    /// Lines fetched ahead once a stream is detected.
    pub degree: usize,
}

impl PrefetchConfig {
    /// Pentium M-like defaults: trigger after 2 sequential misses, fetch
    /// 2 lines ahead.
    pub fn pentium_m() -> Self {
        PrefetchConfig { trigger_streak: 2, degree: 2 }
    }
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig::pentium_m()
    }
}

/// Sequential-stream detector driving the prefetcher.
///
/// Watches the demand *line* stream (hits included, so a stream stays
/// trained while prefetches absorb its misses) and keeps a frontier of the
/// furthest line already requested, issuing `degree` lines ahead.
#[derive(Debug, Clone)]
struct PrefetchEngine {
    config: PrefetchConfig,
    last_line: Option<u64>,
    streak: u32,
    frontier: u64,
}

impl PrefetchEngine {
    fn new(config: PrefetchConfig) -> Self {
        PrefetchEngine { config, last_line: None, streak: 0, frontier: 0 }
    }

    /// Observes a demand access to `line`; returns the inclusive line range
    /// to prefetch, if any. A range (not a collected list) keeps this on
    /// the characterization hot path allocation-free.
    #[inline]
    fn on_access(&mut self, line: u64) -> Option<(u64, u64)> {
        match self.last_line {
            Some(last) if line == last => return None, // same line, no news
            Some(last) if line == last + 1 => self.streak += 1,
            _ => {
                self.streak = 0;
                self.frontier = 0;
            }
        }
        self.last_line = Some(line);
        if self.streak < self.config.trigger_streak {
            return None;
        }
        let start = self.frontier.max(line + 1);
        let end = line + self.config.degree as u64;
        if start > end {
            return None;
        }
        self.frontier = end + 1;
        Some((start, end))
    }
}

/// Which level served a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceLevel {
    /// Served by the L1 data cache.
    L1,
    /// Missed L1, served by the unified L2.
    L2,
    /// Missed both caches, served by DRAM.
    Dram,
}

/// Per-level access totals for a stream run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HierarchyStats {
    /// Total accesses driven through the hierarchy.
    pub accesses: u64,
    /// Accesses served by L1.
    pub l1_hits: u64,
    /// Accesses served by L2 (L1 misses that hit L2).
    pub l2_hits: u64,
    /// Accesses served by DRAM (missed both levels).
    pub dram_accesses: u64,
    /// Mean DRAM latency observed, in nanoseconds.
    pub mean_dram_latency_ns: f64,
    /// Prefetch requests issued by the hardware prefetcher.
    pub prefetches_issued: u64,
    /// Prefetch fills that had to come from DRAM.
    pub prefetch_dram_fills: u64,
}

impl HierarchyStats {
    /// L1 misses per access.
    pub fn l1_miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            (self.l2_hits + self.dram_accesses) as f64 / self.accesses as f64
        }
    }

    /// L2 misses per access (i.e. DRAM accesses per access).
    pub fn l2_miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.dram_accesses as f64 / self.accesses as f64
        }
    }
}

/// An L1 + L2 + DRAM simulation.
///
/// # Examples
///
/// ```
/// use aapm_platform::hierarchy::MemoryHierarchy;
///
/// let mut mem = MemoryHierarchy::pentium_m_755()?;
/// // Stream through 8 MB: far beyond L2, most accesses reach DRAM.
/// for addr in (0..(8u64 << 20)).step_by(64) {
///     mem.access(addr);
/// }
/// let stats = mem.stats();
/// assert!(stats.l2_miss_rate() > 0.9);
/// # Ok::<(), aapm_platform::error::PlatformError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l1: Cache,
    l2: Cache,
    dram: Dram,
    stats: HierarchyStats,
    prefetcher: Option<PrefetchEngine>,
    /// `log2` of the L1 line size: the prefetcher streams L1 lines.
    line_shift: u32,
}

impl MemoryHierarchy {
    /// Builds a hierarchy from explicit geometries and DRAM timings, with no
    /// hardware prefetcher.
    ///
    /// # Errors
    ///
    /// Propagates cache-geometry validation failures.
    pub fn new(l1: CacheGeometry, l2: CacheGeometry, dram: DramTimings) -> Result<Self> {
        Ok(MemoryHierarchy {
            l1: Cache::new(l1)?,
            l2: Cache::new(l2)?,
            dram: Dram::new(dram),
            stats: HierarchyStats::default(),
            prefetcher: None,
            line_shift: l1.line_bytes.trailing_zeros(),
        })
    }

    /// The Pentium M 755 hierarchy: 32 KB L1-D, 2 MB L2, DDR-333 DRAM,
    /// prefetcher disabled (see [`MemoryHierarchy::with_prefetcher`]).
    pub fn pentium_m_755() -> Result<Self> {
        MemoryHierarchy::new(
            CacheGeometry::pentium_m_l1d(),
            CacheGeometry::pentium_m_l2(),
            DramTimings::ddr333(),
        )
    }

    /// Enables the hardware sequential prefetcher.
    pub fn with_prefetcher(mut self, config: PrefetchConfig) -> Self {
        self.prefetcher = Some(PrefetchEngine::new(config));
        self
    }

    /// Drives one demand access through the hierarchy.
    ///
    /// L1 and the prefetcher work on the L1 line number, L2 on its own
    /// line size, so the two levels' lines may differ.
    #[inline]
    pub fn access(&mut self, addr: u64) -> ServiceLevel {
        self.stats.accesses += 1;
        let line = addr >> self.line_shift;
        let level = if !self.l1.access_line(line).is_miss() {
            self.stats.l1_hits += 1;
            ServiceLevel::L1
        } else if !self.l2.access(addr).is_miss() {
            self.stats.l2_hits += 1;
            ServiceLevel::L2
        } else {
            let latency = self.dram.access(addr);
            self.stats.dram_accesses += 1;
            let n = self.stats.dram_accesses as f64;
            self.stats.mean_dram_latency_ns += (latency - self.stats.mean_dram_latency_ns) / n;
            ServiceLevel::Dram
        };
        self.run_prefetcher(line);
        level
    }

    /// Feeds the prefetch engine with the demand line stream and installs
    /// any prefetched lines into both cache levels.
    #[inline]
    fn run_prefetcher(&mut self, line: u64) {
        let Some(engine) = self.prefetcher.as_mut() else { return };
        let Some((start, end)) = engine.on_access(line) else { return };
        self.stats.prefetches_issued += end - start + 1;
        for target_line in start..=end {
            let target_addr = target_line << self.line_shift;
            // Fill L2 first; if absent there, the fill comes from DRAM.
            if self.l2.access(target_addr).is_miss() {
                self.dram.access(target_addr);
                self.stats.prefetch_dram_fills += 1;
            }
            self.l1.access_line(target_line);
        }
    }

    /// Aggregate statistics since the last reset.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// L1 statistics.
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// L2 statistics.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Clears statistics, keeping cache contents warm (for measuring a
    /// steady-state pass after warm-up).
    pub fn reset_stats(&mut self) {
        self.l1.reset_stats();
        self.l2.reset_stats();
        self.stats = HierarchyStats::default();
    }

    /// Flushes both caches, closes DRAM rows, clears statistics, and resets
    /// the prefetch stream detector.
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
        self.dram.reset();
        self.stats = HierarchyStats::default();
        if let Some(engine) = self.prefetcher.as_mut() {
            let config = engine.config;
            *engine = PrefetchEngine::new(config);
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_resident_working_set_hits_l1() {
        let mut mem = MemoryHierarchy::pentium_m_755().unwrap();
        let footprint = 16 * 1024; // 16 KB fits in the 32 KB L1
        // Warm-up pass.
        for addr in (0..footprint).step_by(64) {
            mem.access(addr);
        }
        mem.reset_stats();
        for _ in 0..4 {
            for addr in (0..footprint).step_by(64) {
                mem.access(addr);
            }
        }
        assert!(mem.stats().l1_miss_rate() < 0.01);
    }

    #[test]
    fn l2_resident_working_set_hits_l2() {
        let mut mem = MemoryHierarchy::pentium_m_755().unwrap();
        let footprint = 256 * 1024; // beyond L1 (32 KB), inside L2 (2 MB)
        for addr in (0..footprint).step_by(64) {
            mem.access(addr);
        }
        mem.reset_stats();
        for _ in 0..4 {
            for addr in (0..footprint).step_by(64) {
                mem.access(addr);
            }
        }
        let stats = mem.stats();
        assert!(stats.l1_miss_rate() > 0.9, "streaming 256 KB thrashes L1");
        assert!(stats.l2_miss_rate() < 0.01, "but fits in L2");
    }

    #[test]
    fn dram_resident_working_set_reaches_dram() {
        let mut mem = MemoryHierarchy::pentium_m_755().unwrap();
        let footprint = 8u64 << 20; // 8 MB, beyond the 2 MB L2
        for addr in (0..footprint).step_by(64) {
            mem.access(addr);
        }
        mem.reset_stats();
        for addr in (0..footprint).step_by(64) {
            mem.access(addr);
        }
        let stats = mem.stats();
        assert!(stats.l2_miss_rate() > 0.95);
        assert!(stats.mean_dram_latency_ns > 0.0);
    }

    #[test]
    fn service_levels_reported_correctly() {
        let mut mem = MemoryHierarchy::pentium_m_755().unwrap();
        assert_eq!(mem.access(0x0), ServiceLevel::Dram, "cold access goes to DRAM");
        assert_eq!(mem.access(0x0), ServiceLevel::L1, "now L1-resident");
        // Evict from L1 only by touching many conflicting lines, then the
        // line should still be in L2.
        let l1_capacity = 32 * 1024;
        for addr in (0..(4 * l1_capacity as u64)).step_by(64) {
            mem.access(0x100_0000 + addr);
        }
        assert_eq!(mem.access(0x0), ServiceLevel::L2);
    }

    #[test]
    fn flush_returns_to_cold_state() {
        let mut mem = MemoryHierarchy::pentium_m_755().unwrap();
        mem.access(0x0);
        mem.flush();
        assert_eq!(mem.stats().accesses, 0);
        assert_eq!(mem.access(0x0), ServiceLevel::Dram);
    }

    #[test]
    fn miss_rates_zero_when_no_accesses() {
        let stats = HierarchyStats::default();
        assert_eq!(stats.l1_miss_rate(), 0.0);
        assert_eq!(stats.l2_miss_rate(), 0.0);
    }

    #[test]
    fn prefetcher_covers_sequential_streams() {
        let footprint = 1u64 << 20; // 1 MB: thrashes L1, fits L2
        let mut plain = MemoryHierarchy::pentium_m_755().unwrap();
        let mut prefetching =
            MemoryHierarchy::pentium_m_755().unwrap().with_prefetcher(PrefetchConfig::pentium_m());
        for mem in [&mut plain, &mut prefetching] {
            for addr in (0..footprint).step_by(64) {
                mem.access(addr);
            }
            mem.reset_stats();
            for addr in (0..footprint).step_by(64) {
                mem.access(addr);
            }
        }
        assert!(prefetching.stats().prefetches_issued > 0);
        assert!(
            prefetching.stats().l1_miss_rate() < 0.5 * plain.stats().l1_miss_rate(),
            "prefetcher should cover most sequential demand misses: {} vs {}",
            prefetching.stats().l1_miss_rate(),
            plain.stats().l1_miss_rate()
        );
    }

    #[test]
    fn prefetcher_ignores_random_streams() {
        let mut mem =
            MemoryHierarchy::pentium_m_755().unwrap().with_prefetcher(PrefetchConfig::pentium_m());
        let mut addr: u64 = 0;
        for _ in 0..20_000 {
            addr = (addr + 7_368_787) % (64 << 20);
            mem.access(addr);
        }
        let stats = mem.stats();
        assert!(
            (stats.prefetches_issued as f64) < 0.02 * stats.accesses as f64,
            "random stream should not trigger streams, issued {}",
            stats.prefetches_issued
        );
    }

    #[test]
    fn reset_stats_preserves_prefetcher_but_clears_counts() {
        let mut mem =
            MemoryHierarchy::pentium_m_755().unwrap().with_prefetcher(PrefetchConfig::pentium_m());
        for addr in (0..(1u64 << 18)).step_by(64) {
            mem.access(addr);
        }
        mem.reset_stats();
        assert_eq!(mem.stats().prefetches_issued, 0);
        assert_eq!(mem.stats().accesses, 0);
    }
}
