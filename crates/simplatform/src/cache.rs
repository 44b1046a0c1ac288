//! Set-associative cache simulator with true-LRU replacement.
//!
//! Used by `aapm-workloads` to *characterize* the MS-Loops microbenchmarks:
//! each loop's address stream is run through a simulated L1/L2 hierarchy to
//! derive per-footprint miss rates, exactly the role the real machine played
//! when the paper's authors measured the loops on hardware.

use crate::error::{PlatformError, Result};

/// Geometry of a single cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheGeometry {
    /// The Pentium M 755's 32 KB, 8-way, 64 B-line L1 data cache.
    pub fn pentium_m_l1d() -> Self {
        CacheGeometry { capacity_bytes: 32 * 1024, line_bytes: 64, ways: 8 }
    }

    /// The Pentium M 755 (Dothan)'s 2 MB, 8-way, 64 B-line unified L2.
    pub fn pentium_m_l2() -> Self {
        CacheGeometry { capacity_bytes: 2 * 1024 * 1024, line_bytes: 64, ways: 8 }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        self.capacity_bytes / (self.line_bytes * self.ways)
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidCacheGeometry`] when any dimension is
    /// zero, not a power of two where required, or inconsistent.
    pub fn validate(&self) -> Result<()> {
        let fail = |reason: String| Err(PlatformError::InvalidCacheGeometry { reason });
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return fail(format!("line size must be a power of two, got {}", self.line_bytes));
        }
        if self.ways == 0 {
            return fail("associativity must be positive".into());
        }
        if self.capacity_bytes == 0 {
            return fail("capacity must be positive".into());
        }
        if !self.capacity_bytes.is_multiple_of(self.line_bytes * self.ways) {
            return fail(format!(
                "capacity {} is not a multiple of line size {} × ways {}",
                self.capacity_bytes, self.line_bytes, self.ways
            ));
        }
        if !self.sets().is_power_of_two() {
            return fail(format!("set count {} must be a power of two", self.sets()));
        }
        Ok(())
    }
}

/// Result of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled (possibly evicting another).
    Miss,
}

impl AccessResult {
    /// Returns `true` for [`AccessResult::Miss`].
    pub fn is_miss(self) -> bool {
        self == AccessResult::Miss
    }
}

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; zero when no accesses were made.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A single-level set-associative cache with true-LRU replacement.
///
/// Set contents live in two flat arrays rather than per-set `Vec`s: `tags`
/// holds `ways` slots per set, MRU-first within the occupied prefix whose
/// length is `lens[set]`. Characterization pushes hundreds of millions of
/// accesses through this loop, and the flat layout keeps it to one pass
/// over one set's slots — no pointer chasing, no allocator traffic.
///
/// # Examples
///
/// ```
/// use aapm_platform::cache::{Cache, CacheGeometry};
///
/// let mut l1 = Cache::new(CacheGeometry::pentium_m_l1d())?;
/// assert!(l1.access(0x1000).is_miss());
/// assert!(!l1.access(0x1000).is_miss()); // same line now resident
/// # Ok::<(), aapm_platform::error::PlatformError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    geometry: CacheGeometry,
    /// `sets × ways` tag slots; set `s` owns `tags[s*ways .. (s+1)*ways]`,
    /// with the first `lens[s]` slots resident in MRU→LRU order.
    tags: Vec<u64>,
    /// Occupied-slot count per set (`lens[s] <= ways`).
    lens: Vec<u32>,
    stats: CacheStats,
    line_shift: u32,
    set_mask: u64,
    /// `log2(sets)`: a line's tag is its number above the set-index bits.
    set_bits: u32,
}

impl Cache {
    /// Creates a cache with the given geometry.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidCacheGeometry`] if the geometry fails
    /// [`CacheGeometry::validate`].
    pub fn new(geometry: CacheGeometry) -> Result<Self> {
        geometry.validate()?;
        let sets = geometry.sets();
        Ok(Cache {
            geometry,
            tags: vec![0; sets * geometry.ways],
            lens: vec![0; sets],
            stats: CacheStats::default(),
            line_shift: geometry.line_bytes.trailing_zeros(),
            set_mask: (sets as u64) - 1,
            set_bits: sets.trailing_zeros(),
        })
    }

    /// The cache geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (contents are kept; use [`Cache::flush`] for both).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Empties the cache and resets statistics.
    pub fn flush(&mut self) {
        self.lens.fill(0);
        self.stats = CacheStats::default();
    }

    /// Accesses the byte address `addr`, returning hit or miss.
    #[inline]
    pub fn access(&mut self, addr: u64) -> AccessResult {
        self.access_line(addr >> self.line_shift)
    }

    /// Accesses line number `line`, the byte address shifted right by
    /// `log2(line_bytes)`, returning hit or miss.
    #[inline]
    pub(crate) fn access_line(&mut self, line: u64) -> AccessResult {
        let set_index = (line & self.set_mask) as usize;
        let tag = line >> self.set_bits;
        let ways = self.geometry.ways;
        let len = self.lens[set_index] as usize;
        let set = &mut self.tags[set_index * ways..(set_index + 1) * ways];
        if len > 0 && set[0] == tag {
            self.stats.hits += 1;
            return AccessResult::Hit;
        }
        // One pass MRU→LRU slides each resident tag down a slot and carries
        // the one it displaces, so finding the tag also promotes it to MRU.
        let mut carry = tag;
        for slot in &mut set[..len] {
            carry = std::mem::replace(slot, carry);
            if carry == tag {
                self.stats.hits += 1;
                return AccessResult::Hit;
            }
        }
        // Miss: the new tag is MRU and the old LRU tag, still carried, takes
        // the next free slot or falls off a full set.
        if len < ways {
            set[len] = carry;
            self.lens[set_index] = (len + 1) as u32;
        }
        self.stats.misses += 1;
        AccessResult::Miss
    }

    /// Returns `true` if the line containing `addr` is resident, without
    /// disturbing LRU state or statistics.
    pub fn probe(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set_index = (line & self.set_mask) as usize;
        let tag = line >> self.set_bits;
        let ways = self.geometry.ways;
        let len = self.lens[set_index] as usize;
        self.tags[set_index * ways..set_index * ways + len].contains(&tag)
    }

    /// Number of lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        // 4 sets × 2 ways × 64 B lines = 512 B.
        Cache::new(CacheGeometry { capacity_bytes: 512, line_bytes: 64, ways: 2 }).unwrap()
    }

    #[test]
    fn geometry_validation_rejects_bad_shapes() {
        assert!(CacheGeometry { capacity_bytes: 0, line_bytes: 64, ways: 2 }.validate().is_err());
        assert!(CacheGeometry { capacity_bytes: 512, line_bytes: 48, ways: 2 }.validate().is_err());
        assert!(CacheGeometry { capacity_bytes: 512, line_bytes: 64, ways: 0 }.validate().is_err());
        assert!(CacheGeometry { capacity_bytes: 500, line_bytes: 64, ways: 2 }.validate().is_err());
        assert!(CacheGeometry::pentium_m_l1d().validate().is_ok());
        assert!(CacheGeometry::pentium_m_l2().validate().is_ok());
    }

    #[test]
    fn pentium_m_geometries() {
        assert_eq!(CacheGeometry::pentium_m_l1d().sets(), 64);
        assert_eq!(CacheGeometry::pentium_m_l2().sets(), 4096);
    }

    #[test]
    fn first_touch_misses_second_hits() {
        let mut c = small_cache();
        assert_eq!(c.access(0x0), AccessResult::Miss);
        assert_eq!(c.access(0x0), AccessResult::Hit);
        assert_eq!(c.access(0x3f), AccessResult::Hit, "same 64B line");
        assert_eq!(c.access(0x40), AccessResult::Miss, "next line");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small_cache();
        // Three lines mapping to set 0 in a 2-way cache: set stride is
        // 4 sets × 64 B = 256 B. The offset within a line does not matter.
        let a = 0x010;
        let b = 0x100;
        let d = 0x23f;
        c.access(a);
        c.access(b);
        c.access(a); // a is now MRU, b is LRU
        assert!(c.access(d).is_miss());
        assert!(c.probe(a));
        assert!(!c.probe(b), "b was least recently used");
        assert!(!c.probe(0x13f), "the whole of b's line left");
        assert!(c.probe(0x200) && c.probe(d));
    }

    #[test]
    fn working_set_within_capacity_converges_to_hits() {
        let mut c = Cache::new(CacheGeometry::pentium_m_l1d()).unwrap();
        let lines = 256; // 16 KB < 32 KB capacity
        for pass in 0..3 {
            for i in 0..lines {
                let result = c.access(i * 64);
                if pass > 0 {
                    assert_eq!(result, AccessResult::Hit, "pass {pass}, line {i}");
                }
            }
        }
    }

    #[test]
    fn working_set_beyond_capacity_thrashes_under_streaming() {
        let mut c = Cache::new(CacheGeometry::pentium_m_l1d()).unwrap();
        let lines = 1024; // 64 KB > 32 KB capacity, sequential sweep
        for _ in 0..3 {
            for i in 0..lines {
                c.access(i * 64);
            }
        }
        // With true LRU and a cyclic sweep of 2× capacity, every access
        // misses after warm-up.
        assert!(c.stats().miss_ratio() > 0.99);
    }

    #[test]
    fn probe_does_not_change_state() {
        let mut c = small_cache();
        c.access(0x0);
        let stats_before = *c.stats();
        assert!(c.probe(0x0));
        assert!(!c.probe(0x40));
        assert_eq!(*c.stats(), stats_before);
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = small_cache();
        c.access(0x0);
        c.access(0x40);
        assert_eq!(c.resident_lines(), 2);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.stats().accesses(), 0);
        assert_eq!(c.access(0x0), AccessResult::Miss);
    }

    #[test]
    fn miss_ratio_handles_empty_stats() {
        let stats = CacheStats::default();
        assert_eq!(stats.miss_ratio(), 0.0);
    }
}
