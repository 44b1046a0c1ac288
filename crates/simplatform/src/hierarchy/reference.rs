//! The division-based, MRU-ordered hierarchy the line-granular kernel
//! replaced, kept as the oracle its property test compares against.
//!
//! Every access method here is the earlier implementation verbatim: a
//! `count_ones` and a `copy_within` per cache access, a division for the
//! prefetcher's line number, and a division and a remainder for the DRAM
//! row and bank. Only construction and the statistics accessors are
//! reduced to what the comparison needs.

use super::{HierarchyStats, PrefetchConfig, PrefetchEngine, ServiceLevel};
use crate::cache::{AccessResult, CacheGeometry, CacheStats};
use crate::dram::{DramStats, DramTimings, RowBufferOutcome};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Cache {
    geometry: CacheGeometry,
    tags: Vec<u64>,
    lens: Vec<u32>,
    stats: CacheStats,
    line_shift: u32,
    set_mask: u64,
}

impl Cache {
    fn new(geometry: CacheGeometry) -> Self {
        geometry.validate().expect("drawn geometries are valid");
        let sets = geometry.sets();
        Cache {
            geometry,
            tags: vec![0; sets * geometry.ways],
            lens: vec![0; sets],
            stats: CacheStats::default(),
            line_shift: geometry.line_bytes.trailing_zeros(),
            set_mask: (sets as u64) - 1,
        }
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn access(&mut self, addr: u64) -> AccessResult {
        self.access_with_eviction(addr).0
    }

    fn access_with_eviction(&mut self, addr: u64) -> (AccessResult, Option<u64>) {
        let line = addr >> self.line_shift;
        let set_index = (line & self.set_mask) as usize;
        let tag = line >> self.set_mask.count_ones();
        let ways = self.geometry.ways;
        let len = self.lens[set_index] as usize;
        let set = &mut self.tags[set_index * ways..(set_index + 1) * ways];

        if let Some(pos) = set[..len].iter().position(|&t| t == tag) {
            // Promote to MRU: slide [0, pos) down one slot.
            set.copy_within(0..pos, 1);
            set[0] = tag;
            self.stats.hits += 1;
            return (AccessResult::Hit, None);
        }

        // Miss: the LRU slot falls off a full set, everything else slides
        // down one, and the new tag lands in the MRU slot.
        let evicted_tag = if len == ways { Some(set[ways - 1]) } else { None };
        set.copy_within(0..len.min(ways - 1), 1);
        set[0] = tag;
        if len < ways {
            self.lens[set_index] = (len + 1) as u32;
        }
        self.stats.misses += 1;
        let evicted_addr = evicted_tag.map(|t| {
            ((t << self.set_mask.count_ones()) | set_index as u64) << self.line_shift
        });
        (AccessResult::Miss, evicted_addr)
    }
}

#[derive(Debug, Clone)]
struct Dram {
    timings: DramTimings,
    open_rows: Vec<Option<u64>>,
    stats: DramStats,
}

impl Dram {
    fn access(&mut self, addr: u64) -> f64 {
        let row = addr / self.timings.row_bytes;
        // Interleave consecutive rows across banks.
        let bank = (row as usize) % self.timings.banks;
        let (outcome, latency) = match self.open_rows[bank] {
            Some(open) if open == row => (RowBufferOutcome::Hit, self.timings.row_hit_ns),
            Some(_) => (RowBufferOutcome::Conflict, self.timings.row_conflict_ns),
            None => (RowBufferOutcome::Empty, self.timings.row_empty_ns),
        };
        self.open_rows[bank] = Some(row);
        match outcome {
            RowBufferOutcome::Hit => self.stats.hits += 1,
            RowBufferOutcome::Empty => self.stats.empties += 1,
            RowBufferOutcome::Conflict => self.stats.conflicts += 1,
        }
        self.stats.total_latency_ns += latency;
        latency
    }
}

/// The reference L1 + L2 + DRAM hierarchy.
#[derive(Debug, Clone)]
struct MemoryHierarchy {
    l1: Cache,
    l2: Cache,
    dram: Dram,
    stats: HierarchyStats,
    prefetcher: Option<PrefetchEngine>,
    line_bytes: u64,
}

impl MemoryHierarchy {
    fn new(
        l1: CacheGeometry,
        l2: CacheGeometry,
        dram: DramTimings,
        prefetch: Option<PrefetchConfig>,
    ) -> Self {
        MemoryHierarchy {
            line_bytes: l1.line_bytes as u64,
            l1: Cache::new(l1),
            l2: Cache::new(l2),
            dram: Dram {
                open_rows: vec![None; dram.banks],
                timings: dram,
                stats: DramStats::default(),
            },
            stats: HierarchyStats::default(),
            prefetcher: prefetch.map(PrefetchEngine::new),
        }
    }

    fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    fn dram_stats(&self) -> &DramStats {
        &self.dram.stats
    }

    fn access(&mut self, addr: u64) -> ServiceLevel {
        self.stats.accesses += 1;
        let level = if !self.l1.access(addr).is_miss() {
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
        self.run_prefetcher(addr);
        level
    }

    fn run_prefetcher(&mut self, addr: u64) {
        let Some(engine) = self.prefetcher.as_mut() else { return };
        let line = addr / self.line_bytes;
        let Some((start, end)) = engine.on_access(line) else { return };
        self.stats.prefetches_issued += end - start + 1;
        for target_line in start..=end {
            let target_addr = target_line * self.line_bytes;
            // Fill L2 first; if absent there, the fill comes from DRAM.
            if self.l2.access(target_addr).is_miss() {
                self.dram.access(target_addr);
                self.stats.prefetch_dram_fills += 1;
            }
            self.l1.access(target_addr);
        }
    }
}

/// The stats fields as bits, so a float that moves by one ulp shows.
fn bits(s: &HierarchyStats) -> [u64; 7] {
    [
        s.accesses,
        s.l1_hits,
        s.l2_hits,
        s.dram_accesses,
        s.mean_dram_latency_ns.to_bits(),
        s.prefetches_issued,
        s.prefetch_dram_fills,
    ]
}

fn dram_bits(s: &DramStats) -> [u64; 4] {
    [s.hits, s.empties, s.conflicts, s.total_latency_ns.to_bits()]
}

/// 1–16 ways, 1–128 sets and 16–256 B lines, each a power of two except
/// the ways.
fn geometry(line_bytes: impl Strategy<Value = usize>) -> impl Strategy<Value = CacheGeometry> {
    (line_bytes, 0u32..8, 1usize..17).prop_map(|(line_bytes, log_sets, ways)| CacheGeometry {
        capacity_bytes: (1usize << log_sets) * ways * line_bytes,
        line_bytes,
        ways,
    })
}

fn line_bytes() -> impl Strategy<Value = usize> {
    (4u32..9).prop_map(|log| 1usize << log)
}

/// L1 and L2 geometries, half of them with one line size for both.
fn geometries() -> impl Strategy<Value = (CacheGeometry, CacheGeometry)> {
    prop_oneof![
        line_bytes().prop_flat_map(|line| (geometry(Just(line)), geometry(Just(line)))),
        (geometry(line_bytes()), geometry(line_bytes())),
    ]
}

/// Row sizes and bank counts, powers of two or not.
fn timings() -> impl Strategy<Value = DramTimings> {
    let row_bytes = prop_oneof![(0u32..14).prop_map(|log| 1u64 << log), 1u64..10_000];
    (row_bytes, 1usize..17, 20.0f64..100.0, 0.0f64..80.0, 0.0f64..80.0).prop_map(
        |(row_bytes, banks, row_hit_ns, empty_extra, conflict_extra)| DramTimings {
            row_hit_ns,
            row_empty_ns: row_hit_ns + empty_extra,
            row_conflict_ns: row_hit_ns + empty_extra + conflict_extra,
            row_bytes,
            banks,
        },
    )
}

fn prefetch() -> impl Strategy<Value = Option<PrefetchConfig>> {
    prop_oneof![
        1 => Just(None),
        3 => (0u32..4, 0usize..4)
            .prop_map(|(trigger_streak, degree)| Some(PrefetchConfig { trigger_streak, degree })),
    ]
}

/// Sequential runs, same-line repeats, strided cycles over lines that
/// alias one set, and random addresses, concatenated.
fn stream() -> impl Strategy<Value = Vec<u64>> {
    let segment = prop_oneof![
        (0u64..1 << 24, 1u64..300, 1u64..3)
            .prop_map(|(base, n, step)| (0..n).map(|i| base + 8 * step * i).collect::<Vec<_>>()),
        (0u64..1 << 24, 1usize..20).prop_map(|(addr, n)| vec![addr; n]),
        (0u64..1 << 24, 4u32..20, 1u64..24, 1u64..200).prop_map(|(base, log_stride, lines, n)| {
            (0..n).map(|i| base + ((i % lines) << log_stride)).collect()
        }),
        prop::collection::vec(0u64..1 << 40, 1..100),
    ];
    prop::collection::vec(segment, 1..24).prop_map(|segments| segments.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The line-granular kernel serves every access from the level the
    /// reference does, and ends with the same statistics, bit for bit.
    #[test]
    fn kernel_matches_the_reference(
        levels in geometries(),
        timings in timings(),
        prefetch in prefetch(),
        stream in stream(),
    ) {
        let (l1, l2) = levels;
        let mut kernel = super::MemoryHierarchy::new(l1, l2, timings).unwrap();
        if let Some(config) = prefetch {
            kernel = kernel.with_prefetcher(config);
        }
        let mut oracle = MemoryHierarchy::new(l1, l2, timings, prefetch);
        for (i, &addr) in stream.iter().enumerate() {
            prop_assert_eq!(
                kernel.access(addr),
                oracle.access(addr),
                "access {} at {:#x} with {:?} / {:?} / {:?} / {:?}",
                i, addr, l1, l2, timings, prefetch
            );
        }
        prop_assert_eq!(bits(kernel.stats()), bits(oracle.stats()));
        prop_assert_eq!(kernel.l1().stats(), oracle.l1.stats());
        prop_assert_eq!(kernel.l2().stats(), oracle.l2.stats());
        prop_assert_eq!(dram_bits(kernel.dram.stats()), dram_bits(oracle.dram_stats()));
    }
}
