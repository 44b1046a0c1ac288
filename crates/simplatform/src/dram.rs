//! DRAM timing model with open-page row-buffer behaviour.
//!
//! Models the DDR-333 main memory behind the Pentium M's 400 MT/s front-side
//! bus. Used during workload characterization to derive the *average* DRAM
//! latency a loop observes (row-buffer hits are cheaper than conflicts), and
//! as the source of the `dram_latency_ns` constant in
//! [`crate::pipeline::MemoryTimings`].

/// Timing parameters of the DRAM device + controller + front-side bus path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramTimings {
    /// Latency when the access hits an open row (CAS + bus + controller).
    pub row_hit_ns: f64,
    /// Latency when the row must first be activated (RCD + CAS + bus).
    pub row_empty_ns: f64,
    /// Latency when another row must be closed first (RP + RCD + CAS + bus).
    pub row_conflict_ns: f64,
    /// Row (page) size in bytes.
    pub row_bytes: u64,
    /// Number of independent banks.
    pub banks: usize,
}

impl DramTimings {
    /// DDR-333-class timings over a 400 MT/s FSB, tuned so the *mixed*
    /// average latency lands near the 110 ns used by the analytic model.
    pub fn ddr333() -> Self {
        DramTimings {
            row_hit_ns: 80.0,
            row_empty_ns: 110.0,
            row_conflict_ns: 145.0,
            row_bytes: 4096,
            banks: 8,
        }
    }
}

impl Default for DramTimings {
    fn default() -> Self {
        DramTimings::ddr333()
    }
}

/// Outcome of one DRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowBufferOutcome {
    /// The addressed row was already open in its bank.
    Hit,
    /// The bank had no open row.
    Empty,
    /// A different row was open and had to be closed.
    Conflict,
}

/// Aggregate DRAM access statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DramStats {
    /// Row-buffer hits.
    pub hits: u64,
    /// Accesses to idle banks.
    pub empties: u64,
    /// Row conflicts.
    pub conflicts: u64,
    /// Sum of access latencies in nanoseconds.
    pub total_latency_ns: f64,
}

impl DramStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.empties + self.conflicts
    }

    /// Mean access latency in nanoseconds (0 with no accesses).
    pub fn mean_latency_ns(&self) -> f64 {
        let n = self.accesses();
        if n == 0 {
            0.0
        } else {
            self.total_latency_ns / n as f64
        }
    }

    /// Row-buffer hit ratio (0 with no accesses).
    pub fn hit_ratio(&self) -> f64 {
        let n = self.accesses();
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }
}

/// Open-page DRAM model: each bank remembers its open row.
///
/// # Examples
///
/// ```
/// use aapm_platform::dram::{Dram, DramTimings};
///
/// let mut dram = Dram::new(DramTimings::ddr333());
/// let first = dram.access(0x0000);   // row activate
/// let second = dram.access(0x0040);  // same row: row-buffer hit
/// assert!(second < first);
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    timings: DramTimings,
    open_rows: Vec<Option<u64>>,
    stats: DramStats,
    /// `log2(row_bytes)` when the row size is a power of two, so a row
    /// number is a shift instead of a division.
    row_shift: Option<u32>,
    /// `banks − 1` when the bank count is a power of two, so a bank is a
    /// mask instead of a remainder.
    bank_mask: Option<usize>,
}

impl Dram {
    /// Creates a DRAM model with all banks idle.
    pub fn new(timings: DramTimings) -> Self {
        Dram {
            open_rows: vec![None; timings.banks],
            timings,
            stats: DramStats::default(),
            row_shift: timings
                .row_bytes
                .is_power_of_two()
                .then(|| timings.row_bytes.trailing_zeros()),
            bank_mask: timings.banks.is_power_of_two().then(|| timings.banks - 1),
        }
    }

    /// The timing parameters.
    pub fn timings(&self) -> &DramTimings {
        &self.timings
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Closes all rows and clears statistics.
    pub fn reset(&mut self) {
        for row in &mut self.open_rows {
            *row = None;
        }
        self.stats = DramStats::default();
    }

    /// Accesses `addr` and returns the latency in nanoseconds.
    #[inline]
    pub fn access(&mut self, addr: u64) -> f64 {
        let row = match self.row_shift {
            Some(shift) => addr >> shift,
            None => addr / self.timings.row_bytes,
        };
        // Interleave consecutive rows across banks.
        let bank = match self.bank_mask {
            Some(mask) => row as usize & mask,
            None => row as usize % self.timings.banks,
        };
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_stream_mostly_row_hits() {
        let mut dram = Dram::new(DramTimings::ddr333());
        for addr in (0..1 << 20).step_by(64) {
            dram.access(addr);
        }
        // 4096/64 = 64 accesses per row; 1 activation per row.
        assert!(dram.stats().hit_ratio() > 0.95, "hit ratio {}", dram.stats().hit_ratio());
        assert!(dram.stats().mean_latency_ns() < 90.0);
    }

    #[test]
    fn random_stream_sees_conflicts() {
        let mut dram = Dram::new(DramTimings::ddr333());
        // A deterministic scattered pattern: large prime stride wraps around
        // a 256 MB space, touching a new row almost every access.
        let mut addr: u64 = 0;
        for _ in 0..10_000 {
            addr = (addr + 7_368_787) % (256 << 20);
            dram.access(addr);
        }
        assert!(dram.stats().hit_ratio() < 0.1, "hit ratio {}", dram.stats().hit_ratio());
        assert!(dram.stats().mean_latency_ns() > 120.0);
    }

    #[test]
    fn first_access_to_bank_is_empty() {
        let mut dram = Dram::new(DramTimings::ddr333());
        let lat = dram.access(0);
        assert_eq!(lat, DramTimings::ddr333().row_empty_ns);
        assert_eq!(dram.stats().empties, 1);
    }

    #[test]
    fn same_row_hits_then_conflict() {
        let t = DramTimings::ddr333();
        let mut dram = Dram::new(t);
        dram.access(0); // open row 0 in bank 0
        assert_eq!(dram.access(64), t.row_hit_ns);
        // Row `banks` maps back to bank 0 but is a different row.
        let conflicting = t.row_bytes * t.banks as u64;
        assert_eq!(dram.access(conflicting), t.row_conflict_ns);
        assert_eq!(dram.stats().conflicts, 1);
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut dram = Dram::new(DramTimings::ddr333());
        dram.access(0);
        dram.access(64);
        dram.reset();
        assert_eq!(dram.stats().accesses(), 0);
        assert_eq!(dram.access(64), DramTimings::ddr333().row_empty_ns);
    }

    #[test]
    fn mean_latency_of_empty_stats_is_zero() {
        assert_eq!(DramStats::default().mean_latency_ns(), 0.0);
    }
}
