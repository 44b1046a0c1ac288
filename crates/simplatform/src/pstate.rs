//! ACPI-style processor performance states (p-states).
//!
//! A p-state is a (frequency, voltage) operating point. The platform exposes
//! an ordered table of p-states; governors pick entries from the table, never
//! arbitrary frequencies — exactly as on the Pentium M 755 studied in the
//! paper, whose eight Enhanced SpeedStep operating points (600 MHz @ 0.998 V
//! … 2000 MHz @ 1.340 V) are reproduced by [`PStateTable::pentium_m_755`].

use std::fmt;

use crate::error::{PlatformError, Result};
use crate::units::{MegaHertz, Volts};

/// Index of a p-state within a [`PStateTable`].
///
/// Index 0 is the *lowest*-frequency state; higher indices are higher
/// frequency. The newtype prevents mixing table indices with other integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PStateId(usize);

impl PStateId {
    /// Creates an id from a raw index. Validity against a particular table is
    /// checked by [`PStateTable::get`].
    pub const fn new(index: usize) -> Self {
        PStateId(index)
    }

    /// Returns the raw table index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for PStateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A single voltage/frequency operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PState {
    frequency: MegaHertz,
    voltage: Volts,
}

impl PState {
    /// Creates a p-state from a frequency and the supply voltage used at that
    /// frequency.
    pub fn new(frequency: MegaHertz, voltage: Volts) -> Self {
        PState { frequency, voltage }
    }

    /// The core clock frequency of this operating point.
    pub fn frequency(&self) -> MegaHertz {
        self.frequency
    }

    /// The supply voltage of this operating point.
    pub fn voltage(&self) -> Volts {
        self.voltage
    }
}

impl fmt::Display for PState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {}", self.frequency, self.voltage)
    }
}

/// An ordered table of p-states, ascending in frequency and voltage.
///
/// # Examples
///
/// ```
/// use aapm_platform::pstate::PStateTable;
///
/// let table = PStateTable::pentium_m_755();
/// assert_eq!(table.len(), 8);
/// assert_eq!(table.highest().index(), 7);
/// assert_eq!(table.get(table.highest()).unwrap().frequency().mhz(), 2000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PStateTable {
    states: Vec<PState>,
}

impl PStateTable {
    /// Builds a table from a list of states.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidPStateTable`] if the list is empty, or
    /// if frequencies or voltages are not strictly increasing.
    pub fn new(states: Vec<PState>) -> Result<Self> {
        if states.is_empty() {
            return Err(PlatformError::InvalidPStateTable { reason: "table is empty".into() });
        }
        for pair in states.windows(2) {
            if pair[1].frequency <= pair[0].frequency {
                return Err(PlatformError::InvalidPStateTable {
                    reason: format!(
                        "frequencies must be strictly increasing ({} then {})",
                        pair[0].frequency, pair[1].frequency
                    ),
                });
            }
            if pair[1].voltage.volts() <= pair[0].voltage.volts() {
                return Err(PlatformError::InvalidPStateTable {
                    reason: format!(
                        "voltages must be strictly increasing ({} then {})",
                        pair[0].voltage, pair[1].voltage
                    ),
                });
            }
        }
        Ok(PStateTable { states })
    }

    /// The eight Enhanced SpeedStep p-states of the Pentium M 755 (90 nm
    /// Dothan) used in the paper (its Table II).
    pub fn pentium_m_755() -> Self {
        let pairs: [(u32, f64); 8] = [
            (600, 0.998),
            (800, 1.052),
            (1000, 1.100),
            (1200, 1.148),
            (1400, 1.196),
            (1600, 1.244),
            (1800, 1.292),
            (2000, 1.340),
        ];
        let states = pairs
            .iter()
            .map(|&(mhz, v)| PState::new(MegaHertz::new(mhz), Volts::new(v)))
            .collect();
        PStateTable::new(states).expect("built-in table is valid")
    }

    /// Number of p-states in the table.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Returns `true` if the table has no entries. Never true for a
    /// successfully constructed table.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Looks up a p-state by id.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::UnknownPState`] if the id is out of range.
    pub fn get(&self, id: PStateId) -> Result<&PState> {
        self.states.get(id.index()).ok_or(PlatformError::UnknownPState {
            index: id.index(),
            table_len: self.states.len(),
        })
    }

    /// Returns `true` if `id` indexes a state in this table.
    pub fn contains(&self, id: PStateId) -> bool {
        id.index() < self.states.len()
    }

    /// The lowest-frequency p-state.
    pub fn lowest(&self) -> PStateId {
        PStateId(0)
    }

    /// The highest-frequency p-state.
    pub fn highest(&self) -> PStateId {
        PStateId(self.states.len() - 1)
    }

    /// Returns the id of the state one step slower than `id`, or `None` if
    /// `id` is already the lowest state.
    pub fn next_lower(&self, id: PStateId) -> Option<PStateId> {
        if id.index() == 0 || !self.contains(id) {
            None
        } else {
            Some(PStateId(id.index() - 1))
        }
    }

    /// Returns the id of the state one step faster than `id`, or `None` if
    /// `id` is already the highest state.
    pub fn next_higher(&self, id: PStateId) -> Option<PStateId> {
        if !self.contains(id) || id.index() + 1 >= self.states.len() {
            None
        } else {
            Some(PStateId(id.index() + 1))
        }
    }

    /// Finds the p-state with exactly the given frequency.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::UnknownFrequency`] if no state matches.
    pub fn id_of_frequency(&self, frequency: MegaHertz) -> Result<PStateId> {
        self.states
            .iter()
            .position(|s| s.frequency == frequency)
            .map(PStateId)
            .ok_or(PlatformError::UnknownFrequency { frequency })
    }

    /// Iterates over `(id, state)` pairs from lowest to highest frequency.
    pub fn iter(&self) -> impl Iterator<Item = (PStateId, &PState)> {
        self.states.iter().enumerate().map(|(i, s)| (PStateId(i), s))
    }

    /// Iterates over `(id, state)` pairs from highest to lowest frequency,
    /// the order in which [`PerformanceMaximizer`]-style governors scan.
    ///
    /// [`PerformanceMaximizer`]: https://docs.rs/aapm
    pub fn iter_descending(&self) -> impl Iterator<Item = (PStateId, &PState)> {
        self.states.iter().enumerate().rev().map(|(i, s)| (PStateId(i), s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PStateTable {
        PStateTable::pentium_m_755()
    }

    #[test]
    fn pentium_m_table_matches_paper_table_ii() {
        let t = table();
        assert_eq!(t.len(), 8);
        let (id, lowest) = t.iter().next().unwrap();
        assert_eq!(id, t.lowest());
        assert_eq!(lowest.frequency().mhz(), 600);
        assert!((lowest.voltage().volts() - 0.998).abs() < 1e-9);
        let top = t.get(t.highest()).unwrap();
        assert_eq!(top.frequency().mhz(), 2000);
        assert!((top.voltage().volts() - 1.340).abs() < 1e-9);
    }

    #[test]
    fn empty_table_rejected() {
        assert!(matches!(
            PStateTable::new(vec![]),
            Err(PlatformError::InvalidPStateTable { .. })
        ));
    }

    #[test]
    fn non_monotone_frequency_rejected() {
        let states = vec![
            PState::new(MegaHertz::new(1000), Volts::new(1.0)),
            PState::new(MegaHertz::new(1000), Volts::new(1.1)),
        ];
        assert!(PStateTable::new(states).is_err());
    }

    #[test]
    fn non_monotone_voltage_rejected() {
        let states = vec![
            PState::new(MegaHertz::new(1000), Volts::new(1.1)),
            PState::new(MegaHertz::new(1200), Volts::new(1.1)),
        ];
        assert!(PStateTable::new(states).is_err());
    }

    #[test]
    fn get_out_of_range_errors() {
        let t = table();
        let err = t.get(PStateId::new(8)).unwrap_err();
        assert!(matches!(err, PlatformError::UnknownPState { index: 8, table_len: 8 }));
    }

    #[test]
    fn next_lower_and_higher_walk_the_table() {
        let t = table();
        assert_eq!(t.next_lower(t.lowest()), None);
        assert_eq!(t.next_higher(t.highest()), None);
        let mid = PStateId::new(3);
        assert_eq!(t.next_lower(mid), Some(PStateId::new(2)));
        assert_eq!(t.next_higher(mid), Some(PStateId::new(4)));
    }

    #[test]
    fn id_of_frequency_finds_exact_matches_only() {
        let t = table();
        let id = t.id_of_frequency(MegaHertz::new(1800)).unwrap();
        assert_eq!(t.get(id).unwrap().frequency().mhz(), 1800);
        assert!(t.id_of_frequency(MegaHertz::new(1700)).is_err());
    }

    #[test]
    fn descending_iteration_starts_at_max_frequency() {
        let t = table();
        let (first, state) = t.iter_descending().next().unwrap();
        assert_eq!(first, t.highest());
        assert_eq!(state.frequency().mhz(), 2000);
    }
}
