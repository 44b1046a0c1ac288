//! Whole-machine configuration.

use crate::dvfs::DvfsParams;
use crate::error::{PlatformError, Result};
use crate::pipeline::MemoryTimings;
use crate::power::{GroundTruthPower, PowerConstants};
use crate::pstate::{PStateId, PStateTable};
use crate::thermal::ThermalParams;

/// Configuration for a [`crate::machine::Machine`].
///
/// Construct with [`MachineConfig::builder`]. The default configuration is
/// the calibrated Pentium M 755 platform used throughout the reproduction.
///
/// # Examples
///
/// ```
/// use aapm_platform::config::MachineConfig;
///
/// let config = MachineConfig::builder().seed(7).build()?;
/// assert_eq!(config.pstates().len(), 8);
/// # Ok::<(), aapm_platform::error::PlatformError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MachineConfig {
    pstates: PStateTable,
    timings: MemoryTimings,
    power: GroundTruthPower,
    dvfs: DvfsParams,
    thermal: ThermalParams,
    initial_pstate: PStateId,
    seed: u64,
    execution_variation: f64,
}

impl MachineConfig {
    /// Starts building a configuration with Pentium M 755 defaults.
    pub fn builder() -> MachineConfigBuilder {
        MachineConfigBuilder::new()
    }

    /// The calibrated Pentium M 755 platform with the given noise seed.
    pub fn pentium_m_755(seed: u64) -> Self {
        MachineConfig::builder().seed(seed).build().expect("default config is valid")
    }

    /// The p-state table.
    pub fn pstates(&self) -> &PStateTable {
        &self.pstates
    }

    /// Memory timing parameters.
    pub fn timings(&self) -> &MemoryTimings {
        &self.timings
    }

    /// The ground-truth power model.
    pub fn power(&self) -> &GroundTruthPower {
        &self.power
    }

    /// DVFS transition parameters.
    pub fn dvfs(&self) -> &DvfsParams {
        &self.dvfs
    }

    /// Thermal-path parameters.
    pub fn thermal(&self) -> &ThermalParams {
        &self.thermal
    }

    /// P-state the machine boots in.
    pub fn initial_pstate(&self) -> PStateId {
        self.initial_pstate
    }

    /// Seed for all machine-level stochastic behaviour.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Relative run-to-run throughput variation (std-dev of a per-phase
    /// multiplicative factor). Models the "natural variation in execution
    /// time" the paper observes between repeated runs.
    pub fn execution_variation(&self) -> f64 {
        self.execution_variation
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::pentium_m_755(0)
    }
}

/// Builder for [`MachineConfig`].
#[derive(Debug, Clone)]
pub struct MachineConfigBuilder {
    pstates: PStateTable,
    initial_pstate: Option<PStateId>,
    seed: u64,
    execution_variation: f64,
}

impl MachineConfigBuilder {
    fn new() -> Self {
        MachineConfigBuilder {
            pstates: PStateTable::pentium_m_755(),
            initial_pstate: None,
            seed: 0,
            execution_variation: 0.004,
        }
    }

    /// Replaces the p-state table.
    pub fn pstates(&mut self, pstates: PStateTable) -> &mut Self {
        self.pstates = pstates;
        self
    }

    /// Sets the boot p-state (defaults to the highest).
    pub fn initial_pstate(&mut self, id: PStateId) -> &mut Self {
        self.initial_pstate = Some(id);
        self
    }

    /// Sets the machine noise seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Sets the run-to-run throughput variation (std-dev, `0 ≤ v < 0.1`).
    pub fn execution_variation(&mut self, variation: f64) -> &mut Self {
        self.execution_variation = variation;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidConfig`] if the initial p-state is
    /// outside the table or the execution variation is out of range.
    pub fn build(&self) -> Result<MachineConfig> {
        let initial = self.initial_pstate.unwrap_or_else(|| self.pstates.highest());
        if !self.pstates.contains(initial) {
            return Err(PlatformError::InvalidConfig {
                parameter: "initial_pstate",
                reason: format!("{initial} not in a table of {} states", self.pstates.len()),
            });
        }
        if !(0.0..0.1).contains(&self.execution_variation) {
            return Err(PlatformError::InvalidConfig {
                parameter: "execution_variation",
                reason: format!("must lie in [0, 0.1), got {}", self.execution_variation),
            });
        }
        Ok(MachineConfig {
            pstates: self.pstates.clone(),
            timings: MemoryTimings::pentium_m_755(),
            power: GroundTruthPower::new(PowerConstants::calibrated()),
            dvfs: DvfsParams::enhanced_speedstep(),
            thermal: ThermalParams::pentium_m_mobile(),
            initial_pstate: initial,
            seed: self.seed,
            execution_variation: self.execution_variation,
        })
    }
}

impl Default for MachineConfigBuilder {
    fn default() -> Self {
        MachineConfigBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_boots_at_highest_pstate() {
        let config = MachineConfig::default();
        assert_eq!(config.initial_pstate(), config.pstates().highest());
    }

    #[test]
    fn invalid_initial_pstate_rejected() {
        let err = MachineConfig::builder()
            .initial_pstate(PStateId::new(99))
            .build()
            .unwrap_err();
        assert!(matches!(err, PlatformError::InvalidConfig { parameter: "initial_pstate", .. }));
    }

    #[test]
    fn invalid_variation_rejected() {
        assert!(MachineConfig::builder().execution_variation(0.5).build().is_err());
        assert!(MachineConfig::builder().execution_variation(-0.1).build().is_err());
        assert!(MachineConfig::builder().execution_variation(0.0).build().is_ok());
    }
}
