//! Frequency-independent workload phase descriptors.
//!
//! The machine model executes workloads described as sequences of *phases*.
//! A phase captures everything about a region of execution that does not
//! depend on the operating p-state: instruction count, the core's no-miss
//! CPI, speculation (decode-to-retire ratio), per-instruction cache traffic,
//! and how much DRAM-miss latency the core can overlap. Given a phase and a
//! p-state, [`crate::pipeline`] derives cycle-accurate *rates* (IPC, DPC,
//! stall cycles, …) and [`crate::power`] derives true power.

use crate::error::{PlatformError, Result};

/// Intrinsic, frequency-independent description of one execution phase.
///
/// Construct with [`PhaseDescriptor::builder`]; the builder validates all
/// invariants listed on each field.
///
/// # Examples
///
/// ```
/// use aapm_platform::phase::PhaseDescriptor;
///
/// let phase = PhaseDescriptor::builder("compute")
///     .instructions(1_000_000)
///     .core_cpi(0.8)
///     .decode_ratio(1.2)
///     .build()?;
/// assert_eq!(phase.name(), "compute");
/// # Ok::<(), aapm_platform::error::PlatformError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDescriptor {
    name: String,
    instructions: u64,
    core_cpi: f64,
    decode_ratio: f64,
    fp_fraction: f64,
    mem_fraction: f64,
    l1_mpi: f64,
    l2_mpi: f64,
    overlap: f64,
    activity: f64,
    branch_fraction: f64,
    mispredict_rate: f64,
    prefetch_per_inst: f64,
}

impl PhaseDescriptor {
    /// Starts building a phase with the given name.
    pub fn builder(name: impl Into<String>) -> PhaseDescriptorBuilder {
        PhaseDescriptorBuilder::new(name)
    }

    /// Name of the phase (for traces and diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Retired-instruction budget of the phase.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Cycles per instruction with a perfect (always-hitting) memory system.
    pub fn core_cpi(&self) -> f64 {
        self.core_cpi
    }

    /// Decoded-to-retired instruction ratio (≥ 1); captures speculative work
    /// that is decoded but squashed before retirement.
    pub fn decode_ratio(&self) -> f64 {
        self.decode_ratio
    }

    /// Fraction of retired instructions that are floating-point operations.
    pub fn fp_fraction(&self) -> f64 {
        self.fp_fraction
    }

    /// Fraction of retired instructions that access memory (loads + stores).
    pub fn mem_fraction(&self) -> f64 {
        self.mem_fraction
    }

    /// L1 data-cache misses per retired instruction (these become L2
    /// requests).
    pub fn l1_mpi(&self) -> f64 {
        self.l1_mpi
    }

    /// L2 misses per retired instruction (these become DRAM requests).
    pub fn l2_mpi(&self) -> f64 {
        self.l2_mpi
    }

    /// Fraction of DRAM-miss latency hidden by memory-level parallelism and
    /// prefetching, in `[0, 1)`. High overlap makes a workload *look*
    /// memory-bound to the DCU counter while scaling like a core-bound one —
    /// the mechanism behind the paper's `art`/`mcf` model errors.
    pub fn overlap(&self) -> f64 {
        self.overlap
    }

    /// Switching-activity scale factor for dynamic power (1.0 = nominal).
    pub fn activity(&self) -> f64 {
        self.activity
    }

    /// Fraction of retired instructions that are branches.
    pub fn branch_fraction(&self) -> f64 {
        self.branch_fraction
    }

    /// Mispredictions per retired branch.
    pub fn mispredict_rate(&self) -> f64 {
        self.mispredict_rate
    }

    /// Hardware prefetches issued per retired instruction.
    pub fn prefetch_per_inst(&self) -> f64 {
        self.prefetch_per_inst
    }

    /// Returns a copy of this phase with a different instruction budget.
    /// Useful for scaling workload length without re-deriving intrinsics.
    pub fn with_instructions(&self, instructions: u64) -> PhaseDescriptor {
        PhaseDescriptor { instructions, ..self.clone() }
    }
}

/// Builder for [`PhaseDescriptor`]; see [`PhaseDescriptor::builder`].
#[derive(Debug, Clone)]
pub struct PhaseDescriptorBuilder {
    name: String,
    instructions: u64,
    core_cpi: f64,
    decode_ratio: f64,
    fp_fraction: f64,
    mem_fraction: f64,
    l1_mpi: f64,
    l2_mpi: f64,
    overlap: f64,
    activity: f64,
    branch_fraction: f64,
    mispredict_rate: f64,
    prefetch_per_inst: f64,
}

impl PhaseDescriptorBuilder {
    fn new(name: impl Into<String>) -> Self {
        PhaseDescriptorBuilder {
            name: name.into(),
            instructions: 1_000_000,
            core_cpi: 1.0,
            decode_ratio: 1.1,
            fp_fraction: 0.0,
            mem_fraction: 0.3,
            l1_mpi: 0.0,
            l2_mpi: 0.0,
            overlap: 0.0,
            activity: 1.0,
            branch_fraction: 0.12,
            mispredict_rate: 0.03,
            prefetch_per_inst: 0.0,
        }
    }

    /// Sets the retired-instruction budget.
    pub fn instructions(&mut self, instructions: u64) -> &mut Self {
        self.instructions = instructions;
        self
    }

    /// Sets the no-miss core CPI (> 0).
    pub fn core_cpi(&mut self, core_cpi: f64) -> &mut Self {
        self.core_cpi = core_cpi;
        self
    }

    /// Sets the decoded-to-retired ratio (≥ 1).
    pub fn decode_ratio(&mut self, decode_ratio: f64) -> &mut Self {
        self.decode_ratio = decode_ratio;
        self
    }

    /// Sets the floating-point instruction fraction (in `[0, 1]`).
    pub fn fp_fraction(&mut self, fp_fraction: f64) -> &mut Self {
        self.fp_fraction = fp_fraction;
        self
    }

    /// Sets the memory-access instruction fraction (in `[0, 1]`).
    pub fn mem_fraction(&mut self, mem_fraction: f64) -> &mut Self {
        self.mem_fraction = mem_fraction;
        self
    }

    /// Sets L1 misses per instruction (≥ 0, ≤ `mem_fraction` + prefetches).
    pub fn l1_mpi(&mut self, l1_mpi: f64) -> &mut Self {
        self.l1_mpi = l1_mpi;
        self
    }

    /// Sets L2 misses per instruction (≥ 0, ≤ L1 misses per instruction).
    pub fn l2_mpi(&mut self, l2_mpi: f64) -> &mut Self {
        self.l2_mpi = l2_mpi;
        self
    }

    /// Sets the DRAM-latency overlap factor (in `[0, 1)`).
    pub fn overlap(&mut self, overlap: f64) -> &mut Self {
        self.overlap = overlap;
        self
    }

    /// Sets the switching-activity scale (> 0, nominally 1.0).
    pub fn activity(&mut self, activity: f64) -> &mut Self {
        self.activity = activity;
        self
    }

    /// Sets the branch instruction fraction (in `[0, 1]`).
    pub fn branch_fraction(&mut self, branch_fraction: f64) -> &mut Self {
        self.branch_fraction = branch_fraction;
        self
    }

    /// Sets mispredictions per branch (in `[0, 1]`).
    pub fn mispredict_rate(&mut self, mispredict_rate: f64) -> &mut Self {
        self.mispredict_rate = mispredict_rate;
        self
    }

    /// Sets hardware prefetches per instruction (≥ 0).
    pub fn prefetch_per_inst(&mut self, prefetch_per_inst: f64) -> &mut Self {
        self.prefetch_per_inst = prefetch_per_inst;
        self
    }

    /// Validates the configuration and produces the phase.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidPhase`] when any field violates its
    /// documented range, when misses exceed the accesses that could produce
    /// them, or when the instruction budget is zero.
    pub fn build(&self) -> Result<PhaseDescriptor> {
        let fail = |reason: String| {
            Err(PlatformError::InvalidPhase { phase: self.name.clone(), reason })
        };
        if self.instructions == 0 {
            return fail("instruction budget must be positive".into());
        }
        if !(self.core_cpi.is_finite() && self.core_cpi > 0.0) {
            return fail(format!("core CPI must be positive, got {}", self.core_cpi));
        }
        if !(self.decode_ratio.is_finite() && self.decode_ratio >= 1.0) {
            return fail(format!("decode ratio must be >= 1, got {}", self.decode_ratio));
        }
        for (value, label) in [
            (self.fp_fraction, "fp fraction"),
            (self.mem_fraction, "memory fraction"),
            (self.branch_fraction, "branch fraction"),
            (self.mispredict_rate, "mispredict rate"),
        ] {
            if !(0.0..=1.0).contains(&value) || !value.is_finite() {
                return fail(format!("{label} must lie in [0, 1], got {value}"));
            }
        }
        if !(self.l1_mpi.is_finite() && self.l1_mpi >= 0.0) {
            return fail(format!("l1 misses per instruction must be >= 0, got {}", self.l1_mpi));
        }
        if !(self.l2_mpi.is_finite() && self.l2_mpi >= 0.0) {
            return fail(format!("l2 misses per instruction must be >= 0, got {}", self.l2_mpi));
        }
        if self.l2_mpi > self.l1_mpi + self.prefetch_per_inst + 1e-12 {
            return fail(format!(
                "l2 misses per instruction ({}) cannot exceed l2 accesses \
                 (l1 misses {} + prefetches {})",
                self.l2_mpi, self.l1_mpi, self.prefetch_per_inst
            ));
        }
        if self.l1_mpi > self.mem_fraction + 1e-12 {
            return fail(format!(
                "l1 misses per instruction ({}) cannot exceed memory accesses \
                 per instruction ({})",
                self.l1_mpi, self.mem_fraction
            ));
        }
        if !(0.0..1.0).contains(&self.overlap) {
            return fail(format!("overlap must lie in [0, 1), got {}", self.overlap));
        }
        if !(self.activity.is_finite() && self.activity > 0.0) {
            return fail(format!("activity must be positive, got {}", self.activity));
        }
        if !(self.prefetch_per_inst.is_finite() && self.prefetch_per_inst >= 0.0) {
            return fail(format!("prefetches per instruction must be >= 0, got {}", self.prefetch_per_inst));
        }
        Ok(PhaseDescriptor {
            name: self.name.clone(),
            instructions: self.instructions,
            core_cpi: self.core_cpi,
            decode_ratio: self.decode_ratio,
            fp_fraction: self.fp_fraction,
            mem_fraction: self.mem_fraction,
            l1_mpi: self.l1_mpi,
            l2_mpi: self.l2_mpi,
            overlap: self.overlap,
            activity: self.activity,
            branch_fraction: self.branch_fraction,
            mispredict_rate: self.mispredict_rate,
            prefetch_per_inst: self.prefetch_per_inst,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_build_successfully() {
        let phase = PhaseDescriptor::builder("default").build().unwrap();
        assert_eq!(phase.name(), "default");
        assert!(phase.instructions() > 0);
        assert!(phase.decode_ratio() >= 1.0);
    }

    #[test]
    fn zero_instructions_rejected() {
        let err = PhaseDescriptor::builder("p").instructions(0).build().unwrap_err();
        assert!(matches!(err, PlatformError::InvalidPhase { .. }));
    }

    #[test]
    fn decode_ratio_below_one_rejected() {
        assert!(PhaseDescriptor::builder("p").decode_ratio(0.9).build().is_err());
    }

    #[test]
    fn miss_rates_must_nest() {
        // L2 misses cannot exceed L2 accesses (L1 misses + prefetches).
        assert!(PhaseDescriptor::builder("p")
            .mem_fraction(0.5)
            .l1_mpi(0.01)
            .l2_mpi(0.05)
            .build()
            .is_err());
        // L1 misses cannot exceed memory accesses.
        assert!(PhaseDescriptor::builder("p")
            .mem_fraction(0.01)
            .l1_mpi(0.1)
            .build()
            .is_err());
        // Prefetches can carry L2 misses beyond demand L1 misses.
        assert!(PhaseDescriptor::builder("p")
            .mem_fraction(0.5)
            .l1_mpi(0.01)
            .prefetch_per_inst(0.05)
            .l2_mpi(0.05)
            .build()
            .is_ok());
    }

    #[test]
    fn overlap_must_be_below_one() {
        assert!(PhaseDescriptor::builder("p").overlap(1.0).build().is_err());
        assert!(PhaseDescriptor::builder("p").overlap(0.95).build().is_ok());
    }

    #[test]
    fn fractions_must_be_in_unit_interval() {
        assert!(PhaseDescriptor::builder("p").fp_fraction(1.5).build().is_err());
        assert!(PhaseDescriptor::builder("p").mem_fraction(-0.1).build().is_err());
        assert!(PhaseDescriptor::builder("p").mispredict_rate(2.0).build().is_err());
    }

    #[test]
    fn with_instructions_preserves_other_fields() {
        let phase = PhaseDescriptor::builder("p")
            .core_cpi(0.7)
            .overlap(0.4)
            .build()
            .unwrap();
        let scaled = phase.with_instructions(42);
        assert_eq!(scaled.instructions(), 42);
        assert_eq!(scaled.core_cpi(), phase.core_cpi());
        assert_eq!(scaled.overlap(), phase.overlap());
    }
}
