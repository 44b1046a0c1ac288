//! Microbenchmark characterization: address stream → phase descriptor.
//!
//! The paper's authors ran the MS-Loops on the instrumented Pentium M to
//! obtain stable counter and power samples. Here the equivalent step drives
//! each loop's address stream through the simulated cache hierarchy (with
//! the hardware prefetcher enabled, as on the real part) and converts the
//! measured demand-miss and prefetch rates into a [`PhaseDescriptor`] the
//! machine model can execute.

use aapm_platform::error::Result;
use aapm_platform::hierarchy::{HierarchyStats, MemoryHierarchy, PrefetchConfig};
use aapm_platform::phase::PhaseDescriptor;
use aapm_platform::program::PhaseProgram;

use crate::footprint::Footprint;
use crate::loops::MicroLoop;

/// Default retired-instruction budget for a characterized loop program:
/// long enough for hundreds of 10 ms samples at any p-state.
pub const DEFAULT_LOOP_INSTRUCTIONS: u64 = 2_000_000_000;

/// A characterized microbenchmark: the derived phase plus the raw hierarchy
/// measurements it came from.
#[derive(Debug, Clone)]
pub struct CharacterizedLoop {
    /// Which loop was characterized.
    pub microloop: MicroLoop,
    /// At which footprint.
    pub footprint: Footprint,
    /// The derived frequency-independent phase.
    pub phase: PhaseDescriptor,
    /// Raw measurements from the cache-hierarchy run.
    pub measurements: HierarchyStats,
}

impl CharacterizedLoop {
    /// Canonical name, e.g. `FMA-256KB`.
    pub fn name(&self) -> String {
        format!("{}-{}", self.microloop.name(), self.footprint)
    }

    /// A single-phase program executing this loop for the default budget.
    pub fn program(&self) -> PhaseProgram {
        PhaseProgram::from_phase(self.phase.clone())
    }
}

/// Characterizes `microloop` at `footprint` by cache simulation.
///
/// One warm-up pass populates the caches; two measured passes provide
/// steady-state demand miss rates and prefetch traffic. The returned phase
/// carries [`DEFAULT_LOOP_INSTRUCTIONS`] instructions.
///
/// # Errors
///
/// Propagates platform errors from hierarchy construction or phase
/// validation (neither occurs for the built-in loops).
pub fn characterize(microloop: MicroLoop, footprint: Footprint) -> Result<CharacterizedLoop> {
    characterize_with_budget(microloop, footprint, DEFAULT_LOOP_INSTRUCTIONS)
}

/// [`characterize`] with an explicit instruction budget.
///
/// # Errors
///
/// See [`characterize`].
pub fn characterize_with_budget(
    microloop: MicroLoop,
    footprint: Footprint,
    instructions: u64,
) -> Result<CharacterizedLoop> {
    let mut hierarchy =
        MemoryHierarchy::pentium_m_755()?.with_prefetcher(PrefetchConfig::pentium_m());

    // Warm-up pass: populate caches and train the prefetcher.
    microloop.for_each_address(footprint, 1, |addr| {
        hierarchy.access(addr);
    });
    hierarchy.reset_stats();

    // Measured passes (different seed per pass for the random loop).
    let mut accesses_measured = 0u64;
    for pass in 0..2u64 {
        microloop.for_each_address(footprint, 2 + pass, |addr| {
            accesses_measured += 1;
            hierarchy.access(addr);
        });
    }
    let stats = *hierarchy.stats();
    debug_assert_eq!(stats.accesses, accesses_measured);

    let mix = microloop.mix();
    let mem_per_inst = mix.mem_accesses_per_element / mix.instructions_per_element;

    // Demand misses per instruction, from measured per-access miss rates.
    let l1_mpi = stats.l1_miss_rate() * mem_per_inst;
    // All bus traffic (demand DRAM accesses + prefetch fills) costs power
    // and shows up on the MemoryRequests counter; the stall it causes is
    // discounted by the loop's overlap factor.
    let demand_dram_per_inst = stats.l2_miss_rate() * mem_per_inst;
    let prefetch_fills_per_access = if stats.accesses == 0 {
        0.0
    } else {
        stats.prefetch_dram_fills as f64 / stats.accesses as f64
    };
    let l2_mpi = demand_dram_per_inst + prefetch_fills_per_access * mem_per_inst;
    let prefetch_per_inst = if stats.accesses == 0 {
        0.0
    } else {
        (stats.prefetches_issued as f64 / stats.accesses as f64) * mem_per_inst
    };

    let phase = PhaseDescriptor::builder(format!("{}-{}", microloop.name(), footprint))
        .instructions(instructions)
        .core_cpi(mix.core_cpi)
        .decode_ratio(mix.decode_ratio)
        .fp_fraction(mix.fp_per_element / mix.instructions_per_element)
        .mem_fraction(mem_per_inst)
        .l1_mpi(l1_mpi)
        .l2_mpi(l2_mpi)
        .overlap(mix.overlap)
        .activity(mix.activity)
        .branch_fraction(mix.branches_per_element / mix.instructions_per_element)
        .mispredict_rate(mix.mispredict_rate)
        .prefetch_per_inst(prefetch_per_inst)
        .build()?;

    Ok(CharacterizedLoop { microloop, footprint, phase, measurements: stats })
}

/// Characterizes the full 12-point training set (4 loops × 3 footprints),
/// in Table I order then footprint order.
///
/// # Errors
///
/// Propagates any characterization failure.
pub fn training_set() -> Result<Vec<CharacterizedLoop>> {
    let mut out = Vec::with_capacity(12);
    for microloop in MicroLoop::ALL {
        for footprint in Footprint::ALL {
            out.push(characterize(microloop, footprint)?);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_footprint_has_negligible_misses() {
        for microloop in MicroLoop::ALL {
            let c = characterize(microloop, Footprint::L1).unwrap();
            assert!(
                c.phase.l1_mpi() < 0.002,
                "{}: l1_mpi {} should be ~0 for a 16KB set",
                c.name(),
                c.phase.l1_mpi()
            );
            assert!(c.phase.l2_mpi() < 1e-3);
        }
    }

    #[test]
    fn l2_footprint_misses_l1_not_l2() {
        for microloop in MicroLoop::ALL {
            let c = characterize(microloop, Footprint::L2).unwrap();
            assert!(
                c.phase.l2_mpi() < 0.002,
                "{}: 256KB fits in L2, l2_mpi {}",
                c.name(),
                c.phase.l2_mpi()
            );
        }
        // The random loop cannot be prefetched, so its L1 misses are real.
        let mload = characterize(MicroLoop::MloadRand, Footprint::L2).unwrap();
        assert!(mload.phase.l1_mpi() > 0.1, "random 256KB loads thrash L1");
    }

    #[test]
    fn dram_footprint_reaches_memory() {
        for microloop in MicroLoop::ALL {
            let c = characterize(microloop, Footprint::Dram).unwrap();
            assert!(
                c.phase.l2_mpi() > 0.005,
                "{}: 8MB must generate DRAM traffic, l2_mpi {}",
                c.name(),
                c.phase.l2_mpi()
            );
        }
    }

    #[test]
    fn sequential_loops_get_prefetch_coverage_random_does_not() {
        let fma = characterize(MicroLoop::Fma, Footprint::L2).unwrap();
        assert!(fma.phase.prefetch_per_inst() > 0.0, "FMA streams trigger the prefetcher");
        assert!(
            fma.phase.l1_mpi() < 0.02,
            "prefetches cover most of FMA's demand misses, got {}",
            fma.phase.l1_mpi()
        );
        let mload = characterize(MicroLoop::MloadRand, Footprint::Dram).unwrap();
        assert!(mload.phase.prefetch_per_inst() < 0.01);
    }

    #[test]
    fn training_set_has_twelve_points() {
        let set = training_set().unwrap();
        assert_eq!(set.len(), 12);
        let mut names: Vec<_> = set.iter().map(CharacterizedLoop::name).collect();
        names.dedup();
        assert_eq!(names.len(), 12, "all 12 points distinct");
    }

    #[test]
    fn characterization_is_deterministic() {
        let a = characterize(MicroLoop::MloadRand, Footprint::L2).unwrap();
        let b = characterize(MicroLoop::MloadRand, Footprint::L2).unwrap();
        assert_eq!(a.phase, b.phase);
    }

    #[test]
    fn training_points_are_pinned() {
        // FNV-1a over every hierarchy statistic of all 12 points and the
        // three miss and prefetch rates derived from them. A change to any
        // hit, miss, eviction or DRAM row outcome of the cache simulation
        // moves it, and with it every trained model and committed CSV.
        let hash = training_set()
            .unwrap()
            .iter()
            .flat_map(|c| {
                let s = c.measurements;
                [
                    s.accesses,
                    s.l1_hits,
                    s.l2_hits,
                    s.dram_accesses,
                    s.mean_dram_latency_ns.to_bits(),
                    s.prefetches_issued,
                    s.prefetch_dram_fills,
                    c.phase.l1_mpi().to_bits(),
                    c.phase.l2_mpi().to_bits(),
                    c.phase.prefetch_per_inst().to_bits(),
                ]
            })
            .fold(0xCBF2_9CE4_8422_2325, |h, bits| (h ^ bits).wrapping_mul(0x0000_0100_0000_01B3));
        assert_eq!(hash, 0xC8A5_EB97_389D_F172, "training points moved: {hash:#018X}");
    }

    #[test]
    fn budget_flows_into_phase() {
        let c = characterize_with_budget(MicroLoop::Daxpy, Footprint::L1, 1234).unwrap();
        assert_eq!(c.phase.instructions(), 1234);
        assert_eq!(c.program().total_instructions(), 1234);
    }
}
