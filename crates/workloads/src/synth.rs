//! Random workload generation for property-based testing.
//!
//! Generates valid-by-construction [`PhaseDescriptor`]s and
//! [`PhaseProgram`]s across the whole plausible space of workload
//! behaviour, so property tests can check governor invariants (never exceed
//! the p-state table, respect limits, …) on workloads nobody hand-crafted.

use aapm_platform::noise::NoiseSource;
use aapm_platform::phase::PhaseDescriptor;
use aapm_platform::program::PhaseProgram;

/// Minimum and maximum instructions per phase.
const INSTRUCTIONS: (u64, u64) = (1_000_000, 2_000_000_000);
/// Range of core CPI.
const CORE_CPI: (f64, f64) = (0.4, 2.0);
/// Range of decode ratio.
const DECODE_RATIO: (f64, f64) = (1.0, 1.6);
/// Maximum L1 misses per instruction.
const MAX_L1_MPI: f64 = 0.12;
/// Maximum activity factor.
const MAX_ACTIVITY: f64 = 1.35;

/// Generates one random, always-valid phase.
fn random_phase(noise: &mut NoiseSource, index: usize) -> PhaseDescriptor {
    let mem_fraction = noise.uniform(0.1, 0.55);
    let l1_mpi = noise.uniform(0.0, MAX_L1_MPI.min(mem_fraction));
    let l2_mpi = noise.uniform(0.0, l1_mpi.max(1e-9));
    PhaseDescriptor::builder(format!("synth-{index}"))
        .instructions(INSTRUCTIONS.0 + noise.below(INSTRUCTIONS.1 - INSTRUCTIONS.0))
        .core_cpi(noise.uniform(CORE_CPI.0, CORE_CPI.1))
        .decode_ratio(noise.uniform(DECODE_RATIO.0, DECODE_RATIO.1))
        .fp_fraction(noise.uniform(0.0, 0.4))
        .mem_fraction(mem_fraction)
        .l1_mpi(l1_mpi)
        .l2_mpi(l2_mpi)
        .overlap(noise.uniform(0.0, 0.9))
        .activity(noise.uniform(0.7, MAX_ACTIVITY))
        .branch_fraction(noise.uniform(0.03, 0.25))
        .mispredict_rate(noise.uniform(0.0, 0.1))
        .build()
        .expect("generated phase respects all invariants by construction")
}

/// Generates a random program of 1–`max_phases` phases.
///
/// # Panics
///
/// Panics if `max_phases` is zero.
pub fn random_program(seed: u64, max_phases: usize) -> PhaseProgram {
    assert!(max_phases > 0, "max_phases must be positive");
    let mut noise = NoiseSource::seeded(seed);
    let count = 1 + noise.below(max_phases as u64) as usize;
    let phases = (0..count).map(|i| random_phase(&mut noise, i)).collect();
    PhaseProgram::new(format!("synth-program-{seed}"), phases)
        .expect("at least one phase generated")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_programs_are_valid_and_deterministic() {
        for seed in 0..50 {
            let a = random_program(seed, 6);
            let b = random_program(seed, 6);
            assert_eq!(a, b);
            assert!((1..=6).contains(&a.len()));
            assert!(a.total_instructions() > 0);
        }
    }

    #[test]
    fn different_seeds_give_different_programs() {
        assert_ne!(random_program(1, 4), random_program(2, 4));
    }

    #[test]
    fn generated_phases_respect_bounds() {
        let mut noise = NoiseSource::seeded(3);
        for i in 0..200 {
            let p = random_phase(&mut noise, i);
            assert!(p.l1_mpi() <= p.mem_fraction());
            assert!(p.l2_mpi() <= p.l1_mpi() + 1e-12);
            assert!(p.core_cpi() >= CORE_CPI.0 && p.core_cpi() <= CORE_CPI.1);
            assert!(p.activity() <= MAX_ACTIVITY);
        }
    }
}
