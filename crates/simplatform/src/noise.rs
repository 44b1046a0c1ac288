//! Deterministic noise sources.
//!
//! All stochastic behaviour in the simulator (measurement noise, run-to-run
//! execution variation) flows through [`NoiseSource`], a seeded generator,
//! so experiments are exactly reproducible and "three runs, take the median"
//! is meaningful.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A seeded noise generator producing Gaussian and uniform deviates.
///
/// # Examples
///
/// ```
/// use aapm_platform::noise::NoiseSource;
///
/// let mut a = NoiseSource::seeded(42);
/// let mut b = NoiseSource::seeded(42);
/// assert_eq!(a.gaussian(0.0, 1.0), b.gaussian(0.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct NoiseSource {
    rng: SmallRng,
    spare: Option<f64>,
}

impl NoiseSource {
    /// Creates a noise source from a seed.
    pub fn seeded(seed: u64) -> Self {
        NoiseSource { rng: SmallRng::seed_from_u64(seed), spare: None }
    }

    /// A Gaussian deviate with the given mean and standard deviation
    /// (Box–Muller with spare caching).
    pub fn gaussian(&mut self, mean: f64, std_dev: f64) -> f64 {
        debug_assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        if std_dev == 0.0 {
            return mean;
        }
        let z = match self.spare.take() {
            Some(z) => z,
            None => {
                let u1: f64 = self.rng.random_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = self.rng.random_range(0.0..1.0);
                let radius = (-2.0 * u1.ln()).sqrt();
                let angle = 2.0 * std::f64::consts::PI * u2;
                self.spare = Some(radius * angle.sin());
                radius * angle.cos()
            }
        };
        mean + std_dev * z
    }

    /// A uniform deviate in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    pub fn uniform(&mut self, low: f64, high: f64) -> f64 {
        assert!(low < high, "uniform range must be non-empty");
        self.rng.random_range(low..high)
    }

    /// A uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        self.rng.random_range(0..bound)
    }

    /// A Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        self.rng.random_range(0.0..1.0) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = NoiseSource::seeded(7);
        let mut b = NoiseSource::seeded(7);
        for _ in 0..100 {
            assert_eq!(a.gaussian(1.0, 2.0), b.gaussian(1.0, 2.0));
            assert_eq!(a.uniform(0.0, 5.0), b.uniform(0.0, 5.0));
            assert_eq!(a.below(1000), b.below(1000));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = NoiseSource::seeded(1);
        let mut b = NoiseSource::seeded(2);
        let same = (0..32).filter(|_| a.below(u64::MAX) == b.below(u64::MAX)).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut n = NoiseSource::seeded(1234);
        let samples: Vec<f64> = (0..20_000).map(|_| n.gaussian(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples.len() as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "variance {var}");
    }

    #[test]
    fn zero_std_dev_returns_mean() {
        let mut n = NoiseSource::seeded(5);
        assert_eq!(n.gaussian(2.5, 0.0), 2.5);
    }

    #[test]
    fn chance_extremes() {
        let mut n = NoiseSource::seeded(5);
        assert!(!(0..100).any(|_| n.chance(0.0)));
        assert!((0..100).all(|_| n.chance(1.0)));
    }
}
