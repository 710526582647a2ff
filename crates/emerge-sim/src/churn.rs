//! Churn model: exponential node lifetimes.
//!
//! The paper (citing Bhagwan et al., "Replication strategies for highly
//! available peer-to-peer storage") models node death as an exponential
//! decay process: the probability that a node dies within a holding period
//! `th` is `pdead = 1 − e^(−th/λ)` where `λ` is the mean node lifetime.
//! [`LifetimeModel`] samples the tenant lifetimes from which the DHT
//! world builds its churn generations. Section II-C's second flavour,
//! transient unavailability, is a per-holder draw in the Monte-Carlo
//! model (`TrialSpec::unavailability`) and is not modelled here.

use crate::time::SimDuration;
use rand::Rng;

/// Exponential distribution with a given mean, sampled by inverse CDF.
///
/// Implemented locally (instead of pulling in `rand_distr`) to keep the
/// dependency set minimal; the inverse-CDF method is exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given mean (`λ` in the
    /// paper's notation — note the paper uses λ for the *mean*, not the
    /// rate).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite.
    pub fn with_mean(mean: f64) -> Self {
        // LINT-WAIVER(panic): documented # Panics contract: the churn mean must be positive and finite
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive and finite, got {mean}"
        );
        Exponential { mean }
    }

    /// Samples one value.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse CDF: -mean * ln(U) with U in (0, 1].
        // gen::<f64>() yields [0,1); use 1-u to exclude 0 for ln.
        let u: f64 = rng.gen();
        -self.mean * (1.0 - u).ln()
    }

    /// Samples a duration in whole ticks (rounded to nearest, minimum 1).
    pub fn sample_duration<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        let v = self.sample(rng).round().max(1.0);
        // Clamp to u64 range; astronomically unlikely to matter.
        let ticks = if v >= u64::MAX as f64 {
            u64::MAX
        } else {
            v as u64
        };
        SimDuration::from_ticks(ticks)
    }
}

/// Lifetime model for DHT nodes: exponential death clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeModel {
    dist: Exponential,
}

impl LifetimeModel {
    /// Creates a lifetime model with mean lifetime `tlife` (in ticks).
    pub fn new(tlife: SimDuration) -> Self {
        LifetimeModel {
            dist: Exponential::with_mean(tlife.ticks() as f64),
        }
    }

    /// Samples a node's remaining lifetime. By the memoryless property this
    /// is valid at any observation instant, which is why the per-holding-
    /// period death probability is simply `1 − e^(−th/λ)` regardless of how
    /// long the node has already been alive.
    pub fn sample_lifetime<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        self.dist.sample_duration(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedSource;

    #[test]
    fn exponential_mean_converges() {
        let dist = Exponential::with_mean(100.0);
        let mut rng = SeedSource::new(1).stream("exp");
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| dist.sample(&mut rng)).sum();
        let mean = sum / n as f64;
        assert!(
            (mean - 100.0).abs() < 2.0,
            "sample mean {mean} too far from 100"
        );
    }

    #[test]
    fn sample_duration_is_at_least_one_tick() {
        let dist = Exponential::with_mean(0.001);
        let mut rng = SeedSource::new(5).stream("tiny");
        for _ in 0..100 {
            assert!(dist.sample_duration(&mut rng).ticks() >= 1);
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_mean_rejected() {
        let _ = Exponential::with_mean(0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let m = LifetimeModel::new(SimDuration::from_ticks(1000));
        let mut a = SeedSource::new(9).stream("life");
        let mut b = SeedSource::new(9).stream("life");
        for _ in 0..32 {
            assert_eq!(m.sample_lifetime(&mut a), m.sample_lifetime(&mut b));
        }
    }
}
