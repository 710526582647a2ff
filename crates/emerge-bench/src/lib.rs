//! # emerge-bench
//!
//! The experiment harness that regenerates every figure of the paper's
//! evaluation section (Section IV), plus criterion microbenches for the
//! substrates.
//!
//! Binaries:
//!
//! * `fig6` — attack resilience and required nodes vs `p` (Figure 6 a–d)
//! * `fig7` — churn resilience for α ∈ {1, 2, 3, 5} (Figure 7 a–d)
//! * `fig8` — share-scheme cost sweep (Figure 8)
//! * `all_figures` — runs everything and writes `results/*.dat`
//!
//! Each binary prints gnuplot-ready columns in the same shape as the
//! paper's plots. Environment variables `EMERGE_TRIALS` (default 1000)
//! and `EMERGE_P_STEP` (default 0.02) trade accuracy for speed;
//! `EMERGE_MC_THREADS` caps the sharded Monte-Carlo worker threads (see
//! [`parallel::mc_threads`]).
//!
//! Batches run through the one Monte-Carlo driver,
//! [`emerge_sim::shard::run_sharded`]; wrap the range call in
//! [`profile::profiled`] for per-phase telemetry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod parallel;
pub mod profile;
pub mod report;

/// Number of Monte-Carlo trials per experiment cell (the paper runs 1000).
///
/// `EMERGE_TRIALS=0` (or unparsable input) falls back rather than
/// propagating a zero-trial spec the engines would reject — this is the
/// input boundary that keeps the interior `run_trials(...)` calls
/// infallible on hardcoded specs.
pub fn trials_from_env() -> usize {
    std::env::var("EMERGE_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&t: &usize| t >= 1)
        .unwrap_or(1000)
}

/// Sweep step for the malicious rate `p`. Out-of-range values (zero,
/// negative, NaN, > 0.5) fall back to the default so `p_sweep`'s
/// documented precondition always holds for env-driven callers.
pub fn p_step_from_env() -> f64 {
    std::env::var("EMERGE_P_STEP")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s: &f64| s > 0.0 && s <= 0.5)
        .unwrap_or(0.02)
}

/// The `p` sweep of the paper's figures: `0.0..=0.5`.
pub fn p_sweep(step: f64) -> Vec<f64> {
    // LINT-WAIVER(panic): documented precondition; env-driven callers are range-clamped by p_step_from_env
    assert!(step > 0.0 && step <= 0.5, "p step must be in (0, 0.5]");
    let mut ps = Vec::new();
    let mut p = 0.0f64;
    while p <= 0.5 + 1e-9 {
        ps.push((p * 1e6).round() / 1e6);
        p += step;
    }
    ps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p_sweep_covers_the_range() {
        let ps = p_sweep(0.1);
        assert_eq!(ps.len(), 6);
        assert_eq!(ps[0], 0.0);
        assert_eq!(*ps.last().unwrap(), 0.5);
    }

    #[test]
    fn env_defaults() {
        // Not set in the test environment.
        assert_eq!(trials_from_env(), 1000);
        assert!((p_step_from_env() - 0.02).abs() < 1e-12);
    }
}
