//! # emerge-bench
//!
//! The experiment harness that regenerates every figure of the paper's
//! evaluation section (Section IV).
//!
//! Binaries:
//!
//! * `fig6` — attack resilience and required nodes vs `p` (Figure 6 a–d)
//! * `fig7` — churn resilience for α ∈ {1, 2, 3, 5} (Figure 7 a–d)
//! * `fig8` — share-scheme cost sweep (Figure 8)
//! * `all_figures` — runs everything and writes `results/*.dat`
//! * `ablations` — the design-choice ablations
//!
//! Each binary prints gnuplot-ready columns in the same shape as the
//! paper's plots. Environment variables `EMERGE_TRIALS` (default 1000)
//! and `EMERGE_P_STEP` (default 0.02) trade accuracy for speed;
//! `EMERGE_MC_THREADS` caps the worker threads (see [`mc_threads`]).
//!
//! Every cell runs through the one Monte-Carlo driver,
//! [`emerge_sim::shard::run_sharded`], over the model's range call
//! ([`figures::run_cell`]); wrap a range call in [`profile::profiled`]
//! for per-phase telemetry. The workspace's timing harness is the
//! benchmark ledger in `bench/`, a package of its own that reads its
//! output back through [`report::validate_json`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod profile;
pub mod report;

/// Worker-thread count for the Monte-Carlo binaries: `EMERGE_MC_THREADS`
/// if set to a positive integer, otherwise the machine's available
/// parallelism (1 if unknown).
///
/// The thread count only affects wall-clock time, never results:
/// [`emerge_sim::shard::run_sharded`] is bit-identical across thread
/// counts. CI guards this twice: it runs the test suites with
/// `EMERGE_MC_THREADS=1` and unset, and diffs the figure tables written
/// at 1 and 2 threads.
pub fn mc_threads() -> usize {
    std::env::var("EMERGE_MC_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Number of Monte-Carlo trials per experiment cell (the paper runs 1000).
///
/// `EMERGE_TRIALS=0` (or unparsable input) falls back to the default, so
/// a figure never reports rates over zero trials.
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
        // Set or not, the worker count is a sane positive number.
        assert!(mc_threads() >= 1);
    }
}
