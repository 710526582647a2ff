//! Regenerates Figure 7: churn resilience evaluation.
//!
//! Four panels, `α ∈ {1, 2, 3, 5}` where the emerging period is `α` mean
//! node lifetimes. All four schemes; 10000-node DHT.
//!
//! ```sh
//! cargo run -p emerge-bench --bin fig7 --release
//! EMERGE_TRIALS=200 EMERGE_P_STEP=0.05 cargo run -p emerge-bench --bin fig7 --release
//! ```

use emerge_bench::figures::{fig7, save_and_print};
use emerge_bench::{p_step_from_env, p_sweep, trials_from_env};
use emerge_core::error::EmergeError;

fn main() -> Result<(), EmergeError> {
    let trials = trials_from_env();
    let ps = p_sweep(p_step_from_env());
    println!("# Figure 7 — churn resilience evaluation (10000 nodes)");
    println!("# trials per cell: {trials}; p sweep: {} points", ps.len());
    save_and_print(&fig7(&ps, trials)?);
    Ok(())
}
