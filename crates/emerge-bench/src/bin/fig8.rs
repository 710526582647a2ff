//! Regenerates Figure 8: key-share routing scheme cost evaluation.
//!
//! The number of nodes available for path construction shrinks from 10000
//! to 5000, 1000 and 100 while the DHT population stays at 10000 and
//! `α = 3`; the figure shows how much resilience survives the budget cut.
//!
//! ```sh
//! cargo run -p emerge-bench --bin fig8 --release
//! EMERGE_TRIALS=200 EMERGE_P_STEP=0.05 cargo run -p emerge-bench --bin fig8 --release
//! ```

use emerge_bench::figures::{fig8, save_and_print};
use emerge_bench::{p_step_from_env, p_sweep, trials_from_env};
use emerge_core::error::EmergeError;

fn main() -> Result<(), EmergeError> {
    let trials = trials_from_env();
    let ps = p_sweep(p_step_from_env());
    println!("# Figure 8 — key-share routing cost evaluation");
    println!("# trials per cell: {trials}; p sweep: {} points", ps.len());
    save_and_print(&fig8(&ps, trials)?);
    Ok(())
}
