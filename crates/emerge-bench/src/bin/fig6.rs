//! Regenerates Figure 6: attack resilience evaluation.
//!
//! * 6(a) attack resilience `R` vs `p`, 10000-node DHT
//! * 6(b) required nodes `C` vs `p`, 10000-node DHT
//! * 6(c) attack resilience `R` vs `p`, 100-node DHT
//! * 6(d) required nodes `C` vs `p`, 100-node DHT
//!
//! ```sh
//! cargo run -p emerge-bench --bin fig6 --release
//! EMERGE_TRIALS=200 EMERGE_P_STEP=0.05 cargo run -p emerge-bench --bin fig6 --release
//! ```

use emerge_bench::figures::{fig6, save_and_print};
use emerge_bench::{p_step_from_env, p_sweep, trials_from_env};
use emerge_core::error::EmergeError;

fn main() -> Result<(), EmergeError> {
    let trials = trials_from_env();
    let ps = p_sweep(p_step_from_env());
    println!("# Figure 6 — attack resilience evaluation");
    println!("# trials per cell: {trials}; p sweep: {} points", ps.len());
    save_and_print(&fig6(&ps, trials)?);
    Ok(())
}
