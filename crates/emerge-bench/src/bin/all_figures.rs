//! Runs every figure regenerator back to back and writes all tables to
//! `results/*.dat`.
//!
//! ```sh
//! cargo run -p emerge-bench --bin all_figures --release
//! ```
//!
//! For a quick pass: `EMERGE_TRIALS=100 EMERGE_P_STEP=0.05 cargo run ...`

use emerge_bench::figures::{fig6, fig7, fig8, render_and_save, Panel};
use emerge_bench::{p_step_from_env, p_sweep, trials_from_env};
use emerge_core::error::EmergeError;
use emerge_obs::Stopwatch;

type Figure = fn(&[f64], usize) -> Result<Vec<Panel>, EmergeError>;

fn main() -> Result<(), EmergeError> {
    let trials = trials_from_env();
    let ps = p_sweep(p_step_from_env());
    let total = Stopwatch::start();
    println!(
        "# Regenerating all figures ({} trials/cell, {} p-points)",
        trials,
        ps.len()
    );

    for (name, figure) in [("fig6", fig6 as Figure), ("fig7", fig7), ("fig8", fig8)] {
        let watch = Stopwatch::start();
        for panel in figure(&ps, trials)? {
            render_and_save(&panel.table, &panel.name);
        }
        println!("# {name} done in {:.1} s", watch.elapsed_secs());
    }

    println!(
        "# all figures regenerated in {:.1} s; tables in results/",
        total.elapsed_secs()
    );
    Ok(())
}
