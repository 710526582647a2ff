//! Ablation studies of the five design choices A–E listed below.
//!
//! ```sh
//! cargo run -p emerge-bench --bin ablations --release
//! ```
//!
//! * **A. Threshold policy** — Algorithm 1's balanced `m` vs a naive
//!   majority threshold vs a fixed-fraction threshold, under churn.
//! * **B. Release metric** — the paper's reconstruct-at-`ts` event vs the
//!   strict any-time-before-`tr` suffix-chain event for the joint scheme.
//! * **C. Topology at equal cost** — joint vs disjoint when both get the
//!   same holder budget.
//! * **D. Lifetime misestimation** — the sender solves for α̂ but the
//!   network churns at α = 3: sensitivity of the share scheme.
//! * **E. Transient unavailability** — Section II-C's second churn flavour,
//!   which the paper describes but does not evaluate.

use emerge_bench::figures::{run_cell, save_and_print, Panel, TARGET_R};
use emerge_bench::{p_step_from_env, p_sweep, trials_from_env};
use emerge_core::analysis;
use emerge_core::config::SchemeParams;
use emerge_core::error::EmergeError;
use emerge_core::montecarlo::TrialSpec;
use emerge_sim::metrics::SeriesTable;

const POPULATION: usize = 10_000;

fn panel(name: &str, title: &str, table: SeriesTable) -> Panel {
    Panel {
        name: name.into(),
        title: title.into(),
        table,
    }
}

/// A. Threshold policy: balanced (Algorithm 1) vs majority vs fixed 40%.
fn ablation_thresholds(ps: &[f64], trials: usize) -> Result<Panel, EmergeError> {
    let alpha = 3.0;
    let (k, l) = (4usize, 8usize);
    let n = POPULATION / l;
    let mut t = SeriesTable::new("p", &["balanced_alg1", "majority", "fixed_40pct"]);
    for &p in ps {
        let run = |m: Vec<usize>, salt: u64| {
            let spec = TrialSpec {
                alpha: Some(alpha),
                ..TrialSpec::new(SchemeParams::Share { k, l, n, m }, POPULATION, p)
            };
            Ok::<_, EmergeError>(run_cell(&spec, trials, 0xA1 ^ salt)?.r_min())
        };
        let balanced = analysis::algorithm1(k, l, POPULATION, alpha, p).m;
        let majority = vec![n / 2 + 1; l - 1];
        let fixed = vec![(n as f64 * 0.4) as usize; l - 1];
        t.push_row(p, &[run(balanced, 1)?, run(majority, 2)?, run(fixed, 3)?]);
    }
    Ok(panel("ablation_threshold_policy", "A. threshold policy", t))
}

/// B. Release metric: paper (at ts) vs strict (before tr), joint scheme.
fn ablation_release_metric(ps: &[f64], trials: usize) -> Result<Panel, EmergeError> {
    let mut t = SeriesTable::new("p", &["paper_at_ts", "strict_before_tr"]);
    for &p in ps {
        let params = analysis::solve_joint(p, TARGET_R, POPULATION).params;
        let r = run_cell(&TrialSpec::new(params, POPULATION, p), trials, 0xB1)?;
        t.push_row(
            p,
            &[
                r.release_resilience.value(),
                r.strict_release_resilience.value(),
            ],
        );
    }
    Ok(panel("ablation_release_metric", "B. release metric", t))
}

/// C. Topology: joint vs disjoint with identical (k, l) grids.
fn ablation_topology(ps: &[f64], trials: usize) -> Result<Panel, EmergeError> {
    let (k, l) = (4usize, 8usize);
    let mut t = SeriesTable::new("p", &["joint_Rr", "joint_Rd", "disjoint_Rr", "disjoint_Rd"]);
    for &p in ps {
        let joint = TrialSpec::new(SchemeParams::Joint { k, l }, POPULATION, p);
        let disjoint = TrialSpec::new(SchemeParams::Disjoint { k, l }, POPULATION, p);
        let joint = run_cell(&joint, trials, 0xC1)?;
        let disjoint = run_cell(&disjoint, trials, 0xC2)?;
        t.push_row(
            p,
            &[
                joint.release_resilience.value(),
                joint.drop_resilience.value(),
                disjoint.release_resilience.value(),
                disjoint.drop_resilience.value(),
            ],
        );
    }
    Ok(panel(
        "ablation_topology_equal_cost",
        "C. topology at equal cost",
        t,
    ))
}

/// D. Lifetime misestimation: solve for α̂ ∈ {1, 3, 5}, run at α = 3.
fn ablation_alpha_misestimation(ps: &[f64], trials: usize) -> Result<Panel, EmergeError> {
    let world_alpha = 3.0;
    let mut t = SeriesTable::new("p", &["assumed_a1", "assumed_a3", "assumed_a5"]);
    for &p in ps {
        let mut vals = [0.0f64; 3];
        for (i, assumed) in [1.0f64, 3.0, 5.0].into_iter().enumerate() {
            let params = analysis::solve_share(p, TARGET_R, POPULATION, assumed).params;
            let spec = TrialSpec {
                alpha: Some(world_alpha),
                ..TrialSpec::new(params, POPULATION, p)
            };
            vals[i] = run_cell(&spec, trials, 0xD1 + i as u64)?.r_min();
        }
        t.push_row(p, &vals);
    }
    Ok(panel(
        "ablation_alpha_misestimation",
        "D. lifetime misestimation",
        t,
    ))
}

/// E. Transient unavailability sweep at p = 0.1 (x-axis is the offline
/// probability, not p).
fn ablation_unavailability(trials: usize) -> Result<Panel, EmergeError> {
    let p = 0.1;
    let joint = analysis::solve_joint(p, TARGET_R, POPULATION).params;
    let disjoint = analysis::solve_disjoint(p, TARGET_R, POPULATION).params;
    let share = analysis::solve_share(p, TARGET_R, POPULATION, 1.0).params;
    let mut t = SeriesTable::new("unavailability", &["disjoint_Rd", "joint_Rd", "share_Rd"]);
    for u in (0..=10).map(|i| i as f64 * 0.05) {
        let run = |params: &SchemeParams, salt: u64| {
            let spec = TrialSpec {
                alpha: Some(1.0),
                unavailability: u,
                ..TrialSpec::new(params.clone(), POPULATION, p)
            };
            Ok::<_, EmergeError>(
                run_cell(&spec, trials, 0xE1 ^ salt)?
                    .drop_resilience
                    .value(),
            )
        };
        t.push_row(u, &[run(&disjoint, 1)?, run(&joint, 2)?, run(&share, 3)?]);
    }
    Ok(panel(
        "ablation_unavailability",
        "E. transient unavailability",
        t,
    ))
}

fn main() -> Result<(), EmergeError> {
    let trials = trials_from_env();
    let ps = p_sweep(p_step_from_env().max(0.05));
    println!("# Ablation studies ({trials} trials/cell)");
    save_and_print(&[
        ablation_thresholds(&ps, trials)?,
        ablation_release_metric(&ps, trials)?,
        ablation_topology(&ps, trials)?,
        ablation_alpha_misestimation(&ps, trials)?,
        ablation_unavailability(trials)?,
    ]);
    println!("# tables written to results/ablation_*.dat");
    Ok(())
}
