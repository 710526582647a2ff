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

use emerge_bench::figures::TARGET_R;
use emerge_bench::parallel::parallel_map;
use emerge_bench::{p_step_from_env, p_sweep, trials_from_env};
use emerge_core::analysis;
use emerge_core::config::SchemeParams;
use emerge_core::montecarlo::{run_trials, TrialSpec};
use emerge_sim::metrics::SeriesTable;

const POPULATION: usize = 10_000;

fn save(table: &SeriesTable, name: &str) {
    let _ = std::fs::create_dir_all("results");
    let _ = std::fs::write(format!("results/{name}.dat"), format!("{table}\n"));
    println!("## {name}");
    println!("{table}");
    println!();
}

/// A. Threshold policy: balanced (Algorithm 1) vs majority vs fixed 40%.
fn ablation_thresholds(ps: &[f64], trials: usize) {
    let alpha = 3.0;
    let (k, l) = (4usize, 8usize);
    let rows: Vec<(f64, [f64; 3])> = parallel_map(ps, |&p| {
        let n = POPULATION / l;
        let run = |m: Vec<usize>, salt: u64| {
            let spec = TrialSpec {
                params: SchemeParams::Share { k, l, n, m },
                population: POPULATION,
                p,
                alpha: Some(alpha),
                unavailability: 0.0,
            };
            // LINT-WAIVER(panic): hardcoded ablation spec is valid and trials are clamped >= 1 at the env boundary
            run_trials(&spec, trials, 0xA1 ^ salt).unwrap().r_min()
        };
        let balanced = analysis::algorithm1(k, l, POPULATION, alpha, p).m;
        let majority = vec![n / 2 + 1; l - 1];
        let fixed = vec![(n as f64 * 0.4) as usize; l - 1];
        (p, [run(balanced, 1), run(majority, 2), run(fixed, 3)])
    });
    let mut t = SeriesTable::new("p", &["balanced_alg1", "majority", "fixed_40pct"]);
    for (p, v) in rows {
        t.push_row(p, &v);
    }
    save(&t, "ablation_threshold_policy");
}

/// B. Release metric: paper (at ts) vs strict (before tr), joint scheme.
fn ablation_release_metric(ps: &[f64], trials: usize) {
    let rows: Vec<(f64, [f64; 2])> = parallel_map(ps, |&p| {
        let params = analysis::solve_joint(p, TARGET_R, POPULATION).params;
        let spec = TrialSpec {
            params,
            population: POPULATION,
            p,
            alpha: None,
            unavailability: 0.0,
        };
        // LINT-WAIVER(panic): hardcoded ablation spec is valid and trials are clamped >= 1 at the env boundary
        let r = run_trials(&spec, trials, 0xB1).unwrap();
        (
            p,
            [
                r.release_resilience.value(),
                r.strict_release_resilience.value(),
            ],
        )
    });
    let mut t = SeriesTable::new("p", &["paper_at_ts", "strict_before_tr"]);
    for (p, v) in rows {
        t.push_row(p, &v);
    }
    save(&t, "ablation_release_metric");
}

/// C. Topology: joint vs disjoint with identical (k, l) grids.
fn ablation_topology(ps: &[f64], trials: usize) {
    let (k, l) = (4usize, 8usize);
    let rows: Vec<(f64, [f64; 4])> = parallel_map(ps, |&p| {
        let joint = run_trials(
            &TrialSpec::new(SchemeParams::Joint { k, l }, POPULATION, p),
            trials,
            0xC1,
        )
        // LINT-WAIVER(panic): hardcoded spec is valid by construction; run_trials cannot reject it
        .expect("valid ablation spec");
        let disjoint = run_trials(
            &TrialSpec::new(SchemeParams::Disjoint { k, l }, POPULATION, p),
            trials,
            0xC2,
        )
        // LINT-WAIVER(panic): hardcoded spec is valid by construction; run_trials cannot reject it
        .expect("valid ablation spec");
        (
            p,
            [
                joint.release_resilience.value(),
                joint.drop_resilience.value(),
                disjoint.release_resilience.value(),
                disjoint.drop_resilience.value(),
            ],
        )
    });
    let mut t = SeriesTable::new("p", &["joint_Rr", "joint_Rd", "disjoint_Rr", "disjoint_Rd"]);
    for (p, v) in rows {
        t.push_row(p, &v);
    }
    save(&t, "ablation_topology_equal_cost");
}

/// D. Lifetime misestimation: solve for α̂ ∈ {1, 3, 5}, run at α = 3.
fn ablation_alpha_misestimation(ps: &[f64], trials: usize) {
    let world_alpha = 3.0;
    let rows: Vec<(f64, [f64; 3])> = parallel_map(ps, |&p| {
        let mut vals = [0.0f64; 3];
        for (i, assumed) in [1.0f64, 3.0, 5.0].into_iter().enumerate() {
            let params = analysis::solve_share(p, TARGET_R, POPULATION, assumed).params;
            let spec = TrialSpec {
                params,
                population: POPULATION,
                p,
                alpha: Some(world_alpha),
                unavailability: 0.0,
            };
            // LINT-WAIVER(panic): hardcoded ablation spec is valid and trials are clamped >= 1 at the env boundary
            vals[i] = run_trials(&spec, trials, 0xD1 + i as u64).unwrap().r_min();
        }
        (p, vals)
    });
    let mut t = SeriesTable::new("p", &["assumed_a1", "assumed_a3", "assumed_a5"]);
    for (p, v) in rows {
        t.push_row(p, &v);
    }
    save(&t, "ablation_alpha_misestimation");
}

/// E. Transient unavailability sweep at p = 0.1 (x-axis is the offline
/// probability, not p).
fn ablation_unavailability(trials: usize) {
    let p = 0.1;
    let us: Vec<f64> = (0..=10).map(|i| i as f64 * 0.05).collect();
    let rows: Vec<(f64, [f64; 3])> = parallel_map(&us, |&u| {
        let joint = analysis::solve_joint(p, TARGET_R, POPULATION).params;
        let disjoint = analysis::solve_disjoint(p, TARGET_R, POPULATION).params;
        let share = analysis::solve_share(p, TARGET_R, POPULATION, 1.0).params;
        let run = |params: SchemeParams, salt: u64| {
            let spec = TrialSpec {
                params,
                population: POPULATION,
                p,
                alpha: Some(1.0),
                unavailability: u,
            };
            run_trials(&spec, trials, 0xE1 ^ salt)
                // LINT-WAIVER(panic): hardcoded ablation spec is valid and trials are clamped >= 1 at the env boundary
                .unwrap()
                .drop_resilience
                .value()
        };
        (u, [run(disjoint, 1), run(joint, 2), run(share, 3)])
    });
    let mut t = SeriesTable::new("unavailability", &["disjoint_Rd", "joint_Rd", "share_Rd"]);
    for (u, v) in rows {
        t.push_row(u, &v);
    }
    save(&t, "ablation_unavailability");
}

fn main() {
    let trials = trials_from_env();
    let ps = p_sweep(p_step_from_env().max(0.05));
    println!("# Ablation studies ({trials} trials/cell)");
    println!();
    ablation_thresholds(&ps, trials);
    ablation_release_metric(&ps, trials);
    ablation_topology(&ps, trials);
    ablation_alpha_misestimation(&ps, trials);
    ablation_unavailability(trials);
    println!("# tables written to results/ablation_*.dat");
}
