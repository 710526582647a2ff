//! Cross-validation of the closed-form analysis (equations 1–3, Lemma 1,
//! Algorithm 1) against the mechanistic Monte-Carlo engine.
//!
//! This is the reproduction's core correctness argument: the measured
//! resilience of each scheme must agree with the paper's formulas in the
//! churn-free regime, and degrade the way the paper describes under churn.

use emerge_bench::mc_threads;
use self_emerging_data::core::analysis;
use self_emerging_data::core::config::SchemeParams;
use self_emerging_data::core::montecarlo::{run_model_trial_range, McResults, TrialSpec};
use self_emerging_data::sim::shard::run_sharded;

const POPULATION: usize = 10_000;
const TRIALS: usize = 4_000;

/// `TRIALS` model trials of `spec`, sharded like the figure binaries'.
fn run(spec: &TrialSpec, seed: u64) -> McResults {
    run_sharded(TRIALS, mc_threads(), |first, count| {
        run_model_trial_range(spec, first, count, seed)
    })
    .unwrap()
}

fn measure(params: SchemeParams, p: f64, alpha: Option<f64>, seed: u64) -> (f64, f64) {
    let spec = TrialSpec {
        params,
        population: POPULATION,
        p,
        alpha,
        unavailability: 0.0,
    };
    let r = run(&spec, seed);
    (r.release_resilience.value(), r.drop_resilience.value())
}

/// 95% tolerance band for a Bernoulli estimate plus model slack from the
/// exact-count (hypergeometric) marking.
const TOL: f64 = 0.025;

#[test]
fn central_matches_formula_across_p() {
    for (i, p) in [0.1, 0.3, 0.5].into_iter().enumerate() {
        let analytic = analysis::central(p);
        let (rr, rd) = measure(SchemeParams::Central, p, None, 100 + i as u64);
        assert!(
            (rr - analytic.release).abs() < TOL,
            "p={p}: Rr {rr} vs {}",
            analytic.release
        );
        assert!(
            (rd - analytic.drop).abs() < TOL,
            "p={p}: Rd {rd} vs {}",
            analytic.drop
        );
    }
}

#[test]
fn disjoint_matches_equations_1_and_2() {
    for (i, (k, l, p)) in [(2usize, 3usize, 0.15f64), (4, 4, 0.25), (3, 8, 0.35)]
        .into_iter()
        .enumerate()
    {
        let analytic = analysis::disjoint(p, k, l);
        let (rr, rd) = measure(SchemeParams::Disjoint { k, l }, p, None, 200 + i as u64);
        assert!(
            (rr - analytic.release).abs() < TOL,
            "k={k} l={l} p={p}: Rr {rr} vs analytic {}",
            analytic.release
        );
        assert!(
            (rd - analytic.drop).abs() < TOL,
            "k={k} l={l} p={p}: Rd {rd} vs analytic {}",
            analytic.drop
        );
    }
}

#[test]
fn joint_matches_equations_1_and_3() {
    for (i, (k, l, p)) in [(2usize, 3usize, 0.2f64), (5, 10, 0.3), (3, 6, 0.45)]
        .into_iter()
        .enumerate()
    {
        let analytic = analysis::joint(p, k, l);
        let (rr, rd) = measure(SchemeParams::Joint { k, l }, p, None, 300 + i as u64);
        assert!(
            (rr - analytic.release).abs() < TOL,
            "k={k} l={l} p={p}: Rr {rr} vs analytic {}",
            analytic.release
        );
        assert!(
            (rd - analytic.drop).abs() < TOL,
            "k={k} l={l} p={p}: Rd {rd} vs analytic {}",
            analytic.drop
        );
    }
}

#[test]
fn lemma1_holds_empirically_for_the_joint_scheme() {
    // Rr + Rd > 1 for p < 0.5 — measured, not just proved.
    for (i, p) in [0.1, 0.25, 0.4, 0.49].into_iter().enumerate() {
        let (rr, rd) = measure(SchemeParams::Joint { k: 3, l: 4 }, p, None, 400 + i as u64);
        assert!(rr + rd > 1.0, "Lemma 1 violated at p={p}: Rr={rr} Rd={rd}");
    }
}

#[test]
fn share_scheme_matches_algorithm1_shape_without_churn() {
    let p = 0.2;
    let a = analysis::algorithm1(4, 8, POPULATION, 0.0, p);
    let params = SchemeParams::Share {
        k: 4,
        l: 8,
        n: a.n,
        m: a.m.clone(),
    };
    let (rr, rd) = measure(params, p, None, 500);
    // Algorithm 1 approximates; demand qualitative agreement (both very
    // high at p = 0.2 with n = 1250 shares per column).
    assert!(rr > 0.98, "share Rr {rr}");
    assert!(rd > 0.97, "share Rd {rd}");
    assert!(
        (rr - a.resilience.release).abs() < 0.05,
        "Rr {rr} vs Algorithm 1 {}",
        a.resilience.release
    );
    assert!(
        (rd - a.resilience.drop).abs() < 0.05,
        "Rd {rd} vs Algorithm 1 {}",
        a.resilience.drop
    );
}

#[test]
fn churn_ranking_matches_figure_7() {
    // At α = 3, p = 0.2 the paper's ordering is
    // share ≫ joint > disjoint > central.
    let p = 0.2;
    let alpha = Some(3.0);
    let (rr_c, rd_c) = measure(SchemeParams::Central, p, alpha, 600);
    let r_central = rr_c.min(rd_c);

    let dis = analysis::solve_disjoint(p, 0.99, POPULATION).params;
    let (rr_d, rd_d) = measure(dis, p, alpha, 601);
    let r_disjoint = rr_d.min(rd_d);

    let joint = analysis::solve_joint(p, 0.99, POPULATION).params;
    let (rr_j, rd_j) = measure(joint, p, alpha, 602);
    let r_joint = rr_j.min(rd_j);

    let share = analysis::solve_share(p, 0.99, POPULATION, 3.0).params;
    let (rr_s, rd_s) = measure(share, p, alpha, 603);
    let r_share = rr_s.min(rd_s);

    assert!(
        r_share > r_joint && r_joint > r_disjoint && r_disjoint > r_central,
        "figure-7 ordering broken: share={r_share} joint={r_joint} \
         disjoint={r_disjoint} central={r_central}"
    );
    assert!(
        r_share > 0.95,
        "share must stay high under churn: {r_share}"
    );
    assert!(
        r_central < 0.55,
        "central must collapse at α=3, p=0.2: {r_central}"
    );
}

#[test]
fn release_resilience_decreases_with_alpha_for_keyed_schemes() {
    let params = SchemeParams::Joint { k: 4, l: 6 };
    let p = 0.15;
    let mut last = f64::INFINITY;
    for (i, alpha) in [1.0, 2.0, 3.0, 5.0].into_iter().enumerate() {
        let (rr, _) = measure(params.clone(), p, Some(alpha), 700 + i as u64);
        assert!(
            rr < last + 0.02,
            "Rr must fall with α: α={alpha} gives {rr}, previous {last}"
        );
        last = rr;
    }
}

#[test]
fn strict_release_metric_is_stronger_for_keyed_schemes() {
    let spec = TrialSpec {
        params: SchemeParams::Joint { k: 3, l: 5 },
        population: POPULATION,
        p: 0.3,
        alpha: None,
        unavailability: 0.0,
    };
    let r = run(&spec, 800);
    assert!(
        r.strict_release_resilience.value() < r.release_resilience.value(),
        "the suffix-chain adversary must win strictly more often: strict={} paper={}",
        r.strict_release_resilience.value(),
        r.release_resilience.value()
    );
}
