//! Cross-fidelity agreement: the wire-level protocol (real onions, real
//! shares, real AEAD on the DHT world) must agree with the combinatorial
//! model on when attacks succeed.
//!
//! Strategy: build many small DHT worlds with different seeds and
//! malicious fractions, run the wire protocol under each attack, and
//! check outcome-by-outcome consistency with the predicate evaluated on
//! the same worlds' ground truth.

use self_emerging_data::core::config::SchemeParams;
use self_emerging_data::core::package::{build_keyed_packages, build_share_packages, KeySchedule};
use self_emerging_data::core::path::{construct_paths, PathPlan};
use self_emerging_data::core::protocol::{execute_keyed, execute_share, AttackMode, RunConfig};
use self_emerging_data::crypto::keys::SymmetricKey;
use self_emerging_data::dht::population;
use self_emerging_data::dht::{AnalyticSubstrate, OverlayConfig};
use self_emerging_data::sim::time::{SimDuration, SimTime};

const SECRET: &[u8] = b"cross-fidelity secret";

/// Emerging period `T` of every run.
const PERIOD: u64 = 6_000;

fn world(n: usize, p: f64, seed: u64) -> AnalyticSubstrate {
    AnalyticSubstrate::build(
        OverlayConfig {
            n_nodes: n,
            malicious_fraction: p,
            ..OverlayConfig::default()
        },
        seed,
    )
}

/// A world whose tenants live `T / 2` on average, so holders are
/// replaced mid-hold and the drop predicates depend on hop timing.
fn churned_world(n: usize, p: f64, seed: u64) -> AnalyticSubstrate {
    AnalyticSubstrate::build(
        OverlayConfig {
            n_nodes: n,
            malicious_fraction: p,
            mean_lifetime: Some(3_000),
            horizon: 100_000,
        },
        seed,
    )
}

fn config(attack: AttackMode) -> RunConfig {
    RunConfig {
        ts: SimTime::ZERO,
        emerging_period: SimDuration::from_ticks(PERIOD),
        attack,
    }
}

/// Evaluates, from the world's ground truth, whether the paper's keyed
/// release predicate (full chain) holds for a given plan.
fn keyed_release_predicate(overlay: &AnalyticSubstrate, plan: &PathPlan) -> bool {
    (0..plan.cols)
        .all(|col| (0..plan.rows).any(|row| overlay.initial(plan.slot(row, col)).malicious))
}

/// Whether holder `(row, col)` meets a malicious tenant while it holds
/// the onion: `[ts + col·th, ts + (col + 1)·th)` with `th = T / l`.
fn exposed_during_hold(
    overlay: &AnalyticSubstrate,
    plan: &PathPlan,
    row: usize,
    col: usize,
) -> bool {
    let th = SimDuration::from_ticks(PERIOD / plan.cols as u64);
    let arrival = SimTime::ZERO + th * col as u64;
    population::any_malicious_exposure(
        overlay.generations(plan.slot(row, col)),
        arrival,
        arrival + th,
    )
}

/// Whether the joint drop predicate (a column exposed in every row)
/// holds.
fn joint_drop_predicate(overlay: &AnalyticSubstrate, plan: &PathPlan) -> bool {
    (0..plan.cols).any(|col| (0..plan.rows).all(|row| exposed_during_hold(overlay, plan, row, col)))
}

/// Whether the disjoint drop predicate (every row cut) holds.
fn disjoint_drop_predicate(overlay: &AnalyticSubstrate, plan: &PathPlan) -> bool {
    (0..plan.rows).all(|row| (0..plan.cols).any(|col| exposed_during_hold(overlay, plan, row, col)))
}

#[test]
fn joint_drop_outcomes_match_the_predicate_exactly() {
    let params = SchemeParams::Joint { k: 2, l: 3 };
    for build in [world, churned_world] {
        let mut drops = 0;
        for seed in 0..60u64 {
            let mut overlay = build(60, 0.35, seed);
            let sender = SymmetricKey::from_bytes([seed as u8; 32]);
            let plan = construct_paths(&overlay, &params, &sender).unwrap();
            let pkgs =
                build_keyed_packages(&plan, &params, &KeySchedule::new(sender), SECRET).unwrap();
            let report = execute_keyed(
                &mut overlay,
                &plan,
                &params,
                &pkgs,
                &config(AttackMode::Drop),
            )
            .unwrap();
            let dropped = report.released.is_none();
            assert_eq!(
                dropped,
                joint_drop_predicate(&overlay, &plan),
                "world seed {seed}"
            );
            drops += u32::from(dropped);
        }
        assert!(
            drops > 0 && drops < 60,
            "both outcomes occur: {drops} drops"
        );
    }
}

#[test]
fn disjoint_drop_outcomes_match_the_predicate_exactly() {
    let params = SchemeParams::Disjoint { k: 2, l: 4 };
    for build in [world, churned_world] {
        let mut drops = 0;
        for seed in 100..150u64 {
            let mut overlay = build(80, 0.3, seed);
            let sender = SymmetricKey::from_bytes([(seed % 251) as u8; 32]);
            let plan = construct_paths(&overlay, &params, &sender).unwrap();
            let pkgs =
                build_keyed_packages(&plan, &params, &KeySchedule::new(sender), SECRET).unwrap();
            let report = execute_keyed(
                &mut overlay,
                &plan,
                &params,
                &pkgs,
                &config(AttackMode::Drop),
            )
            .unwrap();
            let dropped = report.released.is_none();
            assert_eq!(
                dropped,
                disjoint_drop_predicate(&overlay, &plan),
                "world seed {seed}"
            );
            drops += u32::from(dropped);
        }
        assert!(
            drops > 0 && drops < 50,
            "both outcomes occur: {drops} drops"
        );
    }
}

#[test]
fn keyed_release_at_ts_happens_iff_full_chain() {
    // Without churn, the wire adversary reconstructs AT ts exactly when
    // the paper predicate (a malicious holder in every column) holds.
    let params = SchemeParams::Joint { k: 2, l: 2 };
    let mut model_count = 0;
    let mut wire_count = 0;
    for seed in 200..280u64 {
        let mut overlay = world(40, 0.5, seed);
        let sender = SymmetricKey::from_bytes([(seed % 251) as u8; 32]);
        let plan = construct_paths(&overlay, &params, &sender).unwrap();
        let pkgs = build_keyed_packages(&plan, &params, &KeySchedule::new(sender), SECRET).unwrap();
        let report = execute_keyed(
            &mut overlay,
            &plan,
            &params,
            &pkgs,
            &config(AttackMode::ReleaseAhead),
        )
        .unwrap();
        let wire_at_ts = matches!(
            &report.adversary_reconstruction,
            Some((at, s)) if *at == SimTime::ZERO && s == SECRET
        );
        let model = keyed_release_predicate(&overlay, &plan);
        assert_eq!(wire_at_ts, model, "world seed {seed}");
        model_count += model as u32;
        wire_count += wire_at_ts as u32;
    }
    // Sanity: at p = 0.5 with a 2x2 grid both outcomes occur.
    assert!(model_count > 0 && wire_count > 0);
    assert!(model_count < 80);
}

#[test]
fn share_drop_outcomes_match_the_share_predicate() {
    let params = SchemeParams::Share {
        k: 2,
        l: 3,
        n: 6,
        m: vec![3, 3],
    };
    for seed in 300..360u64 {
        let mut overlay = world(60, 0.3, seed);
        let sender = SymmetricKey::from_bytes([(seed % 251) as u8; 32]);
        let plan = construct_paths(&overlay, &params, &sender).unwrap();
        let pkgs = build_share_packages(&plan, &params, &KeySchedule::new(sender), SECRET).unwrap();
        let report = execute_share(
            &mut overlay,
            &plan,
            &params,
            &pkgs,
            &config(AttackMode::Drop),
        )
        .unwrap();

        // Model: starvation (honest forwarders below threshold) or onion
        // capture (an all-malicious onion-row column). No churn here, so
        // "honest" is just the initial flag.
        let malicious = |row: usize, col: usize| overlay.initial(plan.slot(row, col)).malicious;
        let mut model_dropped = false;
        for col in 0..3 {
            if col >= 1 {
                let honest = (0..6).filter(|&r| !malicious(r, col - 1)).count();
                if honest < 3 {
                    model_dropped = true;
                }
            }
            if (0..2).all(|r| malicious(r, col)) {
                model_dropped = true;
            }
        }
        assert_eq!(
            report.released.is_none(),
            model_dropped,
            "world seed {seed}"
        );
    }
}

#[test]
fn share_strict_release_matches_quorum_chain() {
    let params = SchemeParams::Share {
        k: 2,
        l: 3,
        n: 5,
        m: vec![2, 2],
    };
    let mut hits = 0;
    for seed in 400..470u64 {
        let mut overlay = world(50, 0.45, seed);
        let sender = SymmetricKey::from_bytes([(seed % 251) as u8; 32]);
        let plan = construct_paths(&overlay, &params, &sender).unwrap();
        let pkgs = build_share_packages(&plan, &params, &KeySchedule::new(sender), SECRET).unwrap();
        let report = execute_share(
            &mut overlay,
            &plan,
            &params,
            &pkgs,
            &config(AttackMode::ReleaseAhead),
        )
        .unwrap();

        let malicious = |row: usize, col: usize| overlay.initial(plan.slot(row, col)).malicious;
        // Strict chain: onion contact at column 0 plus a share quorum at
        // every boundary.
        let onion0 = (0..2).any(|r| malicious(r, 0));
        let quorums = (1..3).all(|col| (0..5).filter(|&r| malicious(r, col - 1)).count() >= 2);
        let model = onion0 && quorums;
        let wire = report
            .adversary_reconstruction
            .as_ref()
            .is_some_and(|(_, s)| s == SECRET);
        assert_eq!(wire, model, "world seed {seed}");
        hits += wire as u32;
    }
    assert!(
        hits > 0,
        "at p=0.45 some worlds must fall to the quorum chain"
    );
}
