//! Substrate parity: the `AnalyticSubstrate` DHT world and the
//! `ContractSubstrate` layered on it must be indistinguishable to the
//! key-routing schemes. For equal `(OverlayConfig, seed)` pairs the
//! contract layer delegates population, churn and holder resolution to
//! the analytic world, so every path plan, protocol report and end-to-end
//! emergence outcome must match bit for bit across all four schemes —
//! the chain's block clock and storage bonds never perturb what the
//! schemes observe.

use self_emerging_data::core::config::{SchemeKind, SchemeParams};
use self_emerging_data::core::emergence::{SelfEmergingSystem, SendRequest};
use self_emerging_data::core::montecarlo::{run_protocol_trials, ProtocolTrialSpec};
use self_emerging_data::core::package::{build_keyed_packages, build_share_packages, KeySchedule};
use self_emerging_data::core::path::construct_paths;
use self_emerging_data::core::protocol::{
    execute_central, execute_keyed, execute_share, AttackMode, RunConfig, RunReport,
};
use self_emerging_data::core::substrate::{
    AnalyticSubstrate, ContractConfig, ContractSubstrate, HolderSubstrate, OverlayConfig,
};
use self_emerging_data::crypto::keys::SymmetricKey;
use self_emerging_data::sim::time::{SimDuration, SimTime};

const ATTACKS: [AttackMode; 3] = [
    AttackMode::Passive,
    AttackMode::ReleaseAhead,
    AttackMode::Drop,
];

fn churny_config(n: usize, p: f64) -> OverlayConfig {
    OverlayConfig {
        n_nodes: n,
        malicious_fraction: p,
        mean_lifetime: Some(10_000),
        horizon: 100_000,
    }
}

fn params_for(kind: SchemeKind) -> SchemeParams {
    match kind {
        SchemeKind::Central => SchemeParams::Central,
        SchemeKind::Disjoint => SchemeParams::Disjoint { k: 3, l: 4 },
        SchemeKind::Joint => SchemeParams::Joint { k: 3, l: 4 },
        SchemeKind::Share => SchemeParams::Share {
            k: 2,
            l: 4,
            n: 6,
            m: vec![3, 3, 4],
        },
    }
}

/// Runs one full protocol execution on a substrate, returning the report.
fn run_protocol<S: HolderSubstrate>(
    substrate: &mut S,
    params: &SchemeParams,
    sender_seed: &SymmetricKey,
    attack: AttackMode,
) -> (Vec<usize>, RunReport) {
    let plan = construct_paths(substrate, params, sender_seed).expect("plan");
    let config = RunConfig {
        ts: SimTime::ZERO,
        emerging_period: SimDuration::from_ticks(8_000),
        attack,
    };
    let schedule = KeySchedule::new(sender_seed.clone());
    let secret = sender_seed.derive(b"parity-secret").as_bytes().to_vec();
    let report = match params {
        SchemeParams::Central => execute_central(substrate, &plan, &secret, &config),
        SchemeParams::Disjoint { .. } | SchemeParams::Joint { .. } => {
            let pkgs = build_keyed_packages(&plan, params, &schedule, &secret).expect("pkgs");
            execute_keyed(substrate, &plan, params, &pkgs, &config)
        }
        SchemeParams::Share { .. } => {
            let pkgs = build_share_packages(&plan, params, &schedule, &secret).expect("pkgs");
            execute_share(substrate, &plan, params, &pkgs, &config)
        }
    }
    .expect("protocol run");
    (plan.slots, report)
}

#[test]
fn holder_sequences_are_identical_across_substrates() {
    for kind in SchemeKind::ALL {
        let params = params_for(kind);
        for seed in 0..6u64 {
            let config = churny_config(200, 0.25);
            let contract = ContractSubstrate::build(ContractConfig::over(config), seed);
            let analytic = AnalyticSubstrate::build(config, seed);
            let sender_seed = SymmetricKey::from_bytes([seed as u8 + 1; 32]);
            let chained = construct_paths(&contract, &params, &sender_seed).expect("contract plan");
            let fast = construct_paths(&analytic, &params, &sender_seed).expect("analytic plan");
            assert_eq!(chained, fast, "{kind} plan diverged at seed {seed}");
        }
    }
}

#[test]
fn protocol_reports_are_identical_across_substrates() {
    for kind in SchemeKind::ALL {
        let params = params_for(kind);
        for attack in ATTACKS {
            for seed in 0..4u64 {
                let config = churny_config(150, 0.3);
                let mut contract = ContractSubstrate::build(ContractConfig::over(config), seed);
                let mut analytic = AnalyticSubstrate::build(config, seed);
                let sender_seed = SymmetricKey::from_bytes([seed as u8 + 9; 32]);
                let chained = run_protocol(&mut contract, &params, &sender_seed, attack);
                let fast = run_protocol(&mut analytic, &params, &sender_seed, attack);
                assert_eq!(
                    chained, fast,
                    "{kind} under {attack:?} diverged at seed {seed}"
                );
            }
        }
    }
}

#[test]
fn end_to_end_emergence_is_identical_across_substrates() {
    for (i, kind) in SchemeKind::ALL.into_iter().enumerate() {
        let config = churny_config(250, 0.1);
        let seed = 400 + i as u64;
        let request = || SendRequest {
            message: format!("parity payload for {kind}").into_bytes(),
            emerging_period: SimDuration::from_ticks(12_000),
            scheme: kind,
            target_resilience: 0.99,
            expected_malicious_rate: 0.1,
        };

        let mut chained = SelfEmergingSystem::with_substrate(
            ContractSubstrate::build(ContractConfig::over(config), seed),
            seed,
        );
        let mut handle_chained = chained.send(request()).expect("contract send");
        chained.run_to_release(&mut handle_chained);

        let mut fast = SelfEmergingSystem::new(config, seed);
        let mut handle_fast = fast.send(request()).expect("analytic send");
        fast.run_to_release(&mut handle_fast);

        assert_eq!(handle_chained.params, handle_fast.params, "{kind} params");
        assert_eq!(handle_chained.plan, handle_fast.plan, "{kind} plan");
        assert_eq!(handle_chained.report, handle_fast.report, "{kind} report");
        assert_eq!(
            chained.receive(&handle_chained).ok(),
            fast.receive(&handle_fast).ok(),
            "{kind} received message"
        );
    }
}

#[test]
fn montecarlo_fingerprints_agree_for_all_schemes() {
    for kind in SchemeKind::ALL {
        let spec = ProtocolTrialSpec {
            params: params_for(kind),
            emerging_period: SimDuration::from_ticks(5_000),
            attack: AttackMode::ReleaseAhead,
        };
        let config = churny_config(120, 0.35);
        let chained = run_protocol_trials(&spec, 10, 77, |s| {
            ContractSubstrate::build(ContractConfig::over(config), s)
        })
        .expect("contract trials");
        let fast = run_protocol_trials(&spec, 10, 77, |s| AnalyticSubstrate::build(config, s))
            .expect("analytic trials");
        assert_eq!(chained.fingerprint, fast.fingerprint, "{kind} fingerprint");
        assert_eq!(
            chained.clean.successes(),
            fast.clean.successes(),
            "{kind} clean"
        );
        assert_eq!(
            chained.released.successes(),
            fast.released.successes(),
            "{kind} released"
        );
        assert_eq!(
            chained.reconstructed_early.successes(),
            fast.reconstructed_early.successes(),
            "{kind} reconstructed"
        );
    }
}

#[test]
fn resolution_parity_over_random_targets() {
    let config = churny_config(500, 0.2);
    let contract = ContractSubstrate::build(ContractConfig::over(config), 123);
    let analytic = AnalyticSubstrate::build(config, 123);
    for i in 0..200 {
        let target =
            self_emerging_data::dht::id::NodeId::from_name(format!("target-{i}").as_bytes());
        assert_eq!(
            HolderSubstrate::resolve_holder(&contract, &target),
            HolderSubstrate::resolve_holder(&analytic, &target),
            "holder resolution diverged for target {i}"
        );
        assert_eq!(
            HolderSubstrate::closest_slots(&contract, &target, 7),
            HolderSubstrate::closest_slots(&analytic, &target, 7),
            "closest slots diverged for target {i}"
        );
    }
}
