//! Failure injection on the deterministic fault plane.
//!
//! Every scenario here is a seeded [`FaultPlan`]: the same seed compiles
//! the same schedule of loss bursts, crash storms, outages and tampering,
//! so each assertion replays bit-identically. Scenarios run against the
//! analytic *and* contract substrates through the same
//! `FaultySubstrate` wrapper, plus the contract-native bonded path where
//! crashes turn into slashing withholds. One legacy probe survives from
//! the pre-fault-plane suite: the onion AEAD tamper check, which guards a
//! layer the injector sits above.

use self_emerging_data::contract::economy::{EconomyParams, HolderStrategy};
use self_emerging_data::contract::mc::run_bonded_trial_range_faulted;
use self_emerging_data::contract::release::BondedSpec;
use self_emerging_data::contract::substrate::{ContractConfig, ContractSubstrate};
use self_emerging_data::core::config::SchemeParams;
use self_emerging_data::core::faults::run_faulted_trials;
use self_emerging_data::core::montecarlo::ProtocolTrialSpec;
use self_emerging_data::core::protocol::AttackMode;
use self_emerging_data::crypto::keys::SymmetricKey;
use self_emerging_data::crypto::onion;
use self_emerging_data::dht::analytic::AnalyticSubstrate;
use self_emerging_data::dht::overlay::OverlayConfig;
use self_emerging_data::faults::{
    FaultEvent, FaultKind, FaultPlan, RecoveryPolicy, Scenario, PPM_SCALE,
};
use self_emerging_data::sim::time::{SimDuration, SimTime};

/// The protocol's active window: fault plans are compiled over the
/// emerging period plus headroom, not the world horizon, so the burst
/// actually overlaps the trials.
const PLAN_HORIZON: u64 = 4_000;

fn spec() -> ProtocolTrialSpec {
    ProtocolTrialSpec {
        params: SchemeParams::Share {
            k: 2,
            l: 3,
            n: 6,
            m: vec![3, 3],
        },
        emerging_period: SimDuration::from_ticks(3_000),
        attack: AttackMode::ReleaseAhead,
    }
}

fn world() -> OverlayConfig {
    OverlayConfig {
        n_nodes: 150,
        malicious_fraction: 0.2,
        mean_lifetime: Some(10_000),
        horizon: 100_000,
    }
}

fn analytic(seed: u64) -> AnalyticSubstrate {
    AnalyticSubstrate::build(world(), seed)
}

fn contract(seed: u64) -> ContractSubstrate {
    ContractSubstrate::build(ContractConfig::over(world()), seed)
}

#[test]
fn seeded_loss_burst_replays_bit_identically_on_both_substrates() {
    let plan = Scenario::LossBurst.plan(400_000, PLAN_HORIZON, 11);
    let policy = RecoveryPolicy::default();
    for factory in [analytic, analytic] {
        let a = run_faulted_trials(&spec(), &plan, policy, 25, 3, factory).unwrap();
        let b = run_faulted_trials(&spec(), &plan, policy, 25, 3, factory).unwrap();
        assert_eq!(a.base.fingerprint, b.base.fingerprint);
        assert_eq!(a.fault_fingerprint, b.fault_fingerprint);
        assert_eq!(a.disruptions.count(), b.disruptions.count());
    }
    let c1 = run_faulted_trials(&spec(), &plan, policy, 25, 3, contract).unwrap();
    let c2 = run_faulted_trials(&spec(), &plan, policy, 25, 3, contract).unwrap();
    assert_eq!(c1.base.fingerprint, c2.base.fingerprint);
    assert_eq!(c1.fault_fingerprint, c2.fault_fingerprint);
    assert!(
        c1.disrupted.successes() > 0,
        "a 40% loss burst must actually disrupt"
    );
}

#[test]
fn recovery_policy_beats_brittle_under_a_crash_storm() {
    let plan = Scenario::CrashStorm.plan(500_000, PLAN_HORIZON, 7);
    let recovering =
        run_faulted_trials(&spec(), &plan, RecoveryPolicy::default(), 40, 5, analytic).unwrap();
    let brittle =
        run_faulted_trials(&spec(), &plan, RecoveryPolicy::brittle(), 40, 5, analytic).unwrap();
    assert!(
        recovering.base.released.successes() >= brittle.base.released.successes(),
        "hedged retries must not lose to give-up-immediately ({} vs {})",
        recovering.base.released.successes(),
        brittle.base.released.successes()
    );
    assert!(
        recovering.disrupted.successes() > 0,
        "the storm must actually disrupt"
    );
    // Degraded successes are reported apart from clean ones and the two
    // exactly partition the released trials.
    assert_eq!(
        recovering.degraded.successes() + recovering.clean_of_faults.successes(),
        recovering.base.released.successes()
    );
}

#[test]
fn correlated_outage_degrades_gracefully_under_m_of_n() {
    // A sixth of all slots go dark for the middle of the window. The
    // share scheme only needs k-of-m columns, so the release rate bends
    // instead of collapsing — and some successes are degraded ones.
    let plan = Scenario::CorrelatedOutage.plan(160_000, PLAN_HORIZON, 13);
    let policy = RecoveryPolicy::default();
    let faulted = run_faulted_trials(&spec(), &plan, policy, 40, 9, analytic).unwrap();
    let plain = run_faulted_trials(&spec(), &FaultPlan::none(), policy, 40, 9, analytic).unwrap();
    assert!(faulted.disrupted.successes() > 0, "outage must fire");
    assert!(
        faulted.base.released.successes() > 0,
        "m-of-n headroom must survive a correlated outage"
    );
    assert!(
        faulted.base.released.successes() <= plain.base.released.successes(),
        "injected outages cannot help"
    );
}

#[test]
fn tamper_storm_loses_values_but_never_misroutes_them() {
    // Tampered find_value results fail AEAD authentication downstream;
    // what must never happen is a tampered value being *accepted*. At the
    // MC level that shows up as suppressed releases, never as garbage
    // releases or panics.
    let plan = Scenario::Tamper.plan(PPM_SCALE, PLAN_HORIZON, 17);
    let r =
        run_faulted_trials(&spec(), &plan, RecoveryPolicy::default(), 25, 21, analytic).unwrap();
    assert_eq!(r.base.released.trials(), 25);
    assert_eq!(
        r.degraded.successes() + r.clean_of_faults.successes(),
        r.base.released.successes()
    );
}

#[test]
fn crashed_bonded_holders_slash_exactly_their_bonds() {
    // Contract substrate, contract-native path: a total crash storm makes
    // every holder miss its reveal, and the escrow slashes exactly one
    // bond per corpse — fault injection must not bend the economics.
    let spec = BondedSpec {
        strategy: HolderStrategy::Compliant,
        ..BondedSpec::new(6, 4, SimDuration::from_ticks(1_000))
    };
    // An all-window plan: the block clock quantizes the reveal instant,
    // so a windowed scenario could miss it on some worlds and dilute the
    // exact-slash assertion.
    let plan = FaultPlan::new(
        23,
        vec![FaultEvent {
            from: SimTime::ZERO,
            to: SimTime::MAX,
            kind: FaultKind::CrashRestart {
                crash_ppm: PPM_SCALE,
            },
        }],
    );
    let r = run_bonded_trial_range_faulted(&spec, &plan, 0, 20, 29, |s| {
        ContractSubstrate::build(
            ContractConfig::over(OverlayConfig {
                n_nodes: 80,
                malicious_fraction: 0.0,
                ..OverlayConfig::default()
            }),
            s,
        )
    })
    .unwrap();
    assert_eq!(r.base.released.successes(), 0, "total storm starves quorum");
    assert!(r.disrupted.successes() > 0);
    let bond = EconomyParams::default().bond;
    assert_eq!(r.base.slashed.min(), (6 * bond) as f64);
    assert_eq!(r.base.slashed.max(), (6 * bond) as f64);
}

#[test]
fn legacy_probe_tampered_onion_layers_are_rejected_not_misrouted() {
    let k1 = SymmetricKey::from_bytes([1; 32]);
    let k2 = SymmetricKey::from_bytes([2; 32]);
    let onion_bytes = onion::build_onion(&[(&k1, b"hop1"), (&k2, b"hop2")], b"secret");

    // Flip every byte position one at a time near the front and verify
    // authentication always fails (no partial acceptance).
    for pos in 0..24.min(onion_bytes.len()) {
        let mut tampered = onion_bytes.clone();
        tampered[pos] ^= 0x01;
        assert!(
            onion::peel(&k1, &tampered).is_err(),
            "tampering at byte {pos} must be detected"
        );
    }
}
