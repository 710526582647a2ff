//! Failure injection on the deterministic fault plane.
//!
//! Every scenario here is a seeded [`FaultPlan`]: the same seed compiles
//! the same schedule of loss bursts, outages, crash and churn storms and
//! clock skew, so each assertion replays bit-identically. Protocol
//! scenarios run on the analytic world through the `FaultySubstrate`
//! wrapper; the contract-native bonded path turns crashes and skew into
//! slashing withholds. One legacy probe survives from the pre-fault-plane
//! suite: the onion AEAD tamper check, which guards a layer the injector
//! sits above.

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
use self_emerging_data::faults::{FaultEvent, FaultKind, FaultPlan, Scenario, PPM_SCALE};
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

#[test]
fn seeded_loss_burst_replays_bit_identically() {
    let plan = Scenario::LossBurst.plan(400_000, PLAN_HORIZON, 11);
    let a = run_faulted_trials(&spec(), &plan, 25, 3, analytic).unwrap();
    let b = run_faulted_trials(&spec(), &plan, 25, 3, analytic).unwrap();
    assert_eq!(a.base.fingerprint, b.base.fingerprint);
    assert_eq!(a.fault_fingerprint, b.fault_fingerprint);
    assert_eq!(a.disruptions.count(), b.disruptions.count());
    assert!(
        a.disrupted.successes() > 0,
        "a 40% loss burst must actually disrupt"
    );
}

#[test]
fn correlated_outage_degrades_gracefully_under_m_of_n() {
    // A sixth of all slots go dark for the middle of the window. The
    // share scheme only needs k-of-m columns, so the release rate bends
    // instead of collapsing — and some successes are degraded ones.
    let plan = Scenario::CorrelatedOutage.plan(160_000, PLAN_HORIZON, 13);
    let faulted = run_faulted_trials(&spec(), &plan, 40, 9, analytic).unwrap();
    let plain = run_faulted_trials(&spec(), &FaultPlan::none(), 40, 9, analytic).unwrap();
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

/// `[fingerprint, fault_fingerprint]` of `fault_frontier_matches_golden`'s
/// cells, in loop order: share 8×3 then joint 2×3, each over loss burst,
/// correlated outage, crash storm and churn storm at 50k, 150k and 400k
/// ppm.
const FRONTIER_GOLDEN: [[u64; 2]; 24] = [
    [0xcc7b_c66e_c0d5_ad15, 0x95e2_1a10_1214_efc3],
    [0x9295_5d1e_76de_cdff, 0x04a0_589f_6195_1935],
    [0x8684_7fe6_b656_b6d7, 0xc44a_84c2_63c1_838a],
    [0x18d1_8cdc_3c15_a5f2, 0x4eb8_bbf8_a895_bbf0],
    [0x48b8_84d7_68c3_4246, 0x335e_2db7_175d_fe03],
    [0x087d_304f_48f9_6dfe, 0x323d_ca4a_4a0b_b32b],
    [0x63c8_a8a1_b698_bf89, 0x1ad1_9e9e_f5ed_db53],
    [0xa247_1f21_309b_1436, 0x3197_6a30_a917_5924],
    [0xb932_699c_4901_caab, 0xe4a8_ebcb_1413_8a08],
    [0x3f17_408c_6037_f6d5, 0xa6ad_98e6_9423_59d6],
    [0x8a52_f3cd_9aaa_fbe9, 0x4241_5786_b341_eb92],
    [0x877b_eb5b_cf69_063a, 0x8832_8740_22f3_e79d],
    [0x4b82_3394_1804_9359, 0x0a2d_13df_fbbb_33ee],
    [0x4b82_3394_1804_9359, 0xb473_8de3_5949_a48e],
    [0x4b82_3394_1804_9359, 0x3ee8_dbc1_f213_d83f],
    [0x4b82_3394_1804_9359, 0x3944_a855_cfa4_ae3b],
    [0x4b82_3394_1804_9359, 0x829f_594a_ee2f_78a6],
    [0x4b82_3394_1804_9359, 0x4ae4_6367_6563_ccd0],
    [0x4b82_3394_1804_9359, 0xbe5c_fa9b_310d_23c8],
    [0x4b82_3394_1804_9359, 0x5902_215b_6d46_1850],
    [0x4b82_3394_1804_9359, 0xe672_d656_ca5d_8ffe],
    [0x4b82_3394_1804_9359, 0x321f_ee6e_0eec_d265],
    [0x4b82_3394_1804_9359, 0xc4e7_ed19_03f3_248b],
    [0x4b82_3394_1804_9359, 0x9070_5144_ee0c_897b],
];

/// The frontier's 1k-node world and seed, shared by the protocol and the
/// clock-skew cells.
const FRONTIER_WORLD: OverlayConfig = OverlayConfig {
    n_nodes: 1_000,
    malicious_fraction: 0.2,
    mean_lifetime: Some(40_000),
    horizon: 200_000,
};
const FRONTIER_SEED: u64 = 0xB45E;

#[test]
fn fault_frontier_matches_golden() {
    // The protocol fault frontier (four scenarios, a three-step ladder,
    // a 10k-tick plan horizon) on a share and a keyed cell. The fault
    // fingerprint digests every trial's injector counters, so it also
    // pins substrate queries whose answers the executors ignore.
    let cells = [
        SchemeParams::Share {
            k: 2,
            l: 3,
            n: 8,
            m: vec![4, 4],
        },
        SchemeParams::Joint { k: 2, l: 3 },
    ];
    let mut golden = FRONTIER_GOLDEN.iter();
    for params in cells {
        let spec = ProtocolTrialSpec {
            params,
            emerging_period: SimDuration::from_ticks(8_000),
            attack: AttackMode::ReleaseAhead,
        };
        for scenario in [
            Scenario::LossBurst,
            Scenario::CorrelatedOutage,
            Scenario::CrashStorm,
            Scenario::ChurnStorm,
        ] {
            for ppm in [50_000, 150_000, 400_000] {
                let plan = scenario.plan(ppm, 10_000, FRONTIER_SEED);
                let r = run_faulted_trials(&spec, &plan, 20, FRONTIER_SEED, |s| {
                    AnalyticSubstrate::build(FRONTIER_WORLD, s)
                })
                .unwrap();
                assert_eq!(
                    Some(&[r.base.fingerprint, r.fault_fingerprint]),
                    golden.next(),
                    "{:?} under {}@{ppm}ppm",
                    spec.params,
                    scenario.name()
                );
            }
        }
    }
}

/// `[fingerprint, fault_fingerprint]` of `clock_skew_frontier_matches_golden`'s
/// cells: the bonded 24-of-16 release under block-clock skew at 50k, 150k
/// and 400k ppm. The three cells release 19, 14 and 1 of their 20 trials.
const CLOCK_SKEW_GOLDEN: [[u64; 2]; 3] = [
    [0xcf17_7757_bcd3_889b, 0x4756_827d_8b78_6956],
    [0x7b40_0d7e_b166_5486, 0xb442_8208_b5cb_aa88],
    [0xe4d3_f4d4_cb26_9038, 0xee30_9388_9e8d_4aa7],
];

#[test]
fn clock_skew_frontier_matches_golden() {
    // Clock skew is contract-native: it bends the holders' block clocks,
    // not hop deadlines, so its frontier runs on the bonded cell, where a
    // holder whose skewed window start passes the close is slashed as a
    // withholder. Rational adversaries are offered bribes below their
    // bond, so the economics, not the adversary, carry the release.
    let spec = BondedSpec {
        n: 24,
        m: 16,
        emerging_period: SimDuration::from_ticks(8_000),
        reveal_window_blocks: 1,
        strategy: HolderStrategy::Rational {
            withhold_bribe: 100,
            early_reveal_bribe: 100,
        },
    };
    let mut golden = CLOCK_SKEW_GOLDEN.iter();
    for ppm in [50_000, 150_000, 400_000] {
        let plan = Scenario::ClockSkew.plan(ppm, 10_000, FRONTIER_SEED);
        let r = run_bonded_trial_range_faulted(&spec, &plan, 0, 20, FRONTIER_SEED, |s| {
            ContractSubstrate::build(ContractConfig::over(FRONTIER_WORLD), s)
        })
        .unwrap();
        assert_eq!(
            Some(&[r.base.fingerprint, r.fault_fingerprint]),
            golden.next(),
            "clock_skew@{ppm}ppm"
        );
    }
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
