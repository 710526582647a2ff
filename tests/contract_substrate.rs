//! The contract-native bonded mode's workspace-level guarantees:
//!
//! 1. **Sharded == serial** — the sharded Monte-Carlo guarantee extends
//!    to the bonded release on `ContractSubstrate`, for every thread
//!    count of `emerge_sim::shard::run_sharded` (what CI's
//!    `EMERGE_MC_THREADS` matrix guards).
//! 2. **Economics invariants** — escrow conservation, no double-claim,
//!    and slash-only-on-misbehaviour, property-tested across seeds,
//!    malicious rates and adversary strategies; bond sizing prices out
//!    the drop attack.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use self_emerging_data::contract::contract::HolderPhase;
use self_emerging_data::contract::economy::{EconomyParams, HolderStrategy};
use self_emerging_data::contract::mc::{
    run_bonded_trial_range, run_bonded_trials, BondedMcResults,
};
use self_emerging_data::contract::release::{run_bonded_release, BondedSpec};
use self_emerging_data::contract::substrate::{ContractConfig, ContractSubstrate};
use self_emerging_data::contract::ContractError;
use self_emerging_data::dht::overlay::OverlayConfig;
use self_emerging_data::sim::shard::run_sharded;
use self_emerging_data::sim::time::SimDuration;

const SHARD_COUNTS: [usize; 3] = [1, 2, 7];

fn world(n: usize, p: f64) -> OverlayConfig {
    OverlayConfig {
        n_nodes: n,
        malicious_fraction: p,
        mean_lifetime: Some(10_000),
        horizon: 100_000,
    }
}

fn contract_factory(cfg: OverlayConfig) -> impl Fn(u64) -> ContractSubstrate + Sync {
    move |seed| ContractSubstrate::build(ContractConfig::over(cfg), seed)
}

fn bonded_spec(strategy: HolderStrategy) -> BondedSpec {
    BondedSpec {
        strategy,
        ..BondedSpec::new(8, 5, SimDuration::from_ticks(2_000))
    }
}

fn assert_bonded_identical(label: &str, a: &BondedMcResults, b: &BondedMcResults) {
    assert_eq!(a.fingerprint, b.fingerprint, "{label}: fingerprint");
    assert_eq!(a.released, b.released, "{label}: released");
    assert_eq!(a.clean, b.clean, "{label}: clean");
    assert_eq!(a.leaked_early, b.leaked_early, "{label}: leaked_early");
    assert_eq!(
        a.withheld_quorum, b.withheld_quorum,
        "{label}: withheld_quorum"
    );
    assert_eq!(a.slashed.count(), b.slashed.count(), "{label}: count");
    assert_eq!(a.slashed.min(), b.slashed.min(), "{label}: min");
    assert_eq!(a.slashed.max(), b.slashed.max(), "{label}: max");
    assert!(
        (a.slashed.mean() - b.slashed.mean()).abs() < 1e-9,
        "{label}: mean"
    );
}

#[test]
fn bonded_release_sharded_matches_serial() {
    for strategy in [
        HolderStrategy::Compliant,
        HolderStrategy::AlwaysWithhold,
        HolderStrategy::AlwaysRevealEarly,
        HolderStrategy::Rational {
            withhold_bribe: 200,
            early_reveal_bribe: 150,
        },
    ] {
        let spec = bonded_spec(strategy);
        let cfg = world(150, 0.3);
        let serial = run_bonded_trials(&spec, 13, 11, contract_factory(cfg)).unwrap();
        for threads in SHARD_COUNTS {
            let sharded = run_sharded(13, threads, |first, count| {
                run_bonded_trial_range(&spec, first, count, 11, contract_factory(cfg))
            })
            .unwrap();
            assert_bonded_identical(
                &format!("{strategy:?}/{threads} threads"),
                &serial,
                &sharded,
            );
        }
    }
}

#[test]
fn double_claim_is_rejected_at_the_contract() {
    use self_emerging_data::contract::contract::{commitment, DepositTerms, ReleaseContract};
    use self_emerging_data::contract::Ledger;

    let mut ledger = Ledger::new(2, 1_000);
    let mut contract = ReleaseContract::new();
    let id = contract
        .open(
            &mut ledger,
            DepositTerms {
                depositor: 1,
                bond: 100,
                reveal_reward: 10,
                reveal_from: 4,
                reveal_by: 6,
            },
            &[0],
            0,
        )
        .unwrap();
    contract.commit(id, 0, commitment(b"share"), 1).unwrap();
    contract.reveal(id, 0, b"share", 4).unwrap();
    contract.finalize(&mut ledger, id, 6).unwrap();
    assert_eq!(contract.claim(&mut ledger, id, 0).unwrap(), 110);
    assert!(matches!(
        contract.claim(&mut ledger, id, 0),
        Err(ContractError::AlreadyClaimed { holder: 0 })
    ));
    assert_eq!(ledger.balance(0), 1_010, "payout landed exactly once");
    assert_eq!(ledger.total_supply(), 2_000);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Escrow conservation + slash-only-on-misbehaviour, across seeds,
    /// malicious rates, strategies and churn:
    ///
    /// * the total token supply is unchanged by a full bonded release;
    /// * every escrowed token is settled (escrow drains to zero);
    /// * a holder is slashed **iff** it failed to reveal in-window
    ///   (withheld, died, or revealed early), and the slashed amount is
    ///   exactly `bond` per misbehaving holder;
    /// * an in-window revealer is never slashed and nets exactly the
    ///   reveal reward.
    #[test]
    fn bonded_release_economics_invariants(
        seed in 0u64..5_000,
        p in 0.0f64..1.0,
        strategy_idx in 0usize..4,
        churn: bool,
    ) {
        let strategy = [
            HolderStrategy::Compliant,
            HolderStrategy::AlwaysWithhold,
            HolderStrategy::AlwaysRevealEarly,
            HolderStrategy::Rational { withhold_bribe: 200, early_reveal_bribe: 111 },
        ][strategy_idx];
        let cfg = OverlayConfig {
            n_nodes: 120,
            malicious_fraction: p,
            mean_lifetime: if churn { Some(5_000) } else { None },
            horizon: 100_000,
        };
        let mut substrate = ContractSubstrate::build(ContractConfig::over(cfg), seed);
        let economy = *substrate.economy();
        let supply_before = substrate.ledger().total_supply();
        let spec = bonded_spec(strategy);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD15C);
        let report = run_bonded_release(&mut substrate, &spec, b"property secret", &mut rng)
            .unwrap();

        // Conservation: nothing minted, nothing destroyed, nothing stuck.
        prop_assert_eq!(substrate.ledger().total_supply(), supply_before);
        prop_assert_eq!(substrate.ledger().escrow(), 0, "everything settled");
        prop_assert_eq!(substrate.ledger().treasury(), report.slashed);

        // Slash accounting: exactly bond per misbehaving holder.
        let misbehaving = (report.early + report.withheld) as u64;
        prop_assert_eq!(report.slashed, misbehaving * economy.bond);
        prop_assert_eq!(report.on_time + report.early + report.withheld, spec.n);
        prop_assert!(report.died <= report.withheld);

        // Per-holder: slashed ⇔ misbehaved; claimed ⇔ revealed in-window.
        let contract = substrate.contract();
        let mut slashed_count = 0usize;
        for (holder, &slot) in report.slots.iter().enumerate() {
            match contract.holder_phase(0, holder).unwrap() {
                HolderPhase::Claimed => {
                    prop_assert_eq!(
                        substrate.ledger().balance(slot),
                        economy.holder_funds + economy.reveal_reward,
                        "in-window revealer nets the reward"
                    );
                }
                HolderPhase::Slashed => {
                    slashed_count += 1;
                    prop_assert_eq!(
                        substrate.ledger().balance(slot),
                        economy.holder_funds - economy.bond,
                        "misbehaving holder forfeits its bond"
                    );
                }
                other => prop_assert!(
                    false,
                    "after settlement every holder is Claimed or Slashed, got {:?}",
                    other
                ),
            }
        }
        prop_assert_eq!(slashed_count, report.early + report.withheld);

        // The failure predicates partition correctly.
        prop_assert_eq!(report.released.is_none(), report.failure.is_some());
        if report.early_leak.is_some() {
            prop_assert!(report.early >= spec.m, "a leak needs an early quorum");
        }
    }

    /// Quantified economics: once the bribe covers the deviation cost the
    /// drop probability jumps, and pricing the bond above the bribe
    /// restores the release — the contract's security knob, measured.
    #[test]
    fn bond_sizing_gates_the_drop_attack(seed in 0u64..1_000) {
        // Every holder adversary-controlled, no churn: the outcome is
        // purely the rational holders' bribe arithmetic.
        let cfg = OverlayConfig {
            n_nodes: 120,
            malicious_fraction: 1.0,
            ..OverlayConfig::default()
        };
        let economy = EconomyParams::default();
        let bribe = economy.deviation_cost() + 1;
        let bribed = BondedSpec {
            strategy: HolderStrategy::Rational {
                withhold_bribe: bribe,
                early_reveal_bribe: 0,
            },
            ..bonded_spec(HolderStrategy::Compliant)
        };
        let r = run_bonded_trials(&bribed, 4, seed, contract_factory(cfg)).unwrap();
        prop_assert_eq!(r.released.value(), 0.0, "profitable bribes drop everything");

        // Same bribe, bigger bond: deviation no longer pays.
        let big_bond = EconomyParams { bond: bribe, ..economy };
        let priced_out = move |s| {
            ContractSubstrate::build(
                ContractConfig { economy: big_bond, ..ContractConfig::over(cfg) },
                s,
            )
        };
        let r = run_bonded_trials(&bribed, 4, seed, priced_out).unwrap();
        prop_assert_eq!(r.released.value(), 1.0, "bond above bribe restores release");
    }
}
