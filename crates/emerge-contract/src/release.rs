//! The contract-native emergence mode: bonded `(m, n)` share release.
//!
//! Instead of routing the key hop-by-hop with per-hop deadlines (the DHT
//! schemes), the sender Shamir-splits the secret into `n` shares, hands
//! one to each of `n` pseudo-randomly chosen holders, and opens a
//! [`ReleaseContract`](crate::contract::ReleaseContract) deposit binding
//! each holder's bond to a commitment of its share. Release is enforced
//! by incentives, not by hops:
//!
//! * an honest, surviving holder reveals its share inside the reveal
//!   window and reclaims bond + reward;
//! * a withholding holder (bribed, or simply dead — the contract cannot
//!   tell) is slashed; the key is lost only if **fewer than `m` shares
//!   ever go public** — the [`BondedFailure::WithheldQuorum`] predicate;
//! * an early-revealing holder publishes its share before `tr` and is
//!   slashed; the secret leaks early only if **`m` shares are public
//!   before `tr`** — the early-reveal-leak predicate.
//!
//! Both failure predicates are evaluated with *real* reconstruction:
//! the adversary (and the receiver) combine actual GF(256) shares, so a
//! reported leak is a demonstrated leak.

use crate::clock::BlockHeight;
use crate::contract::{commitment, DepositTerms};
use crate::economy::{HolderStrategy, RevealAction};
use crate::error::ContractError;
use crate::substrate::ContractSubstrate;
use emerge_crypto::keys::KeyShare;
use emerge_crypto::shamir;
use emerge_faults::{FaultInjector, FaultPlan};
use emerge_sim::time::{SimDuration, SimTime};
use rand::rngs::StdRng;

/// Parameters of one bonded release.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BondedSpec {
    /// Number of holders (shares).
    pub n: usize,
    /// Reconstruction threshold.
    pub m: usize,
    /// Emerging period `T = tr − ts`.
    pub emerging_period: SimDuration,
    /// Length of the reveal window in blocks (the grace period holders
    /// have to submit once the release block is reached).
    pub reveal_window_blocks: u64,
    /// Behaviour of adversary-controlled holders.
    pub strategy: HolderStrategy,
}

impl BondedSpec {
    /// A spec with a one-block reveal window and compliant adversaries.
    pub fn new(n: usize, m: usize, emerging_period: SimDuration) -> Self {
        BondedSpec {
            n,
            m,
            emerging_period,
            reveal_window_blocks: 1,
            strategy: HolderStrategy::Compliant,
        }
    }

    /// Checks what needs no world: `m` in `[1, n]`, at most
    /// [`shamir::MAX_SHARES`] holders and a reveal window of at least one
    /// block.
    ///
    /// # Errors
    ///
    /// [`ContractError::InvalidParameters`] naming the first bad value.
    pub fn validate(&self) -> Result<(), ContractError> {
        if self.m == 0 || self.m > self.n {
            return Err(ContractError::InvalidParameters(format!(
                "threshold m must be in [1, n]: m={}, n={}",
                self.m, self.n
            )));
        }
        if self.n > shamir::MAX_SHARES {
            return Err(ContractError::InvalidParameters(format!(
                "GF(256) sharing supports at most {} holders, got {}",
                shamir::MAX_SHARES,
                self.n
            )));
        }
        if self.reveal_window_blocks == 0 {
            return Err(ContractError::InvalidParameters(
                "the reveal window must span at least one block".into(),
            ));
        }
        Ok(())
    }
}

/// Why a bonded release failed to emerge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BondedFailure {
    /// Fewer than `m` shares ever went public: the withhold attack (or
    /// churn) starved the reconstruction quorum.
    WithheldQuorum {
        /// Shares public by the end of the reveal window.
        revealed: usize,
        /// The threshold `m`.
        needed: usize,
    },
}

impl std::fmt::Display for BondedFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BondedFailure::WithheldQuorum { revealed, needed } => write!(
                f,
                "withheld quorum: only {revealed} of the {needed} required shares went public"
            ),
        }
    }
}

/// Outcome of one bonded release run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BondedReport {
    /// The holder slots used, in share-index order.
    pub slots: Vec<usize>,
    /// The reconstructed secret and the instant it became available to
    /// the receiver, if a quorum went public.
    pub released: Option<(SimTime, Vec<u8>)>,
    /// The secret and instant of an early reconstruction, if `m` shares
    /// were public strictly before `tr`.
    pub early_leak: Option<(SimTime, Vec<u8>)>,
    /// Why the release failed, if it did.
    pub failure: Option<BondedFailure>,
    /// Holders that revealed inside the window.
    pub on_time: usize,
    /// Holders that revealed early (slashed; shares public before `tr`).
    pub early: usize,
    /// Holders that never revealed (bribed withholders plus churn
    /// victims; all slashed).
    pub withheld: usize,
    /// The subset of `withheld` whose registered tenant died before it
    /// could reveal.
    pub died: usize,
    /// Total bond value slashed into the treasury.
    pub slashed: u64,
    /// Total reveal rewards paid out to claiming holders.
    pub rewards_paid: u64,
}

impl BondedReport {
    /// Whether the secret emerged exactly as intended: released, and
    /// never reconstructed before `tr`.
    pub fn clean_emergence(&self) -> bool {
        self.released.is_some() && self.early_leak.is_none()
    }
}

/// What one holder does, resolved against its slot's churn timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ResolvedAction {
    OnTime,
    Early(BlockHeight),
    Withhold { died: bool },
}

/// Runs one bonded release on `substrate`, deterministically from `rng`
/// (slot sampling and share splitting are the only randomness): the
/// empty-plan case of [`run_bonded_release_faulted`].
///
/// Advances the substrate clock to the end of the reveal window.
///
/// # Errors
///
/// [`ContractError::InvalidParameters`] for a spec that fails
/// [`BondedSpec::validate`] or a population smaller than `n`.
pub fn run_bonded_release(
    substrate: &mut ContractSubstrate,
    spec: &BondedSpec,
    secret: &[u8],
    rng: &mut StdRng,
) -> Result<BondedReport, ContractError> {
    let no_faults = FaultPlan::none().arm(0);
    run_bonded_release_faulted(substrate, spec, secret, rng, &no_faults)
}

/// [`run_bonded_release`] under an armed fault plan: crash faults kill a
/// holder's registered tenant before its reveal instant (the contract
/// slashes exactly its bond, indistinguishable from a churn death), and
/// block-clock skew makes a holder believe the reveal window opens
/// `skew` blocks later than it does — when the skew exceeds the window
/// length the holder misses it entirely and is slashed as a withholder.
/// An injector armed from an empty plan touches no holder.
///
/// # Errors
///
/// See [`run_bonded_release`].
pub fn run_bonded_release_faulted(
    substrate: &mut ContractSubstrate,
    spec: &BondedSpec,
    secret: &[u8],
    rng: &mut StdRng,
    faults: &FaultInjector,
) -> Result<BondedReport, ContractError> {
    spec.validate()?;
    if spec.n > substrate.n_nodes() {
        return Err(ContractError::InvalidParameters(format!(
            "population of {} cannot host {} holders",
            substrate.n_nodes(),
            spec.n
        )));
    }

    let clock = substrate.clock();
    let ts = substrate.now();
    let tr = ts + spec.emerging_period;
    let open_block = clock.height_at(ts);
    // The release block: the first block starting at or after tr. When tr
    // falls inside the block being opened (an emerging period shorter
    // than the block interval), the window is pushed to the next block —
    // a contract can never release within the block it was opened in.
    let reveal_from = clock.first_block_at_or_after(tr).max(open_block + 1);
    let reveal_by = reveal_from + spec.reveal_window_blocks;

    // Sample the holder grid and split the secret.
    let slots = substrate.sample_distinct_slots(spec.n, rng);
    let shares = shamir::split(secret, spec.m, spec.n, rng)?;
    let payloads: Vec<Vec<u8>> = shares.iter().map(share_payload).collect();

    // Open the deposit (register + bond escrow) and commit every share.
    let economy = *substrate.economy();
    let depositor = substrate.depositor_account();
    let holder_accounts: Vec<usize> = slots.iter().map(|&s| substrate.slot_account(s)).collect();
    let (contract, ledger) = substrate.contract_mut();
    let deposit = contract.open(
        ledger,
        DepositTerms {
            depositor,
            bond: economy.bond,
            reveal_reward: economy.reveal_reward,
            reveal_from,
            reveal_by,
        },
        &holder_accounts,
        open_block,
    )?;
    for (holder, payload) in payloads.iter().enumerate() {
        contract.commit(deposit, holder, commitment(payload), open_block)?;
    }

    // Resolve each holder's behaviour against its churn timeline. The
    // registered tenant (the generation holding the slot at ts) is the
    // only party that ever knows the share: if it dies before its reveal
    // instant, the share is gone and the contract slashes a corpse.
    // The earliest block an early reveal can land in; when the reveal
    // window opens in the very next block there is no early window at
    // all, and the `early_block < reveal_from` guard below degrades an
    // Early action to an on-time reveal.
    let early_block = open_block + 1;
    let reveal_instant = clock.time_of(reveal_from);
    let actions: Vec<ResolvedAction> = slots
        .iter()
        .map(|&slot| {
            let tenant = *substrate.generation_at(slot, ts);
            let action = if tenant.malicious {
                spec.strategy.decide(&economy)
            } else {
                RevealAction::OnTime
            };
            let resolved = match action {
                RevealAction::Early if early_block < reveal_from => {
                    if tenant.alive_at(clock.time_of(early_block)) {
                        ResolvedAction::Early(early_block)
                    } else {
                        ResolvedAction::Withhold { died: true }
                    }
                }
                RevealAction::Early | RevealAction::OnTime => {
                    if tenant.alive_at(reveal_instant) {
                        ResolvedAction::OnTime
                    } else {
                        ResolvedAction::Withhold { died: true }
                    }
                }
                RevealAction::Withhold => ResolvedAction::Withhold { died: false },
            };
            apply_holder_faults(
                faults,
                slot,
                resolved,
                reveal_instant,
                reveal_from,
                reveal_by,
            )
        })
        .collect();

    // Early reveals land first (all at `early_block`), then the substrate
    // advances to the release time and the on-time reveals land at
    // `reveal_from`.
    let mut report = BondedReport {
        slots,
        released: None,
        early_leak: None,
        failure: None,
        on_time: 0,
        early: 0,
        withheld: 0,
        died: 0,
        slashed: 0,
        rewards_paid: 0,
    };
    let mut public_shares: Vec<KeyShare> = Vec::new();
    let (contract, _) = substrate.contract_mut();
    for (holder, action) in actions.iter().enumerate() {
        if let ResolvedAction::Early(block) = action {
            contract.reveal(deposit, holder, &payloads[holder], *block)?;
            public_shares.push(shares[holder].clone());
            report.early += 1;
        }
    }
    // The release-ahead predicate: a quorum public strictly before tr.
    if public_shares.len() >= spec.m {
        let leak_at = clock.time_of(early_block);
        debug_assert!(leak_at < tr);
        let secret = shamir::combine(&public_shares[..spec.m], spec.m)?;
        report.early_leak = Some((leak_at, secret));
    }

    substrate.advance_to(reveal_instant);
    let (contract, _) = substrate.contract_mut();
    for (holder, action) in actions.iter().enumerate() {
        match action {
            ResolvedAction::OnTime => {
                contract.reveal(deposit, holder, &payloads[holder], reveal_from)?;
                public_shares.push(shares[holder].clone());
                report.on_time += 1;
            }
            ResolvedAction::Withhold { died } => {
                report.withheld += 1;
                report.died += usize::from(*died);
            }
            ResolvedAction::Early(_) => {}
        }
    }

    // The receiver reconstructs from whatever is public once the release
    // block is reached: early shares count (they are on-chain), so the
    // release instant is tr itself when early reveals already form a
    // quorum, and the release block otherwise.
    if public_shares.len() >= spec.m {
        let released_at = if report.early >= spec.m {
            tr
        } else {
            reveal_instant
        };
        let secret = shamir::combine(&public_shares[..spec.m], spec.m)?;
        report.released = Some((released_at, secret));
    } else {
        report.failure = Some(BondedFailure::WithheldQuorum {
            revealed: public_shares.len(),
            needed: spec.m,
        });
    }

    // Close the window, settle slashes, pay claims.
    let supply_before = substrate.ledger().total_supply();
    substrate.advance_to(clock.time_of(reveal_by));
    let (contract, ledger) = substrate.contract_mut();
    let summary = contract.finalize(ledger, deposit, reveal_by)?;
    report.slashed = summary.slashed_amount;
    for holder in 0..spec.n {
        if matches!(
            contract.holder_phase(deposit, holder)?,
            crate::contract::HolderPhase::Revealed(_)
        ) {
            contract.claim(ledger, deposit, holder)?;
            report.rewards_paid += economy.reveal_reward;
        }
    }
    // LINT-WAIVER(panic): supply conservation is the ledger's core invariant; silent imbalance must abort
    assert_eq!(
        substrate.ledger().total_supply(),
        supply_before,
        "bonded release must conserve the token supply"
    );
    Ok(report)
}

/// Applies crash and block-clock-skew faults to one holder's resolved
/// action. Only actions that would have revealed are vulnerable; a
/// withholder stays a withholder.
fn apply_holder_faults(
    injector: &FaultInjector,
    slot: usize,
    resolved: ResolvedAction,
    reveal_instant: SimTime,
    reveal_from: BlockHeight,
    reveal_by: BlockHeight,
) -> ResolvedAction {
    if injector.is_empty() {
        return resolved;
    }
    match resolved {
        ResolvedAction::Withhold { .. } => resolved,
        ResolvedAction::OnTime | ResolvedAction::Early(_) => {
            // Crash + restart with state loss: the registered tenant is
            // gone at its reveal instant and the share with it. The
            // contract slashes a corpse, exactly as for a churn death.
            if injector.unreachable_at(slot, reveal_instant) {
                injector.note_disruption();
                return ResolvedAction::Withhold { died: true };
            }
            // Block-clock skew: the holder believes the reveal window
            // opens `skew` blocks later than it does. It misses the
            // window entirely when the skewed start is at or past the
            // close, and is slashed as an ordinary withholder.
            let skew = injector.clock_skew_blocks(slot, reveal_instant);
            if skew > 0 {
                if reveal_from + skew >= reveal_by {
                    return ResolvedAction::Withhold { died: false };
                }
                // The skewed submission still lands inside the window.
                injector.note_recovery();
            }
            resolved
        }
    }
}

/// Serializes one share as its on-chain payload: index byte ‖ data.
fn share_payload(share: &KeyShare) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + share.data.len());
    out.push(share.index);
    out.extend_from_slice(&share.data);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::economy::EconomyParams;
    use crate::substrate::ContractConfig;
    use emerge_dht::overlay::OverlayConfig;
    use rand::SeedableRng;

    const SECRET: &[u8] = b"THE SELF-EMERGING SECRET KEY 32B";

    fn substrate(n: usize, p: f64, seed: u64) -> ContractSubstrate {
        ContractSubstrate::build(
            ContractConfig::over(OverlayConfig {
                n_nodes: n,
                malicious_fraction: p,
                ..OverlayConfig::default()
            }),
            seed,
        )
    }

    fn spec(n: usize, m: usize, strategy: HolderStrategy) -> BondedSpec {
        BondedSpec {
            strategy,
            ..BondedSpec::new(n, m, SimDuration::from_ticks(1_000))
        }
    }

    #[test]
    fn honest_network_releases_at_tr() {
        let mut sub = substrate(64, 0.0, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let report = run_bonded_release(
            &mut sub,
            &spec(7, 4, HolderStrategy::Compliant),
            SECRET,
            &mut rng,
        )
        .unwrap();
        let (at, secret) = report.released.clone().expect("honest quorum releases");
        assert_eq!(secret, SECRET);
        assert_eq!(at, SimTime::from_ticks(1_000), "release at tr");
        assert!(report.clean_emergence());
        assert_eq!(report.on_time, 7);
        assert_eq!(report.slashed, 0);
        assert_eq!(
            report.rewards_paid,
            7 * EconomyParams::default().reveal_reward
        );
    }

    #[test]
    fn withholding_majority_starves_the_quorum() {
        let mut sub = substrate(64, 1.0, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let report = run_bonded_release(
            &mut sub,
            &spec(5, 3, HolderStrategy::AlwaysWithhold),
            SECRET,
            &mut rng,
        )
        .unwrap();
        assert!(report.released.is_none());
        assert_eq!(
            report.failure,
            Some(BondedFailure::WithheldQuorum {
                revealed: 0,
                needed: 3
            })
        );
        assert_eq!(report.withheld, 5);
        assert_eq!(report.slashed, 5 * EconomyParams::default().bond);
        assert_eq!(report.rewards_paid, 0);
    }

    #[test]
    fn early_reveal_majority_leaks_before_tr() {
        let mut sub = substrate(64, 1.0, 3);
        let mut rng = StdRng::seed_from_u64(3);
        let report = run_bonded_release(
            &mut sub,
            &spec(5, 3, HolderStrategy::AlwaysRevealEarly),
            SECRET,
            &mut rng,
        )
        .unwrap();
        let (at, secret) = report.early_leak.clone().expect("full quorum leaks");
        assert_eq!(secret, SECRET);
        assert!(at < SimTime::from_ticks(1_000), "leak strictly before tr");
        // The shares are public, so the legitimate release also happens —
        // at tr, not earlier.
        assert_eq!(
            report.released.clone().unwrap().0,
            SimTime::from_ticks(1_000)
        );
        assert!(!report.clean_emergence());
        // Every leaker is slashed all the same.
        assert_eq!(report.slashed, 5 * EconomyParams::default().bond);
    }

    #[test]
    fn priced_out_bribes_keep_rational_adversaries_honest() {
        let cost = EconomyParams::default().deviation_cost();
        let cheap_bribe = HolderStrategy::Rational {
            withhold_bribe: cost, // not strictly greater: deviation unprofitable
            early_reveal_bribe: cost,
        };
        let mut sub = substrate(64, 1.0, 4);
        let mut rng = StdRng::seed_from_u64(4);
        let report =
            run_bonded_release(&mut sub, &spec(5, 3, cheap_bribe), SECRET, &mut rng).unwrap();
        assert!(report.clean_emergence(), "unbribable holders stay honest");
        assert_eq!(report.slashed, 0);

        let rich_bribe = HolderStrategy::Rational {
            withhold_bribe: cost + 1,
            early_reveal_bribe: 0,
        };
        let mut sub = substrate(64, 1.0, 4);
        let mut rng = StdRng::seed_from_u64(4);
        let report =
            run_bonded_release(&mut sub, &spec(5, 3, rich_bribe), SECRET, &mut rng).unwrap();
        assert!(
            report.released.is_none(),
            "a profitable bribe buys the drop"
        );
    }

    #[test]
    fn churn_victims_are_slashed_but_headroom_absorbs_them() {
        // Mean lifetime equal to the emerging period: substantial death
        // probability per holder, but m = 3 of n = 12 tolerates it.
        let mut sub = ContractSubstrate::build(
            ContractConfig::over(OverlayConfig {
                n_nodes: 256,
                malicious_fraction: 0.0,
                mean_lifetime: Some(4_000),
                horizon: 100_000,
            }),
            5,
        );
        let mut rng = StdRng::seed_from_u64(5);
        let report = run_bonded_release(
            &mut sub,
            &BondedSpec::new(12, 3, SimDuration::from_ticks(1_000)),
            SECRET,
            &mut rng,
        )
        .unwrap();
        assert!(report.released.is_some(), "headroom absorbs churn deaths");
        assert_eq!(
            report.withheld, report.died,
            "honest world: only churn withholds"
        );
        assert_eq!(
            report.slashed,
            report.died as u64 * EconomyParams::default().bond,
            "the contract slashes corpses too"
        );
    }

    #[test]
    fn run_is_deterministic() {
        let run = || {
            let mut sub = substrate(128, 0.4, 7);
            let mut rng = StdRng::seed_from_u64(7);
            run_bonded_release(
                &mut sub,
                &spec(9, 5, HolderStrategy::AlwaysWithhold),
                SECRET,
                &mut rng,
            )
            .unwrap()
        };
        assert_eq!(run(), run());
    }

    fn window_plan(kind: emerge_faults::FaultKind) -> emerge_faults::FaultPlan {
        emerge_faults::FaultPlan::new(
            1,
            vec![emerge_faults::FaultEvent {
                from: SimTime::ZERO,
                to: SimTime::MAX,
                kind,
            }],
        )
    }

    #[test]
    fn crashed_holders_slash_exactly_their_bonds() {
        // All-honest, churn-free world under a total crash storm: every
        // holder's registered tenant dies before its reveal instant, the
        // quorum starves, and the contract slashes exactly one bond per
        // crashed holder — no more, no less.
        let plan = window_plan(emerge_faults::FaultKind::CrashRestart {
            crash_ppm: 1_000_000,
        });
        let mut sub = substrate(64, 0.0, 9);
        let mut rng = StdRng::seed_from_u64(9);
        let injector = plan.arm(9);
        let report = run_bonded_release_faulted(
            &mut sub,
            &spec(5, 3, HolderStrategy::Compliant),
            SECRET,
            &mut rng,
            &injector,
        )
        .unwrap();
        assert!(report.released.is_none());
        assert_eq!(report.died, 5, "every holder crashed");
        assert_eq!(report.slashed, 5 * EconomyParams::default().bond);
        assert_eq!(report.rewards_paid, 0);

        // Partial storm: slashed tracks the crash count exactly, and the
        // m-of-n headroom can still release around the corpses.
        let plan = window_plan(emerge_faults::FaultKind::CrashRestart { crash_ppm: 300_000 });
        let mut sub = substrate(64, 0.0, 10);
        let mut rng = StdRng::seed_from_u64(10);
        let injector = plan.arm(10);
        let report = run_bonded_release_faulted(
            &mut sub,
            &spec(9, 3, HolderStrategy::Compliant),
            SECRET,
            &mut rng,
            &injector,
        )
        .unwrap();
        assert_eq!(
            report.withheld, report.died,
            "honest world: only crashes withhold"
        );
        assert_eq!(
            report.slashed,
            report.died as u64 * EconomyParams::default().bond,
            "a crashed holder's missed reveal slashes exactly its bond"
        );
        assert_eq!(report.on_time, 9 - report.died);
    }

    #[test]
    fn clock_skew_beyond_the_window_slashes_as_withholding() {
        // Every holder's block clock lags by far more than the one-block
        // reveal window: all of them miss it, none of them died, and each
        // is slashed as an ordinary withholder.
        let plan = window_plan(emerge_faults::FaultKind::ClockSkew {
            skew_ppm: 1_000_000,
            blocks: 64,
        });
        let mut sub = substrate(64, 0.0, 11);
        let mut rng = StdRng::seed_from_u64(11);
        let injector = plan.arm(11);
        let report = run_bonded_release_faulted(
            &mut sub,
            &spec(5, 3, HolderStrategy::Compliant),
            SECRET,
            &mut rng,
            &injector,
        )
        .unwrap();
        assert!(report.released.is_none());
        assert_eq!(report.withheld, 5);
        assert_eq!(report.died, 0, "skewed holders are alive, just late");
        assert_eq!(report.slashed, 5 * EconomyParams::default().bond);

        // A skew smaller than the window is survivable: the submission
        // still lands inside it and nothing is slashed.
        let plan = window_plan(emerge_faults::FaultKind::ClockSkew {
            skew_ppm: 1_000_000,
            blocks: 1,
        });
        let wide = BondedSpec {
            reveal_window_blocks: 8,
            ..spec(5, 3, HolderStrategy::Compliant)
        };
        let mut sub = substrate(64, 0.0, 12);
        let mut rng = StdRng::seed_from_u64(12);
        let injector = plan.arm(12);
        let report =
            run_bonded_release_faulted(&mut sub, &wide, SECRET, &mut rng, &injector).unwrap();
        assert!(report.released.is_some());
        assert_eq!(report.slashed, 0);
        assert!(
            injector.stats().recoveries > 0,
            "late-but-in-window reveals count as recoveries"
        );
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let mut sub = substrate(16, 0.0, 8);
        let mut rng = StdRng::seed_from_u64(8);
        for bad in [
            spec(5, 0, HolderStrategy::Compliant),
            spec(5, 6, HolderStrategy::Compliant),
            spec(17, 3, HolderStrategy::Compliant), // more holders than nodes
            BondedSpec {
                reveal_window_blocks: 0,
                ..spec(5, 3, HolderStrategy::Compliant)
            },
        ] {
            assert!(matches!(
                run_bonded_release(&mut sub, &bad, SECRET, &mut rng),
                Err(ContractError::InvalidParameters(_))
            ));
        }
    }
}
