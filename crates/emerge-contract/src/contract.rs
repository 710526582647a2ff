//! The `ReleaseContract` state machine: bonded commit/reveal escrow with
//! timed reveal and slashing.
//!
//! One *deposit* binds `n` holders to a reveal schedule. The lifecycle of
//! each holder position is
//!
//! ```text
//! register (bond escrowed) ──► commit (hash registered)
//!      ──► reveal in [reveal_from, reveal_by)  ──► claim (bond + reward)
//!      ──► reveal before reveal_from           ──► slashed at finalize
//!      ──► no valid reveal by reveal_by        ──► slashed at finalize
//! ```
//!
//! All deadlines are block heights from the [`BlockClock`](crate::clock::BlockClock);
//! the reveal window is half-open (`[reveal_from, reveal_by)`), matching
//! the tick-interval convention of the population model. The contract
//! cannot distinguish a crashed holder from a withholding one — both miss
//! the window and both are slashed — which is exactly the incentive
//! design of Li & Palanisamy 2019: bonds price non-delivery, whatever its
//! cause.
//!
//! Token movements go through a [`Ledger`], so the economics invariants
//! (escrow conservation, no double-claim, slash only on misbehaviour) are
//! enforceable properties of this module, not conventions.

use crate::clock::BlockHeight;
use crate::error::ContractError;
use crate::ledger::{AccountId, Ledger};
use emerge_crypto::sha256::{Sha256, DIGEST_LEN};
use emerge_obs::trace::{event, EventId};
use std::collections::BTreeMap;

/// Identifier of a deposit on the contract.
pub type DepositId = usize;

// Audit-trail events, one per *successful* state transition (failed
// operations change no state and emit nothing). Each bumps a counter of
// the same name in the thread's `emerge-obs` collector and, when the
// collector carries a trace ring, appends a timestamped entry with the
// fields below — the event-level audit trail that lets the bonded
// economy's incentive claims be validated transition by transition.
static EV_OPEN: EventId = EventId::new("contract.open");
static EV_COMMIT: EventId = EventId::new("contract.commit");
static EV_REVEAL: EventId = EventId::new("contract.reveal");
static EV_REVEAL_EARLY: EventId = EventId::new("contract.reveal_early");
static EV_FINALIZE: EventId = EventId::new("contract.finalize");
static EV_SLASH: EventId = EventId::new("contract.slash");
static EV_CLAIM: EventId = EventId::new("contract.claim");

/// Domain separator for reveal commitments.
const COMMIT_DOMAIN: &[u8] = b"emerge-contract-reveal-commitment-v1";

/// The binding hash a holder commits to before the reveal window.
pub fn commitment(payload: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(COMMIT_DOMAIN);
    h.update(&(payload.len() as u64).to_le_bytes());
    h.update(payload);
    h.finalize()
}

/// Financial terms and schedule of one deposit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepositTerms {
    /// The account funding the reveal rewards.
    pub depositor: AccountId,
    /// Bond each holder escrows at registration.
    pub bond: u64,
    /// Reward paid per correct in-window reveal (escrowed from the
    /// depositor at open time).
    pub reveal_reward: u64,
    /// First block of the reveal window.
    pub reveal_from: BlockHeight,
    /// First block *after* the reveal window (half-open `[from, by)`).
    pub reveal_by: BlockHeight,
}

/// Lifecycle state of one holder position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HolderPhase {
    /// Bond escrowed; no commitment yet.
    Registered,
    /// Commitment registered; awaiting the reveal window.
    Committed,
    /// Payload published *before* the window opened (slashing offence;
    /// the payload is public regardless).
    RevealedEarly(BlockHeight),
    /// Payload published inside the window; payout claimable after
    /// finalization.
    Revealed(BlockHeight),
    /// Slashed at finalization (early reveal or no valid in-window
    /// reveal).
    Slashed,
    /// Payout taken.
    Claimed,
}

/// One holder position inside a deposit.
#[derive(Debug, Clone)]
struct HolderEntry {
    account: AccountId,
    committed: Option<[u8; DIGEST_LEN]>,
    /// The published payload and the block it landed in, early or not.
    revealed: Option<(BlockHeight, Vec<u8>)>,
    phase: HolderPhase,
}

/// One deposit: terms, holder set and finalization state.
#[derive(Debug, Clone)]
struct Deposit {
    terms: DepositTerms,
    holders: Vec<HolderEntry>,
    finalized: bool,
}

/// Outcome of finalizing a deposit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FinalizeSummary {
    /// Holder indices slashed (early reveal or missing reveal).
    pub slashed: Vec<usize>,
    /// Total bond value confiscated into the treasury.
    pub slashed_amount: u64,
    /// Reward funds returned to the depositor for misbehaving holders.
    pub refunded_rewards: u64,
}

/// The release contract: every deposit ever opened, with its escrow
/// bookkeeping delegated to the caller's [`Ledger`].
#[derive(Debug, Clone, Default)]
pub struct ReleaseContract {
    deposits: Vec<Deposit>,
}

impl ReleaseContract {
    /// A contract with no deposits.
    pub fn new() -> Self {
        ReleaseContract::default()
    }

    /// Opens a deposit: escrows the depositor's reward pot and every
    /// holder's bond (the *register* step for the whole holder set).
    ///
    /// # Errors
    ///
    /// Rejects empty holder sets, windows that are empty or already open
    /// at `now`, and any account that cannot fund its part. A failed open
    /// leaves the ledger untouched.
    pub fn open(
        &mut self,
        ledger: &mut Ledger,
        terms: DepositTerms,
        holder_accounts: &[AccountId],
        now: BlockHeight,
    ) -> Result<DepositId, ContractError> {
        if holder_accounts.is_empty() {
            return Err(ContractError::InvalidParameters(
                "a deposit needs at least one holder".into(),
            ));
        }
        if terms.reveal_from <= now {
            return Err(ContractError::BadDeadline {
                height: terms.reveal_from,
                requirement: "reveal window must open after the current block",
            });
        }
        if terms.reveal_by <= terms.reveal_from {
            return Err(ContractError::BadDeadline {
                height: terms.reveal_by,
                requirement: "reveal window [from, by) must be non-empty",
            });
        }
        // Validate all funding before locking anything, so failure cannot
        // leave a half-escrowed deposit behind. Requirements are summed
        // *per account* first: with duplicate holder accounts (or a
        // depositor that is also a holder), per-pair validation would
        // pass while the individual locks fail partway and strand escrow.
        let reward_pot = terms
            .reveal_reward
            .checked_mul(holder_accounts.len() as u64)
            .ok_or_else(|| ContractError::InvalidParameters("reward pot overflows".into()))?;
        let mut totals: BTreeMap<AccountId, u64> = BTreeMap::new();
        for (account, amount) in std::iter::once((terms.depositor, reward_pot))
            .chain(holder_accounts.iter().map(|&a| (a, terms.bond)))
        {
            let total = totals.entry(account).or_insert(0);
            *total = total.checked_add(amount).ok_or_else(|| {
                ContractError::InvalidParameters("escrow requirement overflows".into())
            })?;
        }
        for (&account, &required) in &totals {
            let available = ledger
                .balance_checked(account)
                .ok_or(ContractError::UnknownAccount { account })?;
            if available < required {
                return Err(ContractError::InsufficientFunds {
                    account,
                    required,
                    available,
                });
            }
        }
        for (account, total) in totals {
            ledger.lock(account, total)?;
        }

        let holders = holder_accounts
            .iter()
            .map(|&account| HolderEntry {
                account,
                committed: None,
                revealed: None,
                phase: HolderPhase::Registered,
            })
            .collect();
        self.deposits.push(Deposit {
            terms,
            holders,
            finalized: false,
        });
        let id = self.deposits.len() - 1;
        event(
            &EV_OPEN,
            &[
                ("deposit", id as u64),
                ("holders", holder_accounts.len() as u64),
                ("bond", terms.bond),
            ],
        );
        Ok(id)
    }

    /// Registers holder `holder`'s commitment. Allowed once, before the
    /// reveal window opens.
    ///
    /// # Errors
    ///
    /// [`ContractError::WrongPhase`] when re-committing or committing
    /// after `reveal_from`.
    pub fn commit(
        &mut self,
        deposit: DepositId,
        holder: usize,
        digest: [u8; DIGEST_LEN],
        now: BlockHeight,
    ) -> Result<(), ContractError> {
        let dep = self.deposit_mut(deposit)?;
        if now >= dep.terms.reveal_from {
            return Err(ContractError::WrongPhase {
                operation: "commit",
                state: format!("commit window closed at block {}", dep.terms.reveal_from),
            });
        }
        let entry = holder_mut(dep, holder)?;
        if entry.phase != HolderPhase::Registered {
            return Err(ContractError::WrongPhase {
                operation: "commit",
                state: format!("holder is {:?}", entry.phase),
            });
        }
        entry.committed = Some(digest);
        entry.phase = HolderPhase::Committed;
        event(
            &EV_COMMIT,
            &[
                ("deposit", deposit as u64),
                ("holder", holder as u64),
                ("block", now),
            ],
        );
        Ok(())
    }

    /// Publishes holder `holder`'s payload.
    ///
    /// A reveal inside `[reveal_from, reveal_by)` earns the payout at
    /// finalization; a reveal *before* `reveal_from` is accepted (the
    /// data is public either way) but recorded as an early reveal, which
    /// finalization slashes. Returns the phase the holder entered.
    ///
    /// # Errors
    ///
    /// [`ContractError::CommitmentMismatch`] when the payload does not
    /// hash to the commitment, [`ContractError::WrongPhase`] when the
    /// holder never committed, already revealed, or the window has
    /// closed.
    pub fn reveal(
        &mut self,
        deposit: DepositId,
        holder: usize,
        payload: &[u8],
        now: BlockHeight,
    ) -> Result<HolderPhase, ContractError> {
        let dep = self.deposit_mut(deposit)?;
        if dep.finalized || now >= dep.terms.reveal_by {
            return Err(ContractError::WrongPhase {
                operation: "reveal",
                state: format!("reveal window closed at block {}", dep.terms.reveal_by),
            });
        }
        let early = now < dep.terms.reveal_from;
        let entry = holder_mut(dep, holder)?;
        let Some(expected) = entry.committed else {
            return Err(ContractError::WrongPhase {
                operation: "reveal",
                state: format!("holder is {:?}", entry.phase),
            });
        };
        if entry.phase != HolderPhase::Committed {
            return Err(ContractError::WrongPhase {
                operation: "reveal",
                state: format!("holder is {:?}", entry.phase),
            });
        }
        if commitment(payload) != expected {
            return Err(ContractError::CommitmentMismatch { holder });
        }
        entry.revealed = Some((now, payload.to_vec()));
        entry.phase = if early {
            HolderPhase::RevealedEarly(now)
        } else {
            HolderPhase::Revealed(now)
        };
        event(
            if early { &EV_REVEAL_EARLY } else { &EV_REVEAL },
            &[
                ("deposit", deposit as u64),
                ("holder", holder as u64),
                ("block", now),
            ],
        );
        Ok(entry.phase.clone())
    }

    /// Settles the deposit once the reveal window has closed: slashes the
    /// bonds of every holder without a valid in-window reveal (including
    /// early revealers) into the treasury, and refunds the depositor the
    /// reward share of each slashed holder.
    ///
    /// # Errors
    ///
    /// [`ContractError::WrongPhase`] before `reveal_by` or on a second
    /// finalization.
    pub fn finalize(
        &mut self,
        ledger: &mut Ledger,
        deposit: DepositId,
        now: BlockHeight,
    ) -> Result<FinalizeSummary, ContractError> {
        let dep = self
            .deposits
            .get_mut(deposit)
            .ok_or(ContractError::UnknownDeposit { deposit })?;
        if now < dep.terms.reveal_by {
            return Err(ContractError::WrongPhase {
                operation: "finalize",
                state: format!(
                    "reveal window still open until block {}",
                    dep.terms.reveal_by
                ),
            });
        }
        if dep.finalized {
            return Err(ContractError::WrongPhase {
                operation: "finalize",
                state: "deposit already finalized".into(),
            });
        }
        let mut summary = FinalizeSummary::default();
        for (idx, entry) in dep.holders.iter_mut().enumerate() {
            match entry.phase {
                HolderPhase::Revealed(_) => {}
                HolderPhase::Registered
                | HolderPhase::Committed
                | HolderPhase::RevealedEarly(_) => {
                    ledger.confiscate(dep.terms.bond)?;
                    ledger.release(dep.terms.depositor, dep.terms.reveal_reward)?;
                    summary.slashed.push(idx);
                    summary.slashed_amount += dep.terms.bond;
                    summary.refunded_rewards += dep.terms.reveal_reward;
                    entry.phase = HolderPhase::Slashed;
                    event(
                        &EV_SLASH,
                        &[
                            ("deposit", deposit as u64),
                            ("holder", idx as u64),
                            ("bond", dep.terms.bond),
                        ],
                    );
                }
                HolderPhase::Slashed | HolderPhase::Claimed => {
                    // LINT-WAIVER(panic): finalization runs exactly once, so terminal phases cannot re-enter this match
                    unreachable!("terminal phases only exist after finalization, which runs once")
                }
            }
        }
        dep.finalized = true;
        event(
            &EV_FINALIZE,
            &[
                ("deposit", deposit as u64),
                ("slashed", summary.slashed.len() as u64),
                ("block", now),
            ],
        );
        Ok(summary)
    }

    /// Pays holder `holder` its bond plus the reveal reward. Allowed once,
    /// after finalization, only for in-window revealers.
    ///
    /// # Errors
    ///
    /// [`ContractError::AlreadyClaimed`] on a second claim,
    /// [`ContractError::WrongPhase`] before finalization or for a holder
    /// that was slashed.
    pub fn claim(
        &mut self,
        ledger: &mut Ledger,
        deposit: DepositId,
        holder: usize,
    ) -> Result<u64, ContractError> {
        let dep = self
            .deposits
            .get_mut(deposit)
            .ok_or(ContractError::UnknownDeposit { deposit })?;
        if !dep.finalized {
            return Err(ContractError::WrongPhase {
                operation: "claim",
                state: "deposit not finalized".into(),
            });
        }
        let (bond, reward, depositor) =
            (dep.terms.bond, dep.terms.reveal_reward, dep.terms.depositor);
        let _ = depositor;
        let entry = holder_mut(dep, holder)?;
        match entry.phase {
            HolderPhase::Revealed(_) => {
                ledger.release(entry.account, bond + reward)?;
                entry.phase = HolderPhase::Claimed;
                event(
                    &EV_CLAIM,
                    &[
                        ("deposit", deposit as u64),
                        ("holder", holder as u64),
                        ("payout", bond + reward),
                    ],
                );
                Ok(bond + reward)
            }
            HolderPhase::Claimed => Err(ContractError::AlreadyClaimed { holder }),
            _ => Err(ContractError::WrongPhase {
                operation: "claim",
                state: format!("holder is {:?}", entry.phase),
            }),
        }
    }

    /// The current phase of a holder position.
    ///
    /// # Errors
    ///
    /// Unknown deposit or holder index.
    pub fn holder_phase(
        &self,
        deposit: DepositId,
        holder: usize,
    ) -> Result<HolderPhase, ContractError> {
        let dep = self
            .deposits
            .get(deposit)
            .ok_or(ContractError::UnknownDeposit { deposit })?;
        dep.holders
            .get(holder)
            .map(|e| e.phase.clone())
            .ok_or(ContractError::UnknownHolder { holder })
    }

    /// The published payload of a holder (early or in-window), with the
    /// block it landed in — the contract's public on-chain data.
    ///
    /// # Errors
    ///
    /// Unknown deposit or holder index.
    pub fn published(
        &self,
        deposit: DepositId,
        holder: usize,
    ) -> Result<Option<(BlockHeight, Vec<u8>)>, ContractError> {
        let dep = self
            .deposits
            .get(deposit)
            .ok_or(ContractError::UnknownDeposit { deposit })?;
        dep.holders
            .get(holder)
            .map(|e| e.revealed.clone())
            .ok_or(ContractError::UnknownHolder { holder })
    }

    /// The terms of a deposit.
    ///
    /// # Errors
    ///
    /// Unknown deposit id.
    pub fn terms(&self, deposit: DepositId) -> Result<DepositTerms, ContractError> {
        self.deposits
            .get(deposit)
            .map(|d| d.terms)
            .ok_or(ContractError::UnknownDeposit { deposit })
    }

    fn deposit_mut(&mut self, deposit: DepositId) -> Result<&mut Deposit, ContractError> {
        self.deposits
            .get_mut(deposit)
            .ok_or(ContractError::UnknownDeposit { deposit })
    }
}

fn holder_mut(dep: &mut Deposit, holder: usize) -> Result<&mut HolderEntry, ContractError> {
    dep.holders
        .get_mut(holder)
        .ok_or(ContractError::UnknownHolder { holder })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOND: u64 = 100;
    const REWARD: u64 = 10;

    /// Ledger with 3 holder accounts (0..3) and a depositor (3).
    fn setup() -> (Ledger, ReleaseContract, DepositId) {
        let mut ledger = Ledger::new(4, 1_000);
        let mut contract = ReleaseContract::new();
        let terms = DepositTerms {
            depositor: 3,
            bond: BOND,
            reveal_reward: REWARD,
            reveal_from: 10,
            reveal_by: 12,
        };
        let id = contract.open(&mut ledger, terms, &[0, 1, 2], 0).unwrap();
        (ledger, contract, id)
    }

    #[test]
    fn open_escrows_bonds_and_reward_pot() {
        let (ledger, contract, id) = setup();
        assert_eq!(ledger.balance(0), 1_000 - BOND);
        assert_eq!(ledger.balance(3), 1_000 - 3 * REWARD);
        assert_eq!(ledger.escrow(), 3 * BOND + 3 * REWARD);
        assert_eq!(ledger.total_supply(), 4_000);
        assert_eq!(
            contract.holder_phase(id, 0).unwrap(),
            HolderPhase::Registered
        );
    }

    #[test]
    fn happy_path_reveal_and_claim() {
        let (mut ledger, mut contract, id) = setup();
        for holder in 0..3 {
            contract
                .commit(id, holder, commitment(b"share"), 1)
                .unwrap();
            assert_eq!(
                contract.holder_phase(id, holder).unwrap(),
                HolderPhase::Committed
            );
        }
        for holder in 0..3 {
            let phase = contract.reveal(id, holder, b"share", 10).unwrap();
            assert_eq!(phase, HolderPhase::Revealed(10));
        }
        let summary = contract.finalize(&mut ledger, id, 12).unwrap();
        assert!(summary.slashed.is_empty());
        for holder in 0..3 {
            assert_eq!(
                contract.claim(&mut ledger, id, holder).unwrap(),
                BOND + REWARD
            );
            assert_eq!(ledger.balance(holder), 1_000 + REWARD);
        }
        assert_eq!(ledger.escrow(), 0);
        assert_eq!(ledger.treasury(), 0);
        assert_eq!(ledger.total_supply(), 4_000);
    }

    #[test]
    fn withholding_is_slashed_and_rewards_refund() {
        let (mut ledger, mut contract, id) = setup();
        for holder in 0..3 {
            contract
                .commit(id, holder, commitment(b"share"), 1)
                .unwrap();
        }
        // Only holder 0 reveals.
        contract.reveal(id, 0, b"share", 11).unwrap();
        let summary = contract.finalize(&mut ledger, id, 12).unwrap();
        assert_eq!(summary.slashed, vec![1, 2]);
        assert_eq!(summary.slashed_amount, 2 * BOND);
        assert_eq!(summary.refunded_rewards, 2 * REWARD);
        assert_eq!(ledger.treasury(), 2 * BOND);
        assert_eq!(ledger.balance(3), 1_000 - REWARD);
        assert_eq!(contract.holder_phase(id, 1).unwrap(), HolderPhase::Slashed);
        // Slashed holders cannot claim.
        assert!(matches!(
            contract.claim(&mut ledger, id, 1),
            Err(ContractError::WrongPhase { .. })
        ));
        contract.claim(&mut ledger, id, 0).unwrap();
        assert_eq!(ledger.total_supply(), 4_000);
    }

    #[test]
    fn early_reveal_publishes_but_slashes() {
        let (mut ledger, mut contract, id) = setup();
        for holder in 0..3 {
            contract
                .commit(id, holder, commitment(b"share"), 1)
                .unwrap();
        }
        let phase = contract.reveal(id, 0, b"share", 5).unwrap();
        assert_eq!(phase, HolderPhase::RevealedEarly(5));
        // The payload is public despite being early.
        assert_eq!(
            contract.published(id, 0).unwrap(),
            Some((5, b"share".to_vec()))
        );
        contract.reveal(id, 1, b"share", 10).unwrap();
        contract.reveal(id, 2, b"share", 10).unwrap();
        let summary = contract.finalize(&mut ledger, id, 12).unwrap();
        assert_eq!(summary.slashed, vec![0]);
        assert_eq!(contract.holder_phase(id, 0).unwrap(), HolderPhase::Slashed);
    }

    #[test]
    fn double_claim_is_rejected() {
        let (mut ledger, mut contract, id) = setup();
        contract.commit(id, 0, commitment(b"s"), 1).unwrap();
        contract.reveal(id, 0, b"s", 10).unwrap();
        contract.finalize(&mut ledger, id, 12).unwrap();
        contract.claim(&mut ledger, id, 0).unwrap();
        assert!(matches!(
            contract.claim(&mut ledger, id, 0),
            Err(ContractError::AlreadyClaimed { holder: 0 })
        ));
        assert_eq!(ledger.balance(0), 1_000 + REWARD);
    }

    #[test]
    fn wrong_payload_is_rejected() {
        let (_, mut contract, id) = setup();
        contract.commit(id, 0, commitment(b"right"), 1).unwrap();
        assert!(matches!(
            contract.reveal(id, 0, b"wrong", 10),
            Err(ContractError::CommitmentMismatch { holder: 0 })
        ));
        // The rejection is not a reveal: the holder can still submit the
        // real payload.
        contract.reveal(id, 0, b"right", 10).unwrap();
    }

    #[test]
    fn schedule_violations_are_wrong_phase() {
        let (mut ledger, mut contract, id) = setup();
        contract.commit(id, 0, commitment(b"s"), 1).unwrap();
        // Re-commit.
        assert!(matches!(
            contract.commit(id, 0, commitment(b"s"), 1),
            Err(ContractError::WrongPhase { .. })
        ));
        // Commit after the window opened.
        assert!(matches!(
            contract.commit(id, 1, commitment(b"s"), 10),
            Err(ContractError::WrongPhase { .. })
        ));
        // Reveal without a commitment.
        assert!(matches!(
            contract.reveal(id, 2, b"s", 10),
            Err(ContractError::WrongPhase { .. })
        ));
        // Reveal after the window.
        assert!(matches!(
            contract.reveal(id, 0, b"s", 12),
            Err(ContractError::WrongPhase { .. })
        ));
        // Finalize before the window closes.
        assert!(matches!(
            contract.finalize(&mut ledger, id, 11),
            Err(ContractError::WrongPhase { .. })
        ));
        // Claim before finalization.
        assert!(matches!(
            contract.claim(&mut ledger, id, 0),
            Err(ContractError::WrongPhase { .. })
        ));
        contract.finalize(&mut ledger, id, 12).unwrap();
        // Double finalize.
        assert!(matches!(
            contract.finalize(&mut ledger, id, 13),
            Err(ContractError::WrongPhase { .. })
        ));
    }

    #[test]
    fn open_validates_deadlines_and_funding_atomically() {
        let mut ledger = Ledger::new(3, 50);
        let mut contract = ReleaseContract::new();
        let terms = DepositTerms {
            depositor: 2,
            bond: 100, // more than any holder has
            reveal_reward: 1,
            reveal_from: 5,
            reveal_by: 6,
        };
        assert!(matches!(
            contract.open(&mut ledger, terms, &[0, 1], 0),
            Err(ContractError::InsufficientFunds { .. })
        ));
        // Nothing was locked by the failed open.
        assert_eq!(ledger.escrow(), 0);
        assert_eq!(ledger.balance(0), 50);

        let bad_window = DepositTerms {
            bond: 1,
            reveal_by: 5,
            ..terms
        };
        assert!(matches!(
            contract.open(&mut ledger, bad_window, &[0], 0),
            Err(ContractError::BadDeadline { .. })
        ));
        let past_window = DepositTerms {
            bond: 1,
            reveal_from: 3,
            reveal_by: 9,
            ..terms
        };
        assert!(matches!(
            contract.open(&mut ledger, past_window, &[0], 3),
            Err(ContractError::BadDeadline { .. })
        ));
        assert!(matches!(
            contract.open(&mut ledger, DepositTerms { bond: 1, ..terms }, &[], 0),
            Err(ContractError::InvalidParameters(_))
        ));
    }

    #[test]
    fn duplicate_funding_accounts_open_atomically() {
        // Account 0 holds 150: enough for one bond (100), not two. The
        // per-account aggregation must reject the open up front instead
        // of locking the first bond and stranding it.
        let mut ledger = Ledger::new(2, 150);
        let mut contract = ReleaseContract::new();
        let terms = DepositTerms {
            depositor: 1,
            bond: 100,
            reveal_reward: 10,
            reveal_from: 5,
            reveal_by: 7,
        };
        assert!(matches!(
            contract.open(&mut ledger, terms, &[0, 0], 0),
            Err(ContractError::InsufficientFunds {
                account: 0,
                required: 200,
                ..
            })
        ));
        assert_eq!(ledger.escrow(), 0, "failed open must strand nothing");
        assert_eq!(ledger.balance(0), 150);

        // A depositor that is also a holder needs reward pot + bond
        // combined: 1 · 10 + 100 = 110 > 105.
        let mut ledger = Ledger::new(1, 105);
        assert!(matches!(
            contract.open(
                &mut ledger,
                DepositTerms {
                    depositor: 0,
                    ..terms
                },
                &[0],
                0,
            ),
            Err(ContractError::InsufficientFunds {
                account: 0,
                required: 110,
                ..
            })
        ));
        assert_eq!(ledger.escrow(), 0);

        // With enough combined funds the same shapes succeed and settle.
        let mut ledger = Ledger::new(2, 500);
        let id = contract.open(&mut ledger, terms, &[0, 0], 0).unwrap();
        assert_eq!(ledger.balance(0), 300, "both bonds escrowed");
        for holder in 0..2 {
            contract.commit(id, holder, commitment(b"s"), 1).unwrap();
            contract.reveal(id, holder, b"s", 5).unwrap();
        }
        contract.finalize(&mut ledger, id, 7).unwrap();
        contract.claim(&mut ledger, id, 0).unwrap();
        contract.claim(&mut ledger, id, 1).unwrap();
        assert_eq!(ledger.balance(0), 500 + 2 * 10);
        assert_eq!(ledger.escrow(), 0);
        assert_eq!(ledger.total_supply(), 1_000);
    }

    #[test]
    fn commitment_is_length_prefixed() {
        // "ab" ‖ "c" must not collide with "a" ‖ "bc".
        assert_ne!(commitment(b"abc"), commitment(b"ab\0c"));
        assert_eq!(commitment(b"x"), commitment(b"x"));
    }
}
