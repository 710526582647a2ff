//! # emerge-contract
//!
//! A smart-contract release substrate for self-emerging data, after
//! Li & Palanisamy 2019 ("Decentralized Release of Self-emerging Data
//! using Smart Contracts"): instead of hop deadlines enforced by the DHT
//! routing schedule, holders post **bonds** to an escrow contract, commit
//! to their key material, and a **timed reveal with slashing** makes
//! withholding and early disclosure economically irrational.
//!
//! Everything is deterministic and simulated — no consensus, no gas, no
//! networking — because what the self-emerging schemes need from a chain
//! is only its *clock* and its *escrow rules*:
//!
//! * [`clock`] — the block clock mapping [`emerge_sim::time::SimTime`]
//!   onto chain height
//! * [`ledger`] — token accounts, the escrow pot and the slashing
//!   treasury, with supply conservation as an enforced invariant
//! * [`contract`] — the [`contract::ReleaseContract`] state machine:
//!   register → bond escrow → commit → timed reveal → claim/slash
//! * [`economy`] — bond sizes, reveal rewards, and rational-adversary
//!   strategies parameterized by bribe value
//! * [`substrate`] — [`ContractSubstrate`], the bonded mode's world: the
//!   analytic DHT world (bit-identical populations) plus the chain
//!   layered on top
//! * [`release`] — the contract-native emergence mode: bonded `(m, n)`
//!   share release with the withheld-quorum and early-reveal-leak
//!   failure predicates
//! * [`mc`] — mergeable Monte-Carlo range calls for the bonded mode
//!   (bit-identical across thread counts of
//!   `emerge_sim::shard::run_sharded`)
//!
//! The crate is independent of the scheme layer: `emerge-core` does not
//! depend on it, and its wire protocol does not run on
//! [`ContractSubstrate`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod contract;
pub mod economy;
pub mod error;
pub mod ledger;
pub mod mc;
pub mod release;
pub mod substrate;

pub use clock::{BlockClock, BlockHeight};
pub use contract::{DepositTerms, HolderPhase, ReleaseContract};
pub use economy::{EconomyParams, HolderStrategy, RevealAction};
pub use error::ContractError;
pub use ledger::Ledger;
pub use release::{run_bonded_release, BondedFailure, BondedReport, BondedSpec};
pub use substrate::{ContractConfig, ContractSubstrate};
