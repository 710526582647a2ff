//! # emerge-core
//!
//! Timed-release of self-emerging data using distributed hash tables —
//! a full reproduction of Li & Palanisamy, ICDCS 2017.
//!
//! A sender encrypts a message at `ts`, parks the ciphertext in a cloud,
//! and routes the decryption key through a pseudo-random sequence of DHT
//! holders so that the key is unobtainable before the release time `tr`
//! and emerges automatically at `tr`. Four key-routing schemes with
//! increasing resilience are provided:
//!
//! | scheme | description |
//! |--------|-------------|
//! | [`config::SchemeKind::Central`] | one holder stores the key for all of `T` (baseline) |
//! | [`config::SchemeKind::Disjoint`] | `k` node-disjoint replicated onion paths of length `l` |
//! | [`config::SchemeKind::Joint`] | column-complete multipath: drop attacks must capture whole columns |
//! | [`config::SchemeKind::Share`] | onion keys delivered just-in-time as Shamir `(m, n)` shares — churn-resilient |
//!
//! ## Module map
//!
//! * [`config`] — scheme kinds and structural parameters
//! * [`analysis`] — equations (1)–(3), Lemma 1, Algorithm 1, and the
//!   `(k, l)` solver behind the paper's cost/resilience sweeps
//! * [`substrate`] — the [`substrate::HolderSubstrate`] trait decoupling
//!   the schemes from any concrete DHT, with the analytic DHT world as
//!   its backend
//! * [`path`] — pseudo-random holder selection on the DHT
//! * [`package`] — onion and share package generation (real crypto)
//! * [`protocol`] — hop-by-hop execution with churn and attacks
//! * [`adversary`] — trial-level attack predicates (Monte-Carlo ground
//!   truth)
//! * [`faults`] — the [`faults::FaultySubstrate`] wrapper applying a
//!   seeded fault plan at the substrate's hand-off contacts, and the
//!   wire protocol's factory trial loop, whose empty-plan case is the
//!   plain run
//! * [`montecarlo`] — the paper-scale experiment engine (10000 nodes ×
//!   1000 trials): one range call each for the timeline model and the
//!   wire protocol, for `emerge_sim::shard::run_sharded` to drive
//! * [`emergence`] — the high-level sender/receiver API
//! * [`error`], [`math`] — support
//!
//! ## Quick start
//!
//! ```
//! use emerge_core::emergence::{SelfEmergingSystem, SendRequest};
//! use emerge_core::config::SchemeKind;
//! use emerge_core::substrate::OverlayConfig;
//! use emerge_sim::time::SimDuration;
//!
//! # fn main() -> Result<(), emerge_core::error::EmergeError> {
//! let mut system = SelfEmergingSystem::new(
//!     OverlayConfig { n_nodes: 128, ..OverlayConfig::default() },
//!     7,
//! );
//! let mut handle = system.send(SendRequest {
//!     message: b"will: the estate goes to the cat".to_vec(),
//!     emerging_period: SimDuration::from_ticks(10_000),
//!     scheme: SchemeKind::Share,
//!     target_resilience: 0.99,
//!     expected_malicious_rate: 0.05,
//! })?;
//! system.run_to_release(&mut handle);
//! assert_eq!(system.receive(&handle)?, b"will: the estate goes to the cat");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod analysis;
pub mod config;
pub mod emergence;
pub mod error;
pub mod faults;
pub mod math;
pub mod montecarlo;
pub mod package;
pub mod path;
pub mod protocol;
pub mod substrate;

pub use config::{SchemeKind, SchemeParams};
pub use emergence::{SelfEmergingSystem, SendRequest};
pub use error::EmergeError;
pub use substrate::HolderSubstrate;
