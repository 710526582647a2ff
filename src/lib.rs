//! # self-emerging-data
//!
//! Umbrella crate for the reproduction of *"Timed-release of Self-emerging
//! Data using Distributed Hash Tables"* (Li & Palanisamy, ICDCS 2017).
//!
//! This facade re-exports the workspace crates so applications can depend
//! on a single package:
//!
//! * [`core`] — the four key-routing schemes, analysis, Monte-Carlo
//!   evaluation and the high-level sender/receiver API
//! * [`dht`] — the simulated DHT world: XOR-closest holder resolution,
//!   churn generations and malicious marking
//! * [`contract`] — the smart-contract release layer: block clock, bonded
//!   commit/reveal escrow, holder economy, and the contract-native bonded
//!   release mode
//! * [`sim`] — deterministic simulation plumbing: virtual time, labelled
//!   RNG streams, churn models, mergeable metrics and the sharded
//!   Monte-Carlo driver
//! * [`crypto`] — the from-scratch cryptographic substrate
//! * [`cloud`] — the encrypted blob store
//! * [`obs`] — the observability layer: mergeable metrics, span/event
//!   tracing, profiling hooks
//! * [`faults`] — the deterministic fault plane: seeded fault plans,
//!   injectors, the fault-outcome taxonomy, and the sweep coordinator's
//!   retry/deadline/hedge policy
//!
//! See `examples/quickstart.rs` for a complete walk-through, and the
//! `emerge-bench` crate for the binaries that regenerate every figure of
//! the paper's evaluation section.

pub use emerge_cloud as cloud;
pub use emerge_contract as contract;
pub use emerge_core as core;
pub use emerge_crypto as crypto;
pub use emerge_dht as dht;
pub use emerge_faults as faults;
pub use emerge_obs as obs;
pub use emerge_sim as sim;

pub use emerge_core::emergence::{SelfEmergingSystem, SendRequest};
pub use emerge_core::{EmergeError, SchemeKind, SchemeParams};
