//! The deterministic fault plane of the wire protocol and the bonded
//! release.
//!
//! Robustness work needs a failure model richer than a single drop
//! probability: correlated outages, crash/restart with state loss, loss
//! bursts, churn storms and block-clock skew. This crate provides
//! exactly that, with one non-negotiable property: **everything is a
//! pure function of seeds**. A [`plan::FaultPlan`] compiles from a seed, arms into a
//! per-world [`injector::FaultInjector`], and every individual fault
//! decision hashes `(arm seed, operation, operand)` — so the same plan
//! replays bit-identically at any shard count, and sharded Monte-Carlo
//! stays exactly mergeable under faults.
//!
//! Layering: this crate depends only on `emerge-sim` (time, hashing) and
//! `emerge-obs` (fault counters). The substrate-side wrapper that applies
//! a plan at the `HolderSubstrate` trait boundary lives in
//! `emerge-core::faults`; the contract-path clock-skew and
//! crash-before-reveal wiring lives in `emerge-contract`.
//!
//! * [`plan`] — fault event kinds, windows and the seeded [`plan::FaultPlan`]
//! * [`scenario`] — the named scenario catalog behind the fault frontier
//! * [`injector`] — per-world armed decisions plus fault statistics
//! * [`outcome`] — the clean/degraded/failed taxonomy of a faulted batch
//! * [`recovery`] — the retry/backoff, deadline and hedging policy of the
//!   sweep coordinator's unit dispatch

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod injector;
pub mod outcome;
pub mod plan;
pub mod recovery;
pub mod scenario;

pub use injector::{FaultInjector, FaultStats};
pub use outcome::FaultyResults;
pub use plan::{FaultEvent, FaultKind, FaultPlan, PPM_SCALE};
pub use recovery::{HedgePolicy, RecoveryPolicy, RetryPolicy, TimeoutPolicy};
pub use scenario::Scenario;
