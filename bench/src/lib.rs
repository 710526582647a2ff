//! # The outside-in benchmark ledger
//!
//! Runs the workspace's Monte-Carlo workloads through their public entry
//! points the way a user does, times them from outside, checks the
//! outputs, and reports end-to-end metrics (untraced runs) or per-layer
//! metrics (traced runs). `README.md` in this directory lists the
//! workloads, the metrics and what each should move.

pub mod crypto;
pub mod replay;
pub mod report;
pub mod run;
pub mod stats;
pub mod sweep;
pub mod trace;
pub mod workload;
