//! # emerge-sweep
//!
//! Crash-safe distributed Monte-Carlo sweeps: the "millions of trials,
//! one command" operational layer over the exactly-mergeable sharded
//! engines.
//!
//! A coordinator process partitions a parameter grid × trial ranges into
//! idempotent **work units** — each a contiguous trial range of one cell,
//! identified by a [`grid::UnitSpec::digest`] over everything that
//! determines its outcome — and dispatches them to worker processes over
//! stdio, speaking a line-oriented JSON wire format ([`wire`]) parsed by
//! the validated reader in `emerge_bench::report`. Results merge through
//! [`emerge_core::montecarlo::ProtocolMcResults::merge`] in canonical
//! unit order, so the merged outcome (and its trial fingerprint *and*
//! its telemetry digest) is bit-identical to a serial run.
//!
//! Robustness is the design center:
//!
//! * **Journaled resume** ([`journal`]): every completed unit's result
//!   line is appended (and synced) to an append-only journal before it
//!   counts as done. A killed coordinator resumes by replaying the
//!   journal — finished units are not re-run and cannot double-merge
//!   (first occurrence wins; a truncated final line is a recorded
//!   finding, not an error).
//! * **Deadlines, bounded retry, deterministic backoff**
//!   ([`coordinator`]): per-unit deadlines and retry budgets reuse
//!   [`emerge_faults::RecoveryPolicy`] semantics — `per_attempt_ticks`
//!   is the per-dispatch deadline in milliseconds and
//!   [`emerge_faults::RetryPolicy::backoff_ticks`] spaces re-dispatches.
//! * **Straggler hedging**: a unit in flight past the hedge threshold is
//!   re-dispatched to another worker (up to the policy's hedge fanout);
//!   whichever copy reports first wins, keyed by the unit digest, and
//!   late duplicates are dedup-dropped.
//! * **Self-chaos** ([`chaos`]): `--chaos <seed>` makes workers
//!   deterministically kill themselves, stall past the deadline, and
//!   corrupt (garbage / truncate / duplicate) their output mid-sweep.
//!   Chaos decisions are pure hashes of `(seed, unit digest, attempt)`,
//!   and disruption stops after the second attempt per unit, so a
//!   bounded retry budget always converges — to the *same bits* as a
//!   clean or serial run, which the e2e suite and CI's `sweep-smoke` job
//!   assert.
//!
//! Progress and fault counters (`sweep.retries`, `sweep.hedges`,
//! `sweep.dedup_dropped`, ...) stream through `emerge-obs` and export as
//! Prometheus text plus the JSON sweep report ([`report`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod coordinator;
pub mod error;
pub mod grid;
pub mod journal;
pub mod links;
pub mod report;
pub mod wire;
pub mod worker;

pub use chaos::ChaosPlan;
pub use coordinator::{Coordinator, SweepConfig, SweepOutcome};
pub use error::SweepError;
pub use grid::{SweepGrid, UnitSpec};
pub use journal::Journal;
