//! # emerge-sim
//!
//! Deterministic simulation plumbing beneath the DHT and the
//! self-emerging key-routing protocol: the paper evaluates on the Overlay
//! Weaver DHT *emulator*; this crate (plus `emerge-dht`) plays that role
//! here.
//!
//! * [`time`] — virtual instants and durations (integer ticks).
//! * [`rng`] — labelled random streams forked off one root seed, so
//!   identical seeds produce identical runs.
//! * [`churn`] — node lifetime and replacement models.
//! * [`metrics`] — mergeable rates and summaries.
//! * [`shard`] — the one Monte-Carlo driver: contiguous trial ranges run
//!   on worker threads and merged in range order.
//!
//! There is no global state: every world, stream and result is an
//! ordinary value, so tests can run thousands of independent simulations
//! in parallel.
//!
//! ```
//! use emerge_sim::rng::SeedSource;
//! use emerge_sim::time::{SimDuration, SimTime};
//! use rand::RngCore;
//!
//! let ts = SimTime::from_ticks(2);
//! assert_eq!(ts + SimDuration::from_ticks(3), SimTime::from_ticks(5));
//!
//! // The same label and index always yield the same stream.
//! let seeds = SeedSource::new(7);
//! assert_eq!(
//!     seeds.stream_n("trial", 3).next_u64(),
//!     seeds.stream_n("trial", 3).next_u64()
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod metrics;
pub mod rng;
pub mod shard;
pub mod time;

pub use time::{SimDuration, SimTime};
