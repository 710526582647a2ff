//! The DHT abstraction the key-routing schemes are written against.
//!
//! Everything `emerge-core` needs from a DHT is captured by the
//! [`HolderSubstrate`] trait: resolving pseudo-random holder addresses to
//! responsible slots, querying churn generations for the tenant and
//! exposure predicates, and advancing virtual time. The sender
//! hands each key package to its holders directly, so nothing is stored
//! in or looked up from the DHT. [`path`](crate::path),
//! [`protocol`](crate::protocol) and [`emergence`](crate::emergence) are
//! generic over the trait, so the same protocol code runs on:
//!
//! * [`AnalyticSubstrate`] — the DHT world (exact XOR-closest holder
//!   resolution, lazily sampled churn), which makes paper-scale
//!   Monte-Carlo (10 000 nodes × 1 000 trials) cheap, and
//! * the fault plane's `FaultySubstrate`, which wraps it.
//!
//! The workspace's `substrate_conformance` suite checks any backend
//! against the trait's semantics. New backends (an async networked DHT)
//! only need the trait's five required methods.
//!
//! This module is the **only** place in `emerge-core` that names the
//! concrete substrate type; everything else goes through the trait or
//! through the re-exports below.

use emerge_dht::id::NodeId;
use emerge_dht::population::{self, NodeInfo};
use emerge_sim::time::SimTime;

pub use emerge_dht::analytic::AnalyticSubstrate;
pub use emerge_dht::overlay::OverlayConfig;

/// The DHT surface consumed by the key-routing schemes.
///
/// Implementations must be deterministic for a fixed build seed: the
/// schemes' reproducibility and parity guarantees rest on it. Five
/// methods are required; [`generation_at`](Self::generation_at) and the
/// exposure predicates are defaults over
/// [`generations`](Self::generations). The exposure predicates read
/// `generations`, never `generation_at`, so a wrapper that overrides only
/// `generation_at` (the fault plane's `FaultySubstrate`) changes who
/// answers a hand-off contact but no adversary exposure.
pub trait HolderSubstrate {
    /// Number of population slots (live nodes at any instant).
    fn n_nodes(&self) -> usize;

    /// Current simulated time of the substrate.
    fn now(&self) -> SimTime;

    /// Advances the substrate clock (monotonic).
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the current time.
    fn advance_to(&mut self, t: SimTime);

    /// The slot responsible for `target` (XOR-closest generation-0 ID) —
    /// how a pseudo-random holder address resolves to an actual node.
    fn resolve_holder(&self, target: &NodeId) -> usize;

    /// All tenant generations of a slot, in time order.
    fn generations(&self, slot: usize) -> &[NodeInfo];

    /// The generation occupying `slot` at time `t`.
    fn generation_at(&self, slot: usize, t: SimTime) -> &NodeInfo {
        population::tenant_at(self.generations(slot), t)
    }

    /// Whether any generation of `slot` overlapping the half-open window `[from, to)` is
    /// malicious — the churn re-exposure predicate.
    fn any_malicious_exposure(&self, slot: usize, from: SimTime, to: SimTime) -> bool {
        population::any_malicious_exposure(self.generations(slot), from, to)
    }

    /// The earliest instant in the half-open window `[from, to)` at which a malicious tenant
    /// occupies `slot`, if any.
    fn first_malicious_exposure(&self, slot: usize, from: SimTime, to: SimTime) -> Option<SimTime> {
        population::first_malicious_exposure(self.generations(slot), from, to)
    }
}

impl HolderSubstrate for AnalyticSubstrate {
    fn n_nodes(&self) -> usize {
        AnalyticSubstrate::n_nodes(self)
    }

    fn now(&self) -> SimTime {
        AnalyticSubstrate::now(self)
    }

    fn advance_to(&mut self, t: SimTime) {
        AnalyticSubstrate::advance_to(self, t);
    }

    fn resolve_holder(&self, target: &NodeId) -> usize {
        AnalyticSubstrate::resolve_holder(self, target)
    }

    fn generations(&self, slot: usize) -> &[NodeInfo] {
        AnalyticSubstrate::generations(self, slot)
    }
}
