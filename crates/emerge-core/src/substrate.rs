//! The DHT abstraction the key-routing schemes are written against.
//!
//! Everything `emerge-core` needs from a DHT is captured by the
//! [`HolderSubstrate`] trait: resolving pseudo-random holder addresses to
//! responsible slots, querying churn generations for the exposure
//! predicates, storing/fetching opaque values, and advancing virtual time.
//! [`path`](crate::path), [`protocol`](crate::protocol) and
//! [`emergence`](crate::emergence) are generic over it, so the same
//! protocol code runs on:
//!
//! * [`AnalyticSubstrate`] — the DHT world (exact XOR-closest holder
//!   resolution, lazily sampled churn, a storage oracle), which makes
//!   paper-scale Monte-Carlo (10 000 nodes × 1 000 trials) cheap, and
//! * [`ContractSubstrate`] — the smart-contract release layer (the same
//!   DHT world plus a block clock, a token ledger and the bonded
//!   commit/reveal escrow contract of `emerge-contract`).
//!
//! Both build *identical* populations for the same `(OverlayConfig,
//! seed)` pair, so plans and protocol outcomes agree bit for bit — the
//! workspace's `substrate_parity` and `substrate_conformance` suites
//! enforce that. The fault plane's `FaultySubstrate` wraps either one.
//! New backends (an async networked DHT) only need to implement this
//! trait.
//!
//! This module is the **only** place in `emerge-core` that names the
//! concrete substrate types; everything else goes through the trait or
//! through the re-exports below.

use emerge_dht::id::NodeId;
use emerge_dht::population::{self, NodeInfo};
use emerge_sim::time::{SimDuration, SimTime};
use rand::rngs::StdRng;

pub use emerge_contract::{ContractConfig, ContractSubstrate};
pub use emerge_dht::analytic::AnalyticSubstrate;
pub use emerge_dht::overlay::OverlayConfig;

/// The DHT surface consumed by the key-routing schemes.
///
/// Implementations must be deterministic for a fixed build seed: the
/// schemes' reproducibility and parity guarantees rest on it.
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

    /// The `count` slots XOR-closest to `target`, closest first.
    fn closest_slots(&self, target: &NodeId, count: usize) -> Vec<usize>;

    /// All tenant generations of a slot, in time order.
    fn generations(&self, slot: usize) -> &[NodeInfo];

    /// The generation occupying `slot` at time `t`.
    fn generation_at(&self, slot: usize, t: SimTime) -> &NodeInfo;

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

    /// Number of distinct generations whose tenancy overlaps the half-open window `[from, to)`
    /// (the churn analysis' re-exposure count).
    fn exposures_during(&self, slot: usize, from: SimTime, to: SimTime) -> usize {
        population::exposures_during(self.generations(slot), from, to)
    }

    /// Samples `count` distinct slots uniformly.
    ///
    /// # Panics
    ///
    /// Panics if `count > n_nodes()`.
    fn sample_distinct_slots(&self, count: usize, rng: &mut StdRng) -> Vec<usize>;

    /// Stores `value` under `key` on the responsible slots, optionally
    /// with a TTL. Returns the slots that accepted the value.
    fn store(&mut self, key: NodeId, value: Vec<u8>, ttl: Option<SimDuration>) -> Vec<usize>;

    /// Fetches a stored value from the slots responsible for `key`.
    fn find_value(&mut self, key: NodeId) -> Option<Vec<u8>>;
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

    fn closest_slots(&self, target: &NodeId, count: usize) -> Vec<usize> {
        AnalyticSubstrate::closest_slots(self, target, count)
    }

    fn generations(&self, slot: usize) -> &[NodeInfo] {
        AnalyticSubstrate::generations(self, slot)
    }

    fn generation_at(&self, slot: usize, t: SimTime) -> &NodeInfo {
        AnalyticSubstrate::generation_at(self, slot, t)
    }

    fn any_malicious_exposure(&self, slot: usize, from: SimTime, to: SimTime) -> bool {
        AnalyticSubstrate::any_malicious_exposure(self, slot, from, to)
    }

    fn exposures_during(&self, slot: usize, from: SimTime, to: SimTime) -> usize {
        AnalyticSubstrate::exposures_during(self, slot, from, to)
    }

    fn sample_distinct_slots(&self, count: usize, rng: &mut StdRng) -> Vec<usize> {
        AnalyticSubstrate::sample_distinct_slots(self, count, rng)
    }

    fn store(&mut self, key: NodeId, value: Vec<u8>, ttl: Option<SimDuration>) -> Vec<usize> {
        match ttl {
            Some(ttl) => AnalyticSubstrate::store_with_ttl(self, key, value, ttl),
            None => AnalyticSubstrate::store(self, key, value),
        }
    }

    fn find_value(&mut self, key: NodeId) -> Option<Vec<u8>> {
        AnalyticSubstrate::find_value(self, key)
    }
}

impl HolderSubstrate for ContractSubstrate {
    fn n_nodes(&self) -> usize {
        ContractSubstrate::n_nodes(self)
    }

    fn now(&self) -> SimTime {
        ContractSubstrate::now(self)
    }

    fn advance_to(&mut self, t: SimTime) {
        ContractSubstrate::advance_to(self, t);
    }

    fn resolve_holder(&self, target: &NodeId) -> usize {
        ContractSubstrate::resolve_holder(self, target)
    }

    fn closest_slots(&self, target: &NodeId, count: usize) -> Vec<usize> {
        ContractSubstrate::closest_slots(self, target, count)
    }

    fn generations(&self, slot: usize) -> &[NodeInfo] {
        ContractSubstrate::generations(self, slot)
    }

    fn generation_at(&self, slot: usize, t: SimTime) -> &NodeInfo {
        ContractSubstrate::generation_at(self, slot, t)
    }

    fn sample_distinct_slots(&self, count: usize, rng: &mut StdRng) -> Vec<usize> {
        ContractSubstrate::sample_distinct_slots(self, count, rng)
    }

    /// Contract-substrate stores are collateralized: each accepting slot
    /// escrows the storage bond, refunded at TTL expiry. The data path
    /// (placement, replication, lookup) is identical to the analytic
    /// substrate's.
    fn store(&mut self, key: NodeId, value: Vec<u8>, ttl: Option<SimDuration>) -> Vec<usize> {
        ContractSubstrate::store(self, key, value, ttl)
    }

    fn find_value(&mut self, key: NodeId) -> Option<Vec<u8>> {
        ContractSubstrate::find_value(self, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn config(n: usize) -> OverlayConfig {
        OverlayConfig {
            n_nodes: n,
            ..OverlayConfig::default()
        }
    }

    /// Exercises every trait method through a `dyn`-free generic fn on
    /// both substrates and cross-checks the answers.
    fn probe<S: HolderSubstrate>(substrate: &mut S) -> (usize, usize, bool, usize, Vec<usize>) {
        let target = NodeId::from_name(b"probe");
        let t0 = SimTime::ZERO;
        let t1 = SimTime::from_ticks(1_000);
        let slot = substrate.resolve_holder(&target);
        let gens = substrate.generations(slot).len();
        let exposed = substrate.any_malicious_exposure(slot, t0, t1);
        let exposures = substrate.exposures_during(slot, t0, t1);
        let mut rng = StdRng::seed_from_u64(5);
        let sample = substrate.sample_distinct_slots(10, &mut rng);
        substrate.store(target, b"blob".to_vec(), None);
        assert_eq!(substrate.find_value(target), Some(b"blob".to_vec()));
        assert_eq!(substrate.generation_at(slot, t0).spawn, t0);
        (slot, gens, exposed, exposures, sample)
    }

    #[test]
    fn all_substrates_answer_identically() {
        let cfg = OverlayConfig {
            malicious_fraction: 0.3,
            mean_lifetime: Some(5_000),
            horizon: 100_000,
            ..config(150)
        };
        let mut analytic = AnalyticSubstrate::build(cfg, 11);
        let mut contract = ContractSubstrate::build(ContractConfig::over(cfg), 11);
        assert_eq!(probe(&mut analytic), probe(&mut contract));
    }

    fn ttl_roundtrip<S: HolderSubstrate>(mut s: S) {
        let key = NodeId::from_name(b"ttl");
        s.store(key, b"v".to_vec(), Some(SimDuration::from_ticks(5)));
        assert_eq!(s.find_value(key), Some(b"v".to_vec()));
        s.advance_to(SimTime::from_ticks(6));
        assert_eq!(s.find_value(key), None);
    }

    #[test]
    fn ttl_store_expires_on_all() {
        ttl_roundtrip(AnalyticSubstrate::build(config(64), 3));
        ttl_roundtrip(ContractSubstrate::build(
            ContractConfig::over(config(64)),
            3,
        ));
    }
}
