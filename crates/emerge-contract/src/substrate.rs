//! The world of the contract-native bonded release.
//!
//! [`ContractSubstrate`] layers the simulated blockchain — block clock,
//! token [`Ledger`], [`ReleaseContract`] — on top of the routing-free
//! [`AnalyticSubstrate`]. The DHT semantics (population, churn timelines,
//! XOR-closest holder resolution) are *delegated verbatim* to the inner
//! world, so a given `(OverlayConfig, seed)` pair yields the analytic
//! substrate's population bit for bit. What the contract layer adds:
//!
//! * a **block clock**: `advance_to` keeps a blockchain height in sync
//!   with simulated time, and contract deadlines are block heights;
//! * the **release contract** itself, on which the bonded-release
//!   protocol ([`crate::release`]) escrows, reveals, claims and slashes.
//!
//! Account layout: slot `s` owns ledger account `s`; the depositor
//! (sender) owns account `n_nodes`.

use crate::clock::BlockClock;
use crate::contract::ReleaseContract;
use crate::economy::EconomyParams;
use crate::ledger::{AccountId, Ledger};
use emerge_dht::analytic::AnalyticSubstrate;
use emerge_dht::overlay::OverlayConfig;
use emerge_dht::population::NodeInfo;
use emerge_sim::time::{SimDuration, SimTime};
use rand::Rng;

/// Configuration of a contract substrate: the DHT world plus the chain
/// economy layered on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContractConfig {
    /// The DHT population / world parameters (shared with the other
    /// substrates; equal configs + seeds mean bit-identical populations).
    pub overlay: OverlayConfig,
    /// Token economy parameters.
    pub economy: EconomyParams,
    /// Ticks per block of the simulated chain.
    pub block_interval: SimDuration,
}

impl Default for ContractConfig {
    fn default() -> Self {
        ContractConfig {
            overlay: OverlayConfig::default(),
            economy: EconomyParams::default(),
            block_interval: SimDuration::from_ticks(250),
        }
    }
}

impl ContractConfig {
    /// A config with default economy and block interval over `overlay`.
    pub fn over(overlay: OverlayConfig) -> Self {
        ContractConfig {
            overlay,
            ..ContractConfig::default()
        }
    }
}

/// The smart-contract release substrate: analytic DHT semantics plus a
/// deterministic simulated blockchain.
#[derive(Debug)]
pub struct ContractSubstrate {
    inner: AnalyticSubstrate,
    clock: BlockClock,
    economy: EconomyParams,
    ledger: Ledger,
    contract: ReleaseContract,
}

impl ContractSubstrate {
    /// Builds the substrate deterministically from `seed`. The population
    /// is identical to `AnalyticSubstrate::build(config.overlay, seed)`'s.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes == 0`, `malicious_fraction ∉ [0, 1]` or the
    /// block interval is zero.
    pub fn build(config: ContractConfig, seed: u64) -> Self {
        let inner = AnalyticSubstrate::build(config.overlay, seed);
        // Slot `s` owns account `s`; the depositor account comes last and
        // is funded with the sender's (larger) genesis allocation.
        let mut ledger = Ledger::new(inner.n_nodes(), config.economy.holder_funds);
        ledger.push_account(config.economy.sender_funds);
        ContractSubstrate {
            inner,
            clock: BlockClock::new(config.block_interval),
            economy: config.economy,
            ledger,
            contract: ReleaseContract::new(),
        }
    }

    /// The block clock mapping simulated time onto chain height.
    pub fn clock(&self) -> BlockClock {
        self.clock
    }

    /// The ledger account owned by population slot `slot`.
    pub fn slot_account(&self, slot: usize) -> AccountId {
        slot
    }

    /// The depositor (sender) account.
    pub fn depositor_account(&self) -> AccountId {
        self.inner.n_nodes()
    }

    /// Read access to the token ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The economy parameters this substrate was built with.
    pub fn economy(&self) -> &EconomyParams {
        &self.economy
    }

    /// Read access to the release contract.
    pub fn contract(&self) -> &ReleaseContract {
        &self.contract
    }

    /// Mutable access to the contract and ledger together (every contract
    /// operation moves tokens).
    pub fn contract_mut(&mut self) -> (&mut ReleaseContract, &mut Ledger) {
        (&mut self.contract, &mut self.ledger)
    }

    // ---- delegated DHT semantics -------------------------------------

    /// Number of population slots.
    pub fn n_nodes(&self) -> usize {
        self.inner.n_nodes()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.inner.now()
    }

    /// Advances the clock (monotonic).
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the current time.
    pub fn advance_to(&mut self, t: SimTime) {
        self.inner.advance_to(t);
    }

    /// The generation occupying `slot` at time `t`.
    pub fn generation_at(&self, slot: usize, t: SimTime) -> &NodeInfo {
        self.inner.generation_at(slot, t)
    }

    /// Samples `count` distinct slots uniformly (same stream contract as
    /// the other substrates).
    ///
    /// # Panics
    ///
    /// Panics if `count > n_nodes`.
    pub fn sample_distinct_slots<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<usize> {
        self.inner.sample_distinct_slots(count, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emerge_dht::id::NodeId;
    use emerge_dht::population::Population;
    use emerge_sim::rng::SeedSource;

    fn config(n: usize) -> ContractConfig {
        ContractConfig::over(OverlayConfig {
            n_nodes: n,
            ..OverlayConfig::default()
        })
    }

    #[test]
    fn population_matches_the_other_substrates_bit_for_bit() {
        let overlay_cfg = OverlayConfig {
            n_nodes: 120,
            malicious_fraction: 0.3,
            mean_lifetime: Some(2_000),
            horizon: 50_000,
        };
        let eager = Population::build(&overlay_cfg, &SeedSource::new(42));
        let analytic = AnalyticSubstrate::build(overlay_cfg, 42);
        let contract = ContractSubstrate::build(ContractConfig::over(overlay_cfg), 42);
        let world = &contract.inner;
        for slot in 0..120 {
            assert_eq!(eager.generations[slot], world.generations(slot));
            assert_eq!(analytic.generations(slot), world.generations(slot));
        }
        for probe in 0..8 {
            let target = NodeId::from_name(format!("parity-probe-{probe}").as_bytes());
            assert_eq!(
                analytic.resolve_holder(&target),
                world.resolve_holder(&target)
            );
        }
    }

    #[test]
    fn block_height_tracks_the_clock() {
        // Heights are read as the bonded release reads them: through
        // the clock, at the substrate's current time.
        let mut sub = ContractSubstrate::build(config(16), 1);
        assert_eq!(sub.clock().height_at(sub.now()), 0);
        sub.advance_to(SimTime::from_ticks(251));
        assert_eq!(sub.clock().height_at(sub.now()), 1);
        sub.advance_to(SimTime::from_ticks(1_000));
        assert_eq!(sub.clock().height_at(sub.now()), 4);
    }

    #[test]
    fn genesis_funds_slots_and_depositor() {
        let sub = ContractSubstrate::build(config(8), 2);
        let economy = EconomyParams::default();
        assert_eq!(sub.ledger().accounts(), 9);
        assert_eq!(sub.ledger().balance(0), economy.holder_funds);
        assert_eq!(
            sub.ledger().balance(sub.depositor_account()),
            economy.sender_funds
        );
        assert_eq!(
            sub.ledger().total_supply(),
            8 * economy.holder_funds + economy.sender_funds
        );
    }

    #[test]
    #[should_panic(expected = "cannot go backwards")]
    fn clock_rejects_rewind() {
        let mut sub = ContractSubstrate::build(config(8), 5);
        sub.advance_to(SimTime::from_ticks(10));
        sub.advance_to(SimTime::from_ticks(9));
    }
}
