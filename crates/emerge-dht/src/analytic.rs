//! The DHT world every substrate builds on.
//!
//! [`AnalyticSubstrate`] holds the deterministic population sampled from
//! [`crate::population::Genesis`] for an `(OverlayConfig, seed)` pair —
//! generation-0 IDs, the exact malicious marking and per-slot churn
//! timelines — and answers the three questions the paper's experiments
//! depend on: which node is XOR-closest to a holder address, which nodes
//! are malicious, and when churn replaces a tenant.
//!
//! * **no routing tables** — holder addresses are resolved directly
//!   against a sorted ID index (bit-descent over the implicit binary
//!   trie), `O(log² n)` per resolution and exact: the same slot an
//!   iterative Kademlia lookup converges to in a fault-free network;
//! * **lazy churn** — each slot's generation timeline is sampled from its
//!   own per-slot stream only when first queried, so a Monte-Carlo trial
//!   that touches ~30 holders of a 10 000-node world never pays for the
//!   other 9 970 timelines (bit-identical to the eager
//!   [`crate::population::Population::build`]).

use crate::id::NodeId;
use crate::index::{IndexScratch, SortedIdIndex};
use crate::overlay::OverlayConfig;
use crate::population::{self, Genesis, NodeInfo};
use emerge_obs::metrics::CounterId;
use emerge_sim::rng::SeedSource;
use emerge_sim::time::SimTime;
use rand::Rng;
use std::cell::{OnceCell, RefCell};

/// Holder resolutions served by the analytic substrate's sorted-ID
/// index (recorded into the thread's `emerge-obs` collector, if any).
static RESOLVES: CounterId = CounterId::new("dht.analytic.resolves");

/// The analytic (routing-free, lazily churned) DHT substrate.
#[derive(Debug)]
pub struct AnalyticSubstrate {
    seed: SeedSource,
    genesis: Genesis,
    /// Per-slot generation timelines, materialized on first access.
    timelines: Vec<OnceCell<Vec<NodeInfo>>>,
    /// Timeline buffers recovered by [`rebuild`](Self::rebuild), handed
    /// back out as later worlds materialize slots — the recycling that
    /// makes a warm rebuilt world allocation-free.
    timeline_pool: RefCell<Vec<Vec<NodeInfo>>>,
    /// The sorted generation-0 ID index behind closest-slot resolution.
    index: SortedIdIndex,
    /// Decoration scratch for warm index rebuilds.
    index_scratch: IndexScratch,
    /// Shuffle scratch for warm genesis re-marking.
    marking_scratch: Vec<usize>,
    now: SimTime,
}

impl AnalyticSubstrate {
    /// Builds the substrate deterministically from `seed`; only
    /// generation-0 identities and the malicious marking are sampled here.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes == 0` or `malicious_fraction ∉ [0, 1]`.
    pub fn build(config: OverlayConfig, seed: u64) -> Self {
        let seed = SeedSource::new(seed);
        let genesis = Genesis::sample(&config, &seed);
        let n = genesis.n_nodes();
        let index = SortedIdIndex::build(genesis.initial_ids());
        AnalyticSubstrate {
            seed,
            genesis,
            timelines: (0..n).map(|_| OnceCell::new()).collect(),
            timeline_pool: RefCell::new(Vec::new()),
            index,
            index_scratch: IndexScratch::default(),
            marking_scratch: Vec::new(),
            now: SimTime::ZERO,
        }
    }

    /// Re-seeds the substrate in place: bit-identical observable state to
    /// `AnalyticSubstrate::build(config, seed)` with the retained config,
    /// but recycling every buffer the previous world owned — genesis
    /// identity/marking vectors, the sorted ID index (plus its sort
    /// scratch) and the materialized slot timelines, which return to a
    /// pool and are reissued as the new world's slots are first queried.
    /// After a warm-up world of the same shape, a rebuild plus a trial's
    /// worth of queries performs no heap allocation.
    pub fn rebuild(&mut self, seed: u64) {
        let seed = SeedSource::new(seed);
        self.seed = seed;
        self.genesis.resample(&seed, &mut self.marking_scratch);
        self.index
            .rebuild(self.genesis.initial_ids(), &mut self.index_scratch);
        let pool = self.timeline_pool.get_mut();
        for cell in &mut self.timelines {
            if let Some(buf) = cell.take() {
                pool.push(buf);
            }
        }
        self.now = SimTime::ZERO;
    }

    /// Number of population slots.
    pub fn n_nodes(&self) -> usize {
        self.genesis.n_nodes()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock (monotonic).
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the current time.
    pub fn advance_to(&mut self, t: SimTime) {
        // LINT-WAIVER(panic): documented # Panics contract: the substrate clock is monotone
        assert!(t >= self.now, "substrate clock cannot go backwards");
        self.now = t;
    }

    /// The initial (generation-0) node of a slot.
    pub fn initial(&self, slot: usize) -> &NodeInfo {
        &self.generations(slot)[0]
    }

    /// All generations of a slot, in order (sampled on first access into
    /// a pooled buffer when one is available).
    pub fn generations(&self, slot: usize) -> &[NodeInfo] {
        self.timelines[slot].get_or_init(|| {
            let mut buf = self.timeline_pool.borrow_mut().pop().unwrap_or_default();
            self.genesis.slot_generations_into(slot, &mut buf);
            buf
        })
    }

    /// How many slot timelines have been materialized so far (diagnostic
    /// for the laziness the Monte-Carlo engine relies on).
    pub fn materialized_timelines(&self) -> usize {
        self.timelines.iter().filter(|c| c.get().is_some()).count()
    }

    /// The generation occupying `slot` at time `t`.
    pub fn generation_at(&self, slot: usize, t: SimTime) -> &NodeInfo {
        population::tenant_at(self.generations(slot), t)
    }

    /// Count of initially malicious nodes (generation 0; no timeline
    /// sampling needed).
    pub fn initial_malicious_count(&self) -> usize {
        self.genesis.initial_malicious_count()
    }

    /// The seed source, for components that fork protocol-level streams.
    pub fn seed(&self) -> SeedSource {
        self.seed
    }

    /// The `count` slots whose generation-0 IDs are XOR-closest to
    /// `target`, closest first, computed by descending the implicit
    /// binary trie over the sorted ID index. Reads only generation-0
    /// IDs — no churn materialization.
    pub fn closest_slots(&self, target: &NodeId, count: usize) -> Vec<usize> {
        self.index.closest_slots(target, count)
    }

    /// The slot responsible for `target` (XOR-closest generation-0 ID).
    pub fn resolve_holder(&self, target: &NodeId) -> usize {
        RESOLVES.incr();
        self.index.resolve(target)
    }

    /// Samples `count` distinct slots uniformly.
    ///
    /// # Panics
    ///
    /// Panics if `count > n_nodes`.
    pub fn sample_distinct_slots<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<usize> {
        // LINT-WAIVER(panic): documented # Panics contract: cannot sample more slots than nodes
        assert!(
            count <= self.n_nodes(),
            "cannot sample more slots than exist"
        );
        rand::seq::index::sample(rng, self.n_nodes(), count).into_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::sort_by_distance;
    use crate::population::Population;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config(n: usize) -> OverlayConfig {
        OverlayConfig {
            n_nodes: n,
            ..OverlayConfig::default()
        }
    }

    #[test]
    fn build_is_deterministic() {
        let a = AnalyticSubstrate::build(config(50), 7);
        let b = AnalyticSubstrate::build(config(50), 7);
        for slot in 0..50 {
            assert_eq!(a.initial(slot).id, b.initial(slot).id);
        }
        let c = AnalyticSubstrate::build(config(50), 8);
        assert_ne!(a.initial(0).id, c.initial(0).id);
    }

    #[test]
    fn population_matches_eager_build_bit_for_bit() {
        // The lazy substrate must produce the exact timelines the eager
        // Population build does: same per-slot streams, any access order.
        let cfg = OverlayConfig {
            n_nodes: 200,
            malicious_fraction: 0.3,
            mean_lifetime: Some(2_000),
            horizon: 50_000,
        };
        let eager = Population::build(&cfg, &SeedSource::new(42));
        let analytic = AnalyticSubstrate::build(cfg, 42);
        for slot in (0..200).rev().chain([55, 0, 55]) {
            assert_eq!(eager.generations[slot], analytic.generations(slot));
        }
        assert_eq!(
            eager.initial_malicious_count(),
            analytic.initial_malicious_count()
        );
    }

    #[test]
    fn rebuild_matches_fresh_build_bit_for_bit() {
        let cfg = OverlayConfig {
            n_nodes: 300,
            malicious_fraction: 0.25,
            mean_lifetime: Some(1_500),
            horizon: 40_000,
        };
        let mut warm = AnalyticSubstrate::build(cfg, 100);
        // Materialize a spread of timelines and dirty the clock so the
        // rebuild has real state to recycle.
        for slot in [0usize, 7, 42, 199, 299] {
            let _ = warm.generations(slot);
        }
        warm.advance_to(SimTime::from_ticks(123));

        for seed in [100u64, 7, 0xDEAD] {
            warm.rebuild(seed);
            let fresh = AnalyticSubstrate::build(cfg, seed);
            assert_eq!(warm.now(), SimTime::ZERO);
            assert_eq!(warm.materialized_timelines(), 0);
            assert_eq!(
                warm.initial_malicious_count(),
                fresh.initial_malicious_count(),
                "seed {seed}"
            );
            for i in 0..50 {
                let target = NodeId::from_name(format!("probe-{i}").as_bytes());
                assert_eq!(warm.resolve_holder(&target), fresh.resolve_holder(&target));
                assert_eq!(
                    warm.closest_slots(&target, 6),
                    fresh.closest_slots(&target, 6)
                );
            }
            // Query out of order so rebuilt worlds hand out pooled buffers.
            for slot in [299usize, 0, 42, 7, 150, 42] {
                assert_eq!(
                    warm.generations(slot),
                    fresh.generations(slot),
                    "slot {slot}"
                );
            }
        }
    }

    #[test]
    fn timelines_are_lazy() {
        let cfg = OverlayConfig {
            n_nodes: 1_000,
            mean_lifetime: Some(1_000),
            horizon: 100_000,
            ..OverlayConfig::default()
        };
        let sub = AnalyticSubstrate::build(cfg, 9);
        assert_eq!(sub.materialized_timelines(), 0);
        let target = NodeId::from_name(b"one-holder");
        let slot = sub.resolve_holder(&target);
        let _ = sub.closest_slots(&target, 8);
        assert_eq!(sub.materialized_timelines(), 0, "resolution needs no churn");
        let _ = sub.generation_at(slot, SimTime::from_ticks(500));
        assert_eq!(sub.materialized_timelines(), 1);
    }

    #[test]
    fn no_churn_means_immortal_nodes() {
        let sub = AnalyticSubstrate::build(config(20), 2);
        for slot in 0..20 {
            assert_eq!(sub.generations(slot).len(), 1);
            assert!(sub
                .initial(slot)
                .alive_at(SimTime::from_ticks(u64::MAX - 1)));
        }
    }

    #[test]
    fn churn_generations_tile_the_horizon() {
        let cfg = OverlayConfig {
            n_nodes: 100,
            mean_lifetime: Some(1000),
            horizon: 10_000,
            ..OverlayConfig::default()
        };
        let sub = AnalyticSubstrate::build(cfg, 3);
        let mut multi_gen = 0;
        for slot in 0..100 {
            let gens = sub.generations(slot);
            if gens.len() > 1 {
                multi_gen += 1;
            }
            // Generations are contiguous: next spawn == previous death.
            for w in gens.windows(2) {
                assert_eq!(w[0].death, w[1].spawn);
            }
            assert_eq!(gens.last().unwrap().death, SimTime::MAX);
            assert_eq!(gens[0].spawn, SimTime::ZERO);
        }
        // With horizon = 10 lifetimes, nearly every slot churns.
        assert!(multi_gen > 90, "only {multi_gen} slots churned");
    }

    #[test]
    fn generation_at_finds_the_right_tenant() {
        let cfg = OverlayConfig {
            n_nodes: 50,
            mean_lifetime: Some(500),
            horizon: 50_000,
            ..OverlayConfig::default()
        };
        let sub = AnalyticSubstrate::build(cfg, 4);
        for slot in 0..50 {
            for t in [0u64, 100, 1000, 10_000, 49_999] {
                let t = SimTime::from_ticks(t);
                let g = sub.generation_at(slot, t);
                assert!(
                    g.alive_at(t) || g.death == SimTime::MAX,
                    "tenant must cover the queried instant"
                );
            }
        }
    }

    #[test]
    fn exposures_count_overlapping_generations() {
        let cfg = OverlayConfig {
            n_nodes: 200,
            mean_lifetime: Some(100),
            horizon: 100_000,
            ..OverlayConfig::default()
        };
        let sub = AnalyticSubstrate::build(cfg, 5);
        // Over [0, 1000) with mean lifetime 100 we expect ~11 generations.
        let mut total = 0usize;
        for slot in 0..200 {
            let e = population::exposures_during(
                sub.generations(slot),
                SimTime::ZERO,
                SimTime::from_ticks(1000),
            );
            assert!(e >= 1);
            total += e;
        }
        let mean = total as f64 / 200.0;
        assert!(
            (mean - 11.0).abs() < 2.0,
            "mean exposures {mean}, expected ≈ 11"
        );
    }

    #[test]
    fn sample_distinct_slots_has_no_repeats() {
        let sub = AnalyticSubstrate::build(config(100), 11);
        let mut rng = sub.seed().stream("sampling");
        let sample = sub.sample_distinct_slots(40, &mut rng);
        let mut dedup = sample.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 40);
    }

    #[test]
    fn closest_slots_matches_brute_force() {
        let sub = AnalyticSubstrate::build(config(300), 7);
        let mut rng = StdRng::seed_from_u64(99);
        for i in 0..50 {
            let target = if i % 5 == 0 {
                NodeId::random(&mut rng)
            } else {
                NodeId::from_name(format!("probe-{i}").as_bytes())
            };
            let got = sub.closest_slots(&target, 8);
            let mut ids: Vec<NodeId> = (0..300).map(|s| sub.initial(s).id).collect();
            sort_by_distance(&mut ids, &target);
            for (rank, slot) in got.iter().enumerate() {
                assert_eq!(
                    sub.initial(*slot).id,
                    ids[rank],
                    "rank {rank} of {target:?}"
                );
            }
        }
    }

    #[test]
    fn fast_resolve_matches_general_traversal() {
        let sub = AnalyticSubstrate::build(config(257), 13);
        let mut rng = StdRng::seed_from_u64(4);
        for i in 0..200 {
            let target = if i % 3 == 0 {
                NodeId::random(&mut rng)
            } else {
                // Also probe exact member IDs (distance-zero hits).
                sub.initial(i % 257).id
            };
            assert_eq!(
                sub.resolve_holder(&target),
                sub.closest_slots(&target, 1)[0],
                "target {target:?}"
            );
        }
    }

    #[test]
    fn closest_slots_handles_edge_counts() {
        let sub = AnalyticSubstrate::build(config(16), 3);
        let target = NodeId::from_name(b"x");
        assert!(sub.closest_slots(&target, 0).is_empty());
        assert_eq!(sub.closest_slots(&target, 16).len(), 16);
        assert_eq!(sub.closest_slots(&target, 100).len(), 16);
    }

    #[test]
    fn clock_is_monotonic() {
        let mut sub = AnalyticSubstrate::build(config(8), 1);
        sub.advance_to(SimTime::from_ticks(5));
        assert_eq!(sub.now(), SimTime::from_ticks(5));
    }

    #[test]
    #[should_panic(expected = "cannot go backwards")]
    fn clock_rejects_rewind() {
        let mut sub = AnalyticSubstrate::build(config(8), 1);
        sub.advance_to(SimTime::from_ticks(5));
        sub.advance_to(SimTime::from_ticks(4));
    }
}
