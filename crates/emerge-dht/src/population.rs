//! The churn-expanded node population behind every DHT substrate.
//!
//! The world is `n` slots, each occupied by a succession of node
//! generations with exponential lifetimes and per-generation malicious
//! draws. [`crate::analytic::AnalyticSubstrate`] samples it lazily from a
//! [`Genesis`]; the eager [`Population::build`] samples every slot up
//! front and is the independent reference the lazy per-slot sampling is
//! tested against.
//!
//! The sampling scheme is part of the deterministic contract:
//!
//! * generation-0 IDs come from the `"node-ids"` stream in slot order,
//! * the exact-count malicious marking from `"malicious-marking"`,
//! * each slot's churn replacements (lifetime, replacement ID, replacement
//!   malicious draw) from that slot's own `"slot-churn"/slot` stream.
//!
//! Per-slot churn streams are what make churn timelines *independently
//! addressable*: a substrate can sample only the slots a protocol run
//! actually touches (the analytic substrate's lazy mode, ~30 of 10 000
//! per Monte-Carlo trial), and sharded Monte-Carlo workers (see
//! `emerge_core::montecarlo::run_protocol_trial_range`) sample disjoint
//! trial or slot ranges without replaying a global stream. Changing any
//! of this reseeds every world and breaks reproducibility tests.
//!
//! ## Interval convention
//!
//! Every time interval in this module is **half-open**: a generation is
//! the tenant over `[spawn, death)`, and the exposure helpers
//! ([`exposures_during`], [`any_malicious_exposure`],
//! [`first_malicious_exposure`]) take a half-open query window
//! `[from, to)`. A generation overlaps the window iff
//! `spawn < to && from < death`, so a generation dying exactly at `from`
//! and one spawning exactly at `to` are both excluded — at those instants
//! the slot belongs to the neighbouring generation, and a window's `to`
//! boundary belongs to the *next* window. This keeps
//! `exposures_during(gens, a, b) + exposures_during(gens, b, c)` double-
//! counting only the single generation (if any) that straddles `b`.

use crate::id::NodeId;
use crate::overlay::OverlayConfig;
use emerge_sim::churn::LifetimeModel;
use emerge_sim::rng::SeedSource;
use emerge_sim::time::{SimDuration, SimTime};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;

/// One node generation occupying a slot for `[spawn, death)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeInfo {
    /// The node's DHT identifier.
    pub id: NodeId,
    /// Whether this node is adversary-controlled.
    pub malicious: bool,
    /// When this generation joined.
    pub spawn: SimTime,
    /// When this generation dies ([`SimTime::MAX`] if beyond the horizon).
    pub death: SimTime,
}

impl NodeInfo {
    /// Whether the generation is alive at `t`.
    pub fn alive_at(&self, t: SimTime) -> bool {
        self.spawn <= t && t < self.death
    }
}

/// The deterministic seed state of a population: generation-0 identities
/// and marking, from which any slot's full churn timeline can be sampled
/// independently (and therefore lazily).
#[derive(Debug, Clone)]
pub struct Genesis {
    config: OverlayConfig,
    seed: SeedSource,
    initial_ids: Vec<NodeId>,
    initial_malicious: Vec<bool>,
}

impl Genesis {
    /// Samples generation-0 identities and the exact-count malicious
    /// marking, deterministically from `seed`: [`resample`](Self::resample)
    /// into empty buffers.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes == 0` or `malicious_fraction ∉ [0, 1]`.
    pub fn sample(config: &OverlayConfig, seed: &SeedSource) -> Self {
        // LINT-WAIVER(panic): documented # Panics contract on the population configuration
        assert!(config.n_nodes > 0, "population needs at least one node");
        // LINT-WAIVER(panic): documented # Panics contract on the population configuration
        assert!(
            (0.0..=1.0).contains(&config.malicious_fraction),
            "malicious fraction must be in [0, 1]"
        );
        let mut genesis = Genesis {
            config: *config,
            seed: *seed,
            initial_ids: Vec::new(),
            initial_malicious: Vec::new(),
        };
        genesis.resample(seed, &mut Vec::new());
        genesis
    }

    /// Number of population slots.
    pub fn n_nodes(&self) -> usize {
        self.initial_ids.len()
    }

    /// All generation-0 IDs, in slot order.
    pub fn initial_ids(&self) -> &[NodeId] {
        &self.initial_ids
    }

    /// Count of initially malicious nodes (generation 0).
    pub fn initial_malicious_count(&self) -> usize {
        self.initial_malicious.iter().filter(|&&m| m).count()
    }

    /// Samples the full generation succession of one slot from its own
    /// `"slot-churn"` stream. Identical output every call; independent of
    /// every other slot.
    pub fn slot_generations(&self, slot: usize) -> Vec<NodeInfo> {
        let mut generations = Vec::with_capacity(1);
        self.slot_generations_into(slot, &mut generations);
        generations
    }

    /// [`slot_generations`](Self::slot_generations) into a caller-owned
    /// buffer (cleared first) — the form pooled trial loops use to recycle
    /// timeline storage across worlds without changing a single sampled
    /// byte.
    pub fn slot_generations_into(&self, slot: usize, out: &mut Vec<NodeInfo>) {
        out.clear();
        let lifetime = self
            .config
            .mean_lifetime
            .map(|m| LifetimeModel::new(SimDuration::from_ticks(m)));
        let horizon = SimTime::from_ticks(self.config.horizon);
        let mut churn_rng = self.seed.stream_n("slot-churn", slot as u64);

        let mut spawn = SimTime::ZERO;
        let mut gen_malicious = self.initial_malicious[slot];
        let mut gen_id = self.initial_ids[slot];
        loop {
            let death = match &lifetime {
                Some(model) => {
                    let life = model.sample_lifetime(&mut churn_rng);
                    let d = spawn + life;
                    if d >= horizon {
                        SimTime::MAX
                    } else {
                        d
                    }
                }
                None => SimTime::MAX,
            };
            out.push(NodeInfo {
                id: gen_id,
                malicious: gen_malicious,
                spawn,
                death,
            });
            if death == SimTime::MAX {
                break;
            }
            // Replacement node: fresh ID, independent malicious draw at
            // rate p (the paper: "the new node also has probability p to
            // be malicious").
            spawn = death;
            gen_id = NodeId::random(&mut churn_rng);
            gen_malicious = churn_rng.gen::<f64>() < self.config.malicious_fraction;
        }
    }

    /// Re-samples generation-0 state in place from a new `seed`, reusing
    /// the identity and marking buffers (and the caller's shuffle
    /// scratch); the [`OverlayConfig`] is retained.
    pub fn resample(&mut self, seed: &SeedSource, shuffle_scratch: &mut Vec<usize>) {
        let n = self.config.n_nodes;
        self.seed = *seed;
        let mut id_rng = seed.stream("node-ids");
        self.initial_ids.clear();
        self.initial_ids
            .extend((0..n).map(|_| NodeId::random(&mut id_rng)));

        // Exact ⌊p·n⌋ malicious marking over generation 0.
        let mut mark_rng = seed.stream("malicious-marking");
        let malicious_count = (self.config.malicious_fraction * n as f64).floor() as usize;
        shuffle_scratch.clear();
        shuffle_scratch.extend(0..n);
        shuffle_scratch.shuffle(&mut mark_rng);
        self.initial_malicious.clear();
        self.initial_malicious.resize(n, false);
        for &i in shuffle_scratch.iter().take(malicious_count) {
            self.initial_malicious[i] = true;
        }
    }
}

/// Whether a generation's tenancy `[spawn, death)` overlaps the half-open
/// query window `[from, to)` — the single boundary convention every
/// exposure helper in this module follows (see the module docs).
fn overlaps_window(g: &NodeInfo, from: SimTime, to: SimTime) -> bool {
    g.spawn < to && from < g.death
}

/// The generation occupying the slot at time `t`.
///
/// Tenancies are half-open (`[spawn, death)`), so `t` belongs to exactly
/// one generation of a contiguous timeline. The immortal final generation
/// (`death == SimTime::MAX`) is additionally the tenant at
/// `t == SimTime::MAX`, which no half-open interval can contain.
///
/// # Panics
///
/// Panics if no generation's tenancy contains `t` — e.g. a hand-built,
/// non-contiguous timeline queried before its final generation's spawn
/// (historically this returned the immortal final generation, silently
/// reporting a tenant from the future).
pub fn tenant_at(generations: &[NodeInfo], t: SimTime) -> &NodeInfo {
    if let Some(g) = generations.iter().find(|g| g.alive_at(t)) {
        return g;
    }
    match generations.last() {
        Some(last) if last.death == SimTime::MAX && last.spawn <= t => last,
        // LINT-WAIVER(panic): documented contract: callers only query slots occupied at t
        _ => panic!("no generation occupies the slot at t = {t:?}"),
    }
}

/// Number of distinct generations whose tenancy overlaps the half-open
/// window `[from, to)` — the key **re-exposure count** used by the churn
/// analysis. An empty window (`from == to`) exposes nothing.
///
/// # Panics
///
/// Panics if `from > to`.
pub fn exposures_during(generations: &[NodeInfo], from: SimTime, to: SimTime) -> usize {
    // LINT-WAIVER(panic): documented # Panics contract: the window must be ordered
    assert!(from <= to);
    generations
        .iter()
        .filter(|g| overlaps_window(g, from, to))
        .count()
}

/// Whether any generation overlapping the half-open window `[from, to)`
/// is malicious.
pub fn any_malicious_exposure(generations: &[NodeInfo], from: SimTime, to: SimTime) -> bool {
    generations
        .iter()
        .any(|g| overlaps_window(g, from, to) && g.malicious)
}

/// The earliest instant in the half-open window `[from, to)` at which a
/// malicious tenant occupies the slot, if any.
pub fn first_malicious_exposure(
    generations: &[NodeInfo],
    from: SimTime,
    to: SimTime,
) -> Option<SimTime> {
    generations
        .iter()
        .filter(|g| g.malicious && overlaps_window(g, from, to))
        .map(|g| g.spawn.max(from))
        .min()
}

/// A fully materialized population: per-slot generation successions plus
/// the generation-0 ID index. The analytic substrate keeps the
/// [`Genesis`] and materializes slots on demand instead; this eager build
/// is the reference that lazy sampling is checked against.
#[derive(Debug, Clone)]
pub struct Population {
    /// `generations[slot]` is that slot's tenant succession, in time order.
    pub generations: Vec<Vec<NodeInfo>>,
    /// Generation-0 ID → slot index.
    pub id_index: HashMap<NodeId, usize>,
}

impl Population {
    /// Samples and materializes a whole population deterministically from
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes == 0` or `malicious_fraction ∉ [0, 1]`.
    pub fn build(config: &OverlayConfig, seed: &SeedSource) -> Self {
        let genesis = Genesis::sample(config, seed);
        let n = genesis.n_nodes();
        let generations: Vec<Vec<NodeInfo>> =
            (0..n).map(|slot| genesis.slot_generations(slot)).collect();
        let id_index = genesis
            .initial_ids()
            .iter()
            .enumerate()
            .map(|(slot, id)| (*id, slot))
            .collect();
        Population {
            generations,
            id_index,
        }
    }

    /// Number of population slots.
    pub fn n_nodes(&self) -> usize {
        self.generations.len()
    }

    /// The generation occupying `slot` at time `t`.
    pub fn generation_at(&self, slot: usize, t: SimTime) -> &NodeInfo {
        tenant_at(&self.generations[slot], t)
    }

    /// Number of distinct node generations whose tenancy overlaps the
    /// half-open window `[from, to)`.
    pub fn exposures_during(&self, slot: usize, from: SimTime, to: SimTime) -> usize {
        exposures_during(&self.generations[slot], from, to)
    }

    /// Whether any generation of `slot` overlapping the half-open window
    /// `[from, to)` is malicious.
    pub fn any_malicious_exposure(&self, slot: usize, from: SimTime, to: SimTime) -> bool {
        any_malicious_exposure(&self.generations[slot], from, to)
    }

    /// Count of initially malicious nodes (generation 0).
    pub fn initial_malicious_count(&self) -> usize {
        self.generations
            .iter()
            .filter(|gens| gens[0].malicious)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(n: usize) -> OverlayConfig {
        OverlayConfig {
            n_nodes: n,
            ..OverlayConfig::default()
        }
    }

    #[test]
    fn build_is_deterministic() {
        let seed = SeedSource::new(7);
        let a = Population::build(&config(64), &seed);
        let b = Population::build(&config(64), &seed);
        assert_eq!(a.generations, b.generations);
    }

    #[test]
    fn exact_malicious_marking() {
        let cfg = OverlayConfig {
            malicious_fraction: 0.25,
            ..config(400)
        };
        let p = Population::build(&cfg, &SeedSource::new(3));
        assert_eq!(p.initial_malicious_count(), 100);
        let g = Genesis::sample(&cfg, &SeedSource::new(3));
        assert_eq!(g.initial_malicious_count(), 100);
    }

    #[test]
    fn churn_generations_are_contiguous() {
        let cfg = OverlayConfig {
            mean_lifetime: Some(500),
            horizon: 20_000,
            ..config(100)
        };
        let p = Population::build(&cfg, &SeedSource::new(5));
        for gens in &p.generations {
            for w in gens.windows(2) {
                assert_eq!(w[0].death, w[1].spawn);
            }
            assert_eq!(gens.last().unwrap().death, SimTime::MAX);
        }
    }

    #[test]
    fn id_index_maps_generation_zero() {
        let p = Population::build(&config(32), &SeedSource::new(9));
        for (slot, gens) in p.generations.iter().enumerate() {
            assert_eq!(p.id_index[&gens[0].id], slot);
        }
    }

    #[test]
    fn lazy_slot_sampling_matches_materialized_population() {
        let cfg = OverlayConfig {
            malicious_fraction: 0.3,
            mean_lifetime: Some(800),
            horizon: 30_000,
            ..config(50)
        };
        let seed = SeedSource::new(11);
        let genesis = Genesis::sample(&cfg, &seed);
        let population = Population::build(&cfg, &seed);
        // Sample out of order and repeatedly: identical timelines.
        for slot in [49usize, 0, 17, 17, 3] {
            assert_eq!(
                genesis.slot_generations(slot),
                population.generations[slot],
                "slot {slot}"
            );
        }
    }

    #[test]
    fn slot_streams_are_independent() {
        let cfg = OverlayConfig {
            mean_lifetime: Some(500),
            horizon: 50_000,
            ..config(20)
        };
        let genesis = Genesis::sample(&cfg, &SeedSource::new(13));
        // Two distinct churny slots must not share a timeline.
        let a = genesis.slot_generations(0);
        let b = genesis.slot_generations(1);
        assert_ne!(
            a.iter().map(|g| g.death).collect::<Vec<_>>(),
            b.iter().map(|g| g.death).collect::<Vec<_>>()
        );
    }

    /// An honest generation over `[0, 10)` followed by an immortal
    /// malicious one over `[10, ∞)`.
    fn two_generations() -> Vec<NodeInfo> {
        vec![
            NodeInfo {
                id: NodeId::from_name(b"a"),
                malicious: false,
                spawn: SimTime::ZERO,
                death: SimTime::from_ticks(10),
            },
            NodeInfo {
                id: NodeId::from_name(b"b"),
                malicious: true,
                spawn: SimTime::from_ticks(10),
                death: SimTime::MAX,
            },
        ]
    }

    #[test]
    fn tenant_helpers_agree_with_timeline() {
        let gens = two_generations();
        assert!(!tenant_at(&gens, SimTime::from_ticks(9)).malicious);
        assert!(tenant_at(&gens, SimTime::from_ticks(10)).malicious);
        // The window [0, 10) ends exactly where generation b spawns: only
        // generation a is exposed.
        assert_eq!(
            exposures_during(&gens, SimTime::ZERO, SimTime::from_ticks(10)),
            1
        );
        assert_eq!(
            exposures_during(&gens, SimTime::ZERO, SimTime::from_ticks(11)),
            2
        );
        assert!(!any_malicious_exposure(
            &gens,
            SimTime::ZERO,
            SimTime::from_ticks(10)
        ));
        assert!(any_malicious_exposure(
            &gens,
            SimTime::ZERO,
            SimTime::from_ticks(11)
        ));
    }

    #[test]
    fn exposure_boundaries_are_half_open_on_both_ends() {
        let gens = two_generations();
        let t10 = SimTime::from_ticks(10);
        // A generation dying exactly at `from` is excluded: at t = 10 the
        // slot already belongs to generation b.
        assert_eq!(exposures_during(&gens, t10, SimTime::from_ticks(20)), 1);
        assert!(any_malicious_exposure(&gens, t10, SimTime::from_ticks(20)));
        // A generation spawning exactly at `to` is excluded, symmetric to
        // the `from` side.
        assert_eq!(exposures_during(&gens, SimTime::from_ticks(5), t10), 1);
        assert!(!any_malicious_exposure(&gens, SimTime::from_ticks(5), t10));
        // Adjacent windows double-count only the straddling generation.
        let split = exposures_during(&gens, SimTime::ZERO, t10)
            + exposures_during(&gens, t10, SimTime::from_ticks(20));
        assert_eq!(
            split,
            exposures_during(&gens, SimTime::ZERO, SimTime::from_ticks(20))
        );
        // An empty window exposes nothing, even mid-tenancy.
        assert_eq!(exposures_during(&gens, t10, t10), 0);
        assert!(!any_malicious_exposure(&gens, t10, t10));
        assert_eq!(first_malicious_exposure(&gens, t10, t10), None);
    }

    #[test]
    fn first_malicious_exposure_clamps_to_window_start() {
        let gens = two_generations();
        // Malicious tenancy starts at 10; a window starting later reports
        // its own start, one starting earlier reports the spawn.
        assert_eq!(
            first_malicious_exposure(&gens, SimTime::from_ticks(15), SimTime::from_ticks(30)),
            Some(SimTime::from_ticks(15))
        );
        assert_eq!(
            first_malicious_exposure(&gens, SimTime::ZERO, SimTime::from_ticks(30)),
            Some(SimTime::from_ticks(10))
        );
        // Window ending exactly at the malicious spawn sees nothing.
        assert_eq!(
            first_malicious_exposure(&gens, SimTime::ZERO, SimTime::from_ticks(10)),
            None
        );
    }

    #[test]
    fn tenant_at_covers_the_immortal_tail_and_time_max() {
        let gens = two_generations();
        assert_eq!(tenant_at(&gens, SimTime::MAX).id, gens[1].id);
        assert_eq!(
            tenant_at(&gens, SimTime::from_ticks(1_000_000)).id,
            gens[1].id
        );
    }

    #[test]
    #[should_panic(expected = "no generation occupies the slot")]
    fn tenant_at_rejects_gaps_before_the_final_generation() {
        // A non-contiguous, hand-built timeline: nobody occupies [0, 10).
        let gens = vec![NodeInfo {
            id: NodeId::from_name(b"late"),
            malicious: false,
            spawn: SimTime::from_ticks(10),
            death: SimTime::MAX,
        }];
        let _ = tenant_at(&gens, SimTime::from_ticks(5));
    }

    #[test]
    fn genesis_timelines_have_a_tenant_at_every_instant() {
        let cfg = OverlayConfig {
            mean_lifetime: Some(300),
            horizon: 10_000,
            ..config(30)
        };
        let genesis = Genesis::sample(&cfg, &SeedSource::new(21));
        for slot in 0..30 {
            let gens = genesis.slot_generations(slot);
            for t in [0u64, 1, 299, 300, 9_999, 10_000, 50_000] {
                let tenant = tenant_at(&gens, SimTime::from_ticks(t));
                assert!(
                    tenant.spawn <= SimTime::from_ticks(t),
                    "tenant from the future at t={t}"
                );
            }
        }
    }
}
