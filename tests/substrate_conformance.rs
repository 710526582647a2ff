//! A reusable, trait-level conformance suite for [`HolderSubstrate`]
//! backends, run against the analytic world.
//!
//! Every check goes through the **trait**, not the concrete type. The
//! tenant and exposure predicates (`generation_at`,
//! `any_malicious_exposure`, `first_malicious_exposure`) are trait
//! defaults over `generations`; the suite cross-checks them against the
//! `population` free functions on the same generation timeline and
//! against each other. A further backend (e.g. the planned async/network
//! substrate) gets its conformance test by adding one `#[test]` calling
//! [`suite::run`].

use self_emerging_data::core::substrate::{AnalyticSubstrate, HolderSubstrate, OverlayConfig};
use self_emerging_data::dht::id::NodeId;
use self_emerging_data::dht::population;
use self_emerging_data::sim::time::SimTime;

mod suite {
    use super::*;

    /// Worlds the suite exercises: a churn-free one and a churny,
    /// adversarial one.
    fn configs() -> [OverlayConfig; 2] {
        [
            OverlayConfig {
                n_nodes: 96,
                ..OverlayConfig::default()
            },
            OverlayConfig {
                n_nodes: 96,
                malicious_fraction: 0.3,
                mean_lifetime: Some(4_000),
                horizon: 80_000,
            },
        ]
    }

    /// Runs the full conformance suite against the backend constructed by
    /// `build`. `label` tags assertion messages.
    pub fn run<S, F>(label: &str, build: F)
    where
        S: HolderSubstrate,
        F: Fn(OverlayConfig, u64) -> S,
    {
        for (i, cfg) in configs().into_iter().enumerate() {
            let seed = 40 + i as u64;
            clock_is_monotonic(label, build(cfg, seed));
            resolution_is_consistent(label, &build(cfg, seed), cfg.n_nodes);
            generations_are_coherent(label, &build(cfg, seed));
            default_exposure_methods_match_population_semantics(label, &build(cfg, seed));
            determinism(label, &build, cfg, seed);
        }
    }

    fn clock_is_monotonic<S: HolderSubstrate>(label: &str, mut s: S) {
        assert_eq!(s.now(), SimTime::ZERO, "{label}: fresh substrate at t=0");
        s.advance_to(SimTime::from_ticks(500));
        assert_eq!(s.now(), SimTime::from_ticks(500), "{label}: clock advanced");
        // Advancing to the current instant is a no-op, not a rewind.
        s.advance_to(SimTime::from_ticks(500));
        assert_eq!(s.now(), SimTime::from_ticks(500), "{label}: idempotent");
    }

    fn resolution_is_consistent<S: HolderSubstrate>(label: &str, s: &S, n: usize) {
        assert_eq!(s.n_nodes(), n, "{label}: population size");
        for probe in 0..24 {
            let target = NodeId::from_name(format!("conformance-{probe}").as_bytes());
            assert!(s.resolve_holder(&target) < n, "{label}: slot in range");
        }
        // A slot's own generation-0 ID is at XOR distance zero from
        // itself, so it resolves to that slot.
        for slot in 0..n {
            assert_eq!(
                s.resolve_holder(&s.generations(slot)[0].id),
                slot,
                "{label}: slot {slot} owns its own ID"
            );
        }
    }

    fn generations_are_coherent<S: HolderSubstrate>(label: &str, s: &S) {
        for slot in 0..s.n_nodes() {
            let gens = s.generations(slot);
            assert!(!gens.is_empty(), "{label}: slot {slot} has a timeline");
            assert_eq!(gens[0].spawn, SimTime::ZERO, "{label}: genesis at t=0");
            for w in gens.windows(2) {
                assert_eq!(
                    w[0].death, w[1].spawn,
                    "{label}: slot {slot} timeline contiguous"
                );
            }
            assert_eq!(
                gens.last().unwrap().death,
                SimTime::MAX,
                "{label}: immortal tail"
            );
            // generation_at agrees with the timeline's own tenancy.
            for t in [0u64, 1, 1_999, 2_000, 50_000] {
                let t = SimTime::from_ticks(t);
                let tenant = s.generation_at(slot, t);
                assert_eq!(
                    tenant,
                    population::tenant_at(gens, t),
                    "{label}: tenant at {t}"
                );
            }
        }
    }

    /// The trait's exposure predicates agree with the canonical
    /// `population` helpers on the same timeline.
    fn default_exposure_methods_match_population_semantics<S: HolderSubstrate>(label: &str, s: &S) {
        let windows = [
            (SimTime::ZERO, SimTime::ZERO), // empty window
            (SimTime::ZERO, SimTime::from_ticks(1_000)),
            (SimTime::from_ticks(999), SimTime::from_ticks(4_001)),
            (SimTime::from_ticks(4_000), SimTime::from_ticks(40_000)),
        ];
        for slot in 0..s.n_nodes() {
            let gens = s.generations(slot);
            for (from, to) in windows {
                assert_eq!(
                    s.any_malicious_exposure(slot, from, to),
                    population::any_malicious_exposure(gens, from, to),
                    "{label}: any_malicious_exposure({slot}, {from}, {to})"
                );
                assert_eq!(
                    s.first_malicious_exposure(slot, from, to),
                    population::first_malicious_exposure(gens, from, to),
                    "{label}: first_malicious_exposure({slot}, {from}, {to})"
                );
                // Internal consistency across the two predicates.
                assert_eq!(
                    s.any_malicious_exposure(slot, from, to),
                    s.first_malicious_exposure(slot, from, to).is_some(),
                    "{label}: any ⇔ first.is_some()"
                );
                if s.any_malicious_exposure(slot, from, to) {
                    let first = s.first_malicious_exposure(slot, from, to).unwrap();
                    assert!(
                        from <= first && first < to,
                        "{label}: first exposure inside the half-open window"
                    );
                }
            }
        }
    }

    /// Two builds from the same seed answer every query identically.
    fn determinism<S, F>(label: &str, build: &F, cfg: OverlayConfig, seed: u64)
    where
        S: HolderSubstrate,
        F: Fn(OverlayConfig, u64) -> S,
    {
        let a = build(cfg, seed);
        let b = build(cfg, seed);
        for probe in 0..8 {
            let target = NodeId::from_name(format!("det-{probe}").as_bytes());
            assert_eq!(
                a.resolve_holder(&target),
                b.resolve_holder(&target),
                "{label}: resolution deterministic"
            );
        }
        for slot in 0..cfg.n_nodes {
            assert_eq!(
                a.generations(slot),
                b.generations(slot),
                "{label}: timelines deterministic"
            );
        }
    }
}

#[test]
fn analytic_substrate_conforms() {
    suite::run("analytic", AnalyticSubstrate::build);
}
