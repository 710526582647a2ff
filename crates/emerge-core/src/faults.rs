//! The fault plane applied at the substrate boundary.
//!
//! [`FaultySubstrate`] wraps any [`HolderSubstrate`] and injects a seeded
//! [`FaultPlan`] at the trait surface — ghost tenants for disrupted
//! holder contacts, through the one method it overrides beyond the five
//! required delegations, `generation_at`. Faults act only at hand-off
//! contacts: holder placement (path construction) resolves exactly as on
//! the bare world, and the exposure predicates, trait defaults over the
//! inner world's `generations`, see no fault. With an empty plan the hook
//! is a single branch and the wrapper neither allocates nor changes an
//! answer, so the golden fingerprints and the zero-allocation gate hold.
//!
//! [`run_faulted_trial_range`] is the factory trial loop of the wire
//! protocol: [`crate::montecarlo::run_protocol_trial_range`] is this loop
//! under [`FaultPlan::none`]. Each trial arms the plan against its own
//! world seed (a pure function of the global trial index), so sharded
//! runs merge bit-identically to serial runs **under faults** — the
//! property `tests/sharded_montecarlo.rs` pins. Outcomes land in
//! [`FaultyMcResults`], the protocol instance of the shared
//! clean/degraded/failed taxonomy ([`emerge_faults::outcome`]).

use crate::error::EmergeError;
use crate::montecarlo::{
    run_trial, ProtocolMcResults, ProtocolTrialSpec, TrialWorkspace, SPAN_WORLD_REBUILD,
};
use crate::substrate::HolderSubstrate;
use emerge_dht::id::NodeId;
use emerge_dht::population::NodeInfo;
use emerge_faults::{FaultInjector, FaultPlan, FaultStats, FaultyResults, RecoveryPolicy};
use emerge_obs::trace::span;
use emerge_sim::rng::SeedSource;
use emerge_sim::time::SimTime;
use rand::RngCore;
use std::sync::OnceLock;

/// Size of the ghost-tenant pool. A hop disrupted at both its arrival and
/// departure instants fakes survival only when both contacts hash to the
/// same ghost — probability `1/GHOST_POOL` per doubly-disrupted hop, a
/// documented artifact of modelling crashes without mutating the
/// underlying population.
const GHOST_POOL: usize = 64;

/// The ghost tenants, built once per process on the first disrupted
/// contact: benign, never dying, and spawned in the far future, where no
/// real tenant's spawn lies.
fn ghosts() -> &'static [NodeInfo] {
    static GHOSTS: OnceLock<Vec<NodeInfo>> = OnceLock::new();
    GHOSTS.get_or_init(|| {
        (0..GHOST_POOL)
            .map(|i| NodeInfo {
                id: NodeId::from_name(format!("fault-ghost-{i}").as_bytes()),
                malicious: false,
                spawn: SimTime::from_ticks(u64::MAX - GHOST_POOL as u64 + i as u64),
                death: SimTime::MAX,
            })
            .collect()
    })
}

/// A substrate wrapper that injects an armed fault plan at the
/// [`HolderSubstrate`] boundary.
///
/// Only `generation_at` is faulted: a disrupted `(slot, t)` contact
/// observes a *ghost tenant*, a benign `NodeInfo` with a far-future spawn
/// no real tenant shares. Executors comparing spawn identities across
/// arrival and departure therefore see the hop as lost. The required
/// methods delegate to the inner substrate unchanged: holder resolution,
/// so placement is fault-free, and `generations`, which the exposure
/// predicates read instead of `generation_at`, so injected loss never
/// masquerades as a confidentiality change.
#[derive(Debug)]
pub struct FaultySubstrate<S> {
    inner: S,
    injector: FaultInjector,
}

impl<S: HolderSubstrate> FaultySubstrate<S> {
    /// Wraps `inner` with an armed injector. Allocates nothing. Nothing
    /// reads `_policy`; the argument stays so that existing callers keep
    /// compiling.
    pub fn new(inner: S, injector: FaultInjector, _policy: RecoveryPolicy) -> Self {
        FaultySubstrate { inner, injector }
    }

    /// What the injector did so far in this trial.
    pub fn fault_stats(&self) -> FaultStats {
        self.injector.stats()
    }
}

impl<S: HolderSubstrate> HolderSubstrate for FaultySubstrate<S> {
    fn n_nodes(&self) -> usize {
        self.inner.n_nodes()
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn advance_to(&mut self, t: SimTime) {
        self.inner.advance_to(t);
    }

    fn resolve_holder(&self, target: &NodeId) -> usize {
        self.inner.resolve_holder(target)
    }

    fn generations(&self, slot: usize) -> &[NodeInfo] {
        self.inner.generations(slot)
    }

    fn generation_at(&self, slot: usize, t: SimTime) -> &NodeInfo {
        if self.injector.is_empty() {
            return self.inner.generation_at(slot, t);
        }
        if self.injector.holder_disrupted(slot, t) {
            return &ghosts()[self.injector.ghost_index(slot, t, GHOST_POOL)];
        }
        self.inner.generation_at(slot, t)
    }
}

/// Aggregated outcomes of a fault-plane wire-protocol batch: the plain
/// protocol results as measured under the plan, plus the fault-outcome
/// taxonomy.
pub type FaultyMcResults = FaultyResults<ProtocolMcResults>;

/// Runs the contiguous trial range `[first_trial, first_trial + count)`
/// of a fault-plane Monte-Carlo batch.
///
/// Each trial draws its world seed from its own
/// `SeedSource::stream_n("protocol-trial", trial_idx)` stream and arms
/// `plan` against it, so the injected fault stream is a pure function of
/// the global trial index: range runs merge bit-identically to serial
/// runs (both fingerprints). Under an empty plan this is the plain wire
/// protocol run, [`crate::montecarlo::run_protocol_trial_range`]. Nothing
/// reads `_policy`; the argument stays so that existing callers keep
/// compiling.
///
/// # Errors
///
/// Propagates construction failures, e.g.
/// [`EmergeError::InsufficientNodes`] when the structure does not fit the
/// factory's worlds.
#[allow(clippy::too_many_arguments)]
pub fn run_faulted_trial_range<S, F>(
    spec: &ProtocolTrialSpec,
    plan: &FaultPlan,
    _policy: RecoveryPolicy,
    first_trial: usize,
    count: usize,
    seed: u64,
    mut substrate_factory: F,
) -> Result<FaultyMcResults, EmergeError>
where
    S: HolderSubstrate,
    F: FnMut(u64) -> S,
{
    spec.params.validate()?;
    let seeds = SeedSource::new(seed);
    let mut ws = TrialWorkspace::new();
    let mut results = FaultyMcResults::default();
    for trial_idx in first_trial..first_trial + count {
        let mut trial_rng = seeds.stream_n("protocol-trial", trial_idx as u64);
        let world_seed = trial_rng.next_u64();
        let inner = {
            let _phase = span(&SPAN_WORLD_REBUILD);
            substrate_factory(world_seed)
        };
        let mut substrate =
            FaultySubstrate::new(inner, plan.arm(world_seed), RecoveryPolicy::default());
        run_trial(
            spec,
            &mut substrate,
            &mut trial_rng,
            trial_idx,
            &mut ws,
            &mut results.base,
        )?;
        let released = ws.report.released_at.is_some();
        results.record(trial_idx, released, &substrate.fault_stats(), plan);
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchemeParams;
    use crate::path::construct_paths;
    use crate::protocol::AttackMode;
    use crate::substrate::{AnalyticSubstrate, OverlayConfig};
    use emerge_crypto::keys::SymmetricKey;
    use emerge_faults::{FaultEvent, FaultKind, Scenario};
    use emerge_sim::time::SimDuration;

    fn world(n: usize, p: f64) -> OverlayConfig {
        OverlayConfig {
            n_nodes: n,
            malicious_fraction: p,
            mean_lifetime: Some(10_000),
            horizon: 100_000,
        }
    }

    fn share_spec() -> ProtocolTrialSpec {
        ProtocolTrialSpec {
            params: SchemeParams::Share {
                k: 2,
                l: 3,
                n: 6,
                m: vec![3, 3],
            },
            emerging_period: SimDuration::from_ticks(3_000),
            attack: AttackMode::ReleaseAhead,
        }
    }

    /// `trials` trials of `spec` under `plan` from index 0, on `cfg` worlds.
    fn faulted(
        spec: &ProtocolTrialSpec,
        plan: &FaultPlan,
        trials: usize,
        seed: u64,
        cfg: OverlayConfig,
    ) -> FaultyMcResults {
        run_faulted_trial_range(
            spec,
            plan,
            RecoveryPolicy::default(),
            0,
            trials,
            seed,
            |s| AnalyticSubstrate::build(cfg, s),
        )
        .unwrap()
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let spec = share_spec();
        let plan = Scenario::CrashStorm.plan(150_000, 4_000, 0xFA);
        let run = || faulted(&spec, &plan, 10, 7, world(150, 0.3));
        let (a, b) = (run(), run());
        assert_eq!(a.base.fingerprint, b.base.fingerprint);
        assert_eq!(a.fault_fingerprint, b.fault_fingerprint);
        assert_eq!(a.degraded, b.degraded);
    }

    #[test]
    fn total_outage_suppresses_release_and_recovery_restores_it() {
        // Every slot out for the whole horizon: nothing can emerge, and
        // every trial is disrupted.
        let spec = share_spec();
        let blackout = FaultPlan::new(
            1,
            vec![FaultEvent {
                from: SimTime::ZERO,
                to: SimTime::MAX,
                kind: FaultKind::SlotOutage {
                    modulus: 1,
                    residue: 0,
                },
            }],
        );
        let r = faulted(&spec, &blackout, 6, 2, world(150, 0.0));
        assert_eq!(
            r.base.released.successes(),
            0,
            "blackout must block release"
        );
        assert_eq!(r.disrupted.successes(), 6);

        // A mild loss burst on a benign world: most trials still release,
        // and the ones that saw faults count as degraded, not clean.
        let mild = Scenario::LossBurst.plan(60_000, 4_000, 2);
        let r = faulted(&spec, &mild, 20, 2, world(150, 0.0));
        assert!(
            r.base.released.value() > 0.5,
            "mild loss must not collapse release: {}",
            r.base.released.value()
        );
        assert_eq!(
            r.degraded.successes() + r.clean_of_faults.successes(),
            r.base.released.successes(),
            "every release is exactly one of degraded or clean-of-faults"
        );
    }

    #[test]
    fn ghost_tenants_do_not_grant_confidentiality_exposures() {
        // A crash storm on an adversary-free world must never produce an
        // early reconstruction: ghosts are benign and exposure predicates
        // bypass the fault plane.
        let spec = share_spec();
        let plan = Scenario::CrashStorm.plan(400_000, 4_000, 9);
        let r = faulted(&spec, &plan, 15, 6, world(150, 0.0));
        assert_eq!(r.base.reconstructed_early.successes(), 0);
        assert!(r.disrupted.successes() > 0, "storm must actually disrupt");
    }

    #[test]
    fn holder_placement_is_fault_free() {
        // An outage and a churn storm open over the whole timeline, path
        // construction included: holders must still resolve exactly as on
        // the bare world, and placement counts no fault.
        let window = |kind| FaultEvent {
            from: SimTime::ZERO,
            to: SimTime::MAX,
            kind,
        };
        let plan = FaultPlan::new(
            5,
            vec![
                window(FaultKind::SlotOutage {
                    modulus: 2,
                    residue: 0,
                }),
                window(FaultKind::ChurnStorm { churn_ppm: 200_000 }),
            ],
        );
        let params = share_spec().params;
        let key = SymmetricKey::from_bytes([7; 32]);
        for seed in 0..4 {
            let bare = AnalyticSubstrate::build(world(150, 0.3), seed);
            let faulty = FaultySubstrate::new(
                AnalyticSubstrate::build(world(150, 0.3), seed),
                plan.arm(seed),
                RecoveryPolicy::default(),
            );
            assert_eq!(
                construct_paths(&faulty, &params, &key).unwrap(),
                construct_paths(&bare, &params, &key).unwrap(),
                "world {seed}"
            );
            assert_eq!(faulty.fault_stats(), FaultStats::default());
        }
    }
}
