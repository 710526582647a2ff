//! The fault plane applied at the substrate boundary.
//!
//! [`FaultySubstrate`] wraps any [`HolderSubstrate`] and injects a seeded
//! [`FaultPlan`] at the trait surface — ghost tenants for disrupted
//! holder contacts, hedged redirects for outages and churn storms, lost
//! stores on crashed slots, retried/hedged/tamper-checked lookups — while
//! delegating everything else verbatim. With an empty plan every hook is
//! a single branch and the wrapper is observationally identical to the
//! bare substrate (pinned by test), so the golden fingerprints, the
//! zero-allocation gate and the perf floor are untouched.
//!
//! The fault-aware Monte-Carlo runner runs the same per-trial body as
//! [`crate::montecarlo::run_protocol_trial_range`]: each trial arms the
//! plan against its own world seed (a pure function of the global trial
//! index), so sharded runs merge bit-identically to serial runs **under
//! faults** — the property `tests/sharded_montecarlo.rs` pins. Outcomes
//! land in [`FaultyMcResults`], the protocol instance of the shared
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
use emerge_sim::shard::TrialDigest;
use emerge_sim::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::RngCore;

/// Size of the ghost-tenant pool. A hop disrupted at both its arrival and
/// departure instants fakes survival only when both contacts hash to the
/// same ghost — probability `1/GHOST_POOL` per doubly-disrupted hop, a
/// documented artifact of modelling crashes without mutating the
/// underlying population.
const GHOST_POOL: usize = 64;

/// A substrate wrapper that injects an armed fault plan at the
/// [`HolderSubstrate`] boundary and recovers through the configured
/// [`RecoveryPolicy`].
///
/// Fault semantics per trait method:
///
/// * `generation_at` — a disrupted `(slot, t)` contact observes a *ghost
///   tenant*: a benign `NodeInfo` with a far-future spawn no real tenant
///   shares. Executors comparing spawn identities across arrival and
///   departure therefore see the hop as lost; exposure predicates are
///   **not** rerouted through ghosts (delegated to the inner substrate
///   unchanged), so injected loss never masquerades as a confidentiality
///   change.
/// * `resolve_holder` — churn storms redirect resolution to a
///   deterministic neighbour; outages hedge across
///   `closest_slots(fanout)` to the nearest reachable slot.
/// * `store` — a value offered to an unreachable (crashed / outaged) slot
///   is lost: no slot accepts it, and later lookups miss naturally.
/// * `find_value` — bounded retry with deterministic backoff, per-attempt
///   timeouts under slow-node latency inflation, hedged replica recovery
///   when the primary is unreachable, and tamper injection on fetched
///   bytes (authenticated decryption downstream rejects the forgery). A
///   churned address aims the lookup at a neighbour that never held the
///   value; only a hedge wider than the primary (`fanout >= 2`) walks
///   back onto the pre-storm holder, so brittle policies lose the value.
#[derive(Debug)]
pub struct FaultySubstrate<S> {
    inner: S,
    injector: FaultInjector,
    policy: RecoveryPolicy,
    ghosts: Vec<NodeInfo>,
}

impl<S: HolderSubstrate> FaultySubstrate<S> {
    /// Wraps `inner` with an armed injector and a recovery policy.
    pub fn new(inner: S, injector: FaultInjector, policy: RecoveryPolicy) -> Self {
        let ghosts = (0..GHOST_POOL)
            .map(|i| NodeInfo {
                id: NodeId::from_name(format!("fault-ghost-{i}").as_bytes()),
                malicious: false,
                spawn: SimTime::from_ticks(u64::MAX - GHOST_POOL as u64 + i as u64),
                death: SimTime::MAX,
            })
            .collect();
        FaultySubstrate {
            inner,
            injector,
            policy,
            ghosts,
        }
    }

    /// The wrapped substrate.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The armed injector (for statistics snapshots).
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// What the injector did so far in this trial.
    pub fn fault_stats(&self) -> FaultStats {
        self.injector.stats()
    }

    /// Unwraps back into the inner substrate.
    pub fn into_inner(self) -> S {
        self.inner
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
        let slot = self.inner.resolve_holder(target);
        if self.injector.is_empty() {
            return slot;
        }
        let t = self.inner.now();
        if let Some(offset) = self.injector.churn_redirect(slot, t, self.inner.n_nodes()) {
            return (slot + offset) % self.inner.n_nodes();
        }
        if self.injector.unreachable_at(slot, t) {
            self.injector.note_disruption();
            for alt in self.inner.closest_slots(target, self.policy.hedge.fanout) {
                if alt != slot && !self.injector.unreachable_at(alt, t) {
                    self.injector.note_recovery();
                    self.injector.note_redirect();
                    return alt;
                }
            }
        }
        slot
    }

    fn closest_slots(&self, target: &NodeId, count: usize) -> Vec<usize> {
        self.inner.closest_slots(target, count)
    }

    fn generations(&self, slot: usize) -> &[NodeInfo] {
        self.inner.generations(slot)
    }

    fn generation_at(&self, slot: usize, t: SimTime) -> &NodeInfo {
        if self.injector.is_empty() {
            return self.inner.generation_at(slot, t);
        }
        if self.injector.holder_disrupted(slot, t) {
            let idx = self.injector.ghost_index(slot, t, self.ghosts.len());
            return &self.ghosts[idx];
        }
        self.inner.generation_at(slot, t)
    }

    // The exposure predicates delegate to the *inner* substrate (which may
    // override the trait defaults, e.g. the analytic world) rather than rerouting
    // through faulted `generation_at`: injected loss models availability,
    // not confidentiality, so it must never grant or revoke an adversary
    // exposure.
    fn any_malicious_exposure(&self, slot: usize, from: SimTime, to: SimTime) -> bool {
        self.inner.any_malicious_exposure(slot, from, to)
    }

    fn first_malicious_exposure(&self, slot: usize, from: SimTime, to: SimTime) -> Option<SimTime> {
        self.inner.first_malicious_exposure(slot, from, to)
    }

    fn exposures_during(&self, slot: usize, from: SimTime, to: SimTime) -> usize {
        self.inner.exposures_during(slot, from, to)
    }

    fn sample_distinct_slots(&self, count: usize, rng: &mut StdRng) -> Vec<usize> {
        self.inner.sample_distinct_slots(count, rng)
    }

    fn store(&mut self, key: NodeId, value: Vec<u8>, ttl: Option<SimDuration>) -> Vec<usize> {
        if self.injector.is_empty() {
            return self.inner.store(key, value, ttl);
        }
        let t = self.inner.now();
        let slot = self.inner.resolve_holder(&key);
        if self.injector.unreachable_at(slot, t) {
            // Crash with state loss: no slot accepts the value.
            self.injector.note_disruption();
            return Vec::new();
        }
        self.inner.store(key, value, ttl)
    }

    fn find_value(&mut self, key: NodeId) -> Option<Vec<u8>> {
        if self.injector.is_empty() {
            return self.inner.find_value(key);
        }
        let t = self.inner.now();
        let key_hash = hash_key(&key);
        let slot = self.inner.resolve_holder(&key);
        if self
            .injector
            .churn_redirect(slot, t, self.inner.n_nodes())
            .is_some()
        {
            // The storm reshuffled the address: the querier's primary
            // contact is now a neighbour that never held the value. The
            // stored copy survives on the pre-storm holder, so only a
            // hedge wider than the primary walks back onto it. The
            // reshuffle is window-stable per slot, so retries cannot help
            // and the miss is final.
            self.injector.note_disruption();
            if self.policy.hedge.fanout < 2 || self.injector.unreachable_at(slot, t) {
                return None;
            }
            self.injector.note_recovery();
        }
        for attempt in 0..self.policy.retry.attempts() {
            if attempt > 0 {
                self.injector
                    .note_retry(self.policy.retry.backoff_ticks(attempt));
            }
            if self.injector.unreachable_at(slot, t) {
                self.injector.note_disruption();
                // Hedge: a replica on a nearby reachable slot may still
                // serve the value.
                let rescued = self
                    .inner
                    .closest_slots(&key, self.policy.hedge.fanout)
                    .into_iter()
                    .any(|alt| alt != slot && !self.injector.unreachable_at(alt, t));
                if !rescued {
                    continue;
                }
                self.injector.note_recovery();
            }
            if self.injector.lookup_attempt_lost(key_hash, attempt, t) {
                self.injector.note_disruption();
                continue;
            }
            let extra = self.injector.extra_latency(slot, t);
            if extra > 0 {
                self.injector.note_latency(extra);
                if extra > self.policy.timeout.per_attempt_ticks {
                    self.injector.note_timeout();
                    continue;
                }
            }
            let mut value = self.inner.find_value(key)?;
            if let Some(selector) = self.injector.tamper_selector(key_hash, t) {
                if !value.is_empty() {
                    let pos = (selector as usize) % value.len();
                    // Guaranteed-nonzero flip mask: the value always changes.
                    value[pos] ^= ((selector >> 32) as u8) | 1;
                }
            }
            if attempt > 0 {
                // A value produced on a retry recovered from a real loss;
                // plain first-try successes stay silent.
                self.injector.note_recovery();
            }
            return Some(value);
        }
        None
    }
}

/// FNV-1a of a node ID, the key identity fault decisions hash on.
fn hash_key(key: &NodeId) -> u64 {
    let mut d = TrialDigest::new();
    d.eat(key.as_bytes());
    d.finish()
}

/// Aggregated outcomes of a fault-plane wire-protocol batch: the plain
/// protocol results as measured under the plan, plus the fault-outcome
/// taxonomy.
pub type FaultyMcResults = FaultyResults<ProtocolMcResults>;

/// Runs `trials` wire-protocol trials under `plan`, deterministically
/// from `seed`. Equivalent to [`run_faulted_trial_range`] over
/// `[0, trials)`.
///
/// # Errors
///
/// Propagates construction failures, e.g.
/// [`EmergeError::InsufficientNodes`] when the structure does not fit the
/// factory's worlds.
pub fn run_faulted_trials<S, F>(
    spec: &ProtocolTrialSpec,
    plan: &FaultPlan,
    policy: RecoveryPolicy,
    trials: usize,
    seed: u64,
    substrate_factory: F,
) -> Result<FaultyMcResults, EmergeError>
where
    S: HolderSubstrate,
    F: FnMut(u64) -> S,
{
    run_faulted_trial_range(spec, plan, policy, 0, trials, seed, substrate_factory)
}

/// Runs the contiguous trial range `[first_trial, first_trial + count)`
/// of a fault-plane Monte-Carlo batch.
///
/// Each trial draws its world seed from the same per-index stream as
/// [`crate::montecarlo::run_protocol_trial_range`] and arms `plan`
/// against it, so the injected fault stream is a pure function of the
/// global trial index: range runs merge bit-identically to serial runs
/// (both fingerprints), and an empty plan reproduces the plain runner's
/// results exactly.
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
    policy: RecoveryPolicy,
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
        let mut substrate = FaultySubstrate::new(inner, plan.arm(world_seed), policy);
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
    use crate::montecarlo::run_protocol_trials;
    use crate::protocol::AttackMode;
    use crate::substrate::{AnalyticSubstrate, OverlayConfig};
    use emerge_faults::{FaultEvent, FaultKind, Scenario, PPM_SCALE};

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

    #[test]
    fn empty_plan_reproduces_the_plain_runner_bit_for_bit() {
        let spec = share_spec();
        let factory = |s| AnalyticSubstrate::build(world(150, 0.3), s);
        let plain = run_protocol_trials(&spec, 12, 5, factory).unwrap();
        let faulted = run_faulted_trials(
            &spec,
            &FaultPlan::none(),
            RecoveryPolicy::default(),
            12,
            5,
            factory,
        )
        .unwrap();
        assert_eq!(plain.fingerprint, faulted.base.fingerprint);
        assert_eq!(plain.released, faulted.base.released);
        assert_eq!(plain.clean, faulted.base.clean);
        assert_eq!(faulted.disrupted.successes(), 0);
        assert_eq!(faulted.degraded.successes(), 0);
        assert_eq!(
            faulted.clean_of_faults.successes(),
            plain.released.successes()
        );
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let spec = share_spec();
        let plan = Scenario::CrashStorm.plan(150_000, 4_000, 0xFA);
        let run = || {
            run_faulted_trials(&spec, &plan, RecoveryPolicy::default(), 10, 7, |s| {
                AnalyticSubstrate::build(world(150, 0.3), s)
            })
            .unwrap()
        };
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
        let r = run_faulted_trials(&spec, &blackout, RecoveryPolicy::default(), 6, 2, |s| {
            AnalyticSubstrate::build(world(150, 0.0), s)
        })
        .unwrap();
        assert_eq!(
            r.base.released.successes(),
            0,
            "blackout must block release"
        );
        assert_eq!(r.disrupted.successes(), 6);

        // A mild loss burst on a benign world: most trials still release,
        // and the ones that saw faults count as degraded, not clean.
        let mild = Scenario::LossBurst.plan(60_000, 4_000, 2);
        let r = run_faulted_trials(&spec, &mild, RecoveryPolicy::default(), 20, 2, |s| {
            AnalyticSubstrate::build(world(150, 0.0), s)
        })
        .unwrap();
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
    fn tampered_lookup_is_rejected_not_misrouted() {
        // Tampering every fetched value must never yield a bogus release:
        // authenticated decryption rejects the forgeries.
        let spec = share_spec();
        let tamper = FaultPlan::new(
            3,
            vec![FaultEvent {
                from: SimTime::ZERO,
                to: SimTime::MAX,
                kind: FaultKind::Tamper {
                    tamper_ppm: PPM_SCALE,
                },
            }],
        );
        let r = run_faulted_trials(&spec, &tamper, RecoveryPolicy::default(), 6, 4, |s| {
            AnalyticSubstrate::build(world(150, 0.0), s)
        })
        .unwrap();
        assert_eq!(r.base.reconstructed_early.successes(), 0);
        // Tampering may or may not block release depending on which
        // lookups the executor performs, but any release that did happen
        // must carry the *correct* secret — guaranteed by the fingerprint
        // being a pure function of the seeds.
        let again = run_faulted_trials(&spec, &tamper, RecoveryPolicy::default(), 6, 4, |s| {
            AnalyticSubstrate::build(world(150, 0.0), s)
        })
        .unwrap();
        assert_eq!(r.base.released.successes(), again.base.released.successes());
    }

    #[test]
    fn ghost_tenants_do_not_grant_confidentiality_exposures() {
        // A crash storm on an adversary-free world must never produce an
        // early reconstruction: ghosts are benign and exposure predicates
        // bypass the fault plane.
        let spec = share_spec();
        let plan = Scenario::CrashStorm.plan(400_000, 4_000, 9);
        let r = run_faulted_trials(&spec, &plan, RecoveryPolicy::default(), 15, 6, |s| {
            AnalyticSubstrate::build(world(150, 0.0), s)
        })
        .unwrap();
        assert_eq!(r.base.reconstructed_early.successes(), 0);
        assert!(r.disrupted.successes() > 0, "storm must actually disrupt");
    }

    #[test]
    fn brittle_policy_fares_no_better_than_recovering_policy() {
        let spec = share_spec();
        let plan = Scenario::CorrelatedOutage.plan(250_000, 4_000, 4);
        let factory = |s| AnalyticSubstrate::build(world(150, 0.0), s);
        let robust =
            run_faulted_trials(&spec, &plan, RecoveryPolicy::default(), 25, 8, factory).unwrap();
        let brittle =
            run_faulted_trials(&spec, &plan, RecoveryPolicy::brittle(), 25, 8, factory).unwrap();
        assert!(
            robust.base.released.successes() >= brittle.base.released.successes(),
            "recovery must not hurt: robust {} vs brittle {}",
            robust.base.released.successes(),
            brittle.base.released.successes()
        );
    }
}
