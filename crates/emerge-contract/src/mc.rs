//! Monte-Carlo evaluation of the bonded release, with mergeable results.
//!
//! Mirrors the sharded wire-protocol engine in `emerge-core`: every trial
//! draws from its own `SeedSource::stream_n("bonded-trial", idx)` stream
//! keyed by the **global** trial index, results carry exact-merging
//! counters plus a trial-index-keyed fingerprint combined by wrapping
//! addition, and a contiguous range run is therefore bit-identical to the
//! same trials inside a serial batch. [`emerge_sim::shard::run_sharded`]
//! runs disjoint ranges on worker threads and merges the partials — the
//! sharded Monte-Carlo guarantee extends to the contract-native emergence
//! mode unchanged.

use crate::error::ContractError;
use crate::release::{run_bonded_release, run_bonded_release_faulted, BondedReport, BondedSpec};
use crate::substrate::ContractSubstrate;
use emerge_faults::{FaultPlan, FaultyResults};
use emerge_obs::trace::{span, SpanId};
use emerge_sim::metrics::{Rate, Summary};
use emerge_sim::rng::SeedSource;
use emerge_sim::shard::{Merge, TrialDigest};
use rand::RngCore;

/// Span over the per-trial substrate world build.
static SPAN_WORLD_REBUILD: SpanId = SpanId::new("trial.world_rebuild");
/// Span over one bonded-release run (register → commit → reveal →
/// finalize → claim against the block clock).
static SPAN_BONDED_RELEASE: SpanId = SpanId::new("trial.bonded_release");

/// Aggregated outcomes of a batch of bonded-release trials.
#[derive(Debug, Clone, Default)]
pub struct BondedMcResults {
    /// Fraction of trials where the secret was released at all.
    pub released: Rate,
    /// Fraction of trials with a clean emergence: released, never leaked
    /// before `tr`.
    pub clean: Rate,
    /// Fraction of trials where `m` shares were public before `tr`
    /// (the early-reveal-leak predicate).
    pub leaked_early: Rate,
    /// Fraction of trials starved below the reveal quorum
    /// (the withheld-quorum predicate).
    pub withheld_quorum: Rate,
    /// Bond value slashed per trial.
    pub slashed: Summary,
    /// Trial-index-keyed digest of every trial's slots and report,
    /// combined by wrapping addition (associative and commutative), so
    /// merging shard digests over disjoint trial ranges reproduces the
    /// serial digest bit for bit. An empty batch digests to 0.
    pub fingerprint: u64,
}

impl BondedMcResults {
    /// Merges the results of a disjoint batch of trials into this one.
    /// Counter-valued fields and the fingerprint merge exactly; the
    /// floating-point moments of `slashed` merge via parallel Welford.
    pub fn merge(&mut self, other: &BondedMcResults) {
        self.released.merge(&other.released);
        self.clean.merge(&other.clean);
        self.leaked_early.merge(&other.leaked_early);
        self.withheld_quorum.merge(&other.withheld_quorum);
        self.slashed.merge(&other.slashed);
        self.fingerprint = self.fingerprint.wrapping_add(other.fingerprint);
    }
}

impl Merge for BondedMcResults {
    fn merge(&mut self, other: &Self) {
        BondedMcResults::merge(self, other);
    }
}

/// Runs the contiguous trial range `[first_trial, first_trial + count)`
/// of a bonded-release Monte-Carlo batch, building a fresh substrate
/// world per trial via `substrate_factory` (which receives the trial's
/// world seed).
///
/// # Errors
///
/// Propagates the first trial failure (invalid spec, contract errors).
pub fn run_bonded_trial_range<F>(
    spec: &BondedSpec,
    first_trial: usize,
    count: usize,
    seed: u64,
    mut substrate_factory: F,
) -> Result<BondedMcResults, ContractError>
where
    F: FnMut(u64) -> ContractSubstrate,
{
    let seeds = SeedSource::new(seed);
    let mut results = BondedMcResults::default();
    for trial_idx in first_trial..first_trial + count {
        let mut trial_rng = seeds.stream_n("bonded-trial", trial_idx as u64);
        let world_seed = trial_rng.next_u64();
        let mut substrate = {
            let _phase = span(&SPAN_WORLD_REBUILD);
            substrate_factory(world_seed)
        };
        let mut secret = [0u8; 32];
        trial_rng.fill_bytes(&mut secret);

        let report = {
            let _phase = span(&SPAN_BONDED_RELEASE);
            run_bonded_release(&mut substrate, spec, &secret, &mut trial_rng)?
        };
        record_bonded_trial(&mut results, trial_idx, &report);
    }
    Ok(results)
}

/// Runs `trials` bonded-release trials, deterministically from `seed`.
/// Equivalent to [`run_bonded_trial_range`] over `[0, trials)`.
///
/// # Errors
///
/// See [`run_bonded_trial_range`].
pub fn run_bonded_trials<F>(
    spec: &BondedSpec,
    trials: usize,
    seed: u64,
    substrate_factory: F,
) -> Result<BondedMcResults, ContractError>
where
    F: FnMut(u64) -> ContractSubstrate,
{
    run_bonded_trial_range(spec, 0, trials, seed, substrate_factory)
}

/// Runs the contiguous trial range `[first_trial, first_trial + count)`
/// of a bonded-release batch under `plan`. Each trial arms the plan
/// against its own world seed — the same per-index stream as
/// [`run_bonded_trial_range`] — so an empty plan reproduces the plain
/// runner bit for bit and sharded runs merge exactly to serial ones.
/// Outcomes land in the shared fault taxonomy ([`FaultyResults`]):
/// crashes become slashing withholds, block-clock skew can push reveals
/// out of their window.
///
/// # Errors
///
/// Propagates the first trial failure (invalid spec, contract errors).
pub fn run_bonded_trial_range_faulted<F>(
    spec: &BondedSpec,
    plan: &FaultPlan,
    first_trial: usize,
    count: usize,
    seed: u64,
    mut substrate_factory: F,
) -> Result<FaultyResults<BondedMcResults>, ContractError>
where
    F: FnMut(u64) -> ContractSubstrate,
{
    let seeds = SeedSource::new(seed);
    let mut results = FaultyResults::<BondedMcResults>::default();
    for trial_idx in first_trial..first_trial + count {
        let mut trial_rng = seeds.stream_n("bonded-trial", trial_idx as u64);
        let world_seed = trial_rng.next_u64();
        let mut substrate = {
            let _phase = span(&SPAN_WORLD_REBUILD);
            substrate_factory(world_seed)
        };
        let mut secret = [0u8; 32];
        trial_rng.fill_bytes(&mut secret);

        let injector = plan.arm(world_seed);
        let report = {
            let _phase = span(&SPAN_BONDED_RELEASE);
            run_bonded_release_faulted(&mut substrate, spec, &secret, &mut trial_rng, &injector)?
        };
        record_bonded_trial(&mut results.base, trial_idx, &report);
        results.record(
            trial_idx,
            report.released.is_some(),
            &injector.stats(),
            plan,
        );
    }
    Ok(results)
}

/// Folds one completed bonded trial into a result batch.
fn record_bonded_trial(results: &mut BondedMcResults, trial_idx: usize, report: &BondedReport) {
    results.released.record(report.released.is_some());
    results.clean.record(report.clean_emergence());
    results.leaked_early.record(report.early_leak.is_some());
    results.withheld_quorum.record(report.failure.is_some());
    results.slashed.record(report.slashed as f64);
    results.fingerprint = results
        .fingerprint
        .wrapping_add(trial_digest(trial_idx as u64, report));
}

/// Digest of one trial, keyed by its global trial index
/// ([`emerge_sim::shard::TrialDigest`] — the same accumulator the
/// wire-protocol engine uses, so the two engines cannot drift apart).
fn trial_digest(trial_idx: u64, report: &BondedReport) -> u64 {
    let mut d = TrialDigest::new();
    d.eat(&trial_idx.to_le_bytes());
    for &slot in &report.slots {
        d.eat(&(slot as u64).to_le_bytes());
    }
    for field in [&report.released, &report.early_leak] {
        match field {
            Some((at, secret)) => {
                d.eat(&[1]);
                d.eat(&at.ticks().to_le_bytes());
                d.eat(secret);
            }
            None => d.eat(&[0]),
        }
    }
    if let Some(failure) = &report.failure {
        d.eat(failure.to_string().as_bytes());
    }
    for count in [report.on_time, report.early, report.withheld, report.died] {
        d.eat(&(count as u64).to_le_bytes());
    }
    d.eat(&report.slashed.to_le_bytes());
    d.eat(&report.rewards_paid.to_le_bytes());
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::economy::HolderStrategy;
    use crate::substrate::ContractConfig;
    use emerge_dht::overlay::OverlayConfig;
    use emerge_sim::shard::run_sharded;
    use emerge_sim::time::SimDuration;

    fn factory(p: f64) -> impl FnMut(u64) -> ContractSubstrate {
        move |seed| {
            ContractSubstrate::build(
                ContractConfig::over(OverlayConfig {
                    n_nodes: 80,
                    malicious_fraction: p,
                    ..OverlayConfig::default()
                }),
                seed,
            )
        }
    }

    fn spec(strategy: HolderStrategy) -> BondedSpec {
        BondedSpec {
            strategy,
            ..BondedSpec::new(6, 4, SimDuration::from_ticks(1_000))
        }
    }

    #[test]
    fn clean_network_is_always_clean() {
        let r = run_bonded_trials(&spec(HolderStrategy::Compliant), 20, 1, factory(0.0)).unwrap();
        assert_eq!(r.released.value(), 1.0);
        assert_eq!(r.clean.value(), 1.0);
        assert_eq!(r.leaked_early.value(), 0.0);
        assert_eq!(r.withheld_quorum.value(), 0.0);
        assert_eq!(r.slashed.max(), 0.0);
    }

    #[test]
    fn withholders_register_in_the_quorum_predicate() {
        let r =
            run_bonded_trials(&spec(HolderStrategy::AlwaysWithhold), 30, 2, factory(0.5)).unwrap();
        assert!(
            r.withheld_quorum.value() > 0.0,
            "p=0.5 must starve sometimes"
        );
        assert!(r.slashed.mean() > 0.0);
        // Withheld-quorum and released partition the trials.
        assert_eq!(
            r.withheld_quorum.successes() + r.released.successes(),
            r.released.trials()
        );
    }

    #[test]
    fn early_revealers_register_in_the_leak_predicate() {
        let r = run_bonded_trials(
            &spec(HolderStrategy::AlwaysRevealEarly),
            30,
            3,
            factory(0.6),
        )
        .unwrap();
        assert!(r.leaked_early.value() > 0.0);
        assert!(r.clean.value() < 1.0);
    }

    #[test]
    fn ranges_merge_commutatively_and_key_by_index() {
        let spec = spec(HolderStrategy::Compliant);
        let full = run_bonded_trials(&spec, 10, 5, factory(0.3)).unwrap();
        let head = run_bonded_trial_range(&spec, 0, 4, 5, factory(0.3)).unwrap();
        let tail = run_bonded_trial_range(&spec, 4, 6, 5, factory(0.3)).unwrap();
        let mut merged = tail.clone();
        merged.merge(&head);
        assert_eq!(merged.fingerprint, full.fingerprint);
        assert_eq!(merged.released, full.released);
        // Same count of trials run as ranges [0,2) vs [2,4) digests
        // differently: position matters despite commutative combination.
        let a = run_bonded_trial_range(&spec, 0, 2, 5, factory(0.3)).unwrap();
        let b = run_bonded_trial_range(&spec, 2, 2, 5, factory(0.3)).unwrap();
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn empty_batch_is_the_merge_identity() {
        let spec = spec(HolderStrategy::Compliant);
        let empty = run_bonded_trials(&spec, 0, 1, factory(0.0)).unwrap();
        assert_eq!(empty.fingerprint, 0);
        assert_eq!(empty.released.trials(), 0);
        let run = run_bonded_trials(&spec, 5, 1, factory(0.0)).unwrap();
        let mut merged = empty;
        merged.merge(&run);
        assert_eq!(merged.fingerprint, run.fingerprint);
    }

    fn storm(kind: emerge_faults::FaultKind) -> FaultPlan {
        FaultPlan::new(
            77,
            vec![emerge_faults::FaultEvent {
                from: emerge_sim::time::SimTime::ZERO,
                to: emerge_sim::time::SimTime::MAX,
                kind,
            }],
        )
    }

    #[test]
    fn empty_plan_faulted_trials_match_plain_bit_for_bit() {
        let spec = spec(HolderStrategy::AlwaysWithhold);
        let plain = run_bonded_trials(&spec, 12, 9, factory(0.4)).unwrap();
        let faulted =
            run_bonded_trial_range_faulted(&spec, &FaultPlan::none(), 0, 12, 9, factory(0.4))
                .unwrap();
        assert_eq!(faulted.base.fingerprint, plain.fingerprint);
        assert_eq!(faulted.base.released, plain.released);
        assert_eq!(faulted.fault_fingerprint, 0);
        assert_eq!(faulted.disrupted.successes(), 0);
    }

    #[test]
    fn faulted_sharded_matches_serial_bit_for_bit() {
        let spec = spec(HolderStrategy::Compliant);
        let plan = storm(emerge_faults::FaultKind::CrashRestart { crash_ppm: 250_000 });
        let serial = run_bonded_trial_range_faulted(&spec, &plan, 0, 15, 13, factory(0.2)).unwrap();
        for threads in [1usize, 2, 7] {
            let sharded = run_sharded(15, threads, |first, count| {
                run_bonded_trial_range_faulted(&spec, &plan, first, count, 13, factory(0.2))
            })
            .unwrap();
            assert_eq!(
                sharded.base.fingerprint, serial.base.fingerprint,
                "{threads} threads"
            );
            assert_eq!(
                sharded.fault_fingerprint, serial.fault_fingerprint,
                "{threads} threads fault fingerprint"
            );
            assert_eq!(sharded.base.released, serial.base.released);
            assert_eq!(sharded.base.slashed.count(), serial.base.slashed.count());
            assert_eq!(sharded.degraded, serial.degraded);
            assert_eq!(sharded.clean_of_faults, serial.clean_of_faults);
            assert_eq!(sharded.disrupted, serial.disrupted);
            assert_eq!(sharded.disruptions.count(), serial.disruptions.count());
        }
        assert!(
            serial.disrupted.successes() > 0,
            "quarter-intensity crash storm must actually disrupt"
        );
    }

    #[test]
    fn degraded_and_clean_partition_the_released_trials() {
        let spec = spec(HolderStrategy::Compliant);
        let plan = storm(emerge_faults::FaultKind::CrashRestart { crash_ppm: 200_000 });
        let r = run_bonded_trial_range_faulted(&spec, &plan, 0, 40, 31, factory(0.0)).unwrap();
        assert_eq!(
            r.degraded.successes() + r.clean_of_faults.successes(),
            r.base.released.successes(),
            "degraded and clean-of-faults must exactly partition releases"
        );
        assert!(r.degraded.successes() > 0, "some releases must be degraded");
        // Honest world: every slashed bond corresponds to a crash.
        assert!(r.base.slashed.mean() > 0.0);
    }

    #[test]
    fn errors_propagate() {
        let bad = BondedSpec::new(5, 0, SimDuration::from_ticks(100));
        assert!(matches!(
            run_bonded_trials(&bad, 1, 1, factory(0.0)),
            Err(ContractError::InvalidParameters(_))
        ));
    }
}
