//! Figure-scale Monte-Carlo evaluation.
//!
//! Reproduces the paper's experimental setup: "We invoke 10000 DHT node
//! instances and run each experiment 1000 times to take the average. We
//! randomly select 10000·p non-repeated nodes and mark them as malicious.
//! The probability density function of node death follows the exponential
//! distribution."
//!
//! Each trial samples the scheme's holder grid from a population with
//! exactly `⌊p·N⌋` malicious members (drawing distinct population indices,
//! i.e. hypergeometric — this matters at `N = 100` where a structure can
//! consume the whole network), overlays exponential churn timelines, and
//! evaluates the attack predicates from [`crate::adversary`].
//!
//! Time is measured in units of the mean node lifetime `tlife`, so the
//! emerging period is `T = α` and the holding period `th = α / l`
//! (Figure 7 sweeps `α ∈ {1, 2, 3, 5}`).

use crate::adversary::{CentralTrial, HolderTimeline, KeyedTrial, ShareTrial};
use crate::config::SchemeParams;
use crate::error::EmergeError;
use crate::package::{
    build_keyed_packages, build_share_packages_into, KeySchedule, PackageScratch, SharePackages,
};
use crate::path::{construct_paths_into, PathPlan};
use crate::protocol::{
    execute_share_pooled, run_central, run_keyed, AttackMode, PooledRunReport, RunConfig,
    ShareExecScratch,
};
use crate::substrate::HolderSubstrate;
use emerge_crypto::keys::SymmetricKey;
use emerge_obs::trace::{span, SpanId};
use emerge_sim::metrics::{Rate, Summary};
use emerge_sim::rng::SeedSource;
use emerge_sim::shard::{Merge, TrialDigest};
use emerge_sim::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};

/// Span over the per-trial substrate (re)build — `substrate_factory` in
/// the factory loop, `reseed` (e.g. `AnalyticSubstrate::rebuild`) in the
/// in-place one.
pub static SPAN_WORLD_REBUILD: SpanId = SpanId::new("trial.world_rebuild");
/// Span over holder-path construction.
pub static SPAN_PATHS: SpanId = SpanId::new("trial.paths");
/// Span over package building; attributes the share-packaging seal
/// volume ([`crate::package::SEALED_BYTES`]) grown inside the span to
/// `trial.package_build.sealed_bytes`.
pub static SPAN_PACKAGE_BUILD: SpanId = SpanId::tracking(
    "trial.package_build",
    &crate::package::SEALED_BYTES,
    ".sealed_bytes",
);
/// Span over protocol execution (hop schedule + attack predicates).
pub static SPAN_EXECUTE: SpanId = SpanId::new("trial.execute");

/// Specification of one Monte-Carlo experiment cell.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialSpec {
    /// Scheme parameters (typically from the [`crate::analysis`] solver).
    pub params: SchemeParams,
    /// DHT population size `N`.
    pub population: usize,
    /// Node malicious rate `p` (marked exactly as `⌊p·N⌋` nodes).
    pub p: f64,
    /// Churn intensity: `Some(α)` sets the emerging period to `α` mean
    /// node lifetimes; `None` disables churn entirely.
    pub alpha: Option<f64>,
    /// Steady-state probability that a holder is transiently offline at
    /// its forwarding deadline (Section II-C's node unavailability;
    /// `0.0` disables the model).
    pub unavailability: f64,
}

impl TrialSpec {
    /// A spec with no churn and no transient unavailability.
    pub fn new(params: SchemeParams, population: usize, p: f64) -> Self {
        TrialSpec {
            params,
            population,
            p,
            alpha: None,
            unavailability: 0.0,
        }
    }
}

/// Measured resilience estimates from a batch of trials.
#[derive(Debug, Clone, Default)]
pub struct McResults {
    /// `Rr` — fraction of trials where the release-ahead attack failed
    /// (paper metric: the full-chain / Algorithm-1 event).
    pub release_resilience: Rate,
    /// `Rd` — fraction of trials where the drop attack failed.
    pub drop_resilience: Rate,
    /// Fraction of trials where **neither** attack succeeded.
    pub combined_resilience: Rate,
    /// Stricter extension metric: release strictly before `tr` via any
    /// suffix chain (keyed schemes) or the wire-enforced quorum chain
    /// (share scheme).
    pub strict_release_resilience: Rate,
}

impl McResults {
    /// The effective resilience `R = min(Rr, Rd)` as plotted in the
    /// paper's figures.
    pub fn r_min(&self) -> f64 {
        self.release_resilience
            .value()
            .min(self.drop_resilience.value())
    }
}

/// Runs `trials` independent trials of `spec`, deterministically from
/// `seed`.
///
/// # Errors
///
/// Returns [`EmergeError::InvalidParameters`] when the scheme parameters,
/// malicious rate, churn intensity or unavailability are out of range, and
/// [`EmergeError::InsufficientNodes`] when the scheme structure needs more
/// holders than the population provides.
pub fn run_trials(spec: &TrialSpec, trials: usize, seed: u64) -> Result<McResults, EmergeError> {
    spec.params.validate()?;
    let cost = spec.params.node_cost();
    if cost > spec.population {
        return Err(EmergeError::InsufficientNodes {
            required: cost,
            available: spec.population,
        });
    }
    if !(0.0..=1.0).contains(&spec.p) {
        return Err(EmergeError::InvalidParameters(format!(
            "malicious rate must be in [0, 1], got {}",
            spec.p
        )));
    }
    if let Some(a) = spec.alpha {
        if !(a > 0.0 && a.is_finite()) {
            return Err(EmergeError::InvalidParameters(format!(
                "alpha must be positive and finite, got {a}"
            )));
        }
    }
    if !(0.0..1.0).contains(&spec.unavailability) {
        return Err(EmergeError::InvalidParameters(format!(
            "unavailability must be in [0, 1), got {}",
            spec.unavailability
        )));
    }

    let seeds = SeedSource::new(seed);
    let mut results = McResults::default();
    for trial_idx in 0..trials {
        let mut rng = seeds.stream_n("mc-trial", trial_idx as u64);
        let outcome = run_one_trial(spec, &mut rng);
        results.release_resilience.record(!outcome.release);
        results.drop_resilience.record(!outcome.drop);
        results
            .combined_resilience
            .record(!outcome.release && !outcome.drop);
        results
            .strict_release_resilience
            .record(!outcome.strict_release);
    }
    Ok(results)
}

/// Attack outcomes of a single trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TrialOutcome {
    release: bool,
    drop: bool,
    strict_release: bool,
}

fn run_one_trial(spec: &TrialSpec, rng: &mut StdRng) -> TrialOutcome {
    let malicious_count = (spec.p * spec.population as f64).floor() as usize;
    let cost = spec.params.node_cost();
    // Distinct population indices; an index below the malicious count is a
    // malicious node (the population marking is uniform, so this is an
    // exact hypergeometric draw).
    let indices = rand::seq::index::sample(rng, spec.population, cost);
    let mut initial_flags = indices.iter().map(|idx| idx < malicious_count);

    // Emerging period in lifetime units; irrelevant without churn.
    let l = spec.params.path_length();
    let t_total = spec.alpha.unwrap_or(1.0);
    let th = t_total / l as f64;

    let mut sampler = TimelineSampler {
        rng,
        p: spec.p,
        churn: spec.alpha.is_some(),
        unavailability: spec.unavailability,
    };

    match &spec.params {
        SchemeParams::Central => {
            // LINT-WAIVER(panic): the flag iterator was sized to the holder count computed above
            let holder = sampler.sample(initial_flags.next().expect("one holder"), t_total);
            let trial = CentralTrial { holder, t_total };
            TrialOutcome {
                release: trial.release_succeeds(),
                drop: trial.drop_succeeds(),
                strict_release: trial.release_succeeds(),
            }
        }
        SchemeParams::Disjoint { k, l } | SchemeParams::Joint { k, l } => {
            let joint = matches!(spec.params, SchemeParams::Joint { .. });
            let mut holders = Vec::with_capacity(k * l);
            for _row in 0..*k {
                for col in 0..*l {
                    // A column-`col` holder is relevant until the onion
                    // leaves it at t_{col+1}.
                    let window = (col as f64 + 1.0) * th;
                    holders
                        // LINT-WAIVER(panic): the flag iterator was sized to the holder count computed above
                        .push(sampler.sample(initial_flags.next().expect("enough flags"), window));
                }
            }
            let trial = KeyedTrial {
                holders,
                k: *k,
                l: *l,
                th,
            };
            TrialOutcome {
                release: trial.release_succeeds(),
                drop: if joint {
                    trial.drop_joint_succeeds()
                } else {
                    trial.drop_disjoint_succeeds()
                },
                strict_release: trial.release_before_tr_succeeds(),
            }
        }
        SchemeParams::Share { k, l, n, m } => {
            let mut holders = Vec::with_capacity(n * l);
            for _row in 0..*n {
                for col in 0..*l {
                    let window = (col as f64 + 1.0) * th;
                    holders
                        // LINT-WAIVER(panic): the flag iterator was sized to the holder count computed above
                        .push(sampler.sample(initial_flags.next().expect("enough flags"), window));
                }
            }
            let trial = ShareTrial {
                holders,
                k: *k,
                n: *n,
                l: *l,
                th,
                m: m.clone(),
            };
            TrialOutcome {
                release: trial.release_succeeds(),
                drop: trial.drop_succeeds(),
                strict_release: trial.release_strict_succeeds(),
            }
        }
    }
}

/// Specification of a substrate-backed (wire-protocol) Monte-Carlo cell.
///
/// Unlike [`TrialSpec`], which evaluates the combinatorial attack
/// predicates on sampled holder timelines, a protocol cell runs the *real*
/// protocol — path construction, onion/share packaging, hop-by-hop
/// execution with genuine cryptography — on a fresh
/// [`HolderSubstrate`] world per trial.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolTrialSpec {
    /// Scheme parameters to instantiate each trial.
    pub params: SchemeParams,
    /// Emerging period `T` in ticks.
    pub emerging_period: SimDuration,
    /// Behaviour of malicious holders.
    pub attack: AttackMode,
}

/// Aggregated outcomes of a batch of wire-protocol trials.
#[derive(Debug, Clone, Default)]
pub struct ProtocolMcResults {
    /// Fraction of trials where the key was released at all.
    pub released: Rate,
    /// Fraction of trials with a clean emergence: released exactly at `tr`
    /// and never reconstructed early.
    pub clean: Rate,
    /// Fraction of trials where the adversary reconstructed the secret
    /// before `tr`.
    pub reconstructed_early: Rate,
    /// Messages pushed through the substrate per trial.
    pub messages: Summary,
    /// Digest of every trial's holder slots and report. Each trial
    /// contributes a `protocol_trial_digest` keyed by its *global* trial index,
    /// and contributions combine by wrapping addition — an associative,
    /// commutative operation — so merging shard digests over disjoint
    /// contiguous trial ranges reproduces the serial digest bit for bit.
    /// Two runs (or two substrates) agree on this iff they agreed on every
    /// single trial (up to 64-bit collision). An empty batch digests to 0.
    pub fingerprint: u64,
}

impl ProtocolMcResults {
    /// Merges the results of a disjoint batch of trials into this one.
    ///
    /// The counter-valued fields ([`Rate`] numerators/denominators, the
    /// [`Summary`] count/min/max and the fingerprint) merge *exactly*:
    /// any merge tree over disjoint trial batches is bit-identical to one
    /// serial run. The floating-point moments of `messages` (mean,
    /// variance) merge via the parallel Welford update (Chan et al.),
    /// which agrees with the serial computation up to normal
    /// floating-point rounding.
    pub fn merge(&mut self, other: &ProtocolMcResults) {
        self.released.merge(&other.released);
        self.clean.merge(&other.clean);
        self.reconstructed_early.merge(&other.reconstructed_early);
        self.messages.merge(&other.messages);
        self.fingerprint = self.fingerprint.wrapping_add(other.fingerprint);
    }
}

impl Merge for ProtocolMcResults {
    fn merge(&mut self, other: &Self) {
        ProtocolMcResults::merge(self, other);
    }
}

/// Runs `trials` wire-protocol trials of `spec`, deterministically from
/// `seed`, building a fresh substrate world per trial via
/// `substrate_factory` (which receives the trial's world seed).
///
/// Equivalent to [`run_protocol_trial_range`] over `[0, trials)`.
///
/// # Errors
///
/// Propagates construction failures, e.g.
/// [`EmergeError::InsufficientNodes`] when the structure does not fit the
/// factory's worlds.
pub fn run_protocol_trials<S, F>(
    spec: &ProtocolTrialSpec,
    trials: usize,
    seed: u64,
    substrate_factory: F,
) -> Result<ProtocolMcResults, EmergeError>
where
    S: HolderSubstrate,
    F: FnMut(u64) -> S,
{
    run_protocol_trial_range(spec, 0, trials, seed, substrate_factory)
}

/// Runs the contiguous trial range `[first_trial, first_trial + count)`
/// of a wire-protocol Monte-Carlo batch, building a fresh substrate world
/// per trial via `substrate_factory` (which receives the trial's world
/// seed).
///
/// Every trial draws its randomness from its own
/// `SeedSource::stream_n("protocol-trial", trial_idx)` stream keyed by
/// the *global* trial index, so a range run is bit-identical to the same
/// trials inside a serial [`run_protocol_trials`] batch — no stream
/// replay, no cross-trial coupling. [`emerge_sim::shard::run_sharded`]
/// runs one range per worker and merges the partial results.
///
/// # Errors
///
/// Propagates construction failures, e.g.
/// [`EmergeError::InsufficientNodes`] when the structure does not fit the
/// factory's worlds.
pub fn run_protocol_trial_range<S, F>(
    spec: &ProtocolTrialSpec,
    first_trial: usize,
    count: usize,
    seed: u64,
    mut substrate_factory: F,
) -> Result<ProtocolMcResults, EmergeError>
where
    S: HolderSubstrate,
    F: FnMut(u64) -> S,
{
    spec.params.validate()?;
    let seeds = SeedSource::new(seed);
    let mut ws = TrialWorkspace::new();
    let mut results = ProtocolMcResults::default();
    for trial_idx in first_trial..first_trial + count {
        let mut trial_rng = seeds.stream_n("protocol-trial", trial_idx as u64);
        let world_seed = trial_rng.next_u64();
        let mut substrate = {
            let _phase = span(&SPAN_WORLD_REBUILD);
            substrate_factory(world_seed)
        };
        run_trial(
            spec,
            &mut substrate,
            &mut trial_rng,
            trial_idx,
            &mut ws,
            &mut results,
        )?;
    }
    Ok(results)
}

/// Every reusable buffer a wire-protocol trial needs: the path plan, the
/// key schedule, the share package build output and scratch, the share
/// executor scratch, the run report and the per-trial secret buffer.
/// Build one per shard and reuse it across every trial of every cell. For
/// the share scheme, the first trial of each shape warms the capacities
/// and subsequent trials allocate nothing.
#[derive(Debug)]
pub struct TrialWorkspace {
    plan: PathPlan,
    schedule: KeySchedule,
    packages: SharePackages,
    pkg_scratch: PackageScratch,
    exec_scratch: ShareExecScratch,
    pub(crate) report: PooledRunReport,
    secret: Vec<u8>,
}

impl TrialWorkspace {
    /// An empty (cold) workspace. The placeholder key schedule is
    /// replaced by each trial's sender seed before any derivation.
    pub fn new() -> Self {
        TrialWorkspace {
            plan: PathPlan::default(),
            schedule: KeySchedule::new(SymmetricKey::from_bytes([0u8; 32])),
            packages: SharePackages::default(),
            pkg_scratch: PackageScratch::new(),
            exec_scratch: ShareExecScratch::default(),
            report: PooledRunReport::default(),
            secret: Vec::new(),
        }
    }

    /// Binds the key schedule and the message secret to `sender_seed`.
    fn set_sender(&mut self, sender_seed: SymmetricKey) {
        let message_key = sender_seed.derive(b"message-secret-key");
        self.secret.clear();
        self.secret.extend_from_slice(message_key.as_bytes());
        self.schedule.reset(sender_seed);
    }

    /// Sends the secret of `sender_seed` along `plan` and runs it to the
    /// release time: the one-shot form of a trial's stages, for
    /// [`crate::emergence::SelfEmergingSystem::run_to_release`]. Opens no
    /// trial phase spans: a send is not a Monte-Carlo trial.
    pub(crate) fn send_along<S: HolderSubstrate + ?Sized>(
        &mut self,
        substrate: &mut S,
        plan: &PathPlan,
        params: &SchemeParams,
        sender_seed: SymmetricKey,
        config: &RunConfig,
    ) -> Result<&PooledRunReport, EmergeError> {
        self.set_sender(sender_seed);
        self.plan.clone_from(plan);
        self.package_and_execute(substrate, params, config, false)?;
        Ok(&self.report)
    }

    /// The one scheme dispatch: builds `params`' packages over the plan
    /// and executes them into the report. With `trial_phases` set, the
    /// package build and the execution each run in their trial phase
    /// span.
    fn package_and_execute<S: HolderSubstrate + ?Sized>(
        &mut self,
        substrate: &mut S,
        params: &SchemeParams,
        config: &RunConfig,
        trial_phases: bool,
    ) -> Result<(), EmergeError> {
        let phase = |id: &'static SpanId| trial_phases.then(|| span(id));
        match params {
            SchemeParams::Central => {
                let _phase = phase(&SPAN_EXECUTE);
                run_central(
                    substrate,
                    &self.plan,
                    &self.secret,
                    config,
                    &mut self.report,
                )
            }
            SchemeParams::Disjoint { .. } | SchemeParams::Joint { .. } => {
                let packages = {
                    let _phase = phase(&SPAN_PACKAGE_BUILD);
                    build_keyed_packages(&self.plan, params, &self.schedule, &self.secret)?
                };
                let _phase = phase(&SPAN_EXECUTE);
                run_keyed(
                    substrate,
                    &self.plan,
                    params,
                    &packages,
                    config,
                    &mut self.report,
                )
            }
            SchemeParams::Share { .. } => {
                {
                    let _phase = phase(&SPAN_PACKAGE_BUILD);
                    build_share_packages_into(
                        &self.plan,
                        params,
                        &self.schedule,
                        &self.secret,
                        &mut self.packages,
                        &mut self.pkg_scratch,
                    )?;
                }
                let _phase = phase(&SPAN_EXECUTE);
                execute_share_pooled(
                    substrate,
                    &self.plan,
                    params,
                    &self.packages,
                    config,
                    &mut self.exec_scratch,
                    &mut self.report,
                )
            }
        }
    }
}

impl Default for TrialWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

/// One wire-protocol trial on an already (re)built substrate: sender seed
/// from `trial_rng` → paths → packages → execute, recorded into
/// `results` under `trial_idx`. The body of every trial loop, so the
/// factory, in-place and fault-plane loops agree bit for bit on the same
/// worlds.
pub(crate) fn run_trial<S: HolderSubstrate + ?Sized>(
    spec: &ProtocolTrialSpec,
    substrate: &mut S,
    trial_rng: &mut StdRng,
    trial_idx: usize,
    ws: &mut TrialWorkspace,
    results: &mut ProtocolMcResults,
) -> Result<(), EmergeError> {
    let sender_seed = SymmetricKey::generate(trial_rng);
    {
        let _phase = span(&SPAN_PATHS);
        construct_paths_into(&*substrate, &spec.params, &sender_seed, &mut ws.plan)?;
    }
    ws.set_sender(sender_seed);
    let config = RunConfig {
        ts: substrate.now(),
        emerging_period: spec.emerging_period,
        attack: spec.attack,
    };
    ws.package_and_execute(substrate, &spec.params, &config, true)?;

    let tr = config.ts + config.emerging_period;
    let report = &ws.report;
    results.released.record(report.released_at.is_some());
    results.clean.record(report.clean_emergence(tr));
    results
        .reconstructed_early
        .record(report.adversary_at.is_some());
    results.messages.record(report.messages_sent as f64);
    results.fingerprint = results.fingerprint.wrapping_add(protocol_trial_digest(
        trial_idx as u64,
        &ws.plan.slots,
        report
            .released_at
            .map(|at| (at, &report.released_secret[..])),
        report
            .adversary_at
            .map(|at| (at, &report.adversary_secret[..])),
        report.failure,
        report.messages_sent,
    ));
    Ok(())
}

/// [`run_protocol_trial_range`] over one substrate that is *re-seeded in
/// place* per trial (e.g. `AnalyticSubstrate::rebuild`) and a
/// [`TrialWorkspace`] of recycled buffers. Results — including the
/// fingerprint — are bit-identical to the factory loop with a fresh
/// `build(config, world_seed)` substrate per trial (pinned by test and by
/// the recorded baseline fingerprints). For the share scheme, after the
/// first trial of a shape a trial performs zero heap allocations.
///
/// # Errors
///
/// Propagates construction failures such as
/// [`EmergeError::InsufficientNodes`].
pub fn run_protocol_trial_range_pooled<S, R>(
    spec: &ProtocolTrialSpec,
    first_trial: usize,
    count: usize,
    seed: u64,
    substrate: &mut S,
    mut reseed: R,
    ws: &mut TrialWorkspace,
) -> Result<ProtocolMcResults, EmergeError>
where
    S: HolderSubstrate,
    R: FnMut(&mut S, u64),
{
    spec.params.validate()?;
    let seeds = SeedSource::new(seed);
    let mut results = ProtocolMcResults::default();
    for trial_idx in first_trial..first_trial + count {
        let mut trial_rng = seeds.stream_n("protocol-trial", trial_idx as u64);
        let world_seed = trial_rng.next_u64();
        {
            let _phase = span(&SPAN_WORLD_REBUILD);
            reseed(substrate, world_seed);
        }
        run_trial(spec, substrate, &mut trial_rng, trial_idx, ws, &mut results)?;
    }
    Ok(results)
}

pub use emerge_sim::shard::shard_ranges;

/// Digest of one wire-protocol trial, keyed by its global trial index:
/// FNV-1a ([`TrialDigest`]) over the index, the plan's holder slots and
/// the report — the legitimate release and the adversary's
/// reconstruction (instant and bytes), the failure reason and the message
/// count. Keying by the trial index makes the digest sensitive to *which*
/// trial produced an outcome even though the combination is commutative.
fn protocol_trial_digest(
    trial_idx: u64,
    slots: &[usize],
    released: Option<(SimTime, &[u8])>,
    reconstructed: Option<(SimTime, &[u8])>,
    failure: Option<&str>,
    messages_sent: u64,
) -> u64 {
    let mut d = TrialDigest::new();
    d.eat(&trial_idx.to_le_bytes());
    for &slot in slots {
        d.eat(&(slot as u64).to_le_bytes());
    }
    for outcome in [released, reconstructed] {
        match outcome {
            Some((at, secret)) => {
                d.eat(&[1]);
                d.eat(&at.ticks().to_le_bytes());
                d.eat(secret);
            }
            None => d.eat(&[0]),
        }
    }
    if let Some(reason) = failure {
        d.eat(reason.as_bytes());
    }
    d.eat(&messages_sent.to_le_bytes());
    d.finish()
}

/// Samples holder timelines: exponential tenant lifetimes (mean 1.0 in
/// lifetime units), replacements malicious at rate `p`, optional transient
/// unavailability at the forwarding deadline.
struct TimelineSampler<'a> {
    rng: &'a mut StdRng,
    p: f64,
    churn: bool,
    unavailability: f64,
}

impl TimelineSampler<'_> {
    fn sample(&mut self, initial_malicious: bool, window: f64) -> HolderTimeline {
        let timeline = if !self.churn {
            HolderTimeline::stable(initial_malicious)
        } else {
            let mut renewals = Vec::new();
            let mut statuses = vec![initial_malicious];
            let mut t = 0.0f64;
            loop {
                // Exponential(mean 1) via inverse CDF.
                let u: f64 = self.rng.gen();
                t += -(1.0 - u).ln();
                if t >= window {
                    break;
                }
                renewals.push(t);
                statuses.push(self.rng.gen::<f64>() < self.p);
            }
            HolderTimeline::with_renewals(renewals, statuses)
        };
        if self.unavailability > 0.0 {
            let offline = self.rng.gen::<f64>() < self.unavailability;
            timeline.with_offline_at_forward(offline)
        } else {
            timeline
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;
    use crate::substrate::{AnalyticSubstrate, OverlayConfig};

    fn protocol_spec(params: SchemeParams, attack: AttackMode) -> ProtocolTrialSpec {
        ProtocolTrialSpec {
            params,
            emerging_period: SimDuration::from_ticks(3_000),
            attack,
        }
    }

    fn world_config(n: usize, p: f64) -> OverlayConfig {
        OverlayConfig {
            n_nodes: n,
            malicious_fraction: p,
            ..OverlayConfig::default()
        }
    }

    #[test]
    fn protocol_trials_clean_network_always_clean() {
        let spec = protocol_spec(SchemeParams::Joint { k: 2, l: 3 }, AttackMode::Passive);
        let r = run_protocol_trials(&spec, 25, 7, |s| {
            AnalyticSubstrate::build(world_config(120, 0.0), s)
        })
        .unwrap();
        assert_eq!(r.clean.value(), 1.0);
        assert_eq!(r.released.value(), 1.0);
        assert_eq!(r.reconstructed_early.value(), 0.0);
        assert!(r.messages.mean() > 2.0);
    }

    #[test]
    fn protocol_trials_are_deterministic() {
        let spec = protocol_spec(SchemeParams::Disjoint { k: 2, l: 2 }, AttackMode::Drop);
        let run = || {
            run_protocol_trials(&spec, 20, 11, |s| {
                AnalyticSubstrate::build(world_config(100, 0.3), s)
            })
            .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.clean.successes(), b.clean.successes());
    }

    /// Exact-field equality between two protocol result batches: the
    /// fingerprint, every rate counter and the integer-valued summary
    /// fields must match bit for bit; the floating-point moments agree up
    /// to parallel-Welford rounding.
    fn assert_results_identical(a: &ProtocolMcResults, b: &ProtocolMcResults) {
        assert_eq!(a.fingerprint, b.fingerprint, "fingerprint");
        assert_eq!(a.released, b.released, "released");
        assert_eq!(a.clean, b.clean, "clean");
        assert_eq!(a.reconstructed_early, b.reconstructed_early, "early");
        assert_eq!(a.messages.count(), b.messages.count(), "message count");
        assert_eq!(a.messages.min(), b.messages.min(), "message min");
        assert_eq!(a.messages.max(), b.messages.max(), "message max");
        assert!((a.messages.mean() - b.messages.mean()).abs() < 1e-9);
        assert!((a.messages.variance() - b.messages.variance()).abs() < 1e-6);
    }

    /// The reference side of the reuse tests: every trial on a freshly
    /// built world *and* a fresh workspace (each one-trial range call
    /// creates its own), so no buffer state crosses a trial boundary.
    fn fresh_per_trial(
        spec: &ProtocolTrialSpec,
        trials: usize,
        seed: u64,
        cfg: OverlayConfig,
    ) -> ProtocolMcResults {
        let mut results = ProtocolMcResults::default();
        for trial in 0..trials {
            let one = run_protocol_trial_range(spec, trial, 1, seed, |s| {
                AnalyticSubstrate::build(cfg, s)
            })
            .unwrap();
            results.merge(&one);
        }
        results
    }

    #[test]
    fn pooled_trial_loop_matches_allocating_loop() {
        // One workspace and one rebuilt substrate reused across every
        // shape, attack and trial — the exact steady-state reuse pattern
        // of a bench shard — must reproduce trials run on a fresh world
        // and a fresh workspace each, bit for bit (fingerprint included).
        // So must the factory loop, which carries one workspace across
        // its range.
        let mut ws = TrialWorkspace::new();
        for (params, attack) in [
            (
                SchemeParams::Share {
                    k: 2,
                    l: 3,
                    n: 5,
                    m: vec![3, 3],
                },
                AttackMode::ReleaseAhead,
            ),
            (
                SchemeParams::Share {
                    k: 3,
                    l: 4,
                    n: 9,
                    m: vec![4, 5, 5],
                },
                AttackMode::Drop,
            ),
            (
                SchemeParams::Share {
                    k: 2,
                    l: 2,
                    n: 6,
                    m: vec![3],
                },
                AttackMode::Passive,
            ),
        ] {
            for cfg in [
                world_config(150, 0.4),
                OverlayConfig {
                    n_nodes: 150,
                    malicious_fraction: 0.3,
                    mean_lifetime: Some(2_500),
                    horizon: 100_000,
                },
            ] {
                let spec = protocol_spec(params.clone(), attack);
                let serial = fresh_per_trial(&spec, 10, 5, cfg);
                let factory =
                    run_protocol_trials(&spec, 10, 5, |s| AnalyticSubstrate::build(cfg, s))
                        .unwrap();
                assert_results_identical(&serial, &factory);
                let mut substrate = AnalyticSubstrate::build(cfg, 0);
                let pooled = run_protocol_trial_range_pooled(
                    &spec,
                    0,
                    10,
                    5,
                    &mut substrate,
                    |s, seed| s.rebuild(seed),
                    &mut ws,
                )
                .unwrap();
                assert_results_identical(&serial, &pooled);
                // Range splits must also merge to the serial result.
                let head = run_protocol_trial_range_pooled(
                    &spec,
                    0,
                    4,
                    5,
                    &mut substrate,
                    |s, seed| s.rebuild(seed),
                    &mut ws,
                )
                .unwrap();
                let tail = run_protocol_trial_range_pooled(
                    &spec,
                    4,
                    6,
                    5,
                    &mut substrate,
                    |s, seed| s.rebuild(seed),
                    &mut ws,
                )
                .unwrap();
                let mut merged = head;
                merged.merge(&tail);
                assert_results_identical(&serial, &merged);
            }
        }
    }

    #[test]
    fn workspace_reuse_across_100_trials_matches_fresh_runs() {
        // One workspace and one in-place-rebuilt substrate carried across
        // 100 trials (run as several ranges, like a long-lived bench
        // shard) must be indistinguishable from 100 trials that each get
        // a freshly built world and a fresh workspace.
        let spec = protocol_spec(
            SchemeParams::Share {
                k: 2,
                l: 3,
                n: 8,
                m: vec![4, 4],
            },
            AttackMode::ReleaseAhead,
        );
        let cfg = OverlayConfig {
            n_nodes: 200,
            malicious_fraction: 0.2,
            mean_lifetime: Some(40_000),
            horizon: 200_000,
        };
        let fresh = fresh_per_trial(&spec, 100, 0xB45E, cfg);
        let mut substrate = AnalyticSubstrate::build(cfg, 0);
        let mut ws = TrialWorkspace::new();
        let mut reused = ProtocolMcResults::default();
        for (first, count) in [(0usize, 40usize), (40, 25), (65, 35)] {
            let part = run_protocol_trial_range_pooled(
                &spec,
                first,
                count,
                0xB45E,
                &mut substrate,
                |s, seed| s.rebuild(seed),
                &mut ws,
            )
            .unwrap();
            reused.merge(&part);
        }
        assert_results_identical(&fresh, &reused);
    }

    mod pooled_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Any small share shape, attack mode and trial batch: the
            /// in-place loop (reused workspace, rebuilt substrate) and
            /// trials on a fresh world and a fresh workspace each agree
            /// bit for bit.
            #[test]
            fn pooled_loop_matches_allocating_loop_for_any_shape(
                k in 1usize..=3,
                l in 1usize..=4,
                extra in 0usize..=4,
                m_seed in 0u64..u64::MAX,
                attack_idx in 0usize..3,
                trials in 1usize..=5,
            ) {
                let n = k + extra;
                // Thresholds in [1, n], varied but deterministic per case.
                let m: Vec<usize> = (0..l.saturating_sub(1))
                    .map(|c| 1 + ((m_seed >> (8 * c)) as usize % n))
                    .collect();
                let params = SchemeParams::Share { k, l, n, m };
                prop_assert!(params.validate().is_ok());
                let attack = [AttackMode::Passive, AttackMode::ReleaseAhead, AttackMode::Drop]
                    [attack_idx];
                let spec = protocol_spec(params, attack);
                let cfg = OverlayConfig {
                    n_nodes: 120,
                    malicious_fraction: 0.3,
                    mean_lifetime: Some(3_000),
                    horizon: 100_000,
                };
                let fresh = fresh_per_trial(&spec, trials, 7, cfg);
                let mut substrate = AnalyticSubstrate::build(cfg, 0);
                let mut ws = TrialWorkspace::new();
                let pooled = run_protocol_trial_range_pooled(
                    &spec,
                    0,
                    trials,
                    7,
                    &mut substrate,
                    |s, seed| s.rebuild(seed),
                    &mut ws,
                )
                .unwrap();
                prop_assert_eq!(fresh.fingerprint, pooled.fingerprint);
                prop_assert_eq!(fresh.released, pooled.released);
                prop_assert_eq!(fresh.clean, pooled.clean);
            }
        }
    }

    #[test]
    fn in_place_loop_matches_factory_loop_for_keyed_and_central() {
        // The in-place loop runs every scheme: one dirty workspace and one
        // rebuilt substrate carried across central, disjoint and joint
        // cells must reproduce trials on a fresh world and a fresh
        // workspace each, and the factory loop, bit for bit.
        let mut ws = TrialWorkspace::new();
        let cfg = OverlayConfig {
            n_nodes: 150,
            malicious_fraction: 0.3,
            mean_lifetime: Some(2_500),
            horizon: 100_000,
        };
        for (params, attack) in [
            (SchemeParams::Central, AttackMode::ReleaseAhead),
            (SchemeParams::Disjoint { k: 2, l: 3 }, AttackMode::Drop),
            (SchemeParams::Joint { k: 3, l: 4 }, AttackMode::ReleaseAhead),
        ] {
            let spec = protocol_spec(params, attack);
            let fresh = fresh_per_trial(&spec, 10, 5, cfg);
            let factory =
                run_protocol_trials(&spec, 10, 5, |s| AnalyticSubstrate::build(cfg, s)).unwrap();
            assert_results_identical(&fresh, &factory);
            let mut substrate = AnalyticSubstrate::build(cfg, 0);
            let in_place = run_protocol_trial_range_pooled(
                &spec,
                0,
                10,
                5,
                &mut substrate,
                |s, seed| s.rebuild(seed),
                &mut ws,
            )
            .unwrap();
            assert_results_identical(&fresh, &in_place);
        }
    }

    #[test]
    fn merge_identity_and_associativity_with_empty_shards() {
        // More shards than trials: the surplus ranges are empty and their
        // results must merge as the identity, so a fixed worker fleet can
        // split any batch without perturbing the outcome.
        let spec = protocol_spec(SchemeParams::Joint { k: 2, l: 3 }, AttackMode::ReleaseAhead);
        let factory = |s| AnalyticSubstrate::build(world_config(120, 0.3), s);
        let serial = run_protocol_trials(&spec, 5, 21, factory).unwrap();

        let ranges = shard_ranges(5, 9);
        assert_eq!(ranges.len(), 9, "empty tail ranges are emitted");
        let parts: Vec<ProtocolMcResults> = ranges
            .iter()
            .map(|&(first, count)| {
                run_protocol_trial_range(&spec, first, count, 21, factory).unwrap()
            })
            .collect();
        let mut merged = ProtocolMcResults::default();
        for part in &parts {
            merged.merge(part);
        }
        assert_results_identical(&serial, &merged);

        // Identity on both sides: empty ⊕ a == a ⊕ empty == a, bit for
        // bit (Rate/Summary merges short-circuit on a zero count).
        let a = &parts[0];
        let mut left = ProtocolMcResults::default();
        left.merge(a);
        let mut right = a.clone();
        right.merge(&ProtocolMcResults::default());
        for merged in [&left, &right] {
            assert_eq!(merged.fingerprint, a.fingerprint);
            assert_eq!(merged.released, a.released);
            assert_eq!(merged.clean, a.clean);
            assert_eq!(merged.reconstructed_early, a.reconstructed_early);
            assert_eq!(merged.messages.count(), a.messages.count());
            assert_eq!(
                merged.messages.mean().to_bits(),
                a.messages.mean().to_bits()
            );
            assert_eq!(
                merged.messages.variance().to_bits(),
                a.messages.variance().to_bits()
            );
        }

        // Associativity including empty middles: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        // exactly on every counter-valued field.
        let (b, c) = (&parts[6], &parts[1]);
        let mut ab_c = a.clone();
        ab_c.merge(b);
        ab_c.merge(c);
        let mut bc = b.clone();
        bc.merge(c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_results_identical(&ab_c, &a_bc);
        assert_eq!(ab_c.messages.count(), a_bc.messages.count());
    }

    #[test]
    fn trial_range_reproduces_serial_suffix() {
        let spec = protocol_spec(SchemeParams::Joint { k: 2, l: 2 }, AttackMode::Drop);
        let factory = |s| AnalyticSubstrate::build(world_config(100, 0.3), s);
        let full = run_protocol_trials(&spec, 10, 3, factory).unwrap();
        let head = run_protocol_trial_range(&spec, 0, 4, 3, factory).unwrap();
        let tail = run_protocol_trial_range(&spec, 4, 6, 3, factory).unwrap();
        let mut merged = head.clone();
        merged.merge(&tail);
        assert_results_identical(&full, &merged);
        // Merge order must not matter (commutative combination).
        let mut swapped = tail;
        swapped.merge(&head);
        assert_eq!(swapped.fingerprint, full.fingerprint);
    }

    #[test]
    fn fingerprint_is_keyed_by_trial_index() {
        // The same worlds run as trials [0, 2) vs [2, 4) must digest
        // differently: the index key makes position matter even though the
        // combination is commutative.
        let spec = protocol_spec(SchemeParams::Central, AttackMode::Passive);
        let factory = |s| AnalyticSubstrate::build(world_config(80, 0.0), s);
        let a = run_protocol_trial_range(&spec, 0, 2, 9, factory).unwrap();
        let b = run_protocol_trial_range(&spec, 2, 2, 9, factory).unwrap();
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn empty_batch_is_the_merge_identity() {
        let spec = protocol_spec(SchemeParams::Central, AttackMode::Passive);
        let factory = |s| AnalyticSubstrate::build(world_config(80, 0.1), s);
        let empty = run_protocol_trials(&spec, 0, 1, factory).unwrap();
        assert_eq!(empty.fingerprint, 0);
        assert_eq!(empty.released.trials(), 0);
        let run = run_protocol_trials(&spec, 6, 1, factory).unwrap();
        let mut merged = empty;
        merged.merge(&run);
        assert_results_identical(&run, &merged);
    }

    #[test]
    fn protocol_trials_reject_oversized_structures() {
        let spec = protocol_spec(SchemeParams::Joint { k: 20, l: 20 }, AttackMode::Passive);
        let err = run_protocol_trials(&spec, 1, 1, |s| {
            AnalyticSubstrate::build(world_config(50, 0.0), s)
        })
        .unwrap_err();
        assert!(matches!(err, EmergeError::InsufficientNodes { .. }));
    }

    fn spec(params: SchemeParams, population: usize, p: f64, alpha: Option<f64>) -> TrialSpec {
        TrialSpec {
            params,
            population,
            p,
            alpha,
            unavailability: 0.0,
        }
    }

    #[test]
    fn central_matches_one_minus_p() {
        let s = spec(SchemeParams::Central, 10_000, 0.3, None);
        let r = run_trials(&s, 4000, 1).unwrap();
        let rr = r.release_resilience.value();
        assert!((rr - 0.7).abs() < 0.02, "measured {rr}, analytic 0.7");
        assert_eq!(
            r.release_resilience.value(),
            r.drop_resilience.value(),
            "central release and drop coincide"
        );
    }

    #[test]
    fn disjoint_matches_equations_1_and_2() {
        let (k, l, p) = (3usize, 4usize, 0.2f64);
        let s = spec(SchemeParams::Disjoint { k, l }, 10_000, p, None);
        let r = run_trials(&s, 6000, 2).unwrap();
        let analytic = analysis::disjoint(p, k, l);
        assert!(
            (r.release_resilience.value() - analytic.release).abs() < 0.02,
            "Rr measured {} vs analytic {}",
            r.release_resilience.value(),
            analytic.release
        );
        assert!(
            (r.drop_resilience.value() - analytic.drop).abs() < 0.02,
            "Rd measured {} vs analytic {}",
            r.drop_resilience.value(),
            analytic.drop
        );
    }

    #[test]
    fn joint_matches_equations_1_and_3() {
        let (k, l, p) = (3usize, 4usize, 0.25f64);
        let s = spec(SchemeParams::Joint { k, l }, 10_000, p, None);
        let r = run_trials(&s, 6000, 3).unwrap();
        let analytic = analysis::joint(p, k, l);
        assert!(
            (r.release_resilience.value() - analytic.release).abs() < 0.02,
            "Rr measured {} vs analytic {}",
            r.release_resilience.value(),
            analytic.release
        );
        assert!(
            (r.drop_resilience.value() - analytic.drop).abs() < 0.02,
            "Rd measured {} vs analytic {}",
            r.drop_resilience.value(),
            analytic.drop
        );
    }

    #[test]
    fn small_population_hypergeometric_effect() {
        // With N = 20 and cost 20 (k=4, l=5), the structure uses the whole
        // population: exactly ⌊0.25·20⌋ = 5 malicious holders always.
        // Release needs >= 1 per column across 4 rows; with exactly 5
        // malicious spread over 20 cells, outcomes are hypergeometric, not
        // Bernoulli — the test just checks we run and stay in bounds.
        let s = spec(SchemeParams::Joint { k: 4, l: 5 }, 20, 0.25, None);
        let r = run_trials(&s, 2000, 4).unwrap();
        let rr = r.release_resilience.value();
        assert!((0.0..=1.0).contains(&rr));
        // Bernoulli analytic would be eq(1) with p=0.25; hypergeometric
        // marking shifts it, but not wildly.
        let analytic = analysis::release_multipath(0.25, 4, 5);
        assert!((rr - analytic).abs() < 0.2);
    }

    #[test]
    fn deterministic_given_seed() {
        let s = spec(SchemeParams::Joint { k: 2, l: 3 }, 1000, 0.3, Some(2.0));
        let a = run_trials(&s, 500, 42).unwrap();
        let b = run_trials(&s, 500, 42).unwrap();
        assert_eq!(
            a.release_resilience.successes(),
            b.release_resilience.successes()
        );
        assert_eq!(a.drop_resilience.successes(), b.drop_resilience.successes());
        let c = run_trials(&s, 500, 43).unwrap();
        // Overwhelmingly likely to differ.
        assert_ne!(
            (
                a.release_resilience.successes(),
                a.drop_resilience.successes()
            ),
            (
                c.release_resilience.successes(),
                c.drop_resilience.successes()
            )
        );
    }

    #[test]
    fn churn_degrades_keyed_schemes() {
        let params = SchemeParams::Joint { k: 4, l: 8 };
        let p = 0.2;
        let no_churn = run_trials(&spec(params.clone(), 10_000, p, None), 2000, 5).unwrap();
        let churned = run_trials(&spec(params, 10_000, p, Some(3.0)), 2000, 5).unwrap();
        assert!(
            churned.release_resilience.value() < no_churn.release_resilience.value() - 0.05,
            "churn must hurt release resilience: {} vs {}",
            churned.release_resilience.value(),
            no_churn.release_resilience.value()
        );
    }

    #[test]
    fn share_scheme_survives_churn() {
        // Same conditions as churn_degrades_keyed_schemes, but the share
        // scheme's just-in-time key delivery resists.
        let p = 0.2;
        let a = analysis::algorithm1(4, 8, 10_000, 3.0, p);
        let params = SchemeParams::Share {
            k: 4,
            l: 8,
            n: a.n,
            m: a.m.clone(),
        };
        let r = run_trials(&spec(params, 10_000, p, Some(3.0)), 300, 6).unwrap();
        assert!(
            r.release_resilience.value() > 0.95,
            "share Rr under churn: {}",
            r.release_resilience.value()
        );
        assert!(
            r.drop_resilience.value() > 0.95,
            "share Rd under churn: {}",
            r.drop_resilience.value()
        );
    }

    #[test]
    fn strict_release_is_no_easier_to_resist() {
        // The strict metric counts strictly more adversary wins for keyed
        // schemes, so its resilience is <= the paper metric's.
        let s = spec(SchemeParams::Joint { k: 3, l: 5 }, 5000, 0.3, None);
        let r = run_trials(&s, 2000, 7).unwrap();
        assert!(r.strict_release_resilience.value() <= r.release_resilience.value() + 1e-9);
    }

    #[test]
    fn combined_is_at_most_min() {
        let s = spec(SchemeParams::Disjoint { k: 2, l: 4 }, 5000, 0.35, None);
        let r = run_trials(&s, 2000, 8).unwrap();
        assert!(r.combined_resilience.value() <= r.r_min() + 1e-9);
    }

    #[test]
    fn oversized_structure_is_an_error() {
        let s = spec(SchemeParams::Joint { k: 50, l: 50 }, 100, 0.1, None);
        let err = run_trials(&s, 1, 9).unwrap_err();
        assert!(matches!(
            err,
            EmergeError::InsufficientNodes {
                required: 2500,
                available: 100
            }
        ));
    }

    #[test]
    fn out_of_range_inputs_are_errors_not_panics() {
        let mut bad_p = spec(SchemeParams::Central, 100, 1.5, None);
        assert!(matches!(
            run_trials(&bad_p, 1, 9),
            Err(EmergeError::InvalidParameters(_))
        ));
        bad_p.p = f64::NAN;
        assert!(matches!(
            run_trials(&bad_p, 1, 9),
            Err(EmergeError::InvalidParameters(_))
        ));
        let bad_alpha = spec(SchemeParams::Central, 100, 0.1, Some(-1.0));
        assert!(matches!(
            run_trials(&bad_alpha, 1, 9),
            Err(EmergeError::InvalidParameters(_))
        ));
    }

    #[test]
    fn unavailability_degrades_drop_resilience_only() {
        let params = SchemeParams::Disjoint { k: 2, l: 5 };
        let base = spec(params.clone(), 5000, 0.1, None);
        let mut flaky = base.clone();
        flaky.unavailability = 0.2;
        let r0 = run_trials(&base, 3000, 10).unwrap();
        let r1 = run_trials(&flaky, 3000, 10).unwrap();
        assert!(
            r1.drop_resilience.value() < r0.drop_resilience.value() - 0.05,
            "20% offline probability must hurt disjoint delivery: {} vs {}",
            r1.drop_resilience.value(),
            r0.drop_resilience.value()
        );
        assert!(
            (r1.release_resilience.value() - r0.release_resilience.value()).abs() < 0.03,
            "unavailability must not affect confidentiality"
        );
    }

    #[test]
    fn joint_tolerates_unavailability_better_than_disjoint() {
        let (k, l, p, u) = (3usize, 5usize, 0.05, 0.2);
        let mut joint = spec(SchemeParams::Joint { k, l }, 5000, p, None);
        joint.unavailability = u;
        let mut disjoint = spec(SchemeParams::Disjoint { k, l }, 5000, p, None);
        disjoint.unavailability = u;
        let rj = run_trials(&joint, 3000, 11)
            .unwrap()
            .drop_resilience
            .value();
        let rd = run_trials(&disjoint, 3000, 11)
            .unwrap()
            .drop_resilience
            .value();
        assert!(
            rj > rd + 0.1,
            "column-complete forwarding must mask offline holders: joint={rj} disjoint={rd}"
        );
    }

    #[test]
    fn share_headroom_absorbs_unavailability() {
        let a = crate::analysis::algorithm1(4, 6, 5000, 0.0, 0.1);
        let params = SchemeParams::Share {
            k: 4,
            l: 6,
            n: a.n,
            m: a.m,
        };
        let mut s = spec(params, 5000, 0.1, None);
        s.unavailability = 0.15;
        let r = run_trials(&s, 500, 12).unwrap();
        assert!(
            r.drop_resilience.value() > 0.95,
            "thresholds sized with slack must absorb 15% offline: {}",
            r.drop_resilience.value()
        );
    }

    #[test]
    fn unavailability_out_of_range_is_an_error() {
        let mut s = spec(SchemeParams::Central, 100, 0.1, None);
        s.unavailability = 1.0;
        assert!(matches!(
            run_trials(&s, 1, 13),
            Err(EmergeError::InvalidParameters(_))
        ));
    }
}
