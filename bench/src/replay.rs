//! The traced run: every thread replays the library's trial loop through
//! the same public calls, drawing from the same per-trial seed streams,
//! with a span around each call.
//!
//! A replay mirrors one library trial loop line for line. If the library's
//! loop changes and the replay does not, the outcome counts stop
//! matching: the traced run checks them against an untraced library run
//! over the same trials, and the unit tests below do the same on small
//! worlds.

use std::time::Instant;

use emerge_contract::release::run_bonded_release;
use emerge_contract::substrate::{ContractConfig, ContractSubstrate};
use emerge_core::faults::FaultySubstrate;
use emerge_core::montecarlo::{shard_ranges, ProtocolTrialSpec};
use emerge_core::package::{
    build_keyed_packages, build_share_packages, build_share_packages_into, KeySchedule,
    PackageScratch, SharePackages,
};
use emerge_core::path::{construct_paths, construct_paths_into, PathPlan};
use emerge_core::protocol::{
    execute_keyed, execute_share, execute_share_pooled, PooledRunReport, RunConfig,
    ShareExecScratch,
};
use emerge_core::substrate::HolderSubstrate;
use emerge_crypto::keys::SymmetricKey;
use emerge_dht::analytic::AnalyticSubstrate;
use emerge_faults::RecoveryPolicy;
use emerge_sim::rng::SeedSource;
use rand::RngCore;

use crate::stats::latencies;
use crate::trace::{nanos_since, Tracer};
use crate::workload::{run_phases, run_range, Case, InProcess, Lane, Tally};

/// Upper bound on the spans one replayed trial records (the faulted
/// trial records eight).
pub const SPANS_PER_TRIAL: usize = 8;

/// Per-thread buffers of the pooled share replay, mirroring the
/// library's private trial workspace.
#[derive(Debug)]
pub struct ReplayLane {
    world: Option<AnalyticSubstrate>,
    plan: PathPlan,
    schedule: KeySchedule,
    packages: SharePackages,
    pkg_scratch: PackageScratch,
    exec: ShareExecScratch,
    report: PooledRunReport,
    secret: Vec<u8>,
}

impl ReplayLane {
    /// The buffers `input`'s replay needs.
    pub fn new(input: &InProcess) -> ReplayLane {
        ReplayLane {
            world: matches!(input.case, Case::Share(_))
                .then(|| AnalyticSubstrate::build(input.world, 0)),
            plan: PathPlan::default(),
            schedule: KeySchedule::new(SymmetricKey::from_bytes([0u8; 32])),
            packages: SharePackages::default(),
            pkg_scratch: PackageScratch::new(),
            exec: ShareExecScratch::default(),
            report: PooledRunReport::default(),
            secret: Vec::new(),
        }
    }
}

/// What a replay counted: the outcome tally plus the per-layer work
/// counts the library's results do not carry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Outcome counts, comparable with the library's.
    pub tally: Tally,
    /// Holders placed by path construction, summed.
    pub holders: u64,
    /// Bytes of built packages (package table plus onions), summed.
    pub package_bytes: u64,
}

impl ReplayStats {
    /// Adds another batch.
    pub fn add(&mut self, other: &ReplayStats) {
        self.tally.add(&other.tally);
        self.holders += other.holders;
        self.package_bytes += other.package_bytes;
    }
}

fn run_config<S: HolderSubstrate>(substrate: &S, spec: &ProtocolTrialSpec) -> RunConfig {
    RunConfig {
        ts: substrate.now(),
        emerging_period: spec.emerging_period,
        attack: spec.attack,
    }
}

/// Replays trials `[first, first + count)` of `input`, recording spans
/// into `tracer`.
///
/// # Errors
///
/// The library's error, as text.
pub fn replay_range(
    input: &InProcess,
    lane: &mut ReplayLane,
    first: usize,
    count: usize,
    tracer: &mut Tracer,
) -> Result<ReplayStats, String> {
    let seeds = SeedSource::new(input.seed);
    let mut stats = ReplayStats::default();
    for i in first..first + count {
        let root = tracer.enter("trial", i);
        match &input.case {
            Case::Share(spec) => replay_pooled_share(spec, &seeds, lane, i, tracer, &mut stats)?,
            Case::Joint(spec) => replay_joint(spec, input, &seeds, i, tracer, &mut stats)?,
            Case::Faulted(..) => replay_faulted(input, &seeds, i, tracer, &mut stats)?,
            Case::Bonded(_) => replay_bonded(input, &seeds, i, tracer, &mut stats)?,
        }
        tracer.exit(root);
    }
    Ok(stats)
}

fn record(stats: &mut ReplayStats, released: bool, clean: bool, early: bool, messages: u64) {
    let t = &mut stats.tally;
    t.trials += 1;
    t.released += u64::from(released);
    t.clean += u64::from(clean);
    t.early += u64::from(early);
    t.messages += messages;
}

/// Mirrors `run_protocol_trial_range_pooled`.
fn replay_pooled_share(
    spec: &ProtocolTrialSpec,
    seeds: &SeedSource,
    lane: &mut ReplayLane,
    i: usize,
    tracer: &mut Tracer,
    stats: &mut ReplayStats,
) -> Result<(), String> {
    let world = lane
        .world
        .as_mut()
        .ok_or("share replay has no pooled world")?;
    let mut rng = seeds.stream_n("protocol-trial", i as u64);
    let world_seed = rng.next_u64();
    tracer.span("dht.rebuild", i, || world.rebuild(world_seed));
    let sender_seed = SymmetricKey::generate(&mut rng);
    let message_key = sender_seed.derive(b"message-secret-key");
    lane.secret.clear();
    lane.secret.extend_from_slice(message_key.as_bytes());
    tracer
        .span("path.construct_paths_into", i, || {
            construct_paths_into(&*world, &spec.params, &sender_seed, &mut lane.plan)
        })
        .map_err(|e| e.to_string())?;
    let config = run_config(&*world, spec);
    lane.schedule.reset(sender_seed);
    tracer
        .span("package.build_share_packages_into", i, || {
            build_share_packages_into(
                &lane.plan,
                &spec.params,
                &lane.schedule,
                &lane.secret,
                &mut lane.packages,
                &mut lane.pkg_scratch,
            )
        })
        .map_err(|e| e.to_string())?;
    tracer
        .span("protocol.execute_share_pooled", i, || {
            execute_share_pooled(
                world,
                &lane.plan,
                &spec.params,
                &lane.packages,
                &config,
                &mut lane.exec,
                &mut lane.report,
            )
        })
        .map_err(|e| e.to_string())?;
    let tr = config.ts + config.emerging_period;
    let report = &lane.report;
    record(
        stats,
        report.released_at.is_some(),
        report.clean_emergence(tr),
        report.adversary_at.is_some(),
        report.messages_sent,
    );
    stats.holders += lane.plan.slots.len() as u64;
    stats.package_bytes += (lane.packages.package.len() + lane.packages.core_onion.len()) as u64;
    Ok(())
}

/// Mirrors `run_protocol_trial_range` for a keyed scheme.
fn replay_joint(
    spec: &ProtocolTrialSpec,
    input: &InProcess,
    seeds: &SeedSource,
    i: usize,
    tracer: &mut Tracer,
    stats: &mut ReplayStats,
) -> Result<(), String> {
    let mut rng = seeds.stream_n("protocol-trial", i as u64);
    let world_seed = rng.next_u64();
    let mut world = tracer.span("dht.build", i, || {
        AnalyticSubstrate::build(input.world, world_seed)
    });
    let sender_seed = SymmetricKey::generate(&mut rng);
    let secret = sender_seed
        .derive(b"message-secret-key")
        .as_bytes()
        .to_vec();
    let plan = tracer
        .span("path.construct_paths", i, || {
            construct_paths(&world, &spec.params, &sender_seed)
        })
        .map_err(|e| e.to_string())?;
    let config = run_config(&world, spec);
    let schedule = KeySchedule::new(sender_seed);
    let packages = tracer
        .span("package.build_keyed_packages", i, || {
            build_keyed_packages(&plan, &spec.params, &schedule, &secret)
        })
        .map_err(|e| e.to_string())?;
    let report = tracer
        .span("protocol.execute_keyed", i, || {
            execute_keyed(&mut world, &plan, &spec.params, &packages, &config)
        })
        .map_err(|e| e.to_string())?;
    let tr = config.ts + config.emerging_period;
    record(
        stats,
        report.released.is_some(),
        report.clean_emergence(tr),
        report.adversary_reconstruction.is_some(),
        report.messages_sent,
    );
    stats.holders += plan.slots.len() as u64;
    stats.package_bytes += packages.onions.iter().map(|o| o.len() as u64).sum::<u64>();
    tracer.span("dht.drop", i, || drop(world));
    Ok(())
}

/// Mirrors `run_faulted_trial_range` for the share scheme.
fn replay_faulted(
    input: &InProcess,
    seeds: &SeedSource,
    i: usize,
    tracer: &mut Tracer,
    stats: &mut ReplayStats,
) -> Result<(), String> {
    let Case::Faulted(spec, plan) = &input.case else {
        return Err("faulted replay of another workload".to_string());
    };
    let mut rng = seeds.stream_n("protocol-trial", i as u64);
    let world_seed = rng.next_u64();
    let inner = tracer.span("dht.build", i, || {
        AnalyticSubstrate::build(input.world, world_seed)
    });
    let mut world = tracer.span("faults.arm", i, || {
        FaultySubstrate::new(inner, plan.arm(world_seed), RecoveryPolicy::default())
    });
    let sender_seed = SymmetricKey::generate(&mut rng);
    let secret = sender_seed
        .derive(b"message-secret-key")
        .as_bytes()
        .to_vec();
    let paths = tracer
        .span("path.construct_paths", i, || {
            construct_paths(&world, &spec.params, &sender_seed)
        })
        .map_err(|e| e.to_string())?;
    let config = run_config(&world, spec);
    let schedule = KeySchedule::new(sender_seed);
    let packages = tracer
        .span("package.build_share_packages", i, || {
            build_share_packages(&paths, &spec.params, &schedule, &secret)
        })
        .map_err(|e| e.to_string())?;
    let report = tracer
        .span("protocol.execute_share", i, || {
            execute_share(&mut world, &paths, &spec.params, &packages, &config)
        })
        .map_err(|e| e.to_string())?;
    let faults = tracer.span("faults.fault_stats", i, || world.fault_stats());
    let tr = config.ts + config.emerging_period;
    let released = report.released.is_some();
    record(
        stats,
        released,
        report.clean_emergence(tr),
        report.adversary_reconstruction.is_some(),
        report.messages_sent,
    );
    let t = &mut stats.tally;
    t.degraded += u64::from(released && faults.disrupted());
    t.disrupted += u64::from(faults.disrupted());
    t.disruptions += faults.disruptions;
    stats.holders += paths.slots.len() as u64;
    stats.package_bytes += (packages.package.len() + packages.core_onion.len()) as u64;
    tracer.span("dht.drop", i, || drop(world));
    Ok(())
}

/// Mirrors `run_bonded_trial_range`.
fn replay_bonded(
    input: &InProcess,
    seeds: &SeedSource,
    i: usize,
    tracer: &mut Tracer,
    stats: &mut ReplayStats,
) -> Result<(), String> {
    let Case::Bonded(spec) = &input.case else {
        return Err("bonded replay of another workload".to_string());
    };
    let mut rng = seeds.stream_n("bonded-trial", i as u64);
    let world_seed = rng.next_u64();
    let mut world = tracer.span("contract.build", i, || {
        ContractSubstrate::build(ContractConfig::over(input.world), world_seed)
    });
    let mut secret = [0u8; 32];
    rng.fill_bytes(&mut secret);
    let report = tracer
        .span("contract.run_bonded_release", i, || {
            run_bonded_release(&mut world, spec, &secret, &mut rng)
        })
        .map_err(|e| e.to_string())?;
    record(
        stats,
        report.released.is_some(),
        report.clean_emergence(),
        report.early_leak.is_some(),
        0,
    );
    stats.tally.withheld += u64::from(report.failure.is_some());
    stats.tally.slashed += report.slashed;
    tracer.span("contract.drop", i, || drop(world));
    Ok(())
}

/// A traced run: the same trials through the library and through the
/// replay.
#[derive(Debug)]
pub struct Traced {
    /// Outcome counts of the library's range calls.
    pub library: Tally,
    /// What the replay counted.
    pub replay: ReplayStats,
    /// Wall time of the library's range calls.
    pub untraced_s: f64,
    /// Wall time of the traced replay.
    pub traced_s: f64,
    /// Every thread's spans.
    pub tracers: Vec<Tracer>,
    /// Times the library called the factory/reseed closure.
    pub closure_calls: usize,
    /// Per-trial latencies of the library's range calls, nanoseconds,
    /// ascending.
    pub latencies_ns: Vec<u64>,
}

/// Whether phase `phase` of a traced run is a replay. Rounds alternate
/// which path goes first, so drift on a shared host hits both alike.
fn is_replay(phase: usize) -> bool {
    (phase % 2 == 1) != ((phase / 2) % 2 == 1)
}

/// Runs trials `[0, trials)` twice on `threads` threads — through the
/// library's range loop and through the traced replay — in `rounds`
/// rounds of two phases each.
///
/// # Errors
///
/// A library error in either path.
pub fn run_traced(
    input: &InProcess,
    trials: usize,
    threads: usize,
    rounds: usize,
) -> Result<Traced, String> {
    struct State {
        lane: Lane,
        replay_lane: ReplayLane,
        tracer: Tracer,
        stamps: Vec<u64>,
        library: Tally,
        replay: ReplayStats,
        latencies: Vec<u64>,
        calls: usize,
    }
    let epoch = Instant::now();
    let rounds = shard_ranges(trials, rounds);
    let per_thread = trials.div_ceil(threads) + rounds.len();
    let (states, walls) = run_phases(
        threads,
        2 * rounds.len(),
        |_| State {
            lane: Lane::new(input),
            replay_lane: ReplayLane::new(input),
            tracer: Tracer::new(epoch, per_thread * SPANS_PER_TRIAL),
            stamps: Vec::with_capacity(per_thread),
            library: Tally::default(),
            replay: ReplayStats::default(),
            latencies: Vec::with_capacity(per_thread),
            calls: 0,
        },
        |t, s, phase| {
            let (first, count) = rounds[phase / 2];
            let (offset, n) = shard_ranges(count, threads)[t];
            let start = nanos_since(epoch);
            if is_replay(phase) {
                let stats =
                    replay_range(input, &mut s.replay_lane, first + offset, n, &mut s.tracer)?;
                s.replay.add(&stats);
                s.tracer.add_wall(nanos_since(epoch) - start);
            } else {
                s.stamps.clear();
                let outcome =
                    run_range(input, &mut s.lane, first + offset, n, epoch, &mut s.stamps)?;
                latencies(&s.stamps, nanos_since(epoch), &mut s.latencies);
                s.library.add(&outcome.tally());
                s.calls += s.stamps.len();
            }
            Ok(())
        },
        |s| (s.tracer, s.library, s.replay, s.calls, s.latencies),
    )?;
    let mut traced = Traced {
        library: Tally::default(),
        replay: ReplayStats::default(),
        untraced_s: 0.0,
        traced_s: 0.0,
        tracers: Vec::with_capacity(states.len()),
        closure_calls: 0,
        latencies_ns: Vec::with_capacity(trials),
    };
    for (phase, wall) in walls.into_iter().enumerate() {
        if is_replay(phase) {
            traced.traced_s += wall;
        } else {
            traced.untraced_s += wall;
        }
    }
    for (tracer, library, replay, calls, latencies) in states {
        traced.library.add(&library);
        traced.replay.add(&replay);
        traced.closure_calls += calls;
        traced.latencies_ns.extend(latencies);
        traced.tracers.push(tracer);
    }
    traced.latencies_ns.sort_unstable();
    Ok(traced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use emerge_sweep::grid::world_config;

    /// The drift guard: on a 500-node world, the replay's outcome counts
    /// equal the library's for every in-process workload, over a split
    /// range as well as a whole one.
    #[test]
    fn replay_matches_the_library_loop_on_small_worlds() {
        for workload in [
            Workload::Share,
            Workload::Joint,
            Workload::Faults,
            Workload::Bonded,
        ] {
            let input = InProcess {
                world: world_config(500),
                ..InProcess::new(workload, 0xB45E).expect("in-process workload")
            };
            let mut stamps = Vec::new();
            let library = run_range(
                &input,
                &mut Lane::new(&input),
                0,
                12,
                Instant::now(),
                &mut stamps,
            )
            .expect("library run")
            .tally();
            assert_eq!(
                stamps.len(),
                12,
                "{}: one closure call per trial",
                workload.name()
            );

            let mut lane = ReplayLane::new(&input);
            let mut tracer = Tracer::new(Instant::now(), 12 * SPANS_PER_TRIAL);
            let mut replay = replay_range(&input, &mut lane, 0, 5, &mut tracer).expect("replay");
            replay.add(&replay_range(&input, &mut lane, 5, 7, &mut tracer).expect("replay"));
            assert_eq!(library, replay.tally, "{} drifted", workload.name());
            assert!(
                library.trials == 12 && library.released > 0,
                "{}",
                workload.name()
            );
            assert!(tracer.spans().len() <= 12 * SPANS_PER_TRIAL);
        }
    }

    #[test]
    fn traced_run_reconciles_both_paths() {
        let input = InProcess {
            world: world_config(500),
            ..InProcess::new(Workload::Faults, 7).expect("in-process workload")
        };
        let traced = run_traced(&input, 24, 2, 2).expect("traced run");
        assert_eq!(traced.library, traced.replay.tally);
        assert_eq!(traced.closure_calls, 24);
        assert_eq!(traced.library.trials, 24);
        assert!(traced.untraced_s > 0.0 && traced.traced_s > 0.0);
        assert_eq!(traced.tracers.len(), 2);
    }
}
