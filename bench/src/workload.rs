//! The five workloads: their inputs, trial counts and golden
//! fingerprints, and the untraced passes that time the library's range
//! calls from outside.

use std::sync::Barrier;
use std::time::Instant;

use emerge_contract::economy::HolderStrategy;
use emerge_contract::mc::{run_bonded_trial_range, BondedMcResults};
use emerge_contract::release::BondedSpec;
use emerge_contract::substrate::{ContractConfig, ContractSubstrate};
use emerge_core::config::SchemeParams;
use emerge_core::faults::{run_faulted_trial_range, FaultyMcResults};
use emerge_core::montecarlo::{
    run_protocol_trial_range, run_protocol_trial_range_pooled, shard_ranges, ProtocolMcResults,
    ProtocolTrialSpec, TrialWorkspace,
};
use emerge_core::protocol::AttackMode;
use emerge_dht::analytic::AnalyticSubstrate;
use emerge_dht::overlay::OverlayConfig;
use emerge_faults::{FaultPlan, RecoveryPolicy, Scenario};
use emerge_sim::metrics::Summary;
use emerge_sim::time::SimDuration;
use emerge_sweep::grid::world_config;

use crate::report::ratio;
use crate::stats::{latencies, median, percentile};
use crate::trace::nanos_since;

/// Seed used when `--seed` is not given; the golden fingerprints are
/// recorded at this seed.
pub const DEFAULT_SEED: u64 = 0xB45E;

/// Threads of the measured pass (and sweep workers): the reference
/// host's `nproc`.
pub const THREADS: usize = 2;

/// The `--seconds` value the trial counts are calibrated for.
pub const BASE_SECONDS: u32 = 10;

/// Minimum trials in any pass, so a p99 has ten samples beyond it.
const MIN_PASS_TRIALS: usize = 1_000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Share scheme (40×5) on 10k-node worlds, pooled trial loop.
    Share,
    /// Joint keyed onion scheme (4×8) on 10k-node worlds.
    Joint,
    /// Share scheme (8×3) on 1k-node worlds under a crash storm.
    Faults,
    /// Bonded (24, 16) contract release on 1k-node worlds.
    Bonded,
    /// The `schemes_2x3` sweep grid over worker processes.
    Sweep,
}

/// Trials of the two passes: the measured 2-thread pass and the
/// 1-thread pass over its first quarter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Trials of the 2-thread (2-worker) pass.
    pub two: usize,
    /// Trials of the 1-thread (1-worker) pass.
    pub one: usize,
}

impl Workload {
    /// Every workload, in the order the ledger reports them.
    pub const ALL: [Workload; 5] = [
        Workload::Share,
        Workload::Joint,
        Workload::Faults,
        Workload::Bonded,
        Workload::Sweep,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Share => "share_40x5",
            Workload::Joint => "joint_4x8",
            Workload::Faults => "faults_share_8x3",
            Workload::Bonded => "bonded_24x16",
            Workload::Sweep => "sweep_schemes",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Trials of the 2-thread pass per [`BASE_SECONDS`] of `--seconds`,
    /// set so the 2-thread pass plus the 1-thread pass over its first
    /// quarter take about that long on a 2-core AMD EPYC (AVX-512) host.
    fn base_trials(self) -> usize {
        match self {
            Workload::Share => 8_800,
            Workload::Joint => 29_600,
            Workload::Faults => 104_000,
            Workload::Bonded => 272_000,
            Workload::Sweep => 233_600,
        }
    }

    /// Pass sizes are multiples of this, so rounds divide evenly and the
    /// first quarter of a pass is whole rounds, and so do the sweep's four
    /// cells down to the sixteenth of a pass its traced run uses.
    fn quantum(self) -> usize {
        match self {
            Workload::Sweep => 4 * 4 * 4 * crate::sweep::UNIT_TRIALS,
            _ => ROUNDS,
        }
    }

    /// Trial counts of a measured run lasting about `seconds`. Every pass
    /// keeps at least 1,000 latency samples: trials in-process (so the
    /// 2-thread pass has at least 4,000, its quarter 1,000), 100-trial
    /// units for the sweep.
    pub fn counts(self, seconds: u32) -> Counts {
        let scaled = self.base_trials() * seconds as usize / BASE_SECONDS as usize;
        let floor = match self {
            Workload::Sweep => MIN_PASS_TRIALS * crate::sweep::UNIT_TRIALS,
            _ => MIN_PASS_TRIALS * 4,
        };
        let two = scaled.max(floor).next_multiple_of(self.quantum());
        Counts { two, one: two / 4 }
    }

    /// Trial counts of `--check`: 1/20 of a [`BASE_SECONDS`] run.
    pub fn check_counts(self) -> Counts {
        let two = (self.base_trials() / 20).next_multiple_of(self.quantum());
        Counts { two, one: two / 4 }
    }

    /// Golden fingerprints at [`DEFAULT_SEED`] of the 2-thread pass over
    /// `trials` (for the sweep: of its grid of `trials`):
    /// `[fingerprint, fault_fingerprint]`. The second is 0 except for the
    /// faulted workload; the sweep's first entry is its
    /// `sweep_fingerprint`. `None` when no value is recorded for that
    /// size.
    pub fn golden(self, trials: usize) -> Option<[u64; 2]> {
        GOLDEN
            .iter()
            .find(|(w, n, _)| *w == self && *n == trials)
            .map(|(_, _, fp)| *fp)
    }
}

/// Recorded golden fingerprints: `(workload, trials, value)`, for
/// `--check` and for `--seconds 10`.
const GOLDEN: &[(Workload, usize, [u64; 2])] = &[
    (Workload::Share, 440, [0xe73a_af30_855a_0fee, 0]),
    (Workload::Share, 8_800, [0x7506_bb70_ca1d_68d5, 0]),
    (Workload::Joint, 1_480, [0x5d53_62d2_903e_9492, 0]),
    (Workload::Joint, 29_600, [0x0aed_5d7e_4afd_fccd, 0]),
    (
        Workload::Faults,
        5_200,
        [0xcd3e_0939_c460_10d2, 0x34d3_fe57_0efb_1efc],
    ),
    (
        Workload::Faults,
        104_000,
        [0xcbd1_3f27_292c_0a46, 0xcf40_7f85_27b3_1212],
    ),
    (Workload::Bonded, 13_600, [0xd75d_f1d2_6b19_f122, 0]),
    (Workload::Bonded, 272_000, [0x452b_af81_a14c_0e30, 0]),
    (Workload::Sweep, 3_200, [0xbc7e_14cc_2d83_dbca, 0]),
    (Workload::Sweep, 59_200, [0x339a_7df0_d3fa_9ba9, 0]),
];

/// What one in-process workload runs.
#[derive(Debug, Clone)]
pub enum Case {
    /// Share scheme through the pooled trial loop.
    Share(ProtocolTrialSpec),
    /// Keyed scheme through the allocating trial loop.
    Joint(ProtocolTrialSpec),
    /// Share scheme through the fault-plane trial loop.
    Faulted(ProtocolTrialSpec, FaultPlan),
    /// Contract-native bonded release.
    Bonded(BondedSpec),
}

/// An in-process workload's complete input: the case, its world and the
/// seed of every trial stream.
#[derive(Debug, Clone)]
pub struct InProcess {
    /// What runs.
    pub case: Case,
    /// The world every trial builds.
    pub world: OverlayConfig,
    /// Base seed of the trial streams.
    pub seed: u64,
}

impl InProcess {
    /// The input of `workload` at `seed`; `None` for the sweep, which
    /// runs in worker processes.
    pub fn new(workload: Workload, seed: u64) -> Option<InProcess> {
        let period = SimDuration::from_ticks(8_000);
        let spec = |params| ProtocolTrialSpec {
            params,
            emerging_period: period,
            attack: AttackMode::ReleaseAhead,
        };
        let (case, population) = match workload {
            Workload::Share => (
                Case::Share(spec(SchemeParams::Share {
                    k: 3,
                    l: 5,
                    n: 40,
                    m: vec![18, 18, 18, 20],
                })),
                10_000,
            ),
            Workload::Joint => (
                Case::Joint(spec(SchemeParams::Joint { k: 4, l: 8 })),
                10_000,
            ),
            Workload::Faults => (
                Case::Faulted(
                    spec(SchemeParams::Share {
                        k: 2,
                        l: 3,
                        n: 8,
                        m: vec![4, 4],
                    }),
                    // Horizon 10k ticks: the 8k-tick emerging period plus
                    // headroom, so the storm overlaps the trials.
                    Scenario::CrashStorm.plan(150_000, 10_000, seed),
                ),
                1_000,
            ),
            Workload::Bonded => (
                Case::Bonded(BondedSpec {
                    n: 24,
                    m: 16,
                    emerging_period: period,
                    reveal_window_blocks: 1,
                    strategy: HolderStrategy::Rational {
                        withhold_bribe: 100,
                        early_reveal_bribe: 100,
                    },
                }),
                1_000,
            ),
            Workload::Sweep => return None,
        };
        Some(InProcess {
            case,
            world: world_config(population),
            seed,
        })
    }
}

/// Per-thread state the library's trial loops reuse across calls: the
/// share workload's in-place-rebuilt world and trial workspace.
#[derive(Debug)]
pub struct Lane {
    pooled: Option<(AnalyticSubstrate, TrialWorkspace)>,
}

impl Lane {
    /// The state `input`'s trial loop needs.
    pub fn new(input: &InProcess) -> Lane {
        Lane {
            pooled: matches!(input.case, Case::Share(_)).then(|| {
                (
                    AnalyticSubstrate::build(input.world, 0),
                    TrialWorkspace::new(),
                )
            }),
        }
    }
}

/// Outcome counts of a batch of trials: what the traced replay must
/// reproduce exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Trials run.
    pub trials: u64,
    /// Trials whose secret was released.
    pub released: u64,
    /// Trials with a clean emergence.
    pub clean: u64,
    /// Trials where the adversary had the secret before release time.
    pub early: u64,
    /// Bonded trials starved below the reveal quorum.
    pub withheld: u64,
    /// Faulted trials released despite a disruption.
    pub degraded: u64,
    /// Faulted trials with at least one disruption.
    pub disrupted: u64,
    /// Messages sent, summed.
    pub messages: u64,
    /// Injected disruptions, summed.
    pub disruptions: u64,
    /// Bond value slashed, summed.
    pub slashed: u64,
}

impl Tally {
    /// Adds another batch.
    pub fn add(&mut self, other: &Tally) {
        self.trials += other.trials;
        self.released += other.released;
        self.clean += other.clean;
        self.early += other.early;
        self.withheld += other.withheld;
        self.degraded += other.degraded;
        self.disrupted += other.disrupted;
        self.messages += other.messages;
        self.disruptions += other.disruptions;
        self.slashed += other.slashed;
    }
}

/// Sum of a summary's samples (all integer-valued here).
fn total(s: &Summary) -> u64 {
    if s.count() == 0 {
        return 0;
    }
    (s.mean() * s.count() as f64).round() as u64
}

/// The library's result of a range call.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Plain wire-protocol results.
    Protocol(ProtocolMcResults),
    /// Fault-plane results.
    Faulted(FaultyMcResults),
    /// Bonded-release results.
    Bonded(BondedMcResults),
}

impl Outcome {
    /// Merges a disjoint batch of the same kind.
    ///
    /// # Panics
    ///
    /// When the kinds differ, which no pass produces.
    pub fn merge(&mut self, other: &Outcome) {
        match (self, other) {
            (Outcome::Protocol(a), Outcome::Protocol(b)) => a.merge(b),
            (Outcome::Faulted(a), Outcome::Faulted(b)) => a.merge(b),
            (Outcome::Bonded(a), Outcome::Bonded(b)) => a.merge(b),
            _ => panic!("merged outcomes of different workloads"),
        }
    }

    /// `[fingerprint, fault_fingerprint]`.
    pub fn fingerprints(&self) -> [u64; 2] {
        match self {
            Outcome::Protocol(r) => [r.fingerprint, 0],
            Outcome::Faulted(r) => [r.base.fingerprint, r.fault_fingerprint],
            Outcome::Bonded(r) => [r.fingerprint, 0],
        }
    }

    /// The outcome counts.
    pub fn tally(&self) -> Tally {
        let protocol = |r: &ProtocolMcResults| Tally {
            trials: r.released.trials(),
            released: r.released.successes(),
            clean: r.clean.successes(),
            early: r.reconstructed_early.successes(),
            messages: total(&r.messages),
            ..Tally::default()
        };
        match self {
            Outcome::Protocol(r) => protocol(r),
            Outcome::Faulted(r) => Tally {
                degraded: r.degraded.successes(),
                disrupted: r.disrupted.successes(),
                disruptions: total(&r.disruptions),
                ..protocol(&r.base)
            },
            Outcome::Bonded(r) => Tally {
                trials: r.released.trials(),
                released: r.released.successes(),
                clean: r.clean.successes(),
                early: r.leaked_early.successes(),
                withheld: r.withheld_quorum.successes(),
                slashed: total(&r.slashed),
                ..Tally::default()
            },
        }
    }
}

/// Runs trials `[first, first + count)` through the library's range
/// call for `input`. The factory (or reseed) closure pushes a
/// timestamp onto `stamps` each time the library calls it — once at the
/// start of every trial.
///
/// # Errors
///
/// The library's error, as text.
pub fn run_range(
    input: &InProcess,
    lane: &mut Lane,
    first: usize,
    count: usize,
    epoch: Instant,
    stamps: &mut Vec<u64>,
) -> Result<Outcome, String> {
    let world = input.world;
    let seed = input.seed;
    let mut stamp = || stamps.push(nanos_since(epoch));
    match &input.case {
        Case::Share(spec) => {
            let (substrate, workspace) = lane
                .pooled
                .as_mut()
                .ok_or("share lane has no pooled world")?;
            run_protocol_trial_range_pooled(
                spec,
                first,
                count,
                seed,
                substrate,
                |s, world_seed| {
                    stamp();
                    s.rebuild(world_seed);
                },
                workspace,
            )
            .map(Outcome::Protocol)
            .map_err(|e| e.to_string())
        }
        Case::Joint(spec) => run_protocol_trial_range(spec, first, count, seed, |world_seed| {
            stamp();
            AnalyticSubstrate::build(world, world_seed)
        })
        .map(Outcome::Protocol)
        .map_err(|e| e.to_string()),
        Case::Faulted(spec, plan) => run_faulted_trial_range(
            spec,
            plan,
            RecoveryPolicy::default(),
            first,
            count,
            seed,
            |world_seed| {
                stamp();
                AnalyticSubstrate::build(world, world_seed)
            },
        )
        .map(Outcome::Faulted)
        .map_err(|e| e.to_string()),
        Case::Bonded(spec) => run_bonded_trial_range(spec, first, count, seed, |world_seed| {
            stamp();
            ContractSubstrate::build(ContractConfig::over(world), world_seed)
        })
        .map(Outcome::Bonded)
        .map_err(|e| e.to_string()),
    }
}

/// Runs `phases` phases on `threads` scoped threads. Each thread builds
/// its state with `prepare` (untimed); every phase starts on all threads
/// at once at a barrier and runs `work(thread, state, phase)`. A thread
/// whose work failed skips its later phases but keeps meeting the
/// barrier, so its peers are never left waiting.
///
/// Returns each thread's `finish(state)` and each phase's wall time, from
/// the first thread's start to the last thread's end.
///
/// # Errors
///
/// The first failing thread's error (in thread order), or a panic.
pub fn run_phases<S, T: Send>(
    threads: usize,
    phases: usize,
    prepare: impl Fn(usize) -> S + Sync,
    work: impl Fn(usize, &mut S, usize) -> Result<(), String> + Sync,
    finish: impl Fn(S) -> T + Sync,
) -> Result<(Vec<T>, Vec<f64>), String> {
    type Marks = Vec<(u64, u64)>;
    let barrier = Barrier::new(threads);
    let epoch = Instant::now();
    let runs: Vec<Result<(T, Marks), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (prepare, work, finish, barrier) = (&prepare, &work, &finish, &barrier);
                scope.spawn(move || {
                    let mut state = prepare(t);
                    let mut marks = Vec::with_capacity(phases);
                    let mut error = None;
                    for phase in 0..phases {
                        barrier.wait();
                        let start = nanos_since(epoch);
                        if error.is_none() {
                            error = work(t, &mut state, phase).err();
                        }
                        marks.push((start, nanos_since(epoch)));
                    }
                    match error {
                        Some(e) => Err(e),
                        None => Ok((finish(state), marks)),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("worker thread panicked".to_string()))
            })
            .collect()
    });
    let runs = runs.into_iter().collect::<Result<Vec<_>, _>>()?;
    let walls = (0..phases)
        .map(|p| {
            let start = runs.iter().map(|r| r.1[p].0).min().unwrap_or(0);
            let end = runs.iter().map(|r| r.1[p].1).max().unwrap_or(0);
            end.saturating_sub(start) as f64 / 1e9
        })
        .collect();
    Ok((runs.into_iter().map(|r| r.0).collect(), walls))
}

/// Rounds of a pass. Rates and latency medians are reported as the
/// median over rounds, so one round disturbed by another tenant of the
/// host does not move the result. The first quarter of the rounds covers
/// the quarter of the trials the 1-thread pass runs.
pub const ROUNDS: usize = 8;

/// One untraced pass.
#[derive(Debug)]
pub struct Pass {
    /// Merged results of every range call.
    pub outcome: Outcome,
    /// Merged results of the first quarter of the rounds,
    /// `[0, trials / 4)` when `trials` is a multiple of [`ROUNDS`].
    pub head: Outcome,
    /// Median over rounds of trials ÷ round wall time.
    pub rate: f64,
    /// Median over rounds of each round's median per-trial latency, in
    /// nanoseconds (`None` when no round ran a trial).
    pub p50_ns: Option<f64>,
    /// Times the library called the factory/reseed closure.
    pub closure_calls: usize,
    /// Trials run.
    pub trials: usize,
}

/// Runs trials `[0, trials)` on `threads` threads in [`ROUNDS`] rounds;
/// each round's range is split into one contiguous range call per
/// thread.
///
/// # Errors
///
/// A library error in any range call.
pub fn run_pass(input: &InProcess, trials: usize, threads: usize) -> Result<Pass, String> {
    struct State {
        lane: Lane,
        stamps: Vec<u64>,
        outcomes: Vec<Outcome>,
        latencies: Vec<Vec<u64>>,
        calls: usize,
    }
    let rounds = shard_ranges(trials, ROUNDS);
    let per_call = trials.div_ceil(ROUNDS).div_ceil(threads) + 1;
    let epoch = Instant::now();
    let (runs, walls) = run_phases(
        threads,
        rounds.len(),
        |_| State {
            lane: Lane::new(input),
            stamps: Vec::with_capacity(per_call),
            outcomes: Vec::with_capacity(ROUNDS),
            latencies: (0..ROUNDS).map(|_| Vec::with_capacity(per_call)).collect(),
            calls: 0,
        },
        |t, s, round| {
            let (first, count) = rounds[round];
            let (offset, n) = shard_ranges(count, threads)[t];
            s.stamps.clear();
            let outcome = run_range(input, &mut s.lane, first + offset, n, epoch, &mut s.stamps)?;
            latencies(&s.stamps, nanos_since(epoch), &mut s.latencies[round]);
            s.calls += s.stamps.len();
            s.outcomes.push(outcome);
            Ok(())
        },
        |s| (s.outcomes, s.latencies, s.calls),
    )?;
    let mut round_outcomes = (0..rounds.len()).map(|r| {
        let mut merged = runs[0].0[r].clone();
        for run in &runs[1..] {
            merged.merge(&run.0[r]);
        }
        merged
    });
    let mut outcome = round_outcomes
        .next()
        .ok_or("a pass has at least one round")?;
    let mut head = None;
    for (r, round) in round_outcomes.enumerate() {
        if r + 1 == ROUNDS / 4 {
            head = Some(outcome.clone());
        }
        outcome.merge(&round);
    }
    let head = head.unwrap_or_else(|| outcome.clone());
    let rates: Vec<f64> = rounds
        .iter()
        .zip(&walls)
        .map(|(&(_, count), &wall)| ratio(count as f64, wall))
        .collect();
    let p50s: Vec<f64> = (0..rounds.len())
        .filter_map(|r| {
            let mut round: Vec<u64> = runs
                .iter()
                .flat_map(|run| run.1[r].iter().copied())
                .collect();
            round.sort_unstable();
            percentile(&round, 50).map(|ns| ns as f64)
        })
        .collect();
    Ok(Pass {
        outcome,
        head,
        rate: median(&rates),
        p50_ns: (!p50s.is_empty()).then(|| median(&p50s)),
        closure_calls: runs.iter().map(|r| r.2).sum(),
        trials,
    })
}
