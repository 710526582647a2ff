//! Records the Monte-Carlo throughput baseline for every DHT substrate.
//!
//! Runs the wire-protocol Monte-Carlo (real path construction, packaging
//! and hop-by-hop execution) at the paper's scale — 10 000-node worlds —
//! on the `AnalyticSubstrate` DHT world and on the smart-contract
//! `ContractSubstrate`, plus the contract-native bonded-release cell,
//! and writes trials/sec for each to `BENCH_montecarlo.json` (first
//! non-flag CLI arg overrides the path).
//! Later PRs diff against the committed numbers.
//!
//! Trials run through the one Monte-Carlo driver,
//! `emerge_sim::shard::run_sharded`: contiguous trial ranges spread over
//! `EMERGE_MC_THREADS` worker threads (default: the machine's available
//! parallelism), each range call wrapped in `emerge_bench::profile::profiled`
//! so it runs under a per-worker `emerge-obs` collector. Results are
//! bit-identical to a serial run for any thread count; threads only
//! change the wall clock.
//!
//! Before measuring, a fingerprint cross-check on a small shared cell
//! proves both substrates still produce identical outcomes.
//!
//! ## Cell filters
//!
//! Single-cell dev loops don't need the full grid:
//!
//! ```sh
//! montecarlo_baseline --scheme joint            # joint cells only
//! montecarlo_baseline --cell share_8x3          # the CI-sized share cell
//! montecarlo_baseline --substrate contract      # contract substrate only
//! montecarlo_baseline --scheme share --substrate analytic out.json
//! ```
//!
//! `--cell` and `--scheme` are the same filter — a case-insensitive
//! substring match on the cell name — and `--substrate` matches the
//! substrate label. A filtered run skips the cross-substrate parity
//! gate (it may not measure comparable pairs) and is meant for iteration,
//! not for re-recording the committed baseline.
//!
//! ## Fault frontier
//!
//! `--faults <scenario|all>` replaces the throughput grid with the
//! survival-vs-fault-intensity frontier: the CI-sized share cell runs
//! under the named deterministic fault scenario (or, for `all`, under
//! loss bursts, correlated outages, crash storms and churn storms, plus
//! block-clock skew on the bonded contract cell) at three intensities,
//! recording release/clean rates with the degraded-success rate — trials
//! that released *despite* injected disruptions — broken out per cell:
//!
//! ```sh
//! montecarlo_baseline --faults all BENCH_montecarlo_faults.json
//! montecarlo_baseline --faults crash_storm /tmp/crash_frontier.json
//! ```
//!
//! Fault injection is a pure function of `(plan, world seed)`, so the
//! frontier is bit-identical for any `EMERGE_MC_THREADS` value.
//!
//! ## Perf floor
//!
//! `--floor <trials/sec>` turns the run into a smoke gate: if any
//! measured cell falls below the floor the process exits nonzero. CI
//! runs the CI-sized `share_8x3_release_ahead` cell this way so a future
//! change cannot silently undo the flat-format packaging win:
//!
//! ```sh
//! montecarlo_baseline --cell share_8x3 --substrate analytic --floor 120 /tmp/perf.json
//! ```
//!
//! ## Phase profiling
//!
//! `--profile` adds a `"phases"` array to every cell's report entry: the
//! per-phase time/allocation/seal-volume breakdown collected from the
//! trial pipeline's `emerge-obs` spans (world rebuild, path
//! construction, package build, share execution — plus the bonded
//! engine's phases on the contract cell). The binary installs the
//! counting allocator, so the `allocs` column is live; on the pooled
//! share cells it shows the steady state holding at zero.
//!
//! Environment: `EMERGE_BASELINE_TRIALS` (default 1000) and
//! `EMERGE_MC_THREADS`.

use emerge_bench::parallel::mc_threads;
use emerge_bench::profile::{phase_stats, profiled};
use emerge_bench::report::{render_montecarlo_report, validate_json, McMeasurement};
use emerge_contract::economy::HolderStrategy;
use emerge_contract::mc::{run_bonded_trial_range, run_bonded_trial_range_faulted};
use emerge_contract::release::BondedSpec;
use emerge_contract::substrate::{ContractConfig, ContractSubstrate};
use emerge_core::config::SchemeParams;
use emerge_core::faults::run_faulted_trial_range;
use emerge_core::montecarlo::{
    run_protocol_trial_range, run_protocol_trial_range_pooled, run_protocol_trials,
    ProtocolTrialSpec, TrialWorkspace,
};
use emerge_core::protocol::AttackMode;
use emerge_dht::analytic::AnalyticSubstrate;
use emerge_dht::overlay::OverlayConfig;
use emerge_faults::{FaultyResults, RecoveryPolicy, Scenario};
use emerge_obs::alloccount::CountingAllocator;
use emerge_obs::Stopwatch;
use emerge_sim::shard::{run_sharded, Merge};
use emerge_sim::time::SimDuration;

/// Counting delegate around the system allocator, so the `--profile`
/// breakdown can attribute heap allocations to pipeline phases (and so a
/// profiled run can see the pooled pipeline's steady state stay at zero).
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const POPULATION: usize = 10_000;
const SEED: u64 = 0xB45E;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn world_config(n: usize) -> OverlayConfig {
    OverlayConfig {
        n_nodes: n,
        malicious_fraction: 0.2,
        mean_lifetime: Some(40_000),
        horizon: 200_000,
    }
}

fn cells() -> Vec<(&'static str, ProtocolTrialSpec)> {
    vec![
        (
            "joint_4x8_release_ahead",
            ProtocolTrialSpec {
                params: SchemeParams::Joint { k: 4, l: 8 },
                emerging_period: SimDuration::from_ticks(8_000),
                attack: AttackMode::ReleaseAhead,
            },
        ),
        (
            "share_40x5_release_ahead",
            ProtocolTrialSpec {
                params: SchemeParams::Share {
                    k: 3,
                    l: 5,
                    n: 40,
                    m: vec![18, 18, 18, 20],
                },
                emerging_period: SimDuration::from_ticks(8_000),
                attack: AttackMode::ReleaseAhead,
            },
        ),
        // A CI-sized share cell: same crypto path as share_40x5 at a
        // fraction of the cost, so automated runs can track the share hot
        // path without paying for the full-width grid.
        (
            "share_8x3_release_ahead",
            ProtocolTrialSpec {
                params: SchemeParams::Share {
                    k: 2,
                    l: 3,
                    n: 8,
                    m: vec![4, 4],
                },
                emerging_period: SimDuration::from_ticks(8_000),
                attack: AttackMode::ReleaseAhead,
            },
        ),
        // The deep-chain cell the flat format v2 unlocked: at l = 12 the
        // nested v1 format re-sealed every column ~6x over (O(l²·n) AEAD
        // volume), making long just-in-time key-release chains
        // prohibitively slow to simulate; v2 seals each column once.
        (
            "share_16x12_release_ahead",
            ProtocolTrialSpec {
                params: SchemeParams::Share {
                    k: 3,
                    l: 12,
                    n: 16,
                    m: vec![8; 11],
                },
                emerging_period: SimDuration::from_ticks(12_000),
                attack: AttackMode::ReleaseAhead,
            },
        ),
    ]
}

/// The contract-native cell: a bonded `(m, n)` release against rational
/// holders offered a bribe that does *not* cover the deviation cost, so
/// the economics (not hop deadlines) carry the release.
fn bonded_cell() -> (&'static str, BondedSpec) {
    (
        "bonded_24x16_rational",
        BondedSpec {
            n: 24,
            m: 16,
            emerging_period: SimDuration::from_ticks(8_000),
            reveal_window_blocks: 1,
            strategy: HolderStrategy::Rational {
                withhold_bribe: 100,
                early_reveal_bribe: 100,
            },
        },
    )
}

/// Parsed CLI: output path plus optional cell-name / substrate filters
/// and a perf floor.
struct Args {
    out_path: String,
    scheme: Option<String>,
    substrate: Option<String>,
    /// Minimum acceptable trials/sec across the measured cells; any
    /// measurement below it makes the process exit nonzero. This is the
    /// CI perf-smoke gate: the workflow stores the floor and runs the
    /// CI-sized cell, so a future change cannot silently undo the
    /// share-packaging win.
    floor: Option<f64>,
    /// Include the per-phase time/alloc/seal-volume breakdown (from the
    /// pipeline's `emerge-obs` spans) in each cell's report entry.
    profile: bool,
    /// `--faults <scenario|all>`: instead of the throughput grid, sweep
    /// the named fault scenario (or every frontier scenario) over an
    /// intensity ladder on the CI-sized share cell, recording the
    /// survival-vs-fault-intensity frontier with degraded successes
    /// broken out from clean ones. `clock_skew` additionally runs the
    /// contract-native bonded cell, where skew slashes missed reveals.
    faults: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out_path: "BENCH_montecarlo.json".into(),
        scheme: None,
        substrate: None,
        floor: None,
        profile: false,
        faults: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--floor" => {
                let value = it
                    .next()
                    .ok_or_else(|| "--floor needs a trials/sec value".to_string())?;
                let parsed: f64 = value
                    .parse()
                    .map_err(|_| format!("--floor value {value:?} is not a number"))?;
                if !(parsed.is_finite() && parsed > 0.0) {
                    return Err(format!("--floor must be positive and finite, got {value}"));
                }
                args.floor = Some(parsed);
            }
            "--profile" => args.profile = true,
            "--faults" => {
                let value = it
                    .next()
                    .ok_or_else(|| {
                        format!(
                            "--faults needs a scenario (all, {})",
                            Scenario::all()
                                .iter()
                                .map(|s| s.name())
                                .collect::<Vec<_>>()
                                .join(", ")
                        )
                    })?
                    .to_lowercase();
                if value != "all" && Scenario::parse(&value).is_none() {
                    return Err(format!(
                        "unknown fault scenario {value:?}; supported: all, {}",
                        Scenario::all()
                            .iter()
                            .map(|s| s.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ));
                }
                args.faults = Some(value);
            }
            // --cell and --scheme are the same filter (a case-insensitive
            // substring match on the cell name); --cell reads better for
            // full names like `share_8x3_release_ahead`, --scheme for
            // family filters like `share`.
            "--cell" | "--scheme" => {
                args.scheme = Some(
                    it.next()
                        .ok_or_else(|| format!("{arg} needs a value (e.g. {arg} share_8x3)"))?
                        .to_lowercase(),
                );
            }
            "--substrate" => {
                args.substrate = Some(
                    it.next()
                        .ok_or_else(|| {
                            "--substrate needs a value (analytic or contract)".to_string()
                        })?
                        .to_lowercase(),
                );
            }
            flag if flag.starts_with("--") => {
                return Err(format!(
                    "unknown flag {flag}; supported: --cell <substr>, --scheme <substr>, \
                     --substrate <substr>, --floor <trials/sec>, --profile, \
                     --faults <scenario|all>"
                ));
            }
            path => args.out_path = path.to_string(),
        }
    }
    Ok(args)
}

impl Args {
    fn wants_cell(&self, cell: &str) -> bool {
        self.scheme
            .as_deref()
            .is_none_or(|f| cell.to_lowercase().contains(f))
    }

    fn wants_substrate(&self, substrate: &str) -> bool {
        self.substrate
            .as_deref()
            .is_none_or(|f| substrate.contains(f))
    }

    fn filtered(&self) -> bool {
        self.scheme.is_some() || self.substrate.is_some()
    }
}

/// Runs and records one cell: `trials` through the one Monte-Carlo driver
/// on `threads` workers, each shard's `range(first_trial, count)` call
/// profiled. The recorded and the executed trials/threads cannot drift.
fn measure<R, E, F>(
    cell: &str,
    substrate: &'static str,
    threads: usize,
    trials: usize,
    profile: bool,
    range: F,
) -> Result<McMeasurement, String>
where
    F: Fn(usize, usize) -> Result<R, E> + Sync,
    R: CellRates + Merge + Default + Send,
    E: std::fmt::Display + Send,
{
    eprintln!(
        "measuring {cell} on {substrate} ({trials} trials at N={POPULATION}, {threads} threads)..."
    );
    let watch = Stopwatch::start();
    let (results, telemetry) = run_sharded(trials, threads, |first_trial, count| {
        profiled(|| range(first_trial, count))
    })
    .map_err(|e| format!("{cell} on {substrate}: {e}"))?;
    let seconds = watch.elapsed_secs();
    let m = McMeasurement {
        cell: cell.into(),
        substrate: substrate.into(),
        threads,
        trials,
        seconds,
        clean: results.clean_rate(),
        released: results.released_rate(),
        degraded: results.degraded_rate(),
        phases: if profile {
            phase_stats(&telemetry)
        } else {
            Vec::new()
        },
    };
    match m.degraded {
        Some(degraded) => eprintln!(
            "  {:.2} trials/sec (clean {:.3}, released {:.3}, degraded {:.3})",
            m.trials_per_sec(),
            m.clean,
            m.released,
            degraded
        ),
        None => eprintln!(
            "  {:.2} trials/sec (clean {:.3}, released {:.3})",
            m.trials_per_sec(),
            m.clean,
            m.released
        ),
    }
    for p in &m.phases {
        eprintln!(
            "    {:<24} {:>8.1} us/call  allocs {:<8} sealed {} B",
            p.phase,
            p.mean_nanos as f64 / 1e3,
            p.allocs,
            p.sealed_bytes
        );
    }
    Ok(m)
}

/// The rates every cell kind reports, whatever engine produced them.
/// Fault-scenario cells additionally break out the degraded-success rate
/// (released despite ≥1 injected disruption); faultless cells return
/// `None` and the report omits the key.
trait CellRates {
    fn clean_rate(&self) -> f64;
    fn released_rate(&self) -> f64;
    fn degraded_rate(&self) -> Option<f64> {
        None
    }
}

impl CellRates for emerge_core::montecarlo::ProtocolMcResults {
    fn clean_rate(&self) -> f64 {
        self.clean.value()
    }
    fn released_rate(&self) -> f64 {
        self.released.value()
    }
}

impl CellRates for emerge_contract::mc::BondedMcResults {
    fn clean_rate(&self) -> f64 {
        self.clean.value()
    }
    fn released_rate(&self) -> f64 {
        self.released.value()
    }
}

impl<B: CellRates> CellRates for FaultyResults<B> {
    fn clean_rate(&self) -> f64 {
        self.base.clean_rate()
    }
    fn released_rate(&self) -> f64 {
        self.base.released_rate()
    }
    fn degraded_rate(&self) -> Option<f64> {
        Some(self.degraded.value())
    }
}

/// Intensity ladder for the survival-vs-fault-intensity frontier, in
/// parts-per-million of the scenario's knob (loss probability, crash
/// probability, outage density, skew fraction, ...).
const FAULT_INTENSITIES_PPM: [u32; 3] = [50_000, 150_000, 400_000];

/// Fault plans are compiled over the protocol's *active* window (the
/// 8k-tick emerging period plus headroom), not the 200k-tick world
/// horizon: `Scenario::plan` spreads its burst across the middle 80% of
/// whatever horizon it is given, and a burst placed against the world
/// horizon would never overlap the trials.
const FAULT_HORIZON_TICKS: u64 = 10_000;

/// The scenarios `--faults all` sweeps on the wire-protocol path. Clock
/// skew is contract-native (it bends block clocks, not hop deadlines)
/// and runs on the bonded cell instead.
const FRONTIER: [Scenario; 4] = [
    Scenario::LossBurst,
    Scenario::CorrelatedOutage,
    Scenario::CrashStorm,
    Scenario::ChurnStorm,
];

/// Sweeps the selected fault scenario(s) over [`FAULT_INTENSITIES_PPM`]
/// on the CI-sized share cell (analytic substrate, default recovery
/// policy) and — for clock skew — on the bonded contract cell, recording
/// one measurement per `(scenario, intensity)` with the degraded-success
/// rate broken out.
fn fault_frontier(
    filter: &str,
    config: &OverlayConfig,
    trials: usize,
    threads: usize,
    profile: bool,
    measurements: &mut Vec<McMeasurement>,
) -> Result<(), String> {
    let (base_cell, spec) = cells()
        .into_iter()
        .find(|(name, _)| *name == "share_8x3_release_ahead")
        .ok_or("the share_8x3 cell vanished from the grid")?;
    let protocol_scenarios: Vec<Scenario> = if filter == "all" {
        FRONTIER.to_vec()
    } else {
        Scenario::parse(filter)
            .into_iter()
            .filter(|s| *s != Scenario::ClockSkew)
            .collect()
    };
    for scenario in protocol_scenarios {
        for ppm in FAULT_INTENSITIES_PPM {
            let plan = scenario.plan(ppm, FAULT_HORIZON_TICKS, SEED);
            let name = format!("{base_cell}+{}@{}ppm", scenario.name(), ppm);
            measurements.push(measure(
                &name,
                "analytic",
                threads,
                trials,
                profile,
                |first, count| {
                    run_faulted_trial_range(
                        &spec,
                        &plan,
                        RecoveryPolicy::default(),
                        first,
                        count,
                        SEED,
                        |s| AnalyticSubstrate::build(*config, s),
                    )
                },
            )?);
        }
    }
    if filter == "all" || filter == "clock_skew" {
        let (bonded_name, bonded_spec) = bonded_cell();
        for ppm in FAULT_INTENSITIES_PPM {
            let plan = Scenario::ClockSkew.plan(ppm, FAULT_HORIZON_TICKS, SEED);
            let name = format!("{bonded_name}+clock_skew@{ppm}ppm");
            measurements.push(measure(
                &name,
                "contract",
                threads,
                trials,
                profile,
                |first, count| {
                    run_bonded_trial_range_faulted(&bonded_spec, &plan, first, count, SEED, |s| {
                        ContractSubstrate::build(ContractConfig::over(*config), s)
                    })
                },
            )?);
        }
    }
    Ok(())
}

fn main() {
    if let Err(msg) = run() {
        eprintln!("error: {msg}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    let analytic_trials = env_usize("EMERGE_BASELINE_TRIALS", 1_000);
    let threads = mc_threads();

    // Cross-check first: both substrates must agree trial for trial on a
    // small shared cell — and the threaded runner must agree with itself
    // single-threaded — otherwise the throughput numbers compare
    // different computations. Filtered dev-loop runs skip the gate, and
    // so does the fault frontier (it measures survival, not throughput).
    if args.faults.is_some() {
        eprintln!("fault frontier mode: skipping the cross-substrate parity gate");
    } else if !args.filtered() {
        let check_spec = &cells()[0].1;
        let check_cfg = world_config(500);
        let fast = run_protocol_trials(check_spec, 10, SEED, |s| {
            AnalyticSubstrate::build(check_cfg, s)
        })
        .map_err(|e| format!("analytic parity check: {e}"))?;
        let chained = run_sharded(10, threads, |first, count| {
            run_protocol_trial_range(check_spec, first, count, SEED, |s| {
                ContractSubstrate::build(ContractConfig::over(check_cfg), s)
            })
        })
        .map_err(|e| format!("contract parity check: {e}"))?;
        if fast.fingerprint != chained.fingerprint {
            return Err(format!(
                "analytic/contract parity violated ({:#018x} vs {:#018x}); refusing to record a baseline",
                fast.fingerprint, chained.fingerprint
            ));
        }
        eprintln!(
            "parity check passed across 2 substrates (fingerprint {:#018x})",
            fast.fingerprint
        );
    } else {
        eprintln!("cell filters active: skipping the cross-substrate parity gate");
    }

    let config = world_config(POPULATION);
    let mut measurements = Vec::new();
    if let Some(filter) = args.faults.as_deref() {
        fault_frontier(
            filter,
            &config,
            analytic_trials,
            threads,
            args.profile,
            &mut measurements,
        )?;
    }
    for (cell, spec) in cells() {
        if args.faults.is_some() {
            break; // frontier mode replaces the throughput grid
        }
        if !args.wants_cell(cell) {
            continue;
        }
        if args.wants_substrate("analytic") {
            // Share cells run the in-place (zero-allocation) loop:
            // per-shard substrate rebuilt in place plus a recycled
            // TrialWorkspace. Bit-identical fingerprints to the factory
            // loop (pinned by the emerge-core and sharded telemetry
            // tests), so the parity gate above still covers it. The
            // keyed cell keeps the factory loop: its stages allocate
            // either way, and there a fresh `build` per trial measured
            // 2-7% faster than an in-place `rebuild`.
            let pooled = matches!(spec.params, SchemeParams::Share { .. });
            measurements.push(measure(
                cell,
                "analytic",
                threads,
                analytic_trials,
                args.profile,
                |first, count| {
                    if pooled {
                        let mut substrate = AnalyticSubstrate::build(config, 0);
                        run_protocol_trial_range_pooled(
                            &spec,
                            first,
                            count,
                            SEED,
                            &mut substrate,
                            |s, ws| s.rebuild(ws),
                            &mut TrialWorkspace::new(),
                        )
                    } else {
                        run_protocol_trial_range(&spec, first, count, SEED, |ws| {
                            AnalyticSubstrate::build(config, ws)
                        })
                    }
                },
            )?);
        }
        if args.wants_substrate("contract") {
            measurements.push(measure(
                cell,
                "contract",
                threads,
                analytic_trials,
                args.profile,
                |first, count| {
                    run_protocol_trial_range(&spec, first, count, SEED, |ws| {
                        ContractSubstrate::build(ContractConfig::over(config), ws)
                    })
                },
            )?);
        }
    }
    let (bonded_name, bonded_spec) = bonded_cell();
    if args.faults.is_none() && args.wants_cell(bonded_name) && args.wants_substrate("contract") {
        measurements.push(measure(
            bonded_name,
            "contract",
            threads,
            analytic_trials,
            args.profile,
            |first, count| {
                run_bonded_trial_range(&bonded_spec, first, count, SEED, |ws| {
                    ContractSubstrate::build(ContractConfig::over(config), ws)
                })
            },
        )?);
    }

    if measurements.is_empty() {
        eprintln!(
            "error: the filters matched no cells; available cells: {}, substrates: analytic, contract",
            cells()
                .iter()
                .map(|(name, _)| *name)
                .chain([bonded_name])
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(2);
    }

    let json = render_montecarlo_report(POPULATION, SEED, &measurements);
    if let Err((pos, msg)) = validate_json(&json) {
        eprintln!("error: generated report is not valid JSON at byte {pos}: {msg}");
        std::process::exit(1);
    }

    if let Err(e) = std::fs::write(&args.out_path, &json) {
        eprintln!("error: cannot write {}: {e}", args.out_path);
        std::process::exit(1);
    }
    eprintln!("wrote {}", args.out_path);

    // Perf-smoke gate: fail loudly when any measured cell regresses below
    // the floor.
    if let Some(floor) = args.floor {
        let mut failed = false;
        for m in &measurements {
            if m.trials_per_sec() < floor {
                eprintln!(
                    "PERF REGRESSION: {} on {} ran at {:.2} trials/sec, below the floor of {floor}",
                    m.cell,
                    m.substrate,
                    m.trials_per_sec()
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!(
            "perf floor {floor} trials/sec held across {} measurement(s)",
            measurements.len()
        );
    }

    Ok(())
}
