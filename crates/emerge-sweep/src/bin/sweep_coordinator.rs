//! The sweep coordinator process: partitions a grid into idempotent
//! units, dispatches them to `sweep_worker` child processes, journals
//! completions, and merges exactly.
//!
//! `--self-test` is the CI entry point: it runs the serial reference, a
//! clean distributed sweep, a chaos sweep (workers killing themselves,
//! stalling and corrupting output), and a kill/resume pass (the
//! coordinator stops mid-sweep, then a second coordinator resumes from
//! the journal) — and exits non-zero unless every pass produced
//! bit-identical outcome and telemetry fingerprints.

use std::path::PathBuf;

use emerge_faults::{HedgePolicy, RecoveryPolicy, RetryPolicy, TimeoutPolicy};
use emerge_sweep::coordinator::{
    assert_outcomes_identical, run_serial, Coordinator, SweepConfig, SweepOutcome,
};
use emerge_sweep::error::SweepError;
use emerge_sweep::grid::SweepGrid;
use emerge_sweep::links::{ProcessWorkerLink, WorkerLink};
use emerge_sweep::report::{render_sweep_report, SweepRun};

struct Options {
    grid: String,
    trials: Option<usize>,
    unit_trials: usize,
    workers: usize,
    journal: Option<PathBuf>,
    chaos: Option<u64>,
    stall_ms: u64,
    max_units: Option<usize>,
    out: Option<PathBuf>,
    prom: Option<PathBuf>,
    deadline_ms: u64,
    hedge_ms: u64,
    retries: u32,
    worker_cmd: Option<Vec<String>>,
    progress: bool,
    self_test: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            grid: "share_8x3".to_string(),
            trials: None,
            unit_trials: 25,
            workers: 3,
            journal: None,
            chaos: None,
            stall_ms: 300,
            max_units: None,
            out: None,
            prom: None,
            deadline_ms: 10_000,
            hedge_ms: 150,
            retries: 4,
            worker_cmd: None,
            progress: false,
            self_test: false,
        }
    }
}

const USAGE: &str = "\
sweep_coordinator [options]
  --grid NAME          built-in grid (share_8x3, schemes_2x3)
  --trials N           trials per cell (overrides the grid default)
  --unit-trials N      trials per work unit (default 25)
  --workers N          worker processes (default 3)
  --journal PATH       append-only completion journal (enables resume)
  --chaos SEED         seeded worker self-chaos (kills, stalls, corruption)
  --stall-ms N         chaos stall length (default 300)
  --max-units N        pause after N completed units (resume later)
  --out PATH           write the JSON sweep report here
  --prom PATH          stream Prometheus counters here
  --deadline-ms N      per-dispatch deadline (default 10000)
  --hedge-ms N         hedge stragglers after this long (default 150)
  --retries N          dispatch attempts per unit (default 4)
  --worker-cmd CMD     worker command (default: sibling sweep_worker)
  --progress           progress lines on stderr
  --self-test          serial/clean/chaos/kill+resume equality check (CI)";

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse::<u64>(),
    };
    parsed.map_err(|e| format!("bad number {s:?}: {e}"))
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or(format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--grid" => opts.grid = value(&mut args, "--grid")?,
            "--trials" => {
                opts.trials = Some(
                    usize::try_from(parse_u64(&value(&mut args, "--trials")?)?)
                        .map_err(|e| e.to_string())?,
                );
            }
            "--unit-trials" => {
                opts.unit_trials = usize::try_from(parse_u64(&value(&mut args, "--unit-trials")?)?)
                    .map_err(|e| e.to_string())?;
            }
            "--workers" => {
                opts.workers = usize::try_from(parse_u64(&value(&mut args, "--workers")?)?)
                    .map_err(|e| e.to_string())?;
            }
            "--journal" => opts.journal = Some(PathBuf::from(value(&mut args, "--journal")?)),
            "--chaos" => opts.chaos = Some(parse_u64(&value(&mut args, "--chaos")?)?),
            "--stall-ms" => opts.stall_ms = parse_u64(&value(&mut args, "--stall-ms")?)?,
            "--max-units" => {
                opts.max_units = Some(
                    usize::try_from(parse_u64(&value(&mut args, "--max-units")?)?)
                        .map_err(|e| e.to_string())?,
                );
            }
            "--out" => opts.out = Some(PathBuf::from(value(&mut args, "--out")?)),
            "--prom" => opts.prom = Some(PathBuf::from(value(&mut args, "--prom")?)),
            "--deadline-ms" => opts.deadline_ms = parse_u64(&value(&mut args, "--deadline-ms")?)?,
            "--hedge-ms" => opts.hedge_ms = parse_u64(&value(&mut args, "--hedge-ms")?)?,
            "--retries" => {
                opts.retries = u32::try_from(parse_u64(&value(&mut args, "--retries")?)?)
                    .map_err(|e| e.to_string())?;
            }
            "--worker-cmd" => {
                let cmd = value(&mut args, "--worker-cmd")?;
                let parts: Vec<String> = cmd.split_whitespace().map(str::to_string).collect();
                if parts.is_empty() {
                    return Err("--worker-cmd must not be empty".to_string());
                }
                opts.worker_cmd = Some(parts);
            }
            "--progress" => opts.progress = true,
            "--self-test" => opts.self_test = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(opts)
}

fn worker_command(opts: &Options) -> Result<Vec<String>, SweepError> {
    if let Some(cmd) = &opts.worker_cmd {
        return Ok(cmd.clone());
    }
    // Default: the sweep_worker binary next to this coordinator binary.
    let me = std::env::current_exe()
        .map_err(|e| SweepError::io("locate sweep_coordinator binary", e))?;
    let dir = me
        .parent()
        .ok_or_else(|| SweepError::Config("coordinator binary has no parent dir".to_string()))?;
    let worker = dir.join("sweep_worker");
    Ok(vec![worker.to_string_lossy().into_owned()])
}

fn spawn_workers(
    opts: &Options,
    chaos: Option<u64>,
) -> Result<Vec<Box<dyn WorkerLink>>, SweepError> {
    let mut command = worker_command(opts)?;
    if let Some(seed) = chaos {
        command.push("--chaos".to_string());
        command.push(format!("0x{seed:x}"));
        command.push("--stall-ms".to_string());
        command.push(opts.stall_ms.to_string());
    }
    let mut workers: Vec<Box<dyn WorkerLink>> = Vec::with_capacity(opts.workers.max(1));
    for _ in 0..opts.workers.max(1) {
        workers.push(Box::new(ProcessWorkerLink::start(&command)?));
    }
    Ok(workers)
}

fn build_grid(opts: &Options) -> Result<SweepGrid, SweepError> {
    let grid = SweepGrid::builtin(&opts.grid)?;
    Ok(match opts.trials {
        Some(trials) => grid.with_trials_per_cell(trials),
        None => grid,
    })
}

fn sweep_config(opts: &Options, chaos: bool) -> SweepConfig {
    SweepConfig {
        unit_trials: opts.unit_trials,
        policy: RecoveryPolicy {
            retry: RetryPolicy {
                max_attempts: opts.retries,
                ..RetryPolicy::default()
            },
            timeout: TimeoutPolicy {
                per_attempt_ticks: opts.deadline_ms,
            },
            // Chaos stalls are meant to be out-hedged, so give chaotic
            // runs one extra concurrent copy to play with.
            hedge: HedgePolicy {
                fanout: if chaos { 3 } else { 2 },
            },
        },
        hedge_after_ms: opts.hedge_ms,
        max_units: opts.max_units,
        journal_path: opts.journal.clone(),
        prom_path: opts.prom.clone(),
        progress: opts.progress,
    }
}

fn run_distributed(
    opts: &Options,
    grid: &SweepGrid,
    chaos: Option<u64>,
    journal: Option<PathBuf>,
    max_units: Option<usize>,
) -> Result<SweepOutcome, SweepError> {
    let mut config = sweep_config(opts, chaos.is_some());
    config.journal_path = journal;
    config.max_units = max_units;
    let mut workers = spawn_workers(opts, chaos)?;
    Coordinator::new(grid.clone(), config).run(&mut workers)
}

fn write_report(opts: &Options, runs: &[SweepRun]) -> Result<(), SweepError> {
    let Some(path) = &opts.out else {
        return Ok(());
    };
    std::fs::write(path, render_sweep_report(runs))
        .map_err(|e| SweepError::io(&format!("write report {}", path.display()), e))
}

/// The CI smoke test: every pass must land on identical fingerprints.
fn self_test(opts: &Options) -> Result<(), SweepError> {
    let grid = build_grid(opts)?;
    let chaos_seed = opts.chaos.unwrap_or(0xC405_5EED);

    eprintln!("[self-test] serial reference...");
    let serial = run_serial(&grid)?;
    eprintln!(
        "[self-test] serial: fingerprint {:016x}, telemetry {:016x}, {:.2}s",
        serial.sweep_fingerprint, serial.telemetry_digest, serial.seconds
    );

    eprintln!(
        "[self-test] clean distributed sweep ({} workers)...",
        opts.workers
    );
    let clean = run_distributed(opts, &grid, None, None, None)?;
    assert_outcomes_identical("clean vs serial", &clean, &serial)?;
    eprintln!("[self-test] clean matches serial ({:.2}s)", clean.seconds);

    eprintln!("[self-test] chaos sweep (seed 0x{chaos_seed:x})...");
    let chaos = run_distributed(opts, &grid, Some(chaos_seed), None, None)?;
    assert_outcomes_identical("chaos vs serial", &chaos, &serial)?;
    eprintln!(
        "[self-test] chaos matches serial ({:.2}s; retries {}, hedges {}, restarts {}, \
         corrupt findings {}, dedup dropped {})",
        chaos.seconds,
        chaos.stats.retries,
        chaos.stats.hedges,
        chaos.stats.worker_restarts,
        chaos.stats.corrupt_findings,
        chaos.stats.dedup_dropped
    );

    // Kill/resume: complete roughly half the units under chaos, abandon
    // that coordinator, then resume from its journal with a fresh one.
    let journal = opts.journal.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!(
            "emerge-sweep-selftest-{}.journal",
            std::process::id()
        ))
    });
    let _ = std::fs::remove_file(&journal);
    let total = grid.units(opts.unit_trials.max(1)).len();
    let pause_at = (total / 2).max(1);
    eprintln!("[self-test] pass 1: pause after {pause_at}/{total} units, then kill...");
    let paused = run_distributed(
        opts,
        &grid,
        Some(chaos_seed),
        Some(journal.clone()),
        Some(pause_at),
    )?;
    if paused.complete() && total > 1 {
        return Err(SweepError::Mismatch(
            "pause pass unexpectedly completed the sweep".to_string(),
        ));
    }
    eprintln!(
        "[self-test] pass 2: resume from journal ({} units already done)...",
        paused.done_units
    );
    let resumed = run_distributed(opts, &grid, Some(chaos_seed), Some(journal.clone()), None)?;
    assert_outcomes_identical("resumed vs serial", &resumed, &serial)?;
    if resumed.stats.journal_replayed == 0 {
        return Err(SweepError::Mismatch(
            "resume pass replayed nothing from the journal".to_string(),
        ));
    }
    eprintln!(
        "[self-test] resume matches serial ({} units replayed, {} run fresh)",
        resumed.stats.journal_replayed,
        resumed.done_units - resumed.stats.journal_replayed as usize
    );
    let _ = std::fs::remove_file(&journal);

    write_report(
        opts,
        &[
            SweepRun {
                mode: "serial".to_string(),
                chaos_seed: None,
                workers: 0,
                outcome: serial,
            },
            SweepRun {
                mode: "clean".to_string(),
                chaos_seed: None,
                workers: opts.workers,
                outcome: clean,
            },
            SweepRun {
                mode: "chaos".to_string(),
                chaos_seed: Some(chaos_seed),
                workers: opts.workers,
                outcome: chaos,
            },
            SweepRun {
                mode: "chaos_resumed".to_string(),
                chaos_seed: Some(chaos_seed),
                workers: opts.workers,
                outcome: resumed,
            },
        ],
    )?;
    eprintln!("[self-test] all passes bit-identical");
    Ok(())
}

fn run(opts: &Options) -> Result<(), SweepError> {
    if opts.self_test {
        return self_test(opts);
    }
    let grid = build_grid(opts)?;
    let outcome = run_distributed(
        opts,
        &grid,
        opts.chaos,
        opts.journal.clone(),
        opts.max_units,
    )?;
    eprintln!(
        "[sweep] {}/{} units, fingerprint {:016x}, telemetry {:016x}, {:.2}s",
        outcome.done_units,
        outcome.total_units,
        outcome.sweep_fingerprint,
        outcome.telemetry_digest,
        outcome.seconds
    );
    let mode = if opts.chaos.is_some() {
        "chaos"
    } else {
        "clean"
    };
    write_report(
        opts,
        &[SweepRun {
            mode: mode.to_string(),
            chaos_seed: opts.chaos,
            workers: opts.workers,
            outcome,
        }],
    )
}

fn main() {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&opts) {
        eprintln!("sweep_coordinator: {e}");
        std::process::exit(1);
    }
}
