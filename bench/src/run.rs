//! The ledger's three run kinds: `measure` (untraced, end-to-end
//! metrics), `trace` (per-layer metrics from spans) and `check`
//! (correctness only, at 1/20 of the trial counts).

use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use emerge_sweep::coordinator::{assert_outcomes_identical, run_serial};

use crate::crypto;
use crate::replay::{replay_range, run_traced, ReplayLane, SPANS_PER_TRIAL};
use crate::report::{peak_rss_mib, ratio, Report, PER_LAYER};
use crate::stats::{median, percentile};
use crate::sweep::{self, SweepRun, UNIT_TRIALS};
use crate::trace::{write_json, Totals, Tracer};
use crate::workload::{
    run_pass, run_range, Counts, InProcess, Lane, Pass, Workload, DEFAULT_SEED, THREADS,
};

/// Cold starts per `setup_s`; the median is reported. A cold start is a
/// few milliseconds, mostly process start-up, so many are cheap and keep
/// the median steady.
pub const COLD_STARTS: usize = 21;

/// Rounds of the traced run, alternating which path goes first.
const TRACE_ROUNDS: usize = 8;

/// Where runs keep span files and sweep journals: `ledger-out` next to
/// the binary, inside the build directory.
///
/// # Errors
///
/// When the binary's location is unknown.
pub fn out_dir() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("locate ledger binary: {e}"))?;
    Ok(me.with_file_name("ledger-out"))
}

/// Runs `f` on `workload`'s input, recording an abort (every attempted
/// trial counted as failed) when it returns an error.
fn guarded(report: &mut Report, f: impl FnOnce(&mut Report) -> Result<(), String>) {
    if let Err(e) = f(report) {
        report.failures.push(e);
        report.failed = report.attempted;
    }
}

/// An untraced run: the 1-thread and 2-thread passes, cold starts and
/// peak memory.
pub fn measure(workload: Workload, seed: u64, counts: Counts) -> Report {
    let mut report = Report {
        attempted: (counts.one + counts.two) as u64,
        ..Report::default()
    };
    guarded(&mut report, |report| {
        match InProcess::new(workload, seed) {
            Some(input) => measure_in_process(workload, &input, counts, report)?,
            None => measure_sweep(seed, counts, report)?,
        }
        report.set(
            "peak_rss_mb",
            peak_rss_mib().ok_or("no VmHWM in /proc/self/status")?,
        );
        Ok(())
    });
    report
}

fn measure_in_process(
    workload: Workload,
    input: &InProcess,
    counts: Counts,
    report: &mut Report,
) -> Result<(), String> {
    let setup = setup_seconds(|| cold_start_child(workload, input.seed))?;
    let one = run_pass(input, counts.one, 1)?;
    let two = run_pass(input, counts.two, THREADS)?;
    check_passes(workload, input.seed, &one, &two, report);
    report.set("trials_per_sec", two.rate);
    report.set("trials_per_sec_1t", one.rate);
    if let Some(ns) = two.p50_ns {
        report.set("trial_p50_us", ns / 1e3);
    }
    report.set("setup_s", setup);
    Ok(())
}

/// The sweep's passes: one 1-worker run of a grid of `counts.one` trials,
/// then 2-worker runs of the same grid until they make `counts.two`
/// trials. Every run must merge to the same outcome. The 2-worker rate
/// and latency are medians over its runs, so one run disturbed by another
/// tenant of the host does not move the result.
fn measure_sweep(seed: u64, counts: Counts, report: &mut Report) -> Result<(), String> {
    let out = out_dir()?;
    let grid = sweep::grid(seed, counts.one)?;
    let setup = setup_seconds(|| sweep::cold_start(&grid))?;
    let one = sweep::run(&grid, 1, false, &out)?;
    check_sweep_run(&one, report);
    check_golden(
        Workload::Sweep,
        seed,
        one.trials,
        [one.outcome.sweep_fingerprint, 0],
        report,
    );
    let rounds = counts.two / counts.one;
    let mut rates = Vec::with_capacity(rounds);
    let mut p50s = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let two = sweep::run(&grid, THREADS, true, &out)?;
        check_sweep_run(&two, report);
        if let Err(e) =
            assert_outcomes_identical("2 workers vs 1 worker", &two.outcome, &one.outcome)
        {
            report.failures.push(e.to_string());
        }
        report.require(two.rtts_ns.len() >= two.outcome.total_units, || {
            format!(
                "{} unit round trips timed for {} units",
                two.rtts_ns.len(),
                two.outcome.total_units
            )
        });
        rates.push(ratio(two.trials as f64, two.wall_s));
        // A trial's share of its unit's round trip.
        if let Some(ns) = percentile(&two.rtts_ns, 50) {
            p50s.push(ns as f64 / 1e3 / UNIT_TRIALS as f64);
        }
    }
    report.set("trials_per_sec", median(&rates));
    report.set("trials_per_sec_1t", ratio(one.trials as f64, one.wall_s));
    if !p50s.is_empty() {
        report.set("trial_p50_us", median(&p50s));
    }
    report.set("setup_s", setup);
    Ok(())
}

/// Median of [`COLD_STARTS`] timings of `start`.
fn setup_seconds(mut start: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let mut times = Vec::with_capacity(COLD_STARTS);
    for _ in 0..COLD_STARTS {
        times.push(start()?);
    }
    Ok(median(&times))
}

/// Spawns this binary in cold-start mode and times it from spawn to the
/// line it prints after its first finished trial.
fn cold_start_child(workload: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate ledger binary: {e}"))?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(["--cold-start", "--workload", workload.name(), "--seed"])
        .arg(seed.to_string())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn cold start: {e}"))?;
    let mut line = String::new();
    let read = match child.stdout.take() {
        Some(out) => std::io::BufReader::new(out).read_line(&mut line),
        None => Ok(0),
    };
    let elapsed = start.elapsed().as_secs_f64();
    let status = child
        .wait()
        .map_err(|e| format!("wait for cold start: {e}"))?;
    if read.is_err() || !status.success() || line.trim() != "ready" {
        return Err(format!("cold start failed ({status})"));
    }
    Ok(elapsed)
}

/// The child side of a cold start: build, run trial 0, say so.
///
/// # Errors
///
/// A library error in the trial.
pub fn cold_start(workload: Workload, seed: u64) -> Result<(), String> {
    let input = InProcess::new(workload, seed).ok_or("the sweep has no in-process cold start")?;
    let mut lane = Lane::new(&input);
    run_range(&input, &mut lane, 0, 1, Instant::now(), &mut Vec::new())?;
    println!("ready");
    Ok(())
}

/// Thread-count equality, one closure call per trial, and the golden
/// fingerprints.
fn check_passes(workload: Workload, seed: u64, one: &Pass, two: &Pass, report: &mut Report) {
    for pass in [one, two] {
        report.require(pass.closure_calls == pass.trials, || {
            format!(
                "{} closure calls for {} trials: latency samples are invalid",
                pass.closure_calls, pass.trials
            )
        });
    }
    let head = &two.head;
    report.require(
        head.fingerprints() == one.outcome.fingerprints() && head.tally() == one.outcome.tally(),
        || {
            format!(
                "the 2-thread pass's first {} trials differ from the 1-thread pass: {:016x?} vs {:016x?}",
                one.trials,
                head.fingerprints(),
                one.outcome.fingerprints()
            )
        },
    );
    check_golden(
        workload,
        seed,
        two.trials,
        two.outcome.fingerprints(),
        report,
    );
}

fn check_golden(workload: Workload, seed: u64, trials: usize, got: [u64; 2], report: &mut Report) {
    if seed != DEFAULT_SEED {
        return;
    }
    match workload.golden(trials) {
        Some(golden) => report.require(golden == got, || {
            format!(
                "{} fingerprints {got:016x?} differ from the golden {golden:016x?}",
                workload.name()
            )
        }),
        None => eprintln!(
            "ledger: no golden fingerprint for {} at {trials} trials (got {got:016x?})",
            workload.name()
        ),
    }
}

fn check_sweep_run(run: &SweepRun, report: &mut Report) {
    let outcome = &run.outcome;
    report.require(outcome.complete(), || {
        format!(
            "sweep stopped at {}/{} units",
            outcome.done_units, outcome.total_units
        )
    });
    report.failed += (outcome.total_units.saturating_sub(outcome.done_units) * UNIT_TRIALS) as u64;
    let merged: usize = outcome.cells.iter().map(|c| c.trials).sum();
    report.require(merged == run.trials, || {
        format!("sweep merged {merged} of {} trials", run.trials)
    });
}

/// A traced run over the first quarter of the 2-thread pass. A layer the
/// workload does not run reads 0: the sweep's metrics on the in-process
/// workloads, and the in-process layers on the sweep, whose trials run
/// in the workers, out of the coordinator's sight.
pub fn trace(workload: Workload, seed: u64, counts: Counts, host: &str) -> Report {
    let mut report = Report::default();
    for (name, _) in PER_LAYER {
        report.set(name, 0.0);
    }
    guarded(&mut report, |report| {
        match InProcess::new(workload, seed) {
            Some(input) => trace_in_process(workload, &input, counts.two / 4, host, report)?,
            None => trace_sweep(seed, counts, report)?,
        }
        let rates = crypto::measure();
        report.set("crypto.aead_seal_mb_s_4k", rates.seal_4k);
        report.set("crypto.aead_seal_mb_s_64k", rates.seal_64k);
        report.set("crypto.aead_open_mb_s_4k", rates.open_4k);
        report.set("crypto.aead_open_mb_s_64k", rates.open_64k);
        report.set("crypto.shamir_split_per_s", rates.shamir_split_per_s);
        report.set("crypto.chacha20_mb_s", rates.chacha20);
        let bytes = report.values["package.bytes_per_trial"];
        let us = report.values["package.us_per_trial"];
        // The share of package time not explained by sealing its output
        // at the measured 64 KiB AEAD rate.
        let sealing_us = ratio(bytes, rates.seal_64k);
        report.set(
            "package.unattributed_frac",
            if us > 0.0 { 1.0 - sealing_us / us } else { 0.0 },
        );
        Ok(())
    });
    report
}

fn trace_in_process(
    workload: Workload,
    input: &InProcess,
    trials: usize,
    host: &str,
    report: &mut Report,
) -> Result<(), String> {
    report.attempted = 2 * trials as u64;
    let traced = run_traced(input, trials, THREADS, TRACE_ROUNDS)?;
    report.require(traced.library == traced.replay.tally, || {
        format!(
            "replayed outcome counts {:?} differ from the library's {:?}",
            traced.replay.tally, traced.library
        )
    });
    report.require(traced.closure_calls == trials, || {
        format!("{} closure calls for {trials} trials", traced.closure_calls)
    });

    let totals = Totals::of(&traced.tracers);
    let n = trials as f64;
    let tally = &traced.replay.tally;
    let per_trial_us = |ns: u64| ns as f64 / 1e3 / n;
    let share = |layer: &str| ratio(totals.layer_ns(layer) as f64, totals.root_ns as f64);
    let allocs = |layer: &str| totals.layer_allocs(layer) as f64 / n;
    let package_bytes = traced.replay.package_bytes as f64;
    report.set("dht.us_per_trial", per_trial_us(totals.layer_ns("dht")));
    report.set("dht.share", share("dht"));
    report.set("dht.allocs_per_trial", allocs("dht"));
    report.set("path.us_per_trial", per_trial_us(totals.layer_ns("path")));
    report.set("path.holders_per_trial", traced.replay.holders as f64 / n);
    report.set(
        "package.us_per_trial",
        per_trial_us(totals.layer_ns("package")),
    );
    report.set("package.share", share("package"));
    report.set("package.allocs_per_trial", allocs("package"));
    report.set("package.bytes_per_trial", package_bytes / n);
    report.set(
        "package.mb_per_s",
        ratio(package_bytes * 1e3, totals.layer_ns("package") as f64),
    );
    report.set(
        "protocol.us_per_trial",
        per_trial_us(totals.layer_ns("protocol")),
    );
    report.set("protocol.share", share("protocol"));
    report.set("protocol.allocs_per_trial", allocs("protocol"));
    report.set("protocol.messages_per_trial", tally.messages as f64 / n);
    report.set(
        "faults.arm_us_per_trial",
        per_trial_us(totals.name_ns("faults.arm")),
    );
    report.set("faults.disruptions_per_trial", tally.disruptions as f64 / n);
    report.set(
        "faults.recovered_frac",
        ratio(tally.degraded as f64, tally.disrupted as f64),
    );
    report.set(
        "contract.build_us_per_trial",
        per_trial_us(totals.name_ns("contract.build")),
    );
    report.set(
        "contract.release_us_per_trial",
        per_trial_us(totals.name_ns("contract.run_bonded_release")),
    );
    report.set("contract.allocs_per_trial", allocs("contract"));
    report.set("trial.us_per_trial", per_trial_us(totals.layer_ns("trial")));
    report.set(
        "trial.unattributed_frac",
        1.0 - ratio(totals.root_ns as f64, totals.wall_ns as f64),
    );
    report.set(
        "trace.overhead_frac",
        1.0 - ratio(traced.untraced_s, traced.traced_s),
    );
    if let Some(ns) = percentile(&traced.latencies_ns, 99) {
        report.set("trial.p99_us", ns as f64 / 1e3);
    }

    let path = out_dir()?.join(format!("trace-{}.json", workload.name()));
    std::fs::create_dir_all(path.parent().unwrap_or(&path))
        .and_then(|()| write_json(&path, host, &traced.tracers))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("ledger: spans written to {}", path.display());
    Ok(())
}

fn trace_sweep(seed: u64, counts: Counts, report: &mut Report) -> Result<(), String> {
    let out = out_dir()?;
    // Four runs over a quarter each, untimed and timed links alternating
    // so drift hits both. The two timed runs give at least 1,000 unit
    // round trips, enough for a p99.
    let quarter = sweep::grid(seed, counts.two / 4)?;
    let reduced = sweep::grid(seed, counts.two / 16)?;
    let mut untimed_s = 0.0;
    let mut timed = Vec::with_capacity(2);
    let mut reference = None;
    for with_timing in [false, true, true, false] {
        let run = sweep::run(&quarter, THREADS, with_timing, &out)?;
        check_sweep_run(&run, report);
        report.attempted += run.trials as u64;
        match &reference {
            None => reference = Some(run.outcome.clone()),
            Some(first) => {
                if let Err(e) = assert_outcomes_identical("sweep rerun", &run.outcome, first) {
                    report.failures.push(e.to_string());
                }
            }
        }
        if with_timing {
            timed.push(run);
        } else {
            untimed_s += run.wall_s;
        }
    }
    let start = Instant::now();
    let serial = run_serial(&reduced).map_err(|e| e.to_string())?;
    let serial_s = start.elapsed().as_secs_f64();
    let single = sweep::run(&reduced, 1, false, &out)?;
    report.attempted += 2 * single.trials as u64;
    check_sweep_run(&single, report);
    if let Err(e) = assert_outcomes_identical("1 worker vs serial", &single.outcome, &serial) {
        report.failures.push(e.to_string());
    }

    let mut rtts: Vec<u64> = timed
        .iter()
        .flat_map(|r| r.rtts_ns.iter().copied())
        .collect();
    rtts.sort_unstable();
    let timed_s: f64 = timed.iter().map(|r| r.wall_s).sum();
    let units: usize = timed.iter().map(|r| r.outcome.total_units).sum();
    let sends: u64 = timed.iter().map(|r| r.sends).sum();
    let stat = |f: fn(&emerge_sweep::coordinator::SweepStats) -> u64| {
        timed.iter().map(|r| f(&r.outcome.stats)).sum::<u64>() as f64
    };
    let busy = ratio(
        rtts.iter().sum::<u64>() as f64 / 1e9,
        THREADS as f64 * timed_s,
    );
    for (name, pct) in [("sweep.unit_rtt_ms_p50", 50), ("sweep.unit_rtt_ms_p99", 99)] {
        if let Some(ns) = percentile(&rtts, pct) {
            report.set(name, ns as f64 / 1e6);
        }
    }
    if let Some(ns) = percentile(&rtts, 99) {
        report.set("trial.p99_us", ns as f64 / 1e3 / UNIT_TRIALS as f64);
    }
    report.set("sweep.worker_busy_frac", busy);
    report.set(
        "sweep.ipc_overhead_frac",
        1.0 - ratio(serial_s, single.wall_s),
    );
    report.set(
        "sweep.useful_dispatch_frac",
        ratio(units as f64, sends as f64),
    );
    report.set("sweep.retries", stat(|s| s.retries));
    report.set("sweep.hedges", stat(|s| s.hedges));
    report.set("sweep.dedup_dropped", stat(|s| s.dedup_dropped));
    report.set("sweep.worker_restarts", stat(|s| s.worker_restarts));
    // Seen from the coordinator, a trial's time is its unit's round
    // trip; what no round trip covers is the sweep's unattributed time.
    report.set("trial.unattributed_frac", 1.0 - busy);
    report.set("trace.overhead_frac", 1.0 - ratio(untimed_s, timed_s));
    Ok(())
}

/// A correctness-only run of `workload` at [`Workload::check_counts`]:
/// every check of the measured and traced runs, golden fingerprints
/// included.
pub fn check(workload: Workload, seed: u64) -> Report {
    let counts = workload.check_counts();
    let mut report = Report {
        attempted: (counts.one + counts.two) as u64,
        ..Report::default()
    };
    guarded(&mut report, |report| match InProcess::new(workload, seed) {
        Some(input) => {
            let one = run_pass(&input, counts.one, 1)?;
            let two = run_pass(&input, counts.two, THREADS)?;
            check_passes(workload, seed, &one, &two, report);
            let mut tracer = Tracer::new(Instant::now(), counts.one * SPANS_PER_TRIAL);
            let replay = replay_range(
                &input,
                &mut ReplayLane::new(&input),
                0,
                counts.one,
                &mut tracer,
            )?;
            report.require(replay.tally == one.outcome.tally(), || {
                format!(
                    "replayed outcome counts {:?} differ from the library's {:?}",
                    replay.tally,
                    one.outcome.tally()
                )
            });
            Ok(())
        }
        None => {
            report.attempted = 3 * counts.one as u64;
            let out = out_dir()?;
            let grid = sweep::grid(seed, counts.one)?;
            let serial = run_serial(&grid).map_err(|e| e.to_string())?;
            for workers in [1, THREADS] {
                let run = sweep::run(&grid, workers, false, &out)?;
                check_sweep_run(&run, report);
                let label = format!("{workers} worker(s) vs serial");
                if let Err(e) = assert_outcomes_identical(&label, &run.outcome, &serial) {
                    report.failures.push(e.to_string());
                }
            }
            check_golden(
                Workload::Sweep,
                seed,
                counts.one,
                [serial.sweep_fingerprint, 0],
                report,
            );
            Ok(())
        }
    });
    report
}
