//! `ledger`: the benchmark's one command.
//!
//! ```text
//! ledger --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ledger --check [--workload <name>] [--seed <n>]
//! ```
//!
//! Prints a host block, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! untraced, the per-layer metrics with `--trace 1`. Exits 1 when a
//! correctness check fails, 2 on bad arguments.
//!
//! `ledger --cold-start --workload <name> --seed <n>` is the child
//! process one `setup_s` sample times: it builds the workload's input,
//! runs trial 0 and prints `ready`.

use std::time::Instant;

use emerge_bench::report::validate_json;
use emerge_obs::alloccount::CountingAllocator;
use ledger::report::{host_json, Report, END_TO_END, PER_LAYER};
use ledger::run;
use ledger::workload::{Workload, BASE_SECONDS, DEFAULT_SEED, THREADS};

/// Makes span allocation counts live.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const USAGE: &str = "\
usage: ledger --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
       ledger --check [--workload <name>] [--seed <n>]
workloads: share_40x5, joint_4x8, faults_share_8x3, bonded_24x16, sweep_schemes";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u32,
    trace: bool,
    check: bool,
    cold_start: bool,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|e| format!("bad number {s:?}: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: BASE_SECONDS,
        trace: false,
        check: false,
        cold_start: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = parse_u64(&value()?)?,
            "--seconds" => {
                let s = parse_u64(&value()?)?;
                args.seconds = u32::try_from(s)
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or(format!("--seconds must be 1..=3600, got {s}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--check" => args.check = true,
            "--cold-start" => args.cold_start = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Prints the result line (and every failed check on stderr); the exit
/// code.
fn emit(report: &mut Report, catalogue: &[(&'static str, &'static str)]) -> i32 {
    let line = report.result_json(catalogue);
    for failure in &report.failures {
        eprintln!("ledger: check failed: {failure}");
    }
    if let Err((pos, msg)) = validate_json(&line) {
        eprintln!("ledger: result is not valid JSON at byte {pos}: {msg}");
        return 1;
    }
    println!("{line}");
    i32::from(!report.correct())
}

fn real_main() -> i32 {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    if args.check {
        let started = Instant::now();
        let mut total = Report::default();
        for workload in args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]) {
            let counts = workload.check_counts();
            let host = host_json(
                "check",
                workload.name(),
                args.seed,
                THREADS,
                counts.two,
                counts.one,
            );
            println!("{{\"host\":{host}}}");
            let report = run::check(workload, args.seed);
            eprintln!(
                "ledger --check {}: {}",
                workload.name(),
                if report.correct() { "ok" } else { "FAILED" }
            );
            total.attempted += report.attempted;
            total.failed += report.failed;
            total.failures.extend(report.failures);
        }
        eprintln!("ledger --check: {:.2} s", started.elapsed().as_secs_f64());
        return emit(&mut total, &[]);
    }
    let Some(workload) = args.workload else {
        eprintln!("--workload is required\n{USAGE}");
        return 2;
    };
    if args.cold_start {
        return match run::cold_start(workload, args.seed) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("ledger: cold start: {e}");
                1
            }
        };
    }
    let counts = workload.counts(args.seconds);
    let mode = if args.trace { "trace" } else { "measure" };
    let host = host_json(
        mode,
        workload.name(),
        args.seed,
        THREADS,
        counts.two,
        counts.one,
    );
    println!("{{\"host\":{host}}}");
    if args.trace {
        let mut report = run::trace(workload, args.seed, counts, &host);
        emit(&mut report, &PER_LAYER)
    } else {
        let mut report = run::measure(workload, args.seed, counts);
        emit(&mut report, &END_TO_END)
    }
}

fn main() {
    std::process::exit(real_main());
}
