//! The sweep workload: the `schemes_2x3` grid through the coordinator
//! and real `sweep_worker` processes, with every unit's round trip timed
//! at the link.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

use emerge_sweep::coordinator::{Coordinator, SweepConfig, SweepOutcome};
use emerge_sweep::error::SweepError;
use emerge_sweep::grid::SweepGrid;
use emerge_sweep::links::{LinkEvent, ProcessWorkerLink, WorkerLink};
use emerge_sweep::wire::encode_request;

/// Trials per work unit.
pub const UNIT_TRIALS: usize = 100;

/// Cells of the `schemes_2x3` grid.
pub const CELLS: usize = 4;

/// The `schemes_2x3` grid seeded with `seed`, `trials` trials in all.
///
/// # Errors
///
/// When the built-in grid is missing.
pub fn grid(seed: u64, trials: usize) -> Result<SweepGrid, String> {
    let mut grid = SweepGrid::builtin("schemes_2x3").map_err(|e| e.to_string())?;
    grid.seed = seed;
    Ok(grid.with_trials_per_cell(trials / CELLS))
}

/// The worker command: the `sweep_worker` binary built next to this one.
///
/// # Errors
///
/// When this executable's location is unknown or the worker is missing.
pub fn worker_command() -> Result<Vec<String>, String> {
    let me = std::env::current_exe().map_err(|e| format!("locate ledger binary: {e}"))?;
    let worker = me.with_file_name("sweep_worker");
    if !worker.is_file() {
        return Err(format!("{} is missing", worker.display()));
    }
    Ok(vec![worker.to_string_lossy().into_owned()])
}

/// Send and reply times seen at one worker link.
#[derive(Debug, Default)]
struct LinkLog {
    rtts_ns: Vec<u64>,
    sends: u64,
}

/// A [`ProcessWorkerLink`] that times each unit from send to reply. The
/// coordinator keeps at most one unit in flight per worker, so a reply
/// answers the last send.
struct TimedLink {
    inner: ProcessWorkerLink,
    sent: Option<Instant>,
    log: Rc<RefCell<LinkLog>>,
}

impl WorkerLink for TimedLink {
    fn send(&mut self, line: &str) -> bool {
        self.log.borrow_mut().sends += 1;
        self.sent = Some(Instant::now());
        self.inner.send(line)
    }

    fn recv(&mut self, wait: Duration) -> LinkEvent {
        let event = self.inner.recv(wait);
        if let LinkEvent::Line(_) = event {
            if let Some(sent) = self.sent.take() {
                let rtt = u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX);
                self.log.borrow_mut().rtts_ns.push(rtt);
            }
        }
        event
    }

    fn restart(&mut self) -> Result<(), SweepError> {
        self.sent = None;
        self.inner.restart()
    }
}

/// One coordinator run.
#[derive(Debug)]
pub struct SweepRun {
    /// The merged outcome.
    pub outcome: SweepOutcome,
    /// Wall time of `Coordinator::run`.
    pub wall_s: f64,
    /// Unit round trips in nanoseconds, ascending (empty when untimed).
    pub rtts_ns: Vec<u64>,
    /// Requests sent to workers (empty when untimed).
    pub sends: u64,
    /// Trials in the grid.
    pub trials: usize,
}

/// Runs `grid` on `workers` worker processes with the default deadline
/// and hedge settings and a fresh journal under `out`. Workers start
/// before the clock does and are stopped (killed and reaped) before this
/// returns. With `timed`, every link records unit round trips.
///
/// # Errors
///
/// Worker start-up, coordinator or journal failures.
pub fn run(grid: &SweepGrid, workers: usize, timed: bool, out: &Path) -> Result<SweepRun, String> {
    let command = worker_command()?;
    let log = Rc::new(RefCell::new(LinkLog::default()));
    let mut links: Vec<Box<dyn WorkerLink>> = Vec::with_capacity(workers);
    for _ in 0..workers {
        let inner = ProcessWorkerLink::start(&command).map_err(|e| e.to_string())?;
        links.push(if timed {
            Box::new(TimedLink {
                inner,
                sent: None,
                log: Rc::clone(&log),
            })
        } else {
            Box::new(inner)
        });
    }
    let journal = journal_path(out)?;
    let config = SweepConfig {
        unit_trials: UNIT_TRIALS,
        journal_path: Some(journal.clone()),
        ..SweepConfig::default()
    };
    let coordinator = Coordinator::new(grid.clone(), config);
    let start = Instant::now();
    let outcome = coordinator.run(&mut links);
    let wall_s = start.elapsed().as_secs_f64();
    drop(links);
    let _ = std::fs::remove_file(&journal);
    let outcome = outcome.map_err(|e| e.to_string())?;
    let mut log = log.take();
    log.rtts_ns.sort_unstable();
    Ok(SweepRun {
        outcome,
        wall_s,
        rtts_ns: log.rtts_ns,
        sends: log.sends,
        trials: grid.cells.iter().map(|c| c.trials).sum(),
    })
}

/// A journal path under `out` no earlier run left behind.
fn journal_path(out: &Path) -> Result<PathBuf, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let path = out.join(format!("sweep-{}.journal", std::process::id()));
    match std::fs::remove_file(&path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("clear {}: {e}", path.display()))
        }
        _ => Ok(path),
    }
}

/// One cold start: spawns two workers, hands each one of the grid's
/// first two units and returns the seconds until the first reply. Both
/// workers are stopped before it returns.
///
/// # Errors
///
/// When a worker cannot start, dies, or stays silent for 30 s.
pub fn cold_start(grid: &SweepGrid) -> Result<f64, String> {
    let command = worker_command()?;
    let units = grid.units(UNIT_TRIALS);
    let start = Instant::now();
    let mut links = Vec::with_capacity(2);
    for unit in units.iter().take(2) {
        let mut link = ProcessWorkerLink::start(&command).map_err(|e| e.to_string())?;
        if !link.send(&encode_request(unit, 0)) {
            return Err("worker closed its input".to_string());
        }
        links.push(link);
    }
    while start.elapsed() < Duration::from_secs(30) {
        for link in &mut links {
            match link.recv(Duration::from_micros(200)) {
                LinkEvent::Line(_) => return Ok(start.elapsed().as_secs_f64()),
                LinkEvent::Dead => return Err("worker died during a cold start".to_string()),
                LinkEvent::Idle => {}
            }
        }
    }
    Err("no unit reply within 30 s".to_string())
}
