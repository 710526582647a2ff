//! The sweep coordinator: dispatch, deadlines, retry/backoff, hedging,
//! dedup, journaling and the exact merge.
//!
//! The loop is single-threaded and event-driven: dispatch every idle
//! worker, poll every link, expire deadlines, repeat. All robustness
//! decisions route through [`emerge_faults::RecoveryPolicy`] semantics —
//! `timeout.per_attempt_ticks` is the per-dispatch deadline in
//! milliseconds, `retry` bounds and spaces re-dispatches, and
//! `hedge.fanout` caps how many concurrent copies of a straggling unit
//! may run. Completed units are journaled *before* they count as done,
//! and results merge in canonical unit order at the very end, so the
//! merged outcome is independent of completion order — the property that
//! makes `chaos == clean == serial` hold bit for bit.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use emerge_bench::profile::collected;
use emerge_core::montecarlo::{run_protocol_trial_range, ProtocolMcResults};
use emerge_dht::analytic::AnalyticSubstrate;
use emerge_faults::{HedgePolicy, RecoveryPolicy, RetryPolicy, TimeoutPolicy};
use emerge_obs::metrics::CounterSnap;
use emerge_obs::{MetricsSnapshot, Stopwatch};
use emerge_sim::shard::{metrics_digest, TrialDigest};

use crate::error::SweepError;
use crate::grid::{world_config, SweepGrid, UnitSpec};
use crate::journal::Journal;
use crate::links::{LinkEvent, WorkerLink};
use crate::wire::{decode_worker_line, encode_request, UnitResult, WorkerReply};
use crate::worker::filter_env_counters;

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Trials per work unit.
    pub unit_trials: usize,
    /// Recovery semantics: `timeout.per_attempt_ticks` is the
    /// per-dispatch deadline in milliseconds, `retry` bounds and backs
    /// off re-dispatches, `hedge.fanout` caps concurrent copies of one
    /// unit.
    pub policy: RecoveryPolicy,
    /// How long a unit may stay in flight before it is hedged to
    /// another worker, in milliseconds.
    pub hedge_after_ms: u64,
    /// Stop (pause) once this many units are done — the coordinator-kill
    /// hook used by the resume tests and CI. `None` runs to completion.
    pub max_units: Option<usize>,
    /// Append-only completion journal; `None` disables crash-safe
    /// resume.
    pub journal_path: Option<PathBuf>,
    /// Prometheus text file rewritten after every completed unit.
    pub prom_path: Option<PathBuf>,
    /// Emit progress lines on stderr.
    pub progress: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            unit_trials: 25,
            policy: RecoveryPolicy {
                retry: RetryPolicy::default(),
                timeout: TimeoutPolicy {
                    per_attempt_ticks: 5_000,
                },
                hedge: HedgePolicy { fanout: 2 },
            },
            hedge_after_ms: 150,
            max_units: None,
            journal_path: None,
            prom_path: None,
            progress: false,
        }
    }
}

/// Fault and progress counters of one coordinator run. Exported through
/// `emerge-obs` as `sweep.*` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Failed dispatch attempts that were re-queued (timeouts, corrupt
    /// replies, dead workers).
    pub retries: u64,
    /// Straggler units hedged to an additional worker.
    pub hedges: u64,
    /// Valid results for already-completed units dropped by
    /// first-result-wins dedup (hedged twins, duplicated output, journal
    /// races).
    pub dedup_dropped: u64,
    /// Worker lines rejected by the wire decoder (garbage, truncation),
    /// recorded as findings.
    pub corrupt_findings: u64,
    /// Workers torn down and restarted (crashes, stuck deadlines).
    pub worker_restarts: u64,
    /// Dispatches abandoned because their deadline expired.
    pub timeouts: u64,
    /// Units recovered from the journal instead of re-running.
    pub journal_replayed: u64,
    /// Journal lines that failed to decode on replay (torn tail writes).
    pub journal_corrupt_lines: u64,
    /// Journal lines whose unit had already been recovered.
    pub journal_duplicate_lines: u64,
    /// Journal entries whose digest matches no unit of this grid.
    pub journal_stale_entries: u64,
}

impl SweepStats {
    /// The stats as a name-sorted `emerge-obs` snapshot (`sweep.*`).
    pub fn to_snapshot(&self) -> MetricsSnapshot {
        let pairs = [
            ("sweep.corrupt_findings", self.corrupt_findings),
            ("sweep.dedup_dropped", self.dedup_dropped),
            ("sweep.hedges", self.hedges),
            ("sweep.journal_corrupt_lines", self.journal_corrupt_lines),
            (
                "sweep.journal_duplicate_lines",
                self.journal_duplicate_lines,
            ),
            ("sweep.journal_replayed", self.journal_replayed),
            ("sweep.journal_stale_entries", self.journal_stale_entries),
            ("sweep.retries", self.retries),
            ("sweep.timeouts", self.timeouts),
            ("sweep.worker_restarts", self.worker_restarts),
        ];
        let mut counters: Vec<CounterSnap> = pairs
            .iter()
            .map(|(name, value)| CounterSnap {
                name: (*name).to_string(),
                value: *value,
            })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot {
            counters,
            histograms: Vec::new(),
        }
    }
}

/// One cell's merged outcome.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Cell label.
    pub cell: String,
    /// Trials merged into this cell so far.
    pub trials: usize,
    /// The exactly-merged results.
    pub results: ProtocolMcResults,
}

/// The merged product of a sweep (or of the serial reference run).
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Grid name.
    pub grid: String,
    /// Per-cell outcomes, in grid order.
    pub cells: Vec<CellOutcome>,
    /// Digest over `(cell name, cell fingerprint)` pairs: one number
    /// that changes iff any cell's outcome changed.
    pub sweep_fingerprint: u64,
    /// [`metrics_digest`] of the merged worker telemetry counters.
    pub telemetry_digest: u64,
    /// The merged worker telemetry counters themselves.
    pub telemetry: MetricsSnapshot,
    /// Coordinator fault/progress counters (all zero for serial runs).
    pub stats: SweepStats,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Units completed (this run plus journal replay).
    pub done_units: usize,
    /// Units in the grid.
    pub total_units: usize,
}

impl SweepOutcome {
    /// Whether every unit of the grid is merged (false after a
    /// `max_units` pause).
    pub fn complete(&self) -> bool {
        self.done_units == self.total_units
    }
}

/// Checks that two outcomes that must be bit-identical are: cell
/// labels, every rate's exact counts, message counts, per-cell and
/// sweep fingerprints, and the telemetry digest.
///
/// # Errors
///
/// [`SweepError::Mismatch`] naming the first differing field.
pub fn assert_outcomes_identical(
    label: &str,
    a: &SweepOutcome,
    b: &SweepOutcome,
) -> Result<(), SweepError> {
    let fail = |what: String| Err(SweepError::Mismatch(format!("{label}: {what}")));
    if a.cells.len() != b.cells.len() {
        return fail("cell count differs".to_string());
    }
    for (ca, cb) in a.cells.iter().zip(&b.cells) {
        if ca.cell != cb.cell {
            return fail(format!("cell order differs ({} vs {})", ca.cell, cb.cell));
        }
        if ca.trials != cb.trials {
            return fail(format!("{}: trial count differs", ca.cell));
        }
        if ca.results.fingerprint != cb.results.fingerprint {
            return fail(format!(
                "{}: fingerprint {:016x} != {:016x}",
                ca.cell, ca.results.fingerprint, cb.results.fingerprint
            ));
        }
        for (name, ra, rb) in [
            ("released", ca.results.released, cb.results.released),
            ("clean", ca.results.clean, cb.results.clean),
            (
                "reconstructed_early",
                ca.results.reconstructed_early,
                cb.results.reconstructed_early,
            ),
        ] {
            if ra != rb {
                return fail(format!("{}: {name} rate differs", ca.cell));
            }
        }
        if ca.results.messages.count() != cb.results.messages.count() {
            return fail(format!("{}: message count differs", ca.cell));
        }
    }
    if a.sweep_fingerprint != b.sweep_fingerprint {
        return fail("sweep fingerprint differs".to_string());
    }
    if a.telemetry_digest != b.telemetry_digest {
        return fail(format!(
            "telemetry digest {:016x} != {:016x}",
            a.telemetry_digest, b.telemetry_digest
        ));
    }
    Ok(())
}

fn combine_cells(grid_name: &str, cells: &[CellOutcome]) -> u64 {
    let mut d = TrialDigest::new();
    d.eat(grid_name.as_bytes());
    d.eat(&[0]);
    for cell in cells {
        d.eat(cell.cell.as_bytes());
        d.eat(&[0]);
        d.eat(&cell.results.fingerprint.to_le_bytes());
    }
    d.finish()
}

/// Runs the whole grid serially in-process — the ground truth every
/// distributed run must reproduce bit for bit.
///
/// # Errors
///
/// [`SweepError::Unit`] when a cell cannot run at the grid's population.
pub fn run_serial(grid: &SweepGrid) -> Result<SweepOutcome, SweepError> {
    let clock = Stopwatch::start();
    let config = world_config(grid.population);
    let mut cells = Vec::with_capacity(grid.cells.len());
    let mut telemetry = MetricsSnapshot::default();
    for cell in &grid.cells {
        let (outcome, snapshot) = collected(|| {
            run_protocol_trial_range(&cell.spec, 0, cell.trials, grid.seed, |s| {
                AnalyticSubstrate::build(config, s)
            })
        });
        let results = outcome.map_err(|e| SweepError::Unit(e.to_string()))?;
        telemetry.merge(&filter_env_counters(&snapshot));
        cells.push(CellOutcome {
            cell: cell.name.clone(),
            trials: cell.trials,
            results,
        });
    }
    // Serial "units" are whole cells: one uninterrupted range per cell.
    let total = grid.cells.len();
    Ok(SweepOutcome {
        grid: grid.name.clone(),
        sweep_fingerprint: combine_cells(&grid.name, &cells),
        telemetry_digest: metrics_digest(&telemetry),
        cells,
        telemetry,
        stats: SweepStats::default(),
        seconds: clock.elapsed_secs(),
        done_units: total,
        total_units: total,
    })
}

struct UnitState {
    spec: UnitSpec,
    digest: u64,
    failures: u32,
    dispatches: u32,
    ready_at: Instant,
    result: Option<UnitResult>,
}

struct Dispatch {
    unit: usize,
    at: Instant,
}

/// The distributed sweep driver. Owns the unit state machine; workers
/// are handed in as [`WorkerLink`]s (threads in tests, `sweep_worker`
/// processes in the binary).
pub struct Coordinator {
    grid: SweepGrid,
    config: SweepConfig,
}

impl Coordinator {
    /// A coordinator for `grid` under `config`.
    pub fn new(grid: SweepGrid, config: SweepConfig) -> Self {
        Coordinator { grid, config }
    }

    /// Runs the sweep over `workers`, blocking until every unit is done
    /// (or the `max_units` pause point is reached).
    ///
    /// # Errors
    ///
    /// [`SweepError`] on exhausted retry budgets, deterministic unit
    /// failures, unusable configuration or journal I/O failures.
    pub fn run(&self, workers: &mut [Box<dyn WorkerLink>]) -> Result<SweepOutcome, SweepError> {
        if workers.is_empty() {
            return Err(SweepError::Config(
                "at least one worker required".to_string(),
            ));
        }
        let clock = Stopwatch::start();
        let now = Instant::now();
        let mut units: Vec<UnitState> = self
            .grid
            .units(self.config.unit_trials)
            .into_iter()
            .map(|spec| UnitState {
                digest: spec.digest(),
                spec,
                failures: 0,
                dispatches: 0,
                ready_at: now,
                result: None,
            })
            .collect();
        let total_units = units.len();
        let mut stats = SweepStats::default();
        let mut done_units = 0usize;

        // Crash-safe resume: recover completed units from the journal
        // before dispatching anything.
        let mut journal = match &self.config.journal_path {
            Some(path) => {
                let replay = Journal::replay(path)?;
                stats.journal_corrupt_lines = replay.corrupt_lines;
                stats.journal_duplicate_lines = replay.duplicate_lines;
                for recovered in replay.results {
                    match units.iter_mut().find(|u| u.digest == recovered.unit) {
                        Some(unit) if unit.result.is_none() => {
                            unit.result = Some(recovered);
                            done_units += 1;
                            stats.journal_replayed += 1;
                        }
                        Some(_) => stats.journal_duplicate_lines += 1,
                        None => stats.journal_stale_entries += 1,
                    }
                }
                Some(Journal::open(path)?)
            }
            None => None,
        };
        if self.config.progress && stats.journal_replayed > 0 {
            eprintln!(
                "[sweep] resumed from journal: {}/{total_units} units already done",
                stats.journal_replayed
            );
        }

        let deadline = Duration::from_millis(self.config.policy.timeout.per_attempt_ticks);
        let hedge_after = Duration::from_millis(self.config.hedge_after_ms);
        let fanout = self.config.policy.hedge.fanout.max(1);
        let budget = self.config.policy.retry.attempts();
        let stop_at = self
            .config
            .max_units
            .unwrap_or(total_units)
            .min(total_units);
        let retry = self.config.policy.retry;
        let mut dispatches: Vec<Option<Dispatch>> = Vec::new();
        dispatches.resize_with(workers.len(), || None);

        while done_units < stop_at {
            let now = Instant::now();
            // Dispatch phase: hand every idle worker a unit — a fresh
            // one first, else hedge the oldest straggler.
            let mut progressed = false;
            for w in 0..workers.len() {
                if dispatches[w].is_some() {
                    continue;
                }
                let Some((u, is_hedge)) =
                    pick_unit(&units, &dispatches, now, budget, fanout, hedge_after)
                else {
                    continue;
                };
                let attempt = units[u].dispatches;
                units[u].dispatches = units[u].dispatches.saturating_add(1);
                if is_hedge {
                    stats.hedges += 1;
                }
                let line = encode_request(&units[u].spec, attempt);
                if workers[w].send(&line) {
                    dispatches[w] = Some(Dispatch { unit: u, at: now });
                    progressed = true;
                } else {
                    stats.worker_restarts += 1;
                    workers[w].restart()?;
                }
            }

            // Poll phase: drain every link (idle links may still hold
            // late duplicates); route lines by their unit digest, not by
            // which worker they arrived on.
            for w in 0..workers.len() {
                let wait = if dispatches[w].is_some() {
                    Duration::from_millis(5)
                } else {
                    Duration::ZERO
                };
                match workers[w].recv(wait) {
                    LinkEvent::Idle => {}
                    LinkEvent::Dead => {
                        stats.worker_restarts += 1;
                        if let Some(d) = dispatches[w].take() {
                            fail_attempt(&mut units[d.unit], &mut stats, &retry);
                            check_exhausted(&units[d.unit], &dispatches, budget)?;
                        }
                        workers[w].restart()?;
                        progressed = true;
                    }
                    LinkEvent::Line(line) => {
                        progressed = true;
                        match decode_worker_line(&line) {
                            Ok(WorkerReply::Result(result)) => {
                                // Free the worker only if this line answers
                                // its current dispatch; a late duplicate for
                                // an older unit must not.
                                let answers_current = dispatches[w]
                                    .as_ref()
                                    .is_some_and(|d| units[d.unit].digest == result.unit);
                                if answers_current {
                                    dispatches[w] = None;
                                }
                                match units.iter().position(|u| u.digest == result.unit) {
                                    Some(u) if units[u].result.is_none() => {
                                        if let Some(j) = journal.as_mut() {
                                            j.append(&line)?;
                                        }
                                        units[u].result = Some(result);
                                        done_units += 1;
                                        if self.config.progress {
                                            eprintln!(
                                                "[sweep] {done_units}/{total_units} units ({})",
                                                units[u].spec.cell
                                            );
                                        }
                                        self.stream_prometheus(&stats, done_units, total_units);
                                    }
                                    Some(_) => stats.dedup_dropped += 1,
                                    None => {
                                        // Valid JSON for a unit we never
                                        // issued: a finding, and a failed
                                        // attempt for whatever this worker
                                        // was meant to be doing.
                                        stats.corrupt_findings += 1;
                                        if let Some(d) = dispatches[w].take() {
                                            fail_attempt(&mut units[d.unit], &mut stats, &retry);
                                            check_exhausted(&units[d.unit], &dispatches, budget)?;
                                        }
                                    }
                                }
                            }
                            Ok(WorkerReply::Error { unit, message }) => {
                                // A worker decoded the request fine and the
                                // unit itself failed: deterministic, fatal.
                                let cell = units
                                    .iter()
                                    .find(|u| u.digest == unit)
                                    .map_or("<unknown unit>", |u| u.spec.cell.as_str());
                                return Err(SweepError::Unit(format!("{cell}: {message}")));
                            }
                            Err(_) => {
                                stats.corrupt_findings += 1;
                                if let Some(d) = dispatches[w].take() {
                                    fail_attempt(&mut units[d.unit], &mut stats, &retry);
                                    check_exhausted(&units[d.unit], &dispatches, budget)?;
                                }
                            }
                        }
                    }
                }
            }

            // Deadline phase: abandon dispatches that outlived their
            // per-attempt budget and tear the (possibly stuck) worker
            // down.
            let now = Instant::now();
            for w in 0..workers.len() {
                let expired = dispatches[w]
                    .as_ref()
                    .is_some_and(|d| now.duration_since(d.at) > deadline);
                if expired {
                    if let Some(d) = dispatches[w].take() {
                        stats.timeouts += 1;
                        stats.worker_restarts += 1;
                        fail_attempt(&mut units[d.unit], &mut stats, &retry);
                        workers[w].restart()?;
                        check_exhausted(&units[d.unit], &dispatches, budget)?;
                    }
                }
            }

            if !progressed {
                std::thread::sleep(Duration::from_millis(2));
            }
        }

        // Exact merge, in canonical unit order — completion order does
        // not influence a single bit of the outcome.
        let mut cells: Vec<CellOutcome> = self
            .grid
            .cells
            .iter()
            .map(|c| CellOutcome {
                cell: c.name.clone(),
                trials: 0,
                results: ProtocolMcResults::default(),
            })
            .collect();
        let mut telemetry = MetricsSnapshot::default();
        for unit in &units {
            if let Some(result) = &unit.result {
                if let Some(cell) = cells.get_mut(unit.spec.cell_index) {
                    cell.results.merge(&result.results);
                    cell.trials += unit.spec.count;
                }
                telemetry.merge(&result.counters);
            }
        }
        self.stream_prometheus(&stats, done_units, total_units);
        Ok(SweepOutcome {
            grid: self.grid.name.clone(),
            sweep_fingerprint: combine_cells(&self.grid.name, &cells),
            telemetry_digest: metrics_digest(&telemetry),
            cells,
            telemetry,
            stats,
            seconds: clock.elapsed_secs(),
            done_units,
            total_units,
        })
    }

    /// Rewrites the `sweep.*` counters (plus progress) as Prometheus
    /// text, if a scrape path is configured. Best-effort: a failed
    /// scrape-file write never fails the sweep.
    fn stream_prometheus(&self, stats: &SweepStats, done: usize, total: usize) {
        let Some(path) = &self.config.prom_path else {
            return;
        };
        let mut snapshot = stats.to_snapshot();
        snapshot.counters.push(CounterSnap {
            name: "sweep.units_done".to_string(),
            value: done as u64,
        });
        snapshot.counters.push(CounterSnap {
            name: "sweep.units_total".to_string(),
            value: total as u64,
        });
        snapshot.counters.sort_by(|a, b| a.name.cmp(&b.name));
        let _ = std::fs::write(path, snapshot.to_prometheus());
    }
}

/// Picks the next unit for an idle worker: the lowest-index fresh unit
/// that is ready and within budget, else the lowest-index straggler
/// eligible for a hedge. Returns `(unit index, is_hedge)`.
fn pick_unit(
    units: &[UnitState],
    dispatches: &[Option<Dispatch>],
    now: Instant,
    budget: u32,
    fanout: usize,
    hedge_after: Duration,
) -> Option<(usize, bool)> {
    let copies = |u: usize| dispatches.iter().flatten().filter(|d| d.unit == u).count();
    for (i, u) in units.iter().enumerate() {
        if u.result.is_none() && u.ready_at <= now && u.failures < budget && copies(i) == 0 {
            return Some((i, false));
        }
    }
    for (i, u) in units.iter().enumerate() {
        if u.result.is_some() {
            continue;
        }
        let n = copies(i);
        let oldest = dispatches
            .iter()
            .flatten()
            .filter(|d| d.unit == i)
            .map(|d| d.at)
            .min();
        if n >= 1 && n < fanout && oldest.is_some_and(|at| now.duration_since(at) >= hedge_after) {
            return Some((i, true));
        }
    }
    None
}

fn fail_attempt(unit: &mut UnitState, stats: &mut SweepStats, retry: &RetryPolicy) {
    unit.failures = unit.failures.saturating_add(1);
    stats.retries += 1;
    let backoff = Duration::from_millis(retry.backoff_ticks(unit.failures));
    unit.ready_at = Instant::now() + backoff;
}

/// A unit with no result, no in-flight copies and an exhausted budget
/// can never finish: fail the sweep loudly instead of spinning forever.
fn check_exhausted(
    unit: &UnitState,
    dispatches: &[Option<Dispatch>],
    budget: u32,
) -> Result<(), SweepError> {
    let inflight = dispatches
        .iter()
        .flatten()
        .any(|d| d.unit == unit.spec.unit_index);
    if unit.result.is_none() && !inflight && unit.failures >= budget {
        return Err(SweepError::UnitExhausted {
            cell: unit.spec.cell.clone(),
            first_trial: unit.spec.first_trial,
            attempts: unit.failures,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosPlan;
    use crate::links::ThreadWorkerLink;

    fn thread_workers(n: usize, chaos: Option<ChaosPlan>) -> Vec<Box<dyn WorkerLink>> {
        (0..n)
            .map(|_| Box::new(ThreadWorkerLink::start(chaos)) as Box<dyn WorkerLink>)
            .collect()
    }

    fn tiny_grid() -> SweepGrid {
        SweepGrid::builtin("share_8x3")
            .unwrap()
            .with_trials_per_cell(6)
    }

    #[test]
    fn clean_sweep_matches_serial_bit_for_bit() {
        let grid = tiny_grid();
        let serial = run_serial(&grid).unwrap();
        let mut workers = thread_workers(3, None);
        let coordinator = Coordinator::new(
            grid,
            SweepConfig {
                unit_trials: 2,
                ..SweepConfig::default()
            },
        );
        let swept = coordinator.run(&mut workers).unwrap();
        assert!(swept.complete());
        assert_outcomes_identical("clean vs serial", &swept, &serial).unwrap();
        assert_eq!(swept.stats.retries, 0);
        assert_eq!(swept.stats.corrupt_findings, 0);
    }

    #[test]
    fn empty_worker_pool_is_a_config_error() {
        let coordinator = Coordinator::new(tiny_grid(), SweepConfig::default());
        let mut workers: Vec<Box<dyn WorkerLink>> = Vec::new();
        assert!(matches!(
            coordinator.run(&mut workers),
            Err(SweepError::Config(_))
        ));
    }

    #[test]
    fn stats_snapshot_is_sorted_and_prefixed() {
        let stats = SweepStats {
            retries: 3,
            hedges: 1,
            ..SweepStats::default()
        };
        let snapshot = stats.to_snapshot();
        assert!(snapshot.counters.windows(2).all(|w| w[0].name < w[1].name));
        assert!(snapshot
            .counters
            .iter()
            .all(|c| c.name.starts_with("sweep.")));
        assert_eq!(
            snapshot
                .counters
                .iter()
                .find(|c| c.name == "sweep.retries")
                .map(|c| c.value),
            Some(3)
        );
    }
}
