//! The worker side: execute one unit, compose the reply (under chaos,
//! possibly a disruptive one), and the stdio serve loop.
//!
//! The reply-composition logic is shared between the `sweep_worker`
//! binary (stdio pipes) and the in-process thread link the test harness
//! uses, so both transports behave identically under chaos.

use std::io::{BufRead, Write};

use emerge_bench::profile::collected;
use emerge_core::montecarlo::run_protocol_trial_range;
use emerge_dht::analytic::AnalyticSubstrate;
use emerge_obs::MetricsSnapshot;

use crate::chaos::{ChaosAction, ChaosPlan};
use crate::error::SweepError;
use crate::grid::{world_config, UnitSpec};
use crate::wire::{decode_request, encode_error, encode_result, UnitResult};

/// Strips counters whose values depend on the execution environment
/// rather than the trials: `.allocs` counters vary with allocator state
/// and shard warm-up, so they cannot take part in a digest that must be
/// bit-identical across serial, clean and chaos runs.
pub fn filter_env_counters(snapshot: &MetricsSnapshot) -> MetricsSnapshot {
    MetricsSnapshot {
        counters: snapshot
            .counters
            .iter()
            .filter(|c| !c.name.ends_with(".allocs"))
            .cloned()
            .collect(),
        histograms: Vec::new(),
    }
}

/// Executes one unit: runs its trial range on a fresh analytic substrate
/// per trial (seeded by global trial index, so results merge
/// bit-identically with any other partitioning) and collects the unit's
/// telemetry counters.
///
/// # Errors
///
/// [`SweepError::Unit`] when the trial range itself fails (e.g. the
/// structure does not fit the configured population) — a deterministic
/// error retrying cannot fix.
pub fn run_unit(spec: &UnitSpec) -> Result<UnitResult, SweepError> {
    let config = world_config(spec.population);
    let (outcome, snapshot) = collected(|| {
        run_protocol_trial_range(&spec.spec, spec.first_trial, spec.count, spec.seed, |s| {
            AnalyticSubstrate::build(config, s)
        })
    });
    let results = outcome.map_err(|e| SweepError::Unit(e.to_string()))?;
    Ok(UnitResult {
        unit: spec.digest(),
        results,
        counters: filter_env_counters(&snapshot),
    })
}

/// What the transport should do with one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyPlan {
    /// Exit immediately without replying (chaos kill).
    Kill,
    /// Sleep `stall_ms`, then write each line in order.
    Respond {
        /// Milliseconds to sleep before writing (0 for a prompt reply).
        stall_ms: u64,
        /// The lines to write, in order.
        lines: Vec<String>,
    },
}

/// Composes the reply for one request line, applying the chaos plan's
/// decision for `(unit, attempt)`. Malformed request lines produce an
/// error reply (unit digest 0) rather than a crash — the coordinator
/// treats that as fatal, since its own request pipe should never
/// corrupt.
pub fn respond(line: &str, chaos: Option<&ChaosPlan>) -> ReplyPlan {
    let (spec, attempt) = match decode_request(line) {
        Ok(decoded) => decoded,
        Err(e) => {
            return ReplyPlan::Respond {
                stall_ms: 0,
                lines: vec![encode_error(0, &e.to_string())],
            }
        }
    };
    let digest = spec.digest();
    let action = chaos.map_or(ChaosAction::None, |plan| plan.decide(digest, attempt));
    if action == ChaosAction::Kill {
        return ReplyPlan::Kill;
    }
    let reply = match run_unit(&spec) {
        Ok(unit) => encode_result(unit.unit, &unit.results, &unit.counters),
        Err(e) => encode_error(digest, &e.to_string()),
    };
    match action {
        ChaosAction::None | ChaosAction::Kill => ReplyPlan::Respond {
            stall_ms: 0,
            lines: vec![reply],
        },
        ChaosAction::Stall => ReplyPlan::Respond {
            stall_ms: chaos.map_or(0, |plan| plan.stall_ms),
            lines: vec![reply],
        },
        ChaosAction::Garbage => ReplyPlan::Respond {
            stall_ms: 0,
            lines: vec!["@@corrupt worker output, definitely not JSON@@".to_string()],
        },
        ChaosAction::Truncate => ReplyPlan::Respond {
            stall_ms: 0,
            lines: vec![reply[..reply.len() / 2].to_string()],
        },
        ChaosAction::Duplicate => ReplyPlan::Respond {
            stall_ms: 0,
            lines: vec![reply.clone(), reply],
        },
    }
}

/// How a serve loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOutcome {
    /// The request stream ended (coordinator closed the pipe).
    Eof,
    /// A chaos decision killed this worker; the process should exit
    /// abruptly, without replying.
    ChaosKilled,
}

/// Serves unit requests line by line until EOF or a chaos kill. Used by
/// the `sweep_worker` binary over stdin/stdout.
///
/// # Errors
///
/// [`SweepError::Io`] when the transport itself fails.
pub fn serve<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    chaos: Option<&ChaosPlan>,
) -> Result<ServeOutcome, SweepError> {
    let mut line = String::new();
    loop {
        line.clear();
        let read = reader
            .read_line(&mut line)
            .map_err(|e| SweepError::io("read request", e))?;
        if read == 0 {
            return Ok(ServeOutcome::Eof);
        }
        let trimmed = line.trim_end_matches(['\n', '\r']);
        if trimmed.is_empty() {
            continue;
        }
        match respond(trimmed, chaos) {
            ReplyPlan::Kill => return Ok(ServeOutcome::ChaosKilled),
            ReplyPlan::Respond { stall_ms, lines } => {
                if stall_ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(stall_ms));
                }
                for reply in &lines {
                    writer
                        .write_all(reply.as_bytes())
                        .and_then(|()| writer.write_all(b"\n"))
                        .map_err(|e| SweepError::io("write reply", e))?;
                }
                writer
                    .flush()
                    .map_err(|e| SweepError::io("flush reply", e))?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::SweepGrid;
    use crate::wire::{decode_worker_line, encode_request, WorkerReply};

    fn small_unit() -> UnitSpec {
        SweepGrid::builtin("share_8x3")
            .unwrap()
            .with_trials_per_cell(3)
            .units(3)[0]
            .clone()
    }

    #[test]
    fn run_unit_matches_an_inline_range_run() {
        let unit = small_unit();
        let result = run_unit(&unit).unwrap();
        let config = world_config(unit.population);
        let inline = run_protocol_trial_range(&unit.spec, 0, 3, unit.seed, |s| {
            AnalyticSubstrate::build(config, s)
        })
        .unwrap();
        assert_eq!(result.results.fingerprint, inline.fingerprint);
        assert_eq!(result.results.released, inline.released);
        assert!(
            result
                .counters
                .counters
                .iter()
                .all(|c| !c.name.ends_with(".allocs")),
            "environment-dependent counters are filtered"
        );
        assert!(
            !result.counters.counters.is_empty(),
            "trial telemetry is collected"
        );
    }

    #[test]
    fn respond_serves_a_clean_request() {
        let unit = small_unit();
        let plan = respond(&encode_request(&unit, 0), None);
        let ReplyPlan::Respond { stall_ms, lines } = plan else {
            panic!("expected a reply");
        };
        assert_eq!(stall_ms, 0);
        assert_eq!(lines.len(), 1);
        let reply = decode_worker_line(&lines[0]).unwrap();
        assert!(matches!(reply, WorkerReply::Result(r) if r.unit == unit.digest()));
    }

    #[test]
    fn respond_reports_infeasible_units_as_errors() {
        let mut unit = small_unit();
        unit.population = 4; // cannot fit an 8x3 share structure
        let plan = respond(&encode_request(&unit, 0), None);
        let ReplyPlan::Respond { lines, .. } = plan else {
            panic!("expected a reply");
        };
        assert!(matches!(
            decode_worker_line(&lines[0]).unwrap(),
            WorkerReply::Error { unit: u, .. } if u == unit.digest()
        ));
    }

    #[test]
    fn respond_rejects_garbage_requests_without_crashing() {
        let plan = respond("{\"type\": \"unit\"}", None);
        let ReplyPlan::Respond { lines, .. } = plan else {
            panic!("expected a reply");
        };
        assert!(matches!(
            decode_worker_line(&lines[0]).unwrap(),
            WorkerReply::Error { unit: 0, .. }
        ));
    }

    #[test]
    fn serve_loop_round_trips_over_buffers() {
        let unit = small_unit();
        let input = format!("{}\n", encode_request(&unit, 0));
        let mut output = Vec::new();
        let outcome = serve(&mut input.as_bytes(), &mut output, None).unwrap();
        assert_eq!(outcome, ServeOutcome::Eof);
        let text = String::from_utf8(output).unwrap();
        let reply = decode_worker_line(text.trim_end()).unwrap();
        assert!(matches!(reply, WorkerReply::Result(r) if r.unit == unit.digest()));
    }
}
