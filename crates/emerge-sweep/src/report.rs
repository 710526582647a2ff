//! Sweep report rendering: clean-vs-chaos wall clock, the
//! robustness counters, per-cell rates and every fingerprint needed to
//! re-verify a run offline.
//!
//! Full-width integers (fingerprints, digests, seeds) are rendered as
//! 16-digit hex strings for the same reason the wire format ships them
//! that way: JSON numbers stop being exact past 2^53. Counts that fit
//! comfortably (trial and success counts, stats counters) stay plain
//! numbers for readability.

use std::fmt::Write as _;

use emerge_sim::metrics::Rate;

use crate::coordinator::SweepOutcome;
use crate::wire::{hex_u64, json_escape};

/// One labelled run in a sweep benchmark report.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// Run label: `serial`, `clean`, `chaos`, `resumed`...
    pub mode: String,
    /// Chaos seed, when the run was chaotic.
    pub chaos_seed: Option<u64>,
    /// Worker count (0 for the in-process serial reference).
    pub workers: usize,
    /// The run's merged outcome.
    pub outcome: SweepOutcome,
}

fn rate_json(rate: Rate) -> String {
    format!(
        "{{\"successes\": {}, \"trials\": {}}}",
        rate.successes(),
        rate.trials()
    )
}

/// Renders the sweep report document for a set of runs over the
/// same grid. The first run is the reference: its cells section is the
/// one rendered, and every run's fingerprints are listed side by side so
/// the bit-for-bit claim is checkable by eye (and by the reader in
/// `emerge-bench`).
pub fn render_sweep_report(runs: &[SweepRun]) -> String {
    let mut out = String::from("{\n");
    let grid = runs.first().map_or("", |r| r.outcome.grid.as_str());
    let _ = writeln!(out, "  \"bench\": \"distributed_sweep\",");
    let _ = writeln!(out, "  \"grid\": \"{}\",", json_escape(grid));
    out.push_str("  \"runs\": [\n");
    for (i, run) in runs.iter().enumerate() {
        let o = &run.outcome;
        let s = &o.stats;
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"mode\": \"{}\",", json_escape(&run.mode));
        match run.chaos_seed {
            Some(seed) => {
                let _ = writeln!(out, "      \"chaos_seed\": \"{}\",", hex_u64(seed));
            }
            None => {
                let _ = writeln!(out, "      \"chaos_seed\": null,");
            }
        }
        let _ = writeln!(out, "      \"workers\": {},", run.workers);
        let _ = writeln!(out, "      \"seconds\": {:.6},", o.seconds);
        let _ = writeln!(out, "      \"units\": {},", o.total_units);
        let _ = writeln!(out, "      \"units_done\": {},", o.done_units);
        let _ = writeln!(
            out,
            "      \"sweep_fingerprint\": \"{}\",",
            hex_u64(o.sweep_fingerprint)
        );
        let _ = writeln!(
            out,
            "      \"telemetry_digest\": \"{}\",",
            hex_u64(o.telemetry_digest)
        );
        let _ = writeln!(out, "      \"retries\": {},", s.retries);
        let _ = writeln!(out, "      \"hedges\": {},", s.hedges);
        let _ = writeln!(out, "      \"dedup_dropped\": {},", s.dedup_dropped);
        let _ = writeln!(out, "      \"corrupt_findings\": {},", s.corrupt_findings);
        let _ = writeln!(out, "      \"worker_restarts\": {},", s.worker_restarts);
        let _ = writeln!(out, "      \"timeouts\": {},", s.timeouts);
        let _ = writeln!(out, "      \"journal_replayed\": {}", s.journal_replayed);
        out.push_str("    }");
        out.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"cells\": [\n");
    let cells = runs.first().map_or(&[][..], |r| r.outcome.cells.as_slice());
    for (i, cell) in cells.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"cell\": \"{}\",", json_escape(&cell.cell));
        let _ = writeln!(out, "      \"trials\": {},", cell.trials);
        let _ = writeln!(
            out,
            "      \"fingerprint\": \"{}\",",
            hex_u64(cell.results.fingerprint)
        );
        let _ = writeln!(
            out,
            "      \"released\": {},",
            rate_json(cell.results.released)
        );
        let _ = writeln!(out, "      \"clean\": {},", rate_json(cell.results.clean));
        let _ = writeln!(
            out,
            "      \"reconstructed_early\": {},",
            rate_json(cell.results.reconstructed_early)
        );
        let _ = writeln!(
            out,
            "      \"messages_mean\": {:.3}",
            cell.results.messages.mean()
        );
        out.push_str("    }");
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::run_serial;
    use crate::grid::SweepGrid;
    use emerge_bench::report::{parse_json, validate_json};

    fn small_runs() -> Vec<SweepRun> {
        let grid = SweepGrid::builtin("share_8x3")
            .unwrap()
            .with_trials_per_cell(4);
        let outcome = run_serial(&grid).unwrap();
        vec![
            SweepRun {
                mode: "serial".to_string(),
                chaos_seed: None,
                workers: 0,
                outcome: outcome.clone(),
            },
            SweepRun {
                mode: "chaos".to_string(),
                chaos_seed: Some(0xC405),
                workers: 3,
                outcome,
            },
        ]
    }

    #[test]
    fn report_is_valid_json_with_expected_fields() {
        let text = render_sweep_report(&small_runs());
        validate_json(&text).unwrap();
        let doc = parse_json(&text).unwrap();
        assert_eq!(
            doc.get("bench").and_then(|v| v.as_str()),
            Some("distributed_sweep")
        );
        let runs = doc.get("runs").and_then(|v| v.as_array()).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].get("mode").and_then(|v| v.as_str()), Some("serial"));
        assert_eq!(
            runs[1].get("chaos_seed").and_then(|v| v.as_str()),
            Some("000000000000c405")
        );
        // Both runs carry the same fingerprints here by construction.
        assert_eq!(
            runs[0].get("sweep_fingerprint").and_then(|v| v.as_str()),
            runs[1].get("sweep_fingerprint").and_then(|v| v.as_str())
        );
        let cells = doc.get("cells").and_then(|v| v.as_array()).unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].get("trials").and_then(|v| v.as_u64()), Some(4));
    }
}
