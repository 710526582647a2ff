//! The line-oriented JSON wire format spoken between coordinator and
//! workers.
//!
//! One message per line. Small structural integers (trial counts, scheme
//! shapes) travel as plain JSON numbers, validated to be exact integers
//! by `JsonValue::as_u64`; **full-width `u64` values — digests, seeds,
//! fingerprints and `f64` bit patterns — travel as 16-digit lowercase
//! hex strings**, because JSON numbers round past 2^53. Floats of the
//! message [`Summary`] ship as [`f64::to_bits`] patterns, which is what
//! makes the decoded result *bit-identical* to the worker's, not merely
//! close.
//!
//! Decoding is total: any malformed line — truncated, garbage, wrong
//! types, missing or duplicated fields, digest mismatch — returns
//! [`SweepError::Wire`] for the coordinator to record as a finding.
//! Nothing here panics on input.

use emerge_bench::report::{parse_json, JsonValue};
use emerge_core::config::SchemeParams;
use emerge_core::montecarlo::{ProtocolMcResults, ProtocolTrialSpec};
use emerge_core::protocol::AttackMode;
use emerge_obs::metrics::CounterSnap;
use emerge_obs::MetricsSnapshot;
use emerge_sim::metrics::{Rate, Summary};
use emerge_sim::time::SimDuration;
use std::fmt::Write as _;

use crate::error::SweepError;
use crate::grid::UnitSpec;

/// Wire protocol version; bumped on any incompatible change.
pub const WIRE_VERSION: u64 = 1;

/// Largest world a request may ask a worker to build: 100× the paper's
/// 10 000-node worlds. Checked at decode time, before the worker
/// allocates per-slot state for it.
pub const MAX_POPULATION: usize = 1_000_000;

/// A decoded worker → coordinator line.
#[derive(Debug, Clone)]
pub enum WorkerReply {
    /// A completed unit.
    Result(UnitResult),
    /// A deterministic unit execution failure (retry cannot help).
    Error {
        /// Digest of the failed unit.
        unit: u64,
        /// Worker-side error rendering.
        message: String,
    },
}

/// One completed unit's payload: the merged trial outcomes plus the
/// telemetry counters collected while running it.
#[derive(Debug, Clone)]
pub struct UnitResult {
    /// The unit's identity digest ([`UnitSpec::digest`]).
    pub unit: u64,
    /// Outcomes of the unit's trial range.
    pub results: ProtocolMcResults,
    /// Telemetry counters of the unit run (allocator-dependent counters
    /// already filtered out by the worker).
    pub counters: MetricsSnapshot,
}

pub(crate) fn hex_u64(value: u64) -> String {
    format!("{value:016x}")
}

fn parse_hex_u64(s: &str) -> Result<u64, SweepError> {
    let valid = !s.is_empty()
        && s.len() <= 16
        && s.bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b));
    if !valid {
        return Err(SweepError::Wire(format!("bad hex u64 {s:?}")));
    }
    u64::from_str_radix(s, 16).map_err(|e| SweepError::Wire(format!("bad hex u64 {s:?}: {e}")))
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}

/// Looks up a required object member, rejecting duplicates — a repeated
/// key in adversarial worker output must not silently win.
fn field<'a>(value: &'a JsonValue, key: &str) -> Result<&'a JsonValue, SweepError> {
    let members = value
        .as_object()
        .ok_or_else(|| SweepError::Wire(format!("expected an object around {key:?}")))?;
    let mut found = None;
    for (k, v) in members {
        if k == key {
            if found.is_some() {
                return Err(SweepError::Wire(format!("duplicated field {key:?}")));
            }
            found = Some(v);
        }
    }
    found.ok_or_else(|| SweepError::Wire(format!("missing field {key:?}")))
}

fn field_u64(value: &JsonValue, key: &str) -> Result<u64, SweepError> {
    field(value, key)?
        .as_u64()
        .ok_or_else(|| SweepError::Wire(format!("field {key:?} must be an exact integer")))
}

fn field_usize(value: &JsonValue, key: &str) -> Result<usize, SweepError> {
    usize::try_from(field_u64(value, key)?)
        .map_err(|_| SweepError::Wire(format!("field {key:?} overflows usize")))
}

fn field_hex(value: &JsonValue, key: &str) -> Result<u64, SweepError> {
    let s = field(value, key)?
        .as_str()
        .ok_or_else(|| SweepError::Wire(format!("field {key:?} must be a hex string")))?;
    parse_hex_u64(s)
}

fn field_str<'a>(value: &'a JsonValue, key: &str) -> Result<&'a str, SweepError> {
    field(value, key)?
        .as_str()
        .ok_or_else(|| SweepError::Wire(format!("field {key:?} must be a string")))
}

fn scheme_json(params: &SchemeParams) -> String {
    match params {
        SchemeParams::Central => "{\"kind\": \"central\"}".to_string(),
        SchemeParams::Disjoint { k, l } => {
            format!("{{\"kind\": \"disjoint\", \"k\": {k}, \"l\": {l}}}")
        }
        SchemeParams::Joint { k, l } => {
            format!("{{\"kind\": \"joint\", \"k\": {k}, \"l\": {l}}}")
        }
        SchemeParams::Share { k, l, n, m } => {
            let thresholds: Vec<String> = m.iter().map(ToString::to_string).collect();
            format!(
                "{{\"kind\": \"share\", \"k\": {k}, \"l\": {l}, \"n\": {n}, \"m\": [{}]}}",
                thresholds.join(", ")
            )
        }
    }
}

fn decode_scheme(value: &JsonValue) -> Result<SchemeParams, SweepError> {
    match field_str(value, "kind")? {
        "central" => Ok(SchemeParams::Central),
        "disjoint" => Ok(SchemeParams::Disjoint {
            k: field_usize(value, "k")?,
            l: field_usize(value, "l")?,
        }),
        "joint" => Ok(SchemeParams::Joint {
            k: field_usize(value, "k")?,
            l: field_usize(value, "l")?,
        }),
        "share" => {
            let m_field = field(value, "m")?
                .as_array()
                .ok_or_else(|| SweepError::Wire("field \"m\" must be an array".to_string()))?;
            let mut m = Vec::with_capacity(m_field.len());
            for item in m_field {
                let th = item
                    .as_u64()
                    .ok_or_else(|| SweepError::Wire("thresholds must be integers".to_string()))?;
                m.push(
                    usize::try_from(th)
                        .map_err(|_| SweepError::Wire("threshold overflows usize".to_string()))?,
                );
            }
            Ok(SchemeParams::Share {
                k: field_usize(value, "k")?,
                l: field_usize(value, "l")?,
                n: field_usize(value, "n")?,
                m,
            })
        }
        other => Err(SweepError::Wire(format!("unknown scheme kind {other:?}"))),
    }
}

fn attack_tag(attack: AttackMode) -> &'static str {
    match attack {
        AttackMode::Passive => "passive",
        AttackMode::ReleaseAhead => "release_ahead",
        AttackMode::Drop => "drop",
    }
}

fn decode_attack(tag: &str) -> Result<AttackMode, SweepError> {
    match tag {
        "passive" => Ok(AttackMode::Passive),
        "release_ahead" => Ok(AttackMode::ReleaseAhead),
        "drop" => Ok(AttackMode::Drop),
        other => Err(SweepError::Wire(format!("unknown attack {other:?}"))),
    }
}

/// Renders a unit request line (coordinator → worker).
pub fn encode_request(spec: &UnitSpec, attempt: u32) -> String {
    format!(
        concat!(
            "{{\"type\": \"unit\", \"v\": {}, \"unit\": \"{}\", \"cell\": \"{}\", ",
            "\"scheme\": {}, \"attack\": \"{}\", \"period\": {}, ",
            "\"population\": {}, \"seed\": \"{}\", \"first\": {}, \"count\": {}, ",
            "\"index\": {}, \"cell_index\": {}, \"attempt\": {}}}"
        ),
        WIRE_VERSION,
        hex_u64(spec.digest()),
        json_escape(&spec.cell),
        scheme_json(&spec.spec.params),
        attack_tag(spec.spec.attack),
        spec.spec.emerging_period.ticks(),
        spec.population,
        hex_u64(spec.seed),
        spec.first_trial,
        spec.count,
        spec.unit_index,
        spec.cell_index,
        attempt,
    )
}

/// Decodes a unit request line, returning the unit and the attempt
/// number. The embedded digest is recomputed from the decoded fields and
/// must match — a corrupted request can never run the wrong trials.
///
/// # Errors
///
/// [`SweepError::Wire`] on any malformed input.
pub fn decode_request(line: &str) -> Result<(UnitSpec, u32), SweepError> {
    let doc = parse_json(line).map_err(|(pos, msg)| {
        SweepError::Wire(format!("request line is not JSON (byte {pos}): {msg}"))
    })?;
    if field_str(&doc, "type")? != "unit" {
        return Err(SweepError::Wire("expected a \"unit\" message".to_string()));
    }
    if field_u64(&doc, "v")? != WIRE_VERSION {
        return Err(SweepError::Wire("wire version mismatch".to_string()));
    }
    let population = field_usize(&doc, "population")?;
    if !(1..=MAX_POPULATION).contains(&population) {
        return Err(SweepError::Wire(format!(
            "population {population} is outside 1..={MAX_POPULATION}"
        )));
    }
    let spec = UnitSpec {
        unit_index: field_usize(&doc, "index")?,
        cell_index: field_usize(&doc, "cell_index")?,
        cell: field_str(&doc, "cell")?.to_string(),
        spec: ProtocolTrialSpec {
            params: decode_scheme(field(&doc, "scheme")?)?,
            emerging_period: SimDuration::from_ticks(field_u64(&doc, "period")?),
            attack: decode_attack(field_str(&doc, "attack")?)?,
        },
        population,
        seed: field_hex(&doc, "seed")?,
        first_trial: field_usize(&doc, "first")?,
        count: field_usize(&doc, "count")?,
    };
    let claimed = field_hex(&doc, "unit")?;
    if claimed != spec.digest() {
        return Err(SweepError::Wire(
            "request digest does not match its fields".to_string(),
        ));
    }
    let attempt = u32::try_from(field_u64(&doc, "attempt")?)
        .map_err(|_| SweepError::Wire("attempt overflows u32".to_string()))?;
    Ok((spec, attempt))
}

fn rate_json(rate: Rate) -> String {
    format!(
        "{{\"ok\": \"{}\", \"n\": \"{}\"}}",
        hex_u64(rate.successes()),
        hex_u64(rate.trials())
    )
}

fn decode_rate(value: &JsonValue) -> Result<Rate, SweepError> {
    let successes = field_hex(value, "ok")?;
    let trials = field_hex(value, "n")?;
    Rate::from_counts(successes, trials)
        .ok_or_else(|| SweepError::Wire("rate has more successes than trials".to_string()))
}

/// Renders a unit result line (worker → coordinator). Counters are
/// sorted by name so the encoding is canonical.
pub fn encode_result(unit: u64, results: &ProtocolMcResults, counters: &MetricsSnapshot) -> String {
    let (count, mean, m2, min, max) = results.messages.raw_parts();
    let mut counter_items: Vec<(&str, u64)> = counters
        .counters
        .iter()
        .map(|c| (c.name.as_str(), c.value))
        .collect();
    counter_items.sort_unstable();
    let rendered: Vec<String> = counter_items
        .iter()
        .map(|&(name, value)| format!("[\"{}\", \"{}\"]", json_escape(name), hex_u64(value)))
        .collect();
    format!(
        concat!(
            "{{\"type\": \"result\", \"v\": {}, \"unit\": \"{}\", ",
            "\"fingerprint\": \"{}\", \"released\": {}, \"clean\": {}, ",
            "\"early\": {}, \"messages\": {{\"count\": \"{}\", \"mean\": \"{}\", ",
            "\"m2\": \"{}\", \"min\": \"{}\", \"max\": \"{}\"}}, ",
            "\"counters\": [{}]}}"
        ),
        WIRE_VERSION,
        hex_u64(unit),
        hex_u64(results.fingerprint),
        rate_json(results.released),
        rate_json(results.clean),
        rate_json(results.reconstructed_early),
        hex_u64(count),
        hex_u64(mean.to_bits()),
        hex_u64(m2.to_bits()),
        hex_u64(min.to_bits()),
        hex_u64(max.to_bits()),
        rendered.join(", "),
    )
}

/// Renders a worker-side unit failure line.
pub fn encode_error(unit: u64, message: &str) -> String {
    format!(
        "{{\"type\": \"error\", \"v\": {}, \"unit\": \"{}\", \"message\": \"{}\"}}",
        WIRE_VERSION,
        hex_u64(unit),
        json_escape(message)
    )
}

/// Decodes one worker → coordinator line.
///
/// # Errors
///
/// [`SweepError::Wire`] on any malformed input — truncated JSON, wrong
/// types, missing/duplicated fields, inconsistent rates. The coordinator
/// records these as findings and retries the dispatch; it never panics.
pub fn decode_worker_line(line: &str) -> Result<WorkerReply, SweepError> {
    let doc = parse_json(line).map_err(|(pos, msg)| {
        SweepError::Wire(format!("worker line is not JSON (byte {pos}): {msg}"))
    })?;
    if field_u64(&doc, "v")? != WIRE_VERSION {
        return Err(SweepError::Wire("wire version mismatch".to_string()));
    }
    match field_str(&doc, "type")? {
        "result" => {
            let msg = field(&doc, "messages")?;
            let messages = Summary::from_raw_parts(
                field_hex(msg, "count")?,
                f64::from_bits(field_hex(msg, "mean")?),
                f64::from_bits(field_hex(msg, "m2")?),
                f64::from_bits(field_hex(msg, "min")?),
                f64::from_bits(field_hex(msg, "max")?),
            );
            let counters_field = field(&doc, "counters")?
                .as_array()
                .ok_or_else(|| SweepError::Wire("counters must be an array".to_string()))?;
            let mut counters = Vec::with_capacity(counters_field.len());
            for item in counters_field {
                let pair = item
                    .as_array()
                    .ok_or_else(|| SweepError::Wire("counter must be a pair".to_string()))?;
                let [name, value] = pair else {
                    return Err(SweepError::Wire("counter must be a pair".to_string()));
                };
                let name = name
                    .as_str()
                    .ok_or_else(|| SweepError::Wire("counter name must be a string".to_string()))?;
                let value = value
                    .as_str()
                    .ok_or_else(|| SweepError::Wire("counter value must be hex".to_string()))?;
                counters.push(CounterSnap {
                    name: name.to_string(),
                    value: parse_hex_u64(value)?,
                });
            }
            let results = ProtocolMcResults {
                released: decode_rate(field(&doc, "released")?)?,
                clean: decode_rate(field(&doc, "clean")?)?,
                reconstructed_early: decode_rate(field(&doc, "early")?)?,
                messages,
                fingerprint: field_hex(&doc, "fingerprint")?,
            };
            Ok(WorkerReply::Result(UnitResult {
                unit: field_hex(&doc, "unit")?,
                results,
                counters: MetricsSnapshot {
                    counters,
                    histograms: Vec::new(),
                },
            }))
        }
        "error" => Ok(WorkerReply::Error {
            unit: field_hex(&doc, "unit")?,
            message: field_str(&doc, "message")?.to_string(),
        }),
        other => Err(SweepError::Wire(format!("unknown message type {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::SweepGrid;

    fn sample_unit() -> UnitSpec {
        SweepGrid::builtin("share_8x3").unwrap().units(25)[3].clone()
    }

    #[test]
    fn request_round_trips_and_checks_its_digest() {
        let unit = sample_unit();
        let line = encode_request(&unit, 2);
        let (decoded, attempt) = decode_request(&line).unwrap();
        assert_eq!(decoded, unit);
        assert_eq!(attempt, 2);
        // Tampering with any outcome-determining field breaks the digest.
        let tampered = line.replace("\"first\": 75", "\"first\": 50");
        assert!(matches!(
            decode_request(&tampered),
            Err(SweepError::Wire(msg)) if msg.contains("digest")
        ));
    }

    #[test]
    fn result_round_trips_bit_exactly() {
        let mut results = ProtocolMcResults {
            released: Rate::from_counts(7, 9).unwrap(),
            clean: Rate::from_counts(5, 9).unwrap(),
            reconstructed_early: Rate::from_counts(0, 9).unwrap(),
            fingerprint: 0xDEAD_BEEF_0BAD_F00D,
            ..ProtocolMcResults::default()
        };
        for x in [14.0, 15.0, 17.5, 0.1 + 0.2] {
            results.messages.record(x);
        }
        let counters = MetricsSnapshot {
            counters: vec![
                CounterSnap {
                    name: "trial.execute.calls".to_string(),
                    value: 9,
                },
                CounterSnap {
                    name: "dht.analytic.resolves".to_string(),
                    value: u64::MAX,
                },
            ],
            histograms: Vec::new(),
        };
        let line = encode_result(42, &results, &counters);
        let reply = decode_worker_line(&line).unwrap();
        let WorkerReply::Result(unit) = reply else {
            panic!("expected a result");
        };
        assert_eq!(unit.unit, 42);
        assert_eq!(unit.results.fingerprint, results.fingerprint);
        assert_eq!(unit.results.released, results.released);
        assert_eq!(
            unit.results.messages.mean().to_bits(),
            results.messages.mean().to_bits()
        );
        assert_eq!(
            unit.results.messages.variance().to_bits(),
            results.messages.variance().to_bits()
        );
        // Counters come back sorted by name, full-width values intact.
        assert_eq!(
            unit.counters.counter("dht.analytic.resolves"),
            Some(u64::MAX)
        );
        assert_eq!(unit.counters.counter("trial.execute.calls"), Some(9));
    }

    #[test]
    fn error_lines_round_trip() {
        let line = encode_error(7, "insufficient nodes: need 25, have 10");
        assert!(matches!(
            decode_worker_line(&line).unwrap(),
            WorkerReply::Error { unit: 7, message }
                if message == "insufficient nodes: need 25, have 10"
        ));
    }

    #[test]
    fn corrupt_lines_decode_to_errors_never_panic() {
        let unit = sample_unit();
        let good = encode_result(
            unit.digest(),
            &ProtocolMcResults::default(),
            &MetricsSnapshot::default(),
        );
        let cases: Vec<String> = vec![
            String::new(),
            "not json at all".to_string(),
            "{\"type\": \"result\"}".to_string(),
            "{\"type\": \"mystery\", \"v\": 1}".to_string(),
            "{\"type\": \"result\", \"v\": 99, \"unit\": \"00\"}".to_string(),
            good[..good.len() / 2].to_string(), // truncated mid-line
            format!("{good}{good}"),            // two lines fused
            good.replace(
                "\"ok\": \"0000000000000000\"",
                "\"ok\": \"ffffffffffffffff\"",
            ), // ok > n
            good.replace("0000", "xyzw"),
            good.replace("\"v\": 1", "\"v\": 1, \"v\": 1"), // duplicated field
        ];
        for bad in &cases {
            assert!(
                matches!(decode_worker_line(bad), Err(SweepError::Wire(_))),
                "should reject {bad:?}"
            );
        }
    }

    #[test]
    fn hex_decoding_is_strict() {
        assert_eq!(parse_hex_u64("00ff").unwrap(), 255);
        assert_eq!(parse_hex_u64("ffffffffffffffff").unwrap(), u64::MAX);
        for bad in ["", "+1", "-1", "FF", "0x10", "11111111111111111", "12 "] {
            assert!(parse_hex_u64(bad).is_err(), "should reject {bad:?}");
        }
    }
}
