//! Property tests for the sweep wire format: decoding must never panic
//! on any input, and everything the encoder produces must decode back
//! bit-for-bit — rates as exact counts, summaries down to their float
//! bit patterns, counters at full u64 width.

use emerge_core::montecarlo::ProtocolMcResults;
use emerge_obs::metrics::CounterSnap;
use emerge_obs::MetricsSnapshot;
use emerge_sim::metrics::Rate;
use emerge_sweep::error::SweepError;
use emerge_sweep::grid::SweepGrid;
use emerge_sweep::wire::{
    decode_request, decode_worker_line, encode_request, encode_result, WorkerReply, MAX_POPULATION,
};
use emerge_sweep::worker::{respond, ReplyPlan};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

fn sample_unit(index: usize) -> emerge_sweep::grid::UnitSpec {
    let grid = SweepGrid::builtin("schemes_2x3")
        .unwrap()
        .with_trials_per_cell(97);
    let units = grid.units(13);
    units[index % units.len()].clone()
}

/// A well-formed request for a world no worker can build is rejected at
/// decode time, and `respond` answers it with an error reply instead of
/// panicking inside world construction.
fn assert_population_rejected(population: usize) {
    let mut unit = sample_unit(0);
    unit.population = population;
    let line = encode_request(&unit, 0);
    assert!(
        matches!(decode_request(&line), Err(SweepError::Wire(_))),
        "population {population} must not decode"
    );
    let ReplyPlan::Respond { lines, .. } = respond(&line, None) else {
        panic!("no chaos plan, so the worker must reply");
    };
    assert_eq!(lines.len(), 1);
    assert!(
        matches!(decode_worker_line(&lines[0]), Ok(WorkerReply::Error { .. })),
        "population {population} must get an error reply: {}",
        lines[0]
    );
}

#[test]
fn zero_population_requests_get_an_error_reply() {
    assert_population_rejected(0);
}

#[test]
fn oversized_population_requests_get_an_error_reply() {
    assert_population_rejected(MAX_POPULATION + 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup never panics either decoder.
    #[test]
    fn decoders_never_panic_on_arbitrary_bytes(bytes in pvec(any::<u8>(), 0..240)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = decode_worker_line(&text);
        let _ = decode_request(&text);
    }

    /// Mutating one byte of a valid result line never panics; if it
    /// still decodes, the digest field was untouched.
    #[test]
    fn mutated_result_lines_never_panic(
        seed in any::<u64>(),
        pos in any::<usize>(),
        replacement in any::<u8>(),
    ) {
        let results = ProtocolMcResults {
            released: Rate::from_counts(seed % 40, 40).unwrap(),
            fingerprint: seed,
            ..ProtocolMcResults::default()
        };
        let line = encode_result(seed, &results, &MetricsSnapshot::default());
        let mut bytes = line.into_bytes();
        let at = pos % bytes.len();
        bytes[at] = replacement;
        let mutated = String::from_utf8_lossy(&bytes).into_owned();
        let _ = decode_worker_line(&mutated);
    }

    /// Requests round-trip exactly for every unit of a real grid, at any
    /// attempt number.
    #[test]
    fn requests_round_trip(index in any::<usize>(), attempt in 0u32..1_000) {
        let unit = sample_unit(index);
        let (decoded, got_attempt) = decode_request(&encode_request(&unit, attempt)).unwrap();
        prop_assert_eq!(decoded.digest(), unit.digest());
        prop_assert_eq!(decoded, unit);
        prop_assert_eq!(got_attempt, attempt);
    }

    /// Results round-trip bit-exactly: rates as counts, the message
    /// summary's raw float state, and full-width counters.
    #[test]
    fn results_round_trip_bit_exactly(
        unit in any::<u64>(),
        released in 0u64..100,
        trials in 100u64..200,
        samples in pvec(0.0f64..1.0e6, 0..20),
        counter_values in pvec(any::<u64>(), 0..8),
        fingerprint in any::<u64>(),
    ) {
        let mut results = ProtocolMcResults {
            released: Rate::from_counts(released, trials).unwrap(),
            clean: Rate::from_counts(released / 2, trials).unwrap(),
            reconstructed_early: Rate::from_counts(0, trials).unwrap(),
            fingerprint,
            ..ProtocolMcResults::default()
        };
        for &x in &samples {
            results.messages.record(x);
        }
        let counters = MetricsSnapshot {
            counters: counter_values
                .iter()
                .enumerate()
                .map(|(i, &value)| CounterSnap {
                    name: format!("prop.counter.{i:02}"),
                    value,
                })
                .collect(),
            gauges: Vec::new(),
            histograms: Vec::new(),
        };
        let line = encode_result(unit, &results, &counters);
        let WorkerReply::Result(back) = decode_worker_line(&line).unwrap() else {
            panic!("expected a result line");
        };
        prop_assert_eq!(back.unit, unit);
        prop_assert_eq!(back.results.fingerprint, fingerprint);
        prop_assert_eq!(back.results.released, results.released);
        prop_assert_eq!(back.results.clean, results.clean);
        let (count_a, mean_a, m2_a, min_a, max_a) = results.messages.raw_parts();
        let (count_b, mean_b, m2_b, min_b, max_b) = back.results.messages.raw_parts();
        prop_assert_eq!(count_a, count_b);
        prop_assert_eq!(mean_a.to_bits(), mean_b.to_bits());
        prop_assert_eq!(m2_a.to_bits(), m2_b.to_bits());
        prop_assert_eq!(min_a.to_bits(), min_b.to_bits());
        prop_assert_eq!(max_a.to_bits(), max_b.to_bits());
        for (i, &value) in counter_values.iter().enumerate() {
            prop_assert_eq!(back.counters.counter(&format!("prop.counter.{i:02}")), Some(value));
        }
        // Merging a decoded result is indistinguishable from merging the
        // original — the property the coordinator's exact merge rests on.
        let mut via_wire = ProtocolMcResults::default();
        via_wire.merge(&back.results);
        let mut direct = ProtocolMcResults::default();
        direct.merge(&results);
        prop_assert_eq!(via_wire.fingerprint, direct.fingerprint);
        prop_assert_eq!(via_wire.released, direct.released);
        prop_assert_eq!(
            via_wire.messages.mean().to_bits(),
            direct.messages.mean().to_bits()
        );
    }
}
