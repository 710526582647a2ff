//! Property tests for `MetricsSnapshot::merge`: associativity and
//! commutativity over synthetic snapshots with overlapping and disjoint
//! metric names — the algebra that licenses merging per-shard telemetry
//! in any tree order and still reproducing the serial totals.

use emerge_obs::metrics::{
    bucket_index, CounterSnap, HistogramSnap, MetricsSnapshot, HIST_BUCKETS,
};
use proptest::prelude::*;

/// A small name pool so random snapshots collide on names often (the
/// interesting merge case) but not always.
const NAMES: [&str; 5] = ["a.calls", "b.bytes", "c.depth", "d.lat", "e.release"];

/// Builds a deterministic synthetic snapshot from drawn raw material.
/// `picks` selects names from the pool; duplicates collapse (keep-first)
/// so the per-kind vectors stay sorted and name-unique like real
/// snapshots.
fn snapshot_from(picks: &[usize], values: &[u64]) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    for (slot, (&pick, &v)) in picks.iter().zip(values.iter()).enumerate() {
        let name = NAMES[pick % NAMES.len()].to_string();
        match slot % 2 {
            0 => {
                if !snap.counters.iter().any(|c| c.name == name) {
                    snap.counters.push(CounterSnap { name, value: v });
                }
            }
            _ => {
                if !snap.histograms.iter().any(|h| h.name == name) {
                    let mut buckets = [0u64; HIST_BUCKETS];
                    buckets[bucket_index(v)] = 1;
                    buckets[bucket_index(v / 2)] += 1;
                    snap.histograms.push(HistogramSnap {
                        name,
                        count: 2,
                        sum: v.wrapping_add(v / 2),
                        min: v / 2,
                        max: v,
                        buckets,
                    });
                }
            }
        }
    }
    snap.counters.sort_by(|a, b| a.name.cmp(&b.name));
    snap.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    snap
}

fn merged(a: &MetricsSnapshot, b: &MetricsSnapshot) -> MetricsSnapshot {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    #[test]
    fn merge_is_associative_and_commutative(
        picks in proptest::collection::vec(0usize..NAMES.len(), 0..12),
        values in proptest::collection::vec(0u64..u64::MAX, 12..13),
        picks_b in proptest::collection::vec(0usize..NAMES.len(), 0..12),
        values_b in proptest::collection::vec(0u64..u64::MAX, 12..13),
        picks_c in proptest::collection::vec(0usize..NAMES.len(), 0..12),
        values_c in proptest::collection::vec(0u64..u64::MAX, 12..13),
    ) {
        let a = snapshot_from(&picks, &values);
        let b = snapshot_from(&picks_b, &values_b);
        let c = snapshot_from(&picks_c, &values_c);

        // Associativity: (a + b) + c == a + (b + c).
        let left = merged(&merged(&a, &b), &c);
        let right = merged(&a, &merged(&b, &c));
        prop_assert_eq!(&left, &right);

        // Commutativity: a + b == b + a.
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));

        // Identity: the empty snapshot is neutral on both sides.
        let empty = MetricsSnapshot::default();
        prop_assert_eq!(merged(&a, &empty), a.clone());
        prop_assert_eq!(merged(&empty, &a), a);
    }

    #[test]
    fn merge_totals_match_serial_sums(
        picks in proptest::collection::vec(0usize..NAMES.len(), 1..10),
        values in proptest::collection::vec(1u64..1_000_000, 10..11),
        split_names in proptest::collection::vec(0usize..NAMES.len(), 1..10),
        split_values in proptest::collection::vec(1u64..1_000_000, 10..11),
    ) {
        // Counters in particular must add exactly across shards.
        let a = snapshot_from(&picks, &values);
        let b = snapshot_from(&split_names, &split_values);
        let m = merged(&a, &b);
        for c in &m.counters {
            let expect = a.counter(&c.name).unwrap_or(0) + b.counter(&c.name).unwrap_or(0);
            prop_assert_eq!(c.value, expect);
        }
        for h in &m.histograms {
            let ca = a.histogram(&h.name).map_or(0, |x| x.count);
            let cb = b.histogram(&h.name).map_or(0, |x| x.count);
            prop_assert_eq!(h.count, ca + cb);
            let bucket_total: u64 = h.buckets.iter().sum();
            prop_assert_eq!(bucket_total, h.count);
        }
    }
}
