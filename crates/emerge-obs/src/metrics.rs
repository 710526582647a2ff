//! Fixed-capacity, mergeable metrics: counters and log-bucketed latency
//! histograms.
//!
//! The design goal is the same "sharded == serial" discipline as
//! `emerge_sim::metrics::{Rate, Summary}`: every metric lives in a
//! preallocated slot of a [`MetricsRegistry`], recording is a plain array
//! write (zero heap allocations in steady state), and the cold-path
//! [`MetricsSnapshot`] merges with an associative, commutative `merge`
//! so per-shard registries combine into exactly the serial totals.
//!
//! Metric handles ([`CounterId`], [`HistogramId`]) are
//! `static`s built from `&'static str` names. The slot index behind a
//! name is interned once into a global fixed-capacity table and cached
//! in the handle; two handles with equal names (even across crates)
//! resolve to the same slot, which is what lets e.g. the AEAD layer and
//! the package builder share one `crypto.seal.bytes` counter.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use crate::collector;

/// Capacity of the counter intern table (workspace-wide distinct names).
pub const MAX_COUNTERS: usize = 64;
/// Capacity of the histogram intern table.
pub const MAX_HISTOGRAMS: usize = 24;
/// Histogram bucket count: bucket `b` holds values whose bit length is
/// `b` (bucket 0 holds only 0, bucket 64 tops out at `u64::MAX`).
pub const HIST_BUCKETS: usize = 65;

/// Sentinel cached-slot value meaning "intern table was full; metric is
/// dropped" (distinct from 0 = "not resolved yet"; live slots store
/// `index + 1`).
const SLOT_DROPPED: u32 = u32::MAX;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct InternKey {
    name: &'static str,
    suffix: &'static str,
}

impl InternKey {
    fn full_name(self) -> String {
        let mut s = String::with_capacity(self.name.len() + self.suffix.len());
        s.push_str(self.name);
        s.push_str(self.suffix);
        s
    }
}

/// A fixed-capacity append-only name table. Interning compares by string
/// *content*, so two `static` ids declared in different crates with the
/// same name share a slot.
struct InternSpace<const N: usize> {
    keys: [Option<InternKey>; N],
    len: usize,
}

impl<const N: usize> InternSpace<N> {
    const fn new() -> Self {
        InternSpace {
            keys: [None; N],
            len: 0,
        }
    }

    fn intern(&mut self, key: InternKey) -> Option<u32> {
        for (i, k) in self.keys[..self.len].iter().enumerate() {
            if let Some(k) = k {
                if k.name == key.name && k.suffix == key.suffix {
                    return Some(i as u32);
                }
            }
        }
        if self.len == N {
            return None;
        }
        self.keys[self.len] = Some(key);
        self.len += 1;
        Some((self.len - 1) as u32)
    }

    fn key_at(&self, i: usize) -> Option<InternKey> {
        self.keys.get(i).copied().flatten()
    }
}

struct Interns {
    counters: InternSpace<MAX_COUNTERS>,
    histograms: InternSpace<MAX_HISTOGRAMS>,
}

static INTERNS: Mutex<Interns> = Mutex::new(Interns {
    counters: InternSpace::new(),
    histograms: InternSpace::new(),
});

fn interns() -> std::sync::MutexGuard<'static, Interns> {
    match INTERNS.lock() {
        Ok(guard) => guard,
        // A panic while holding the intern lock cannot leave the table in
        // a broken state (append-only array + len), so poisoning is safe
        // to ignore.
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Resolves a handle's cached slot, interning the name on first use.
/// Returns `None` when the intern table for this metric kind is full
/// (the metric silently drops — recording never fails or allocates).
fn resolve_slot<const N: usize>(
    cached: &AtomicU32,
    key: InternKey,
    table: fn(&mut Interns) -> &mut InternSpace<N>,
) -> Option<usize> {
    match cached.load(Ordering::Relaxed) {
        0 => match table(&mut interns()).intern(key) {
            Some(idx) => {
                cached.store(idx + 1, Ordering::Relaxed);
                Some(idx as usize)
            }
            None => {
                cached.store(SLOT_DROPPED, Ordering::Relaxed);
                None
            }
        },
        SLOT_DROPPED => None,
        n => Some((n - 1) as usize),
    }
}

/// Handle for a monotonically increasing `u64` counter.
///
/// Declare as a `static`; recording requires an installed
/// [`collector::Collector`] on the current thread and is a no-op (never
/// an error, never an allocation) otherwise.
pub struct CounterId {
    name: &'static str,
    suffix: &'static str,
    cached: AtomicU32,
}

impl CounterId {
    /// A counter handle with the given name.
    pub const fn new(name: &'static str) -> Self {
        Self::suffixed(name, "")
    }

    /// A counter handle whose registry name is `name` + `suffix`
    /// (used by spans to derive e.g. `trial.paths.allocs` from a span
    /// name without runtime string formatting).
    pub const fn suffixed(name: &'static str, suffix: &'static str) -> Self {
        CounterId {
            name,
            suffix,
            cached: AtomicU32::new(0),
        }
    }

    fn slot(&self) -> Option<usize> {
        resolve_slot(
            &self.cached,
            InternKey {
                name: self.name,
                suffix: self.suffix,
            },
            |t| &mut t.counters,
        )
    }

    /// Adds `n` to the counter (wrapping).
    pub fn add(&self, n: u64) {
        collector::with_metrics(|reg| {
            if let Some(i) = self.slot() {
                reg.counters[i] = reg.counters[i].wrapping_add(n);
            }
        });
    }

    /// Adds 1 to the counter.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value in the installed collector (0 if none installed).
    pub fn value(&self) -> u64 {
        collector::with_metrics(|reg| self.slot().map_or(0, |i| reg.counters[i])).unwrap_or(0)
    }

    /// Reads the counter and resets it to zero in one step — the
    /// take-semantics that `emerge-core`'s seal-volume hook exposes as
    /// `take_sealed_byte_count`.
    pub fn take(&self) -> u64 {
        collector::with_metrics(|reg| {
            self.slot()
                .map_or(0, |i| std::mem::replace(&mut reg.counters[i], 0))
        })
        .unwrap_or(0)
    }
}

/// One histogram's registry cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct HistCell {
    pub(crate) count: u64,
    pub(crate) sum: u64,
    pub(crate) min: u64,
    pub(crate) max: u64,
    pub(crate) buckets: [u64; HIST_BUCKETS],
}

impl HistCell {
    pub(crate) const EMPTY: HistCell = HistCell {
        count: 0,
        sum: 0,
        min: u64::MAX,
        max: 0,
        buckets: [0; HIST_BUCKETS],
    };

    fn record(&mut self, v: u64) {
        self.count = self.count.wrapping_add(1);
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_index(v)] = self.buckets[bucket_index(v)].wrapping_add(1);
    }
}

/// The bucket a value lands in: its bit length (0 for 0). Power-of-two
/// bucket edges keep recording branch-free and merging exact.
pub fn bucket_index(v: u64) -> usize {
    64 - v.leading_zeros() as usize
}

/// Inclusive upper bound of bucket `b` (`0`, then `2^b - 1`, saturating
/// at `u64::MAX` for the last bucket).
pub fn bucket_upper_bound(b: usize) -> u64 {
    match b {
        0 => 0,
        64.. => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

/// Handle for a log-bucketed `u64` histogram (latencies in nanoseconds,
/// sizes in bytes). Recording is an array write; quantiles are estimated
/// at export time from the bucket edges.
pub struct HistogramId {
    name: &'static str,
    cached: AtomicU32,
}

impl HistogramId {
    /// A histogram handle with the given name.
    pub const fn new(name: &'static str) -> Self {
        HistogramId {
            name,
            cached: AtomicU32::new(0),
        }
    }

    fn slot(&self) -> Option<usize> {
        resolve_slot(
            &self.cached,
            InternKey {
                name: self.name,
                suffix: "",
            },
            |t| &mut t.histograms,
        )
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        collector::with_metrics(|reg| {
            if let Some(i) = self.slot() {
                reg.histograms[i].record(v);
            }
        });
    }
}

/// The preallocated per-collector metric store. Every slot for every
/// internable name exists up front, so recording into any metric is an
/// index + array write with no allocation.
pub struct MetricsRegistry {
    pub(crate) counters: [u64; MAX_COUNTERS],
    pub(crate) histograms: [HistCell; MAX_HISTOGRAMS],
}

impl MetricsRegistry {
    /// A registry with every slot zeroed.
    pub fn new() -> Self {
        MetricsRegistry {
            counters: [0; MAX_COUNTERS],
            histograms: [HistCell::EMPTY; MAX_HISTOGRAMS],
        }
    }

    /// Zeroes every slot in place (no allocation, usable between
    /// measurement passes).
    pub fn clear(&mut self) {
        self.counters = [0; MAX_COUNTERS];
        self.histograms = [HistCell::EMPTY; MAX_HISTOGRAMS];
    }

    /// A named, sorted, cold-path snapshot of every *touched* metric.
    /// Untouched slots are skipped so that a name interned on one shard
    /// but never recorded there does not perturb snapshot equality
    /// across shards.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let interns = interns();
        let mut counters = Vec::new();
        for (i, &v) in self.counters.iter().enumerate() {
            if v != 0 {
                if let Some(key) = interns.counters.key_at(i) {
                    counters.push(CounterSnap {
                        name: key.full_name(),
                        value: v,
                    });
                }
            }
        }
        let mut histograms = Vec::new();
        for (i, h) in self.histograms.iter().enumerate() {
            if h.count != 0 {
                if let Some(key) = interns.histograms.key_at(i) {
                    histograms.push(HistogramSnap {
                        name: key.full_name(),
                        count: h.count,
                        sum: h.sum,
                        min: h.min,
                        max: h.max,
                        buckets: h.buckets,
                    });
                }
            }
        }
        drop(interns);
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot {
            counters,
            histograms,
        }
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

/// One counter in a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSnap {
    /// Full metric name (handle name + suffix).
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// One histogram in a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnap {
    /// Full metric name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values (wrapping).
    pub sum: u64,
    /// Smallest observed value.
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
    /// Per-bucket observation counts ([`bucket_index`] layout).
    pub buckets: [u64; HIST_BUCKETS],
}

impl HistogramSnap {
    /// Mean observed value (0 for an empty histogram).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Upper-bound estimate of quantile `q` in `[0, 1]` from the bucket
    /// edges: the upper bound of the bucket containing the `ceil(q *
    /// count)`-th observation, clamped to the observed max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return bucket_upper_bound(b).min(self.max).max(self.min);
            }
        }
        self.max
    }
}

/// A named, sorted snapshot of metric state — the mergeable, exportable
/// cold-path view of a [`MetricsRegistry`].
#[derive(Clone, Debug, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<CounterSnap>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSnap>,
}

/// Sorted merge-join of two name-sorted metric vectors: matching names
/// combine via `combine`, unmatched entries pass through. Keeping both
/// inputs sorted makes the operation associative and commutative as
/// long as `combine` itself is.
fn merge_by_name<T: Clone>(
    a: &[T],
    b: &[T],
    name_of: impl Fn(&T) -> &str,
    combine: impl Fn(&T, &T) -> T,
) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match name_of(&a[i]).cmp(name_of(&b[j])) {
            std::cmp::Ordering::Less => {
                out.push(a[i].clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j].clone());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(combine(&a[i], &b[j]));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

impl MetricsSnapshot {
    /// Merges `other` into `self` with exact integer arithmetic:
    /// counters add (wrapping), histograms add bucketwise. The
    /// operation is associative and commutative, so any merge tree over
    /// per-shard snapshots reproduces the serial snapshot exactly.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.counters = merge_by_name(
            &self.counters,
            &other.counters,
            |c| &c.name,
            |x, y| CounterSnap {
                name: x.name.clone(),
                value: x.value.wrapping_add(y.value),
            },
        );
        self.histograms = merge_by_name(
            &self.histograms,
            &other.histograms,
            |h| &h.name,
            |x, y| {
                let mut buckets = x.buckets;
                for (dst, src) in buckets.iter_mut().zip(y.buckets.iter()) {
                    *dst = dst.wrapping_add(*src);
                }
                HistogramSnap {
                    name: x.name.clone(),
                    count: x.count.wrapping_add(y.count),
                    sum: x.sum.wrapping_add(y.sum),
                    min: x.min.min(y.min),
                    max: x.max.max(y.max),
                    buckets,
                }
            },
        );
    }

    /// True when no metric was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Looks up a counter's value by full name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a histogram by full name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnap> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{install, take, Collector};

    fn with_collector<R>(f: impl FnOnce() -> R) -> (R, MetricsSnapshot) {
        let prev = install(Collector::new());
        assert!(prev.is_none(), "metrics tests must not nest collectors");
        let r = f();
        let col = take().expect("collector still installed");
        (r, col.snapshot())
    }

    #[test]
    fn bucket_layout_is_exact() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for b in 0..HIST_BUCKETS {
            let ub = bucket_upper_bound(b);
            assert_eq!(
                bucket_index(ub),
                b,
                "upper bound of bucket {b} must land in it"
            );
            if b + 1 < HIST_BUCKETS {
                assert_eq!(bucket_index(ub + 1), b + 1);
            }
        }
    }

    #[test]
    fn counters_record_and_take() {
        static HITS: CounterId = CounterId::new("test.hits");
        // No collector installed: recording is a silent no-op.
        HITS.incr();
        assert_eq!(HITS.value(), 0);

        let ((), snap) = with_collector(|| {
            HITS.add(3);
            HITS.incr();
            assert_eq!(HITS.value(), 4);
            assert_eq!(HITS.take(), 4);
            assert_eq!(HITS.value(), 0);
            HITS.add(9);
        });
        assert_eq!(snap.counter("test.hits"), Some(9));
    }

    #[test]
    fn same_name_shares_a_slot_across_handles() {
        static A: CounterId = CounterId::new("test.shared");
        static B: CounterId = CounterId::new("test.shared");
        let ((), snap) = with_collector(|| {
            A.add(2);
            B.add(5);
        });
        assert_eq!(snap.counter("test.shared"), Some(7));
        assert_eq!(
            snap.counters
                .iter()
                .filter(|c| c.name == "test.shared")
                .count(),
            1
        );
    }

    #[test]
    fn histograms_bucket_and_summarize() {
        static LAT: HistogramId = HistogramId::new("test.lat");
        let ((), snap) = with_collector(|| {
            for v in [0u64, 1, 2, 3, 900, 1_000_000] {
                LAT.record(v);
            }
        });
        let h = snap.histogram("test.lat").expect("histogram recorded");
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1_000_906); // 0+1+2+3+900+1_000_000
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1_000_000);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[bucket_index(900)], 1);
        assert_eq!(h.buckets[bucket_index(1_000_000)], 1);
        assert_eq!(h.mean(), (6 + 900 + 1_000_000) / 6);
        assert!(h.quantile(1.0) >= 1_000_000);
        assert!(h.quantile(0.5) <= bucket_upper_bound(bucket_index(900)));
    }

    #[test]
    fn snapshot_skips_untouched_metrics() {
        static TOUCHED: CounterId = CounterId::new("test.touched");
        static UNTOUCHED: CounterId = CounterId::new("test.untouched");
        let ((), snap) = with_collector(|| {
            TOUCHED.incr();
            // Resolve the second name's slot without recording to it.
            assert_eq!(UNTOUCHED.value(), 0);
        });
        assert_eq!(snap.counter("test.touched"), Some(1));
        assert_eq!(snap.counter("test.untouched"), None);
    }

    #[test]
    fn merge_is_exact_and_handles_disjoint_names() {
        let mk = |name: &str, value: u64| CounterSnap {
            name: name.to_string(),
            value,
        };
        let mut a = MetricsSnapshot {
            counters: vec![mk("a", 1), mk("c", 10)],
            ..MetricsSnapshot::default()
        };
        let b = MetricsSnapshot {
            counters: vec![mk("b", 5), mk("c", 32)],
            ..MetricsSnapshot::default()
        };
        a.merge(&b);
        assert_eq!(a.counters, vec![mk("a", 1), mk("b", 5), mk("c", 42)]);
    }
}
