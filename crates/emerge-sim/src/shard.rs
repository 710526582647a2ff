//! The one Monte-Carlo driver and the machinery it rests on.
//!
//! Every trial kind (the model and the wire protocol of `emerge-core`,
//! the bonded mode of `emerge-contract`) exposes a *range call* that
//! runs trials `[first_trial, first_trial + count)`, each keyed by its
//! global index, and no whole-batch form.
//! [`run_sharded`] is the one place that splits a batch into such ranges
//! ([`shard_ranges`]), runs them on worker threads
//! ([`parallel_map_workers`]) and folds the partials back together
//! ([`Merge`]). The "sharded == serial bit for bit" guarantee rests on
//! [`TrialDigest`], the FNV-1a accumulator whose [`mix64`]-finalized
//! output is combined across trials by wrapping addition — associative
//! and commutative, so any merge tree over disjoint ranges reproduces
//! the serial digest exactly.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use emerge_obs::MetricsSnapshot;

/// Partitions `trials` into exactly `max(shards, 1)` contiguous
/// `(first_trial, count)` ranges whose sizes differ by at most one.
///
/// When `trials < shards` the trailing ranges are empty `(trials, 0)`:
/// a worker handed one runs zero trials and produces the default result,
/// which merges as the identity. Emitting exactly one range per requested
/// shard (instead of silently clamping the shard count to the trial
/// count, as this function once did) lets a fixed worker fleet be handed
/// one range each regardless of how small the batch is.
pub fn shard_ranges(trials: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.max(1);
    let base = trials / shards;
    let extra = trials % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let count = base + usize::from(i < extra);
        ranges.push((start, count));
        start += count;
    }
    ranges
}

/// Results of a batch of trials that fold exactly into the results of a
/// disjoint batch: counters add, fingerprints add wrapping.
pub trait Merge {
    /// Folds the results of a disjoint batch into `self`.
    fn merge(&mut self, other: &Self);
}

impl Merge for MetricsSnapshot {
    fn merge(&mut self, other: &Self) {
        MetricsSnapshot::merge(self, other);
    }
}

/// Results paired with the telemetry of their range merge half by half.
impl<A: Merge, B: Merge> Merge for (A, B) {
    fn merge(&mut self, other: &Self) {
        self.0.merge(&other.0);
        self.1.merge(&other.1);
    }
}

/// Runs a batch of `trials` as `max(threads, 1)` contiguous ranges, one
/// per worker thread, and merges the partials in shard order.
/// `range(first_trial, count)` is shared across workers, so per-shard
/// state (worlds, workspaces) is built inside the call. The result equals
/// one serial range call over `[0, trials)` on every counter-valued field
/// and fingerprint, for any thread count; surplus workers run empty
/// ranges, which merge as the identity.
///
/// # Errors
///
/// Returns the first failing shard's error, in shard order.
pub fn run_sharded<R, E, F>(trials: usize, threads: usize, range: F) -> Result<R, E>
where
    R: Merge + Default + Send,
    E: Send,
    F: Fn(usize, usize) -> Result<R, E> + Sync,
{
    let ranges = shard_ranges(trials, threads);
    let partials = parallel_map_workers(&ranges, threads, |&(first_trial, count)| {
        range(first_trial, count)
    });
    let mut merged = R::default();
    for partial in partials {
        merged.merge(&partial?);
    }
    Ok(merged)
}

/// Applies `f` to every item on `workers` scoped threads (clamped to
/// `[1, items.len()]`), preserving input order. `workers == 1` runs
/// inline on the caller's thread, which keeps single-threaded runs
/// deterministic in scheduling as well as results. A panic inside `f`
/// propagates to the caller.
pub fn parallel_map_workers<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }

    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&items[i]);
                // LINT-WAIVER(panic): a poisoned slot means a worker panicked, and that panic propagates via join first
                *results[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                // LINT-WAIVER(panic): a poisoned slot means a worker panicked, and that panic propagates via join first
                .expect("result slot poisoned")
                // LINT-WAIVER(panic): the worker loop fills every slot before the threads are joined
                .expect("every slot filled")
        })
        .collect()
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// SplitMix64 finalizer (Vigna 2015). Applied to each trial's FNV state
/// so that the wrapping-sum combination of per-trial digests has full
/// 64-bit diffusion (raw FNV outputs are biased in the low bits).
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An FNV-1a accumulator for one trial's digest. Key it by the *global*
/// trial index first ([`TrialDigest::eat`] the index bytes), so the
/// digest is sensitive to which trial produced an outcome even though
/// the cross-trial combination is commutative.
#[derive(Debug, Clone, Copy)]
pub struct TrialDigest {
    state: u64,
}

impl TrialDigest {
    /// A fresh accumulator at the FNV offset basis.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        TrialDigest { state: FNV_OFFSET }
    }

    /// Feeds bytes through the FNV-1a round.
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// The [`mix64`]-finalized digest, ready for wrapping-sum combination.
    pub fn finish(self) -> u64 {
        mix64(self.state)
    }
}

/// Digest of a telemetry snapshot's *counter* section: the sorted
/// `(name, value)` pairs fed through one [`TrialDigest`]. Counters merge
/// exactly (wrapping addition of per-trial increments), so a serial
/// run's digest equals the digest of its shards' merged snapshots for
/// any shard count — the "sharded == serial" guarantee extended from
/// trial outcomes to telemetry.
///
/// Histograms are deliberately excluded: span histograms carry
/// wall-clock nanoseconds, which no two runs reproduce. (Counters that
/// record environment-dependent quantities — e.g. `.allocs` from
/// per-shard pool warm-ups under a counting allocator — are likewise
/// shard-dependent; the digest is only as stable as the counters fed
/// into it.)
pub fn metrics_digest(snapshot: &MetricsSnapshot) -> u64 {
    let mut d = TrialDigest::new();
    for c in &snapshot.counters {
        d.eat(c.name.as_bytes());
        // Name terminator: ("ab", …) must not collide with ("a", …).
        d.eat(&[0]);
        d.eat(&c.value.to_le_bytes());
    }
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use emerge_obs::metrics::{CounterSnap, HistogramSnap, HIST_BUCKETS};

    /// A toy batch result merged the way the engines merge theirs: a
    /// trial count and an index-keyed wrapping-sum fingerprint.
    #[derive(Debug, Default, Clone, PartialEq, Eq)]
    struct Toy(usize, u64);

    impl Merge for Toy {
        fn merge(&mut self, other: &Self) {
            self.0 += other.0;
            self.1 = self.1.wrapping_add(other.1);
        }
    }

    fn toy(first_trial: usize, count: usize) -> Toy {
        let trials = first_trial..first_trial + count;
        Toy(
            count,
            trials.fold(0, |fp, i| fp.wrapping_add(mix64(i as u64))),
        )
    }

    fn counters(pairs: &[(&str, u64)]) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: pairs
                .iter()
                .map(|&(name, value)| CounterSnap {
                    name: name.into(),
                    value,
                })
                .collect(),
            histograms: Vec::new(),
        }
    }

    #[test]
    fn run_sharded_returns_the_first_failing_shard_in_shard_order() {
        // Trials 13 and 20 fail. On 4 threads the ranges start at 0, 6,
        // 12 and 18; on 8 at every multiple of 3. Either way two shards
        // error, and the one at 12 comes first in shard order whichever
        // thread finishes first.
        let failing = |first_trial: usize, count: usize| {
            let range = first_trial..first_trial + count;
            if range.contains(&13) || range.contains(&20) {
                return Err(format!("shard at {first_trial}"));
            }
            Ok(toy(first_trial, count))
        };
        for threads in [4usize, 8] {
            let err = run_sharded(24, threads, failing).unwrap_err();
            assert_eq!(err, "shard at 12", "{threads} threads");
        }
        assert_eq!(
            run_sharded(24, 1, failing).unwrap_err(),
            "shard at 0",
            "one shard covers every trial"
        );
    }

    #[test]
    fn surplus_workers_run_empty_ranges_that_merge_as_the_identity() {
        let empty_calls = AtomicUsize::new(0);
        let merged = run_sharded(3, 8, |first_trial, count| {
            if count == 0 {
                assert_eq!(first_trial, 3, "empty ranges sit at the batch end");
                empty_calls.fetch_add(1, Ordering::Relaxed);
            }
            Ok::<_, String>(toy(first_trial, count))
        });
        assert_eq!(empty_calls.into_inner(), 5, "8 shards for 3 trials");
        assert_eq!(merged, Ok(toy(0, 3)));
    }

    #[test]
    fn results_paired_with_telemetry_merge_both_halves() {
        let profiled = |first_trial: usize, count: usize| {
            let snapshot = counters(&[("shard.test.trials", count as u64)]);
            Ok::<_, String>((toy(first_trial, count), snapshot))
        };
        for threads in [0usize, 1, 3, 16] {
            let (merged, telemetry) = run_sharded(10, threads, profiled).unwrap();
            assert_eq!(merged, toy(0, 10), "{threads} threads");
            assert_eq!(
                telemetry.counter("shard.test.trials"),
                Some(10),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn explicit_worker_counts_agree() {
        let items: Vec<u64> = (0..50).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [1usize, 2, 7, 64] {
            assert_eq!(parallel_map_workers(&items, workers, |x| x * x), expect);
        }
        assert_eq!(parallel_map_workers(&items, 0, |x| x * x), expect);
        assert!(parallel_map_workers(&[] as &[u64], 4, |x| *x).is_empty());
    }

    #[test]
    fn worker_panics_propagate_to_the_caller() {
        let items: Vec<u64> = (0..32).collect();
        for workers in [1usize, 4] {
            let caught = std::panic::catch_unwind(|| {
                parallel_map_workers(&items, workers, |&x| {
                    assert!(x != 17, "poisoned item");
                    x
                })
            });
            assert!(
                caught.is_err(),
                "a panic in f must not be swallowed (workers = {workers})"
            );
        }
    }

    #[test]
    fn shard_ranges_partition_contiguously() {
        for (trials, shards) in [(10, 3), (7, 7), (5, 9), (1, 1), (0, 4), (1000, 16)] {
            let ranges = shard_ranges(trials, shards);
            assert_eq!(ranges.len(), shards.max(1), "one range per shard");
            let mut next = 0;
            for &(start, count) in &ranges {
                assert_eq!(start, next, "ranges must be contiguous");
                next = start + count;
            }
            assert_eq!(next, trials, "ranges must cover every trial");
            let sizes: Vec<usize> = ranges.iter().map(|&(_, c)| c).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "near-equal split: {sizes:?}");
        }
        assert_eq!(shard_ranges(5, 0), vec![(0, 5)], "0 shards clamps to 1");
    }

    #[test]
    fn more_shards_than_trials_yields_empty_tail_ranges() {
        // A fixed worker fleet gets one range each; the surplus workers
        // receive empty `(trials, 0)` ranges that merge as the identity.
        assert_eq!(
            shard_ranges(3, 8),
            vec![
                (0, 1),
                (1, 1),
                (2, 1),
                (3, 0),
                (3, 0),
                (3, 0),
                (3, 0),
                (3, 0)
            ]
        );
        assert_eq!(shard_ranges(0, 3), vec![(0, 0), (0, 0), (0, 0)]);
    }

    #[test]
    fn digest_is_deterministic_and_input_sensitive() {
        let digest_of = |chunks: &[&[u8]]| {
            let mut d = TrialDigest::new();
            for c in chunks {
                d.eat(c);
            }
            d.finish()
        };
        assert_eq!(digest_of(&[b"abc"]), digest_of(&[b"abc"]));
        // FNV-1a is a pure byte stream: chunking must not matter...
        assert_eq!(digest_of(&[b"ab", b"c"]), digest_of(&[b"abc"]));
        // ...but content must.
        assert_ne!(digest_of(&[b"abc"]), digest_of(&[b"abd"]));
        // The empty digest is the mixed offset basis, not zero.
        assert_eq!(digest_of(&[]), TrialDigest::new().finish());
        assert_ne!(digest_of(&[]), 0);
    }

    #[test]
    fn metrics_digest_tracks_counters_and_ignores_timing() {
        let snap = counters;
        let a = snap(&[("trial.execute.calls", 12), ("package.seal.bytes", 9_000)]);
        assert_eq!(metrics_digest(&a), metrics_digest(&a.clone()));
        // Value-sensitive and name-sensitive.
        assert_ne!(
            metrics_digest(&a),
            metrics_digest(&snap(&[
                ("trial.execute.calls", 13),
                ("package.seal.bytes", 9_000)
            ]))
        );
        assert_ne!(
            metrics_digest(&a),
            metrics_digest(&snap(&[
                ("trial.execute.call", 12),
                ("package.seal.bytes", 9_000)
            ]))
        );
        // Merging two shards reproduces the serial digest: counters add.
        let mut merged = snap(&[("trial.execute.calls", 5), ("package.seal.bytes", 4_000)]);
        merged.merge(&snap(&[
            ("trial.execute.calls", 7),
            ("package.seal.bytes", 5_000),
        ]));
        assert_eq!(metrics_digest(&merged), metrics_digest(&a));
        // Histograms never perturb the digest (they hold wall-clock time).
        let mut with_hist = a.clone();
        with_hist.histograms = vec![HistogramSnap {
            name: "trial.execute".into(),
            count: 12,
            sum: 123_456_789,
            min: 1,
            max: 99_999_999,
            buckets: [0; HIST_BUCKETS],
        }];
        assert_eq!(metrics_digest(&with_hist), metrics_digest(&a));
    }

    #[test]
    fn mix64_diffuses_counter_inputs() {
        // Adjacent inputs (the failure mode of raw FNV in a wrapping sum)
        // land far apart after finalization.
        let a = mix64(1);
        let b = mix64(2);
        assert_ne!(a, b);
        assert!((a ^ b).count_ones() > 16, "adjacent inputs must diffuse");
    }
}
