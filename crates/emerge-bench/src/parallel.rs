//! A tiny work-stealing `parallel_map` over OS threads, and the worker
//! count of the sharded Monte-Carlo binaries.
//!
//! The figure sweeps are embarrassingly parallel across `p` values; this
//! helper spreads them over the available cores with
//! [`parallel_map_workers`], the same scoped-thread pool that
//! [`emerge_sim::shard::run_sharded`] runs trial ranges on.

use emerge_sim::shard::parallel_map_workers;

/// Worker-thread count for Monte-Carlo sharding: `EMERGE_MC_THREADS` if
/// set to a positive integer, otherwise the machine's available
/// parallelism (1 if unknown).
///
/// The thread count only affects wall-clock time, never results:
/// [`emerge_sim::shard::run_sharded`] is bit-identical across thread
/// counts (CI runs the suites with `EMERGE_MC_THREADS=1` and unset to
/// guard this).
pub fn mc_threads() -> usize {
    std::env::var("EMERGE_MC_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Applies `f` to every item, in parallel, preserving input order in the
/// output. `f` must be `Sync` (it is shared across workers). Worker count
/// defaults to the available parallelism.
///
/// A panic inside `f` propagates to the caller (the scoped-thread runtime
/// re-raises it when the scope exits); the remaining items may or may not
/// have been processed by then.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = std::thread::available_parallelism().map_or(4, |p| p.get());
    parallel_map_workers(items, workers, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<u64> = parallel_map(&[] as &[u64], |x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(parallel_map(&[7], |x| x + 1), vec![8]);
    }

    #[test]
    fn mc_threads_is_positive() {
        // EMERGE_MC_THREADS is unset in the test environment; the default
        // must be a sane positive worker count either way.
        assert!(mc_threads() >= 1);
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items with wildly different costs still all complete.
        let items: Vec<u64> = (0..32).collect();
        let out = parallel_map(&items, |x| {
            let mut acc = 0u64;
            for i in 0..(x % 7) * 10_000 {
                acc = acc.wrapping_add(i);
            }
            (*x, acc).0
        });
        assert_eq!(out, items);
    }
}
