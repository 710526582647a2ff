//! Telemetry collection on top of `emerge-obs`.
//!
//! The trial pipelines (wire protocol and bonded contract) are
//! instrumented with `emerge_obs` spans; this module is the single code
//! path that collects their telemetry. A range call wrapped in
//! [`profiled`] hands the one Monte-Carlo driver its telemetry next to
//! its results, and the sweep worker runs each unit under [`collected`].

use emerge_obs::collector::{install, take};
use emerge_obs::{Collector, MetricsSnapshot};

/// Runs `f` with a fresh telemetry collector installed on the current
/// thread and returns its result plus the collected snapshot. Any
/// collector that was already installed is restored afterwards, so
/// profiled sections nest safely inside instrumented callers.
pub fn collected<R>(f: impl FnOnce() -> R) -> (R, MetricsSnapshot) {
    let previous = install(Collector::new());
    let result = f();
    let snapshot = take().map_or_else(MetricsSnapshot::default, |c| c.snapshot());
    if let Some(prev) = previous {
        install(prev);
    }
    (result, snapshot)
}

/// [`collected`] over a fallible range call, in the `(results, snapshot)`
/// shape that [`emerge_sim::shard::run_sharded`] merges half by half, so
/// every worker shard runs under its own fresh collector.
///
/// # Errors
///
/// The range call's error; its telemetry is dropped.
pub fn profiled<R, E>(range: impl FnOnce() -> Result<R, E>) -> Result<(R, MetricsSnapshot), E> {
    let (results, snapshot) = collected(range);
    results.map(|results| (results, snapshot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use emerge_obs::trace::span;
    use emerge_obs::{CounterId, SpanId};

    static TEST_BYTES: CounterId = CounterId::new("profile.test.bytes");
    static SPAN_PLAIN: SpanId = SpanId::new("profile.test.plain");
    static SPAN_TRACKED: SpanId =
        SpanId::tracking("profile.test.tracked", &TEST_BYTES, ".sealed_bytes");

    #[test]
    fn collected_captures_span_telemetry_and_restores_previous() {
        let outer = install(Collector::new());
        let (value, snapshot) = collected(|| {
            for _ in 0..3 {
                let _s = span(&SPAN_PLAIN);
            }
            {
                let _s = span(&SPAN_TRACKED);
                TEST_BYTES.add(512);
            }
            7u32
        });
        assert_eq!(value, 7);
        // The caller's collector is back in place and saw nothing.
        let restored = take().expect("previous collector restored");
        assert!(restored.snapshot().is_empty());
        if let Some(prev) = outer {
            install(prev);
        }

        // Each span is a histogram with a `.calls` counter; the tracked
        // one also carries its `.sealed_bytes` companion.
        assert_eq!(snapshot.histograms.len(), 2);
        assert_eq!(snapshot.counter("profile.test.plain.calls"), Some(3));
        assert_eq!(snapshot.counter("profile.test.plain.sealed_bytes"), None);
        assert_eq!(snapshot.counter("profile.test.tracked.calls"), Some(1));
        assert_eq!(
            snapshot.counter("profile.test.tracked.sealed_bytes"),
            Some(512)
        );
        let tracked = snapshot
            .histogram("profile.test.tracked")
            .expect("tracked span histogram");
        assert!(tracked.sum >= tracked.mean());
    }
}
