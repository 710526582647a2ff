//! Per-phase profiling on top of `emerge-obs` telemetry.
//!
//! The trial pipelines (pooled and allocating wire-protocol, bonded
//! contract) are instrumented with `emerge_obs` spans; this module is the
//! single code path that collects their telemetry and turns a
//! [`MetricsSnapshot`] into a per-phase breakdown. Both the
//! `montecarlo_baseline --profile` report and the `phase_profile` example
//! go through it, so the two can never disagree about what a phase costs.
//! A range call wrapped in [`profiled`] hands the one Monte-Carlo driver
//! its telemetry next to its results.

use emerge_obs::collector::{install, take};
use emerge_obs::{Collector, MetricsSnapshot};
use std::fmt::Write as _;

/// Aggregated statistics of one instrumented span (pipeline phase).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStats {
    /// Span name, e.g. `trial.package_build`.
    pub phase: String,
    /// Times the span was entered.
    pub calls: u64,
    /// Total nanoseconds spent inside the span across all calls.
    pub total_nanos: u64,
    /// Mean nanoseconds per call.
    pub mean_nanos: u64,
    /// 99th-percentile nanoseconds per call (log-bucket upper bound).
    pub p99_nanos: u64,
    /// Heap allocations attributed to the span — 0 unless the binary
    /// installs [`emerge_obs::alloccount::CountingAllocator`] as its
    /// global allocator.
    pub allocs: u64,
    /// AEAD plaintext bytes sealed inside the span (only spans declared
    /// with `SpanId::tracking` over `package.seal.bytes`; 0 elsewhere).
    pub sealed_bytes: u64,
}

/// Extracts the per-phase breakdown from a telemetry snapshot: every
/// histogram with a matching `<name>.calls` counter is a span, and its
/// `.allocs` / `.sealed_bytes` companions fill the attribution columns.
/// Phases come out in the snapshot's (sorted-by-name) order.
pub fn phase_stats(snapshot: &MetricsSnapshot) -> Vec<PhaseStats> {
    let mut out = Vec::new();
    for h in &snapshot.histograms {
        let Some(calls) = snapshot.counter(&format!("{}.calls", h.name)) else {
            continue; // a plain histogram, not a span
        };
        out.push(PhaseStats {
            phase: h.name.clone(),
            calls,
            total_nanos: h.sum,
            mean_nanos: h.mean(),
            p99_nanos: h.quantile(0.99),
            allocs: snapshot.counter(&format!("{}.allocs", h.name)).unwrap_or(0),
            sealed_bytes: snapshot
                .counter(&format!("{}.sealed_bytes", h.name))
                .unwrap_or(0),
        });
    }
    out
}

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

/// Renders a human-readable per-phase table. `wall_secs` is the
/// wall-clock time of the profiled section; the `share` column is each
/// phase's fraction of it (phases on parallel workers can sum past 100%).
pub fn render_phase_table(stats: &[PhaseStats], wall_secs: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>9} {:>12} {:>10} {:>6} {:>9} {:>12}",
        "phase", "calls", "mean us", "total s", "share", "allocs", "sealed B"
    );
    let wall_nanos = wall_secs * 1e9;
    for s in stats {
        let share = if wall_nanos > 0.0 {
            s.total_nanos as f64 / wall_nanos * 100.0
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:<24} {:>9} {:>12.2} {:>10.3} {:>5.0}% {:>9} {:>12}",
            s.phase,
            s.calls,
            s.mean_nanos as f64 / 1e3,
            s.total_nanos as f64 / 1e9,
            share,
            s.allocs,
            s.sealed_bytes,
        );
    }
    out
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

        let stats = phase_stats(&snapshot);
        assert_eq!(stats.len(), 2);
        let plain = stats
            .iter()
            .find(|s| s.phase == "profile.test.plain")
            .unwrap();
        assert_eq!(plain.calls, 3);
        assert_eq!(plain.sealed_bytes, 0);
        let tracked = stats
            .iter()
            .find(|s| s.phase == "profile.test.tracked")
            .unwrap();
        assert_eq!(tracked.calls, 1);
        assert_eq!(tracked.sealed_bytes, 512);
        assert!(tracked.total_nanos >= tracked.mean_nanos);
    }

    #[test]
    fn plain_histograms_are_not_phases() {
        use emerge_obs::HistogramId;
        static LATENCY: HistogramId = HistogramId::new("profile.test.latency");
        let ((), snapshot) = collected(|| {
            LATENCY.record(42);
        });
        assert!(snapshot.histogram("profile.test.latency").is_some());
        assert!(phase_stats(&snapshot).is_empty());
    }

    #[test]
    fn table_renders_every_phase_row() {
        let stats = vec![PhaseStats {
            phase: "trial.execute".into(),
            calls: 1000,
            total_nanos: 2_000_000_000,
            mean_nanos: 2_000_000,
            p99_nanos: 4_194_303,
            allocs: 0,
            sealed_bytes: 123_456,
        }];
        let table = render_phase_table(&stats, 4.0);
        assert!(table.contains("trial.execute"));
        assert!(table.contains("50%"), "2s of 4s wall is a 50% share");
        assert!(table.contains("123456"));
    }
}
