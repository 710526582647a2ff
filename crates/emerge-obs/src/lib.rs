//! # emerge-obs — dependency-free observability for the emerge workspace
//!
//! An air-gapped stand-in for the `tracing`/`metrics` ecosystem, built
//! on three pillars:
//!
//! * **Metrics** ([`metrics`]): fixed-capacity counters and log-bucketed
//!   histograms in a preallocated [`metrics::MetricsRegistry`].
//!   Steady-state recording is an index + array write — zero heap
//!   allocations — and cold-path [`metrics::MetricsSnapshot`]s merge with
//!   an associative, commutative `merge`, exactly like the Monte-Carlo
//!   engines' `Rate`/`Summary`, so per-shard telemetry combines into the
//!   serial totals bit for bit.
//! * **Tracing** ([`trace`]): RAII spans (`&'static str` names) timing
//!   into nanosecond histograms with per-span allocation counts and
//!   tracked-counter attribution, point events with `u64` fields, and a
//!   fixed-capacity ring-buffer sink with drop counting. The whole
//!   timing layer compiles out without the `trace` cargo feature.
//! * **Profiling hooks** ([`alloccount`], [`stopwatch`], [`export`]):
//!   a counting global allocator so spans can attribute heap
//!   allocations per phase, the shared bench stopwatch, and a
//!   Prometheus renderer for snapshots.
//!
//! Recording routes through the thread-local [`collector::Collector`]:
//! install one per worker thread, record for free, snapshot and merge
//! afterwards. With no collector installed every recording call is an
//! inert no-op, so instrumented library code costs (almost) nothing in
//! un-instrumented runs.
//!
//! ```
//! use emerge_obs::collector::{self, Collector};
//! use emerge_obs::metrics::CounterId;
//! use emerge_obs::trace::{span, SpanId};
//!
//! static RESOLVES: CounterId = CounterId::new("dht.resolve");
//! static PHASE: SpanId = SpanId::new("trial.paths");
//!
//! collector::install(Collector::new());
//! {
//!     let _guard = span(&PHASE);
//!     RESOLVES.incr();
//! }
//! let snap = collector::take().map(|c| c.snapshot()).unwrap_or_default();
//! assert_eq!(snap.counter("dht.resolve"), Some(1));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod alloccount;
pub mod collector;
pub mod export;
pub mod metrics;
pub mod stopwatch;
pub mod trace;

pub use collector::Collector;
pub use metrics::{CounterId, HistogramId, MetricsRegistry, MetricsSnapshot};
pub use stopwatch::Stopwatch;
pub use trace::{event, span, EventId, SpanId};
