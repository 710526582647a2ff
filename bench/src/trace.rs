//! Spans for the traced run, recorded from the benchmark's own code
//! around each call into a layer's public API.
//!
//! Every span holds its name (`layer.call`), start, end, parent and trial
//! id, plus the heap allocations the thread made inside it (live when the
//! binary installs `emerge_obs::alloccount::CountingAllocator`). Spans go
//! to a per-thread buffer sized before the run, so recording neither
//! allocates nor synchronizes, and are written as JSON at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use emerge_obs::alloccount::allocations;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Nanoseconds elapsed since `epoch`.
pub fn nanos_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `package.build_share_packages_into`.
    pub name: &'static str,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer, or [`NO_PARENT`].
    pub parent: u32,
    /// Global index of the trial the span belongs to.
    pub trial: u32,
    /// Heap allocations inside the span, children included.
    pub allocs: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    wall_ns: u64,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`, with room for
    /// `capacity` spans before its buffer would grow.
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Tracer {
            epoch,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            wall_ns: 0,
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        nanos_since(self.epoch)
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str, trial: usize) -> u32 {
        let id = u32::try_from(self.spans.len()).unwrap_or(NO_PARENT);
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let allocs = allocations();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent,
            trial: u32::try_from(trial).unwrap_or(u32::MAX),
            allocs,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: u32) {
        let end = self.now();
        let allocs = allocations();
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end;
            span.allocs = allocs.wrapping_sub(span.allocs);
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, trial: usize, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, trial);
        let out = f();
        self.exit(id);
        out
    }

    /// Adds wall time during which this thread was replaying trials; the
    /// reconciliation compares it with the time the root spans cover.
    pub fn add_wall(&mut self, ns: u64) {
        self.wall_ns += ns;
    }

    /// Replay wall time recorded with [`Tracer::add_wall`].
    pub fn wall_ns(&self) -> u64 {
        self.wall_ns
    }

    /// The spans recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time and self allocations of every span: its own totals minus
/// those of its direct children. Children of one parent never overlap
/// (one thread runs them in sequence), so this is exactly the part of the
/// span's interval no child covers.
pub fn self_costs(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut costs: Vec<(u64, u64)> = spans.iter().map(|s| (s.duration_ns(), s.allocs)).collect();
    for span in spans {
        if let Some(parent) = costs.get_mut(span.parent as usize) {
            parent.0 = parent.0.saturating_sub(span.duration_ns());
            parent.1 = parent.1.saturating_sub(span.allocs);
        }
    }
    costs
}

/// Self time and allocations summed per layer and per span name, plus the
/// time the root spans cover and the replay wall time, over every
/// thread's buffer.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Totals {
    /// Self nanoseconds per layer.
    pub layer_ns: BTreeMap<&'static str, u64>,
    /// Self allocations per layer.
    pub layer_allocs: BTreeMap<&'static str, u64>,
    /// Self nanoseconds per span name.
    pub name_ns: BTreeMap<&'static str, u64>,
    /// Nanoseconds covered by root spans (the trials themselves).
    pub root_ns: u64,
    /// Replay wall time summed over threads.
    pub wall_ns: u64,
}

impl Totals {
    /// Sums `tracers`.
    pub fn of(tracers: &[Tracer]) -> Totals {
        let mut totals = Totals::default();
        for tracer in tracers {
            let spans = tracer.spans();
            for (span, (ns, allocs)) in spans.iter().zip(self_costs(spans)) {
                *totals.layer_ns.entry(span.layer()).or_default() += ns;
                *totals.layer_allocs.entry(span.layer()).or_default() += allocs;
                *totals.name_ns.entry(span.name).or_default() += ns;
                if span.parent == NO_PARENT {
                    totals.root_ns += span.duration_ns();
                }
            }
            totals.wall_ns += tracer.wall_ns();
        }
        totals
    }

    /// Self nanoseconds of `layer` (0 when it never appeared).
    pub fn layer_ns(&self, layer: &str) -> u64 {
        self.layer_ns.get(layer).copied().unwrap_or(0)
    }

    /// Self allocations of `layer`.
    pub fn layer_allocs(&self, layer: &str) -> u64 {
        self.layer_allocs.get(layer).copied().unwrap_or(0)
    }

    /// Self nanoseconds of spans named `name`.
    pub fn name_ns(&self, name: &str) -> u64 {
        self.name_ns.get(name).copied().unwrap_or(0)
    }
}

/// Writes every thread's spans as one JSON document:
/// `{"host": <host>, "threads": [[{span}, ...], ...]}`.
///
/// # Errors
///
/// Any I/O error creating, writing or flushing `path`.
pub fn write_json(path: &Path, host: &str, tracers: &[Tracer]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"host\":{host},\"threads\":[")?;
    for (t, tracer) in tracers.iter().enumerate() {
        if t > 0 {
            out.write_all(b",")?;
        }
        out.write_all(b"[")?;
        for (i, s) in tracer.spans().iter().enumerate() {
            if i > 0 {
                out.write_all(b",\n")?;
            }
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"trial\":{},\"allocs\":{}}}",
                s.name, s.start_ns, s.end_ns, s.trial, s.allocs
            )?;
        }
        out.write_all(b"]")?;
    }
    out.write_all(b"]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32, allocs: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            trial: 0,
            allocs,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // trial [0, 100) holds dht [10, 30) and package [30, 90); package
        // holds crypto [40, 60). Self times: trial 20, dht 20, package 40,
        // crypto 20 — and they sum to the root's 100.
        let spans = [
            span("trial", 0, 100, NO_PARENT, 9),
            span("dht.build", 10, 30, 0, 2),
            span("package.build", 30, 90, 0, 6),
            span("crypto.seal", 40, 60, 2, 4),
        ];
        let costs = self_costs(&spans);
        assert_eq!(costs, vec![(20, 1), (20, 2), (40, 2), (20, 4)]);
        assert_eq!(costs.iter().map(|c| c.0).sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_totals_reconcile() {
        let mut tracer = Tracer::new(Instant::now(), 16);
        let root = tracer.enter("trial", 3);
        let x = tracer.span("dht.rebuild", 3, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        tracer.span("path.construct_paths", 3, || ());
        tracer.exit(root);
        tracer.add_wall(tracer.spans()[0].duration_ns());
        assert_eq!(x, 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert!(spans.iter().all(|s| s.trial == 3 && s.end_ns >= s.start_ns));
        assert_eq!(spans[1].layer(), "dht");

        let totals = Totals::of(&[tracer]);
        assert!(totals.layer_ns("dht") >= 2_000_000);
        let layers: u64 = totals.layer_ns.values().sum();
        assert_eq!(layers, totals.root_ns, "self times sum to the root spans");
        assert_eq!(totals.wall_ns, totals.root_ns);
    }
}
