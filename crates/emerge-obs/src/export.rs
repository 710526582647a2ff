//! Cold-path renderer for [`MetricsSnapshot`]: the Prometheus text
//! exposition format, which `sweep_coordinator --prom` writes.

use crate::metrics::{bucket_upper_bound, MetricsSnapshot};

/// Replaces every character outside `[a-zA-Z0-9_:]` with `_` so dotted
/// metric names become valid Prometheus metric names.
fn prometheus_name(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (v0.0.4): counters as single samples, histograms as
    /// cumulative `_bucket{le="…"}` series plus `_sum` and `_count`.
    /// Dots in metric names become underscores.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            let name = prometheus_name(&c.name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.value));
        }
        for h in &self.histograms {
            let name = prometheus_name(&h.name);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (b, &n) in h.buckets.iter().enumerate() {
                if n != 0 {
                    cumulative = cumulative.wrapping_add(n);
                    out.push_str(&format!(
                        "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                        bucket_upper_bound(b)
                    ));
                }
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{name}_sum {}\n{name}_count {}\n", h.sum, h.count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::collector::{install, take, Collector};
    use crate::metrics::{CounterId, HistogramId};

    #[test]
    fn exports_cover_every_metric_kind() {
        static CALLS: CounterId = CounterId::new("test.export.calls");
        static LAT: HistogramId = HistogramId::new("test.export.lat");
        assert!(install(Collector::new()).is_none());
        CALLS.add(7);
        LAT.record(3);
        LAT.record(900);
        let snap = take().expect("collector installed").snapshot();

        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE test_export_calls counter\ntest_export_calls 7\n"));
        assert!(
            prom.contains("test_export_lat_bucket{le=\"1023\"} 2\n"),
            "{prom}"
        );
        assert!(prom.contains("test_export_lat_bucket{le=\"+Inf\"} 2\n"));
        assert!(prom.contains("test_export_lat_sum 903\n"));
        assert!(prom.contains("test_export_lat_count 2\n"));
    }

    #[test]
    fn empty_snapshot_renders_valid_shells() {
        let snap = crate::metrics::MetricsSnapshot::default();
        assert_eq!(snap.to_prometheus(), "");
    }
}
