//! What the ledger prints: the metric catalogue, the host block and the
//! result line.

use std::collections::BTreeMap;
use std::path::Path;

/// End-to-end metrics of an untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("trials_per_sec", "trials/s"),
    ("trials_per_sec_1t", "trials/s"),
    ("trial_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of a traced run: `(name, unit)`. A layer a workload
/// does not run reads 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("dht.us_per_trial", "us"),
    ("dht.share", "ratio"),
    ("dht.allocs_per_trial", "count"),
    ("path.us_per_trial", "us"),
    ("path.holders_per_trial", "count"),
    ("package.us_per_trial", "us"),
    ("package.share", "ratio"),
    ("package.allocs_per_trial", "count"),
    ("package.bytes_per_trial", "B"),
    ("package.mb_per_s", "MB/s"),
    ("package.unattributed_frac", "ratio"),
    ("protocol.us_per_trial", "us"),
    ("protocol.share", "ratio"),
    ("protocol.allocs_per_trial", "count"),
    ("protocol.messages_per_trial", "count"),
    ("crypto.aead_seal_mb_s_4k", "MB/s"),
    ("crypto.aead_seal_mb_s_64k", "MB/s"),
    ("crypto.aead_open_mb_s_4k", "MB/s"),
    ("crypto.aead_open_mb_s_64k", "MB/s"),
    ("crypto.shamir_split_per_s", "1/s"),
    ("crypto.chacha20_mb_s", "MB/s"),
    ("faults.arm_us_per_trial", "us"),
    ("faults.disruptions_per_trial", "count"),
    ("faults.recovered_frac", "ratio"),
    ("contract.build_us_per_trial", "us"),
    ("contract.release_us_per_trial", "us"),
    ("contract.allocs_per_trial", "count"),
    ("sweep.unit_rtt_ms_p50", "ms"),
    ("sweep.unit_rtt_ms_p99", "ms"),
    ("sweep.worker_busy_frac", "ratio"),
    ("sweep.ipc_overhead_frac", "ratio"),
    ("sweep.useful_dispatch_frac", "ratio"),
    ("sweep.retries", "count"),
    ("sweep.hedges", "count"),
    ("sweep.dedup_dropped", "count"),
    ("sweep.worker_restarts", "count"),
    ("trial.us_per_trial", "us"),
    ("trial.p99_us", "us"),
    ("trial.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The outcome of one ledger run.
#[derive(Debug, Default)]
pub struct Report {
    /// Trials (or sweep trials) attempted.
    pub attempted: u64,
    /// Trials whose range call returned an error, or sweep trials in
    /// units that never completed.
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub failures: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records a failed check unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records a value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// of `catalogue` with its unit. A metric that was not measured, or
    /// is not finite, makes the run incorrect and is left out.
    pub fn result_json(&mut self, catalogue: &[(&'static str, &'static str)]) -> String {
        let mut metrics = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            match self.values.get(name) {
                Some(v) if v.is_finite() => {
                    metrics.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
                }
                _ if !self.correct() => {}
                _ => self
                    .failures
                    .push(format!("metric {name} was not measured")),
            }
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The host and commit block printed with every result.
pub fn host_json(
    mode: &str,
    workload: &str,
    seed: u64,
    threads: usize,
    two: usize,
    one: usize,
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let features: Vec<String> = [
        ("avx2", cfg!(target_feature = "avx2")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ]
    .iter()
    .filter(|(_, on)| *on)
    .map(|(name, _)| json_string(name))
    .collect();
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"target_features\":[{}],\"git_rev\":{},\"mode\":{},\"workload\":{},\"seed\":{seed},\"threads\":{threads},\"trials\":{{\"two_thread\":{two},\"one_thread\":{one}}}}}",
        json_string(&cpu_model()),
        features.join(","),
        json_string(&git_rev()),
        json_string(mode),
        json_string(workload),
    )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out in the nearest enclosing git repository, read
/// from its files (best effort; "unknown" outside a repository).
fn git_rev() -> String {
    let Ok(mut dir) = std::env::current_dir() else {
        return "unknown".to_string();
    };
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            return resolve_head(&git).unwrap_or_else(|| "unknown".to_string());
        }
        if !dir.pop() {
            return "unknown".to_string();
        }
    }
}

fn resolve_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        l.strip_suffix(reference)?
            .strip_suffix(' ')
            .map(str::to_string)
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use emerge_bench::report::{parse_json, JsonValue};

    fn names(doc: &JsonValue, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    /// The metrics the binary prints are exactly the ones BENCHMARK.json
    /// declares, with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = parse_json(&text).expect("valid JSON");
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared = names(&doc, key);
            let printed: Vec<String> = catalogue.iter().map(|(n, _)| n.to_string()).collect();
            assert_eq!(declared, printed, "{key} names");
            for m in doc.get(key).and_then(JsonValue::as_array).expect("list") {
                let name = m.get("name").and_then(JsonValue::as_str).expect("name");
                let unit = m.get("unit").and_then(JsonValue::as_str).expect("unit");
                assert!(catalogue.contains(&(name, unit)), "{name} unit {unit}");
            }
        }
    }

    #[test]
    fn result_line_is_valid_json_with_every_metric() {
        let mut report = Report {
            attempted: 10,
            ..Report::default()
        };
        for (name, _) in END_TO_END {
            report.set(name, 1.5);
        }
        let line = report.result_json(&END_TO_END);
        assert!(report.correct());
        let doc = parse_json(&line).expect("valid JSON");
        assert_eq!(doc.get("correct").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(JsonValue::as_u64), Some(10));
        let metrics = doc
            .get("metrics")
            .and_then(JsonValue::as_object)
            .expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());

        let mut missing = Report::default();
        missing.set("setup_s", f64::NAN);
        let line = missing.result_json(&END_TO_END);
        assert!(!missing.correct(), "unmeasured metrics fail the run");
        assert!(parse_json(&line).is_ok());
    }

    #[test]
    fn host_block_is_valid_json() {
        let host = host_json("measure", "share_40x5", 46174, 2, 9600, 2400);
        let doc = parse_json(&host).expect("valid JSON");
        assert_eq!(doc.get("seed").and_then(JsonValue::as_u64), Some(46174));
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
