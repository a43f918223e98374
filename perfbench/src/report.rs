//! The metric tables, run provenance and the result lines a run prints.
//!
//! `END_TO_END` and `PER_LAYER` are the benchmark's contract with
//! `BENCHMARK.json`; the self-test in `main.rs` holds them equal.

use crate::stats::Summary;
use fault_inject::wire::escape_json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric. Every workload reports all
/// of them, untraced.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("success_rate", "share"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
];

/// `(name, unit)` of every per-layer metric, reported by the traced run.
/// A layer a workload never calls reads 0 there.
pub const PER_LAYER: [(&str, &str); 69] = [
    ("workloads.program_ms", "ms"),
    ("sparc.decode_ns", "ns"),
    ("iss.run_ms", "ms"),
    ("iss.minsn_per_s", "Minsn/s"),
    ("iss.instructions", "count"),
    ("iss.histogram_us", "us"),
    ("analysis.fit_us", "us"),
    ("analysis.predict_ns", "ns"),
    ("analysis.pf_holdout_err", "share"),
    ("rtl.read_ns", "ns"),
    ("rtl.write_ns", "ns"),
    ("rtl.checkpoint_us_per_kb", "us/KiB"),
    ("rtl.restore_us_per_kb", "us/KiB"),
    ("leon3.minsn_per_s", "Minsn/s"),
    ("leon3.snapshot_us_per_kb", "us/KiB"),
    ("leon3.restore_us_per_kb", "us/KiB"),
    ("leon3.snapshot_kb", "KiB"),
    ("leon3.iss_over_leon3", "ratio"),
    ("fault.golden_ms", "ms"),
    ("fault.static_ms", "ms"),
    ("fault.jobs_ms", "ms"),
    ("fault.jobs", "count"),
    ("fault.cycles_per_fault", "cycles"),
    ("fault.fork_cycle_share", "share"),
    ("fault.prefix_cycles", "count"),
    ("fault.replay_cycles", "count"),
    ("fault.restored_from_checkpoint", "count"),
    ("fault.checkpoints_taken", "count"),
    ("fault.checkpoint_bytes", "count"),
    ("fault.skipped_inactive", "count"),
    ("fault.short_circuited", "count"),
    ("fault.statically_pruned", "count"),
    ("fault.full_reexecutions", "count"),
    ("fault.retried", "count"),
    ("fault.anomalies", "count"),
    ("fault.stride4_time_ratio", "ratio"),
    ("fault.journal_append_us", "us"),
    ("fault.journal_share", "ratio"),
    ("fault.wire_encode_us_per_kb", "us/KiB"),
    ("fault.wire_parse_us_per_kb", "us/KiB"),
    ("fault.merge_ms", "ms"),
    ("server.route_p50_us.predict", "us"),
    ("server.route_p50_us.submit_cached", "us"),
    ("server.route_p50_us.status", "us"),
    ("server.route_p50_us.submit_cold", "us"),
    ("server.cold_campaign_p50_ms", "ms"),
    ("server.predict_p99_ms", "ms"),
    ("server.cache_hit_ratio", "share"),
    ("server.golden_cache_hit_ratio", "share"),
    ("server.queue_depth_max", "count"),
    ("server.utilization", "share"),
    ("server.fleet.idle_share", "share"),
    ("server.fleet.granted", "count"),
    ("server.fleet.expired", "count"),
    ("server.fleet.retried", "count"),
    ("server.fleet.failed", "count"),
    ("self_ms.bench", "ms"),
    ("self_ms.workloads", "ms"),
    ("self_ms.sparc", "ms"),
    ("self_ms.iss", "ms"),
    ("self_ms.analysis", "ms"),
    ("self_ms.rtl", "ms"),
    ("self_ms.leon3", "ms"),
    ("self_ms.fault", "ms"),
    ("self_ms.server", "ms"),
    ("trace.overhead_share", "share"),
    ("trace.spans", "count"),
    ("e2e.latency_p90_ms", "ms"),
    ("e2e.latency_samples", "count"),
];

/// What one run measured: operation counts and metric summaries.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why each failed operation failed (first few only), for stderr.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, Summary>,
    /// Workload facts for the provenance line (threads, sizes).
    pub facts: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, summary: Summary) {
        self.metrics.insert(name, summary);
    }

    pub fn exact(&mut self, name: &'static str, value: f64) {
        self.put(name, Summary::exact(value));
    }

    pub fn fact(&mut self, name: &'static str, value: impl ToString) {
        self.facts.push((name, value.to_string()));
    }

    /// Count one checked operation; `Err` carries why its output was
    /// wrong or why it failed.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = result {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(reason);
            }
        }
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Run provenance: everything needed to say where a number came from.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\
         \"cpu\":{},\"nproc\":{},\"rustc\":{},\"commit\":{}}}",
        escape_json(workload),
        escape_json(&cpu),
        crate::nproc(),
        escape_json(env!("PERFBENCH_RUSTC")),
        escape_json(&git_commit()),
    )
}

/// The checked-out commit, read from the repository's `.git` without
/// running git; a source tree that is not a git checkout reports
/// `unknown`.
fn git_commit() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let read = |path: &str| std::fs::read_to_string(format!("{git}/{path}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The detail line: provenance, workload facts, and every metric as a
/// median with quartiles and its sample count.
pub fn detail_line(provenance: &str, outcome: &Outcome, table: &[(&str, &str)]) -> String {
    let mut s = format!("{{\"provenance\":{provenance},\"facts\":{{");
    for (i, (name, value)) in outcome.facts.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(s, "{sep}{}:{}", escape_json(name), escape_json(value));
    }
    s.push_str("},\"metrics\":{");
    for (i, (name, unit)) in table.iter().enumerate() {
        let m = outcome
            .metrics
            .get(name)
            .copied()
            .unwrap_or_else(|| Summary::of(&[]));
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            s,
            "{sep}{}:{{\"median\":{},\"q1\":{},\"q3\":{},\"n\":{},\"unit\":{}}}",
            escape_json(name),
            num(m.median),
            num(m.q1),
            num(m.q3),
            m.n,
            escape_json(unit)
        );
    }
    s.push_str("}}");
    s
}

/// The result line (the last line of stdout): the contract's four keys.
pub fn result_line(outcome: &Outcome, table: &[(&str, &str)]) -> String {
    let mut s = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = outcome.metrics.get(name).map_or(0.0, |m| m.median);
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            s,
            "{sep}{}:{{\"value\":{},\"unit\":{}}}",
            escape_json(name),
            num(value),
            escape_json(unit)
        );
    }
    s.push_str("}}");
    s
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0".to_string()
    }
}
