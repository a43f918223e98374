//! Per-layer measurements shared by the workloads: digests the oracles
//! compare, and timed loops over single public calls of one crate,
//! each wrapped in a span of that crate's layer.

use crate::report::Outcome;
use crate::stats::{quantile, Summary};
use crate::trace::Tracer;
use crate::{derive, Run};
use fault_inject::journal::{self, Journal};
use fault_inject::{Campaign, CampaignResult, CampaignStats, CorrelationSpec, ShardResult};
use leon3_model::{Leon3, Leon3Config};
use rtl_sim::NetId;
use sparc_asm::Program;
use sparc_iss::{BusEvent, Iss, IssConfig, RunOutcome, StepEvent};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// How long each timed loop runs: long enough to average out the clock.
const LOOP: Duration = Duration::from_millis(40);

/// Instruction budget of every ISS run (no program comes near it).
pub const ISS_BUDGET: u64 = 200_000_000;

/// Sampled sites per cell of the Fig. 7 sweep the workloads fit (the
/// exhaustive sweep takes ~20 s on two cores, too long to repeat as
/// set-up).
pub const SWEEP_SITES: usize = 48;

/// The paper's Fig. 7 sweep (`CorrelationSpec::new()`), sampled with a
/// seeded site draw.
pub fn fig7_sweep(seed: u64) -> CorrelationSpec {
    let mut spec = CorrelationSpec::new();
    spec.sample = Some((SWEEP_SITES, derive(seed, 99)));
    spec
}

/// One program run to the end on a fresh ISS.
pub fn iss_run(program: &Program) -> (Iss, RunOutcome) {
    let mut iss = Iss::new(IssConfig::default());
    iss.load(program);
    let outcome = iss.run(ISS_BUDGET);
    (iss, outcome)
}

/// A campaign's result as the single shard of an unsharded run, the form
/// a service or fleet returns it in.
pub fn unsharded(campaign: &Campaign, result: CampaignResult) -> ShardResult {
    ShardResult {
        fingerprint: campaign.fingerprint(),
        index: 0,
        count: 1,
        result,
    }
}

/// FNV-1a digests of outputs the oracles compare.
pub struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The off-core write stream's payload (address, size, data), which
    /// the ISS and the RTL model must agree on cycle-independently.
    pub fn writes<'a>(writes: impl Iterator<Item = &'a BusEvent>) -> u64 {
        let mut d = Digest::new();
        for w in writes {
            d.add(&w.addr.to_le_bytes());
            d.add(&[w.size]);
            d.add(&w.data.to_le_bytes());
        }
        d.0
    }

    pub fn histogram(histogram: &[(&str, u64)]) -> u64 {
        let mut d = Digest::new();
        for (name, count) in histogram {
            d.add(name.as_bytes());
            d.add(&count.to_le_bytes());
        }
        d.0
    }
}

/// Summary of millisecond samples rescaled (e.g. `1e3` for µs).
pub fn scaled(values_ms: &[f64], factor: f64) -> Summary {
    let values: Vec<f64> = values_ms.iter().map(|v| v * factor).collect();
    Summary::of(&values)
}

/// Repeat `f` for [`LOOP`] inside one span and return µs per call.
pub fn time_per_call_us(
    tracer: &mut Tracer,
    layer: &'static str,
    name: &'static str,
    mut f: impl FnMut(),
) -> f64 {
    tracer.span(layer, name, |_| {
        let start = Instant::now();
        let mut calls = 0u64;
        while start.elapsed() < LOOP {
            f();
            calls += 1;
        }
        start.elapsed().as_secs_f64() * 1e6 / calls as f64
    })
}

/// Every aligned word of the programs' images.
pub fn image_words<'a>(programs: impl Iterator<Item = &'a Program>) -> Vec<u32> {
    let mut words = Vec::new();
    for program in programs {
        for segment in &program.segments {
            words.extend(
                segment
                    .bytes
                    .chunks_exact(4)
                    .map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]])),
            );
        }
    }
    words
}

/// `sparc_isa::decode` over the workload's image words: ns per word.
pub fn decode_ns(tracer: &mut Tracer, words: &[u32]) -> f64 {
    let per_pass_us = time_per_call_us(tracer, "sparc", "decode", || {
        for &w in words {
            let _ = black_box(sparc_isa::decode(black_box(w)));
        }
    });
    per_pass_us * 1e3 / words.len().max(1) as f64
}

/// `NetPool` read, write, checkpoint and restore on a pool of the model's
/// shape (a clone of a fresh Leon3's pool).
pub fn netpool(outcome: &mut Outcome, tracer: &mut Tracer, config: &Leon3Config) {
    let mut pool = Leon3::new(config.clone()).pool().clone();
    let ids: Vec<NetId> = (0..pool.len() as u32).map(NetId::from_raw).collect();
    let per_net = |us: f64| us * 1e3 / ids.len() as f64;
    let read = time_per_call_us(tracer, "rtl", "read", || {
        for &id in &ids {
            black_box(pool.read(id));
        }
    });
    outcome.exact("rtl.read_ns", per_net(read));
    let write = time_per_call_us(tracer, "rtl", "write", || {
        for (k, &id) in ids.iter().enumerate() {
            pool.write(id, black_box(k as u32));
        }
    });
    outcome.exact("rtl.write_ns", per_net(write));
    let checkpoint = pool.checkpoint();
    let kb = checkpoint.resident_bytes() as f64 / 1024.0;
    let take = time_per_call_us(tracer, "rtl", "checkpoint", || {
        black_box(pool.checkpoint());
    });
    outcome.exact("rtl.checkpoint_us_per_kb", take / kb);
    let restore = time_per_call_us(tracer, "rtl", "restore", || {
        pool.restore(black_box(&checkpoint));
    });
    outcome.exact("rtl.restore_us_per_kb", restore / kb);
}

/// `Leon3::snapshot`/`restore` at the given golden cycles of `program`
/// (a workload's own checkpoint instants), per KiB of snapshot.
pub fn leon3_snapshots(
    outcome: &mut Outcome,
    tracer: &mut Tracer,
    program: &Program,
    config: &Leon3Config,
    cycles: &[u64],
) {
    let mut cpu = Leon3::new(config.clone());
    cpu.load(program);
    let (mut snap_us, mut restore_us, mut kbs) = (Vec::new(), Vec::new(), Vec::new());
    for &cycle in cycles {
        while cpu.cycles() < cycle {
            if cpu.step() == StepEvent::Stopped {
                break;
            }
        }
        let snapshot = cpu.snapshot();
        let kb = snapshot.approx_bytes() as f64 / 1024.0;
        let us = time_per_call_us(tracer, "leon3", "snapshot", || {
            black_box(cpu.snapshot());
        });
        let mut scratch = cpu.clone();
        let back = time_per_call_us(tracer, "leon3", "restore", || {
            scratch.restore(black_box(&snapshot));
        });
        snap_us.push(us / kb);
        restore_us.push(back / kb);
        kbs.push(kb);
    }
    outcome.put("leon3.snapshot_us_per_kb", Summary::of(&snap_us));
    outcome.put("leon3.restore_us_per_kb", Summary::of(&restore_us));
    outcome.put("leon3.snapshot_kb", Summary::of(&kbs));
}

/// Exact engine counts of a campaign's merged stats.
pub fn put_campaign_counts(outcome: &mut Outcome, stats: &CampaignStats) {
    let jobs = stats.jobs.max(1) as f64;
    let counts: [(&'static str, f64); 13] = [
        ("fault.jobs", stats.jobs as f64),
        (
            "fault.cycles_per_fault",
            stats.cycles_simulated as f64 / jobs,
        ),
        (
            "fault.fork_cycle_share",
            stats.cycles_simulated as f64 / (jobs * stats.golden_cycles.max(1) as f64),
        ),
        ("fault.prefix_cycles", stats.prefix_cycles as f64),
        ("fault.replay_cycles", stats.replay_cycles as f64),
        (
            "fault.restored_from_checkpoint",
            stats.restored_from_checkpoint as f64,
        ),
        ("fault.checkpoints_taken", stats.checkpoints_taken as f64),
        ("fault.checkpoint_bytes", stats.checkpoint_bytes as f64),
        ("fault.skipped_inactive", stats.skipped_inactive as f64),
        ("fault.short_circuited", stats.short_circuited as f64),
        ("fault.statically_pruned", stats.statically_pruned as f64),
        ("fault.full_reexecutions", stats.full_reexecutions as f64),
        ("fault.retried", stats.retried as f64),
    ];
    for (name, value) in counts {
        outcome.exact(name, value);
    }
    outcome.exact("fault.anomalies", stats.anomalies as f64);
}

/// `ShardResult::to_json`/`parse` on the workload's own results, µs per
/// KiB of JSON.
pub fn wire(outcome: &mut Outcome, tracer: &mut Tracer, shards: &[ShardResult]) {
    let texts: Vec<String> = shards.iter().map(ShardResult::to_json).collect();
    let kb = texts.iter().map(String::len).sum::<usize>() as f64 / 1024.0;
    let encode = time_per_call_us(tracer, "fault", "wire_encode", || {
        for shard in shards {
            black_box(shard.to_json());
        }
    });
    let parse = time_per_call_us(tracer, "fault", "wire_parse", || {
        for text in &texts {
            black_box(ShardResult::parse(text).expect("own encoding parses"));
        }
    });
    outcome.exact("fault.wire_encode_us_per_kb", encode / kb);
    outcome.exact("fault.wire_parse_us_per_kb", parse / kb);
}

/// `Journal::append` of a journal's own entries into a fresh file:
/// µs per entry.
pub fn journal_append_us(tracer: &mut Tracer, source: &Path, scratch: &Path) -> f64 {
    let (header, entries, _) = journal::read(source).expect("workload journal reads back");
    let copy = scratch.join("append.jsonl");
    let mut appended = 0usize;
    let us = tracer.span("fault", "journal_append", |_| {
        let start = Instant::now();
        while appended == 0 || start.elapsed() < LOOP {
            let mut j = Journal::create(&copy, &header).expect("scratch journal");
            for entry in &entries {
                j.append(entry).expect("append");
            }
            appended += entries.len();
        }
        start.elapsed().as_secs_f64() * 1e6
    });
    let _ = std::fs::remove_file(&copy);
    us / appended.max(1) as f64
}

/// `e2e.latency_p90_ms` where at least ten samples lie beyond p90
/// (0 otherwise), with the sample count.
pub fn put_latency_tail(outcome: &mut Outcome, latencies: &[f64]) {
    let mut sorted = latencies.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p90 = if sorted.len() >= 100 {
        quantile(&sorted, 90, 100)
    } else {
        0.0
    };
    outcome.exact("e2e.latency_p90_ms", p90);
    outcome.exact("e2e.latency_samples", latencies.len() as f64);
}

/// Tracing overhead: mean traced operation time over mean untraced, less one.
pub fn put_overhead(outcome: &mut Outcome, untraced_ms: &[f64], traced_ms: &[f64]) {
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let base = mean(untraced_ms);
    let share = if base > 0.0 {
        mean(traced_ms) / base - 1.0
    } else {
        0.0
    };
    outcome.exact("trace.overhead_share", share);
}

/// Tracing overhead where the traced and untraced halves run different
/// campaigns (cmem-permanent-fleet): the measured cost of one span times
/// the spans recorded, over the traced operations' time.
pub fn put_span_overhead(outcome: &mut Outcome, tracer: &Tracer, traced_ms: f64) {
    let mut probe = Tracer::new(true, Instant::now());
    let start = Instant::now();
    const N: u32 = 100_000;
    for _ in 0..N {
        probe.span("bench", "probe", |_| ());
    }
    let span_ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(N);
    let share = if traced_ms > 0.0 {
        tracer.span_count() as f64 * span_ms / traced_ms
    } else {
        0.0
    };
    outcome.exact("trace.overhead_share", share);
}

/// Self times, span count and the span file of a traced run.
pub fn finish_trace(outcome: &mut Outcome, tracer: &Tracer, run: &Run, workload: &str) {
    if !run.trace {
        return;
    }
    crate::put_self_times(outcome, tracer);
    outcome.exact("trace.spans", tracer.span_count() as f64);
    let path = run.trace_path(workload);
    if let Err(e) = tracer.write_tsv(&path) {
        eprintln!("[perfbench] could not write {}: {e}", path.display());
    }
}
