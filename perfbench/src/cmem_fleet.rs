//! `cmem-permanent-fleet`: the paper's Fig. 6 campaign — stuck-at-0/1
//! and open-line faults at CMEM nodes over the six Table 1 benchmarks —
//! submitted one campaign at a time with `client::fleet_submit` to an
//! in-process `Coordinator` with two in-process `Runner`s (one job thread
//! each), polled with `client::fleet_status` until the merged result
//! arrives. Permanent faults never go quiet, so golden capture and
//! faulty runs to divergence dominate, with no multi-instant replay.
//!
//! Oracle, per campaign: the same spec run locally and unsharded
//! (`Campaign::try_run_prepared` on the set-up's golden run) must give a
//! byte-identical result to the merged fleet result.

use crate::layers;
use crate::report::Outcome;
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::{derive, Rounds, Run, SetupTimes};
use fault_inject::{merge_shards, PreparedWorkload, ShardResult, Target};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use verifd::client;
use verifd::{CampaignSpec, Coordinator, CoordinatorConfig, Runner, RunnerConfig};
use workloads::Benchmark;

/// Sampled CMEM sites per campaign (× 3 fault models).
const SITES: usize = 48;
const SHARDS: u32 = 16;
const RUNNERS: usize = 2;
const POLL: Duration = Duration::from_millis(2);
/// A campaign not done by then counts as failed (the run must end).
const GIVE_UP: Duration = Duration::from_secs(60);

pub const BENCHMARKS: [Benchmark; 6] = [
    Benchmark::Puwmod,
    Benchmark::Canrdr,
    Benchmark::Ttsprk,
    Benchmark::Rspeed,
    Benchmark::Membench,
    Benchmark::Intbench,
];

/// A coordinator with its runners; stopped on drop.
struct Fleet {
    coordinator: Option<Coordinator>,
    runners: Vec<Runner>,
    addr: String,
    dir: PathBuf,
}

impl Fleet {
    fn start(dir: &Path) -> Fleet {
        let _ = std::fs::remove_dir_all(dir);
        let coordinator = Coordinator::start(CoordinatorConfig {
            store_path: dir.join("store"),
            ..CoordinatorConfig::default()
        })
        .expect("coordinator starts");
        let addr = coordinator.addr().to_string();
        let runners = (0..RUNNERS)
            .map(|i| {
                Runner::start(RunnerConfig {
                    coordinator: addr.clone(),
                    name: format!("bench-runner-{i}"),
                    job_threads: 1,
                    workdir: dir.join(format!("runner-{i}")),
                    ..RunnerConfig::default()
                })
                .expect("runner registers")
            })
            .collect();
        Fleet {
            coordinator: Some(coordinator),
            runners,
            addr,
            dir: dir.to_path_buf(),
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        // A runner's stop waits out its heartbeat sleep (up to ~2.5 s);
        // stop them side by side.
        std::thread::scope(|scope| {
            for runner in self.runners.drain(..) {
                scope.spawn(|| {
                    if catch_unwind(AssertUnwindSafe(|| runner.stop())).is_err() {
                        eprintln!("[perfbench] a fleet runner thread panicked");
                    }
                });
            }
        });
        if let Some(coordinator) = self.coordinator.take() {
            if let Err(e) = coordinator.shutdown() {
                eprintln!("[perfbench] coordinator shutdown: {e}");
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Campaign `k` of a run: the next Table 1 benchmark, seeded CMEM sites.
pub fn spec(seed: u64, k: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::new(BENCHMARKS[(k % 6) as usize], Target::CacheMemory);
    spec.sample = Some((SITES, derive(seed, 2000 + k)));
    spec
}

/// Submit one campaign and poll until it is terminal.
fn fleet_campaign(
    addr: &str,
    spec: &CampaignSpec,
    tracer: &mut Tracer,
) -> Result<ShardResult, String> {
    tracer.span("bench", "campaign", |t| {
        let reply = t
            .span("server", "fleet_submit", |_| {
                client::fleet_submit(addr, spec, SHARDS)
            })
            .map_err(|e| format!("submit: {e}"))?;
        let start = Instant::now();
        while start.elapsed() < GIVE_UP {
            let status = t
                .span("server", "fleet_status", |_| {
                    client::fleet_status(addr, reply.id)
                })
                .map_err(|e| format!("status: {e}"))?;
            match status.status.as_str() {
                "done" => return status.campaign.ok_or("done without a result".to_string()),
                "running" | "queued" => std::thread::sleep(POLL),
                other => {
                    return Err(format!(
                        "campaign ended {other}, missing {:?}",
                        status.missing
                    ))
                }
            }
        }
        Err(format!("campaign not done after {GIVE_UP:?}"))
    })
}

/// The oracle: the spec run locally, unsharded, on its benchmark's
/// golden run from set-up.
fn local(spec: &CampaignSpec, golden: &PreparedWorkload) -> Result<ShardResult, String> {
    let campaign = spec.to_campaign();
    let result = campaign
        .try_run_prepared(crate::nproc(), golden)
        .map_err(|e| e.to_string())?;
    Ok(layers::unsharded(&campaign, result))
}

pub fn check_merged(merged: &ShardResult, reference: &ShardResult) -> Result<(), String> {
    if merged.to_json() == reference.to_json() {
        Ok(())
    } else {
        Err(format!(
            "merged fleet result for {} differs from the local run",
            merged.fingerprint
        ))
    }
}

/// Start a fleet and capture the golden runs the oracle's local runs
/// share. Only the fleet is returned: earlier set-ups' fleets shut down
/// while the next one is timed, and their golden runs need not live that
/// long.
fn setup(
    run: &Run,
    tracer: &mut Tracer,
    rep: &mut usize,
    golden: &mut Vec<PreparedWorkload>,
) -> Fleet {
    *rep += 1;
    let fleet = tracer.span("server", "fleet_start", |_| {
        Fleet::start(&run.scratch_dir(&format!("fleet{rep}")))
    });
    // A warm-up campaign through the fleet would make set-up time depend
    // on when the idle runners next poll for a lease.
    *golden = BENCHMARKS
        .iter()
        .map(|&b| {
            let campaign = CampaignSpec::new(b, Target::CacheMemory).to_campaign();
            tracer.span("fault", "golden", |_| {
                campaign.prepare().expect("golden run")
            })
        })
        .collect();
    fleet
}

pub fn run(run: &Run) -> Outcome {
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(run.trace, run.epoch);
    let mut setups = SetupTimes::default();
    let mut rep = 0;
    let mut golden = Vec::new();
    let fleet = setups.repeat(|| setup(run, &mut tracer, &mut rep, &mut golden));
    outcome.fact("runners", RUNNERS);
    outcome.fact("runner_threads", 1);
    outcome.fact("shards", SHARDS);

    let (mut latencies, mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut jobs = 0usize;
    let mut first: Option<(CampaignSpec, ShardResult, f64)> = None;
    let window = run.window().as_secs_f64();
    let (mut k, mut busy_s) = (0, 0.0);
    // Rounds over the six benchmarks: the same mix of campaign sizes.
    let mut rounds = Rounds::new(6, run);
    while rounds.go_on(k, busy_s) {
        let tracing = run.trace && busy_s >= window / 2.0;
        tracer.set_enabled(tracing);
        let spec = spec(run.seed, k);
        k += 1;
        let t0 = Instant::now();
        let merged = fleet_campaign(&fleet.addr, &spec, &mut tracer);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        busy_s += ms / 1e3;
        tracer.set_enabled(run.trace);
        let merged = match merged {
            Ok(m) => m,
            Err(e) => {
                outcome.check(Err(format!("campaign {k}: {e}")));
                continue;
            }
        };
        latencies.push(ms);
        if tracing {
            &mut traced_ms
        } else {
            &mut untraced_ms
        }
        .push(ms);
        jobs += merged.result.records().len();
        let verdict =
            local(&spec, &golden[(k - 1) as usize % 6]).and_then(|r| check_merged(&merged, &r));
        outcome.check(verdict.map_err(|e| format!("campaign {k}: {e}")));
        if first.is_none() {
            first = Some((spec, merged, ms));
        }
    }
    setups.repeat(|| setup(run, &mut tracer, &mut rep, &mut Vec::new()));
    setups.put(&mut outcome);
    let busy_s = latencies.iter().sum::<f64>() / 1e3;
    outcome.put("throughput_per_s", Summary::exact(jobs as f64 / busy_s));
    outcome.put("latency_p50_ms", Summary::of(&latencies));
    layers::put_latency_tail(&mut outcome, &latencies);
    outcome.fact("campaigns", latencies.len());

    let (spec0, merged0, turnaround0) = first.expect("at least one campaign ran");
    layers::put_campaign_counts(&mut outcome, merged0.result.stats());
    if run.trace {
        traced_pieces(
            &mut outcome,
            &mut tracer,
            &fleet.addr,
            &spec0,
            &merged0,
            turnaround0,
        );
        layers::put_span_overhead(&mut outcome, &tracer, traced_ms.iter().sum());
    }
    drop(fleet);
    layers::finish_trace(&mut outcome, &tracer, run, "cmem-permanent-fleet");
    outcome
}

/// The traced run's decomposition of the first campaign: local runs of
/// its shards, their merge and wire form, and the fleet's lease counters.
fn traced_pieces(
    outcome: &mut Outcome,
    tracer: &mut Tracer,
    addr: &str,
    spec0: &CampaignSpec,
    merged0: &ShardResult,
    turnaround_ms: f64,
) {
    let mut shards = Vec::new();
    let mut shard_ms = 0.0;
    for index in 0..SHARDS {
        let mut shard_spec = spec0.clone();
        shard_spec.shard = Some((index, SHARDS));
        let campaign = shard_spec.to_campaign();
        let t0 = Instant::now();
        let prepared = tracer.span("fault", "golden", |_| campaign.prepare().expect("prepare"));
        let golden_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let result = tracer.span("fault", "shard_run", |_| {
            campaign.try_run_prepared(1, &prepared).expect("shard runs")
        });
        let run_ms = t1.elapsed().as_secs_f64() * 1e3;
        if index == 0 {
            outcome.exact("fault.golden_ms", golden_ms);
            outcome.exact("fault.jobs_ms", run_ms);
        }
        shard_ms += golden_ms + run_ms;
        shards.push(ShardResult {
            fingerprint: campaign.fingerprint(),
            index,
            count: SHARDS,
            result,
        });
    }
    // The fleet's two runners share the shards; a perfectly busy fleet
    // would take the local time over the runner count.
    let busy_ms = shard_ms / RUNNERS as f64;
    outcome.exact(
        "server.fleet.idle_share",
        (turnaround_ms - busy_ms) / turnaround_ms,
    );
    layers::wire(outcome, tracer, &shards);
    let t2 = Instant::now();
    let merged = tracer.span("fault", "merge", |_| {
        merge_shards(shards).expect("shards merge")
    });
    outcome.exact("fault.merge_ms", t2.elapsed().as_secs_f64() * 1e3);
    assert_eq!(
        merged.to_json(),
        merged0.to_json(),
        "local shards merge to the fleet result"
    );
    match tracer.span("server", "stats", |_| client::stats(addr)) {
        Ok(stats) => {
            for (metric, field) in [
                ("server.fleet.granted", "leases_granted"),
                ("server.fleet.expired", "leases_expired"),
                ("server.fleet.retried", "leases_retried"),
                ("server.fleet.failed", "leases_failed"),
            ] {
                outcome.exact(metric, stats.get_u64(field).unwrap_or(0) as f64);
            }
        }
        Err(e) => outcome.check(Err(format!("coordinator /stats: {e}"))),
    }
    let config = leon3_model::Leon3Config::default();
    layers::netpool(outcome, tracer, &config);
    let program = spec0.benchmark.program(&workloads::Params::default());
    let words = layers::image_words(std::iter::once(&program));
    outcome.exact("sparc.decode_ns", layers::decode_ns(tracer, &words));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_rejects_an_altered_merged_shard() {
        let mut s = CampaignSpec::new(Benchmark::Intbench, Target::CacheMemory);
        s.sample = Some((3, 11));
        let golden = s.to_campaign().prepare().expect("golden run");
        let reference = local(&s, &golden).expect("local run");
        let mut outcome = Outcome::default();
        outcome.check(check_merged(&reference.clone(), &reference));
        let mut altered = reference.clone();
        let mut stats = *altered.result.stats();
        stats.cycles_simulated += 1;
        altered.result =
            fault_inject::CampaignResult::with_stats(altered.result.records().to_vec(), stats);
        outcome.check(check_merged(&altered, &reference));
        assert_eq!((outcome.attempted, outcome.failed), (2, 1));
    }
}
