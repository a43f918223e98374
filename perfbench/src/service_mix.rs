//! `service-mix`: an in-process `verifd` `Server` (one worker, one job
//! thread) with a fitted model registered in set-up, driven by two
//! closed-loop clients drawing from a seeded mix: ~80% `POST /predict`
//! with a suite program's ISS histogram, ~15% cached `POST /campaign` +
//! `GET /campaign/{id}` on pre-warmed specs, ~5% cold small intbench IU
//! campaigns polled with `client::status` until done. The HTTP, `wire`,
//! cache and model-registry paths do most of the work while a simulation
//! competes for the cores.
//!
//! Oracles: each prediction must equal `Prediction::evaluate` on the same
//! sweep fitted locally; each cached or cold campaign result must equal
//! the spec run locally (`Campaign::try_run`), byte for byte.

use crate::layers;
use crate::report::Outcome;
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::{derive, Run, SetupTimes};
use analysis::SplitMix64;
use fault_inject::{CorrelationReport, PredictRequest, Prediction, ShardResult, Target};
use rtl_sim::FaultKind;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use verifd::client;
use verifd::{CampaignSpec, Server, ServerConfig};
use workloads::{Benchmark, Params, DATASETS};

const CLIENTS: usize = 2;
/// Pre-warmed campaign specs the cached share of the mix draws from.
const CACHED_SPECS: u64 = 4;
/// Sampled sites of a cold campaign (× 3 fault models).
const COLD_SITES: usize = 8;
const POLL: Duration = Duration::from_millis(2);
/// A campaign not done by then counts as failed (the run must end).
const GIVE_UP: Duration = Duration::from_secs(30);

/// A running service; shut down on drop.
struct Service(Option<Server>);

impl Drop for Service {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            if let Err(e) = server.shutdown() {
                eprintln!("[perfbench] server shutdown: {e}");
            }
        }
    }
}

struct Setup {
    /// Held for its drop, which shuts the server down.
    _service: Service,
    addr: String,
    requests: Vec<PredictRequest>,
    cached: Vec<(CampaignSpec, ShardResult)>,
    report: CorrelationReport,
}

/// Cold campaign `n` of a run. Its sites depend on `n` alone: with
/// seeded sites, seed 2 ran 12-25% above seeds 1, 3, 4 and 5 in both
/// five-seed comparisons, and with these sites seeds 1 and 2 alternated
/// within host noise.
fn cold_spec(n: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::new(Benchmark::Intbench, Target::IntegerUnit);
    spec.sample = Some((COLD_SITES, derive(0xc01d, n)));
    spec
}

fn cached_spec(seed: u64, n: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::new(Benchmark::Intbench, Target::IntegerUnit);
    spec.kinds = vec![FaultKind::StuckAt1];
    spec.sample = Some((COLD_SITES, derive(seed, 4000 + n)));
    spec
}

/// Poll a submitted job until it is done (2 ms between polls). A done
/// campaign carries its result; a done correlation sweep carries none.
fn poll_done(addr: &str, id: u64, tracer: &mut Tracer) -> Result<client::StatusReply, String> {
    let start = Instant::now();
    while start.elapsed() < GIVE_UP {
        let reply = tracer
            .span("server", "status", |_| client::status(addr, id))
            .map_err(|e| format!("status: {e}"))?;
        match reply.status.as_str() {
            "done" => return Ok(reply),
            "queued" | "running" => std::thread::sleep(POLL),
            other => return Err(format!("job {other}: {:?}", reply.error)),
        }
    }
    Err(format!("job {id} not done after {GIVE_UP:?}"))
}

/// Poll a submitted campaign until it is done and return its result.
fn poll(addr: &str, id: u64, tracer: &mut Tracer) -> Result<ShardResult, String> {
    poll_done(addr, id, tracer)?
        .result
        .ok_or("done without a result".to_string())
}

fn setup(run: &Run, tracer: &mut Tracer) -> Setup {
    let server = tracer.span("server", "start", |_| {
        Server::start(ServerConfig {
            workers: 1,
            job_threads: 1,
            ..ServerConfig::default()
        })
        .expect("server binds")
    });
    let addr = server.addr().to_string();
    let service = Service(Some(server));
    let reply = client::correlate(&addr, &layers::fig7_sweep(run.seed)).expect("sweep submitted");
    poll_done(&addr, reply.id, tracer).expect("sweep fitted");
    // Done already, so this reads the report without waiting.
    let report = client::wait_report(&addr, reply.id).expect("fitted report");
    let mut requests = Vec::new();
    for benchmark in Benchmark::ALL {
        for dataset in 0..DATASETS {
            let program = tracer.span("workloads", "program", |_| {
                benchmark.program(&Params {
                    dataset,
                    ..Params::default()
                })
            });
            let histogram = tracer.span("iss", "run", |_| {
                layers::iss_run(&program).0.stats().named_histogram()
            });
            requests.push(PredictRequest::from_histogram(
                histogram
                    .into_iter()
                    .map(|(name, count)| (name.to_string(), count))
                    .collect(),
            ));
        }
    }
    let mut cached = Vec::new();
    for n in 0..CACHED_SPECS {
        let spec = cached_spec(run.seed, n);
        let id = client::submit(&addr, &spec).expect("pre-warm submit").id;
        cached.push((spec, poll(&addr, id, tracer).expect("pre-warm campaign")));
    }
    for request in requests.iter().take(4) {
        client::predict(&addr, request).expect("warm-up prediction");
    }
    Setup {
        _service: service,
        addr,
        requests,
        cached,
        report,
    }
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    ops: u64,
    /// Operations whose output matched the oracle, and why the rest failed.
    passed: u64,
    failures: Vec<String>,
    /// Round-trip milliseconds per route, plus cold turnaround.
    ms: BTreeMap<&'static str, Vec<f64>>,
    /// Cold campaigns to check after the window: (n, merged result).
    cold: Vec<(u64, ShardResult)>,
    tracer: Option<Tracer>,
}

impl ClientLog {
    fn time(&mut self, route: &'static str, start: Instant) {
        self.ms
            .entry(route)
            .or_default()
            .push(start.elapsed().as_secs_f64() * 1e3);
    }

    fn verdict(&mut self, result: Result<(), String>) {
        match result {
            Ok(()) => self.passed += 1,
            Err(e) => self.failures.push(e),
        }
    }
}

pub fn check_prediction(expected: &Prediction, served: &Prediction) -> Result<(), String> {
    if expected.to_json() == served.to_json() {
        Ok(())
    } else {
        Err(format!(
            "served {} but the local model gives {}",
            served.to_json(),
            expected.to_json()
        ))
    }
}

fn client_loop(
    i: usize,
    run: &Run,
    s: &Setup,
    expected: &[Prediction],
    cold_counter: &std::sync::atomic::AtomicU64,
    deadline: Instant,
    traced_from: Instant,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut tracer = Tracer::new(false, run.epoch);
    let mut rng = SplitMix64::new(derive(run.seed, 10 + i as u64));
    let addr = s.addr.as_str();
    // The mix is dealt from a shuffled deck of twenty, so every twenty
    // operations hold exactly 16 predictions, 3 cached and 1 cold campaign.
    let mut deck: Vec<u8> = [[0u8; 16].as_slice(), &[1; 3], &[2]].concat();
    let mut dealt = deck.len();
    while Instant::now() < deadline {
        tracer.set_enabled(run.trace && Instant::now() >= traced_from);
        if dealt == deck.len() {
            rng.shuffle(&mut deck);
            dealt = 0;
        }
        let draw = deck[dealt];
        dealt += 1;
        if draw == 0 {
            let k = rng.gen_range(s.requests.len() as u64) as usize;
            let t0 = Instant::now();
            let served = tracer.span("bench", "predict", |t| {
                t.span("server", "predict", |_| {
                    client::predict(addr, &s.requests[k])
                })
            });
            log.time(
                if tracer.enabled() {
                    "predict_traced"
                } else {
                    "predict"
                },
                t0,
            );
            let result = served
                .map_err(|e| format!("predict: {e}"))
                .and_then(|p| check_prediction(&expected[k], &p));
            log.verdict(result);
        } else if draw == 1 {
            let (spec, want) = &s.cached[rng.gen_range(CACHED_SPECS) as usize];
            let result = tracer.span("bench", "cached_campaign", |t| {
                let t0 = Instant::now();
                let reply = t
                    .span("server", "submit", |_| client::submit(addr, spec))
                    .map_err(|e| format!("cached submit: {e}"))?;
                log.time("submit_cached", t0);
                if !reply.cached {
                    return Err("pre-warmed spec missed the cache".to_string());
                }
                let t1 = Instant::now();
                let status = t
                    .span("server", "status", |_| client::status(addr, reply.id))
                    .map_err(|e| format!("cached status: {e}"))?;
                log.time("status", t1);
                match status.result {
                    Some(got) if got.to_json() == want.to_json() => Ok(()),
                    _ => Err("cached campaign result differs from the pre-warmed one".to_string()),
                }
            });
            log.verdict(result);
        } else {
            let n = cold_counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let spec = cold_spec(n);
            let t0 = Instant::now();
            let result = tracer.span("bench", "cold_campaign", |t| {
                let t1 = Instant::now();
                let reply = t
                    .span("server", "submit", |_| client::submit(addr, &spec))
                    .map_err(|e| format!("cold submit: {e}"))?;
                log.time("submit_cold", t1);
                poll(addr, reply.id, t)
            });
            match result {
                Ok(shard) => {
                    log.time("cold_campaign", t0);
                    log.cold.push((n, shard));
                }
                Err(e) => log.verdict(Err(e)),
            }
        }
        log.ops += 1;
    }
    tracer.set_enabled(run.trace);
    log.tracer = Some(tracer);
    log
}

/// Sample `/stats` until `until`: (max queue depth, mean utilisation).
fn sample_stats(addr: &str, until: Instant) -> (u64, f64) {
    let (mut depth, mut util, mut n) = (0u64, 0.0, 0u32);
    while Instant::now() < until {
        if let Ok(v) = client::stats(addr) {
            depth = depth.max(v.get_u64("queue_depth").unwrap_or(0));
            util += v.get_f64("utilization").unwrap_or(0.0);
            n += 1;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    (depth, util / f64::from(n.max(1)))
}

pub fn run(run: &Run) -> Outcome {
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(run.trace, run.epoch);
    let mut setups = SetupTimes::default();
    let s = setups.repeat(|| setup(run, &mut tracer));
    outcome.fact("clients", CLIENTS);
    outcome.fact("server_workers", 1);
    outcome.fact("job_threads", 1);

    // Oracle inputs, untimed: the same sweep fitted in this process.
    let local = layers::fig7_sweep(run.seed)
        .run_report(crate::nproc())
        .expect("local sweep");
    let domain = local
        .domain(Target::IntegerUnit, FaultKind::StuckAt1)
        .expect("IU stuck-at-1 domain");
    let expected: Vec<Prediction> = s
        .requests
        .iter()
        .map(|r| Prediction::evaluate(&local.fingerprint, domain, r.diversity().unwrap_or(0)))
        .collect();
    outcome.check(if local.to_json() == s.report.to_json() {
        Ok(())
    } else {
        Err("the service's fitted report differs from the local sweep".to_string())
    });
    for (spec, result) in &s.cached {
        outcome.check(check_local(spec, result));
    }

    let start = Instant::now();
    let deadline = start + run.window();
    let traced_from = start + run.window() / 2;
    let cold_counter = std::sync::atomic::AtomicU64::new(0);
    let (logs, sampled) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let (s, expected, cold_counter) = (&s, &expected, &cold_counter);
                scope.spawn(move || {
                    client_loop(i, run, s, expected, cold_counter, deadline, traced_from)
                })
            })
            .collect();
        let sampled = run.trace.then(|| {
            std::thread::sleep(traced_from.saturating_duration_since(Instant::now()));
            sample_stats(&s.addr, deadline)
        });
        let logs: Vec<ClientLog> = clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect();
        (logs, sampled)
    });
    let elapsed = start.elapsed().as_secs_f64();
    setups.repeat(|| setup(run, &mut tracer));
    setups.put(&mut outcome);

    let mut ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut ops = 0;
    for mut log in logs {
        ops += log.ops;
        for (route, values) in std::mem::take(&mut log.ms) {
            ms.entry(route).or_default().extend(values);
        }
        for _ in 0..log.passed {
            outcome.check(Ok(()));
        }
        for failure in log.failures {
            outcome.check(Err(failure));
        }
        for (n, shard) in &log.cold {
            outcome.check(check_local(&cold_spec(*n), shard));
        }
        if let Some(t) = log.tracer.take() {
            tracer.absorb(t);
        }
    }
    let untraced = ms.get("predict").cloned().unwrap_or_default();
    let traced = ms.get("predict_traced").cloned().unwrap_or_default();
    let predict_ms: Vec<f64> = untraced.iter().chain(&traced).copied().collect();
    outcome.put("throughput_per_s", Summary::exact(ops as f64 / elapsed));
    outcome.put("latency_p50_ms", Summary::of(&predict_ms));
    layers::put_latency_tail(&mut outcome, &predict_ms);
    outcome.fact("operations", ops);
    outcome.fact(
        "cold_campaigns",
        ms.get("cold_campaign").map_or(0, Vec::len),
    );

    if run.trace {
        for (route, metric) in [
            ("predict_traced", "server.route_p50_us.predict"),
            ("submit_cached", "server.route_p50_us.submit_cached"),
            ("status", "server.route_p50_us.status"),
            ("submit_cold", "server.route_p50_us.submit_cold"),
        ] {
            outcome.put(
                metric,
                layers::scaled(ms.get(route).map_or(&[][..], Vec::as_slice), 1e3),
            );
        }
        outcome.put(
            "server.cold_campaign_p50_ms",
            Summary::of(ms.get("cold_campaign").map_or(&[][..], Vec::as_slice)),
        );
        let mut sorted = predict_ms.clone();
        sorted.sort_by(f64::total_cmp);
        outcome.exact(
            "server.predict_p99_ms",
            crate::stats::quantile(&sorted, 99, 100),
        );
        if let Ok(v) = client::stats(&s.addr) {
            let ratio = |hits: &str, misses: &str| {
                let h = v.get_u64(hits).unwrap_or(0) as f64;
                let m = v.get_u64(misses).unwrap_or(0) as f64;
                if h + m > 0.0 {
                    h / (h + m)
                } else {
                    0.0
                }
            };
            outcome.exact(
                "server.cache_hit_ratio",
                ratio("cache_hits", "cache_misses"),
            );
            outcome.exact(
                "server.golden_cache_hit_ratio",
                ratio("golden_cache_hits", "golden_cache_misses"),
            );
        }
        if let Some((depth, util)) = sampled {
            outcome.exact("server.queue_depth_max", depth as f64);
            outcome.exact("server.utilization", util);
        }
        layers::put_overhead(&mut outcome, &untraced, &traced);
        let words = layers::image_words(
            Benchmark::ALL
                .iter()
                .map(|b| b.program(&Params::default()))
                .collect::<Vec<_>>()
                .iter(),
        );
        outcome.exact("sparc.decode_ns", layers::decode_ns(&mut tracer, &words));
    }
    drop(s);
    layers::finish_trace(&mut outcome, &tracer, run, "service-mix");
    outcome
}

fn check_local(spec: &CampaignSpec, served: &ShardResult) -> Result<(), String> {
    let campaign = spec.to_campaign();
    let local = campaign
        .try_run(crate::nproc())
        .map_err(|e| e.to_string())?;
    let local = layers::unsharded(&campaign, local);
    if local.to_json() == served.to_json() {
        Ok(())
    } else {
        Err(format!(
            "served campaign {} differs from the local run",
            spec.to_json()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_rejects_a_wrong_served_pf() {
        let mut spec = layers::fig7_sweep(1);
        spec.benchmarks = vec![Benchmark::Intbench, Benchmark::Rspeed];
        spec.include_excerpts = false;
        spec.sample = Some((4, 1));
        let report = spec.run_report(1).expect("tiny sweep fits");
        let domain = report
            .domain(Target::IntegerUnit, FaultKind::StuckAt1)
            .expect("domain");
        let expected = Prediction::evaluate(&report.fingerprint, domain, 20);
        let mut outcome = Outcome::default();
        outcome.check(check_prediction(&expected, &expected.clone()));
        let mut wrong = expected.clone();
        wrong.pf += 1e-9;
        outcome.check(check_prediction(&expected, &wrong));
        assert_eq!((outcome.attempted, outcome.failed), (2, 1));
    }
}
