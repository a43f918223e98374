//! The workspace benchmark: four workloads, end-to-end metrics untraced,
//! per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload iss-predict --seed 2015 --seconds 15 --trace 0
//! ```
//!
//! Every run checks each operation's output against an oracle computed in
//! the same process from the same seed, prints a detail line (provenance
//! and every metric as median, quartiles and sample count) and, last, the
//! result line. See `perfbench/README.md` for the metric reference.

mod cmem_fleet;
mod iss_predict;
mod iu_transient;
mod layers;
mod report;
mod service_mix;
mod stats;
mod trace;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["iss-predict", "cmem-permanent-fleet", "service-mix"];

/// Everything a run writes goes under the benchmark's own `out/`.
const OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// A run repeats its set-up for this long in all, half before the
/// measurement window and half after it.
pub const SETUP_BUDGET: Duration = Duration::from_secs(4);
/// One `setup_s` sample is the mean time of back-to-back set-ups lasting
/// at least this long. Host speed switches between two levels ~1.6x apart
/// in spells of under a second, so the median of single 60 ms set-ups
/// lands on whichever level held the majority of the run.
pub const SETUP_SAMPLE: Duration = Duration::from_millis(500);
/// Samples taken at least, before and after the window each.
pub const SETUP_MIN_SAMPLES: usize = 2;

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// When the process started: `setup_s` and span times count from here.
    pub epoch: Instant,
}

impl Run {
    /// The measurement window. A traced run splits it: the first half
    /// untraced (the overhead baseline), the second half traced.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Where this run writes its span file.
    pub fn trace_path(&self, workload: &str) -> PathBuf {
        Path::new(OUT).join(format!("{workload}-seed{}.spans.tsv", self.seed))
    }

    /// A scratch directory for this process's files (fleet store, runner
    /// journals), removed by the caller when the run ends.
    pub fn scratch_dir(&self, what: &str) -> PathBuf {
        Path::new(OUT).join(format!("tmp-{}-{what}", std::process::id()))
    }
}

/// Whole rounds of a campaign workload's distinct campaigns, so every
/// run averages the same mix however many rounds fit. A run ends on the
/// round boundary nearest the end of its window: ending on the first one
/// past it ran two ~7 s rounds of a 15 s window in some runs and three in
/// others.
pub struct Rounds {
    len: u64,
    window_s: f64,
    round_start_s: f64,
}

impl Rounds {
    pub fn new(len: u64, run: &Run) -> Rounds {
        Rounds {
            len,
            window_s: run.window().as_secs_f64(),
            round_start_s: 0.0,
        }
    }

    /// Whether to run campaign `k`, given the campaign time spent so far.
    pub fn go_on(&mut self, k: u64, busy_s: f64) -> bool {
        if !k.is_multiple_of(self.len) {
            return true;
        }
        let last_round_s = busy_s - self.round_start_s;
        self.round_start_s = busy_s;
        k == 0 || busy_s + last_round_s / 2.0 < self.window_s
    }
}

/// Host threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// A per-purpose seed derived from the run seed (SplitMix64 finaliser).
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A run's set-up samples; `setup_s` is their median.
#[derive(Debug, Default)]
pub struct SetupTimes {
    samples: Vec<f64>,
    repeats: usize,
    /// Threads shutting earlier set-ups down, joined on drop.
    retiring: Vec<std::thread::JoinHandle<()>>,
}

impl SetupTimes {
    /// Repeat a set-up for half of [`SETUP_BUDGET`], ending on a whole
    /// sample, and return the last one. Oracles are computed after,
    /// untimed.
    pub fn repeat<S: Send + 'static>(&mut self, mut setup: impl FnMut() -> S) -> S {
        let start = Instant::now();
        let first = self.samples.len();
        let (mut sum, mut n) = (0.0, 0u32);
        loop {
            let t = Instant::now();
            let s = setup();
            sum += t.elapsed().as_secs_f64();
            n += 1;
            self.repeats += 1;
            if sum >= SETUP_SAMPLE.as_secs_f64() {
                self.samples.push(sum / f64::from(n));
                (sum, n) = (0.0, 0);
                if self.samples.len() - first >= SETUP_MIN_SAMPLES
                    && start.elapsed() >= SETUP_BUDGET / 2
                {
                    return s;
                }
            }
            // Earlier set-ups shut down on a thread of their own: a fleet's
            // runners wait out a heartbeat sleep (up to ~2.5 s) before they
            // stop, mostly asleep, which would otherwise fill the run's
            // wall time.
            self.retiring.push(std::thread::spawn(move || drop(s)));
        }
    }

    /// Record the median sample as `setup_s`.
    pub fn put(&self, outcome: &mut Outcome) {
        outcome.fact("setup_repeats", self.repeats);
        outcome.put("setup_s", stats::Summary::of(&self.samples));
    }
}

impl Drop for SetupTimes {
    fn drop(&mut self) {
        for handle in self.retiring.drain(..) {
            if handle.join().is_err() {
                eprintln!("[perfbench] shutting an earlier set-up down panicked");
            }
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Run) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 2015u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
        i += 2;
    }
    let workload = workload.unwrap_or_else(|| usage());
    if !WORKLOADS.contains(&workload.as_str()) || seconds.is_nan() || seconds <= 0.0 {
        usage();
    }
    (
        workload,
        Run {
            seed,
            seconds,
            trace,
            epoch: Instant::now(),
        },
    )
}

/// Fold a traced run's spans into the per-layer self-time metrics.
pub fn put_self_times(outcome: &mut Outcome, tracer: &Tracer) {
    let by_layer = tracer.self_ms_by_layer();
    for (name, _) in PER_LAYER {
        if let Some(layer) = name.strip_prefix("self_ms.") {
            outcome.exact(name, by_layer.get(layer).copied().unwrap_or(0.0));
        }
    }
}

fn main() {
    let (workload, run) = parse_args();
    let mut outcome = match workload.as_str() {
        "iss-predict" => iss_predict::run(&run),
        "cmem-permanent-fleet" => cmem_fleet::run(&run),
        "service-mix" => service_mix::run(&run),
        _ => unreachable!("validated in parse_args"),
    };
    outcome.put(
        "success_rate",
        stats::Summary::exact(1.0 - outcome.error_rate()),
    );
    outcome.put("peak_rss_mb", stats::Summary::exact(stats::peak_rss_mb()));
    for reason in &outcome.failures {
        eprintln!("[perfbench] FAILED: {reason}");
    }
    let table: &[(&str, &str)] = if run.trace { &PER_LAYER } else { &END_TO_END };
    if !run.trace {
        for (name, _) in END_TO_END {
            assert!(
                outcome.metrics.contains_key(name),
                "workload {workload} did not measure {name}"
            );
        }
    }
    let provenance = report::provenance(&workload, run.seed, run.seconds as u64, run.trace);
    // Both tables go on the detail line, so one run documents itself.
    println!(
        "{}",
        report::detail_line(&provenance, &outcome, &END_TO_END)
    );
    if run.trace {
        println!("{}", report::detail_line(&provenance, &outcome, &PER_LAYER));
    }
    println!("{}", report::result_line(&outcome, table));
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_inject::wire::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(v: &Json, key: &str, field: &str) -> Vec<String> {
        v.get_array(key)
            .unwrap_or_else(|| panic!("`{key}` array"))
            .iter()
            .map(|m| m.get_str(field).expect("string field").to_string())
            .collect()
    }

    #[test]
    fn metric_and_workload_names_match_benchmark_json() {
        let v = benchmark_json();
        assert_eq!(names(&v, "workloads", "name"), WORKLOADS);
        let table = |t: &[(&str, &str)]| -> (Vec<String>, Vec<String>) {
            t.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .unzip()
        };
        let (e2e, e2e_units) = table(&END_TO_END);
        assert_eq!(names(&v, "end_to_end", "name"), e2e);
        assert_eq!(names(&v, "end_to_end", "unit"), e2e_units);
        let (layer, layer_units) = table(&PER_LAYER);
        assert_eq!(names(&v, "per_layer", "name"), layer);
        assert_eq!(names(&v, "per_layer", "unit"), layer_units);
    }

    #[test]
    fn printed_lines_carry_every_name_of_the_table() {
        let mut outcome = Outcome::default();
        outcome.check(Ok(()));
        for table in [&END_TO_END[..], &PER_LAYER[..]] {
            let line = report::result_line(&outcome, table);
            let v = Json::parse(&line).expect("result line is JSON");
            let Some(Json::Object(metrics)) = v.get("metrics") else {
                panic!("metrics object");
            };
            let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let expected: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
            assert_eq!(printed, expected);
        }
    }
}
