//! `iss-predict`: the paper's cheap path, in process, closed loop on one
//! thread. Each operation runs one program on the ISS, takes its opcode
//! histogram and predicts RTL Pf from the fitted `Pf = a·ln(D) + b`.
//!
//! Oracle: the same program on the signal-level Leon3 model (the paper's
//! co-simulation premise) gives the expected instruction count, exit
//! code, off-core write stream and histogram; the expected Pf is the
//! model evaluated at the RTL-measured diversity.

use crate::layers::{self, Digest};
use crate::report::Outcome;
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::{derive, Run, SetupTimes};
use analysis::{CorrelationPoint, FittedModel, SplitMix64};
use fault_inject::{Campaign, Target};
use leon3_model::{Leon3, Leon3Config};
use rtl_sim::FaultKind;
use sparc_asm::Program;
use sparc_iss::RunOutcome;
use std::hint::black_box;
use std::time::Instant;
use workloads::random::{random_program, RandomSpec};
use workloads::{Benchmark, Params, DATASETS};

/// Seeded random programs added to the thirty suite inputs.
const RANDOM_PROGRAMS: usize = 10;
/// Benchmarks whose RTL Pf is measured in set-up but left out of the fit
/// (the model is fitted on the Table 1 six).
const HOLDOUT: [Benchmark; 4] = [
    Benchmark::A2time,
    Benchmark::Tblook,
    Benchmark::Basefp,
    Benchmark::Bitmnp,
];
/// Sampled stuck-at-1 IU sites per held-out benchmark.
const SITES: usize = 48;

pub struct Input {
    label: String,
    program: Program,
}

struct Setup {
    inputs: Vec<Input>,
    model: FittedModel,
    points: Vec<CorrelationPoint>,
    holdout_err: f64,
}

/// What one prediction produced, or what the oracle expects of it.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    pub instructions: u64,
    pub exit: Option<u32>,
    pub writes: u64,
    pub histogram: u64,
    pub diversity: usize,
    pub pf: f64,
}

fn suite_and_random(seed: u64) -> Vec<Input> {
    let mut inputs = Vec::new();
    for benchmark in Benchmark::ALL {
        for dataset in 0..DATASETS {
            inputs.push(Input {
                label: format!("{benchmark}@{dataset}"),
                program: benchmark.program(&Params {
                    dataset,
                    ..Params::default()
                }),
            });
        }
    }
    let mut rng = SplitMix64::new(derive(seed, 1));
    for i in 0..RANDOM_PROGRAMS {
        let spec = RandomSpec {
            length: 200 + rng.gen_range(400) as usize,
            seed: rng.next_u64(),
        };
        inputs.push(Input {
            label: format!("random{i}"),
            program: random_program(&spec),
        });
    }
    inputs
}

fn iss_diversity(program: &Program) -> usize {
    layers::iss_run(program).0.stats().diversity()
}

fn setup(run: &Run, tracer: &mut Tracer) -> Setup {
    let threads = crate::nproc();
    let inputs = tracer.span("workloads", "program", |_| suite_and_random(run.seed));
    let report = tracer.span("fault", "correlation_sweep", |_| {
        layers::fig7_sweep(run.seed)
            .run_report(threads)
            .expect("the paper's sweep fits")
    });
    let domain = report
        .domain(Target::IntegerUnit, FaultKind::StuckAt1)
        .expect("the sweep has the IU stuck-at-1 domain");
    let model = domain.model.clone();
    let points = domain
        .points
        .iter()
        .map(|p| CorrelationPoint {
            label: p.label.clone(),
            diversity: p.diversity as f64,
            pf: p.pf,
        })
        .collect();
    let mut holdout_err: f64 = 0.0;
    for (i, benchmark) in HOLDOUT.into_iter().enumerate() {
        let program = tracer.span("workloads", "program", |_| {
            benchmark.program(&Params::default())
        });
        let diversity = tracer.span("iss", "diversity", |_| iss_diversity(&program));
        let campaign = Campaign::new(program, Target::IntegerUnit)
            .with_kinds(&[FaultKind::StuckAt1])
            .with_sample(SITES, derive(run.seed, 100 + i as u64));
        let pf = tracer
            .span("fault", "campaign", |_| campaign.try_run(threads))
            .expect("held-out campaign runs")
            .pf(FaultKind::StuckAt1);
        holdout_err = holdout_err.max((model.predict(diversity as f64) - pf).abs());
    }
    // Warm-up: one prediction per input size class, unrecorded so that
    // the `iss`/`run` spans are the traced half's predictions only.
    let tracing = tracer.enabled();
    tracer.set_enabled(false);
    for input in inputs.iter().step_by(7) {
        black_box(predict(&input.program, &model, tracer));
    }
    tracer.set_enabled(tracing);
    Setup {
        inputs,
        model,
        points,
        holdout_err,
    }
}

/// The measured operation.
pub fn predict(program: &Program, model: &FittedModel, tracer: &mut Tracer) -> Observed {
    tracer.span("bench", "predict", |t| {
        let (iss, outcome) = t.span("iss", "run", |_| layers::iss_run(program));
        let histogram = t.span("iss", "histogram", |_| iss.stats().named_histogram());
        let diversity = histogram.len();
        let pf = t.span("analysis", "predict", |_| model.predict(diversity as f64));
        Observed {
            instructions: iss.stats().instructions,
            exit: halted(outcome),
            writes: Digest::writes(iss.bus_trace().writes()),
            histogram: Digest::histogram(&histogram),
            diversity,
            pf,
        }
    })
}

fn halted(outcome: RunOutcome) -> Option<u32> {
    match outcome {
        RunOutcome::Halted { code } => Some(code),
        _ => None,
    }
}

/// The oracle for one input: the program on the Leon3 RTL model.
fn oracle(program: &Program, model: &FittedModel) -> Observed {
    let mut cpu = Leon3::new(Leon3Config::default());
    cpu.load(program);
    let outcome = cpu.run(layers::ISS_BUDGET);
    let histogram = cpu.stats().named_histogram();
    Observed {
        instructions: cpu.stats().instructions,
        exit: halted(outcome),
        writes: Digest::writes(cpu.bus_trace().writes()),
        histogram: Digest::histogram(&histogram),
        diversity: histogram.len(),
        pf: model.predict(histogram.len() as f64),
    }
}

/// Compare one prediction with its oracle, naming the first mismatch.
pub fn check(label: &str, expected: &Observed, observed: &Observed) -> Result<(), String> {
    if expected.exit.is_none() {
        return Err(format!("{label}: oracle run did not halt"));
    }
    if expected == observed {
        Ok(())
    } else {
        Err(format!(
            "{label}: expected {expected:?}, observed {observed:?}"
        ))
    }
}

pub fn run(run: &Run) -> Outcome {
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(run.trace, run.epoch);
    let mut setups = SetupTimes::default();
    let setup = setups.repeat(|| setup(run, &mut tracer));
    outcome.fact("threads", 1);
    outcome.fact("inputs", setup.inputs.len());

    let expected: Vec<Observed> = setup
        .inputs
        .iter()
        .map(|input| tracer.span("leon3", "run", |_| oracle(&input.program, &setup.model)))
        .collect();
    let pass_instructions: u64 = expected.iter().map(|e| e.instructions).sum();

    let mut order: Vec<usize> = (0..setup.inputs.len()).collect();
    let mut rng = SplitMix64::new(derive(run.seed, 2));
    // Whole passes over the inputs, each in a fresh seeded order; a traced
    // run spends the first half of the window untraced.
    let mut latencies = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut traced_instructions = 0u64;
    let window = run.window();
    let start = Instant::now();
    while start.elapsed() < window {
        let tracing = run.trace && start.elapsed() >= window / 2;
        tracer.set_enabled(tracing);
        rng.shuffle(&mut order);
        for &i in &order {
            let input = &setup.inputs[i];
            let t0 = Instant::now();
            let observed = predict(&input.program, &setup.model, &mut tracer);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            latencies.push(ms);
            if tracing {
                traced_ms.push(ms);
                traced_instructions += observed.instructions;
            } else {
                untraced_ms.push(ms);
            }
            outcome.check(check(&input.label, &expected[i], &observed));
        }
    }
    tracer.set_enabled(run.trace);
    setups.repeat(|| self::setup(run, &mut tracer));
    setups.put(&mut outcome);
    let busy_s: f64 = latencies.iter().sum::<f64>() / 1e3;
    outcome.put(
        "throughput_per_s",
        Summary::exact(latencies.len() as f64 / busy_s),
    );
    outcome.put("latency_p50_ms", Summary::of(&latencies));
    layers::put_latency_tail(&mut outcome, &latencies);

    if run.trace {
        let iss_ms = tracer.total_ms("iss", "run");
        outcome.put(
            "iss.run_ms",
            Summary::of(&tracer.durations_ms("iss", "run")),
        );
        outcome.exact(
            "iss.minsn_per_s",
            traced_instructions as f64 / (iss_ms * 1e3),
        );
        outcome.exact("iss.instructions", pass_instructions as f64);
        outcome.put(
            "iss.histogram_us",
            layers::scaled(&tracer.durations_ms("iss", "histogram"), 1e3),
        );
        outcome.put(
            "workloads.program_ms",
            Summary::of(&tracer.durations_ms("workloads", "program")),
        );
        // The paper's cost argument as a same-process ratio: passes over
        // every input on each simulator, alternated so host noise hits
        // both alike.
        let (mut iss_s, mut leon3_s) = (0.0, 0.0);
        for _ in 0..2 {
            let t = Instant::now();
            for input in &setup.inputs {
                tracer.span("iss", "pass", |_| black_box(iss_diversity(&input.program)));
            }
            iss_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            for input in &setup.inputs {
                tracer.span("leon3", "run", |_| {
                    black_box(oracle(&input.program, &setup.model))
                });
            }
            leon3_s += t.elapsed().as_secs_f64();
        }
        outcome.exact(
            "leon3.minsn_per_s",
            2.0 * pass_instructions as f64 / (leon3_s * 1e6),
        );
        outcome.exact("leon3.iss_over_leon3", leon3_s / iss_s);
        let fit_us = layers::time_per_call_us(&mut tracer, "analysis", "fit", || {
            black_box(FittedModel::fit(&setup.points).expect("refit"));
        });
        outcome.exact("analysis.fit_us", fit_us);
        let mut d = 0u32;
        let predict_us = layers::time_per_call_us(&mut tracer, "analysis", "predict", || {
            d = d % 64 + 1;
            black_box(setup.model.predict(black_box(f64::from(d))));
        });
        outcome.exact("analysis.predict_ns", predict_us * 1e3);
        let words = layers::image_words(setup.inputs.iter().map(|i| &i.program));
        outcome.exact("sparc.decode_ns", layers::decode_ns(&mut tracer, &words));
        layers::put_overhead(&mut outcome, &untraced_ms, &traced_ms);
        crate::iu_transient::traced_sweep(&mut outcome, &mut tracer, run);
    }
    outcome.exact("analysis.pf_holdout_err", setup.holdout_err);
    outcome.fact("pass_instructions", pass_instructions);
    layers::finish_trace(&mut outcome, &tracer, run, "iss-predict");
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_rejects_a_wrong_pf() {
        let program = Benchmark::Intbench.program(&Params::default());
        let model = FittedModel {
            a: 0.1,
            b: -0.1,
            r2: 1.0,
            n: 2,
            residuals: vec![0.0, 0.0],
        };
        let expected = oracle(&program, &model);
        let mut observed = predict(&program, &model, &mut Tracer::new(false, Instant::now()));
        let mut outcome = Outcome::default();
        outcome.check(check("intbench", &expected, &observed));
        observed.pf += 1e-6;
        outcome.check(check("intbench", &expected, &observed));
        assert_eq!((outcome.attempted, outcome.failed), (2, 1));
        assert_eq!(outcome.error_rate(), 0.5);
    }
}
